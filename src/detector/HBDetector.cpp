//===-- detector/HBDetector.cpp - Happens-before race detection ----------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "detector/HBDetector.h"

#include "support/Compiler.h"

#include <algorithm>
#include <cassert>

using namespace literace;

HBDetector::HBDetector(RaceReport &Report) : Report(Report) {}

VectorClock &HBDetector::clockOf(ThreadId T) {
  if (T >= ThreadClocks.size())
    ThreadClocks.resize(T + 1);
  VectorClock &Clock = ThreadClocks[T];
  // A thread's own component starts at 1 so that its accesses have a
  // nonzero epoch distinguishable from "never accessed". A thread first
  // seen after a coverage gap starts behind the barrier: its fork edge
  // may have been in a dropped segment.
  if (Clock.get(T) == 0) {
    Clock.joinWith(GapBarrier);
    Clock.set(T, Clock.get(T) + 1);
  }
  return Clock;
}

void HBDetector::onCoverageGap() {
  ++CoverageGaps;
  // Conservative barrier: order everything before the gap before
  // everything after it. Missing HB edges then make the detector report
  // fewer races, never more — preserving "no false positives" on
  // salvaged traces.
  for (const VectorClock &Clock : ThreadClocks)
    GapBarrier.joinWith(Clock);
  for (size_t T = 0; T != ThreadClocks.size(); ++T) {
    VectorClock &Clock = ThreadClocks[T];
    if (Clock.get(static_cast<ThreadId>(T)) == 0)
      continue; // Not materialized; clockOf() applies the barrier later.
    Clock.joinWith(GapBarrier);
    // Tick so post-gap accesses are distinguishable from the pre-gap
    // knowledge just folded in.
    Clock.tick(static_cast<ThreadId>(T));
  }
}

const VectorClock &HBDetector::threadClock(ThreadId T) { return clockOf(T); }

void HBDetector::onEvent(const EventRecord &R) {
  ++NextEventIndex;
  switch (R.Kind) {
  case EventKind::ThreadStart:
  case EventKind::ThreadEnd:
    // Lifetime markers; fork/join edges arrive as sync events.
    (void)clockOf(R.Tid);
    return;
  case EventKind::PolicyMeta:
    // Elision-policy stamp; carries no access and no HB edge.
    return;
  case EventKind::Read:
  case EventKind::Write:
    onMemory(R);
    return;
  case EventKind::Acquire:
    ++SyncEvents;
    SyncClocks.acquire(clockOf(R.Tid), R.Addr);
    return;
  case EventKind::Release:
    ++SyncEvents;
    SyncClocks.release(clockOf(R.Tid), R.Tid, R.Addr);
    return;
  case EventKind::AcqRel:
  case EventKind::Alloc:
  case EventKind::Free:
    // Allocation events are §4.3 page synchronization: acquire+release.
    ++SyncEvents;
    SyncClocks.acquireRelease(clockOf(R.Tid), R.Tid, R.Addr);
    return;
  }
  literaceUnreachable("invalid event kind");
}

LR_NOINLINE void HBDetector::reportRace(const AccessRecord &Old,
                                        const EventRecord &New,
                                        bool OldIsWrite) {
  RaceSighting Sighting;
  Sighting.FirstPc = Old.Site;
  Sighting.SecondPc = New.Pc;
  Sighting.Addr = New.Addr;
  Sighting.FirstTid = Old.Tid;
  Sighting.SecondTid = New.Tid;
  Sighting.FirstIsWrite = OldIsWrite;
  Sighting.SecondIsWrite = New.Kind == EventKind::Write;
  Sighting.EventIndex = NextEventIndex - 1;
  Report.record(Sighting);
}

LR_ALWAYS_INLINE void HBDetector::onMemoryWith(const EventRecord &R,
                                               const VectorClock &Clock,
                                               uint64_t Epoch) {
  ++MemoryEvents;
  AddressState &State = Shadow.ref(R.Addr);

  // Each list is walked once: races are reported and the surviving
  // entries compacted in the same pass. Survivor order matches the old
  // checkAgainst + removeIf pair (both preserved relative order), so
  // reports are byte-identical.
  if (R.Kind == EventKind::Write) {
    // A write checks against both lists, replaces its own write entry,
    // and prunes every entry it happens-after: any future access racing
    // a pruned entry also races this write (and every kind conflicts
    // with a write), so nothing reportable is lost.
    uint32_t Out = 0;
    for (AccessRecord &Old : State.Writes) {
      if (Old.Tid != R.Tid && Clock.get(Old.Tid) < Old.Clock) {
        reportRace(Old, R, /*OldIsWrite=*/true);
        State.Writes[Out++] = Old; // Unordered: survives the prune.
      }
      // Ordered entries (own included: the thread's component is
      // monotone) are happens-before this write — pruned.
    }
    State.Writes.truncate(Out);
    State.Writes.push_back(AccessRecord{Epoch, R.Pc, R.Tid});
    Out = 0;
    for (AccessRecord &Old : State.Reads) {
      if (Old.Tid != R.Tid && Clock.get(Old.Tid) < Old.Clock) {
        reportRace(Old, R, /*OldIsWrite=*/false);
        State.Reads[Out++] = Old;
      }
    }
    State.Reads.truncate(Out);
  } else {
    for (const AccessRecord &Old : State.Writes)
      if (Old.Tid != R.Tid && Clock.get(Old.Tid) < Old.Clock)
        reportRace(Old, R, /*OldIsWrite=*/true);
    // Reads must never prune writes: a later read racing a pruned write
    // would go unreported (read/read pairs do not conflict). The read
    // list is updated in place; common case is the thread overwriting
    // its own previous entry.
    if (State.Reads.size() == 1 && State.Reads.front().Tid == R.Tid) {
      State.Reads.front() = AccessRecord{Epoch, R.Pc, R.Tid};
    } else {
      uint32_t Out = 0;
      for (AccessRecord &Old : State.Reads)
        if (Clock.get(Old.Tid) < Old.Clock)
          State.Reads[Out++] = Old; // Unordered with the new read.
      State.Reads.truncate(Out);
      State.Reads.push_back(AccessRecord{Epoch, R.Pc, R.Tid});
    }
  }
}

void HBDetector::onMemory(const EventRecord &R) {
  const VectorClock &Clock = clockOf(R.Tid);
  onMemoryWith(R, Clock, Clock.get(R.Tid));
}

size_t HBDetector::onMemoryRun(const EventRecord *Records, size_t MaxCount) {
  // One thread, no intervening sync within the run: the clock and epoch
  // hold until the first non-memory record, where the walk stops.
  const VectorClock &Clock = clockOf(Records[0].Tid);
  const uint64_t Epoch = Clock.get(Records[0].Tid);
  size_t I = 0;
  do {
    ++NextEventIndex;
    onMemoryWith(Records[I], Clock, Epoch);
    ++I;
  } while (I != MaxCount && isMemoryKind(Records[I].Kind));
  return I;
}

bool literace::detectRaces(const Trace &T, RaceReport &Report,
                           const ReplayOptions &Options) {
  HBDetector Detector(Report);
  return replayTraceWith(T, Detector, Options);
}
