//===-- detector/Replay.cpp - Log replay scheduling ----------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "detector/Replay.h"

#include <limits>

using namespace literace;

TraceConsumer::~TraceConsumer() = default;

void TraceConsumer::onCoverageGap() {}

bool literace::replayTrace(const Trace &T, TraceConsumer &Consumer,
                           const ReplayOptions &Options) {
  return replayTraceWith(T, Consumer, Options);
}

ReplayScheduler::ReplayScheduler(unsigned NumTimestampCounters,
                                 ReplayOptions Options)
    : NumCounters(NumTimestampCounters), Options(Options),
      NextTs(NumTimestampCounters, 1) {}

ReplayScheduler::ReplayScheduler(const Trace &T, ReplayOptions Options)
    : ReplayScheduler(T.NumTimestampCounters, Options) {
  for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid)
    add(static_cast<ThreadId>(Tid),
        {{}, T.PerThread[Tid].data(), T.PerThread[Tid].size()});
}

void ReplayScheduler::addEvents(ThreadId Tid, const EventRecord *Records,
                                size_t Count) {
  add(Tid, {std::vector<EventRecord>(Records, Records + Count)});
}

void ReplayScheduler::addChunk(ThreadId Tid,
                               std::vector<EventRecord> &&Chunk) {
  add(Tid, {std::move(Chunk)});
}

void ReplayScheduler::add(ThreadId Tid, Chunk &&C) {
  if (C.size() == 0)
    return;
  if (Tid >= Streams.size())
    Streams.resize(Tid + 1);
  Pending += C.size();
  Streams[Tid].Chunks.push_back(std::move(C));
}

bool ReplayScheduler::skipToEarliestBlockedEvent() {
  // Only a sync front with a real timestamp strictly ahead of its counter
  // blocks; non-sync and timestamp-less fronts are delivered by a stale
  // drain. The smallest blocked timestamp wins, so the choice does not
  // depend on stream order: equal timestamps on one counter pick the
  // same skip, and of equal ones on two counters the next round takes
  // the other.
  uint64_t BestTs = std::numeric_limits<uint64_t>::max();
  unsigned BestCounter = NumCounters;
  for (const Stream &S : Streams) {
    if (S.Chunks.empty())
      continue;
    const EventRecord &R = S.Chunks.front().data()[S.Head];
    if (!isSyncKind(R.Kind) || R.Ts == 0)
      continue;
    const unsigned Counter = counterForSyncVar(R.Addr, NumCounters);
    if (R.Ts > NextTs[Counter] && R.Ts < BestTs) {
      BestTs = R.Ts;
      BestCounter = Counter;
    }
  }
  if (BestCounter == NumCounters)
    return false;
  NextTs[BestCounter] = BestTs;
  ++Gaps;
  if (Options.OutTimestampGaps)
    ++*Options.OutTimestampGaps;
  return true;
}
