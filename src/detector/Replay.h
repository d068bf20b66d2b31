//===-- detector/Replay.h - Log replay scheduling ---------------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reconstructs a processing order for a logged execution.
///
/// The log contains one program-order stream per thread. Cross-thread
/// ordering is recoverable only through the logical timestamps drawn by
/// synchronization operations: all operations hashing to the same counter
/// drew strictly increasing timestamps in their real serialization order
/// (§4.2). The replay scheduler therefore interleaves the per-thread
/// streams subject to one constraint: a sync event with timestamp k on
/// counter c is processed only after every timestamp < k on counter c.
/// Memory events have no constraint beyond program order.
///
/// Replay optionally filters memory events by sampler slot, implementing
/// the §5.3 methodology of running detection over each sampler's view of
/// one and the same execution. Sync events are never filtered.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_DETECTOR_REPLAY_H
#define LITERACE_DETECTOR_REPLAY_H

#include "runtime/EventLog.h"
#include "runtime/TimestampManager.h"

#include <concepts>
#include <cstdint>
#include <deque>
#include <vector>

namespace literace {

/// Receiver of replayed events, in a happens-before-consistent order.
class TraceConsumer {
public:
  virtual ~TraceConsumer();

  /// Called once per delivered event.
  virtual void onEvent(const EventRecord &R) = 0;

  /// Called when the replay skips over a timestamp gap left by dropped
  /// log segments (salvaged traces, ReplayOptions::AllowTimestampGaps).
  /// Synchronization edges may be missing from that point on; detectors
  /// should degrade conservatively (e.g. install an ordering barrier so
  /// cross-gap pairs are never reported as races). Default: no-op.
  virtual void onCoverageGap();
};

/// Replay configuration.
struct ReplayOptions {
  /// If in [0, MaxSamplerSlots), deliver only memory events whose mask has
  /// that sampler's bit. Negative: deliver all memory events.
  int SamplerSlot = -1;
  /// Tolerate missing timestamps (dropped segments of a salvaged trace):
  /// instead of declaring the log inconsistent, the replay advances the
  /// stalled counter to the next surviving timestamp and notifies the
  /// consumer via onCoverageGap(). Replay then never deadlocks on a
  /// salvaged trace.
  bool AllowTimestampGaps = false;
  /// When non-null, incremented once per skipped timestamp gap.
  uint64_t *OutTimestampGaps = nullptr;
};

namespace replay_detail {

/// Detectors with onMemoryRun(records, max) take unfiltered memory events
/// a whole program-order run at a time (up to the thread's next sync
/// event), hoisting the per-thread clock lookup out of their hot loop.
/// The consumer returns how many leading memory events it consumed; the
/// delivered sequence is exactly the one per-event delivery would give.
template <typename ConsumerT>
concept MemoryRunSink = requires(ConsumerT &C, const EventRecord *P,
                                 size_t N) {
  { C.onMemoryRun(P, N) } -> std::convertible_to<size_t>;
};

} // namespace replay_detail

/// The replay scheduler, incremental for online detection (§4.4) and
/// whole-trace for batch replay: events arrive chunk by chunk while the
/// program runs, and a drain delivers whatever has become processable.
/// Each thread's stream is a queue of chunks, adopted without copying
/// and freed as soon as their last record is delivered. Not thread-safe;
/// callers serialize.
class ReplayScheduler {
public:
  explicit ReplayScheduler(unsigned NumTimestampCounters,
                           ReplayOptions Options = ReplayOptions());

  /// Schedules every stream of \p T in place, without copying (batch
  /// replay); \p T must outlive the scheduler.
  ReplayScheduler(const Trace &T, ReplayOptions Options);

  /// Appends a copy of \p Count records of thread \p Tid's stream
  /// (program order).
  void addEvents(ThreadId Tid, const EventRecord *Records, size_t Count);

  /// Appends \p Chunk to thread \p Tid's stream without copying it.
  void addChunk(ThreadId Tid, std::vector<EventRecord> &&Chunk);

  /// Delivers every event that is currently processable, statically
  /// typed on the consumer so that a `final` detector's onEvent()
  /// inlines and a detector with onMemoryRun() takes whole memory runs
  /// (replay_detail::MemoryRunSink). Returns the number delivered.
  template <typename ConsumerT> size_t drainWith(ConsumerT &Consumer) {
    return drainPass(Consumer, /*AllowStale=*/false);
  }

  /// End-of-stream drain for salvaged traces: like drainWith(), but when
  /// no more input is coming, pending events blocked on timestamps that
  /// were lost with dropped segments are unblocked by skipping the
  /// earliest gap (notifying \p Consumer via onCoverageGap()) until none
  /// is left. Call only after the last add; afterwards fullyDrained() is
  /// true.
  template <typename ConsumerT>
  size_t drainAllowingGapsWith(ConsumerT &Consumer) {
    size_t Delivered = drainPass(Consumer, /*AllowStale=*/true);
    while (Pending > 0 && skipToEarliestBlockedEvent()) {
      Consumer.onCoverageGap();
      Delivered += drainPass(Consumer, /*AllowStale=*/true);
    }
    return Delivered;
  }

  /// drainWith() and drainAllowingGapsWith() at the TraceConsumer base:
  /// one virtual call per event, no run batching.
  size_t drain(TraceConsumer &Consumer) { return drainWith(Consumer); }
  size_t drainAllowingGaps(TraceConsumer &Consumer) {
    return drainAllowingGapsWith(Consumer);
  }

  /// True if every added event has been delivered.
  bool fullyDrained() const { return Pending == 0; }

  /// Number of added-but-undelivered events.
  size_t pendingEvents() const { return Pending; }

  /// Timestamp gaps skipped by drainAllowingGaps().
  uint64_t timestampGaps() const { return Gaps; }

private:
  /// Records of one thread's stream: an adopted vector, or a view of a
  /// trace that outlives the scheduler.
  struct Chunk {
    std::vector<EventRecord> Owned;
    const EventRecord *View = nullptr;
    size_t ViewSize = 0;
    const EventRecord *data() const { return View ? View : Owned.data(); }
    size_t size() const { return View ? ViewSize : Owned.size(); }
  };
  /// One thread's pending records; the front chunk is delivered up to
  /// Head.
  struct Stream {
    std::deque<Chunk> Chunks;
    size_t Head = 0;
  };

  void add(ThreadId Tid, Chunk &&C);

  /// The one gap rule: once every stream is stalled with no more input
  /// coming, advances the counter of the earliest blocked front straight
  /// to its timestamp. False if no front is blocked.
  bool skipToEarliestBlockedEvent();

  /// Delivers in rounds — each stream in thread order until it blocks —
  /// until a round makes no progress.
  template <typename ConsumerT>
  size_t drainPass(ConsumerT &Consumer, bool AllowStale) {
    size_t Delivered = 0;
    for (bool Progress = true; Progress;) {
      Progress = false;
      for (Stream &S : Streams) {
        while (!S.Chunks.empty()) {
          const size_t Before = S.Head;
          const bool Done = deliverFront(S, Consumer, AllowStale);
          Delivered += S.Head - Before;
          Progress |= S.Head != Before;
          if (!Done)
            break;
          S.Chunks.pop_front();
          S.Head = 0;
        }
      }
    }
    Pending -= Delivered;
    return Delivered;
  }

  /// The per-stream delivery step: delivers \p S's front chunk from Head
  /// while its next record is processable (memory runs whole to a
  /// MemoryRunSink, other memory events through the sampler filter, a
  /// sync event when its timestamp is next on its counter); true once the
  /// chunk is used up. With \p AllowStale (gap-tolerant replay), a sync
  /// event without a timestamp or behind its gap-advanced counter goes
  /// through unconstrained — the coverage-gap barrier orders it; strict
  /// replay stops there and leaves the stream pending.
  template <typename ConsumerT>
  bool deliverFront(Stream &S, ConsumerT &Consumer, bool AllowStale) {
    const EventRecord *Records = S.Chunks.front().data();
    const size_t Count = S.Chunks.front().size();
    size_t Pos = S.Head;
    bool Done = true;
    while (Pos < Count) {
      const EventRecord &R = Records[Pos];
      if constexpr (replay_detail::MemoryRunSink<ConsumerT>) {
        if (isMemoryKind(R.Kind) && Options.SamplerSlot < 0) {
          Pos += Consumer.onMemoryRun(&R, Count - Pos);
          continue;
        }
      }
      if (isSyncKind(R.Kind)) {
        const unsigned Counter = counterForSyncVar(R.Addr, NumCounters);
        if (R.Ts == NextTs[Counter]) { // Counters start at 1, so Ts != 0.
          ++NextTs[Counter];
        } else if (!AllowStale || R.Ts > NextTs[Counter]) {
          Done = false; // Not yet enabled, duplicate, or malformed.
          break;
        }
        Consumer.onEvent(R);
      } else if (!isMemoryKind(R.Kind) || Options.SamplerSlot < 0 ||
                 (R.Mask & (1u << Options.SamplerSlot))) {
        Consumer.onEvent(R);
      }
      ++Pos;
    }
    S.Head = Pos;
    return Done;
  }

  unsigned NumCounters;
  ReplayOptions Options;
  /// Indexed by thread id; a deque, so a new thread never moves the
  /// pending chunks of the others.
  std::deque<Stream> Streams;
  std::vector<uint64_t> NextTs;
  size_t Pending = 0;
  uint64_t Gaps = 0;
};

/// Statically typed batch replay: the whole trace scheduled in place and
/// drained once (allowing gaps under ReplayOptions::AllowTimestampGaps),
/// so batch and incremental delivery orders are one and the same.
/// Returns false if the log is inconsistent (a timestamp is missing or
/// duplicated, so no valid order exists); every event not blocked behind
/// the inconsistency has been delivered by then.
template <typename ConsumerT>
bool replayTraceWith(const Trace &T, ConsumerT &Consumer,
                     const ReplayOptions &Options = ReplayOptions()) {
  ReplayScheduler Scheduler(T, Options);
  if (Options.AllowTimestampGaps)
    Scheduler.drainAllowingGapsWith(Consumer);
  else
    Scheduler.drainWith(Consumer);
  return Scheduler.fullyDrained();
}

/// replayTraceWith() instantiated at the TraceConsumer base (one virtual
/// call per event), kept for heterogeneous consumers.
bool replayTrace(const Trace &T, TraceConsumer &Consumer,
                 const ReplayOptions &Options = ReplayOptions());

} // namespace literace

#endif // LITERACE_DETECTOR_REPLAY_H
