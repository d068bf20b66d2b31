//===-- tests/ReplayFuzzTest.cpp - Randomized end-to-end consistency -------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Property: every log the runtime produces — under any thread schedule,
// any mix of synchronization primitives, and any sampler decisions — can
// be replayed to completion (no missing/duplicated timestamps), its
// sampled views are subsets of the full view, and the online detector
// agrees with the offline one. Exercised with randomized multi-threaded
// programs.
//
//===----------------------------------------------------------------------===//

#include "detector/HBDetector.h"
#include "detector/LogBuilder.h"
#include "detector/OnlineDetector.h"
#include "detector/ShardedDetector.h"
#include "support/SplitMix64.h"
#include "sync/MonitoredAllocator.h"
#include "sync/Primitives.h"

#include <algorithm>
#include <cstring>
#include <gtest/gtest.h>

using namespace literace;

namespace {

/// Shared playground for the random programs. Only non-blocking
/// operations are used, so no random program can deadlock.
struct Playground {
  Mutex Locks[3];
  AtomicU64 Atomics[2];
  ManualResetEvent Flags[2];
  MonitoredAllocator Allocator;
  uint64_t Cells[16] = {};
};

/// One thread's random op sequence.
void randomThread(ThreadContext &TC, Playground &P, FunctionId F,
                  uint64_t Seed, unsigned Ops) {
  SplitMix64 Rng(Seed);
  int Held = -1;
  uint64_t Sink = 0;
  for (unsigned I = 0; I != Ops; ++I) {
    switch (Rng.nextBelow(8)) {
    case 0: // Memory write through the dispatch check.
    case 1:
      TC.run(F, [&](auto &T) {
        T.store(&P.Cells[Rng.nextBelow(16)], Rng.next(),
                static_cast<uint32_t>(I));
      });
      break;
    case 2: // Memory read.
      TC.run(F, [&](auto &T) {
        Sink ^= T.load(&P.Cells[Rng.nextBelow(16)],
                       static_cast<uint32_t>(I));
      });
      break;
    case 3: // Balanced lock/unlock.
      if (Held < 0) {
        Held = static_cast<int>(Rng.nextBelow(3));
        P.Locks[Held].lock(TC);
      } else {
        P.Locks[Held].unlock(TC);
        Held = -1;
      }
      break;
    case 4: // Atomics (the §4.2 critical-section path).
      Sink ^= P.Atomics[Rng.nextBelow(2)].fetchAdd(TC, 1);
      break;
    case 5: {
      uint64_t Expected = Sink & 3;
      P.Atomics[Rng.nextBelow(2)].compareExchange(TC, Expected, I);
      break;
    }
    case 6: // Event set (never wait: waits could deadlock).
      P.Flags[Rng.nextBelow(2)].set(TC);
      break;
    case 7: { // Allocation churn (§4.3 page events).
      size_t Bytes = 48 + Rng.nextBelow(100);
      void *Mem = P.Allocator.allocate(TC, Bytes);
      TC.run(F, [&](auto &T) {
        T.store(static_cast<uint8_t *>(Mem), uint8_t{1},
                static_cast<uint32_t>(I));
      });
      P.Allocator.deallocate(TC, Mem, Bytes);
      break;
    }
    }
  }
  if (Held >= 0)
    P.Locks[Held].unlock(TC);
  (void)Sink;
}

class ReplayFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplayFuzzTest, RuntimeLogsAlwaysReplayConsistently) {
  SplitMix64 Rng(GetParam());
  MemorySink Sink(32);
  RuntimeConfig Config;
  Config.Mode = RunMode::Experiment;
  Config.TimestampCounters = 32;
  Config.Seed = GetParam();
  Config.ThreadBufferRecords = 64; // Many small chunks.
  Runtime RT(Config, &Sink);
  RT.addStandardSamplers();
  FunctionId F = RT.registry().registerFunction("fuzz.op");

  Playground P;
  {
    ThreadContext Main(RT);
    const unsigned NumThreads = 2 + Rng.nextBelow(3);
    const unsigned Ops = 200 + Rng.nextBelow(400);
    std::vector<std::unique_ptr<Thread>> Threads;
    for (unsigned I = 0; I != NumThreads; ++I)
      Threads.push_back(std::make_unique<Thread>(
          RT, Main, [&, I](ThreadContext &TC) {
            randomThread(TC, P, F, GetParam() * 131 + I, Ops);
          }));
    for (auto &Th : Threads)
      Th->join(Main);
  }

  Trace T = Sink.takeTrace();
  RaceReport Full;
  ASSERT_TRUE(detectRaces(T, Full)) << "inconsistent log, seed "
                                    << GetParam();

  // Sampled views replay consistently and never add racy ADDRESSES.
  // (Witness pc pairs can differ: an event missing from the sampled view
  // cannot evict shadow entries, so the race may be reported against an
  // older access of the same variable — still a true race.)
  for (int Slot = 0; Slot != 7; ++Slot) {
    RaceReport Sampled;
    ReplayOptions Options;
    Options.SamplerSlot = Slot;
    ASSERT_TRUE(detectRaces(T, Sampled, Options));
    for (uint64_t Addr : Sampled.racyAddresses())
      EXPECT_TRUE(Full.racyAddresses().count(Addr))
          << "slot " << Slot << " fabricated a racy address";
  }

  // The online detector, fed the same chunks in arbitrary thread order,
  // agrees with the offline result.
  RaceReport Online;
  OnlineDetector D(32, Online);
  for (ThreadId Tid = T.PerThread.size(); Tid-- > 0;)
    D.writeChunk(Tid, T.PerThread[Tid].data(), T.PerThread[Tid].size());
  ASSERT_TRUE(D.finish());
  EXPECT_EQ(Online.keys(), Full.keys());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

/// Builds one seeded random trace: 2-4 threads forked from thread 0 (and
/// joined at the end), interleaved mutex lock/unlock, and memory reads and
/// writes over a small address pool. The LogBuilder draws timestamps in
/// call order, so the generation order IS the recorded interleaving and
/// every trace is replay-consistent by construction. No real threads run,
/// so this generator is sanitizer-safe.
Trace randomBuiltTrace(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  LogBuilder B(16);
  const unsigned NumThreads = 2 + static_cast<unsigned>(Rng.nextBelow(3));
  const unsigned Steps = 200 + static_cast<unsigned>(Rng.nextBelow(300));
  const SyncVar Mutexes[3] = {makeSyncVar(SyncObjectKind::Mutex, 0x10),
                              makeSyncVar(SyncObjectKind::Mutex, 0x20),
                              makeSyncVar(SyncObjectKind::Mutex, 0x30)};

  // Fork edges: parent releases a per-child fork var, child acquires it.
  B.onThread(0).threadStart();
  for (ThreadId Child = 1; Child <= NumThreads; ++Child) {
    SyncVar Fork = makeSyncVar(SyncObjectKind::ThreadFork, Child);
    B.onThread(0).release(Fork);
    B.onThread(Child).threadStart().acquire(Fork);
  }

  std::vector<int> Held(NumThreads + 1, -1);
  for (unsigned Step = 0; Step != Steps; ++Step) {
    ThreadId Tid = static_cast<ThreadId>(Rng.nextBelow(NumThreads + 1));
    B.onThread(Tid);
    uint64_t Addr = 0x1000 + 8 * Rng.nextBelow(24);
    uint32_t Site = static_cast<uint32_t>(Rng.nextBelow(16));
    switch (Rng.nextBelow(6)) {
    case 0:
    case 1:
      B.write(Addr, makePc(Tid, Site));
      break;
    case 2:
    case 3:
      B.read(Addr, makePc(Tid, Site));
      break;
    case 4: // Balanced lock/unlock per thread.
      if (Held[Tid] < 0) {
        Held[Tid] = static_cast<int>(Rng.nextBelow(3));
        B.lock(Mutexes[Held[Tid]]);
      } else {
        B.unlock(Mutexes[Held[Tid]]);
        Held[Tid] = -1;
      }
      break;
    case 5: // Atomic-style acquire+release edge.
      B.acqRel(makeSyncVar(SyncObjectKind::Atomic, 0x40 + Rng.nextBelow(2)));
      break;
    }
  }
  for (ThreadId Tid = 1; Tid <= NumThreads; ++Tid)
    if (Held[Tid] >= 0)
      B.onThread(Tid).unlock(Mutexes[Held[Tid]]);
  if (Held[0] >= 0)
    B.onThread(0).unlock(Mutexes[Held[0]]);

  // Join edges mirror the forks.
  for (ThreadId Child = 1; Child <= NumThreads; ++Child) {
    SyncVar Join = makeSyncVar(SyncObjectKind::ThreadExit, Child);
    B.onThread(Child).release(Join).threadEnd();
    B.onThread(0).acquire(Join);
  }
  B.onThread(0).threadEnd();
  return B.build();
}

class ShardedTraceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardedTraceFuzz, SerialAndShardedReportsAreIdentical) {
  Trace T = randomBuiltTrace(GetParam());
  RaceReport Serial;
  ASSERT_TRUE(detectRaces(T, Serial)) << "seed " << GetParam();
  auto SerialRaces = Serial.staticRaces();
  const std::string SerialText = Serial.describe();

  for (unsigned Shards : {2u, 4u, 8u}) {
    DetectorOptions Options;
    Options.Shards = Shards;
    RaceReport Sharded;
    ASSERT_TRUE(detectRaces(T, Sharded, ReplayOptions(), Options))
        << "seed " << GetParam() << " shards " << Shards;
    EXPECT_EQ(Sharded.numDynamicSightings(), Serial.numDynamicSightings())
        << "seed " << GetParam() << " shards " << Shards;
    auto ShardedRaces = Sharded.staticRaces();
    ASSERT_EQ(ShardedRaces.size(), SerialRaces.size())
        << "seed " << GetParam() << " shards " << Shards;
    for (size_t I = 0; I != SerialRaces.size(); ++I) {
      EXPECT_EQ(ShardedRaces[I].Key, SerialRaces[I].Key);
      EXPECT_EQ(ShardedRaces[I].DynamicCount, SerialRaces[I].DynamicCount);
      EXPECT_EQ(ShardedRaces[I].ExampleAddr, SerialRaces[I].ExampleAddr);
      EXPECT_EQ(ShardedRaces[I].FirstEventIndex,
                SerialRaces[I].FirstEventIndex);
      EXPECT_EQ(ShardedRaces[I].SawWriteWrite, SerialRaces[I].SawWriteWrite);
    }
    EXPECT_EQ(Sharded.describe(), SerialText)
        << "seed " << GetParam() << " shards " << Shards;
  }
}

// 100 seeds: the randomized differential-equivalence property of the
// sharded pipeline (ISSUE 2). Traces are synthetic, so this also runs in
// the TSan detector tier, where it race-checks the queues and workers.
INSTANTIATE_TEST_SUITE_P(Seeds, ShardedTraceFuzz,
                         ::testing::Range<uint64_t>(1, 101));

//===----------------------------------------------------------------------===//
// Chunk-split differential leg: the incremental scheduler against itself
// and against batch replay, on every seed's runtime log.
//===----------------------------------------------------------------------===//

/// Records the seeded random program of RuntimeLogsAlwaysReplayConsistently
/// and returns its log.
Trace recordRandomProgram(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  MemorySink Sink(32);
  RuntimeConfig Config;
  Config.Mode = RunMode::Experiment;
  Config.TimestampCounters = 32;
  Config.Seed = Seed;
  Config.ThreadBufferRecords = 64;
  Runtime RT(Config, &Sink);
  RT.addStandardSamplers();
  FunctionId F = RT.registry().registerFunction("fuzz.op");
  Playground P;
  {
    ThreadContext Main(RT);
    const unsigned NumThreads = 2 + Rng.nextBelow(3);
    const unsigned Ops = 200 + Rng.nextBelow(400);
    std::vector<std::unique_ptr<Thread>> Threads;
    for (unsigned I = 0; I != NumThreads; ++I)
      Threads.push_back(std::make_unique<Thread>(
          RT, Main, [&, I](ThreadContext &TC) {
            randomThread(TC, P, F, Seed * 131 + I, Ops);
          }));
    for (auto &Th : Threads)
      Th->join(Main);
  }
  return Sink.takeTrace();
}

/// One chunk of a thread's stream, and whether the scheduler adopts it
/// (addChunk) or copies it (addEvents).
struct Piece {
  ThreadId Tid = 0;
  size_t Begin = 0, End = 0;
  bool Adopt = false;
};

/// Cuts every stream of \p T into seeded random chunks — empty, single
/// records and up to 64 records — and interleaves the threads the way a
/// file holds them: a random merge that keeps each thread's chunks in
/// program order.
std::vector<Piece> randomSplit(const Trace &T, SplitMix64 &Rng) {
  std::vector<std::vector<Piece>> PerThread(T.PerThread.size());
  size_t Total = 0;
  for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid) {
    const size_t Size = T.PerThread[Tid].size();
    for (size_t At = 0; At < Size;) {
      const uint64_t Shape = Rng.nextBelow(4);
      const size_t Want = Shape < 2 ? Shape : 2 + Rng.nextBelow(63);
      const size_t N = std::min(Want, Size - At);
      PerThread[Tid].push_back({static_cast<ThreadId>(Tid), At, At + N,
                                Rng.nextBelow(2) == 0});
      At += N;
      ++Total;
    }
  }
  std::vector<Piece> Out;
  std::vector<size_t> Next(PerThread.size(), 0);
  while (Out.size() != Total) {
    const size_t Tid = Rng.nextBelow(PerThread.size());
    if (Next[Tid] < PerThread[Tid].size())
      Out.push_back(PerThread[Tid][Next[Tid]++]);
  }
  return Out;
}

void feed(ReplayScheduler &S, const Trace &T, const Piece &P) {
  const EventRecord *Begin = T.PerThread[P.Tid].data() + P.Begin;
  const size_t Count = P.End - P.Begin;
  if (P.Adopt)
    S.addChunk(P.Tid, std::vector<EventRecord>(Begin, Begin + Count));
  else
    S.addEvents(P.Tid, Begin, Count);
}

/// Records the delivered sequence, coverage gaps included as marker
/// records; takes memory runs whole, like HBDetector.
struct SequenceRecorder final : TraceConsumer {
  std::vector<EventRecord> Events;
  void onEvent(const EventRecord &R) override { Events.push_back(R); }
  void onCoverageGap() override {
    EventRecord Gap;
    Gap.Addr = ~uint64_t(0);
    Events.push_back(Gap);
  }
  size_t onMemoryRun(const EventRecord *Records, size_t MaxCount) {
    size_t N = 0;
    while (N < MaxCount && isMemoryKind(Records[N].Kind))
      Events.push_back(Records[N++]);
    return N;
  }
};

bool sameSequence(const std::vector<EventRecord> &A,
                  const std::vector<EventRecord> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(EventRecord)) ==
              0);
}

/// Adds every piece, then drains once (strict or allowing gaps), typed.
std::vector<EventRecord> scheduleAllThenDrain(const Trace &T,
                                              const std::vector<Piece> &Pieces,
                                              const ReplayOptions &Options,
                                              bool AllowGaps) {
  ReplayScheduler S(T.NumTimestampCounters, Options);
  for (const Piece &P : Pieces)
    feed(S, T, P);
  SequenceRecorder Rec;
  if (AllowGaps)
    S.drainAllowingGapsWith(Rec);
  else
    S.drainWith(Rec);
  return Rec.Events;
}

/// Drops runs of records until strict replay fails: what a lost log
/// segment leaves behind.
Trace gappedCopy(const Trace &T, SplitMix64 &Rng) {
  Trace Gapped = T;
  for (unsigned Attempt = 0; Attempt != 64; ++Attempt) {
    auto &Stream = Gapped.PerThread[Rng.nextBelow(Gapped.PerThread.size())];
    if (Stream.size() < 2)
      continue;
    const size_t At = Rng.nextBelow(Stream.size() - 1);
    const size_t N =
        1 + Rng.nextBelow(std::min<size_t>(16, Stream.size() - At));
    Stream.erase(Stream.begin() + At, Stream.begin() + At + N);
    SequenceRecorder Probe;
    if (!replayTraceWith(Gapped, Probe))
      break;
  }
  return Gapped;
}

TEST_P(ReplayFuzzTest, ChunkSplitsDeliverLikeBatchReplay) {
  const Trace T = recordRandomProgram(GetParam());
  SplitMix64 Rng(GetParam() * 7919);

  for (unsigned Split = 0; Split != 4; ++Split) {
    const std::vector<Piece> Pieces = randomSplit(T, Rng);

    // Drain after every add: the typed, run-batched drain and the base
    // per-event drain see the same adds, so they must agree exactly.
    RaceReport Typed, Virtual;
    HBDetector TypedHB(Typed), VirtualHB(Virtual);
    ReplayScheduler TypedS(T.NumTimestampCounters);
    ReplayScheduler VirtualS(T.NumTimestampCounters);
    size_t TypedDelivered = 0, VirtualDelivered = 0;
    for (const Piece &P : Pieces) {
      feed(TypedS, T, P);
      feed(VirtualS, T, P);
      TypedDelivered += TypedS.drainWith(TypedHB);
      VirtualDelivered += VirtualS.drain(VirtualHB);
      ASSERT_EQ(TypedDelivered, VirtualDelivered) << "seed " << GetParam();
      ASSERT_EQ(TypedS.pendingEvents(), VirtualS.pendingEvents());
    }
    EXPECT_TRUE(TypedS.fullyDrained()) << "seed " << GetParam();
    EXPECT_EQ(TypedDelivered, T.totalEvents());
    EXPECT_EQ(Typed.describe(), Virtual.describe()) << "seed " << GetParam();
    EXPECT_EQ(Typed.numDynamicSightings(), Virtual.numDynamicSightings());

    // Everything added before one drain: exactly batch replay's order,
    // with and without a sampler filter (which disables run batching).
    for (int Slot : {-1, 2}) {
      ReplayOptions Options;
      Options.SamplerSlot = Slot;
      SequenceRecorder Batch;
      ASSERT_TRUE(replayTraceWith(T, Batch, Options));
      EXPECT_TRUE(sameSequence(
          scheduleAllThenDrain(T, Pieces, Options, /*AllowGaps=*/false),
          Batch.Events))
          << "seed " << GetParam() << " split " << Split << " slot " << Slot;
    }
  }

  // A gapped log: strict and gap-tolerant drains both match batch replay,
  // coverage-gap positions included.
  const Trace Gapped = gappedCopy(T, Rng);
  for (bool AllowGaps : {false, true}) {
    ReplayOptions Options;
    Options.AllowTimestampGaps = AllowGaps;
    uint64_t BatchGaps = 0;
    Options.OutTimestampGaps = &BatchGaps;
    SequenceRecorder Batch;
    EXPECT_EQ(replayTraceWith(Gapped, Batch, Options), AllowGaps)
        << "seed " << GetParam();
    if (AllowGaps) {
      EXPECT_GT(BatchGaps, 0u) << "seed " << GetParam();
    }
    Options.OutTimestampGaps = nullptr;
    const std::vector<Piece> Pieces = randomSplit(Gapped, Rng);
    EXPECT_TRUE(sameSequence(
        scheduleAllThenDrain(Gapped, Pieces, Options, AllowGaps),
        Batch.Events))
        << "seed " << GetParam() << " allow gaps " << AllowGaps;
  }
}

} // namespace
