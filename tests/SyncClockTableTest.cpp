//===-- tests/SyncClockTableTest.cpp - Sync-clock table and sync steps ----===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Unit cases for SyncClockTable (keys at the ends of the range, keys that
// share their low hash bits, growth across rehashes and storage blocks
// with references held, lookups that must not insert), and a seeded
// differential leg: random sync-dense traces over a few thousand
// SyncVars, every sync kind included, replayed through HBDetector and
// FastTrackDetector with every thread clock checked after every event
// against an in-test model (a std::map of SyncVar clocks, acquire then
// release), and the memory accesses checked against the
// ReferenceDetector oracle as in ModelCheckTest.
//
//===----------------------------------------------------------------------===//

#include "detector/SyncClockTable.h"

#include "detector/FastTrackDetector.h"
#include "detector/HBDetector.h"
#include "detector/LogBuilder.h"
#include "detector/ReferenceDetector.h"
#include "support/Hashing.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

using namespace literace;

namespace {

VectorClock clockWith(ThreadId T, uint64_t V) {
  VectorClock C;
  C.set(T, V);
  return C;
}

TEST(SyncClockTableTest, ExtremeKeysAreDistinctEntries) {
  SyncClockTable Table;
  EXPECT_EQ(Table.find(0), nullptr);
  EXPECT_EQ(Table.find(~0ULL), nullptr);
  Table.ref(0).set(0, 7);
  Table.ref(~0ULL).set(1, 9);
  ASSERT_NE(Table.find(0), nullptr);
  ASSERT_NE(Table.find(~0ULL), nullptr);
  EXPECT_NE(Table.find(0), Table.find(~0ULL));
  EXPECT_EQ(*Table.find(0), clockWith(0, 7));
  EXPECT_EQ(*Table.find(~0ULL), clockWith(1, 9));
  EXPECT_EQ(Table.size(), 2u);
  EXPECT_EQ(Table.find(1), nullptr);
  EXPECT_EQ(Table.find(~0ULL - 1), nullptr);
}

TEST(SyncClockTableTest, KeysSharingLowHashBitsStayApart) {
  // Keys whose mix64 agrees in the low 12 bits land on one home slot at
  // every capacity up to 4096 slots, so each probe walks the cluster.
  constexpr uint64_t LowMask = 0xfff;
  const uint64_t Home = mix64(0) & LowMask;
  std::vector<uint64_t> Keys, Absent;
  for (uint64_t K = 0; Keys.size() != 300 || Absent.size() != 20; ++K) {
    if ((mix64(K) & LowMask) != Home)
      continue;
    if (Keys.size() != 300)
      Keys.push_back(K);
    else
      Absent.push_back(K);
  }
  SyncClockTable Table;
  for (size_t I = 0; I != Keys.size(); ++I)
    Table.ref(Keys[I]).set(0, I + 1);
  EXPECT_EQ(Table.size(), Keys.size());
  for (size_t I = 0; I != Keys.size(); ++I) {
    ASSERT_NE(Table.find(Keys[I]), nullptr) << "key " << Keys[I];
    EXPECT_EQ(Table.find(Keys[I])->get(0), I + 1);
    EXPECT_EQ(&Table.ref(Keys[I]), Table.find(Keys[I]));
  }
  for (uint64_t K : Absent)
    EXPECT_EQ(Table.find(K), nullptr) << "key " << K;
  EXPECT_EQ(Table.size(), Keys.size());
}

TEST(SyncClockTableTest, ReferencesSurviveRehashesAndNewBlocks) {
  SyncClockTable Table;
  // Page-aligned keys, as mutex and page-sync addresses are: identical
  // low raw bits, told apart only by the hash.
  auto Key = [](uint64_t I) { return (I + 1) << 12; };
  std::vector<VectorClock *> Early;
  for (uint64_t I = 0; I != 8; ++I) {
    VectorClock &C = Table.ref(Key(I));
    C.set(static_cast<ThreadId>(I), 100 + I);
    Early.push_back(&C);
  }
  const size_t FirstSlots = Table.slotCount();
  const size_t Total = 3 * SyncClockTable::BlockClocks + 17;
  for (uint64_t I = 8; I != Total; ++I)
    Table.ref(Key(I)).set(0, I);
  EXPECT_EQ(Table.size(), Total);
  // Several doublings of the index, load kept at or below one half.
  EXPECT_GE(Table.slotCount(), FirstSlots << 8);
  EXPECT_LE(Table.size() * 2, Table.slotCount());
  for (uint64_t I = 0; I != 8; ++I) {
    EXPECT_EQ(Table.find(Key(I)), Early[I]);
    EXPECT_EQ(*Early[I], clockWith(static_cast<ThreadId>(I), 100 + I));
  }
  for (uint64_t I = 8; I != Total; ++I) {
    ASSERT_NE(Table.find(Key(I)), nullptr);
    EXPECT_EQ(Table.find(Key(I))->get(0), I);
  }
}

TEST(SyncClockTableTest, FindAndAcquireOfAnAbsentKeyInsertNothing) {
  SyncClockTable Table;
  Table.ref(42).set(0, 1);
  const size_t Slots = Table.slotCount();
  for (uint64_t K = 1000; K != 1100; ++K)
    EXPECT_EQ(Table.find(K), nullptr);
  VectorClock Thread = clockWith(1, 5);
  Table.acquire(Thread, 7);
  EXPECT_EQ(Thread, clockWith(1, 5));
  EXPECT_EQ(Table.size(), 1u);
  EXPECT_EQ(Table.slotCount(), Slots);
}

//===----------------------------------------------------------------------===//
// Differential leg: detectors' thread clocks against a std::map model.
//===----------------------------------------------------------------------===//

/// The textbook happens-before sync semantics, kept deliberately naive:
/// an ordered map of SyncVar clocks, AcqRel/Alloc/Free as acquire then
/// release. Thread clocks start with their own component at 1, like the
/// detectors'.
class SyncModel {
public:
  VectorClock &clockOf(ThreadId T) {
    if (T >= Threads.size())
      Threads.resize(T + 1);
    if (Threads[T].get(T) == 0)
      Threads[T].set(T, 1);
    return Threads[T];
  }

  void onEvent(const EventRecord &R) {
    VectorClock &Thread = clockOf(R.Tid);
    switch (R.Kind) {
    case EventKind::Acquire:
      acquire(Thread, R.Addr);
      break;
    case EventKind::Release:
      release(Thread, R.Tid, R.Addr);
      break;
    case EventKind::AcqRel:
    case EventKind::Alloc:
    case EventKind::Free:
      acquire(Thread, R.Addr);
      release(Thread, R.Tid, R.Addr);
      break;
    default:
      break;
    }
  }

  size_t syncVarCount() const { return Sync.size(); }

private:
  void acquire(VectorClock &Thread, SyncVar S) {
    auto It = Sync.find(S);
    if (It != Sync.end())
      Thread.joinWith(It->second);
  }
  void release(VectorClock &Thread, ThreadId T, SyncVar S) {
    Sync[S].joinWith(Thread);
    Thread.tick(T);
  }

  std::vector<VectorClock> Threads;
  std::map<SyncVar, VectorClock> Sync;
};

/// Feeds every replayed event to both detectors and the model, then
/// compares every thread clock.
class ClockChecker final : public TraceConsumer {
public:
  ClockChecker(ThreadId Threads, uint64_t Seed)
      : HB(HBReport), FT(FTReport), Threads(Threads), Seed(Seed) {}

  void onEvent(const EventRecord &R) override {
    HB.onEvent(R);
    FT.onEvent(R);
    Model.onEvent(R);
    ++Events;
    for (ThreadId T = 0; T != Threads && !Mismatch; ++T) {
      const VectorClock &Want = Model.clockOf(T);
      if (HB.threadClock(T) == Want && FT.threadClock(T) == Want)
        continue;
      // Report the first divergence only; later clocks inherit it.
      Mismatch = true;
      ADD_FAILURE() << "thread " << T << " after event " << Events
                    << " (seed " << Seed << "): model " << Want.str()
                    << ", HB " << HB.threadClock(T).str() << ", FastTrack "
                    << FT.threadClock(T).str();
    }
  }

  RaceReport HBReport, FTReport;
  HBDetector HB;
  FastTrackDetector FT;
  SyncModel Model;
  uint64_t Events = 0;
  bool Mismatch = false;

private:
  ThreadId Threads;
  uint64_t Seed;
};

/// A random sync-dense trace: most steps are sync operations over a few
/// thousand SyncVars (every sync kind, page alloc/free included, keys 0
/// and ~0 among them), the rest memory accesses: unguarded ones to a
/// handful of addresses, which race, and lock-protected ones to two
/// more, which must not.
Trace randomSyncDenseTrace(uint64_t Seed, ThreadId Threads) {
  SplitMix64 Rng(Seed);
  LogBuilder B(16);
  std::vector<SyncVar> Vars = {0, ~0ULL};
  const unsigned NumVars = 2000 + static_cast<unsigned>(Rng.nextBelow(2000));
  while (Vars.size() != NumVars) {
    switch (Rng.nextBelow(3)) {
    case 0: // Page-aligned, as allocation page syncs are.
      Vars.push_back(Rng.nextBelow(1u << 20) << 12);
      break;
    case 1:
      Vars.push_back(makeSyncVar(SyncObjectKind::Atomic, Rng.next()));
      break;
    case 2:
      Vars.push_back(Rng.next());
      break;
    }
  }
  for (ThreadId T = 0; T != Threads; ++T)
    B.onThread(T).threadStart();
  const unsigned Steps = 4000 + static_cast<unsigned>(Rng.nextBelow(4000));
  for (unsigned I = 0; I != Steps; ++I) {
    const ThreadId T = static_cast<ThreadId>(Rng.nextBelow(Threads));
    B.onThread(T);
    // A small hot set makes the same SyncVar travel between threads; the
    // long tail gives the table its population.
    const SyncVar S = Rng.nextBelow(4) == 0 ? Vars[Rng.nextBelow(8)]
                                            : Vars[Rng.nextBelow(Vars.size())];
    const uint64_t Addr = 0x1000 + 8 * Rng.nextBelow(6);
    switch (Rng.nextBelow(11)) {
    case 0:
      B.read(Addr, makePc(T, I));
      break;
    case 1:
      B.write(Addr, makePc(T, I));
      break;
    case 2:
    case 3:
      B.acquire(S);
      break;
    case 4:
    case 5:
      B.release(S);
      break;
    case 6:
    case 7:
      B.acqRel(S);
      break;
    case 8:
      B.alloc(S);
      break;
    case 9:
      B.free(S);
      break;
    case 10: {
      // A lock-protected access: never racy, so the detectors must order
      // it through the table.
      const uint64_t Guard = Rng.nextBelow(2);
      B.lock(makeSyncVar(SyncObjectKind::Mutex, Guard));
      if (Rng.nextBelow(2))
        B.write(0x2000 + 8 * Guard, makePc(T, I));
      else
        B.read(0x2000 + 8 * Guard, makePc(T, I));
      B.unlock(makeSyncVar(SyncObjectKind::Mutex, Guard));
      break;
    }
    }
  }
  for (ThreadId T = 0; T != Threads; ++T)
    B.onThread(T).threadEnd();
  return B.build();
}

class SyncClockDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(SyncClockDifferentialTest, DetectorClocksMatchTheMapModel) {
  const uint64_t Seed = GetParam();
  const ThreadId Threads = 2 + static_cast<ThreadId>(Seed % 5);
  const Trace T = randomSyncDenseTrace(Seed, Threads);

  ClockChecker Checker(Threads, Seed);
  ASSERT_TRUE(replayTrace(T, Checker));
  ASSERT_FALSE(Checker.Mismatch);
  EXPECT_EQ(Checker.Events, T.totalEvents());
  // The model inserts on release only: acquires of never-released
  // SyncVars, common in these traces, must have inserted nothing.
  EXPECT_EQ(Checker.HB.syncVarCount(), Checker.Model.syncVarCount());
  EXPECT_GT(Checker.HB.syncVarCount(), 1000u);

  // Memory accesses: sound against the oracle's complete pair set, and
  // the same racy addresses.
  RaceReport Oracle;
  ASSERT_TRUE(detectRacesReference(T, Oracle));
  ReferenceDetector Ref;
  ASSERT_TRUE(replayTrace(T, Ref));
  const auto OracleKeys = Oracle.keys();
  for (const RaceReport *Candidate : {&Checker.HBReport, &Checker.FTReport})
    for (const StaticRaceKey &Key : Candidate->keys())
      EXPECT_TRUE(OracleKeys.count(Key))
          << "a pair the oracle rejects (seed " << Seed << "): " << Key.first
          << "," << Key.second;
  EXPECT_EQ(Checker.HBReport.racyAddresses(), Ref.racyAddresses())
      << "seed " << Seed;
  EXPECT_EQ(Checker.FTReport.racyAddresses(), Ref.racyAddresses())
      << "seed " << Seed;

  // The batch path (run-batched replay) reports what per-event delivery
  // did.
  RaceReport Batch;
  ASSERT_TRUE(detectRaces(T, Batch));
  EXPECT_EQ(Batch.describe(), Checker.HBReport.describe()) << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyncClockDifferentialTest,
                         ::testing::Range<uint64_t>(1, 17));

} // namespace
