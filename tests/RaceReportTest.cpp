//===-- tests/RaceReportTest.cpp - Race aggregation ------------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "detector/RaceReport.h"

#include "runtime/FunctionRegistry.h"

#include <gtest/gtest.h>

using namespace literace;

namespace {

RaceSighting sighting(Pc A, Pc B, uint64_t Addr = 0x100, bool AW = true,
                      bool BW = true) {
  RaceSighting S;
  S.FirstPc = A;
  S.SecondPc = B;
  S.Addr = Addr;
  S.FirstIsWrite = AW;
  S.SecondIsWrite = BW;
  return S;
}

TEST(RaceReportTest, KeysAreOrderInsensitive) {
  EXPECT_EQ(makeStaticRaceKey(5, 3), makeStaticRaceKey(3, 5));
  RaceReport R;
  R.record(sighting(10, 20));
  R.record(sighting(20, 10));
  EXPECT_EQ(R.numStaticRaces(), 1u);
  EXPECT_EQ(R.numDynamicSightings(), 2u);
  EXPECT_TRUE(R.contains(20, 10));
}

TEST(RaceReportTest, DistinctPairsAreDistinctStaticRaces) {
  RaceReport R;
  R.record(sighting(1, 2));
  R.record(sighting(1, 3));
  R.record(sighting(2, 3));
  EXPECT_EQ(R.numStaticRaces(), 3u);
}

TEST(RaceReportTest, DynamicCountsAccumulatePerKey) {
  RaceReport R;
  for (int I = 0; I != 7; ++I)
    R.record(sighting(1, 2));
  R.record(sighting(3, 4));
  auto Races = R.staticRaces();
  ASSERT_EQ(Races.size(), 2u);
  EXPECT_EQ(Races[0].DynamicCount, 7u);
  EXPECT_EQ(Races[1].DynamicCount, 1u);
}

TEST(RaceReportTest, TracksWriteWriteKind) {
  RaceReport R;
  R.record(sighting(1, 2, 0x10, true, false));
  auto Races = R.staticRaces();
  EXPECT_FALSE(Races[0].SawWriteWrite);
  R.record(sighting(1, 2, 0x10, true, true));
  Races = R.staticRaces();
  EXPECT_TRUE(Races[0].SawWriteWrite);
}

TEST(RaceReportTest, RareThresholdIsThreePerMillion) {
  // 2M memory ops -> threshold 6 manifestations.
  StaticRace Race;
  Race.DynamicCount = 5;
  EXPECT_TRUE(RaceReport::isRare(Race, 2000000));
  Race.DynamicCount = 6;
  EXPECT_FALSE(RaceReport::isRare(Race, 2000000));
}

TEST(RaceReportTest, SplitRareFrequentPartitionsKeys) {
  RaceReport R;
  for (int I = 0; I != 2; ++I)
    R.record(sighting(1, 2)); // 2 sightings: rare at 2M mem ops.
  for (int I = 0; I != 100; ++I)
    R.record(sighting(3, 4)); // 100 sightings: frequent.
  auto [Rare, Frequent] = R.splitRareFrequent(2000000);
  EXPECT_EQ(Rare.size(), 1u);
  EXPECT_EQ(Frequent.size(), 1u);
  EXPECT_TRUE(Rare.count(makeStaticRaceKey(1, 2)));
  EXPECT_TRUE(Frequent.count(makeStaticRaceKey(3, 4)));
  EXPECT_EQ(Rare.size() + Frequent.size(), R.keys().size());
}

TEST(RaceReportTest, ClassificationScalesWithExecutionLength) {
  RaceReport R;
  for (int I = 0; I != 4; ++I)
    R.record(sighting(1, 2));
  // Short run: 4 sightings over 100k ops is way past 3-per-million.
  EXPECT_TRUE(R.splitRareFrequent(100000).second.count(
      makeStaticRaceKey(1, 2)));
  // Long run: same 4 sightings over 10M ops is rare.
  EXPECT_TRUE(R.splitRareFrequent(10000000).first.count(
      makeStaticRaceKey(1, 2)));
}

TEST(RaceReportTest, DescribeResolvesFunctionNames) {
  FunctionRegistry Registry;
  FunctionId F = Registry.registerFunction("chan.push");
  FunctionId G = Registry.registerFunction("chan.pop");
  RaceReport R;
  R.record(sighting(makePc(F, 42), makePc(G, 7)));
  std::string Text = R.describe(&Registry);
  EXPECT_NE(Text.find("chan.push:42"), std::string::npos);
  EXPECT_NE(Text.find("chan.pop:7"), std::string::npos);
  EXPECT_NE(Text.find("1 static race"), std::string::npos);
}

TEST(RaceReportTest, DescribeWithoutRegistryUsesIds) {
  RaceReport R;
  R.record(sighting(makePc(3, 1), makePc(4, 2)));
  std::string Text = R.describe();
  EXPECT_NE(Text.find("fn3:1"), std::string::npos);
}

TEST(RaceReportTest, SuppressionsRetireTriagedSites) {
  RaceReport R;
  R.record(sighting(10, 20));
  R.record(sighting(30, 40));
  R.record(sighting(10, 50));
  EXPECT_EQ(R.staticRacesExcluding({}).size(), 3u);
  // Suppressing one site retires every race it participates in.
  auto Filtered = R.staticRacesExcluding({10});
  ASSERT_EQ(Filtered.size(), 1u);
  EXPECT_EQ(Filtered[0].Key, makeStaticRaceKey(30, 40));
  // The report itself is untouched.
  EXPECT_EQ(R.numStaticRaces(), 3u);
  // Suppressing either side works.
  EXPECT_EQ(R.staticRacesExcluding({40, 50}).size(), 1u);
}

TEST(RaceReportTest, ExampleAddrIsFirstSighting) {
  RaceReport R;
  R.record(sighting(1, 2, 0xAAA));
  R.record(sighting(1, 2, 0xBBB));
  EXPECT_EQ(R.staticRaces()[0].ExampleAddr, 0xAAAu);
}

RaceSighting sightingAt(Pc A, Pc B, uint64_t Addr, uint64_t EventIndex) {
  RaceSighting S = sighting(A, B, Addr);
  S.EventIndex = EventIndex;
  return S;
}

TEST(RaceReportTest, FirstOccurrenceFollowsEventIndexNotRecordOrder) {
  // Recorded out of replay order, the aggregation must still settle on
  // the replay-earliest sighting.
  RaceReport R;
  R.record(sightingAt(1, 2, 0xBBB, 90));
  R.record(sightingAt(1, 2, 0xAAA, 10));
  R.record(sightingAt(1, 2, 0xCCC, 50));
  auto Races = R.staticRaces();
  ASSERT_EQ(Races.size(), 1u);
  EXPECT_EQ(Races[0].ExampleAddr, 0xAAAu);
  EXPECT_EQ(Races[0].FirstEventIndex, 10u);
  EXPECT_EQ(Races[0].DynamicCount, 3u);
}

TEST(RaceReportTest, GoldenDescribeOutputIsLocked) {
  // Locks the canonical report rendering: explicit (site, first event
  // index) ordering, never container iteration order. If this test
  // breaks, report formatting or ordering changed — update deliberately.
  RaceReport R;
  R.record(sightingAt(makePc(2, 20), makePc(1, 10), 0x500, 11));
  R.record(sightingAt(makePc(1, 10), makePc(2, 20), 0x500, 14));
  RaceSighting ReadWrite = sighting(makePc(1, 10), makePc(3, 30), 0x600,
                                    /*AW=*/true, /*BW=*/false);
  ReadWrite.EventIndex = 3;
  R.record(ReadWrite);
  const char *Golden = "2 static race(s), 3 dynamic sighting(s)\n"
                       "  fn1:10 <-> fn2:20  x2  [write/write]\n"
                       "  fn1:10 <-> fn3:30  x1\n";
  EXPECT_EQ(R.describe(), Golden);
}

} // namespace
