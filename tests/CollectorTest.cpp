//===-- tests/CollectorTest.cpp - Collection daemon units -------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Unit and in-process integration coverage of the literace-collectd
// stack (docs/COLLECTOR.md): the Prometheus text-exposition writer and
// validator, the suppression-file grammar and matching semantics, the
// triage pipeline (dedup, suppression accounting, fake-clock token
// bucket), the incremental SegmentStreamDecoder against readTrace() as
// ground truth, and a full CollectorServer fed over real AF_UNIX
// sockets. Everything here runs on synthetic LogBuilder traces — no
// instrumented workload threads — so the whole suite is TSan-clean.
//
//===----------------------------------------------------------------------===//

#include "collector/Collector.h"
#include "collector/ReportTriage.h"
#include "collector/Suppressions.h"
#include "detector/HBDetector.h"
#include "detector/LogBuilder.h"
#include "detector/Replay.h"
#include "runtime/EventLog.h"
#include "support/ByteOutput.h"
#include "telemetry/Json.h"
#include "telemetry/Metrics.h"
#include "telemetry/Prometheus.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace literace;
using namespace literace::collector;

namespace {

std::string tempPath(const char *Name) {
  return std::string(::testing::TempDir()) + Name;
}

/// Writes \p T through a SegmentedFileSink in round-robin chunks of
/// \p ChunkSize so the file holds many small frames.
void writeSegmented(const Trace &T, const std::string &Path,
                    size_t ChunkSize, bool Compress = false) {
  SegmentedFileSink::Options Opts;
  Opts.Compress = Compress;
  SegmentedFileSink Sink(Path, T.NumTimestampCounters, Opts);
  ASSERT_TRUE(Sink.ok());
  std::vector<size_t> Pos(T.PerThread.size(), 0);
  bool More = true;
  while (More) {
    More = false;
    for (size_t Tid = 0; Tid < T.PerThread.size(); ++Tid) {
      size_t Left = T.PerThread[Tid].size() - Pos[Tid];
      if (Left == 0)
        continue;
      size_t N = std::min(ChunkSize, Left);
      Sink.writeChunk(static_cast<ThreadId>(Tid),
                      T.PerThread[Tid].data() + Pos[Tid], N);
      Pos[Tid] += N;
      More = true;
    }
  }
  EXPECT_TRUE(Sink.close());
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return Bytes;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), File)) != 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  std::fclose(File);
  return Bytes;
}

/// Two threads, one properly synchronized address and two unsynchronized
/// ones: replaying yields exactly two static races,
/// (fn3:9, fn4:11) write/write and (fn3:10, fn4:12) read/write.
Trace racyTrace() {
  LogBuilder B(16);
  B.onThread(0)
      .threadStart()
      .write(0x1000, makePc(1, 1))
      .release(7)
      .write(0x3000, makePc(3, 9))
      .read(0x4000, makePc(3, 10))
      .threadEnd();
  B.onThread(1)
      .threadStart()
      .acquire(7)
      .write(0x1000, makePc(2, 2)) // ordered by the m7 edge: no race
      .write(0x3000, makePc(4, 11))
      .write(0x4000, makePc(4, 12))
      .threadEnd();
  return B.build();
}

/// Serial ground truth: replays \p T through one HBDetector.
RaceReport detectOffline(const Trace &T) {
  RaceReport Report;
  HBDetector Detector(Report);
  ReplayScheduler Scheduler(T.NumTimestampCounters);
  for (size_t Tid = 0; Tid < T.PerThread.size(); ++Tid)
    Scheduler.addEvents(static_cast<ThreadId>(Tid), T.PerThread[Tid].data(),
                        T.PerThread[Tid].size());
  Scheduler.drain(Detector);
  return Report;
}

/// Drains every pending chunk of \p D into per-thread streams.
void drainDecoder(SegmentStreamDecoder &D,
                  std::vector<std::vector<EventRecord>> &PerThread) {
  SegmentStreamDecoder::Chunk Chunk;
  while (D.take(Chunk)) {
    if (PerThread.size() <= Chunk.Tid)
      PerThread.resize(Chunk.Tid + 1);
    PerThread[Chunk.Tid].insert(PerThread[Chunk.Tid].end(),
                                Chunk.Records.begin(), Chunk.Records.end());
  }
}

bool sameRecords(const std::vector<std::vector<EventRecord>> &A,
                 const std::vector<std::vector<EventRecord>> &B) {
  size_t Threads = std::max(A.size(), B.size());
  for (size_t Tid = 0; Tid < Threads; ++Tid) {
    const size_t An = Tid < A.size() ? A[Tid].size() : 0;
    const size_t Bn = Tid < B.size() ? B[Tid].size() : 0;
    if (An != Bn)
      return false;
    for (size_t I = 0; I < An; ++I)
      if (std::memcmp(&A[Tid][I], &B[Tid][I], sizeof(EventRecord)) != 0)
        return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Prometheus text exposition
//===----------------------------------------------------------------------===//

TEST(PrometheusTest, RendersAndValidatesARegistrySnapshot) {
  telemetry::MetricsRegistry Registry;
  auto Events = Registry.counter("collector.events.ingested");
  auto Depth = Registry.gaugeMax("collector.queue.depth.highwater");
  auto Sizes = Registry.histogram("collector.chunk.events");
  auto &Slab = Registry.threadSlab();
  Slab.add(Events, 41);
  Slab.gaugeMax(Depth, 17);
  Slab.record(Sizes, 3);
  Slab.record(Sizes, 900);

  telemetry::MetricsSnapshot Snap = Registry.snapshot();
  Snap.stampCapture(1723111111000ull, 4242);
  const std::string Text = telemetry::toPrometheusText(Snap);

  std::string Error;
  EXPECT_TRUE(telemetry::validatePrometheusText(Text, &Error)) << Error
                                                               << Text;
  // Counters get the _total suffix; dots become underscores.
  EXPECT_NE(Text.find("literace_collector_events_ingested_total 41"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("literace_collector_queue_depth_highwater 17"),
            std::string::npos);
  // Histograms expose cumulative buckets ending in +Inf == _count.
  EXPECT_NE(Text.find("le=\"+Inf\"} 2"), std::string::npos) << Text;
  EXPECT_NE(Text.find("literace_collector_chunk_events_count 2"),
            std::string::npos);
  EXPECT_NE(Text.find("literace_collector_chunk_events_sum 903"),
            std::string::npos);
  // The capture stamp rides along as the info-gauge's labels.
  EXPECT_NE(Text.find("captured_unix_ms=\"1723111111000\""),
            std::string::npos);
  EXPECT_NE(Text.find("pid=\"4242\""), std::string::npos);
}

TEST(PrometheusTest, CuratedHelpRidesTheExpositionAndUnknownsFallBack) {
  // Durability-plane metrics carry their catalog one-liners so a
  // dashboard explains itself; everything else keeps the generic help.
  ASSERT_NE(telemetry::metricHelp("sink.tee.gap_bytes"), nullptr);
  ASSERT_NE(telemetry::metricHelp("collector.ingest.gap_bytes"), nullptr);
  EXPECT_EQ(telemetry::metricHelp("no.such.metric"), nullptr);

  telemetry::MetricsRegistry Registry;
  auto Gap = Registry.counter("collector.ingest.gap_bytes");
  auto Odd = Registry.counter("experimental.oddball");
  auto &Slab = Registry.threadSlab();
  Slab.add(Gap, 7);
  Slab.add(Odd, 1);
  const std::string Text =
      telemetry::toPrometheusText(Registry.snapshot());
  std::string Error;
  EXPECT_TRUE(telemetry::validatePrometheusText(Text, &Error)) << Error;
  const std::string WantHelp =
      std::string("# HELP literace_collector_ingest_gap_bytes_total ") +
      telemetry::metricHelp("collector.ingest.gap_bytes");
  EXPECT_NE(Text.find(WantHelp), std::string::npos) << Text;
  EXPECT_NE(Text.find("# HELP literace_experimental_oddball_total "
                      "literace counter."),
            std::string::npos)
      << Text;
}

TEST(PrometheusTest, NameSanitizationFollowsTheGrammar) {
  EXPECT_EQ(telemetry::prometheusName("detector.shard0.memory_events"),
            "detector_shard0_memory_events");
  EXPECT_EQ(telemetry::prometheusName("9starts-with.digit"),
            "_9starts_with_digit");
}

TEST(PrometheusTest, ValidatorRejectsMalformedExposition) {
  std::string Error;
  // Sample for a family never typed.
  EXPECT_FALSE(telemetry::validatePrometheusText(
      "literace_x_total 1\n", &Error));
  // Non-cumulative histogram buckets.
  EXPECT_FALSE(telemetry::validatePrometheusText(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_bucket{le=\"2\"} 3\n"
      "h_bucket{le=\"+Inf\"} 5\n"
      "h_count 5\n"
      "h_sum 9\n",
      &Error));
  // +Inf bucket disagreeing with _count.
  EXPECT_FALSE(telemetry::validatePrometheusText(
      "# TYPE h histogram\n"
      "h_bucket{le=\"+Inf\"} 4\n"
      "h_count 5\n"
      "h_sum 9\n",
      &Error));
  // Document not ending in a newline.
  EXPECT_FALSE(telemetry::validatePrometheusText(
      "# TYPE c counter\nc_total 1", &Error));
}

//===----------------------------------------------------------------------===//
// Suppression files
//===----------------------------------------------------------------------===//

TEST(SuppressionsTest, ParsesBlocksAndSkipsOtherTools) {
  SuppressionSet Set;
  std::string Error;
  ASSERT_TRUE(Set.parse("# shared suppression file\n"
                        "{\n"
                        "  stats-counter\n"
                        "  LiteRace:Race\n"
                        "  site:fn3:7\n"
                        "}\n"
                        "{\n"
                        "  helgrind-only\n"
                        "  Helgrind:Race\n"
                        "  site:*\n"
                        "}\n"
                        "{\n"
                        "  ring-pair\n"
                        "  drd,LiteRace:Race\n"
                        "  site:fn1\n"
                        "  site:fn2:9\n"
                        "}\n",
                        &Error))
      << Error;
  // The Helgrind block belongs to another tool and is dropped.
  ASSERT_EQ(Set.size(), 2u);
  EXPECT_EQ(Set.entry(0).Name, "stats-counter");
  EXPECT_EQ(Set.entry(1).Name, "ring-pair");
  EXPECT_EQ(Set.entry(1).Sites.size(), 2u);
}

TEST(SuppressionsTest, GrammarErrorsCarryLineNumbers) {
  SuppressionSet Set;
  std::string Error;
  // Unterminated block.
  EXPECT_FALSE(Set.parse("{\n  x\n  LiteRace:Race\n  site:*\n", &Error));
  EXPECT_NE(Error.find("line"), std::string::npos) << Error;
  // A LiteRace block must suppress kind Race.
  EXPECT_FALSE(
      Set.parse("{\n  x\n  LiteRace:Leak\n  site:*\n}\n", &Error));
  // No site patterns.
  EXPECT_FALSE(Set.parse("{\n  x\n  LiteRace:Race\n}\n", &Error));
  // Three site patterns (a race has two sides).
  EXPECT_FALSE(Set.parse("{\n  x\n  LiteRace:Race\n  site:*\n  site:*\n"
                         "  site:*\n}\n",
                         &Error));
  // Malformed site spec.
  EXPECT_FALSE(
      Set.parse("{\n  x\n  LiteRace:Race\n  site:banana\n}\n", &Error));
  // A failed parse leaves the set unchanged.
  EXPECT_TRUE(Set.empty());
}

TEST(SuppressionsTest, MatchingSemantics) {
  SuppressionSet Set;
  std::string Error;
  ASSERT_TRUE(Set.parse("{\n  one-sided\n  LiteRace:Race\n  site:fn3:7\n}\n"
                        "{\n  pair\n  LiteRace:Race\n  site:fn5\n"
                        "  site:fn6:1\n}\n"
                        "{\n  exact\n  LiteRace:Race\n  site:0x700000002\n}\n",
                        &Error))
      << Error;

  // One pattern: either side may match.
  EXPECT_EQ(Set.match(makeStaticRaceKey(makePc(3, 7), makePc(9, 9))), 0);
  EXPECT_EQ(Set.match(makeStaticRaceKey(makePc(9, 9), makePc(3, 7))), 0);
  EXPECT_EQ(Set.match(makeStaticRaceKey(makePc(3, 8), makePc(9, 9))), -1);

  // Two patterns: both sides covered, order-insensitively; fn5 is a
  // whole-function wildcard.
  EXPECT_EQ(Set.match(makeStaticRaceKey(makePc(5, 123), makePc(6, 1))), 1);
  EXPECT_EQ(Set.match(makeStaticRaceKey(makePc(6, 1), makePc(5, 0))), 1);
  EXPECT_EQ(Set.match(makeStaticRaceKey(makePc(5, 123), makePc(6, 2))), -1);

  // Exact encoded pc (0x700000002 == fn7:2).
  EXPECT_EQ(Set.match(makeStaticRaceKey(makePc(7, 2), makePc(8, 8))), 2);

  // Hit accounting feeds the Valgrind-style usage report.
  Set.countHit(0);
  Set.countHit(0);
  EXPECT_EQ(Set.hits(0), 2u);
  const std::string Used = Set.describeUsed();
  EXPECT_NE(Used.find("one-sided"), std::string::npos);
  EXPECT_EQ(Used.find("pair"), std::string::npos) << "zero-hit entry listed";
}

//===----------------------------------------------------------------------===//
// Report triage
//===----------------------------------------------------------------------===//

TEST(ReportTriageTest, DedupsBySitePairAndTracksSessions) {
  ReportTriage Triage;
  const StaticRaceKey Key = makeStaticRaceKey(makePc(1, 1), makePc(2, 2));
  Triage.observe(Key, 3, /*WriteWrite=*/false, 0x1000, /*SessionId=*/1);
  Triage.observe(Key, 2, /*WriteWrite=*/true, 0x2000, /*SessionId=*/2);
  Triage.observe(Key, 1, /*WriteWrite=*/false, 0x3000, /*SessionId=*/1);

  ASSERT_EQ(Triage.distinctRaces(), 1u);
  const TriagedRace R = Triage.races()[0];
  EXPECT_EQ(R.DynamicCount, 6u);
  EXPECT_EQ(R.Sessions, 2u);
  EXPECT_EQ(R.ExampleAddr, 0x1000u) << "first sighting wins";
  EXPECT_TRUE(R.SawWriteWrite);
  EXPECT_EQ(Triage.totalSightings(), 6u);
}

TEST(ReportTriageTest, TokenBucketLimitsPerRaceEmission) {
  uint64_t FakeNowNs = 0;
  TriageConfig Config;
  Config.RatePerSec = 1.0;
  Config.Burst = 2.0;
  Config.NowNs = [&FakeNowNs] { return FakeNowNs; };
  ReportTriage Triage(Config);
  uint64_t Emitted = 0;
  Triage.setEmitter(
      [&Emitted](const TriagedRace &, uint64_t) { ++Emitted; });

  const StaticRaceKey Key = makeStaticRaceKey(makePc(1, 1), makePc(2, 2));
  // The burst admits two updates back-to-back; the third is swallowed.
  Triage.observe(Key, 1, false, 0, 1);
  Triage.observe(Key, 1, false, 0, 1);
  Triage.observe(Key, 1, false, 0, 1);
  EXPECT_EQ(Emitted, 2u);
  EXPECT_EQ(Triage.rateLimitedUpdates(), 1u);

  // One second refills one token.
  FakeNowNs += 1000000000ull;
  Triage.observe(Key, 1, false, 0, 1);
  EXPECT_EQ(Emitted, 3u);

  // Rate-limited updates still count sightings — nothing is lost from
  // the aggregate, only the emission is throttled.
  EXPECT_EQ(Triage.races()[0].DynamicCount, 4u);
  EXPECT_EQ(Triage.races()[0].RateLimitedUpdates, 1u);
}

TEST(ReportTriageTest, ANewRaceIsNeverDelayed) {
  uint64_t FakeNowNs = 77;
  TriageConfig Config;
  Config.RatePerSec = 0.001; // Refill would take ~17 minutes.
  Config.Burst = 1.0;
  Config.NowNs = [&FakeNowNs] { return FakeNowNs; };
  ReportTriage Triage(Config);
  uint64_t Emitted = 0;
  Triage.setEmitter(
      [&Emitted](const TriagedRace &, uint64_t) { ++Emitted; });
  // Each fresh race starts with a full bucket regardless of the clock.
  Triage.observe(makeStaticRaceKey(makePc(1, 1), makePc(2, 2)), 1, false, 0,
                 1);
  Triage.observe(makeStaticRaceKey(makePc(3, 3), makePc(4, 4)), 1, false, 0,
                 1);
  EXPECT_EQ(Emitted, 2u);
}

TEST(ReportTriageTest, SuppressedRacesCountButNeverEmit) {
  SuppressionSet Suppressions;
  ASSERT_TRUE(Suppressions.parse(
      "{\n  benign\n  LiteRace:Race\n  site:fn1:1\n}\n"));
  ReportTriage Triage(TriageConfig(), &Suppressions);
  uint64_t Emitted = 0;
  Triage.setEmitter(
      [&Emitted](const TriagedRace &, uint64_t) { ++Emitted; });

  const StaticRaceKey Hit = makeStaticRaceKey(makePc(1, 1), makePc(2, 2));
  const StaticRaceKey Miss = makeStaticRaceKey(makePc(3, 3), makePc(4, 4));
  Triage.observe(Hit, 5, false, 0, 1);
  Triage.observe(Miss, 1, false, 0, 1);

  EXPECT_EQ(Emitted, 1u) << "only the unsuppressed race fires the emitter";
  EXPECT_EQ(Triage.distinctRaces(), 2u);
  EXPECT_EQ(Triage.unsuppressedRaces(), 1u);
  EXPECT_EQ(Triage.suppressedSightings(), 5u);
  EXPECT_EQ(Suppressions.hits(0), 5u) << "each dynamic update is one hit";
  const std::vector<TriagedRace> Races = Triage.races();
  ASSERT_EQ(Races.size(), 2u);
  EXPECT_TRUE(Races[0].Suppressed);
  EXPECT_EQ(Races[0].SuppressionName, "benign");
  EXPECT_FALSE(Races[1].Suppressed);
}

//===----------------------------------------------------------------------===//
// SegmentStreamDecoder
//===----------------------------------------------------------------------===//

class DecoderTest : public ::testing::TestWithParam<bool> {};

TEST_P(DecoderTest, MatchesReadTraceOnACleanStream) {
  const bool Compress = GetParam();
  const std::string Path = tempPath("decoder-clean.bin");
  const Trace T = racyTrace();
  writeSegmented(T, Path, 3, Compress);
  const std::vector<uint8_t> Bytes = readFileBytes(Path);
  ASSERT_FALSE(Bytes.empty());
  const TraceReadResult Ground = readTrace(Path);
  ASSERT_EQ(Ground.Status, TraceReadStatus::Ok);

  SegmentStreamDecoder Decoder;
  Decoder.feed(Bytes.data(), Bytes.size());
  Decoder.finish();
  std::vector<std::vector<EventRecord>> PerThread;
  drainDecoder(Decoder, PerThread);

  EXPECT_TRUE(Decoder.headerSeen());
  EXPECT_TRUE(Decoder.footerSeen());
  EXPECT_TRUE(Decoder.stats().CleanShutdown);
  EXPECT_FALSE(Decoder.stats().TruncatedTail);
  EXPECT_EQ(Decoder.numTimestampCounters(), T.NumTimestampCounters);
  EXPECT_EQ(Decoder.stats().SegmentsRecovered,
            Ground.Stats.SegmentsRecovered);
  EXPECT_EQ(Decoder.stats().EventsRecovered, Ground.Stats.EventsRecovered);
  EXPECT_EQ(Decoder.bytesConsumed(), Bytes.size());
  EXPECT_TRUE(sameRecords(PerThread, Ground.T.PerThread));
  std::remove(Path.c_str());
}

TEST_P(DecoderTest, ByteAtATimeFeedingIsIdentical) {
  const bool Compress = GetParam();
  const std::string Path = tempPath("decoder-dribble.bin");
  const Trace T = racyTrace();
  writeSegmented(T, Path, 2, Compress);
  const std::vector<uint8_t> Bytes = readFileBytes(Path);
  const TraceReadResult Ground = readTrace(Path);
  ASSERT_EQ(Ground.Status, TraceReadStatus::Ok);

  // The stream arrives one byte per feed() — the worst fragmentation a
  // socket can produce. The result must not differ in any way.
  SegmentStreamDecoder Decoder;
  for (uint8_t Byte : Bytes)
    Decoder.feed(&Byte, 1);
  Decoder.finish();
  std::vector<std::vector<EventRecord>> PerThread;
  drainDecoder(Decoder, PerThread);

  EXPECT_TRUE(Decoder.stats().CleanShutdown);
  EXPECT_EQ(Decoder.stats().SegmentsRecovered,
            Ground.Stats.SegmentsRecovered);
  EXPECT_TRUE(sameRecords(PerThread, Ground.T.PerThread));
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, DecoderTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool> &Info) {
                           return Info.param ? "v2z" : "v2";
                         });

TEST(SegmentStreamDecoderTest, SalvagesCorruptionExactlyLikeReadTrace) {
  const std::string Path = tempPath("decoder-corrupt.bin");
  const Trace T = racyTrace();
  writeSegmented(T, Path, 2);
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  ASSERT_GT(Bytes.size(), 200u);
  // Smash a run of bytes in the middle of the frame sequence.
  for (size_t I = Bytes.size() / 2; I < Bytes.size() / 2 + 40; ++I)
    Bytes[I] ^= 0xA5;
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr);
  std::fwrite(Bytes.data(), 1, Bytes.size(), File);
  std::fclose(File);
  const TraceReadResult Ground = readTrace(Path);
  ASSERT_EQ(Ground.Status, TraceReadStatus::Salvaged);

  for (size_t FeedSize : {Bytes.size(), size_t(7), size_t(1)}) {
    SegmentStreamDecoder Decoder;
    for (size_t At = 0; At < Bytes.size(); At += FeedSize)
      Decoder.feed(Bytes.data() + At,
                   std::min(FeedSize, Bytes.size() - At));
    Decoder.finish();
    std::vector<std::vector<EventRecord>> PerThread;
    drainDecoder(Decoder, PerThread);

    EXPECT_EQ(Decoder.stats().SegmentsRecovered,
              Ground.Stats.SegmentsRecovered)
        << "feed " << FeedSize;
    EXPECT_EQ(Decoder.stats().SegmentsDropped, Ground.Stats.SegmentsDropped)
        << "feed " << FeedSize;
    EXPECT_EQ(Decoder.stats().EventsRecovered, Ground.Stats.EventsRecovered);
    EXPECT_TRUE(sameRecords(PerThread, Ground.T.PerThread))
        << "feed " << FeedSize;
  }
  std::remove(Path.c_str());
}

TEST(SegmentStreamDecoderTest, TruncatedStreamIsAnUncleanTail) {
  const std::string Path = tempPath("decoder-trunc.bin");
  const Trace T = racyTrace();
  writeSegmented(T, Path, 4);
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  // Cut the stream mid-frame, as a crashed client would.
  Bytes.resize(Bytes.size() - Bytes.size() / 3);

  SegmentStreamDecoder Decoder;
  Decoder.feed(Bytes.data(), Bytes.size());
  Decoder.finish();
  EXPECT_FALSE(Decoder.stats().CleanShutdown);
  EXPECT_FALSE(Decoder.footerSeen());
  EXPECT_TRUE(Decoder.stats().TruncatedTail ||
              Decoder.stats().SegmentsDropped > 0);
  // What was decoded before the cut is still intact data.
  std::vector<std::vector<EventRecord>> PerThread;
  drainDecoder(Decoder, PerThread);
  size_t Decoded = 0;
  for (const auto &Stream : PerThread)
    Decoded += Stream.size();
  EXPECT_GT(Decoded, 0u);
  EXPECT_EQ(Decoded, Decoder.stats().EventsRecovered);
  std::remove(Path.c_str());
}

TEST(SegmentStreamDecoderTest, FeedAfterFinishIsIgnored) {
  const std::string Path = tempPath("decoder-after.bin");
  const Trace T = racyTrace();
  writeSegmented(T, Path, 8);
  const std::vector<uint8_t> Bytes = readFileBytes(Path);
  SegmentStreamDecoder Decoder;
  Decoder.feed(Bytes.data(), Bytes.size());
  Decoder.finish();
  const uint64_t Consumed = Decoder.bytesConsumed();
  const uint64_t Events = Decoder.stats().EventsRecovered;
  Decoder.feed(Bytes.data(), Bytes.size());
  Decoder.finish();
  EXPECT_EQ(Decoder.bytesConsumed(), Consumed);
  EXPECT_EQ(Decoder.stats().EventsRecovered, Events);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// CollectorServer over real sockets
//===----------------------------------------------------------------------===//

/// Streams \p Bytes to the server's ingest socket in \p WriteSize slices
/// and closes the connection.
void streamToServer(const std::string &SocketPath,
                    const std::vector<uint8_t> &Bytes, size_t WriteSize) {
  SocketByteOutput Out(SocketPath);
  ASSERT_TRUE(Out.ok());
  size_t At = 0;
  while (At < Bytes.size()) {
    const size_t N = std::min(WriteSize, Bytes.size() - At);
    WriteResult R = Out.write(Bytes.data() + At, N);
    ASSERT_TRUE(R.Written > 0 || R.Transient);
    At += R.Written;
  }
  Out.close();
}

TEST(CollectorServerTest, LiveDetectionMatchesOfflineReplay) {
  const std::string LogPath = tempPath("server-live.bin");
  const std::string SocketPath = tempPath("server-live.sock");
  const Trace T = racyTrace();
  writeSegmented(T, LogPath, 3);
  const std::vector<uint8_t> Bytes = readFileBytes(LogPath);
  const RaceReport Offline = detectOffline(T);
  ASSERT_GT(Offline.numStaticRaces(), 0u);

  telemetry::MetricsRegistry Registry;
  CollectorConfig Config;
  Config.IngestSocketPath = SocketPath;
  Config.Triage.RatePerSec = 0; // Unlimited: every update emits.
  Config.Metrics = &Registry;
  CollectorServer Server(std::move(Config));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  // Two concurrent client sessions streaming the same trace, one of them
  // in pathologically small writes.
  std::thread ClientA(
      [&] { streamToServer(SocketPath, Bytes, Bytes.size()); });
  std::thread ClientB([&] { streamToServer(SocketPath, Bytes, 13); });
  ClientA.join();
  ClientB.join();
  Server.waitForSessions(2);
  Server.stop();

  EXPECT_EQ(Server.sessionsAccepted(), 2u);
  EXPECT_EQ(Server.sessionsCompleted(), 2u);

  // Dedup folds both sessions onto the offline race set, with per-race
  // counts doubled and both sessions recorded.
  const std::vector<StaticRace> Expected = Offline.staticRaces();
  const std::vector<TriagedRace> Live = Server.triage().races();
  ASSERT_EQ(Live.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I) {
    EXPECT_EQ(Live[I].Key, Expected[I].Key);
    EXPECT_EQ(Live[I].DynamicCount, 2 * Expected[I].DynamicCount);
    EXPECT_EQ(Live[I].Sessions, 2u);
    EXPECT_EQ(Live[I].SawWriteWrite, Expected[I].SawWriteWrite);
  }

  // Both sessions decoded cleanly (footer at EOF).
  for (const SessionStatus &S : Server.sessionStatuses()) {
    EXPECT_FALSE(S.Active);
    EXPECT_TRUE(S.Clean);
    EXPECT_EQ(S.Bytes, Bytes.size());
    EXPECT_EQ(S.SegmentsDropped, 0u);
  }
  std::remove(LogPath.c_str());
}

/// A racy two-thread trace whose race sites all live in function
/// 20 + \p K, with 1 + K racing pairs: sessions built from different K
/// race on disjoint site pairs and differ in length.
Trace laneTrace(unsigned K) {
  const FunctionId Fn = 20 + K;
  LogBuilder B(16);
  B.onThread(0).threadStart().write(0x1000, makePc(Fn, 1)).release(7);
  B.onThread(1).threadStart().acquire(7).write(0x1000, makePc(Fn, 2));
  for (unsigned I = 0; I != 1 + K; ++I) {
    B.onThread(0).write(0x5000 + 8 * I, makePc(Fn, 10 + I));
    B.onThread(1).read(0x5000 + 8 * I, makePc(Fn, 40 + I));
  }
  B.onThread(0).threadEnd();
  B.onThread(1).threadEnd();
  return B.build();
}

// More concurrent sessions than detection lanes: lanes are shared, yet
// every session's live verdict equals batch detection of its own bytes,
// and the shared triage table is exactly the sum of the sessions.
TEST(CollectorServerTest, SessionsBeyondTheLaneCountDetectIndependently) {
  const std::string SocketPath = tempPath("server-lanes.sock");
  telemetry::MetricsRegistry Registry;
  CollectorConfig Config;
  Config.IngestSocketPath = SocketPath;
  Config.Triage.RatePerSec = 0;
  Config.Metrics = &Registry;
  CollectorServer Server(std::move(Config));
  ASSERT_GE(Server.lanes(), 1u);
  ASSERT_LE(Server.lanes(), CollectorServer::MaxLanes);
  const unsigned Sessions = static_cast<unsigned>(Server.lanes()) + 3;

  std::vector<std::vector<uint8_t>> Bytes(Sessions);
  std::vector<RaceReport> Batch(Sessions);
  for (unsigned K = 0; K != Sessions; ++K) {
    const std::string LogPath = tempPath("server-lanes.bin");
    writeSegmented(laneTrace(K), LogPath, 2);
    Bytes[K] = readFileBytes(LogPath);
    const TraceReadResult R = readTrace(LogPath);
    ASSERT_EQ(R.Status, TraceReadStatus::Ok) << R.Error;
    ASSERT_TRUE(detectRaces(R.T, Batch[K]));
    ASSERT_EQ(Batch[K].numStaticRaces(), 1 + K);
    std::remove(LogPath.c_str());
  }

  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  std::vector<std::thread> Clients;
  for (unsigned K = 0; K != Sessions; ++K)
    Clients.emplace_back(
        [&, K] { streamToServer(SocketPath, Bytes[K], 7 + 5 * K); });
  for (std::thread &C : Clients)
    C.join();
  Server.waitForSessions(Sessions);

  // /status reports the lanes' queues under the single-queue key names.
  const auto Status = telemetry::parseJson(Server.statusJson());
  ASSERT_TRUE(Status);
  const telemetry::JsonValue *Queue = Status->find("ingest");
  ASSERT_NE(Queue, nullptr);
  Queue = Queue->find("queue");
  ASSERT_NE(Queue, nullptr);
  for (const char *Key : {"lanes", "capacity", "depth", "high_water",
                          "producer_parks", "consumer_parks"})
    EXPECT_NE(Queue->find(Key), nullptr) << Key;
  EXPECT_EQ(Queue->find("lanes")->UInt, Server.lanes());
  EXPECT_EQ(Queue->find("depth")->UInt, 0u);
  Server.stop();

  // Session status: each session is matched to its trace by byte length
  // (the traces differ in length) and reports batch's race count.
  const std::vector<SessionStatus> Statuses = Server.sessionStatuses();
  ASSERT_EQ(Statuses.size(), Sessions);
  for (const SessionStatus &S : Statuses) {
    const auto It = std::find_if(
        Bytes.begin(), Bytes.end(),
        [&](const std::vector<uint8_t> &B) { return B.size() == S.Bytes; });
    ASSERT_NE(It, Bytes.end());
    const size_t K = static_cast<size_t>(It - Bytes.begin());
    EXPECT_TRUE(S.Clean);
    EXPECT_EQ(S.SegmentsDropped, 0u);
    EXPECT_EQ(S.Races, Batch[K].numStaticRaces()) << "session of trace " << K;
  }

  // The triage table: every session's races with batch's counts, one
  // session each, and nothing else.
  std::map<StaticRaceKey, uint64_t> Want;
  uint64_t WantSightings = 0;
  for (const RaceReport &R : Batch) {
    for (const StaticRace &Race : R.staticRaces())
      Want[Race.Key] += Race.DynamicCount;
    WantSightings += R.numDynamicSightings();
  }
  const std::vector<TriagedRace> Live = Server.triage().races();
  ASSERT_EQ(Live.size(), Want.size());
  for (const TriagedRace &R : Live) {
    ASSERT_TRUE(Want.count(R.Key));
    EXPECT_EQ(R.DynamicCount, Want[R.Key]);
    EXPECT_EQ(R.Sessions, 1u);
  }
  EXPECT_EQ(Server.triage().totalSightings(), WantSightings);
}

TEST(CollectorServerTest, TruncatedConnectionSalvagesAndCompletes) {
  const std::string LogPath = tempPath("server-cut.bin");
  const std::string SocketPath = tempPath("server-cut.sock");
  const Trace T = racyTrace();
  writeSegmented(T, LogPath, 4);
  std::vector<uint8_t> Bytes = readFileBytes(LogPath);
  Bytes.resize(Bytes.size() / 2); // Client "crashes" mid-stream.

  telemetry::MetricsRegistry Registry;
  CollectorConfig Config;
  Config.IngestSocketPath = SocketPath;
  Config.Metrics = &Registry;
  CollectorServer Server(std::move(Config));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  streamToServer(SocketPath, Bytes, Bytes.size());
  // The daemon must not hang on the gap-ridden session.
  Server.waitForSessions(1);
  Server.stop();

  const std::vector<SessionStatus> Sessions = Server.sessionStatuses();
  ASSERT_EQ(Sessions.size(), 1u);
  EXPECT_FALSE(Sessions[0].Clean);
  EXPECT_GT(Sessions[0].Events, 0u) << "intact prefix frames still count";
  std::remove(LogPath.c_str());
}

TEST(CollectorServerTest, HttpRoutesServeValidDocuments) {
  const std::string LogPath = tempPath("server-http.bin");
  const std::string SocketPath = tempPath("server-http.sock");
  const Trace T = racyTrace();
  writeSegmented(T, LogPath, 8);
  const std::vector<uint8_t> Bytes = readFileBytes(LogPath);

  telemetry::MetricsRegistry Registry;
  CollectorConfig Config;
  Config.IngestSocketPath = SocketPath;
  Config.Metrics = &Registry;
  CollectorServer Server(std::move(Config));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  streamToServer(SocketPath, Bytes, 256);
  Server.waitForSessions(1);

  std::string Body, ContentType;
  ASSERT_TRUE(Server.route("/metrics", Body, ContentType));
  EXPECT_NE(ContentType.find("text/plain"), std::string::npos);
  EXPECT_TRUE(telemetry::validatePrometheusText(Body, &Error))
      << Error << Body;
  EXPECT_NE(Body.find("literace_collector_sessions_completed_total 1"),
            std::string::npos)
      << Body;
  EXPECT_NE(Body.find("literace_capture_info"), std::string::npos);

  ASSERT_TRUE(Server.route("/status", Body, ContentType));
  EXPECT_NE(ContentType.find("application/json"), std::string::npos);
  EXPECT_NE(Body.find("\"schema\": \"literace.status.v1\""),
            std::string::npos);
  EXPECT_NE(Body.find("\"completed\": 1"), std::string::npos);

  ASSERT_TRUE(Server.route("/races", Body, ContentType));
  EXPECT_NE(Body.find("\"schema\": \"literace.races.v1\""),
            std::string::npos);
  EXPECT_NE(Body.find("\"first_site\": \"fn3:9\""), std::string::npos)
      << Body;

  // / serves the status document too; unknown paths are a 404.
  EXPECT_TRUE(Server.route("/", Body, ContentType));
  EXPECT_FALSE(Server.route("/nonexistent", Body, ContentType));
  Server.stop();
  std::remove(LogPath.c_str());
}

TEST(CollectorServerTest, SuppressionSilencesExactlyItsRace) {
  const std::string LogPath = tempPath("server-supp.bin");
  const std::string SocketPath = tempPath("server-supp.sock");
  const Trace T = racyTrace();
  writeSegmented(T, LogPath, 3);
  const std::vector<uint8_t> Bytes = readFileBytes(LogPath);
  const RaceReport Offline = detectOffline(T);
  const std::vector<StaticRace> Expected = Offline.staticRaces();
  ASSERT_GE(Expected.size(), 2u) << "need one race to suppress, one to keep";

  // Suppress exactly the first offline race by its two concrete sites.
  SuppressionSet Suppressions;
  char Text[256];
  std::snprintf(Text, sizeof(Text),
                "{\n  triaged-benign\n  LiteRace:Race\n"
                "  site:fn%u:%u\n  site:fn%u:%u\n}\n",
                pcFunction(Expected[0].Key.first),
                pcSite(Expected[0].Key.first),
                pcFunction(Expected[0].Key.second),
                pcSite(Expected[0].Key.second));
  std::string Error;
  ASSERT_TRUE(Suppressions.parse(Text, &Error)) << Error;

  telemetry::MetricsRegistry Registry;
  CollectorConfig Config;
  Config.IngestSocketPath = SocketPath;
  Config.Suppressions = &Suppressions;
  Config.Metrics = &Registry;
  CollectorServer Server(std::move(Config));
  ASSERT_TRUE(Server.start(&Error)) << Error;
  streamToServer(SocketPath, Bytes, 128);
  Server.waitForSessions(1);
  Server.stop();

  const std::vector<TriagedRace> Live = Server.triage().races();
  ASSERT_EQ(Live.size(), Expected.size());
  EXPECT_TRUE(Live[0].Suppressed);
  EXPECT_EQ(Live[0].SuppressionName, "triaged-benign");
  for (size_t I = 1; I < Live.size(); ++I)
    EXPECT_FALSE(Live[I].Suppressed) << "suppression hit an unrelated race";
  EXPECT_EQ(Server.triage().unsuppressedRaces(), Expected.size() - 1);
  EXPECT_EQ(Server.triage().suppressedSightings(),
            Expected[0].DynamicCount);
  EXPECT_EQ(Suppressions.hits(0), Expected[0].DynamicCount);
  std::remove(LogPath.c_str());
}

TEST(CollectorServerTest, PendingEventsGaugeShowsAThreadWaitingOnATimestamp) {
  const std::string SocketPath = tempPath("server-pending.sock");
  // Thread 1's first event acquires what thread 0 releases, so it waits
  // on thread 0's timestamp.
  LogBuilder B(16);
  B.onThread(0).write(0x10, makePc(1, 1)).release(7);
  B.onThread(1).acquire(7).write(0x10, makePc(2, 1)).write(0x20, makePc(2, 2));
  const Trace T = B.build();
  const uint64_t Waiting = T.PerThread[1].size();

  telemetry::MetricsRegistry Registry;
  CollectorConfig Config;
  Config.IngestSocketPath = SocketPath;
  Config.Metrics = &Registry;
  CollectorServer Server(std::move(Config));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  SocketByteOutput Socket(SocketPath);
  ASSERT_TRUE(Socket.ok());
  SegmentedFileSink::Options Opts;
  Opts.Output = &Socket;
  SegmentedFileSink Sink(tempPath("server-pending.unused"),
                         T.NumTimestampCounters, Opts);
  ASSERT_TRUE(Sink.ok());
  auto Pending = [&] {
    const std::vector<SessionStatus> S = Server.sessionStatuses();
    return S.size() == 1 ? S[0].PendingEvents : ~uint64_t(0);
  };

  // Thread 1's chunk arrives first and waits in the scheduler.
  Sink.writeChunk(1, T.PerThread[1].data(), T.PerThread[1].size());
  for (unsigned I = 0; I != 5000 && Pending() != Waiting; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(Pending(), Waiting);
  const std::string Gauge =
      "literace_collector_scheduler_pending_events " + std::to_string(Waiting);
  std::string Body, ContentType;
  ASSERT_TRUE(Server.route("/metrics", Body, ContentType));
  EXPECT_NE(Body.find(Gauge + "\n"), std::string::npos) << Body;
  EXPECT_NE(Body.find("# HELP literace_collector_scheduler_pending_events "),
            std::string::npos);
  ASSERT_TRUE(Server.route("/status", Body, ContentType));
  EXPECT_NE(Body.find("\"pending_events\": " + std::to_string(Waiting)),
            std::string::npos)
      << Body;

  // Thread 0's chunk releases it; after a clean end nothing is pending.
  Sink.writeChunk(0, T.PerThread[0].data(), T.PerThread[0].size());
  EXPECT_TRUE(Sink.close());
  Server.waitForSessions(1);
  const std::vector<SessionStatus> Done = Server.sessionStatuses();
  ASSERT_EQ(Done.size(), 1u);
  EXPECT_TRUE(Done[0].Clean);
  EXPECT_EQ(Done[0].PendingEvents, 0u);
  EXPECT_EQ(Done[0].Events, T.totalEvents());
  ASSERT_TRUE(Server.route("/status", Body, ContentType));
  EXPECT_NE(Body.find("\"pending_events\": 0"), std::string::npos) << Body;
  // The /metrics gauge keeps the high-water mark.
  ASSERT_TRUE(Server.route("/metrics", Body, ContentType));
  EXPECT_NE(Body.find(Gauge + "\n"), std::string::npos) << Body;
  Server.stop();
}

TEST(CollectorServerTest, StopWithoutStartIsSafe) {
  CollectorConfig Config;
  Config.IngestSocketPath = tempPath("never-started.sock");
  CollectorServer Server(std::move(Config));
  Server.stop();
  Server.waitForSessions(1); // Must not hang: stop() wakes waiters.
  EXPECT_EQ(Server.sessionsAccepted(), 0u);
}

} // namespace
