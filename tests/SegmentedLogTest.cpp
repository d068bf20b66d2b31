//===-- tests/SegmentedLogTest.cpp - v2 segmented format + salvage ----------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// The crash-consistency contract of the v2 segmented log
// (docs/ROBUSTNESS.md), checked exhaustively: round trips, truncation at
// EVERY byte offset, seeded bit flips, exact drop accounting, and the
// detection subset property — races reported from a salvaged trace are a
// subset of the full-trace report.
//
//===----------------------------------------------------------------------===//

#include "detector/FastTrackDetector.h"
#include "detector/HBDetector.h"
#include "detector/LogBuilder.h"
#include "runtime/CompressedLog.h"
#include "support/Crc32.h"
#include "support/SplitMix64.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>
#include <string>
#include <vector>

using namespace literace;

namespace {

std::string tempPath(const char *Name) {
  return std::string(::testing::TempDir()) + Name;
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr) << Path;
  if (!F)
    return Bytes;
  uint8_t Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) != 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  std::fclose(F);
  return Bytes;
}

void writeFileBytes(const std::string &Path, const uint8_t *Data,
                    size_t Size) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr) << Path;
  ASSERT_EQ(std::fwrite(Data, 1, Size, F), Size);
  std::fclose(F);
}

/// Writes \p T through a SegmentedFileSink in round-robin chunks of
/// \p ChunkEvents, so consecutive frames alternate between threads and a
/// truncation hurts everyone.
void writeSegmented(const Trace &T, const std::string &Path,
                    size_t ChunkEvents, bool Compress = false) {
  SegmentedFileSink::Options Opts;
  Opts.Compress = Compress;
  SegmentedFileSink Sink(Path, T.NumTimestampCounters, Opts);
  ASSERT_TRUE(Sink.ok());
  std::vector<size_t> Next(T.PerThread.size(), 0);
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid) {
      const auto &Stream = T.PerThread[Tid];
      if (Next[Tid] >= Stream.size())
        continue;
      const size_t N = std::min(ChunkEvents, Stream.size() - Next[Tid]);
      Sink.writeChunk(static_cast<ThreadId>(Tid),
                      Stream.data() + Next[Tid], N);
      Next[Tid] += N;
      Progress = true;
    }
  }
  ASSERT_TRUE(Sink.close());
}

/// A three-thread trace mixing proper synchronization (no race on X) with
/// unprotected sharing (races on Y and Z), plus enough sync traffic that
/// truncations land between sync operations.
Trace buildRacyTrace() {
  const SyncVar M = makeSyncVar(SyncObjectKind::Mutex, 1);
  const SyncVar N = makeSyncVar(SyncObjectKind::Mutex, 2);
  LogBuilder B(16);
  B.onThread(0).threadStart();
  B.onThread(1).threadStart();
  B.onThread(2).threadStart();
  for (unsigned I = 0; I != 12; ++I) {
    B.onThread(0).lock(M).write(0x100, 10).unlock(M).write(0x200 + I, 11);
    B.onThread(1).lock(M).write(0x100, 20).unlock(M).write(0x200 + I, 21);
    B.onThread(2).lock(N).read(0x300, 30).unlock(N).write(0x400, 31);
    B.onThread(0).read(0x400, 12);
  }
  B.onThread(0).threadEnd();
  B.onThread(1).threadEnd();
  B.onThread(2).threadEnd();
  return B.build();
}

/// A fixed, seeded record set: four threads of mixed memory and sync
/// records, one of them long enough that a single writeChunk() splits
/// into several frames (MaxRecordsPerSegment is 2^16).
Trace buildGoldenTrace() {
  SplitMix64 Rng(0x11feace5);
  Trace T;
  T.NumTimestampCounters = 64;
  T.PerThread.resize(4);
  uint64_t Ts = 1;
  for (uint32_t Tid = 0; Tid != 4; ++Tid) {
    const size_t Count = Tid == 3 ? 70000 : 1500 + 700 * Tid;
    auto &Stream = T.PerThread[Tid];
    for (size_t I = 0; I != Count; ++I) {
      EventRecord R;
      R.Tid = Tid;
      const uint64_t Pick = Rng.nextBelow(10);
      if (I == 0) {
        R.Kind = EventKind::ThreadStart;
      } else if (Pick < 4) {
        R.Kind = EventKind::Read;
      } else if (Pick < 8) {
        R.Kind = EventKind::Write;
      } else {
        R.Kind = Pick == 8 ? EventKind::Acquire : EventKind::Release;
        R.Ts = Ts++;
      }
      if (isMemoryKind(R.Kind)) {
        R.Addr = 0x10000 + 8 * Rng.nextBelow(4096);
        R.Mask = static_cast<uint16_t>(FullLogMaskBit | Rng.nextBelow(4));
      } else if (isSyncKind(R.Kind)) {
        R.Addr = makeSyncVar(SyncObjectKind::Mutex, Rng.nextBelow(8));
      }
      R.Pc = 0x400000 + Rng.nextBelow(512);
      Stream.push_back(R);
    }
  }
  return T;
}

/// FNV-1a over a file's bytes: a stable digest for golden comparisons.
uint64_t fnv1a(const std::vector<uint8_t> &Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (uint8_t B : Bytes)
    H = (H ^ B) * 0x100000001b3ULL;
  return H;
}

// The on-disk bytes are part of the format: a change to the checksum
// implementation, the framing, or the payload codec that alters a single
// byte fails here. The digests were taken from the portable table-driven
// CRC before the hardware path existed.
TEST(SegmentedLogTest, WrittenBytesMatchGoldenDigests) {
  const Trace T = buildGoldenTrace();
  const std::string Path = tempPath("seg_golden.bin");
  auto Write = [&](bool Compress) {
    SegmentedFileSink::Options Opts;
    Opts.Compress = Compress;
    SegmentedFileSink Sink(Path, T.NumTimestampCounters, Opts);
    // Threads 0-2 interleave in 1024-record chunks; thread 3 lands in
    // the middle as one oversized chunk.
    for (size_t Off = 0; Off < T.PerThread[2].size(); Off += 1024) {
      for (ThreadId Tid = 0; Tid != 3; ++Tid) {
        const auto &Stream = T.PerThread[Tid];
        if (Off < Stream.size())
          Sink.writeChunk(Tid, Stream.data() + Off,
                          std::min<size_t>(1024, Stream.size() - Off));
      }
      if (Off == 2048)
        Sink.writeChunk(3, T.PerThread[3].data(), T.PerThread[3].size());
    }
    EXPECT_TRUE(Sink.close());
    return readFileBytes(Path);
  };
  const std::vector<uint8_t> Raw = Write(false);
  const std::vector<uint8_t> Compressed = Write(true);
  EXPECT_EQ(Raw.size(), 2451548u);
  EXPECT_EQ(fnv1a(Raw), 0x0bb7ef5d5fc526daULL);
  EXPECT_EQ(Compressed.size(), 736494u);
  EXPECT_EQ(fnv1a(Compressed), 0x3f5d925487222a19ULL);
  std::remove(Path.c_str());
}

// The pre-sizing pass trusts a CRC-valid header only for frames that lie
// wholly inside the file: a tail header claiming 2^21 events (64 MiB of
// records) must not make readTrace reserve memory the file cannot back.
TEST(SegmentedLogTest, TruncatedTailHeaderDoesNotInflateReservations) {
  const std::string Path = tempPath("seg_bigtail.bin");
  Trace T = buildRacyTrace();
  {
    SegmentedFileSink Sink(Path, T.NumTimestampCounters);
    for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid)
      Sink.writeChunk(static_cast<ThreadId>(Tid), T.PerThread[Tid].data(),
                      T.PerThread[Tid].size());
    Sink.abandon();
  }
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  // A hand-built v2 frame header (docs/LOG_FORMAT.md): magic "LRSG", raw
  // encoding, thread 1, 2^21 events, and a payload length to match.
  const uint32_t Claimed = 1u << 21;
  uint32_t Header[7] = {0x4753524Cu, 0, 1, Claimed,
                        Claimed * static_cast<uint32_t>(sizeof(EventRecord)),
                        0, 0};
  Header[6] = crc32c(Header, 24);
  const uint8_t *HeaderBytes = reinterpret_cast<const uint8_t *>(Header);
  Bytes.insert(Bytes.end(), HeaderBytes, HeaderBytes + sizeof(Header));
  Bytes.resize(Bytes.size() + 4096, 0x5a); // the start of its payload
  writeFileBytes(Path, Bytes.data(), Bytes.size());

  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Salvaged) << R.Error;
  EXPECT_TRUE(R.Stats.TruncatedTail);
  EXPECT_EQ(R.Stats.EventsRecovered, T.totalEvents());
  size_t Reserved = 0;
  for (const auto &Stream : R.T.PerThread)
    Reserved += Stream.capacity() * sizeof(EventRecord);
  EXPECT_LE(Reserved, Bytes.size());
  std::remove(Path.c_str());
}

// readTrace and the collector's incremental decoder are two walkers over
// the same frames; on an interleaved multi-thread trace they must yield
// the same per-thread streams, record for record.
TEST(SegmentedLogTest, ReadTraceAndStreamDecoderAgree) {
  const std::string Path = tempPath("seg_agree.bin");
  Trace T = buildGoldenTrace();
  T.PerThread[3].resize(5000);
  for (bool Compress : {false, true}) {
    writeSegmented(T, Path, 300, Compress);
    const std::vector<uint8_t> Bytes = readFileBytes(Path);
    TraceReadResult R = readTrace(Path);
    ASSERT_EQ(R.Status, TraceReadStatus::Ok) << R.Error;

    SegmentStreamDecoder Decoder;
    std::vector<std::vector<EventRecord>> Streams;
    SegmentStreamDecoder::Chunk C;
    for (size_t At = 0; At < Bytes.size(); At += 777) {
      Decoder.feed(Bytes.data() + At, std::min<size_t>(777, Bytes.size() - At));
      while (Decoder.take(C)) {
        if (C.Tid >= Streams.size())
          Streams.resize(C.Tid + 1);
        Streams[C.Tid].insert(Streams[C.Tid].end(), C.Records.begin(),
                              C.Records.end());
      }
    }
    Decoder.finish();
    EXPECT_TRUE(Decoder.stats().CleanShutdown);
    EXPECT_EQ(Decoder.stats().EventsRecovered, R.Stats.EventsRecovered);
    ASSERT_EQ(Streams.size(), R.T.PerThread.size());
    ASSERT_EQ(Streams.size(), 4u);
    for (size_t Tid = 0; Tid != Streams.size(); ++Tid) {
      ASSERT_EQ(Streams[Tid].size(), R.T.PerThread[Tid].size()) << Tid;
      EXPECT_EQ(std::memcmp(Streams[Tid].data(), R.T.PerThread[Tid].data(),
                            Streams[Tid].size() * sizeof(EventRecord)),
                0)
          << "thread " << Tid << (Compress ? " (v2z)" : " (v2)");
    }
  }
  std::remove(Path.c_str());
}

// An I/O error is not a short file: reading a directory fails inside
// fread, and both readers report it as a read error instead of salvaging
// whatever came back.
TEST(SegmentedLogTest, ReadErrorsAreNotSalvagedAsTruncation) {
  const std::string Dir = ::testing::TempDir();
  TraceReadResult R = readTrace(Dir);
  EXPECT_EQ(R.Status, TraceReadStatus::Unreadable);
  EXPECT_NE(R.Error.find("read error"), std::string::npos) << R.Error;
  std::string Error;
  EXPECT_TRUE(scanSegments(Dir, &Error).empty());
  EXPECT_NE(Error.find("read error"), std::string::npos) << Error;
  EXPECT_NE(readTrace(tempPath("no_such_trace.bin")).Error.find("cannot open"),
            std::string::npos);
}

TEST(SegmentedLogTest, RoundTripsRawPayloads) {
  std::string Path = tempPath("seg_roundtrip.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8);
  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Ok) << R.Error;
  EXPECT_EQ(R.Stats.Format, TraceFormat::V2Segmented);
  EXPECT_TRUE(R.Stats.CleanShutdown);
  EXPECT_EQ(R.Stats.SegmentsDropped, 0u);
  EXPECT_EQ(R.T.NumTimestampCounters, T.NumTimestampCounters);
  ASSERT_EQ(R.T.PerThread.size(), T.PerThread.size());
  for (size_t I = 0; I != T.PerThread.size(); ++I) {
    ASSERT_EQ(R.T.PerThread[I].size(), T.PerThread[I].size()) << I;
    for (size_t J = 0; J != T.PerThread[I].size(); ++J) {
      EXPECT_EQ(R.T.PerThread[I][J].Addr, T.PerThread[I][J].Addr);
      EXPECT_EQ(R.T.PerThread[I][J].Ts, T.PerThread[I][J].Ts);
      EXPECT_EQ(R.T.PerThread[I][J].Kind, T.PerThread[I][J].Kind);
    }
  }
  std::remove(Path.c_str());
}

TEST(SegmentedLogTest, RoundTripsCompressedPayloads) {
  std::string Path = tempPath("seg_roundtrip_z.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8, /*Compress=*/true);
  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Ok) << R.Error;
  ASSERT_EQ(R.T.totalEvents(), T.totalEvents());
  for (size_t I = 0; I != T.PerThread.size(); ++I)
    ASSERT_EQ(R.T.PerThread[I].size(), T.PerThread[I].size()) << I;
  std::remove(Path.c_str());
}

TEST(SegmentedLogTest, AbandonKeepsEverythingButTheFooter) {
  std::string Path = tempPath("seg_abandon.bin");
  Trace T = buildRacyTrace();
  {
    SegmentedFileSink Sink(Path, T.NumTimestampCounters);
    ASSERT_TRUE(Sink.ok());
    for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid)
      Sink.writeChunk(static_cast<ThreadId>(Tid), T.PerThread[Tid].data(),
                      T.PerThread[Tid].size());
    Sink.abandon(); // Simulated crash: no footer.
  }
  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Salvaged);
  EXPECT_FALSE(R.Stats.CleanShutdown);
  EXPECT_FALSE(R.Stats.TruncatedTail);
  EXPECT_EQ(R.Stats.SegmentsDropped, 0u);
  EXPECT_EQ(R.T.totalEvents(), T.totalEvents());
  std::remove(Path.c_str());
}

TEST(SegmentedLogTest, ScanSegmentsInventoriesEveryFrame) {
  std::string Path = tempPath("seg_scan.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8);
  std::vector<SegmentInfo> Inventory = scanSegments(Path);
  ASSERT_GE(Inventory.size(), 2u);
  uint64_t Events = 0;
  for (const SegmentInfo &S : Inventory) {
    EXPECT_TRUE(S.HeaderOk);
    EXPECT_TRUE(S.PayloadOk);
    if (!S.IsFooter)
      Events += S.EventCount;
  }
  EXPECT_TRUE(Inventory.back().IsFooter);
  EXPECT_EQ(Events, T.totalEvents());
  std::remove(Path.c_str());
}

// The heart of the robustness contract: cut the file at EVERY byte
// offset. The salvage reader must never crash, recovered events must be
// monotone in the cut position, and drop accounting must be exact: a cut
// strictly inside frame k recovers frames 0..k-1 and reports exactly one
// dropped segment with a truncated tail; a cut on a frame boundary drops
// nothing and reports only the missing clean-shutdown marker.
TEST(SegmentedLogTest, TruncationAtEveryOffsetIsExactAndMonotone) {
  std::string Path = tempPath("seg_full.bin");
  std::string CutPath = tempPath("seg_cut.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8);
  const std::vector<uint8_t> Full = readFileBytes(Path);
  ASSERT_FALSE(Full.empty());

  // Frame boundaries and per-frame cumulative event counts, from the
  // (trusted, just-written) inventory.
  std::vector<SegmentInfo> Inventory = scanSegments(Path);
  std::vector<uint64_t> FrameStart, EventsBefore;
  uint64_t Cumulative = 0;
  for (const SegmentInfo &S : Inventory) {
    FrameStart.push_back(S.Offset);
    EventsBefore.push_back(Cumulative);
    if (!S.IsFooter)
      Cumulative += S.EventCount;
  }
  FrameStart.push_back(Full.size());
  EventsBefore.push_back(Cumulative);

  uint64_t PrevRecovered = 0;
  for (size_t Cut = 0; Cut <= Full.size(); ++Cut) {
    writeFileBytes(CutPath, Full.data(), Cut);
    TraceReadResult R = readTrace(CutPath);
    const uint64_t Recovered = R.Stats.EventsRecovered;
    EXPECT_GE(Recovered, PrevRecovered) << "cut=" << Cut;
    PrevRecovered = Recovered;
    if (Cut < 16) { // Inside the file header: nothing recoverable.
      EXPECT_EQ(R.Status, TraceReadStatus::Unreadable) << "cut=" << Cut;
      continue;
    }
    ASSERT_TRUE(R.readable()) << "cut=" << Cut;
    // Find the frame this cut lands in.
    const size_t K =
        static_cast<size_t>(std::upper_bound(FrameStart.begin(),
                                             FrameStart.end(), Cut) -
                            FrameStart.begin()) -
        1;
    EXPECT_EQ(Recovered, EventsBefore[K]) << "cut=" << Cut;
    if (Cut == Full.size()) {
      EXPECT_EQ(R.Status, TraceReadStatus::Ok);
    } else if (Cut == FrameStart[K]) { // Exactly on a boundary.
      EXPECT_EQ(R.Stats.SegmentsDropped, 0u) << "cut=" << Cut;
      EXPECT_FALSE(R.Stats.TruncatedTail) << "cut=" << Cut;
      EXPECT_FALSE(R.Stats.CleanShutdown) << "cut=" << Cut;
    } else { // Strictly inside frame K.
      EXPECT_EQ(R.Stats.SegmentsDropped, 1u) << "cut=" << Cut;
      EXPECT_TRUE(R.Stats.TruncatedTail) << "cut=" << Cut;
    }
  }
  std::remove(Path.c_str());
  std::remove(CutPath.c_str());
}

TEST(SegmentedLogTest, TruncationOfCompressedPayloadsStaysMonotone) {
  std::string Path = tempPath("segz_full.bin");
  std::string CutPath = tempPath("segz_cut.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8, /*Compress=*/true);
  const std::vector<uint8_t> Full = readFileBytes(Path);
  uint64_t PrevRecovered = 0;
  for (size_t Cut = 0; Cut <= Full.size(); ++Cut) {
    writeFileBytes(CutPath, Full.data(), Cut);
    TraceReadResult R = readTrace(CutPath);
    EXPECT_GE(R.Stats.EventsRecovered, PrevRecovered) << "cut=" << Cut;
    PrevRecovered = R.Stats.EventsRecovered;
  }
  EXPECT_EQ(PrevRecovered, T.totalEvents());
  std::remove(Path.c_str());
  std::remove(CutPath.c_str());
}

// Single-bit damage anywhere past the file header is caught by one of the
// three CRCs (frame header, payload, footer) and costs at most the
// damaged frame; everything else is still recovered.
TEST(SegmentedLogTest, BitFlipsArePinpointedByChecksums) {
  std::string Path = tempPath("seg_flip_full.bin");
  std::string FlipPath = tempPath("seg_flip.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8);
  const std::vector<uint8_t> Full = readFileBytes(Path);
  const uint64_t FullEvents = T.totalEvents();
  const uint64_t DataFrames = scanSegments(Path).size() - 1;
  const uint64_t MaxFrameEvents = 8;
  for (size_t At = 16; At < Full.size(); At += 7) {
    std::vector<uint8_t> Damaged = Full;
    Damaged[At] ^= static_cast<uint8_t>(1u << (At % 8));
    writeFileBytes(FlipPath, Damaged.data(), Damaged.size());
    TraceReadResult R = readTrace(FlipPath);
    ASSERT_TRUE(R.readable()) << "flip at " << At;
    EXPECT_EQ(R.Status, TraceReadStatus::Salvaged) << "flip at " << At;
    EXPECT_GE(R.Stats.SegmentsDropped, 1u) << "flip at " << At;
    EXPECT_GE(R.Stats.EventsRecovered + MaxFrameEvents, FullEvents)
        << "flip at " << At;
    EXPECT_GE(R.Stats.SegmentsRecovered + 2, DataFrames) << "flip at " << At;
  }
  std::remove(Path.c_str());
  std::remove(FlipPath.c_str());
}

TEST(SegmentedLogTest, DamagedFileHeaderIsRecoveredByScanning) {
  std::string Path = tempPath("seg_badheader.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8);
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  for (size_t I = 0; I != 16; ++I) // Shred the file header.
    Bytes[I] = 0xff;
  writeFileBytes(Path, Bytes.data(), Bytes.size());
  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Salvaged);
  EXPECT_TRUE(R.Stats.SalvagedHeader);
  EXPECT_EQ(R.Stats.EventsRecovered, T.totalEvents());
  std::remove(Path.c_str());
}

TEST(SegmentedLogTest, StrictModeRefusesAnyImperfection) {
  std::string Path = tempPath("seg_strict.bin");
  Trace T = buildRacyTrace();
  {
    SegmentedFileSink Sink(Path, T.NumTimestampCounters);
    Sink.writeChunk(0, T.PerThread[0].data(), T.PerThread[0].size());
    Sink.abandon();
  }
  TraceReadOptions Strict;
  Strict.Salvage = false;
  TraceReadResult R = readTrace(Path, Strict);
  EXPECT_EQ(R.Status, TraceReadStatus::Unreadable);
  EXPECT_TRUE(R.T.PerThread.empty());
  EXPECT_FALSE(R.Error.empty());
  std::remove(Path.c_str());
}

TEST(SegmentedLogTest, LegacyV1FormatsReadThroughReadTrace) {
  Trace T = buildRacyTrace();
  std::string RawPath = tempPath("v1_raw.bin");
  {
    FileSink Sink(RawPath, T.NumTimestampCounters);
    ASSERT_TRUE(Sink.ok());
    for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid)
      Sink.writeChunk(static_cast<ThreadId>(Tid), T.PerThread[Tid].data(),
                      T.PerThread[Tid].size());
    Sink.close();
  }
  TraceReadResult Raw = readTrace(RawPath);
  ASSERT_EQ(Raw.Status, TraceReadStatus::Ok) << Raw.Error;
  EXPECT_EQ(Raw.Stats.Format, TraceFormat::V1Raw);
  EXPECT_EQ(Raw.T.totalEvents(), T.totalEvents());

  std::string ZPath = tempPath("v1_compressed.bin");
  {
    CompressedFileSink Sink(ZPath, T.NumTimestampCounters);
    for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid)
      Sink.writeChunk(static_cast<ThreadId>(Tid), T.PerThread[Tid].data(),
                      T.PerThread[Tid].size());
    ASSERT_TRUE(Sink.close());
  }
  TraceReadResult Z = readTrace(ZPath);
  ASSERT_EQ(Z.Status, TraceReadStatus::Ok) << Z.Error;
  EXPECT_EQ(Z.Stats.Format, TraceFormat::V1Compressed);
  EXPECT_EQ(Z.T.totalEvents(), T.totalEvents());

  std::remove(RawPath.c_str());
  std::remove(ZPath.c_str());
}

TEST(SegmentedLogTest, TruncatedV1FileSalvagesTheChunkPrefix) {
  Trace T = buildRacyTrace();
  std::string Path = tempPath("v1_truncated.bin");
  {
    FileSink Sink(Path, T.NumTimestampCounters);
    for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid)
      Sink.writeChunk(static_cast<ThreadId>(Tid), T.PerThread[Tid].data(),
                      T.PerThread[Tid].size());
    Sink.close();
  }
  std::vector<uint8_t> Full = readFileBytes(Path);
  // Strict v1 reader refuses the truncation; salvage keeps the prefix.
  writeFileBytes(Path, Full.data(), Full.size() - 8);
  EXPECT_FALSE(readTraceFile(Path).has_value());
  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Salvaged);
  EXPECT_TRUE(R.Stats.TruncatedTail);
  EXPECT_GT(R.Stats.EventsRecovered, 0u);
  EXPECT_LT(R.Stats.EventsRecovered, T.totalEvents());
  std::remove(Path.c_str());
}

// The detection subset property (docs/ROBUSTNESS.md): analyzing a
// salvaged prefix with gap-tolerant replay reports a SUBSET of the
// full-trace races — coverage loss may hide races but never invents
// them. Checked against every third truncation offset, with the HB and
// FastTrack backends agreeing on every salvaged trace.
TEST(SegmentedLogTest, SalvagedDetectionReportsASubsetOfFullReport) {
  std::string Path = tempPath("seg_subset_full.bin");
  std::string CutPath = tempPath("seg_subset_cut.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 4);
  const std::vector<uint8_t> Full = readFileBytes(Path);

  RaceReport FullReport;
  ASSERT_TRUE(detectRaces(T, FullReport));
  const std::set<StaticRaceKey> FullKeys = FullReport.keys();
  ASSERT_GT(FullKeys.size(), 0u) << "need races for a subset property";

  bool SawNonEmptySalvagedReport = false;
  for (size_t Cut = 16; Cut <= Full.size(); Cut += 3) {
    writeFileBytes(CutPath, Full.data(), Cut);
    TraceReadResult R = readTrace(CutPath);
    ASSERT_TRUE(R.readable()) << "cut=" << Cut;
    ReplayOptions Replay;
    Replay.AllowTimestampGaps = true;
    RaceReport HB, FT;
    ASSERT_TRUE(detectRaces(R.T, HB, Replay)) << "cut=" << Cut;
    ASSERT_TRUE(detectRacesFastTrack(R.T, FT, Replay)) << "cut=" << Cut;
    const std::set<StaticRaceKey> HBKeys = HB.keys();
    EXPECT_TRUE(std::includes(FullKeys.begin(), FullKeys.end(),
                              HBKeys.begin(), HBKeys.end()))
        << "cut=" << Cut << ": salvaged report is not a subset";
    EXPECT_EQ(HBKeys, FT.keys()) << "cut=" << Cut;
    if (!HBKeys.empty())
      SawNonEmptySalvagedReport = true;
  }
  // The property must not hold vacuously: plenty of prefixes still
  // contain detectable races.
  EXPECT_TRUE(SawNonEmptySalvagedReport);
  std::remove(Path.c_str());
  std::remove(CutPath.c_str());
}

} // namespace
