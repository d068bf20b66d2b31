//===-- tests/AsyncSinkTest.cpp - Asynchronous trace-flush pipeline ---------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Contract of the async flush pipeline (runtime/AsyncSink.h):
//  - the MPSC hand-off queue preserves per-producer FIFO order and wakes
//    blocked producers on close;
//  - FlushPolicy::Block is lossless (the trace equals a synchronous run's);
//  - FlushPolicy::Drop discards whole chunks and accounts every one of
//    them all the way into the v2 footer, so readTrace() reports the file
//    as Salvaged with exact writer-side loss, and reporting a drop never
//    waits for the durable sink's write in progress;
//  - flush()/fence() bound crash loss: everything enqueued before the
//    fence is durable even if the process dies right after;
//  - application threads make zero writeChunk() calls into the durable
//    sink in async mode (the telemetry the acceptance criterion checks);
//  - legacy 16-byte footers are still accepted, and tampered footer
//    totals are flagged.
//
//===----------------------------------------------------------------------===//

#include "runtime/AsyncSink.h"
#include "support/ByteOutput.h"
#include "support/Crc32.h"
#include "telemetry/Metrics.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>
#include <mutex>
#include <string>
#include <thread>
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

void writeFileBytes(const std::string &Path, const std::vector<uint8_t> &B) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr) << Path;
  ASSERT_EQ(std::fwrite(B.data(), 1, B.size(), F), B.size());
  std::fclose(F);
}

/// Builds one chunk for thread \p Tid whose records encode (Tid, Seq) in
/// Addr, so readback can verify exact per-thread program order.
std::vector<EventRecord> makeChunk(ThreadId Tid, uint64_t FirstSeq,
                                   size_t Count) {
  std::vector<EventRecord> Records(Count);
  for (size_t I = 0; I != Count; ++I) {
    Records[I].Kind = EventKind::Write;
    Records[I].Tid = Tid;
    Records[I].Addr = (static_cast<uint64_t>(Tid) << 32) | (FirstSeq + I);
    Records[I].Pc = 1;
  }
  return Records;
}

/// Pass-through sink whose writeChunk serializes on an external gate, so a
/// test can deterministically stall the flusher and fill the queue.
class GateSink : public LogSink {
public:
  explicit GateSink(LogSink &Under) : Under(Under) {}

  void writeChunk(ThreadId Tid, const EventRecord *Records,
                  size_t Count) override {
    std::lock_guard<std::mutex> Guard(Gate);
    Under.writeChunk(Tid, Records, Count);
    addBytes(Count * sizeof(EventRecord));
  }
  void flush() override { Under.flush(); }
  void noteLostChunk(ThreadId Tid, size_t Count) override {
    Under.noteLostChunk(Tid, Count);
  }

  std::mutex Gate;

private:
  LogSink &Under;
};

//===----------------------------------------------------------------------===//
// MPSC hand-off queue
//===----------------------------------------------------------------------===//

struct Item {
  unsigned Producer = 0;
  uint64_t Seq = 0;
};

TEST(MpscChunkQueueTest, PreservesPerProducerFifoUnderContention) {
  constexpr unsigned NumProducers = 4;
  constexpr uint64_t PerProducer = 5000;
  MpscChunkQueue<Item> Q(64);

  std::vector<std::thread> Producers;
  for (unsigned P = 0; P != NumProducers; ++P)
    Producers.emplace_back([&Q, P] {
      for (uint64_t I = 0; I != PerProducer; ++I) {
        Item It{P, I};
        ASSERT_TRUE(Q.push(It));
      }
    });

  std::vector<uint64_t> NextSeq(NumProducers, 0);
  uint64_t Received = 0;
  std::thread Consumer([&] {
    Item It;
    while (Q.pop(It)) {
      ASSERT_LT(It.Producer, NumProducers);
      // Each producer's items must arrive in the order it pushed them.
      EXPECT_EQ(It.Seq, NextSeq[It.Producer]);
      ++NextSeq[It.Producer];
      ++Received;
    }
  });

  for (std::thread &T : Producers)
    T.join();
  Q.close();
  Consumer.join();

  EXPECT_EQ(Received, NumProducers * PerProducer);
  for (unsigned P = 0; P != NumProducers; ++P)
    EXPECT_EQ(NextSeq[P], PerProducer) << "producer " << P;
  EXPECT_GT(Q.stats().DepthHighWater, 0u);
}

TEST(MpscChunkQueueTest, TryPushFailsWhenFullAndRecoversAfterPop) {
  MpscChunkQueue<Item> Q(16);
  for (uint64_t I = 0; I != Q.capacity(); ++I) {
    Item It{0, I};
    ASSERT_TRUE(Q.tryPush(It)) << I;
  }
  Item Overflow{0, 999};
  EXPECT_FALSE(Q.tryPush(Overflow));

  Item Out;
  ASSERT_TRUE(Q.tryPop(Out));
  EXPECT_EQ(Out.Seq, 0u);
  EXPECT_TRUE(Q.tryPush(Overflow));
}

TEST(MpscChunkQueueTest, CloseWakesBlockedProducerAndDrainsBacklog) {
  MpscChunkQueue<Item> Q(16);
  for (uint64_t I = 0; I != Q.capacity(); ++I) {
    Item It{0, I};
    ASSERT_TRUE(Q.tryPush(It));
  }

  std::atomic<int> PushResult{-1};
  std::thread Blocked([&] {
    Item It{0, 1000};
    PushResult.store(Q.push(It) ? 1 : 0);
  });
  // Give the producer time to park on the full queue, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Q.close();
  Blocked.join();
  EXPECT_EQ(PushResult.load(), 0); // Woken by close, not accepted.

  // The backlog enqueued before close still drains completely.
  Item Out;
  for (uint64_t I = 0; I != Q.capacity(); ++I) {
    ASSERT_TRUE(Q.pop(Out)) << I;
    EXPECT_EQ(Out.Seq, I);
  }
  EXPECT_FALSE(Q.pop(Out));
}

//===----------------------------------------------------------------------===//
// FlushPolicy::Block — lossless
//===----------------------------------------------------------------------===//

TEST(AsyncSinkTest, BlockPolicyDeliversEveryEventInOrder) {
  constexpr unsigned NumThreads = 4;
  constexpr size_t ChunksPerThread = 50;
  constexpr size_t EventsPerChunk = 32;

  MemorySink Memory(16);
  AsyncLogSink::Options Opts;
  Opts.Policy = FlushPolicy::Block;
  Opts.QueueCapacityChunks = 16; // Small: force producers through backpressure.
  AsyncLogSink Async(Memory, Opts);

  std::vector<std::thread> Producers;
  for (unsigned T = 0; T != NumThreads; ++T)
    Producers.emplace_back([&Async, T] {
      for (size_t C = 0; C != ChunksPerThread; ++C) {
        std::vector<EventRecord> Chunk =
            makeChunk(T, C * EventsPerChunk, EventsPerChunk);
        Async.writeChunk(T, Chunk.data(), Chunk.size());
      }
    });
  for (std::thread &T : Producers)
    T.join();

  EXPECT_TRUE(Async.close());
  EXPECT_EQ(Async.chunksDropped(), 0u);
  EXPECT_EQ(Async.chunksEnqueued(), NumThreads * ChunksPerThread);

  Trace T = Memory.takeTrace();
  ASSERT_EQ(T.PerThread.size(), NumThreads);
  for (unsigned Tid = 0; Tid != NumThreads; ++Tid) {
    const auto &Stream = T.PerThread[Tid];
    ASSERT_EQ(Stream.size(), ChunksPerThread * EventsPerChunk) << Tid;
    for (size_t I = 0; I != Stream.size(); ++I)
      ASSERT_EQ(Stream[I].Addr, (static_cast<uint64_t>(Tid) << 32) | I)
          << "thread " << Tid << " event " << I;
  }
}

TEST(AsyncSinkTest, CloseIsIdempotentAndFlushFromFlusherIsSafe) {
  MemorySink Memory(16);
  AsyncLogSink Async(Memory);
  std::vector<EventRecord> Chunk = makeChunk(0, 0, 8);
  Async.writeChunk(0, Chunk.data(), Chunk.size());
  EXPECT_TRUE(Async.fence());
  EXPECT_TRUE(Async.close());
  EXPECT_TRUE(Async.close());
}

//===----------------------------------------------------------------------===//
// FlushPolicy::Drop — accounted loss, all the way into the footer
//===----------------------------------------------------------------------===//

TEST(AsyncSinkTest, DropPolicyAccountsEveryChunkIntoFooterAndSalvage) {
  const std::string Path = tempPath("async_drop.bin");
  constexpr size_t EventsPerChunk = 16;
  constexpr size_t TotalChunks = 24;

  uint64_t EnqueuedChunks = 0;
  uint64_t DroppedChunks = 0;
  uint64_t DroppedEvents = 0;
  {
    SegmentedFileSink Seg(Path, 16);
    ASSERT_TRUE(Seg.ok());
    GateSink Gate(Seg);
    AsyncLogSink::Options Opts;
    Opts.Policy = FlushPolicy::Drop;
    Opts.QueueCapacityChunks = 16;
    AsyncLogSink Async(Gate, Opts);

    {
      // Stall the flusher so the queue fills: with capacity 16 and at most
      // one chunk in flight, at least 24 - 17 = 7 chunks must drop.
      std::lock_guard<std::mutex> Stall(Gate.Gate);
      for (size_t C = 0; C != TotalChunks; ++C) {
        std::vector<EventRecord> Chunk =
            makeChunk(0, C * EventsPerChunk, EventsPerChunk);
        Async.writeChunk(0, Chunk.data(), Chunk.size());
      }
      EXPECT_GE(Async.chunksDropped(), TotalChunks - 17);
    }

    EXPECT_FALSE(Async.close()); // Drops happened: not clean.
    EnqueuedChunks = Async.chunksEnqueued();
    DroppedChunks = Async.chunksDropped();
    DroppedEvents = Async.eventsDropped();
    // Nothing vanished unaccounted, and loss is whole chunks.
    EXPECT_EQ(EnqueuedChunks + DroppedChunks, TotalChunks);
    EXPECT_EQ(DroppedEvents, DroppedChunks * EventsPerChunk);
    EXPECT_FALSE(Seg.close()); // The durable sink knows about the loss too.
    EXPECT_EQ(Seg.eventsDropped(), DroppedEvents);
  }

  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Salvaged) << R.Error;
  EXPECT_EQ(R.Stats.EventsDroppedByWriter, DroppedEvents);
  EXPECT_EQ(R.Stats.EventsRecovered, EnqueuedChunks * EventsPerChunk);
  // Every byte present is intact — the loss never reached the file.
  EXPECT_EQ(R.Stats.SegmentsDropped, 0u);
  EXPECT_TRUE(R.Stats.CleanShutdown);
  EXPECT_NE(R.Error.find("dropped"), std::string::npos) << R.Error;
  std::remove(Path.c_str());
}

TEST(AsyncSinkTest, NoteLostChunkAloneMakesTheTraceSalvaged) {
  const std::string Path = tempPath("async_notelost.bin");
  {
    SegmentedFileSink Seg(Path, 16);
    ASSERT_TRUE(Seg.ok());
    std::vector<EventRecord> Chunk = makeChunk(0, 0, 8);
    Seg.writeChunk(0, Chunk.data(), Chunk.size());
    Seg.noteLostChunk(0, 5);
    EXPECT_FALSE(Seg.close());
  }
  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Salvaged) << R.Error;
  EXPECT_EQ(R.Stats.EventsDroppedByWriter, 5u);
  EXPECT_EQ(R.Stats.EventsRecovered, 8u);
  std::remove(Path.c_str());
}

/// File output whose write() can be held on a latch, so a test can park
/// the sink inside writeChunk() with its lock held.
class LatchedOutput : public ByteOutput {
public:
  explicit LatchedOutput(const std::string &Path) : File(Path) {}

  WriteResult write(const void *Data, size_t Size) override {
    std::unique_lock<std::mutex> Guard(Lock);
    if (Armed) {
      Entered = true;
      Changed.notify_all();
      Changed.wait(Guard, [this] { return !Armed; });
    }
    return File.write(Data, Size);
  }
  void close() override { File.close(); }
  bool ok() const override { return File.ok(); }

  void arm() {
    std::lock_guard<std::mutex> Guard(Lock);
    Armed = true;
  }
  void waitEntered() {
    std::unique_lock<std::mutex> Guard(Lock);
    Changed.wait(Guard, [this] { return Entered; });
  }
  void release() {
    std::lock_guard<std::mutex> Guard(Lock);
    Armed = false;
    Changed.notify_all();
  }

private:
  FileByteOutput File;
  std::mutex Lock;
  std::condition_variable Changed;
  bool Armed = false;
  bool Entered = false;
};

TEST(AsyncSinkTest, NoteLostChunkDoesNotWaitForAWriteInProgress) {
  // Under FlushPolicy::Drop an application thread reports its dropped
  // chunk with noteLostChunk(); it must not queue behind the flusher's
  // write, which holds the sink for the whole frame.
  const std::string Path = tempPath("async_notelost_latched.bin");
  LatchedOutput Output(Path);
  {
    SegmentedFileSink::Options Opts;
    Opts.Output = &Output;
    SegmentedFileSink Seg(Path, 16, Opts);
    ASSERT_TRUE(Seg.ok());
    Output.arm();
    std::vector<EventRecord> Chunk = makeChunk(0, 0, 8);
    std::thread Flusher(
        [&] { Seg.writeChunk(0, Chunk.data(), Chunk.size()); });
    Output.waitEntered(); // The writer is parked inside write().

    std::mutex DoneLock;
    std::condition_variable DoneCv;
    bool Done = false;
    std::thread App([&] {
      Seg.noteLostChunk(0, 5);
      std::lock_guard<std::mutex> Guard(DoneLock);
      Done = true;
      DoneCv.notify_all();
    });
    {
      std::unique_lock<std::mutex> Guard(DoneLock);
      EXPECT_TRUE(DoneCv.wait_for(Guard, std::chrono::seconds(5),
                                  [&] { return Done; }))
          << "noteLostChunk waited for the write in progress";
    }
    Output.release();
    App.join();
    Flusher.join();
    EXPECT_EQ(Seg.eventsDropped(), 5u);
    EXPECT_FALSE(Seg.close());
  }
  // The footer still seals the dropped count.
  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Salvaged) << R.Error;
  EXPECT_EQ(R.Stats.EventsDroppedByWriter, 5u);
  EXPECT_EQ(R.Stats.EventsRecovered, 8u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Crash bound: a fence makes everything before it durable
//===----------------------------------------------------------------------===//

TEST(AsyncSinkTest, FenceBoundsCrashLossToInFlightChunks) {
  const std::string Path = tempPath("async_fence_crash.bin");
  constexpr size_t Chunks = 10;
  constexpr size_t EventsPerChunk = 16;
  {
    SegmentedFileSink Seg(Path, 16);
    ASSERT_TRUE(Seg.ok());
    AsyncLogSink Async(Seg);
    for (size_t C = 0; C != Chunks; ++C) {
      std::vector<EventRecord> Chunk =
          makeChunk(0, C * EventsPerChunk, EventsPerChunk);
      Async.writeChunk(0, Chunk.data(), Chunk.size());
    }
    // The fatal-signal path: fence, then the process "dies" — the sink is
    // abandoned without a footer.
    ASSERT_TRUE(Async.fence());
    Seg.abandon();
    Async.close();
  }
  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Salvaged) << R.Error; // No footer.
  EXPECT_FALSE(R.Stats.CleanShutdown);
  // Everything enqueued before the fence survived the crash.
  EXPECT_EQ(R.Stats.EventsRecovered, Chunks * EventsPerChunk);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Write classification: async mode removes write() calls from app threads
//===----------------------------------------------------------------------===//

TEST(AsyncSinkTest, AsyncModeMakesZeroAppThreadWritesIntoDurableSink) {
  const std::string Path = tempPath("async_classify.bin");
  telemetry::MetricsRegistry Registry;
  {
    SegmentedFileSink::Options SOpts;
    SOpts.Metrics = &Registry;
    SegmentedFileSink Seg(Path, 16, SOpts);
    ASSERT_TRUE(Seg.ok());
    AsyncLogSink::Options AOpts;
    AOpts.Metrics = &Registry;
    AsyncLogSink Async(Seg, AOpts);
    for (size_t C = 0; C != 8; ++C) {
      std::vector<EventRecord> Chunk = makeChunk(0, C * 16, 16);
      Async.writeChunk(0, Chunk.data(), Chunk.size());
    }
    EXPECT_TRUE(Async.close());
    EXPECT_EQ(Seg.appThreadWrites(), 0u);
    EXPECT_EQ(Seg.flusherThreadWrites(), 8u);
    EXPECT_TRUE(Seg.close());
  }
  telemetry::MetricsSnapshot Snap = Registry.snapshot();
  EXPECT_EQ(Snap.counter("sink.writes.app_thread", 0), 0u);
  EXPECT_EQ(Snap.counter("sink.writes.flusher_thread", 0), 8u);
  EXPECT_EQ(Snap.counter("sink.async.chunks_enqueued", 0), 8u);
  std::remove(Path.c_str());
}

TEST(AsyncSinkTest, SyncModeWritesFromAppThreads) {
  const std::string Path = tempPath("sync_classify.bin");
  SegmentedFileSink Seg(Path, 16);
  ASSERT_TRUE(Seg.ok());
  std::vector<EventRecord> Chunk = makeChunk(0, 0, 16);
  Seg.writeChunk(0, Chunk.data(), Chunk.size());
  EXPECT_EQ(Seg.appThreadWrites(), 1u);
  EXPECT_EQ(Seg.flusherThreadWrites(), 0u);
  EXPECT_TRUE(Seg.close());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Footer compatibility and tamper detection
//===----------------------------------------------------------------------===//

/// On-disk mirror of the v2 segment header (docs/LOG_FORMAT.md); layout is
/// load-bearing, checked against the file contents below.
struct RawSegmentHeader {
  uint32_t Magic;
  uint8_t Encoding;
  uint8_t Flags;
  uint16_t Reserved;
  uint32_t Tid;
  uint32_t EventCount;
  uint32_t PayloadBytes;
  uint32_t PayloadCrc;
  uint32_t HeaderCrc;
};
static_assert(sizeof(RawSegmentHeader) == 28, "v2 header is 28 bytes");
constexpr uint32_t RawSegmentMagic = 0x4753524Cu; // "LRSG"
constexpr uint8_t RawFlagFooter = 0x01;
constexpr size_t NewFooterBytes = 24;
constexpr size_t LegacyFooterBytes = 16;

void writeCleanSegmentedFile(const std::string &Path, size_t Chunks,
                             size_t EventsPerChunk) {
  SegmentedFileSink Seg(Path, 16);
  ASSERT_TRUE(Seg.ok());
  for (size_t C = 0; C != Chunks; ++C) {
    std::vector<EventRecord> Chunk =
        makeChunk(0, C * EventsPerChunk, EventsPerChunk);
    Seg.writeChunk(0, Chunk.data(), Chunk.size());
  }
  ASSERT_TRUE(Seg.close());
}

TEST(AsyncSinkTest, LegacySixteenByteFooterStillReadsClean) {
  const std::string Path = tempPath("legacy_footer.bin");
  writeCleanSegmentedFile(Path, 4, 8);

  // Rewrite the sealed 24-byte footer as the legacy 16-byte form (no
  // DroppedEvents field) and re-checksum it.
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  const size_t NewFrame = sizeof(RawSegmentHeader) + NewFooterBytes;
  ASSERT_GE(Bytes.size(), NewFrame);
  const size_t Off = Bytes.size() - NewFrame;
  RawSegmentHeader H;
  std::memcpy(&H, Bytes.data() + Off, sizeof(H));
  ASSERT_EQ(H.Magic, RawSegmentMagic);
  ASSERT_EQ(H.Flags, RawFlagFooter);
  ASSERT_EQ(H.PayloadBytes, NewFooterBytes);

  uint8_t Legacy[LegacyFooterBytes]; // {TotalEvents, TotalSegments}
  std::memcpy(Legacy, Bytes.data() + Off + sizeof(H), LegacyFooterBytes);
  H.PayloadBytes = LegacyFooterBytes;
  H.PayloadCrc = crc32c(Legacy, LegacyFooterBytes);
  H.HeaderCrc = crc32c(&H, sizeof(H) - sizeof(uint32_t));
  Bytes.resize(Off);
  Bytes.insert(Bytes.end(), reinterpret_cast<uint8_t *>(&H),
               reinterpret_cast<uint8_t *>(&H) + sizeof(H));
  Bytes.insert(Bytes.end(), Legacy, Legacy + LegacyFooterBytes);
  writeFileBytes(Path, Bytes);

  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Ok) << R.Error;
  EXPECT_TRUE(R.Stats.CleanShutdown);
  EXPECT_EQ(R.Stats.EventsDroppedByWriter, 0u);
  EXPECT_EQ(R.Stats.EventsRecovered, 32u);
  std::remove(Path.c_str());
}

TEST(AsyncSinkTest, TamperedFooterTotalsAreFlagged) {
  const std::string Path = tempPath("tampered_footer.bin");
  writeCleanSegmentedFile(Path, 4, 8);

  // Bump TotalEvents in the footer and re-checksum: the frame is CRC-valid
  // but disagrees with the recovered contents.
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  const size_t NewFrame = sizeof(RawSegmentHeader) + NewFooterBytes;
  ASSERT_GE(Bytes.size(), NewFrame);
  const size_t Off = Bytes.size() - NewFrame;
  RawSegmentHeader H;
  std::memcpy(&H, Bytes.data() + Off, sizeof(H));
  ASSERT_EQ(H.Flags, RawFlagFooter);
  uint64_t Totals[3];
  std::memcpy(Totals, Bytes.data() + Off + sizeof(H), NewFooterBytes);
  ++Totals[0];
  H.PayloadCrc = crc32c(Totals, NewFooterBytes);
  H.HeaderCrc = crc32c(&H, sizeof(H) - sizeof(uint32_t));
  std::memcpy(Bytes.data() + Off, &H, sizeof(H));
  std::memcpy(Bytes.data() + Off + sizeof(H), Totals, NewFooterBytes);
  writeFileBytes(Path, Bytes);

  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Salvaged) << R.Error;
  EXPECT_TRUE(R.Stats.FooterTotalsMismatch);
  EXPECT_NE(R.Error.find("footer totals"), std::string::npos) << R.Error;
  std::remove(Path.c_str());
}

} // namespace
