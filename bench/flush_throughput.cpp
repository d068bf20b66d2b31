//===-- bench/flush_throughput.cpp - Trace-flush pipeline throughput --------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// The headline for the async flush pipeline (runtime/AsyncSink.h): N
// producer threads stream event chunks into a v2 segmented log through
// three configurations — sync (every producer pays framing + write(2)
// behind the sink mutex), async-block (lossless hand-off to the flusher
// thread), async-drop (bounded hand-off, loss accounted). Reports wall
// time, events/second, and the producer-side stall profile: the p50, p99
// and max of single writeChunk() calls over all application threads,
// which is exactly the hot-path stall the pipeline exists to remove. The
// yardstick is one chunk's framing time: the median uncontended
// synchronous writeChunk (framing, CRC32C and write(2)) of one chunk
// from a single thread, measured first in the same run.
//
// With --json[=PATH] the results are also written as JSON (default
// BENCH_flush_throughput.json) so successive PRs can track the numbers.
// LITERACE_SCALE scales the chunk count per thread.
//
//===----------------------------------------------------------------------===//

#include "runtime/AsyncSink.h"
#include "support/TableFormatter.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace literace;

namespace {

enum class Mode { Sync, AsyncBlock, AsyncDrop };

const char *modeName(Mode M) {
  switch (M) {
  case Mode::Sync:
    return "sync";
  case Mode::AsyncBlock:
    return "async-block";
  case Mode::AsyncDrop:
    return "async-drop";
  }
  return "?";
}

struct Result {
  Mode M = Mode::Sync;
  double Seconds = 0.0;
  double EventsPerSec = 0.0;
  /// Distribution of single writeChunk() calls over every producer
  /// thread.
  uint64_t StallP50Ns = 0;
  uint64_t StallP99Ns = 0;
  uint64_t MaxProducerStallNs = 0;
  size_t StallSamples = 0;
  uint64_t EventsDropped = 0;
  uint64_t ChunksEnqueued = 0;
  size_t QueueDepthHighWater = 0;
  uint64_t ProducerParks = 0;
};

/// The \p Q quantile (nearest rank) of \p Sorted, which is ascending and
/// non-empty.
uint64_t quantile(const std::vector<uint64_t> &Sorted, double Q) {
  const double Exact = Q * static_cast<double>(Sorted.size());
  size_t Rank = static_cast<size_t>(Exact);
  if (static_cast<double>(Rank) < Exact)
    ++Rank;
  return Sorted[std::clamp<size_t>(Rank, 1, Sorted.size()) - 1];
}

/// Fills \p Chunk with the records producer \p T writes as chunk \p C.
void fillChunk(std::vector<EventRecord> &Chunk, ThreadId T, size_t C) {
  for (size_t I = 0; I != Chunk.size(); ++I) {
    Chunk[I].Kind = EventKind::Write;
    Chunk[I].Tid = T;
    Chunk[I].Addr = C * Chunk.size() + I;
    Chunk[I].Pc = 1;
  }
}

std::string tempPath(const char *Name) {
  const char *Dir = std::getenv("TMPDIR");
  return std::string(Dir && *Dir ? Dir : "/tmp") + "/" + Name;
}

Result runMode(Mode M, unsigned NumThreads, size_t ChunksPerThread,
               size_t EventsPerChunk) {
  const std::string Path = tempPath("literace_flush_bench.bin");
  Result R;
  R.M = M;
  {
    SegmentedFileSink Seg(Path, 128);
    if (!Seg.ok()) {
      std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
      std::exit(1);
    }
    std::unique_ptr<AsyncLogSink> Async;
    LogSink *Sink = &Seg;
    if (M != Mode::Sync) {
      AsyncLogSink::Options Opts;
      Opts.Policy =
          M == Mode::AsyncDrop ? FlushPolicy::Drop : FlushPolicy::Block;
      Async = std::make_unique<AsyncLogSink>(Seg, Opts);
      Sink = Async.get();
    }

    std::vector<std::vector<uint64_t>> StallNs(NumThreads);
    WallTimer Timer;
    std::vector<std::thread> Producers;
    for (unsigned T = 0; T != NumThreads; ++T)
      Producers.emplace_back([&, T] {
        std::vector<EventRecord> Chunk(EventsPerChunk);
        std::vector<uint64_t> &Calls = StallNs[T];
        Calls.reserve(ChunksPerThread);
        for (size_t C = 0; C != ChunksPerThread; ++C) {
          fillChunk(Chunk, T, C);
          WallTimer Call;
          Sink->writeChunk(T, Chunk.data(), Chunk.size());
          Calls.push_back(Call.nanoseconds());
        }
      });
    for (std::thread &T : Producers)
      T.join();
    // Producer-side work is done; the drain is the flusher's problem, but
    // the wall clock charges it too (it gates when the file is usable).
    if (Async) {
      Async->close();
      R.EventsDropped = Async->eventsDropped();
      R.ChunksEnqueued = Async->chunksEnqueued();
      R.QueueDepthHighWater = Async->queueStats().DepthHighWater;
      R.ProducerParks = Async->queueStats().ProducerParks;
    }
    Seg.close();
    R.Seconds = Timer.seconds();
    std::vector<uint64_t> All;
    for (const std::vector<uint64_t> &Calls : StallNs)
      All.insert(All.end(), Calls.begin(), Calls.end());
    std::sort(All.begin(), All.end());
    R.StallP50Ns = quantile(All, 0.50);
    R.StallP99Ns = quantile(All, 0.99);
    R.MaxProducerStallNs = All.back();
    R.StallSamples = All.size();
  }
  const double TotalEvents = static_cast<double>(NumThreads) *
                             static_cast<double>(ChunksPerThread) *
                             static_cast<double>(EventsPerChunk);
  R.EventsPerSec = TotalEvents / R.Seconds;
  std::remove(Path.c_str());
  return R;
}

/// One chunk's framing time: the median of \p Chunks uncontended
/// synchronous writeChunk calls from one thread into a fresh v2 log.
uint64_t chunkFrameNs(size_t Chunks, size_t EventsPerChunk) {
  const std::string Path = tempPath("literace_flush_frame.bin");
  std::vector<uint64_t> Calls;
  {
    SegmentedFileSink Seg(Path, 128);
    if (!Seg.ok()) {
      std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
      std::exit(1);
    }
    std::vector<EventRecord> Chunk(EventsPerChunk);
    for (size_t C = 0; C != Chunks; ++C) {
      fillChunk(Chunk, 0, C);
      WallTimer Call;
      Seg.writeChunk(0, Chunk.data(), Chunk.size());
      Calls.push_back(Call.nanoseconds());
    }
    Seg.close();
  }
  std::remove(Path.c_str());
  std::sort(Calls.begin(), Calls.end());
  return quantile(Calls, 0.50);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0)
      JsonPath = "BENCH_flush_throughput.json";
    else if (std::strncmp(Argv[I], "--json=", 7) == 0)
      JsonPath = Argv[I] + 7;
    else {
      std::fprintf(stderr, "usage: %s [--json[=PATH]]\n", Argv[0]);
      return 2;
    }
  }

  double Scale = 1.0;
  if (const char *Env = std::getenv("LITERACE_SCALE"))
    Scale = std::atof(Env);
  if (Scale <= 0.0)
    Scale = 1.0;
  const unsigned NumThreads =
      std::max(2u, std::min(8u, std::thread::hardware_concurrency()));
  const size_t ChunksPerThread =
      static_cast<size_t>(200 * Scale) + 1;
  const size_t EventsPerChunk = 4096;

  std::fprintf(stderr,
               "%u producers x %zu chunks x %zu events, segmented v2 log\n",
               NumThreads, ChunksPerThread, EventsPerChunk);

  const uint64_t FrameNs = chunkFrameNs(ChunksPerThread, EventsPerChunk);
  std::fprintf(stderr, "one chunk's framing time (uncontended sync "
                       "writeChunk, median): %.3f ms\n",
               static_cast<double>(FrameNs) / 1e6);

  std::vector<Result> Results;
  for (Mode M : {Mode::Sync, Mode::AsyncBlock, Mode::AsyncDrop})
    Results.push_back(runMode(M, NumThreads, ChunksPerThread,
                              EventsPerChunk));

  auto Ms = [](uint64_t Ns) {
    return TableFormatter::num(static_cast<double>(Ns) / 1e6, 3) + "ms";
  };
  TableFormatter Table("Trace-flush pipeline throughput (producer stall = "
                       "single writeChunk calls on app threads)");
  Table.addRow({"Mode", "Time", "M events/s", "Stall p50", "Stall p99",
                "Stall max", "Calls", "Dropped", "Queue HW", "Parks"});
  for (const Result &R : Results)
    Table.addRow(
        {modeName(R.M), TableFormatter::num(R.Seconds, 3) + "s",
         TableFormatter::num(R.EventsPerSec / 1e6, 1), Ms(R.StallP50Ns),
         Ms(R.StallP99Ns), Ms(R.MaxProducerStallNs),
         std::to_string(R.StallSamples), std::to_string(R.EventsDropped),
         R.M == Mode::Sync ? "-" : std::to_string(R.QueueDepthHighWater),
         R.M == Mode::Sync ? "-" : std::to_string(R.ProducerParks)});
  Table.print();

  if (!JsonPath.empty()) {
    std::FILE *File = std::fopen(JsonPath.c_str(), "w");
    if (!File) {
      std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath.c_str());
      return 1;
    }
    std::fprintf(File,
                 "{\n  \"benchmark\": \"flush_throughput\",\n"
                 "  \"threads\": %u,\n  \"chunks_per_thread\": %zu,\n"
                 "  \"events_per_chunk\": %zu,\n"
                 "  \"chunk_frame_ns_p50\": %llu,\n  \"modes\": [\n",
                 NumThreads, ChunksPerThread, EventsPerChunk,
                 static_cast<unsigned long long>(FrameNs));
    for (size_t I = 0; I != Results.size(); ++I) {
      const Result &R = Results[I];
      std::fprintf(
          File,
          "    {\"mode\": \"%s\", \"seconds\": %.6f, "
          "\"events_per_sec\": %.1f, \"producer_stall_p50_ns\": %llu, "
          "\"producer_stall_p99_ns\": %llu, "
          "\"max_producer_stall_ns\": %llu, \"stall_samples\": %zu, "
          "\"events_dropped\": %llu, \"chunks_enqueued\": %llu, "
          "\"queue_depth_highwater\": %zu, \"producer_parks\": %llu}%s\n",
          modeName(R.M), R.Seconds, R.EventsPerSec,
          static_cast<unsigned long long>(R.StallP50Ns),
          static_cast<unsigned long long>(R.StallP99Ns),
          static_cast<unsigned long long>(R.MaxProducerStallNs),
          R.StallSamples,
          static_cast<unsigned long long>(R.EventsDropped),
          static_cast<unsigned long long>(R.ChunksEnqueued),
          R.QueueDepthHighWater,
          static_cast<unsigned long long>(R.ProducerParks),
          I + 1 == Results.size() ? "" : ",");
    }
    std::fprintf(File, "  ]\n}\n");
    std::fclose(File);
    std::fprintf(stderr, "wrote %s\n", JsonPath.c_str());
  }
  return 0;
}
