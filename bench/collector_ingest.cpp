//===-- bench/collector_ingest.cpp - Collector ingest throughput ------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// The headline for the literace-collectd ingestion path (docs/COLLECTOR.md):
// N concurrent clients stream identical pre-encoded v2 segment streams into
// one in-process CollectorServer over real AF_UNIX sockets, and the run is
// charged until every session has been decoded, detected, and triaged.
// Sweeping the client count {1, 2, 4, 8} shows how the single detection
// thread and the MPSC hand-off queue hold up as ingest concurrency grows:
// aggregate events/second, wall time, queue high-water/parks, and the
// dedup'd race count (which must not depend on the client count).
//
// With --json[=PATH] the results are also written as JSON (default
// BENCH_collector_ingest.json) so successive PRs can track the numbers;
// tools/bench-compare keys the sweep rows by their "clients" label.
// LITERACE_SCALE scales the stream size per client.
//
// A second, fault-injected sweep (docs/ROBUSTNESS.md) crosses the
// disconnect rate with the client spool: every connection is torn at a
// seeded byte offset (0, 4, or 16 tears per client stream), once with
// the plain legacy transport — which drops the tail of the stream at
// the first tear, the pre-spool behavior — and once with
// SpoolingSocketOutput riding through the tears. The spooled rows must
// lose zero bytes and report the same dedup'd race set as the fault-free
// baseline; the legacy rows quantify what each disconnect rate costs in
// lost bytes and missed races. The "fault_sweep" JSON rows are keyed by
// {spool, tears_per_client}.
//
// Every row reports delivered_share, the events ingested over the events
// sent. Only a lossless row (share 1) carries events_per_sec: a stream
// cut short finishes sooner, and its rate would count events that never
// arrived.
//
//===----------------------------------------------------------------------===//

#include "collector/Collector.h"
#include "detector/LogBuilder.h"
#include "runtime/EventLog.h"
#include "support/ByteOutput.h"
#include "support/Timer.h"
#include "telemetry/Metrics.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace literace;
using namespace literace::collector;

namespace {

/// Events ingested over events sent.
double deliveredShare(uint64_t Ingested, unsigned Clients,
                      size_t EventsPerClient) {
  return static_cast<double>(Ingested) /
         (static_cast<double>(Clients) * static_cast<double>(EventsPerClient));
}

/// Ingest rate of a lossless row; 0 (not reported) when events were lost.
double losslessRate(double Share, unsigned Clients, size_t EventsPerClient,
                    double Seconds) {
  return Share == 1.0 ? static_cast<double>(Clients) *
                            static_cast<double>(EventsPerClient) / Seconds
                      : 0.0;
}

/// The JSON member of a rate: empty for a lossy row.
std::string rateJson(double EventsPerSec) {
  if (EventsPerSec == 0.0)
    return "";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "\"events_per_sec\": %.1f, ", EventsPerSec);
  return Buf;
}

/// The table cell of a rate: "-" for a lossy row.
std::string rateCell(double EventsPerSec) {
  if (EventsPerSec == 0.0)
    return "-";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f", EventsPerSec / 1e6);
  return Buf;
}

struct Result {
  unsigned Clients = 0;
  double Seconds = 0.0;
  double EventsPerSec = 0.0;
  double DeliveredShare = 0.0;
  uint64_t EventsIngested = 0;
  uint64_t BytesIngested = 0;
  size_t DistinctRaces = 0;
  uint64_t QueueDepthHighWater = 0;
  uint64_t ProducerParks = 0;
};

std::string tempPath(const char *Name) {
  const char *Dir = std::getenv("TMPDIR");
  return std::string(Dir && *Dir ? Dir : "/tmp") + "/" + Name;
}

/// One client's payload: a multi-thread trace with sync traffic, a few
/// races, and enough volume to make the decode/detect path the cost.
Trace buildTrace(size_t Repeats) {
  LogBuilder B(64);
  B.onThread(0).threadStart();
  B.onThread(1).threadStart();
  B.onThread(2).threadStart();
  for (size_t I = 0; I != Repeats; ++I) {
    const uint64_t Base = 0x10000 + (I % 512) * 64;
    B.onThread(0)
        .lock(1)
        .write(Base, makePc(1, 1))
        .read(Base + 8, makePc(1, 2))
        .unlock(1);
    B.onThread(1)
        .lock(1)
        .write(Base, makePc(2, 1))
        .unlock(1)
        .write(0x9000, makePc(2, 7)); // Unsynchronized: races with t2.
    B.onThread(2)
        .write(0x9000, makePc(3, 7))
        .read(Base + 8, makePc(3, 2));
  }
  B.onThread(0).threadEnd();
  B.onThread(1).threadEnd();
  B.onThread(2).threadEnd();
  return B.build();
}

/// Encodes \p T as one on-disk v2 segment stream (what a client sends).
std::vector<uint8_t> encodeTrace(const Trace &T) {
  const std::string Path = tempPath("literace_collector_bench.bin");
  {
    SegmentedFileSink Sink(Path, T.NumTimestampCounters);
    for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid) {
      const std::vector<EventRecord> &Stream = T.PerThread[Tid];
      for (size_t At = 0; At < Stream.size(); At += 2048)
        Sink.writeChunk(static_cast<ThreadId>(Tid), Stream.data() + At,
                        std::min<size_t>(2048, Stream.size() - At));
    }
    Sink.close();
  }
  std::vector<uint8_t> Bytes;
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (File) {
    char Buf[65536];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), File)) != 0)
      Bytes.insert(Bytes.end(), Buf, Buf + N);
    std::fclose(File);
  }
  std::remove(Path.c_str());
  return Bytes;
}

/// Pulls one numeric field out of a /status document by key.
uint64_t jsonU64(const std::string &Json, const std::string &Key) {
  const size_t At = Json.find("\"" + Key + "\": ");
  if (At == std::string::npos)
    return 0;
  return std::strtoull(Json.c_str() + At + Key.size() + 4, nullptr, 10);
}

Result runClients(unsigned Clients, const std::vector<uint8_t> &Bytes,
                  size_t EventsPerClient) {
  const std::string Socket = tempPath("literace_collector_bench.sock");
  Result R;
  R.Clients = Clients;

  telemetry::MetricsRegistry Registry;
  CollectorConfig Config;
  Config.IngestSocketPath = Socket;
  Config.Triage.RatePerSec = 0; // Measure the pipeline, not the limiter.
  Config.Metrics = &Registry;
  CollectorServer Server(std::move(Config));
  std::string Error;
  if (!Server.start(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    std::exit(1);
  }

  WallTimer Timer;
  std::vector<std::thread> Streams;
  for (unsigned C = 0; C != Clients; ++C)
    Streams.emplace_back([&] {
      SocketByteOutput Out(Socket);
      size_t At = 0;
      while (Out.ok() && At < Bytes.size()) {
        WriteResult W = Out.write(Bytes.data() + At,
                                  std::min<size_t>(65536, Bytes.size() - At));
        At += W.Written;
        if (W.Written == 0 && !W.Transient)
          break;
      }
      Out.close();
    });
  for (std::thread &S : Streams)
    S.join();
  // The clock runs until the last session is fully detected and triaged.
  Server.waitForSessions(Clients);
  R.Seconds = Timer.seconds();
  const std::string Status = Server.statusJson();
  Server.stop();

  const telemetry::MetricsSnapshot Snap = Registry.snapshot();
  R.EventsIngested = Snap.counter("collector.events.ingested");
  R.BytesIngested = Snap.counter("collector.bytes.ingested");
  R.QueueDepthHighWater = jsonU64(Status, "high_water");
  R.ProducerParks = jsonU64(Status, "producer_parks");
  R.DistinctRaces = Server.triage().distinctRaces();
  R.DeliveredShare = deliveredShare(R.EventsIngested, Clients, EventsPerClient);
  R.EventsPerSec =
      losslessRate(R.DeliveredShare, Clients, EventsPerClient, R.Seconds);
  std::remove(Socket.c_str());
  return R;
}

struct FaultResult {
  bool Spool = false;
  unsigned TearsPerClient = 0;
  double Seconds = 0.0;
  double EventsPerSec = 0.0;
  double DeliveredShare = 0.0;
  uint64_t EventsIngested = 0;
  uint64_t BytesLost = 0;
  uint64_t Reconnects = 0;
  uint64_t ReplayedBytes = 0;
  size_t DistinctRaces = 0;
};

/// One fault-injected run: \p Clients stream \p Bytes each while every
/// connection is torn after Bytes.size()/Tears bytes. With \p Spool the
/// clients ride through on SpoolingSocketOutput (spool + resume); without
/// it they behave like the pre-spool tee and drop the tail at the first
/// tear. Tears == 0 is the fault-free baseline on each transport.
FaultResult runFaulted(bool Spool, unsigned Tears, unsigned Clients,
                       const std::vector<uint8_t> &Bytes,
                       size_t EventsPerClient) {
  const std::string Socket = tempPath("literace_collector_bench.sock");
  FaultResult R;
  R.Spool = Spool;
  R.TearsPerClient = Tears;
  const uint64_t TearEvery =
      Tears == 0 ? 0 : std::max<uint64_t>(Bytes.size() / Tears, 4096);

  telemetry::MetricsRegistry Registry;
  CollectorConfig Config;
  Config.IngestSocketPath = Socket;
  Config.Triage.RatePerSec = 0;
  // Ack often so a tear replays at most 64 KB, not the 1 MB default —
  // otherwise replay amplification, not the fault rate, dominates.
  Config.AckEveryBytes = 64 << 10;
  Config.Metrics = &Registry;
  CollectorServer Server(std::move(Config));
  std::string Error;
  if (!Server.start(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    std::exit(1);
  }

  std::atomic<uint64_t> Lost{0}, Reconnects{0}, Replayed{0};
  WallTimer Timer;
  std::vector<std::thread> Streams;
  for (unsigned C = 0; C != Clients; ++C)
    Streams.emplace_back([&, C] {
      if (Spool) {
        SpoolingSocketOutput::Options Opts;
        Opts.SocketPath = Socket;
        Opts.SpoolPath = tempPath(
            ("literace_collector_bench_spool" + std::to_string(C)).c_str());
        Opts.BackoffInitialMs = 1;
        Opts.BackoffMaxMs = 4;
        Opts.JitterSeed = C + 1;
        Opts.DrainDeadlineMs = 60000;
        Opts.RunIdHi = 0xBE9C;
        Opts.RunIdLo = C + 1;
        if (TearEvery != 0) {
          FaultPlan Tear;
          Tear.FailAtByte = TearEvery; // Last plan repeats: every
          Opts.SendFaults.push_back(Tear); // connection tears again.
        }
        SpoolingSocketOutput Out(std::move(Opts));
        size_t At = 0;
        while (Out.ok() && At < Bytes.size()) {
          WriteResult W = Out.write(
              Bytes.data() + At, std::min<size_t>(65536, Bytes.size() - At));
          At += W.Written;
          if (W.Written == 0 && !W.Transient)
            break;
        }
        Out.close();
        Lost += Out.bytesLost();
        Reconnects += Out.reconnects();
        Replayed += Out.replayedBytes();
      } else {
        SocketByteOutput Raw(Socket);
        FaultPlan Tear;
        Tear.FailAtByte = TearEvery; // 0 = never tears.
        FaultySink Out(Raw, Tear);
        size_t At = 0;
        while (Out.ok() && At < Bytes.size()) {
          WriteResult W = Out.write(
              Bytes.data() + At, std::min<size_t>(65536, Bytes.size() - At));
          At += W.Written;
          if (W.Written == 0 && !W.Transient)
            break;
        }
        Out.close();
        Lost += Bytes.size() - At; // The tail the legacy tee drops.
      }
    });
  for (std::thread &S : Streams)
    S.join();
  Server.waitForSessions(Clients);
  R.Seconds = Timer.seconds();
  Server.stop();

  const telemetry::MetricsSnapshot Snap = Registry.snapshot();
  R.EventsIngested = Snap.counter("collector.events.ingested");
  R.BytesLost = Lost.load();
  R.Reconnects = Reconnects.load();
  R.ReplayedBytes = Replayed.load();
  R.DistinctRaces = Server.triage().distinctRaces();
  R.DeliveredShare = deliveredShare(R.EventsIngested, Clients, EventsPerClient);
  R.EventsPerSec =
      losslessRate(R.DeliveredShare, Clients, EventsPerClient, R.Seconds);
  std::remove(Socket.c_str());
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0)
      JsonPath = "BENCH_collector_ingest.json";
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
  const size_t Repeats = static_cast<size_t>(20000 * Scale) + 1;

  const Trace T = buildTrace(Repeats);
  const std::vector<uint8_t> Bytes = encodeTrace(T);
  const size_t EventsPerClient = T.totalEvents();
  std::fprintf(stderr,
               "per client: %zu events, %.1f MB encoded; sweeping client "
               "counts\n",
               EventsPerClient, static_cast<double>(Bytes.size()) / 1e6);

  std::vector<Result> Results;
  for (unsigned Clients : {1u, 2u, 4u, 8u})
    Results.push_back(runClients(Clients, Bytes, EventsPerClient));

  std::fprintf(stderr,
               "\nCollector ingest throughput (decode + detect + triage, "
               "wall-clocked to last session)\n");
  std::fprintf(stderr, "  %-8s %-9s %-12s %-10s %-8s %-10s %-7s\n",
               "Clients", "Time", "M events/s", "Delivered", "Races",
               "Queue HW", "Parks");
  for (const Result &R : Results)
    std::fprintf(stderr, "  %-8u %-9s %-12s %-10.4f %-8zu %-10llu %-7llu\n",
                 R.Clients,
                 (std::to_string(R.Seconds).substr(0, 5) + "s").c_str(),
                 rateCell(R.EventsPerSec).c_str(), R.DeliveredShare,
                 R.DistinctRaces,
                 static_cast<unsigned long long>(R.QueueDepthHighWater),
                 static_cast<unsigned long long>(R.ProducerParks));

  // The dedup invariant: the race set must not grow with the client count.
  for (const Result &R : Results)
    if (R.DistinctRaces != Results.front().DistinctRaces) {
      std::fprintf(stderr,
                   "error: race set varies with client count (%zu vs %zu)\n",
                   R.DistinctRaces, Results.front().DistinctRaces);
      return 1;
    }

  // Fault-injected sweep: disconnect rate x spool on/off, 4 clients.
  const unsigned FaultClients = 4;
  std::vector<FaultResult> Faulted;
  for (unsigned Tears : {0u, 4u, 16u})
    for (bool Spool : {false, true})
      Faulted.push_back(
          runFaulted(Spool, Tears, FaultClients, Bytes, EventsPerClient));

  std::fprintf(stderr,
               "\nFault-injected ingest (%u clients, connection torn "
               "every size/N bytes)\n",
               FaultClients);
  std::fprintf(stderr,
               "  %-7s %-7s %-9s %-12s %-10s %-12s %-7s %-12s %-7s\n",
               "Spool", "Tears", "Time", "M events/s", "Delivered",
               "Lost bytes", "Reconn", "Replayed", "Races");
  for (const FaultResult &R : Faulted)
    std::fprintf(stderr,
                 "  %-7s %-7u %-9s %-12s %-10.4f %-12llu %-7llu %-12llu "
                 "%-7zu\n",
                 R.Spool ? "on" : "off", R.TearsPerClient,
                 (std::to_string(R.Seconds).substr(0, 5) + "s").c_str(),
                 rateCell(R.EventsPerSec).c_str(), R.DeliveredShare,
                 static_cast<unsigned long long>(R.BytesLost),
                 static_cast<unsigned long long>(R.Reconnects),
                 static_cast<unsigned long long>(R.ReplayedBytes),
                 R.DistinctRaces);

  // The durability invariant: with the spool on, no disconnect rate may
  // lose a byte or shrink the dedup'd race set below the baseline.
  for (const FaultResult &R : Faulted)
    if (R.Spool &&
        (R.BytesLost != 0 || R.DistinctRaces != Results.front().DistinctRaces)) {
      std::fprintf(stderr,
                   "error: spooled run at %u tears lost %llu byte(s), "
                   "%zu race(s) vs baseline %zu\n",
                   R.TearsPerClient,
                   static_cast<unsigned long long>(R.BytesLost),
                   R.DistinctRaces, Results.front().DistinctRaces);
      return 1;
    }

  if (!JsonPath.empty()) {
    std::FILE *File = std::fopen(JsonPath.c_str(), "w");
    if (!File) {
      std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath.c_str());
      return 1;
    }
    std::fprintf(File,
                 "{\n  \"benchmark\": \"collector_ingest\",\n"
                 "  \"events_per_client\": %zu,\n"
                 "  \"encoded_bytes_per_client\": %zu,\n  \"sweep\": [\n",
                 EventsPerClient, Bytes.size());
    for (size_t I = 0; I != Results.size(); ++I) {
      const Result &R = Results[I];
      std::fprintf(
          File,
          "    {\"clients\": %u, \"seconds\": %.6f, %s"
          "\"delivered_share\": %.6f, \"events_ingested\": %llu, "
          "\"bytes_ingested\": %llu, \"distinct_races\": %zu, "
          "\"queue_depth_highwater\": %llu, \"producer_parks\": %llu}%s\n",
          R.Clients, R.Seconds, rateJson(R.EventsPerSec).c_str(),
          R.DeliveredShare, static_cast<unsigned long long>(R.EventsIngested),
          static_cast<unsigned long long>(R.BytesIngested),
          R.DistinctRaces,
          static_cast<unsigned long long>(R.QueueDepthHighWater),
          static_cast<unsigned long long>(R.ProducerParks),
          I + 1 == Results.size() ? "" : ",");
    }
    std::fprintf(File, "  ],\n  \"fault_clients\": %u,\n  \"fault_sweep\": [\n",
                 FaultClients);
    for (size_t I = 0; I != Faulted.size(); ++I) {
      const FaultResult &R = Faulted[I];
      std::fprintf(
          File,
          "    {\"spool\": %s, \"tears_per_client\": %u, "
          "\"seconds\": %.6f, %s\"delivered_share\": %.6f, "
          "\"events_ingested\": %llu, \"bytes_lost\": %llu, "
          "\"reconnects\": %llu, \"replayed_bytes\": %llu, "
          "\"distinct_races\": %zu}%s\n",
          R.Spool ? "true" : "false", R.TearsPerClient, R.Seconds,
          rateJson(R.EventsPerSec).c_str(), R.DeliveredShare,
          static_cast<unsigned long long>(R.EventsIngested),
          static_cast<unsigned long long>(R.BytesLost),
          static_cast<unsigned long long>(R.Reconnects),
          static_cast<unsigned long long>(R.ReplayedBytes), R.DistinctRaces,
          I + 1 == Faulted.size() ? "" : ",");
    }
    std::fprintf(File, "  ]\n}\n");
    std::fclose(File);
    std::fprintf(stderr, "wrote %s\n", JsonPath.c_str());
  }
  return 0;
}
