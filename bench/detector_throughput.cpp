//===-- bench/detector_throughput.cpp - Detector backend comparison ---------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Compares the offline analysis cost of the three detector backends on
// one full-logging trace of the Dryad Channel + stdlib benchmark: the
// vector-clock happens-before detector (the paper's choice), the
// FastTrack-style epoch detector (PLDI 2009's answer to vector-clock
// cost, §6.1's [8]-adjacent line of work), and the Eraser-style lockset
// baseline. Reported as events/second over the identical replay.
//
// That trace is 97% memory accesses. A LiteRace-sampled log is the
// opposite: every sync operation is logged and few memory accesses are,
// so its replay is bound by the SyncVar clock table. A second trace, the
// work-stealing TaskExecutor recorded under RunMode::LiteRace (the
// pipeline benchmark's executor-sampled program, scale 4), gets hb,
// fasttrack and online rows of its own, with its distinct-SyncVar count.
//
// Then sweeps the sharded happens-before pipeline (docs/DETECTOR.md) over
// shards ∈ {1, 2, 4, 8} on the same trace, verifying the merged report is
// byte-identical to the serial one at every width and reporting the
// speedup trajectory. With --json[=PATH] both the backend comparison and
// the shard sweep are written as JSON (default
// BENCH_detector_throughput.json) so successive PRs can track the
// trajectory with tools/bench-compare. LITERACE_REPEATS>1 takes the best
// of N timings per backend and per width.
//
//===----------------------------------------------------------------------===//

#include "detector/FastTrackDetector.h"
#include "detector/HBDetector.h"
#include "detector/LocksetDetector.h"
#include "detector/OnlineDetector.h"
#include "detector/ShardedDetector.h"
#include "harness/DetectionExperiment.h"
#include "harness/Tables.h"
#include "runtime/Runtime.h"
#include "support/TableFormatter.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace literace;

namespace {

/// One backend's best-of-N measurement, for the table and the JSON
/// snapshot. Label is a stable slug (bench-compare keys list entries on
/// it, so renaming one orphans its history).
struct BackendPoint {
  const char *Label = "";
  size_t Races = 0;
  size_t RacyAddrs = 0;
  double Seconds = 0.0;
  double EventsPerSec = 0.0;
};

struct SweepPoint {
  unsigned Shards = 1;
  double Seconds = 0.0;
  double EventsPerSec = 0.0;
  double Speedup = 1.0;
  size_t StaticRaces = 0;
  /// Pipeline telemetry per shard, from the fastest repeat (empty for
  /// the serial width, which has no queues).
  std::vector<ShardedHBDetector::ShardTelemetry> ShardStats;
};

/// Records \p W under RunMode::LiteRace, the deployed configuration: all
/// sync logged, memory accesses sampled. \p ScaleFactor multiplies the
/// environment's scale.
Trace recordLiteRace(Workload &W, WorkloadParams Params,
                     double ScaleFactor) {
  Params.Scale *= ScaleFactor;
  MemorySink Sink(/*NumTimestampCounters=*/128);
  RuntimeConfig Config;
  Config.Mode = RunMode::LiteRace;
  Config.Seed = Params.Seed;
  Runtime RT(Config, &Sink);
  W.bind(RT);
  W.run(RT, Params);
  return Sink.takeTrace();
}

/// Writes one "backends" list of \p Rows as JSON.
void writeBackends(std::FILE *File, const std::vector<BackendPoint> &Rows,
                   const char *Indent) {
  std::fprintf(File, "%s\"backends\": [\n", Indent);
  for (size_t I = 0; I != Rows.size(); ++I) {
    const BackendPoint &P = Rows[I];
    std::fprintf(File,
                 "%s  {\"backend\": \"%s\", \"seconds\": %.6f, "
                 "\"events_per_sec\": %.1f, \"static_races\": %zu, "
                 "\"racy_addrs\": %zu}%s\n",
                 Indent, P.Label, P.Seconds, P.EventsPerSec, P.Races,
                 P.RacyAddrs, I + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(File, "%s]", Indent);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0)
      JsonPath = "BENCH_detector_throughput.json";
    else if (std::strncmp(Argv[I], "--json=", 7) == 0)
      JsonPath = Argv[I] + 7;
  }

  WorkloadParams Params = paramsFromEnv();
  const unsigned Repeats = repeatsFromEnv(1);
  auto W = makeWorkload(WorkloadKind::ChannelWithStdLib);
  std::fprintf(stderr, "producing the trace...\n");
  ExperimentRun Run = executeExperiment(*W, Params);
  const Trace &T = Run.TraceData;
  std::fprintf(stderr, "trace: %zu events (%zu memory, %zu sync)\n",
               T.totalEvents(), T.memoryOps(), T.syncOps());

  auto W2 = makeWorkload(WorkloadKind::TaskExecutor);
  std::fprintf(stderr, "producing the sync-dense trace...\n");
  const Trace SyncT = recordLiteRace(*W2, Params, 4.0);
  std::fprintf(stderr, "trace: %zu events (%zu memory, %zu sync)\n",
               SyncT.totalEvents(), SyncT.memoryOps(), SyncT.syncOps());

  TableFormatter Table("Detector backend throughput on one Dryad Channel "
                       "+ stdlib trace");
  TableFormatter SyncTable("Detector backend throughput on one "
                           "LiteRace-sampled TaskExecutor trace");
  for (TableFormatter *Tf : {&Table, &SyncTable})
    Tf->addRow({"Detector", "Races", "Racy addrs", "Time", "M events/s"});
  std::vector<BackendPoint> Backends, SyncBackends;
  auto Measure = [&](const Trace &Tr, std::vector<BackendPoint> &Rows,
                     TableFormatter &Tf, const char *Name, const char *Label,
                     auto Detect) {
    BackendPoint P;
    P.Label = Label;
    for (unsigned Rep = 0; Rep != (Repeats == 0 ? 1 : Repeats); ++Rep) {
      RaceReport Report;
      WallTimer Timer;
      bool Ok = Detect(Tr, Report);
      double Seconds = Timer.seconds();
      if (!Ok)
        std::fprintf(stderr, "warning: %s saw an inconsistent log\n", Name);
      if (Rep == 0 || Seconds < P.Seconds)
        P.Seconds = Seconds;
      P.Races = Report.numStaticRaces();
      P.RacyAddrs = Report.racyAddresses().size();
    }
    P.EventsPerSec = static_cast<double>(Tr.totalEvents()) / P.Seconds;
    Rows.push_back(P);
    Tf.addRow({Name, std::to_string(P.Races), std::to_string(P.RacyAddrs),
               TableFormatter::num(P.Seconds, 3) + "s",
               TableFormatter::num(P.EventsPerSec / 1e6, 1)});
  };
  // The hb row also counts the trace's distinct SyncVars.
  size_t SyncVars = 0;
  auto Hb = [&SyncVars](const Trace &Tr, RaceReport &R) {
    HBDetector D(R);
    const bool Ok = replayTraceWith(Tr, D);
    SyncVars = D.syncVarCount();
    return Ok;
  };
  auto FastTrack = [](const Trace &Tr, RaceReport &R) {
    return detectRacesFastTrack(Tr, R);
  };
  auto Online = [](const Trace &Tr, RaceReport &R) {
    OnlineDetector D(Tr.NumTimestampCounters, R);
    for (ThreadId Tid = 0; Tid != Tr.PerThread.size(); ++Tid)
      D.writeChunk(Tid, Tr.PerThread[Tid].data(), Tr.PerThread[Tid].size());
    return D.finish();
  };
  Measure(T, Backends, Table, "happens-before (vector clocks)", "hb", Hb);
  const size_t ChannelSyncVars = SyncVars;
  Measure(T, Backends, Table, "FastTrack (epochs)", "fasttrack", FastTrack);
  Measure(T, Backends, Table, "lockset (Eraser; imprecise)", "lockset",
          [](const Trace &Tr, RaceReport &R) {
            return detectLocksetViolations(Tr, R);
          });
  Measure(T, Backends, Table, "online (streaming sink)", "online", Online);
  Table.print();
  Measure(SyncT, SyncBackends, SyncTable, "happens-before (vector clocks)",
          "hb", Hb);
  const size_t SyncDenseSyncVars = SyncVars;
  Measure(SyncT, SyncBackends, SyncTable, "FastTrack (epochs)", "fasttrack",
          FastTrack);
  Measure(SyncT, SyncBackends, SyncTable, "online (streaming sink)",
          "online", Online);
  SyncTable.print();
  std::fprintf(stderr, "distinct SyncVars: %zu (Channel), %zu (TaskExecutor)\n",
               ChannelSyncVars, SyncDenseSyncVars);

  // --- Sharded HB sweep -------------------------------------------------
  RaceReport SerialReport;
  if (!detectRaces(T, SerialReport))
    std::fprintf(stderr, "warning: serial replay saw an inconsistent log\n");
  const std::string SerialText = SerialReport.describe();

  std::vector<SweepPoint> Sweep;
  double SerialSeconds = 0.0;
  bool Identical = true;
  for (unsigned Shards : {1u, 2u, 4u, 8u}) {
    DetectorOptions Options;
    Options.Shards = Shards;
    double Best = 0.0;
    size_t Races = 0;
    std::vector<ShardedHBDetector::ShardTelemetry> BestStats;
    for (unsigned Rep = 0; Rep != (Repeats == 0 ? 1 : Repeats); ++Rep) {
      RaceReport Report;
      std::vector<ShardedHBDetector::ShardTelemetry> Stats;
      WallTimer Timer;
      bool Ok;
      if (Shards <= 1) {
        Ok = detectRaces(T, Report, ReplayOptions(), Options);
      } else {
        // Explicit form of the same pipeline detectRaces runs, so the
        // per-shard queue telemetry can be read off afterwards.
        ShardedHBDetector Detector(Options);
        Ok = replayTrace(T, Detector);
        Detector.finish(Report);
        for (unsigned S = 0; S != Detector.numShards(); ++S)
          Stats.push_back(Detector.shardTelemetry(S));
      }
      double Seconds = Timer.seconds();
      if (!Ok)
        std::fprintf(stderr, "warning: %u-shard replay inconsistent\n",
                     Shards);
      if (Report.describe() != SerialText) {
        std::fprintf(stderr,
                     "ERROR: %u-shard report differs from serial output\n",
                     Shards);
        Identical = false;
      }
      Races = Report.numStaticRaces();
      if (Rep == 0 || Seconds < Best) {
        Best = Seconds;
        BestStats = std::move(Stats);
      }
    }
    if (Shards == 1)
      SerialSeconds = Best;
    SweepPoint P;
    P.Shards = Shards;
    P.Seconds = Best;
    P.EventsPerSec = static_cast<double>(T.totalEvents()) / Best;
    P.Speedup = SerialSeconds / Best;
    P.StaticRaces = Races;
    P.ShardStats = std::move(BestStats);
    Sweep.push_back(P);
  }

  TableFormatter Shards("Sharded happens-before sweep (byte-identical "
                        "reports at every width)");
  Shards.addRow({"Shards", "Races", "Time", "M events/s", "Speedup",
                 "Queue HW", "Parks p/c"});
  for (const SweepPoint &P : Sweep) {
    size_t QueueHw = 0;
    uint64_t ProdParks = 0;
    uint64_t ConsParks = 0;
    for (const auto &S : P.ShardStats) {
      QueueHw = std::max(QueueHw, S.QueueDepthHighWater);
      ProdParks += S.ProducerParks;
      ConsParks += S.ConsumerParks;
    }
    Shards.addRow({std::to_string(P.Shards), std::to_string(P.StaticRaces),
                   TableFormatter::num(P.Seconds, 3) + "s",
                   TableFormatter::num(P.EventsPerSec / 1e6, 1),
                   TableFormatter::num(P.Speedup, 2) + "x",
                   P.ShardStats.empty() ? "-" : std::to_string(QueueHw),
                   P.ShardStats.empty()
                       ? "-"
                       : std::to_string(ProdParks) + "/" +
                             std::to_string(ConsParks)});
  }
  Shards.print();
  std::fprintf(stderr, "host cores: %u\n",
               std::thread::hardware_concurrency());

  if (!JsonPath.empty()) {
    std::FILE *File = std::fopen(JsonPath.c_str(), "w");
    if (!File) {
      std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath.c_str());
      return 1;
    }
    std::fprintf(File,
                 "{\n  \"benchmark\": \"%s\",\n  \"events\": %zu,\n"
                 "  \"mem_ops\": %zu,\n  \"sync_ops\": %zu,\n"
                 "  \"sync_vars\": %zu,\n"
                 "  \"host_cores\": %u,\n  \"identical_reports\": %s,\n",
                 W->name().c_str(), T.totalEvents(), T.memoryOps(),
                 T.syncOps(), ChannelSyncVars,
                 std::thread::hardware_concurrency(),
                 Identical ? "true" : "false");
    writeBackends(File, Backends, "  ");
    std::fprintf(File,
                 ",\n  \"sync_dense\": {\n    \"benchmark\": \"%s "
                 "(LiteRace sampling)\",\n    \"events\": %zu,\n"
                 "    \"mem_ops\": %zu,\n    \"sync_ops\": %zu,\n"
                 "    \"sync_vars\": %zu,\n",
                 W2->name().c_str(), SyncT.totalEvents(), SyncT.memoryOps(),
                 SyncT.syncOps(), SyncDenseSyncVars);
    writeBackends(File, SyncBackends, "    ");
    std::fprintf(File, "\n  },\n  \"sweep\": [\n");
    for (size_t I = 0; I != Sweep.size(); ++I) {
      const SweepPoint &P = Sweep[I];
      std::fprintf(File,
                   "    {\"shards\": %u, \"seconds\": %.6f, "
                   "\"events_per_sec\": %.1f, \"speedup\": %.3f, "
                   "\"static_races\": %zu,\n     \"shard_queues\": [",
                   P.Shards, P.Seconds, P.EventsPerSec, P.Speedup,
                   P.StaticRaces);
      for (size_t S = 0; S != P.ShardStats.size(); ++S) {
        const auto &Q = P.ShardStats[S];
        std::fprintf(File,
                     "%s{\"depth_highwater\": %zu, "
                     "\"producer_parks\": %llu, "
                     "\"consumer_parks\": %llu}",
                     S == 0 ? "" : ", ", Q.QueueDepthHighWater,
                     static_cast<unsigned long long>(Q.ProducerParks),
                     static_cast<unsigned long long>(Q.ConsumerParks));
      }
      std::fprintf(File, "]}%s\n", I + 1 == Sweep.size() ? "" : ",");
    }
    std::fprintf(File, "  ]\n}\n");
    std::fclose(File);
    std::fprintf(stderr, "wrote %s\n", JsonPath.c_str());
  }
  return Identical ? 0 : 1;
}
