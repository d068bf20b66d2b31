//===-- tools/literace-report.cpp - Offline race analyzer CLI ---------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// The "analyzer side" of the paper's offline workflow (§4.4): reads a log
// file produced by literace-run (or any FileSink user), replays it, and
// reports data races. Three detector backends are available: the default
// vector-clock happens-before detector, the FastTrack-style epoch
// detector, and the Eraser-style lockset baseline (which may report false
// positives — it is included for comparison, as in the paper's §2).
//
// Usage:
//   literace-report <log.bin> [--detector hb|fasttrack|lockset]
//                   [--suppress <file>] [--stats] [--quiet]
//                   [--metrics <dir>] [--salvage] [--strict]
//
// Damaged logs: by default (--salvage) the reader recovers every intact
// checksummed segment and the replay tolerates the resulting timestamp
// gaps, so a crashed or corrupted recording still yields a report — over
// the recovered subset of the execution, with the coverage loss printed.
// --strict restores fail-stop behavior: any imperfection is exit 1.
//
//===----------------------------------------------------------------------===//

#include "detector/FastTrackDetector.h"
#include "detector/HBDetector.h"
#include "detector/LocksetDetector.h"
#include "runtime/EventLog.h"
#include "runtime/TraceStats.h"
#include "support/Timer.h"
#include "telemetry/Metrics.h"
#include "telemetry/Timeline.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace literace;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <log.bin> [--detector hb|fasttrack|lockset] "
               "[--suppress <file>] [--stats] [--quiet] "
               "[--metrics <dir>] [--salvage] [--strict]\n"
               "--metrics writes <dir>/metrics.json and "
               "<dir>/trace.perfetto.json\n"
               "--salvage (default) recovers what it can from damaged "
               "logs; --strict fails instead\n",
               Argv0);
  return 2;
}

/// Writes \p Data to \p Path; reports on stderr.
bool writeTextFile(const std::string &Path, const std::string &Data) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return false;
  }
  bool Ok = std::fwrite(Data.data(), 1, Data.size(), File) == Data.size();
  Ok &= std::fclose(File) == 0;
  return Ok;
}

/// Reads \p Path whole; empty optional if unreadable.
std::optional<std::string> readTextFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return std::nullopt;
  std::string Data;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), File)) != 0)
    Data.append(Buf, N);
  std::fclose(File);
  return Data;
}

/// Reads a suppression file: one pc per line (hex with 0x or decimal),
/// '#' comments. Returns false on I/O failure.
bool readSuppressions(const std::string &Path, std::set<Pc> &Out) {
  std::FILE *File = std::fopen(Path.c_str(), "r");
  if (!File)
    return false;
  char Line[256];
  while (std::fgets(Line, sizeof(Line), File)) {
    char *P = Line;
    while (*P == ' ' || *P == '\t')
      ++P;
    if (*P == '#' || *P == '\n' || *P == '\0')
      continue;
    Out.insert(std::strtoull(P, nullptr, 0));
  }
  std::fclose(File);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Path = Argv[1];
  std::string Detector = "hb";
  std::string MetricsDir;
  bool Quiet = false;
  bool Stats = false;
  bool Metrics = false;
  bool Salvage = true;
  std::set<Pc> Suppressed;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--detector" && I + 1 < Argc)
      Detector = Argv[++I];
    else if (Arg == "--metrics" && I + 1 < Argc) {
      Metrics = true;
      MetricsDir = Argv[++I];
    }
    else if (Arg == "--quiet")
      Quiet = true;
    else if (Arg == "--stats")
      Stats = true;
    else if (Arg == "--salvage")
      Salvage = true;
    else if (Arg == "--strict")
      Salvage = false;
    else if (Arg == "--suppress" && I + 1 < Argc) {
      if (!readSuppressions(Argv[++I], Suppressed)) {
        std::fprintf(stderr, "error: cannot read suppressions '%s'\n",
                     Argv[I]);
        return 1;
      }
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    }
  }

  // Accept every on-disk format transparently; salvage damaged files
  // unless --strict.
  TraceReadOptions ReadOpts;
  ReadOpts.Salvage = Salvage;
  TraceReadResult Read = readTrace(Path, ReadOpts);
  if (!Read.readable()) {
    std::fprintf(stderr, "error: '%s' is not a readable literace log%s%s\n",
                 Path.c_str(), Read.Error.empty() ? "" : ": ",
                 Read.Error.c_str());
    return 1;
  }
  const Trace *T = &Read.T;
  const bool Salvaged = Read.Status == TraceReadStatus::Salvaged;
  if (Salvaged) {
    const TraceReadStats &RS = Read.Stats;
    std::fprintf(stderr,
                 "salvaged %s log: %llu segment(s) recovered, %llu "
                 "dropped, %llu event(s)%s%s%s — the report covers the "
                 "recovered subset of the execution\n",
                 traceFormatName(RS.Format),
                 static_cast<unsigned long long>(RS.SegmentsRecovered),
                 static_cast<unsigned long long>(RS.SegmentsDropped),
                 static_cast<unsigned long long>(RS.EventsRecovered),
                 RS.TruncatedTail ? ", truncated tail" : "",
                 RS.SalvagedHeader ? ", damaged file header" : "",
                 RS.CleanShutdown ? "" : ", no clean shutdown");
  }
  if (Stats)
    std::printf("%s", TraceStats::compute(*T).describe().c_str());
  std::fprintf(stderr,
               "%s: %zu threads, %zu events (%zu memory, %zu sync), "
               "%u timestamp counters\n",
               Path.c_str(), T->PerThread.size(), T->totalEvents(),
               T->memoryOps(), T->syncOps(), T->NumTimestampCounters);

  // A salvaged trace is missing sync events whose timestamps the replay
  // would otherwise wait on forever; let the scheduler skip those gaps
  // (the detectors conservatively over-order across each gap, so reported
  // races are a subset of the full-trace report — docs/ROBUSTNESS.md).
  ReplayOptions Replay;
  uint64_t TimestampGaps = 0;
  if (Salvaged) {
    Replay.AllowTimestampGaps = true;
    Replay.OutTimestampGaps = &TimestampGaps;
  }

  RaceReport Report;
  WallTimer Timer;
  bool Consistent;
  if (Detector == "hb") {
    Consistent = detectRaces(*T, Report, Replay);
  } else if (Detector == "fasttrack") {
    Consistent = detectRacesFastTrack(*T, Report, Replay);
  } else if (Detector == "lockset") {
    std::fprintf(stderr, "note: the lockset detector may report FALSE "
                         "positives (see paper §2)\n");
    Consistent = detectLocksetViolations(*T, Report, Replay);
  } else {
    std::fprintf(stderr, "error: unknown detector '%s'\n",
                 Detector.c_str());
    return usage(Argv[0]);
  }
  double Seconds = Timer.seconds();
  if (!Consistent) {
    std::fprintf(stderr, "error: log is inconsistent (missing or "
                         "duplicated sync events)\n");
    return 1;
  }
  if (TimestampGaps != 0)
    std::fprintf(stderr,
                 "replay skipped %llu timestamp gap(s) left by dropped "
                 "segments\n",
                 static_cast<unsigned long long>(TimestampGaps));

  auto [Rare, Frequent] = Report.splitRareFrequent(T->memoryOps());
  std::printf("%zu static race(s): %zu rare, %zu frequent "
              "(3-per-million-memops rule)\n",
              Report.numStaticRaces(), Rare.size(), Frequent.size());
  size_t Remaining = Report.numStaticRaces();
  if (!Suppressed.empty()) {
    Remaining = Report.staticRacesExcluding(Suppressed).size();
    std::printf("%zu after suppressions (%zu suppressed)\n", Remaining,
                Report.numStaticRaces() - Remaining);
  }
  if (!Quiet)
    std::printf("%s", Report.describe().c_str());
  std::fprintf(stderr, "analyzed in %.3fs (%.1f M events/s)\n", Seconds,
               static_cast<double>(T->totalEvents()) / 1e6 / Seconds);

  if (Metrics) {
    // Merge every plane we have: detector counters folded into the
    // process registry during the analysis above, the recording run's
    // sidecar (if literace-run left one next to the log), and
    // trace/report-derived figures.
    telemetry::MetricsSnapshot Snap;
    if (telemetry::MetricsRegistry *M = telemetry::resolveRegistry(nullptr))
      Snap = M->snapshot();
    if (auto Sidecar = readTextFile(Path + ".metrics.json")) {
      if (auto Recorded = telemetry::MetricsSnapshot::fromJson(*Sidecar))
        Snap.merge(*Recorded);
      else
        std::fprintf(stderr, "warning: ignoring malformed sidecar "
                             "'%s.metrics.json'\n",
                     Path.c_str());
    }
    Snap.setCounter("trace.events", T->totalEvents());
    Snap.setCounter("trace.memory_ops", T->memoryOps());
    Snap.setCounter("trace.sync_ops", T->syncOps());
    Snap.setGauge("trace.threads", T->PerThread.size());
    Snap.setCounter("report.static_races", Report.numStaticRaces());
    Snap.setCounter("report.analysis_us",
                    static_cast<uint64_t>(Seconds * 1e6));
    if (Salvaged) {
      Snap.setCounter("trace.segments.recovered",
                      Read.Stats.SegmentsRecovered);
      Snap.setCounter("trace.segments.dropped", Read.Stats.SegmentsDropped);
      Snap.setCounter("report.timestamp_gaps", TimestampGaps);
    }
    const std::string MetricsPath = MetricsDir + "/metrics.json";
    const std::string TracePath = MetricsDir + "/trace.perfetto.json";
    telemetry::TraceWriter Timeline = telemetry::buildTraceTimeline(*T);
    Timeline.append(telemetry::TraceRecorder::global().drainWriter());
    if (writeTextFile(MetricsPath, Snap.toJson()) &&
        writeTextFile(TracePath, Timeline.toJson()))
      std::fprintf(stderr, "wrote %s and %s (%zu timeline events)\n",
                   MetricsPath.c_str(), TracePath.c_str(),
                   Timeline.size());
  }
  return Remaining == 0 ? 0 : 3;
}
