//===-- pipebench/src/Pipeline.h - The pipeline benchmark -------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark for the whole LiteRace pipeline: an instrumented run
/// records a v2 trace (runtime layer: Workload::run under a Runtime, the
/// LogSink::writeChunk sink, the readTrace / SegmentStreamDecoder codec),
/// the trace is analyzed (detector layer: replayTraceWith,
/// ReplayScheduler, HBDetector / detectRaces) and collected (collector
/// layer: CollectorServer and ReportTriage). Every verdict is checked
/// against the program's seeded-race manifest and against batch
/// detection of the same bytes.
///
/// Workloads, each generated from one process and staying within four
/// instrumented threads and connections:
///
///  - executor-sampled: TaskExecutor (work-stealing executor, 5 seeded
///    race families) recorded in RunMode::LiteRace, then analyzed in
///    batch. This is the paper's deployed configuration on a sync-dense
///    program. The work falls on the runtime's sync logging, on decode,
///    on replay ordering by timestamp counters, and on HB vector-clock
///    joins. Shadow memory and memory-run batching do almost nothing.
///  - render-full: browser-render (Firefox Render analogue, 7 seeded
///    families) recorded in RunMode::FullLogging and analyzed in batch.
///    Almost every event is a memory access. The work falls on sink
///    bandwidth, on decode, and on the HB memory path (shadow map, long
///    memory runs). Replay ordering and vector-clock joins do almost
///    nothing. The program stops growing above scale 4, so runs are
///    lengthened by repeating operations, not by raising the scale.
///  - live-collect: two clients run a closed loop against an in-process
///    CollectorServer over AF_UNIX. Each client streams one session (the
///    v2 bytes of an executor-sampled trace recorded during set-up),
///    waits for that session's verdict, thinks for a seeded share (0 to
///    one half) of its last session's time, then sends the next. This
///    path uses the detector incrementally: SegmentStreamDecoder on the
///    reader threads, then MpscChunkQueue, ReplayScheduler and per-chunk
///    triage publishing on one detection thread. Both batch workloads
///    bypass it.
///
/// Every workload prints every metric. A batch operation is the full
/// record -> analyze -> collect pipeline: its collect stage streams the
/// recorded file as one session. live-collect cuts its run into six
/// rounds and spends the last quarter of each on batch operations of the
/// session program, whose figures give its batch metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_PIPELINE_H
#define PIPEBENCH_PIPELINE_H

#include "Host.h"
#include "Spans.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pipebench {

enum class WorkloadId { ExecutorSampled, RenderFull, LiveCollect };

const char *workloadName(WorkloadId W);
std::optional<WorkloadId> workloadByName(const std::string &Name);

struct BenchOptions {
  WorkloadId Workload = WorkloadId::ExecutorSampled;
  /// Feeds WorkloadParams.Seed and RuntimeConfig.Seed (per operation, a
  /// seeded derivation of it).
  uint64_t Seed = 1;
  /// Length of the measured loop.
  double Seconds = 10.0;
  /// The traced run: spans, the timed sink decorator and the per-layer
  /// probes; reports per-layer metrics instead of end-to-end ones.
  bool Trace = false;
  /// Directory for trace files, the socket and the span timeline.
  std::string WorkDir = ".bench_build/pipebench-work";
  /// Multiplies every program scale (self-tests shrink the programs).
  double ScaleFactor = 1.0;
  /// Test hook: flip one byte in the middle of every trace a measured
  /// operation records, before it is analyzed.
  bool CorruptTraces = false;
};

/// A metric name and unit, as BENCHMARK.json declares it.
struct MetricDecl {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics every untraced run prints, in order.
const std::vector<MetricDecl> &endToEndMetrics();
/// The per-layer metrics every traced run prints, in order.
const std::vector<MetricDecl> &perLayerMetrics();

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
};

struct BenchResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  HostInfo Host;
  /// Percentile verdict_lag_tail_ms was read at, and its sample count.
  double LagTailPercentile = 50.0;
  size_t LagSamples = 0;
  /// Why the result is not correct (one line per failed check).
  std::vector<std::string> Errors;
  /// Where the span timeline was written (traced runs).
  std::string TimelinePath;
  /// Traced runs: for each traced operation, the share of its wall time
  /// its child spans cover.
  std::vector<double> OpSpanCoverage;
};

/// Runs one workload for Options.Seconds and gathers its metrics.
BenchResult runBenchmark(const BenchOptions &Options);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string resultJson(const BenchResult &R);

} // namespace pipebench

#endif // PIPEBENCH_PIPELINE_H
