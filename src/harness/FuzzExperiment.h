//===-- harness/FuzzExperiment.h - Schedule-fuzz sweeps --------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The schedule-perturbation fuzz harness: run a workload under the
/// deterministic ScheduleEngine across many seeds, and for every seed
///
///  - detect races on the full log (the ground truth of that schedule),
///  - replay each standard sampler's filtered view (per-sampler recall),
///  - check every seeded-race family against the workload manifest,
///  - cross-check detector backends (FastTrack's racy addresses must
///    match the HB detector's), and
///  - record the canonical trace digest (fuzz/TraceCanon), so a failing
///    seed is replayable bit-for-bit with `literace-fuzz --seed`.
///
/// The sweep aggregates per-family × per-sampler recall (on how many
/// seeds did the family manifest in the full log, and on how many did
/// each sampler still catch it) — the fuzz analogue of the §5.3 detection
/// tables, with schedule diversity instead of repeat runs.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_HARNESS_FUZZEXPERIMENT_H
#define LITERACE_HARNESS_FUZZEXPERIMENT_H

#include "detector/RaceReport.h"
#include "fuzz/ScheduleEngine.h"
#include "runtime/EventLog.h"
#include "runtime/Runtime.h"
#include "workloads/Workload.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace literace {

/// Knobs of one fuzz sweep.
struct FuzzSweepOptions {
  /// Seeds FirstSeed .. FirstSeed+NumSeeds-1 are run.
  uint64_t FirstSeed = 1;
  unsigned NumSeeds = 10;
  /// Workload scale; fuzz runs favour many small schedules over one big
  /// one, so the default is far below the paper-shaped 1.0.
  double Scale = 0.02;
  /// Perturbation policy. The Seed field is overwritten per run.
  PerturbOptions Perturb;
  /// Also replay every trace through the FastTrack backend and require
  /// agreement with the HB detector.
  bool CrossCheckBackends = true;
};

/// Raw artifacts of one fuzzed Experiment-mode execution.
struct FuzzRunArtifacts {
  Trace TraceData;
  RuntimeStats Stats;
  PerturbStats Schedule;
  /// CRC32C of the canonicalized trace; equal digests mean the schedule
  /// (and thus every detector outcome) was reproduced exactly.
  uint32_t CanonicalDigest = 0;
  std::vector<std::string> SamplerNames;
};

/// Executes \p W (fresh, unbound) once in Experiment mode under a
/// ScheduleEngine seeded from \p Perturb.
FuzzRunArtifacts executeFuzzRun(Workload &W, const WorkloadParams &Params,
                                const PerturbOptions &Perturb);

/// Sweep-level recall of one seeded-race family.
struct FuzzFamilyRecall {
  std::string Label;
  bool ExpectFrequent = false;
  /// Seeds on which the full-log detector reported a pair inside the
  /// family's site set.
  unsigned SeedsManifested = 0;
  /// Of those, how many each sampler slot still caught.
  std::vector<unsigned> SeedsCaughtBySampler;
};

/// Outcome of one seed.
struct FuzzSeedOutcome {
  uint64_t Seed = 0;
  uint32_t CanonicalDigest = 0;
  size_t StaticRaces = 0;
  size_t FamiliesDetected = 0;
  bool AllWithinSeededSites = true;
  bool BackendsAgree = true;
  bool LogConsistent = true;
  uint64_t MemOps = 0;
  PerturbStats Schedule;
};

/// Aggregated result of one sweep.
struct FuzzResult {
  std::string Benchmark;
  std::string WorkloadCliName;
  FuzzSweepOptions Options;
  std::vector<std::string> SamplerNames;
  /// Averaged effective sampling rate per slot across all seeds.
  std::vector<double> SamplerEffectiveRates;
  std::vector<FuzzFamilyRecall> Families;
  std::vector<FuzzSeedOutcome> Seeds;
  bool AllLogsConsistent = true;
  bool AllWithinSeededSites = true;
  bool AllBackendsAgree = true;

  /// Fraction of manifesting seeds sampler \p Slot caught for family
  /// \p Family; 1.0 when the family never manifested.
  double recall(size_t Family, size_t Slot) const;
  /// Repro candidates: seeds whose full log detected fewer families than
  /// the sweep-wide maximum, ordered weakest first.
  std::vector<uint64_t> weakestSeeds(size_t MaxCount = 5) const;
};

/// Runs the sweep for one workload kind.
FuzzResult runFuzzSweep(WorkloadKind Kind, const FuzzSweepOptions &Opts);

/// Result of replaying one seed twice (fresh workload + engine each time).
struct FuzzDeterminismCheck {
  bool Identical = false;
  uint32_t DigestA = 0;
  uint32_t DigestB = 0;
  size_t RacesA = 0;
  size_t RacesB = 0;
};

/// Same seed ⇒ byte-identical canonical trace and identical race report.
FuzzDeterminismCheck checkFuzzDeterminism(WorkloadKind Kind, uint64_t Seed,
                                          const FuzzSweepOptions &Opts);

/// Renders the recall table (families × samplers) plus per-seed rows.
void printFuzzResult(const FuzzResult &R);

/// Writes the sweep result as a JSON document.
void writeFuzzJson(const FuzzResult &R, std::ostream &OS);

} // namespace literace

#endif // LITERACE_HARNESS_FUZZEXPERIMENT_H
