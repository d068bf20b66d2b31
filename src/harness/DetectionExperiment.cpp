//===-- harness/DetectionExperiment.cpp - §5.3 methodology ----------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/DetectionExperiment.h"

#include "detector/HBDetector.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace literace;

ExperimentRun literace::executeExperiment(Workload &W,
                                          const WorkloadParams &Params,
                                          telemetry::MetricsRegistry *Metrics) {
  MemorySink Sink(/*NumTimestampCounters=*/128);
  RuntimeConfig Config;
  Config.Mode = RunMode::Experiment;
  Config.Seed = Params.Seed;
  Config.Metrics = Metrics;
  Runtime RT(Config, &Sink);
  RT.addStandardSamplers();
  W.bind(RT);
  W.run(RT, Params);

  ExperimentRun Run;
  Run.TraceData = Sink.takeTrace();
  Run.Stats = RT.stats();
  Run.NumFunctions = RT.registry().size();
  Run.NumThreads = RT.numThreads();
  Run.Metrics = RT.metricsSnapshot();
  for (unsigned Slot = 0; Slot != RT.numSamplers(); ++Slot) {
    Run.SamplerNames.push_back(RT.sampler(Slot).shortName());
    Run.SamplerDescriptions.push_back(RT.sampler(Slot).description());
  }
  return Run;
}

std::pair<size_t, bool> literace::validateAgainstManifest(
    const RaceReport &Report, const std::vector<SeededRaceSpec> &Manifest) {
  std::vector<StaticRace> Races = Report.staticRaces();

  size_t FamiliesDetected = 0;
  for (const SeededRaceSpec &Spec : Manifest) {
    std::set<Pc> Sites(Spec.Sites.begin(), Spec.Sites.end());
    bool Found = false;
    for (const StaticRace &Race : Races)
      if (Sites.count(Race.Key.first) && Sites.count(Race.Key.second)) {
        Found = true;
        break;
      }
    FamiliesDetected += Found ? 1 : 0;
  }

  bool AllWithin = true;
  for (const StaticRace &Race : Races) {
    bool Within = false;
    for (const SeededRaceSpec &Spec : Manifest) {
      std::set<Pc> Sites(Spec.Sites.begin(), Spec.Sites.end());
      if (Sites.count(Race.Key.first) && Sites.count(Race.Key.second)) {
        Within = true;
        break;
      }
    }
    if (!Within) {
      AllWithin = false;
      break;
    }
  }
  return {FamiliesDetected, AllWithin};
}

namespace {

/// Counts how many of \p Found are present in \p Reference.
size_t countIn(const std::set<StaticRaceKey> &Found,
               const std::set<StaticRaceKey> &Reference) {
  size_t N = 0;
  for (const StaticRaceKey &Key : Found)
    if (Reference.count(Key))
      ++N;
  return N;
}

size_t medianOf(std::vector<size_t> Values) {
  assert(!Values.empty());
  std::sort(Values.begin(), Values.end());
  return Values[Values.size() / 2];
}

} // namespace

DetectionResult literace::runDetectionExperiment(WorkloadKind Kind,
                                                 const WorkloadParams &Params,
                                                 unsigned Repeats) {
  assert(Repeats >= 1 && "need at least one run");
  DetectionResult Result;

  std::vector<size_t> StaticPerRun, RarePerRun, FreqPerRun;
  std::vector<std::vector<double>> RatePerSampler, RareRatePerSampler,
      FreqRatePerSampler, EsrPerSampler;

  for (unsigned Rep = 0; Rep != Repeats; ++Rep) {
    std::unique_ptr<Workload> W = makeWorkload(Kind);
    WorkloadParams RepParams = Params;
    RepParams.Seed = Params.Seed + 7919 * Rep;
    ExperimentRun Run = executeExperiment(*W, RepParams);

    if (Rep == 0) {
      Result.Benchmark = W->name();
      Result.NumFunctions = Run.NumFunctions;
      Result.NumThreads = Run.NumThreads;
      Result.MemOps = Run.Stats.MemOpsLogged;
      Result.SyncOps = Run.Stats.SyncOps;
      Result.Samplers.resize(Run.SamplerNames.size());
      RatePerSampler.resize(Run.SamplerNames.size());
      RareRatePerSampler.resize(Run.SamplerNames.size());
      FreqRatePerSampler.resize(Run.SamplerNames.size());
      EsrPerSampler.resize(Run.SamplerNames.size());
      for (size_t Slot = 0; Slot != Run.SamplerNames.size(); ++Slot) {
        Result.Samplers[Slot].ShortName = Run.SamplerNames[Slot];
        Result.Samplers[Slot].Description = Run.SamplerDescriptions[Slot];
      }
    }

    // Full-log detection: the ground truth of this execution.
    RaceReport Full;
    Result.LogConsistent &= detectRaces(Run.TraceData, Full);
    const uint64_t MemOps = Run.Stats.MemOpsLogged;
    auto [RareKeys, FreqKeys] = Full.splitRareFrequent(MemOps);
    StaticPerRun.push_back(Full.numStaticRaces());
    RarePerRun.push_back(RareKeys.size());
    FreqPerRun.push_back(FreqKeys.size());

    // Ground-truth validation against the seeded manifest.
    auto [Detected, AllWithin] =
        validateAgainstManifest(Full, W->seededRaces());
    Result.SeededTotal = W->seededRaces().size();
    if (Rep == 0)
      Result.SeededDetected = Detected;
    else
      Result.SeededDetected = std::min(Result.SeededDetected, Detected);
    Result.AllDetectedWithinSeededSites &= AllWithin;

    // Per-sampler detection over the same interleaving.
    std::set<StaticRaceKey> FullKeys = Full.keys();
    for (size_t Slot = 0; Slot != Result.Samplers.size(); ++Slot) {
      RaceReport Sampled;
      ReplayOptions Options;
      Options.SamplerSlot = static_cast<int>(Slot);
      Result.LogConsistent &= detectRaces(Run.TraceData, Sampled, Options);
      std::set<StaticRaceKey> Keys = Sampled.keys();

      double Rate = FullKeys.empty()
                        ? 1.0
                        : static_cast<double>(countIn(Keys, FullKeys)) /
                              static_cast<double>(FullKeys.size());
      double RareRate =
          RareKeys.empty()
              ? 1.0
              : static_cast<double>(countIn(Keys, RareKeys)) /
                    static_cast<double>(RareKeys.size());
      double FreqRate =
          FreqKeys.empty()
              ? 1.0
              : static_cast<double>(countIn(Keys, FreqKeys)) /
                    static_cast<double>(FreqKeys.size());
      RatePerSampler[Slot].push_back(Rate);
      RareRatePerSampler[Slot].push_back(RareRate);
      FreqRatePerSampler[Slot].push_back(FreqRate);
      EsrPerSampler[Slot].push_back(
          Run.Stats.effectiveSamplingRate(static_cast<unsigned>(Slot)));
    }
  }

  Result.StaticTotal = medianOf(StaticPerRun);
  Result.RareTotal = medianOf(RarePerRun);
  Result.FrequentTotal = medianOf(FreqPerRun);

  auto Average = [](const std::vector<double> &V) {
    double Sum = 0.0;
    for (double X : V)
      Sum += X;
    return V.empty() ? 0.0 : Sum / static_cast<double>(V.size());
  };
  for (size_t Slot = 0; Slot != Result.Samplers.size(); ++Slot) {
    SamplerOutcome &Out = Result.Samplers[Slot];
    Out.DetectionRate = Average(RatePerSampler[Slot]);
    Out.RareDetectionRate = Average(RareRatePerSampler[Slot]);
    Out.FrequentDetectionRate = Average(FreqRatePerSampler[Slot]);
    Out.EffectiveSamplingRate = Average(EsrPerSampler[Slot]);
    Out.StaticFound = static_cast<size_t>(
        Out.DetectionRate * static_cast<double>(Result.StaticTotal) + 0.5);
    Out.RareFound = static_cast<size_t>(
        Out.RareDetectionRate * static_cast<double>(Result.RareTotal) + 0.5);
    Out.FrequentFound = static_cast<size_t>(
        Out.FrequentDetectionRate * static_cast<double>(Result.FrequentTotal) +
        0.5);
  }
  return Result;
}
