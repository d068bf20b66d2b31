//===-- harness/Tables.cpp - Paper table/figure printers -------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/Tables.h"

#include "support/TableFormatter.h"

#include <cstdlib>

using namespace literace;

WorkloadParams literace::paramsFromEnv() {
  WorkloadParams Params;
  if (const char *Scale = std::getenv("LITERACE_SCALE"))
    Params.Scale = std::atof(Scale);
  if (const char *Seed = std::getenv("LITERACE_SEED"))
    Params.Seed = std::strtoull(Seed, nullptr, 10);
  return Params;
}

unsigned literace::repeatsFromEnv(unsigned Default) {
  if (const char *Repeats = std::getenv("LITERACE_REPEATS"))
    return static_cast<unsigned>(std::atoi(Repeats));
  return Default;
}

void literace::printTable2(const std::vector<DetectionResult> &Results) {
  TableFormatter Table("Table 2: Benchmarks used");
  Table.addRow({"Benchmark", "#Fns", "#Threads", "Mem ops", "Sync ops",
                "Seeded races"});
  for (const DetectionResult &R : Results)
    Table.addRow({R.Benchmark, std::to_string(R.NumFunctions),
                  std::to_string(R.NumThreads), std::to_string(R.MemOps),
                  std::to_string(R.SyncOps), std::to_string(R.SeededTotal)});
  Table.print();
}

namespace {

/// Computes (plain average, memop-weighted average) ESR per sampler.
std::pair<std::vector<double>, std::vector<double>>
averageEsr(const std::vector<DetectionResult> &Results) {
  if (Results.empty())
    return {};
  size_t NumSamplers = Results.front().Samplers.size();
  std::vector<double> Avg(NumSamplers, 0.0), Weighted(NumSamplers, 0.0);
  double TotalMemOps = 0.0;
  for (const DetectionResult &R : Results)
    TotalMemOps += static_cast<double>(R.MemOps);
  for (const DetectionResult &R : Results)
    for (size_t Slot = 0; Slot != NumSamplers; ++Slot) {
      Avg[Slot] += R.Samplers[Slot].EffectiveSamplingRate /
                   static_cast<double>(Results.size());
      Weighted[Slot] += R.Samplers[Slot].EffectiveSamplingRate *
                        static_cast<double>(R.MemOps) / TotalMemOps;
    }
  return {Avg, Weighted};
}

} // namespace

void literace::printTable3(const std::vector<DetectionResult> &Results) {
  auto [Avg, Weighted] = averageEsr(Results);
  TableFormatter Table("Table 3: Samplers evaluated (effective sampling "
                       "rates over the benchmark suite)");
  Table.addRow({"Sampler", "Description", "Weighted Avg ESR", "Avg ESR"});
  if (!Results.empty()) {
    const DetectionResult &First = Results.front();
    for (size_t Slot = 0; Slot != First.Samplers.size(); ++Slot)
      Table.addRow({First.Samplers[Slot].ShortName,
                    First.Samplers[Slot].Description,
                    TableFormatter::percent(Weighted[Slot]),
                    TableFormatter::percent(Avg[Slot])});
  }
  Table.print();
}

void literace::printFigure4(const std::vector<DetectionResult> &Results) {
  TableFormatter Table("Figure 4: Proportion of static data races found by "
                       "various samplers");
  if (Results.empty()) {
    Table.print();
    return;
  }
  std::vector<std::string> Header = {"Benchmark"};
  for (const SamplerOutcome &S : Results.front().Samplers)
    Header.push_back(S.ShortName);
  Table.addRow(Header);
  for (const DetectionResult &R : Results) {
    std::vector<std::string> Row = {R.Benchmark};
    for (const SamplerOutcome &S : R.Samplers)
      Row.push_back(TableFormatter::percent(S.DetectionRate));
    Table.addRow(Row);
  }
  Table.addSeparator();
  // Average detection-rate row, then the weighted-average ESR group shown
  // at the right of the paper's figure.
  std::vector<std::string> AvgRow = {"Average"};
  size_t NumSamplers = Results.front().Samplers.size();
  for (size_t Slot = 0; Slot != NumSamplers; ++Slot) {
    double Sum = 0.0;
    for (const DetectionResult &R : Results)
      Sum += R.Samplers[Slot].DetectionRate;
    AvgRow.push_back(
        TableFormatter::percent(Sum / static_cast<double>(Results.size())));
  }
  Table.addRow(AvgRow);
  auto [Avg, Weighted] = averageEsr(Results);
  (void)Avg;
  std::vector<std::string> EsrRow = {"Weighted Avg Eff Sampling Rate"};
  for (size_t Slot = 0; Slot != NumSamplers; ++Slot)
    EsrRow.push_back(TableFormatter::percent(Weighted[Slot]));
  Table.addRow(EsrRow);
  Table.print();
}

void literace::printFigure5(const std::vector<DetectionResult> &Results) {
  for (bool Rare : {true, false}) {
    TableFormatter Table(Rare ? "Figure 5 (left): Rare data race "
                                "detection rate"
                              : "Figure 5 (right): Frequent data race "
                                "detection rate");
    if (Results.empty()) {
      Table.print();
      continue;
    }
    std::vector<std::string> Header = {"Benchmark"};
    for (const SamplerOutcome &S : Results.front().Samplers)
      Header.push_back(S.ShortName);
    Table.addRow(Header);
    size_t NumSamplers = Results.front().Samplers.size();
    std::vector<double> Sums(NumSamplers, 0.0);
    for (const DetectionResult &R : Results) {
      std::vector<std::string> Row = {R.Benchmark};
      for (size_t Slot = 0; Slot != NumSamplers; ++Slot) {
        double Rate = Rare ? R.Samplers[Slot].RareDetectionRate
                           : R.Samplers[Slot].FrequentDetectionRate;
        Sums[Slot] += Rate;
        Row.push_back(TableFormatter::percent(Rate));
      }
      Table.addRow(Row);
    }
    Table.addSeparator();
    std::vector<std::string> AvgRow = {"Average"};
    for (size_t Slot = 0; Slot != NumSamplers; ++Slot)
      AvgRow.push_back(TableFormatter::percent(
          Sums[Slot] / static_cast<double>(Results.size())));
    Table.addRow(AvgRow);
    Table.print();
    std::printf("\n");
  }
}

void literace::printTable4(const std::vector<DetectionResult> &Results) {
  TableFormatter Table("Table 4: Static data races found per benchmark "
                       "(full logging; median over runs)");
  Table.addRow({"Benchmark", "# races found", "#Rare", "#Freq",
                "Seeded found", "No false positives"});
  for (const DetectionResult &R : Results)
    Table.addRow({R.Benchmark, std::to_string(R.StaticTotal),
                  std::to_string(R.RareTotal),
                  std::to_string(R.FrequentTotal),
                  std::to_string(R.SeededDetected) + "/" +
                      std::to_string(R.SeededTotal),
                  R.AllDetectedWithinSeededSites ? "yes" : "NO"});
  Table.print();
}

void literace::printTable5(const std::vector<OverheadRow> &Rows) {
  TableFormatter Table("Table 5: Performance and log-size overhead, "
                       "LiteRace vs full logging");
  Table.addRow({"Benchmark", "Baseline", "LiteRace", "Full Logging",
                "LiteRace Log (MB/s)", "Full Log (MB/s)"});
  double SumBase = 0.0, SumLr = 0.0, SumFull = 0.0, SumLrMb = 0.0,
         SumFullMb = 0.0;
  double SumBaseApp = 0.0, SumLrApp = 0.0, SumFullApp = 0.0;
  size_t NumApp = 0;
  for (const OverheadRow &Row : Rows) {
    Table.addRow({Row.Benchmark,
                  TableFormatter::num(Row.BaselineSec, 3) + "s",
                  TableFormatter::times(Row.liteRaceSlowdown()),
                  TableFormatter::times(Row.fullLoggingSlowdown()),
                  TableFormatter::num(Row.liteRaceLogMBps()),
                  TableFormatter::num(Row.fullLogMBps())});
    SumBase += Row.BaselineSec;
    SumLr += Row.liteRaceSlowdown();
    SumFull += Row.fullLoggingSlowdown();
    SumLrMb += Row.liteRaceLogMBps();
    SumFullMb += Row.fullLogMBps();
    bool IsMicro =
        Row.Benchmark == "LKRHash" || Row.Benchmark == "LFList";
    if (!IsMicro) {
      SumBaseApp += Row.BaselineSec;
      SumLrApp += Row.liteRaceSlowdown();
      SumFullApp += Row.fullLoggingSlowdown();
      ++NumApp;
    }
  }
  if (!Rows.empty()) {
    double N = static_cast<double>(Rows.size());
    Table.addSeparator();
    Table.addRow({"Average", TableFormatter::num(SumBase / N, 3) + "s",
                  TableFormatter::times(SumLr / N),
                  TableFormatter::times(SumFull / N),
                  TableFormatter::num(SumLrMb / N),
                  TableFormatter::num(SumFullMb / N)});
    if (NumApp) {
      double M = static_cast<double>(NumApp);
      Table.addRow({"Average (w/o Microbench)",
                    TableFormatter::num(SumBaseApp / M, 3) + "s",
                    TableFormatter::times(SumLrApp / M),
                    TableFormatter::times(SumFullApp / M), "", ""});
    }
  }
  Table.print();
}

void literace::printFigure6(const std::vector<OverheadRow> &Rows) {
  TableFormatter Table("Figure 6: LiteRace slowdown over the "
                       "uninstrumented application, by component "
                       "(cumulative ratios)");
  Table.addRow({"Benchmark", "Baseline", "+Dispatch", "+Sync Logging",
                "+Memory Logging (LiteRace)"});
  for (const OverheadRow &Row : Rows) {
    double Base = Row.BaselineSec;
    Table.addRow({Row.Benchmark, TableFormatter::times(1.0),
                  TableFormatter::times(Row.DispatchOnlySec / Base),
                  TableFormatter::times(Row.SyncLoggingSec / Base),
                  TableFormatter::times(Row.LiteRaceSec / Base)});
  }
  Table.print();
}
