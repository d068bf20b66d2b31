//===-- pipebench/src/selftest.cpp - The benchmark's own tests ------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Run from the root of a checkout (BENCHMARK.json is read from there):
//   python3 pipebench/run.py --selftest
//
// The programs are shrunk (BenchOptions::ScaleFactor) and runs last about a
// second, so these check behaviour, not speed.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"
#include "Spans.h"
#include "Stats.h"

#include "telemetry/Json.h"
#include "telemetry/Timeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace pipebench;
using literace::telemetry::JsonValue;
using literace::telemetry::parseJson;

namespace {

std::string WorkDir = ".bench_build/pipebench-selftest";

/// Share of an operation's wall time its child spans must cover.
constexpr double SpanCoverageTolerance = 0.05;

BenchOptions tinyRun(WorkloadId W, bool Trace) {
  BenchOptions O;
  O.Workload = W;
  O.Seed = 7;
  O.Seconds = 0.5;
  O.Trace = Trace;
  O.WorkDir = WorkDir;
  O.ScaleFactor = 0.05;
  return O;
}

std::string readText(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

const WorkloadId AllWorkloads[] = {WorkloadId::ExecutorSampled,
                                   WorkloadId::RenderFull,
                                   WorkloadId::LiveCollect};

TEST(PipelineBench, FlippedTraceByteFailsTheOperation) {
  // Control: the same run with intact traces passes every check.
  const BenchResult Clean = runBenchmark(tinyRun(WorkloadId::ExecutorSampled,
                                                 false));
  EXPECT_TRUE(Clean.Correct);
  EXPECT_EQ(Clean.Failed, 0u);

  BenchOptions O = tinyRun(WorkloadId::ExecutorSampled, false);
  O.CorruptTraces = true;
  const BenchResult R = runBenchmark(O);
  EXPECT_FALSE(R.Correct);
  ASSERT_GT(R.Attempted, 0u);
  EXPECT_EQ(R.Failed, R.Attempted);
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors.front().find("readTrace was not Ok"), std::string::npos)
      << R.Errors.front();
  // Nothing is measured from a failed operation.
  for (const Metric &M : R.Metrics)
    if (M.Name == "analyze_s" || M.Name == "live_events_per_s") {
      EXPECT_EQ(M.Value, 0.0) << M.Name;
    }
  const auto Line = parseJson(resultJson(R));
  ASSERT_TRUE(Line);
  EXPECT_FALSE(Line->find("correct")->BoolValue);
}

/// Checks \p R's metrics against \p Decls and BENCHMARK.json's \p Key list.
void expectMetricsMatch(const BenchResult &R,
                        const std::vector<MetricDecl> &Decls,
                        const JsonValue &Declared) {
  ASSERT_EQ(R.Metrics.size(), Decls.size());
  ASSERT_TRUE(Declared.isArray());
  ASSERT_EQ(Declared.Array.size(), Decls.size());
  const auto Line = parseJson(resultJson(R));
  ASSERT_TRUE(Line);
  const JsonValue *Metrics = Line->find("metrics");
  ASSERT_TRUE(Metrics && Metrics->isObject());
  for (size_t I = 0; I != Decls.size(); ++I) {
    EXPECT_EQ(R.Metrics[I].Name, Decls[I].Name);
    EXPECT_FALSE(R.Metrics[I].Unit.empty()) << Decls[I].Name;
    const JsonValue *Entry = Metrics->find(Decls[I].Name);
    ASSERT_TRUE(Entry) << Decls[I].Name;
    ASSERT_TRUE(Entry->find("value") && Entry->find("value")->isNumber());
    ASSERT_TRUE(Entry->find("unit"));
    EXPECT_EQ(Entry->find("unit")->Str, Decls[I].Unit);
    const JsonValue &D = Declared.Array[I];
    EXPECT_EQ(D.find("name")->Str, Decls[I].Name);
    EXPECT_EQ(D.find("unit")->Str, Decls[I].Unit);
  }
}

TEST(PipelineBench, EveryMetricPrintsWithItsUnit) {
  const auto Bench = parseJson(readText("BENCHMARK.json"));
  ASSERT_TRUE(Bench) << "run from the checkout root";
  for (WorkloadId W : AllWorkloads) {
    SCOPED_TRACE(workloadName(W));
    const BenchResult E2E = runBenchmark(tinyRun(W, false));
    EXPECT_TRUE(E2E.Correct);
    for (const std::string &E : E2E.Errors)
      ADD_FAILURE() << E;
    expectMetricsMatch(E2E, endToEndMetrics(), *Bench->find("end_to_end"));
    const BenchResult Layers = runBenchmark(tinyRun(W, true));
    EXPECT_TRUE(Layers.Correct);
    for (const std::string &E : Layers.Errors)
      ADD_FAILURE() << E;
    expectMetricsMatch(Layers, perLayerMetrics(), *Bench->find("per_layer"));
  }
}

TEST(PipelineBench, OperationSpansCoverWallTime) {
  for (WorkloadId W : AllWorkloads) {
    SCOPED_TRACE(workloadName(W));
    BenchOptions O = tinyRun(W, true);
    O.Seconds = 1.0;
    const BenchResult R = runBenchmark(O);
    EXPECT_TRUE(R.Correct);
    ASSERT_FALSE(R.OpSpanCoverage.empty());
    double Least = 1.0;
    for (double Covered : R.OpSpanCoverage)
      Least = std::min(Least, Covered);
    EXPECT_GE(Least, 1.0 - SpanCoverageTolerance);
    std::printf("%s: %zu operations, child spans cover >= %.4f of each\n",
                workloadName(W), R.OpSpanCoverage.size(), Least);
    std::string Error;
    EXPECT_TRUE(literace::telemetry::validateChromeTraceJson(
        readText(R.TimelinePath), &Error))
        << Error;
  }
}

TEST(Stats, TailPercentileLeavesTenSamplesBeyond) {
  std::vector<double> V;
  for (int I = 1; I <= 19; ++I)
    V.push_back(I);
  EXPECT_EQ(tailPercentile(V).Percentile, 50.0); // too few for any tail
  V.push_back(20);
  EXPECT_EQ(tailPercentile(V).Percentile, 50.0);
  for (int I = 21; I <= 100; ++I)
    V.push_back(I);
  const Tail T = tailPercentile(V);
  EXPECT_EQ(T.Percentile, 90.0);
  EXPECT_NEAR(T.Value, 90.1, 1e-9);
  for (int I = 101; I <= 150; ++I)
    V.push_back(I);
  const Tail U = tailPercentile(V); // between rungs of any fixed ladder
  EXPECT_NEAR(U.Percentile, 100.0 - 1000.0 / 150.0, 1e-9);
  EXPECT_EQ(std::count_if(V.begin(), V.end(),
                          [&](double X) { return X > U.Value; }),
            10);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanRecorder R(true);
  const SpanId P = R.add("parent", 100, 200, NoSpan, 1);
  R.add("child", 110, 150, P, 1, 1);
  R.add("child", 140, 160, P, 1, 2); // overlaps the first
  R.add("child", 190, 250, P, 1, 3); // clipped to the parent
  R.add("other", 0, 1000, NoSpan, 2);
  EXPECT_EQ(R.childCoverageNs(P), 50u + 10u);
  EXPECT_EQ(R.selfNsOf(P), 40u);
  EXPECT_EQ(R.totalNs("child"), 40u + 20u + 60u);

  SpanRecorder Off(false);
  EXPECT_EQ(Off.add("x", 0, 1, NoSpan, 0), NoSpan);
  EXPECT_TRUE(Off.spans().empty());
}

} // namespace

int main(int Argc, char **Argv) {
  ::testing::InitGoogleTest(&Argc, Argv);
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], "--workdir") == 0)
      WorkDir = std::string(Argv[I + 1]) + "/selftest";
  return RUN_ALL_TESTS();
}
