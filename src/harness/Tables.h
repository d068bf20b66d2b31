//===-- harness/Tables.h - Paper table/figure printers ---------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders the rows of every table and figure in the paper's evaluation
/// section from experiment results. One printer per artifact; the bench
/// binaries call these after running the experiments.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_HARNESS_TABLES_H
#define LITERACE_HARNESS_TABLES_H

#include "harness/DetectionExperiment.h"
#include "harness/OverheadExperiment.h"

#include <vector>

namespace literace {

/// Table 2: benchmark inventory (#functions, threads, event volumes).
void printTable2(const std::vector<DetectionResult> &Results);

/// Table 3: sampler descriptions with average and weighted-average
/// effective sampling rates over the benchmark suite.
void printTable3(const std::vector<DetectionResult> &Results);

/// Figure 4: proportion of static data races found by each sampler per
/// benchmark, plus the weighted-average ESR group.
void printFigure4(const std::vector<DetectionResult> &Results);

/// Figure 5: rare (left) and frequent (right) detection rates.
void printFigure5(const std::vector<DetectionResult> &Results);

/// Table 4: static races found per benchmark, rare/frequent split.
void printTable4(const std::vector<DetectionResult> &Results);

/// Table 5: slowdowns and log rates, LiteRace vs full logging.
void printTable5(const std::vector<OverheadRow> &Rows);

/// Figure 6: stacked instrumentation-component overhead per benchmark.
void printFigure6(const std::vector<OverheadRow> &Rows);

/// Reads LITERACE_SCALE / LITERACE_REPEATS / LITERACE_SEED from the
/// environment into workload parameters (used by every bench binary so
/// runs can be resized without recompiling).
WorkloadParams paramsFromEnv();
unsigned repeatsFromEnv(unsigned Default = 1);

} // namespace literace

#endif // LITERACE_HARNESS_TABLES_H
