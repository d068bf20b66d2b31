//===-- pipebench/src/Stats.h - Order statistics and process probes -------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small helpers shared by the pipeline benchmark: medians and
/// percentiles over samples, the tail-percentile rule (the highest
/// percentile with at least ten samples beyond it), process peak RSS, and
/// file sizes taken from disk.
///
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_STATS_H
#define PIPEBENCH_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace pipebench {

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

/// Linear-interpolated percentile \p P in [0, 100] of \p V (0 when empty).
double percentile(std::vector<double> V, double P);

/// A tail summary: the percentile chosen and its value.
struct Tail {
  double Percentile = 50.0;
  double Value = 0.0;
};

/// The highest percentile that leaves ten of \p V's samples beyond it,
/// 100 * (1 - 10 / n) for n samples, and its value. It moves smoothly with
/// n: a fixed ladder of percentiles would jump from one rung to the next
/// when a slower or faster run collects a few samples fewer or more. With
/// fewer than 20 samples it is the median (Percentile = 50), so a tail is
/// never read from a handful of samples.
Tail tailPercentile(const std::vector<double> &V);

/// Peak resident set size of this process in MB (VmHWM), 0 if unknown.
double peakRssMb();

/// Size of \p Path on disk in bytes, 0 if it cannot be stat'ed.
uint64_t fileSizeOnDisk(const std::string &Path);

/// Reads the whole file \p Path; empty on failure.
std::vector<uint8_t> readFileBytes(const std::string &Path);

} // namespace pipebench

#endif // PIPEBENCH_STATS_H
