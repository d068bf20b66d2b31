//===-- pipebench/src/Host.h - Host block of a result -----------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every result records the host it came from: core count, CPU model,
/// build type, the vector-clock SIMD level and LITERACE_NATIVE, plus a
/// calibration figure measured in the same run — a streaming pass over
/// the same trace bytes the pipeline analyzed — so results from different
/// hosts can be compared as ratios to it.
///
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_HOST_H
#define PIPEBENCH_HOST_H

#include <cstdint>
#include <string>
#include <vector>

namespace pipebench {

struct HostInfo {
  unsigned Cores = 0;
  std::string CpuModel;
  std::string BuildType;
  std::string VectorClockSimd;
  std::string Native;
  /// GB/s of a streaming read-and-sum pass over the trace bytes.
  double CalibGbPerS = 0.0;
};

/// Fills every field except CalibGbPerS.
HostInfo probeHost();

/// Median GB/s over several streaming passes that sum \p Bytes as 64-bit
/// words. 0 for an empty buffer.
double calibrateGbPerS(const std::vector<uint8_t> &Bytes);

/// The host block as one JSON object.
std::string hostJson(const HostInfo &H);

} // namespace pipebench

#endif // PIPEBENCH_HOST_H
