//===-- pipebench/src/Stats.cpp - Order statistics and process probes -----===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pipebench {

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double Rank = P / 100.0 * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Rank));
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  const double Frac = Rank - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

Tail tailPercentile(const std::vector<double> &V) {
  Tail T;
  if (V.size() > 20)
    T.Percentile = 100.0 * (1.0 - 10.0 / static_cast<double>(V.size()));
  T.Value = percentile(V, T.Percentile);
  return T;
}

double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0.0;
  char Line[256];
  double Mb = 0.0;
  while (std::fgets(Line, sizeof(Line), F)) {
    if (std::strncmp(Line, "VmHWM:", 6) == 0) {
      Mb = std::strtod(Line + 6, nullptr) / 1024.0; // kB -> MB
      break;
    }
  }
  std::fclose(F);
  return Mb;
}

uint64_t fileSizeOnDisk(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0)
    return 0;
  return static_cast<uint64_t>(St.st_size);
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Bytes;
  Bytes.resize(fileSizeOnDisk(Path));
  const size_t Got = std::fread(Bytes.data(), 1, Bytes.size(), F);
  Bytes.resize(Got);
  std::fclose(F);
  return Bytes;
}

} // namespace pipebench
