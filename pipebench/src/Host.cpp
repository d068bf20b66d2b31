//===-- pipebench/src/Host.cpp - Host block of a result -------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Host.h"

#include "Stats.h"
#include "detector/VectorClock.h"
#include "telemetry/Json.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>

namespace pipebench {

HostInfo probeHost() {
  HostInfo H;
  const long N = ::sysconf(_SC_NPROCESSORS_ONLN);
  H.Cores = N > 0 ? static_cast<unsigned>(N) : 0;
  if (std::FILE *F = std::fopen("/proc/cpuinfo", "r")) {
    char Line[512];
    while (std::fgets(Line, sizeof(Line), F)) {
      if (std::strncmp(Line, "model name", 10) != 0)
        continue;
      const char *Colon = std::strchr(Line, ':');
      if (!Colon)
        continue;
      std::string Model(Colon + 1);
      while (!Model.empty() && (Model.back() == '\n' || Model.back() == ' '))
        Model.pop_back();
      while (!Model.empty() && Model.front() == ' ')
        Model.erase(Model.begin());
      H.CpuModel = Model;
      break;
    }
    std::fclose(F);
  }
  if (H.CpuModel.empty())
    H.CpuModel = "unknown";
  H.BuildType = PIPEBENCH_BUILD_TYPE;
  H.VectorClockSimd = LITERACE_VECTORCLOCK_SIMD;
  H.Native = PIPEBENCH_NATIVE;
  return H;
}

double calibrateGbPerS(const std::vector<uint8_t> &Bytes) {
  const size_t Words = Bytes.size() / sizeof(uint64_t);
  if (Words == 0)
    return 0.0;
  std::vector<double> Rates;
  volatile uint64_t Sink = 0;
  for (int Pass = 0; Pass != 5; ++Pass) {
    const auto Start = std::chrono::steady_clock::now();
    uint64_t Sum = 0;
    for (size_t I = 0; I != Words; ++I) {
      uint64_t W;
      std::memcpy(&W, Bytes.data() + I * sizeof(uint64_t), sizeof(W));
      Sum += W;
    }
    const double Secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - Start)
                            .count();
    Sink = Sum;
    if (Secs > 0)
      Rates.push_back(static_cast<double>(Words * sizeof(uint64_t)) / Secs /
                      1e9);
  }
  (void)Sink;
  return median(Rates);
}

namespace {
std::string jsonString(const std::string &S) {
  std::string Out(1, '"');
  Out += literace::telemetry::jsonEscape(S);
  Out += '"';
  return Out;
}
} // namespace

std::string hostJson(const HostInfo &H) {
  char Calib[64];
  std::snprintf(Calib, sizeof(Calib), "%.6g", H.CalibGbPerS);
  return "{\"cores\": " + std::to_string(H.Cores) +
         ", \"cpu_model\": " + jsonString(H.CpuModel) +
         ", \"build_type\": " + jsonString(H.BuildType) +
         ", \"LITERACE_VECTORCLOCK_SIMD\": " + jsonString(H.VectorClockSimd) +
         ", \"LITERACE_NATIVE\": " + jsonString(H.Native) +
         ", \"calib_gb_per_s\": " + Calib + "}";
}

} // namespace pipebench
