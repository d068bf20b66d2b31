//===-- detector/RaceReport.cpp - Race aggregation -------------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "detector/RaceReport.h"

#include "runtime/FunctionRegistry.h"

#include <algorithm>
#include <cstdio>

using namespace literace;

namespace {

/// The canonical report order: site pair first, then first occurrence.
bool reportOrder(const StaticRace &A, const StaticRace &B) {
  if (A.Key != B.Key)
    return A.Key < B.Key;
  return A.FirstEventIndex < B.FirstEventIndex;
}

} // namespace

void RaceReport::record(const RaceSighting &Sighting) {
  StaticRaceKey Key = makeStaticRaceKey(Sighting.FirstPc, Sighting.SecondPc);
  StaticRace &Race = Races[Key];
  if (Race.DynamicCount == 0 ||
      Sighting.EventIndex < Race.FirstEventIndex) {
    Race.Key = Key;
    Race.ExampleAddr = Sighting.Addr;
    Race.FirstEventIndex = Sighting.EventIndex;
  }
  ++Race.DynamicCount;
  Race.SawWriteWrite |= Sighting.FirstIsWrite && Sighting.SecondIsWrite;
  SightingAddresses.insert(Sighting.Addr);
  ++TotalSightings;
}

std::vector<StaticRace> RaceReport::staticRaces() const {
  std::vector<StaticRace> Out;
  Out.reserve(Races.size());
  for (const auto &Entry : Races)
    Out.push_back(Entry.second);
  std::stable_sort(Out.begin(), Out.end(), reportOrder);
  return Out;
}

std::vector<StaticRace> RaceReport::staticRacesExcluding(
    const std::set<Pc> &SuppressedSites) const {
  std::vector<StaticRace> Out;
  for (const StaticRace &Race : staticRaces()) {
    if (SuppressedSites.count(Race.Key.first) ||
        SuppressedSites.count(Race.Key.second))
      continue;
    Out.push_back(Race);
  }
  return Out;
}

std::set<StaticRaceKey> RaceReport::keys() const {
  std::set<StaticRaceKey> Out;
  for (const auto &Entry : Races)
    Out.insert(Entry.first);
  return Out;
}

bool RaceReport::isRare(const StaticRace &Race, uint64_t TotalMemOps) {
  double Threshold =
      RarePerMillionMemOps * static_cast<double>(TotalMemOps) / 1e6;
  return static_cast<double>(Race.DynamicCount) < Threshold;
}

std::pair<std::set<StaticRaceKey>, std::set<StaticRaceKey>>
RaceReport::splitRareFrequent(uint64_t TotalMemOps) const {
  std::set<StaticRaceKey> Rare, Frequent;
  for (const auto &Entry : Races) {
    if (isRare(Entry.second, TotalMemOps))
      Rare.insert(Entry.first);
    else
      Frequent.insert(Entry.first);
  }
  return {std::move(Rare), std::move(Frequent)};
}

std::string RaceReport::describe(const FunctionRegistry *Registry) const {
  auto SiteName = [&](Pc P) {
    char Buf[256];
    FunctionId F = pcFunction(P);
    if (Registry && F < Registry->size())
      std::snprintf(Buf, sizeof(Buf), "%s:%u", Registry->name(F).c_str(),
                    pcSite(P));
    else
      std::snprintf(Buf, sizeof(Buf), "fn%u:%u", F, pcSite(P));
    return std::string(Buf);
  };

  std::string Out;
  char Line[512];
  std::snprintf(Line, sizeof(Line),
                "%zu static race(s), %llu dynamic sighting(s)\n",
                Races.size(),
                static_cast<unsigned long long>(TotalSightings));
  Out += Line;
  for (const StaticRace &Race : staticRaces()) {
    std::snprintf(Line, sizeof(Line), "  %s <-> %s  x%llu%s\n",
                  SiteName(Race.Key.first).c_str(),
                  SiteName(Race.Key.second).c_str(),
                  static_cast<unsigned long long>(Race.DynamicCount),
                  Race.SawWriteWrite ? "  [write/write]" : "");
    Out += Line;
  }
  return Out;
}
