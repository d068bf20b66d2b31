//===-- pipebench/src/Spans.cpp - In-memory span recorder -----------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <utility>

namespace pipebench {

using literace::telemetry::TraceEvent;
using literace::telemetry::TraceWriter;

SpanId SpanRecorder::begin(std::string Name, SpanId Parent, uint64_t OpId,
                           uint32_t Lane) {
  const uint64_t Now = nowNs();
  return add(std::move(Name), Now, Now, Parent, OpId, Lane);
}

void SpanRecorder::end(SpanId Id) {
  if (Id == NoSpan)
    return;
  const uint64_t Now = nowNs();
  std::lock_guard<std::mutex> Guard(Lock);
  Spans[static_cast<size_t>(Id)].EndNs = Now;
}

SpanId SpanRecorder::add(std::string Name, uint64_t StartNs, uint64_t EndNs,
                         SpanId Parent, uint64_t OpId, uint32_t Lane) {
  if (!Enabled)
    return NoSpan;
  std::lock_guard<std::mutex> Guard(Lock);
  Span S;
  S.Name = std::move(Name);
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  S.Parent = Parent;
  S.OpId = OpId;
  S.Lane = Lane;
  Spans.push_back(std::move(S));
  return static_cast<SpanId>(Spans.size() - 1);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> Guard(Lock);
  return Spans;
}

uint64_t SpanRecorder::totalNs(const std::string &Name) const {
  std::lock_guard<std::mutex> Guard(Lock);
  uint64_t Sum = 0;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Sum += S.durationNs();
  return Sum;
}

uint64_t SpanRecorder::childCoverageNs(SpanId Id) const {
  std::lock_guard<std::mutex> Guard(Lock);
  return coverageLocked(Id);
}

uint64_t SpanRecorder::selfNsOf(SpanId Id) const {
  std::lock_guard<std::mutex> Guard(Lock);
  return Spans[static_cast<size_t>(Id)].durationNs() - coverageLocked(Id);
}

uint64_t SpanRecorder::coverageLocked(SpanId Id) const {
  const Span &P = Spans[static_cast<size_t>(Id)];
  std::vector<std::pair<uint64_t, uint64_t>> Intervals;
  for (const Span &C : Spans) {
    if (C.Parent != Id)
      continue;
    const uint64_t Lo = std::max(C.StartNs, P.StartNs);
    const uint64_t Hi = std::min(C.EndNs, P.EndNs);
    if (Hi > Lo)
      Intervals.emplace_back(Lo, Hi);
  }
  std::sort(Intervals.begin(), Intervals.end());
  uint64_t Covered = 0, RunLo = 0, RunHi = 0;
  bool Open = false;
  for (const auto &[Lo, Hi] : Intervals) {
    if (Open && Lo <= RunHi) {
      RunHi = std::max(RunHi, Hi);
      continue;
    }
    if (Open)
      Covered += RunHi - RunLo;
    RunLo = Lo;
    RunHi = Hi;
    Open = true;
  }
  if (Open)
    Covered += RunHi - RunLo;
  return Covered;
}

TraceWriter SpanRecorder::toTimeline() const {
  // One process lane after the library's runtime (1) and detector (2)
  // lanes; each span carries its index, its parent's index plus one (0 for
  // none) and its operation id as args.
  constexpr uint32_t Pid = 3;
  TraceWriter W;
  W.nameProcess(Pid, "pipebench");
  std::vector<uint32_t> Lanes;
  std::lock_guard<std::mutex> Guard(Lock);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    TraceEvent E;
    E.Name = S.Name;
    E.Cat = "pipebench";
    E.Phase = 'X';
    E.TsUs = S.StartNs / 1000;
    E.DurUs = S.durationNs() / 1000;
    E.Pid = Pid;
    E.Tid = S.Lane;
    E.Args = {{"span", I},
              {"parent", static_cast<uint64_t>(S.Parent + 1)},
              {"op", S.OpId}};
    W.add(std::move(E));
    if (std::find(Lanes.begin(), Lanes.end(), S.Lane) == Lanes.end())
      Lanes.push_back(S.Lane);
  }
  for (uint32_t Lane : Lanes)
    W.nameThread(Pid, Lane, "lane " + std::to_string(Lane));
  return W;
}

} // namespace pipebench
