//===-- pipebench/src/Spans.h - In-memory span recorder ---------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing layer. A span is one call into a layer of the
/// pipeline, recorded by the benchmark around the public entry point it
/// calls: name, start, end, the span that caused it, and the operation
/// it belongs to. Spans stay in memory while the benchmark runs and are
/// written out once at the end in the telemetry::TraceWriter (Chrome
/// trace-event, Perfetto-loadable) format.
///
/// A layer's self time is its span's duration minus the part of that
/// interval its child spans cover (children may run on other threads and
/// overlap; the union is what counts).
///
/// A disabled recorder records nothing and every call is a cheap no-op,
/// so the untraced run pays for one branch per span site.
///
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_SPANS_H
#define PIPEBENCH_SPANS_H

#include "telemetry/Timeline.h"

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pipebench {

/// Id of a recorded span; NoSpan when the recorder is disabled or a span
/// has no parent.
using SpanId = int64_t;
constexpr SpanId NoSpan = -1;

struct Span {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  SpanId Parent = NoSpan;
  uint64_t OpId = 0;
  /// Timeline lane (thread) the span is drawn on.
  uint32_t Lane = 0;

  uint64_t durationNs() const { return EndNs > StartNs ? EndNs - StartNs : 0; }
};

/// Thread-safe span store.
class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Nanoseconds since the recorder was constructed.
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Epoch)
            .count());
  }

  /// Opens a span starting now; close it with end().
  SpanId begin(std::string Name, SpanId Parent, uint64_t OpId,
               uint32_t Lane = 0);
  void end(SpanId Id);

  /// Records an already completed span.
  SpanId add(std::string Name, uint64_t StartNs, uint64_t EndNs,
             SpanId Parent, uint64_t OpId, uint32_t Lane = 0);

  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;

  /// Sum of the durations of every span named \p Name.
  uint64_t totalNs(const std::string &Name) const;

  /// Nanoseconds of span \p Id covered by the union of its children.
  uint64_t childCoverageNs(SpanId Id) const;

  /// Self time of span \p Id: its duration minus childCoverageNs().
  uint64_t selfNsOf(SpanId Id) const;

  /// Renders every span as a Chrome trace-event timeline, one lane per
  /// Span::Lane.
  literace::telemetry::TraceWriter toTimeline() const;

private:
  using Clock = std::chrono::steady_clock;

  uint64_t coverageLocked(SpanId Id) const;

  const bool Enabled;
  const Clock::time_point Epoch = Clock::now();
  mutable std::mutex Lock;
  std::vector<Span> Spans; // guarded by Lock; SpanId indexes it
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, std::string Name, SpanId Parent,
             uint64_t OpId, uint32_t Lane = 0)
      : R(R), Id(R.enabled() ? R.begin(std::move(Name), Parent, OpId, Lane)
                             : NoSpan) {}
  ~ScopedSpan() {
    if (Id != NoSpan)
      R.end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  SpanId id() const { return Id; }

private:
  SpanRecorder &R;
  const SpanId Id;
};

} // namespace pipebench

#endif // PIPEBENCH_SPANS_H
