//===-- telemetry/Prometheus.cpp - Text exposition writer ----------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Prometheus.h"

#include "telemetry/Metrics.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <vector>

using namespace literace;
using namespace literace::telemetry;

namespace {

bool nameStartChar(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_' ||
         C == ':';
}

bool nameChar(char C) { return nameStartChar(C) || (C >= '0' && C <= '9'); }

void appendU64(std::string &Out, uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu",
                static_cast<unsigned long long>(V));
  Out += Buf;
}

/// Curated HELP catalog. An operator staring at a dashboard during an
/// incident should not have to read source to learn what a counter
/// means, so the durability plane (sink.tee.*, collector.journal.*,
/// collector.spill.*, checkpoints, gaps) gets precise one-liners;
/// accounting identities are stated where they exist. Keep entries
/// sorted by name within each plane.
struct HelpEntry {
  std::string_view Name;
  const char *Help;
};

constexpr HelpEntry HelpCatalog[] = {
    // Client spool-and-reconnect transport (SpoolingSocketOutput).
    {"sink.tee.cap_hits",
     "Times the client spool hit its byte cap and shed oldest bytes."},
    {"sink.tee.gap_bytes",
     "Bytes declared lost to the daemon via the resume handshake after "
     "spool-cap trims; gap + undelivered = lost."},
    {"sink.tee.lost_bytes",
     "Bytes the client could not deliver: realized gaps plus bytes still "
     "undelivered at close."},
    {"sink.tee.reconnects",
     "Socket reconnect attempts that completed a resume handshake."},
    {"sink.tee.replayed_bytes",
     "Spooled bytes re-sent after a reconnect, from the daemon's acked "
     "position."},
    {"sink.tee.spool_errors",
     "Client spool file I/O failures (writes continue, durability "
     "degrades)."},
    {"sink.tee.spooled_bytes",
     "Bytes appended to the client's on-disk spool while the collector "
     "was unreachable."},
    {"sink.tee.trimmed_bytes",
     "Bytes evicted from the client spool at its cap; they become "
     "gap_bytes at the next resume handshake."},
    {"sink.tee.undelivered_bytes",
     "Bytes neither acked nor declared as a gap when the sink closed."},
    // Daemon ingest, journaling, checkpointing, recovery.
    {"collector.bytes.ingested", "Stream bytes accepted from clients."},
    {"collector.checkpoint.errors",
     "Triage checkpoint commits that failed (recovery falls back to "
     "journal replay)."},
    {"collector.checkpoints.written",
     "Triage checkpoints committed to the spool directory."},
    {"collector.events.ingested",
     "Events decoded from client streams and forwarded to triage."},
    {"collector.http.io_timeouts",
     "Status/metrics connections cut off by the per-connection I/O "
     "deadline."},
    {"collector.http.requests", "HTTP status/metrics requests served."},
    {"collector.ingest.gap_bytes",
     "Bytes clients declared shed at their spool cap; equals the sum of "
     "resume offsets past the acked positions."},
    {"collector.journal.bytes",
     "Bytes appended to per-session write-ahead journals."},
    {"collector.journal.errors",
     "Journal append failures (the session keeps ingesting, replay "
     "coverage shrinks)."},
    {"collector.races.distinct", "Distinct races after triage dedup."},
    {"collector.races.sightings",
     "Race sightings reported by detectors before dedup."},
    {"collector.scheduler.pending_events",
     "Most events one session's scheduler held waiting on a timestamp "
     "(a lagging or blocked producer thread)."},
    {"collector.segments.dropped",
     "Damage episodes in client streams (corrupt regions and declared "
     "gaps; one resync each)."},
    {"collector.segments.recovered",
     "Segment frames decoded intact from client streams."},
    {"collector.sessions.accepted", "Client connections accepted."},
    {"collector.sessions.clean",
     "Sessions that ended with a decoded v2 footer."},
    {"collector.sessions.completed", "Sessions that reached end of "
                                     "stream."},
    {"collector.sessions.detached",
     "Sessions whose connection dropped with resumable state retained."},
    {"collector.sessions.idle_timeout",
     "Detached sessions reaped after the idle timeout."},
    {"collector.sessions.recovered",
     "Sessions rebuilt from journals after a daemon restart."},
    {"collector.sessions.resumed",
     "Reconnects that resumed a detached session via the handshake."},
    // Overload spill.
    {"collector.spill.events",
     "Events diverted to the journal while the triage queue was "
     "saturated (status reports degraded)."},
    {"collector.spill.replayed_events",
     "Spilled events replayed through triage once pressure eased."},
    {"collector.spill.sessions", "Sessions that entered spill mode."},
};

} // namespace

const char *literace::telemetry::metricHelp(std::string_view Name) {
  for (const HelpEntry &E : HelpCatalog)
    if (E.Name == Name)
      return E.Help;
  return nullptr;
}

std::string literace::telemetry::prometheusName(std::string_view Name) {
  std::string Out;
  Out.reserve(Name.size());
  for (char C : Name)
    Out += nameChar(C) ? C : '_';
  if (Out.empty() || !nameStartChar(Out[0]))
    Out.insert(Out.begin(), '_');
  return Out;
}

std::string literace::telemetry::toPrometheusText(const MetricsSnapshot &Snap,
                                                  std::string_view Prefix) {
  const std::string P = prometheusName(Prefix) + "_";
  std::string Out;
  Out.reserve(4096);

  auto Family = [&](const std::string &Name, const char *Type,
                    const char *Help) {
    Out += "# HELP " + Name + " " + Help + "\n";
    Out += "# TYPE " + Name + " ";
    Out += Type;
    Out += "\n";
  };

  if (Snap.CaptureUnixMillis != 0 || Snap.EmitterPid != 0) {
    const std::string Name = P + "capture_info";
    Family(Name, "gauge", "Capture timestamp and emitting process.");
    Out += Name + "{captured_unix_ms=\"";
    appendU64(Out, Snap.CaptureUnixMillis);
    Out += "\",pid=\"";
    appendU64(Out, Snap.EmitterPid);
    Out += "\"} 1\n";
  }

  for (const auto &[Name, Value] : Snap.Counters) {
    const std::string Fam = P + prometheusName(Name) + "_total";
    const char *Help = metricHelp(Name);
    Family(Fam, "counter", Help ? Help : "literace counter.");
    Out += Fam + " ";
    appendU64(Out, Value);
    Out += "\n";
  }

  for (const auto &[Name, Value] : Snap.Gauges) {
    const std::string Fam = P + prometheusName(Name);
    const char *Help = metricHelp(Name);
    Family(Fam, "gauge",
           Help ? Help : "literace max-gauge (high-water mark).");
    Out += Fam + " ";
    appendU64(Out, Value);
    Out += "\n";
  }

  for (const HistogramValue &H : Snap.Histograms) {
    const std::string Fam = P + prometheusName(H.Name);
    Family(Fam, "histogram", "literace pow2-bucket histogram.");
    // Buckets are cumulative and keyed by their inclusive upper bound;
    // the overflow bucket renders as +Inf, matching _count exactly.
    uint64_t Cumulative = 0;
    for (unsigned B = 0; B != HistogramBuckets; ++B) {
      Cumulative += H.Buckets[B];
      Out += Fam + "_bucket{le=\"";
      if (B == HistogramBuckets - 1)
        Out += "+Inf";
      else
        appendU64(Out, histogramBucketUpperBound(B));
      Out += "\"} ";
      appendU64(Out, Cumulative);
      Out += "\n";
    }
    Out += Fam + "_sum ";
    appendU64(Out, H.Sum);
    Out += "\n" + Fam + "_count ";
    appendU64(Out, H.Count);
    Out += "\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Validator
//===----------------------------------------------------------------------===//

namespace {

struct SampleLine {
  std::string Family;  ///< family name (suffixes stripped for histograms)
  std::string Metric;  ///< full metric name as written
  std::string LeLabel; ///< value of an `le` label, if present
  double Value = 0;
  bool HasLe = false;
};

bool fail(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
  return false;
}

/// Parses a metric name starting at \p I; advances \p I past it.
bool parseName(std::string_view Line, size_t &I, std::string &Out) {
  const size_t Begin = I;
  if (I >= Line.size() || !nameStartChar(Line[I]))
    return false;
  while (I < Line.size() && nameChar(Line[I]))
    ++I;
  Out = std::string(Line.substr(Begin, I - Begin));
  return true;
}

/// Parses an optional {label="value",...} block; records an `le` value.
bool parseLabels(std::string_view Line, size_t &I, SampleLine &S) {
  if (I >= Line.size() || Line[I] != '{')
    return true;
  ++I;
  bool First = true;
  while (I < Line.size() && Line[I] != '}') {
    if (!First) {
      if (Line[I] != ',')
        return false;
      ++I;
    }
    First = false;
    std::string Label;
    if (!parseName(Line, I, Label))
      return false;
    if (I >= Line.size() || Line[I] != '=')
      return false;
    ++I;
    if (I >= Line.size() || Line[I] != '"')
      return false;
    ++I;
    std::string Value;
    while (I < Line.size() && Line[I] != '"') {
      if (Line[I] == '\\') {
        ++I;
        if (I >= Line.size())
          return false;
      }
      Value += Line[I];
      ++I;
    }
    if (I >= Line.size())
      return false;
    ++I; // closing quote
    if (Label == "le") {
      S.HasLe = true;
      S.LeLabel = Value;
    }
  }
  if (I >= Line.size())
    return false;
  ++I; // closing brace
  return true;
}

double parseLe(const std::string &Le) {
  if (Le == "+Inf")
    return std::numeric_limits<double>::infinity();
  return std::strtod(Le.c_str(), nullptr);
}

} // namespace

bool literace::telemetry::validatePrometheusText(std::string_view Text,
                                                 std::string *Error) {
  // family -> declared type ("counter" / "gauge" / "histogram")
  std::map<std::string, std::string> Types;
  std::map<std::string, std::vector<SampleLine>> Samples;
  std::set<std::string> SeenMetrics; // duplicate plain samples are invalid

  size_t LineNo = 0;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos) {
      if (Pos == Text.size())
        break;
      return fail(Error, "document must end with a newline");
    }
    std::string_view Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;
    const std::string Where = "line " + std::to_string(LineNo) + ": ";
    if (Line.empty())
      continue;
    if (Line[0] == '#') {
      // "# TYPE <name> <type>" or "# HELP <name> <text>".
      size_t I = 1;
      while (I < Line.size() && Line[I] == ' ')
        ++I;
      std::string Keyword;
      if (!parseName(Line, I, Keyword))
        continue; // a plain comment
      if (Keyword != "TYPE" && Keyword != "HELP")
        continue;
      if (I >= Line.size() || Line[I] != ' ')
        return fail(Error, Where + "malformed " + Keyword + " line");
      ++I;
      std::string Fam;
      if (!parseName(Line, I, Fam))
        return fail(Error, Where + Keyword + " names no metric family");
      if (Keyword == "HELP")
        continue;
      if (I >= Line.size() || Line[I] != ' ')
        return fail(Error, Where + "TYPE line has no type");
      ++I;
      std::string Type(Line.substr(I));
      if (Type != "counter" && Type != "gauge" && Type != "histogram" &&
          Type != "summary" && Type != "untyped")
        return fail(Error, Where + "unknown type '" + Type + "'");
      if (!Types.emplace(Fam, Type).second)
        return fail(Error, Where + "family '" + Fam + "' declared twice");
      continue;
    }

    // A sample line: name[{labels}] value
    SampleLine S;
    size_t I = 0;
    if (!parseName(Line, I, S.Metric))
      return fail(Error, Where + "does not start with a metric name");
    if (!parseLabels(Line, I, S))
      return fail(Error, Where + "malformed label block");
    if (I >= Line.size() || Line[I] != ' ')
      return fail(Error, Where + "missing sample value");
    ++I;
    char *ValEnd = nullptr;
    const std::string ValueText(Line.substr(I));
    S.Value = std::strtod(ValueText.c_str(), &ValEnd);
    if (ValEnd == ValueText.c_str() || *ValEnd != '\0')
      return fail(Error, Where + "sample value '" + ValueText +
                             "' is not a number");

    // Resolve the family: histogram series use _bucket/_sum/_count
    // suffixes on the declared family name.
    S.Family = S.Metric;
    for (const char *Suffix : {"_bucket", "_sum", "_count"}) {
      const std::string Sfx = Suffix;
      if (S.Metric.size() > Sfx.size() &&
          S.Metric.compare(S.Metric.size() - Sfx.size(), Sfx.size(), Sfx) ==
              0) {
        const std::string Base =
            S.Metric.substr(0, S.Metric.size() - Sfx.size());
        auto It = Types.find(Base);
        if (It != Types.end() && It->second == "histogram") {
          S.Family = Base;
          break;
        }
      }
    }
    auto It = Types.find(S.Family);
    if (It == Types.end())
      return fail(Error, Where + "sample '" + S.Metric +
                             "' precedes its TYPE declaration");
    if (It->second == "histogram") {
      if (S.Family == S.Metric)
        return fail(Error, Where + "histogram '" + S.Family +
                               "' has a bare sample");
      if (S.Metric == S.Family + "_bucket" && !S.HasLe)
        return fail(Error, Where + "bucket sample without an le label");
    } else {
      if (S.HasLe)
        return fail(Error, Where + "le label on a non-histogram sample");
      if (!SeenMetrics.insert(S.Metric).second)
        return fail(Error, Where + "duplicate sample '" + S.Metric + "'");
    }
    Samples[S.Family].push_back(S);
  }

  // Per-histogram structural checks: le strictly increasing, counts
  // cumulative, +Inf bucket present and equal to _count.
  for (const auto &[Fam, Type] : Types) {
    const auto &Rows = Samples[Fam];
    if (Type != "histogram") {
      if (Rows.empty())
        return fail(Error, "family '" + Fam + "' declared but has no "
                                              "samples");
      continue;
    }
    double PrevLe = -std::numeric_limits<double>::infinity();
    double PrevCount = -1;
    bool SawInf = false;
    double InfCount = 0, Count = -1;
    bool SawSum = false, SawCount = false;
    for (const SampleLine &S : Rows) {
      if (S.Metric == Fam + "_sum") {
        SawSum = true;
      } else if (S.Metric == Fam + "_count") {
        SawCount = true;
        Count = S.Value;
      } else {
        const double Le = parseLe(S.LeLabel);
        if (Le <= PrevLe)
          return fail(Error, "histogram '" + Fam +
                                 "': le bounds not increasing");
        if (S.Value < PrevCount)
          return fail(Error, "histogram '" + Fam +
                                 "': bucket counts not cumulative");
        PrevLe = Le;
        PrevCount = S.Value;
        if (S.LeLabel == "+Inf") {
          SawInf = true;
          InfCount = S.Value;
        }
      }
    }
    if (!SawInf)
      return fail(Error, "histogram '" + Fam + "' lacks a +Inf bucket");
    if (!SawSum || !SawCount)
      return fail(Error, "histogram '" + Fam + "' lacks _sum or _count");
    if (InfCount != Count)
      return fail(Error, "histogram '" + Fam +
                             "': +Inf bucket disagrees with _count");
  }
  return true;
}
