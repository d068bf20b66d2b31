//===-- collector/ReportTriage.h - Report-hygiene pipeline -----*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collector's report-hygiene pipeline (docs/COLLECTOR.md): every
/// race update flowing out of the live detectors passes through one
/// ReportTriage, which (1) deduplicates by the static site-pair
/// fingerprint, accumulating occurrence counts and the set of sessions a
/// race manifested in, (2) drops updates matching a loaded suppression
/// file (counting each suppressed occurrence against its entry), and
/// (3) rate-limits emission per race with a token bucket, so one hot
/// racy loop cannot flood the operator's log while a new, rare race
/// still surfaces immediately.
///
/// The clock is injectable (TriageConfig::NowNs) so the rate-limit tests
/// are deterministic; the default reads the monotonic steady clock.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_COLLECTOR_REPORTTRIAGE_H
#define LITERACE_COLLECTOR_REPORTTRIAGE_H

#include "collector/Suppressions.h"
#include "detector/RaceReport.h"

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace literace {
namespace collector {

/// Tuning and dependencies of a ReportTriage.
struct TriageConfig {
  /// Token-bucket refill rate per race: emitted updates per second after
  /// the burst is spent. 0 disables rate limiting.
  double RatePerSec = 1.0;
  /// Bucket capacity: updates a race may emit back-to-back.
  double Burst = 5.0;
  /// Clock returning monotonic nanoseconds; tests inject a fake.
  std::function<uint64_t()> NowNs;
};

/// Aggregated triage state of one static race.
struct TriagedRace {
  StaticRaceKey Key;
  uint64_t DynamicCount = 0;       ///< dynamic sightings across sessions
  uint64_t Sessions = 0;           ///< distinct sessions that saw it
  uint64_t ExampleAddr = 0;        ///< address of the first sighting seen
  bool SawWriteWrite = false;
  bool Suppressed = false;         ///< matched a suppression entry
  std::string SuppressionName;     ///< name of the matching entry
  uint64_t EmittedUpdates = 0;     ///< updates that passed the bucket
  uint64_t RateLimitedUpdates = 0; ///< updates the bucket swallowed
};

/// Checkpointable state of one triaged race (collector/Checkpoint.h):
/// the public TriagedRace plus the rate-limiter bucket and the session
/// set backing the Sessions count.
struct TriageCheckpointEntry {
  TriagedRace R;
  double Tokens = 0;
  std::vector<uint64_t> SessionIds;
};

/// Deduplicating, suppressing, rate-limiting sink for live race updates.
/// observe() is called by the collector's detection lanes under their
/// shared publish lock; the read accessors are safe from any thread
/// (HTTP handlers).
class ReportTriage {
public:
  /// \p Suppressions may be null (nothing suppressed) and must outlive
  /// this object.
  explicit ReportTriage(TriageConfig Config = TriageConfig(),
                        SuppressionSet *Suppressions = nullptr);

  /// Called once per emitted (deduped, unsuppressed, un-rate-limited)
  /// update with the post-update state and the new sightings this update
  /// contributed.
  using EmitFn = std::function<void(const TriagedRace &, uint64_t Delta)>;
  void setEmitter(EmitFn Fn);

  /// Folds \p Delta new dynamic sightings of \p Key from session
  /// \p SessionId into the table and runs the hygiene pipeline.
  void observe(const StaticRaceKey &Key, uint64_t Delta, bool WriteWrite,
               uint64_t ExampleAddr, uint64_t SessionId);

  /// All triaged races in canonical (site-pair) order.
  std::vector<TriagedRace> races() const;

  size_t distinctRaces() const;
  /// Distinct races not matching any suppression.
  size_t unsuppressedRaces() const;
  uint64_t totalSightings() const;
  uint64_t suppressedSightings() const;
  uint64_t rateLimitedUpdates() const;

  /// Full table state for a collector checkpoint, in key order.
  std::vector<TriageCheckpointEntry> checkpointEntries() const;
  /// Aggregate counters for a checkpoint (one consistent snapshot).
  void checkpointTotals(uint64_t &SightingsOut, uint64_t &SuppressedOut,
                        uint64_t &RateLimitedOut) const;
  /// Replaces the table with checkpointed state (daemon recovery).
  /// Suppression status is re-derived against the current suppression
  /// set, and rate-limiter refill clocks restart at now (monotonic
  /// clocks do not survive a restart); token balances are preserved.
  void restore(const std::vector<TriageCheckpointEntry> &Entries,
               uint64_t SightingsIn, uint64_t SuppressedIn,
               uint64_t RateLimitedIn);

private:
  struct Entry {
    TriagedRace R;
    std::set<uint64_t> SessionIds;
    double Tokens = 0;
    uint64_t LastRefillNs = 0;
    int SuppressionIndex = -1;
  };

  TriageConfig Config;
  SuppressionSet *Suppressions;
  EmitFn Emitter;

  mutable std::mutex Lock;
  std::map<StaticRaceKey, Entry> Table;
  uint64_t Sightings = 0;
  uint64_t SuppressedHits = 0;
  uint64_t RateLimited = 0;
};

} // namespace collector
} // namespace literace

#endif // LITERACE_COLLECTOR_REPORTTRIAGE_H
