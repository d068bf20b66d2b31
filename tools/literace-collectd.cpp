//===-- tools/literace-collectd.cpp - Collection daemon CLI ----------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Always-on collection daemon (docs/COLLECTOR.md): listens on an AF_UNIX
// socket for v2 segment streams from concurrent `literace-run --connect`
// processes, detects races incrementally per session, and pushes every
// finding through the triage pipeline (dedup by site pair, suppression
// file, per-race rate limit). Live state is served over HTTP/1.0:
// /metrics (Prometheus text exposition), /status and /races (JSON).
//
// Usage:
//   literace-collectd <ingest-socket>
//                     [--http-socket <path>] [--http <port>]
//                     [--port-file <path>]
//                     [--suppressions <file>] [--rate-limit <per-sec>]
//                     [--rate-burst <n>] [--exit-after-clients <n>]
//                     [--status-json <path>] [--races-json <path>]
//                     [--quiet]
//
//   --http-socket  serve the HTTP endpoint on a unix socket (tests, local
//                  triage via curl --unix-socket)
//   --http         serve the HTTP endpoint on 127.0.0.1:<port>; 0 picks an
//                  ephemeral port (printed, and written to --port-file)
//   --suppressions Valgrind-style suppression file (docs/COLLECTOR.md)
//   --rate-limit   per-race emitted updates per second once the burst is
//                  spent (default 1; 0 = unlimited)
//   --rate-burst   per-race burst budget (default 5)
//   --exit-after-clients
//                  exit after this many sessions completed (tests/CI);
//                  without it the daemon runs until SIGINT/SIGTERM
//   --status-json / --races-json
//                  dump the final /status and /races documents to files
//                  at shutdown (CI artifacts)
//   --spool-dir    crash-only operation (docs/ROBUSTNESS.md): journal
//                  every session's raw bytes to this directory before
//                  detection, checkpoint triage state there, and recover
//                  both on the next start. Resumable clients reconnect
//                  across a daemon restart and resume from the journaled
//                  position.
//   --checkpoint-every
//                  triage checkpoint cadence in emitted race updates
//                  (default 64; always checkpoints at session boundaries)
//   --session-timeout-ms
//                  finalize a detached resumable session (client gone,
//                  not reconnecting) after this long (default 30000)
//   --ack-every-bytes
//                  ack journaled progress to resumable clients every N
//                  stream bytes (default 1 MiB; tests lower it)
//   --kill-after-bytes
//                  fault injection for the recovery tests: SIGKILL this
//                  daemon once it has ingested N bytes (counting recovery
//                  replay), exactly like an operator's kill -9
//   --force-spill  test hook: journaled sessions defer every chunk to the
//                  journal replay, exercising the overload spill path
//
// Exit status: 0 when no unsuppressed race was collected, 3 when at least
// one was (matching literace-report), 1/2 on operational errors.
//
//===----------------------------------------------------------------------===//

#include "collector/Collector.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <signal.h>
#include <unistd.h>

using namespace literace;
using namespace literace::collector;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s <ingest-socket> [--http-socket <path>] [--http <port>]\n"
      "          [--port-file <path>]\n"
      "          [--suppressions <file>] [--rate-limit <per-sec>]\n"
      "          [--rate-burst <n>] [--exit-after-clients <n>]\n"
      "          [--status-json <path>] [--races-json <path>] [--quiet]\n"
      "          [--spool-dir <dir>] [--checkpoint-every <n>]\n"
      "          [--session-timeout-ms <n>] [--ack-every-bytes <n>]\n"
      "          [--kill-after-bytes <n>] [--force-spill]\n",
      Argv0);
  return 2;
}

std::atomic<int> SignalSeen{0};

void onSignal(int Sig) { SignalSeen.store(Sig); }

bool writeFile(const std::string &Path, const std::string &Text) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  const bool Ok =
      std::fwrite(Text.data(), 1, Text.size(), File) == Text.size();
  std::fclose(File);
  return Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  const std::string IngestPath = Argv[1];
  std::string HttpSocketPath, PortFilePath, SuppressionsPath;
  std::string StatusJsonPath, RacesJsonPath;
  bool HttpTcp = false;
  uint16_t HttpPort = 0;
  double RateLimit = 1.0, RateBurst = 5.0;
  uint64_t ExitAfterClients = 0;
  bool Quiet = false;
  std::string SpoolDir;
  uint64_t CheckpointEvery = 64;
  uint64_t SessionTimeoutMs = 30000;
  uint64_t AckEveryBytes = 1 << 20;
  uint64_t KillAfterBytes = 0;
  bool ForceSpill = false;

  for (int I = 2; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--http-socket" && I + 1 < Argc) {
      HttpSocketPath = Argv[++I];
    } else if (Arg == "--http" && I + 1 < Argc) {
      HttpTcp = true;
      HttpPort = static_cast<uint16_t>(std::atoi(Argv[++I]));
    } else if (Arg == "--port-file" && I + 1 < Argc) {
      PortFilePath = Argv[++I];
    } else if (Arg == "--suppressions" && I + 1 < Argc) {
      SuppressionsPath = Argv[++I];
    } else if (Arg == "--rate-limit" && I + 1 < Argc) {
      RateLimit = std::atof(Argv[++I]);
    } else if (Arg == "--rate-burst" && I + 1 < Argc) {
      RateBurst = std::atof(Argv[++I]);
    } else if (Arg == "--exit-after-clients" && I + 1 < Argc) {
      ExitAfterClients = std::strtoull(Argv[++I], nullptr, 10);
    } else if (Arg == "--status-json" && I + 1 < Argc) {
      StatusJsonPath = Argv[++I];
    } else if (Arg == "--races-json" && I + 1 < Argc) {
      RacesJsonPath = Argv[++I];
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--spool-dir" && I + 1 < Argc) {
      SpoolDir = Argv[++I];
    } else if (Arg == "--checkpoint-every" && I + 1 < Argc) {
      CheckpointEvery = std::strtoull(Argv[++I], nullptr, 10);
    } else if (Arg == "--session-timeout-ms" && I + 1 < Argc) {
      SessionTimeoutMs = std::strtoull(Argv[++I], nullptr, 10);
    } else if (Arg == "--ack-every-bytes" && I + 1 < Argc) {
      AckEveryBytes = std::strtoull(Argv[++I], nullptr, 10);
    } else if (Arg == "--kill-after-bytes" && I + 1 < Argc) {
      KillAfterBytes = std::strtoull(Argv[++I], nullptr, 10);
    } else if (Arg == "--force-spill") {
      ForceSpill = true;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    }
  }

  SuppressionSet Suppressions;
  if (!SuppressionsPath.empty()) {
    std::string Error;
    if (!Suppressions.loadFile(SuppressionsPath, &Error)) {
      std::fprintf(stderr, "error: bad suppression file '%s': %s\n",
                   SuppressionsPath.c_str(), Error.c_str());
      return 2;
    }
    std::fprintf(stderr, "loaded %zu suppression(s) from %s\n",
                 Suppressions.size(), SuppressionsPath.c_str());
  }

  CollectorConfig Config;
  Config.IngestSocketPath = IngestPath;
  Config.Suppressions = &Suppressions;
  Config.Triage.RatePerSec = RateLimit;
  Config.Triage.Burst = RateBurst;
  Config.SpoolDir = SpoolDir;
  Config.CheckpointEveryUpdates = CheckpointEvery;
  Config.SessionIdleTimeoutMs = SessionTimeoutMs;
  Config.AckEveryBytes = AckEveryBytes;
  Config.TestForceSpill = ForceSpill;

  CollectorServer Server(std::move(Config));
  if (!Quiet) {
    Server.triage().setEmitter([](const TriagedRace &R, uint64_t Delta) {
      std::fprintf(stderr,
                   "race: fn%u:%u <-> fn%u:%u  x%llu (+%llu) in %llu "
                   "session(s)%s\n",
                   pcFunction(R.Key.first), pcSite(R.Key.first),
                   pcFunction(R.Key.second), pcSite(R.Key.second),
                   static_cast<unsigned long long>(R.DynamicCount),
                   static_cast<unsigned long long>(Delta),
                   static_cast<unsigned long long>(R.Sessions),
                   R.SawWriteWrite ? "  [write/write]" : "");
    });
  }

  std::string Error;
  if (!Server.start(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr, "listening for traces on %s\n", IngestPath.c_str());
  if (!SpoolDir.empty())
    std::fprintf(stderr, "spooling to %s (checkpoint every %llu updates)\n",
                 SpoolDir.c_str(),
                 static_cast<unsigned long long>(CheckpointEvery));

  // Deterministic daemon-kill fault injection: a watcher SIGKILLs this
  // process once the server has ingested N bytes (recovery replay
  // included, so a restarted daemon with a lower threshold dies again at
  // a reproducible point). No handler runs — recovery must work from
  // whatever the journals and checkpoint held at that instant.
  if (KillAfterBytes != 0) {
    std::thread([&Server, KillAfterBytes] {
      for (;;) {
        if (Server.bytesIngested() >= KillAfterBytes)
          ::kill(::getpid(), SIGKILL);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }).detach();
  }

  if (!HttpSocketPath.empty()) {
    if (!Server.serveHttpUnix(HttpSocketPath, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "serving http on %s\n", HttpSocketPath.c_str());
  }
  if (HttpTcp) {
    uint16_t Bound = 0;
    if (!Server.serveHttpTcp(HttpPort, &Bound, &Error)) {
      std::fprintf(stderr, "error: cannot serve http: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "serving http on 127.0.0.1:%u\n", Bound);
    if (!PortFilePath.empty())
      writeFile(PortFilePath, std::to_string(Bound) + "\n");
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  // Poll instead of blocking in waitForSessions(): a signal must win the
  // race against a client that never finishes.
  for (;;) {
    if (SignalSeen.load() != 0)
      break;
    if (ExitAfterClients != 0 &&
        Server.sessionsCompleted() >= ExitAfterClients)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (const int Sig = SignalSeen.load())
    std::fprintf(stderr, "signal %d: shutting down\n", Sig);

  Server.stop();

  if (!StatusJsonPath.empty() && !writeFile(StatusJsonPath, Server.statusJson()))
    std::fprintf(stderr, "warning: cannot write '%s'\n",
                 StatusJsonPath.c_str());
  if (!RacesJsonPath.empty() && !writeFile(RacesJsonPath, Server.racesJson()))
    std::fprintf(stderr, "warning: cannot write '%s'\n",
                 RacesJsonPath.c_str());

  // Final triage summary, literace-report style.
  const std::vector<TriagedRace> Races = Server.triage().races();
  uint64_t Unsuppressed = 0;
  for (const TriagedRace &R : Races) {
    if (R.Suppressed)
      continue;
    ++Unsuppressed;
    std::fprintf(stderr, "  fn%u:%u <-> fn%u:%u  x%llu  in %llu session(s)%s\n",
                 pcFunction(R.Key.first), pcSite(R.Key.first),
                 pcFunction(R.Key.second), pcSite(R.Key.second),
                 static_cast<unsigned long long>(R.DynamicCount),
                 static_cast<unsigned long long>(R.Sessions),
                 R.SawWriteWrite ? "  [write/write]" : "");
  }
  std::fprintf(stderr,
               "collected %llu session(s): %zu distinct race(s), %llu "
               "unsuppressed, %llu sighting(s), %llu suppressed "
               "sighting(s), %llu rate-limited update(s)\n",
               static_cast<unsigned long long>(Server.sessionsCompleted()),
               Races.size(),
               static_cast<unsigned long long>(Unsuppressed),
               static_cast<unsigned long long>(
                   Server.triage().totalSightings()),
               static_cast<unsigned long long>(
                   Server.triage().suppressedSightings()),
               static_cast<unsigned long long>(
                   Server.triage().rateLimitedUpdates()));
  const std::string Used = Suppressions.describeUsed();
  if (!Used.empty())
    std::fprintf(stderr, "%s", Used.c_str());
  if (!SpoolDir.empty())
    std::fprintf(stderr, "durability: %llu checkpoint(s) written\n",
                 static_cast<unsigned long long>(
                     Server.checkpointsWritten()));

  return Unsuppressed != 0 ? 3 : 0;
}
