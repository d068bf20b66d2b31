//===-- pipebench/src/Pipeline.cpp - The pipeline benchmark ---------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "Stats.h"

#include "collector/Collector.h"
#include "detector/HBDetector.h"
#include "detector/Replay.h"
#include "harness/DetectionExperiment.h"
#include "runtime/EventLog.h"
#include "runtime/Runtime.h"
#include "support/ByteOutput.h"
#include "support/Hashing.h"
#include "support/SplitMix64.h"
#include "telemetry/Json.h"
#include "telemetry/Metrics.h"

#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

using namespace literace;
using literace::collector::CollectorConfig;
using literace::collector::CollectorServer;
using literace::collector::ReportTriage;
using literace::collector::SessionStatus;
using literace::collector::TriagedRace;

namespace pipebench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Bytes per write() a client hands the socket.
constexpr size_t ClientWriteBytes = 64 << 10;

/// Clients of the live-collect closed loop. With their two reader
/// threads and the one detection thread this stays within nproc = 4
/// (the clients mostly wait for verdicts).
constexpr unsigned LiveClients = 2;

/// Share of a live-collect run spent on batch pipeline operations of the
/// session program (its batch metrics); the rest runs the closed loop.
constexpr double LiveBatchShare = 0.25;

/// Rounds a live-collect run is cut into. Each round runs the closed loop,
/// then batch operations, so both kinds of figure sample the whole run:
/// the host's speed drifts over seconds, and a figure taken from one
/// stretch of the run follows that stretch's speed.
constexpr unsigned LiveRounds = 6;

/// Set-ups of a batch workload's untraced run; set-up time is their median.
constexpr unsigned BatchSetupRepeats = 3;

/// Distinct recorded sessions live-collect's clients stream, so that no
/// one seed's session sets the figures. Recording one is one set-up.
constexpr unsigned LiveSessionInputs = 8;

/// Upper end of a live-collect client's think time before a session
/// (uniform, seeded), as a share of the client's previous session's
/// connect-to-verdict time. Without a think time the two clients lock
/// into one phase for long stretches (sessions ending together, or
/// staggered), and a run's verdict lag depends on which phase it caught.
/// Scaling it with the session time keeps the loop's duty cycle the same
/// on a slower or faster host, so the lag scales with the collector's
/// speed. A fixed think time would be subtracted from a cycle whose length
/// does scale, and the lag would swing more than the speed does.
constexpr double LiveThinkMaxShare = 0.5;

/// The program an operation records and the mode it records in.
struct ProgramSpec {
  WorkloadKind Kind;
  RunMode Mode;
  double Scale;
};

ProgramSpec programFor(WorkloadId W, double ScaleFactor) {
  switch (W) {
  case WorkloadId::ExecutorSampled:
    return {WorkloadKind::TaskExecutor, RunMode::LiteRace, 4.0 * ScaleFactor};
  case WorkloadId::RenderFull:
    return {WorkloadKind::BrowserRender, RunMode::FullLogging,
            4.0 * ScaleFactor};
  case WorkloadId::LiveCollect:
    break;
  }
  // live-collect sessions: an executor-sampled trace of ~0.5M events.
  return {WorkloadKind::TaskExecutor, RunMode::LiteRace, 1.0 * ScaleFactor};
}

/// The seed of operation \p Op of a run seeded \p Seed: it feeds both
/// WorkloadParams.Seed and RuntimeConfig.Seed.
uint64_t opSeed(uint64_t Seed, uint64_t Op) {
  return mix64(hashCombine(Seed, Op));
}

std::string joinPath(const std::string &Dir, const std::string &Name) {
  return Dir + "/" + Name;
}

//===-- Runtime layer: record ---------------------------------------------===//

/// Times every writeChunk call an application thread makes into the
/// wrapped sink, as spans and as a latency sample.
class TimedSink final : public LogSink {
public:
  TimedSink(LogSink &Inner, SpanRecorder &Spans, uint64_t OpId)
      : Inner(Inner), Spans(Spans), OpId(OpId) {}

  void setParent(SpanId P) { Parent = P; }

  void writeChunk(ThreadId Tid, const EventRecord *Records,
                  size_t Count) override {
    const uint64_t Start = Spans.nowNs();
    Inner.writeChunk(Tid, Records, Count);
    const uint64_t End = Spans.nowNs();
    Spans.add("runtime.sink.write", Start, End, Parent, OpId, 100 + Tid);
    std::lock_guard<std::mutex> Guard(Lock);
    CallNs.push_back(static_cast<double>(End - Start));
    TotalNs += End - Start;
  }
  void flush() override { Inner.flush(); }
  void noteLostChunk(ThreadId Tid, size_t Count) override {
    Inner.noteLostChunk(Tid, Count);
  }

  std::vector<double> callNs() const {
    std::lock_guard<std::mutex> Guard(Lock);
    return CallNs;
  }
  uint64_t totalNs() const {
    std::lock_guard<std::mutex> Guard(Lock);
    return TotalNs;
  }

private:
  LogSink &Inner;
  SpanRecorder &Spans;
  const uint64_t OpId;
  SpanId Parent = NoSpan;
  mutable std::mutex Lock;
  std::vector<double> CallNs; // guarded by Lock
  uint64_t TotalNs = 0;       // guarded by Lock
};

enum class SinkKind { None, Null, File };

struct RecordOutcome {
  bool Failed = false;
  std::string Why;
  double Seconds = 0.0;
  uint64_t Events = 0;
  uint64_t FileBytes = 0;
  std::vector<SeededRaceSpec> Manifest;
  telemetry::MetricsSnapshot Runtime;
  /// Timed-sink figures (traced records only).
  std::vector<double> WriteCallNs;
  uint64_t WriteTotalNs = 0;
  /// Record time outside the sink (traced records only).
  double SelfSeconds = 0.0;
};

/// Runs the program once. SinkKind::None runs it in RunMode::Baseline;
/// Null records into a NullSink; File records into a SegmentedFileSink
/// with default-constructed Options at \p Path. The timed window is
/// Workload::run plus closing the sink.
RecordOutcome recordProgram(const ProgramSpec &Spec, uint64_t Seed,
                            SinkKind Kind, const std::string &Path,
                            SpanRecorder &Spans, SpanId Parent,
                            uint64_t OpId) {
  RecordOutcome Out;
  // The whole instance (construction, bind, run, teardown); the timed
  // window is its child span.
  ScopedSpan Program(Spans, "runtime.program", Parent, OpId);
  WorkloadParams Params;
  Params.Scale = Spec.Scale;
  Params.Seed = Seed;

  std::unique_ptr<SegmentedFileSink> File;
  std::unique_ptr<NullSink> Null;
  LogSink *Sink = nullptr;
  if (Kind == SinkKind::File) {
    File = std::make_unique<SegmentedFileSink>(Path, 128,
                                               SegmentedFileSink::Options());
    if (!File->ok()) {
      Out.Failed = true;
      Out.Why = "cannot open trace file " + Path;
      return Out;
    }
    Sink = File.get();
  } else if (Kind == SinkKind::Null) {
    Null = std::make_unique<NullSink>();
    Sink = Null.get();
  }
  std::unique_ptr<TimedSink> Timed;
  if (Sink && Spans.enabled()) {
    Timed = std::make_unique<TimedSink>(*Sink, Spans, OpId);
    Sink = Timed.get();
  }

  telemetry::MetricsRegistry Registry;
  RuntimeConfig Config;
  Config.Mode = Kind == SinkKind::None ? RunMode::Baseline : Spec.Mode;
  Config.Seed = Seed;
  Config.Metrics = &Registry;
  Runtime RT(Config, Sink);
  std::unique_ptr<Workload> W = makeWorkload(Spec.Kind);
  W->bind(RT);

  const char *Name = Kind == SinkKind::None   ? "runtime.baseline"
                     : Kind == SinkKind::Null ? "runtime.record_nullsink"
                                              : "runtime.record";
  bool Closed = true;
  const SpanId Span = Spans.begin(Name, Program.id(), OpId);
  if (Timed)
    Timed->setParent(Span);
  const Clock::time_point Start = Clock::now();
  W->run(RT, Params);
  if (File)
    Closed = File->close();
  Out.Seconds = secondsSince(Start);
  Spans.end(Span);
  if (Span != NoSpan)
    Out.SelfSeconds = static_cast<double>(Spans.selfNsOf(Span)) / 1e9;
  Out.Manifest = W->seededRaces();
  Out.Runtime = RT.metricsSnapshot();
  if (File) {
    Out.Events = File->eventsWritten();
    Out.FileBytes = fileSizeOnDisk(Path);
    if (!Closed || File->eventsDropped() != 0) {
      Out.Failed = true;
      Out.Why = "sink lost events while recording";
    }
  }
  if (Timed) {
    Out.WriteCallNs = Timed->callNs();
    Out.WriteTotalNs = Timed->totalNs();
  }
  return Out;
}

//===-- Detector layer: probes --------------------------------------------===//

/// A consumer that does nothing with the events it is handed, so a
/// replay into it times replay ordering alone. It takes memory runs the
/// way HBDetector does, so the replay loop batches exactly as it does
/// for HB, and it counts those runs.
class NoOpConsumer final : public TraceConsumer {
public:
  void onEvent(const EventRecord &R) override {
    ++Events;
    Checksum += R.Addr;
  }

  size_t onMemoryRun(const EventRecord *Records, size_t MaxCount) {
    size_t N = 0;
    while (N != MaxCount && isMemoryKind(Records[N].Kind)) {
      Checksum += Records[N].Addr;
      ++N;
    }
    ++MemoryRuns;
    MemoryEvents += N;
    Events += N;
    return N;
  }

  uint64_t Events = 0;
  uint64_t MemoryRuns = 0;
  uint64_t MemoryEvents = 0;
  uint64_t Checksum = 0;
};

/// Per-layer figures of the analyze side that need a probe of their own
/// (one layer timed in isolation on the operation's trace).
struct ProbeSample {
  double NullSinkRecordS = 0.0;
  double ReplayNsPerEvent = 0.0;
  double MeanMemoryRun = 0.0;
  double ShadowAddresses = 0.0;
  double StaticRaces = 0.0;
  double Sightings = 0.0;
  double StreamDecodeNsPerEvent = 0.0;
  double ScheduleNsPerEvent = 0.0;
  double ScheduleDetectNsPerEvent = 0.0;
  bool Ok = true;
  std::string Why;
};

double nsPerEvent(uint64_t Ns, uint64_t Events) {
  return Events ? static_cast<double>(Ns) / static_cast<double>(Events) : 0.0;
}

/// Runs \p Body as one span without children; returns its nanoseconds.
template <typename Fn>
uint64_t timedSpan(SpanRecorder &Spans, const char *Name, SpanId Parent,
                   uint64_t OpId, Fn &&Body) {
  const uint64_t Start = Spans.nowNs();
  Body();
  const uint64_t End = Spans.nowNs();
  Spans.add(Name, Start, End, Parent, OpId);
  return End - Start;
}

/// Times each analyze-side layer in isolation on trace \p T, whose v2
/// bytes are \p Bytes: replayTraceWith into a no-op consumer,
/// HBDetector's shadow state, SegmentStreamDecoder feed/take, and
/// ReplayScheduler addEvents/drain into a no-op consumer and into
/// HBDetector.
ProbeSample probeLayers(const Trace &T, const std::vector<uint8_t> &Bytes,
                        SpanRecorder &Spans, SpanId Parent, uint64_t OpId) {
  ProbeSample P;
  const uint64_t Events = T.totalEvents();
  {
    NoOpConsumer C;
    bool Consistent = false;
    P.ReplayNsPerEvent = nsPerEvent(
        timedSpan(Spans, "detector.replay", Parent, OpId,
                  [&] { Consistent = replayTraceWith(T, C); }),
        Events);
    P.MeanMemoryRun = C.MemoryRuns ? static_cast<double>(C.MemoryEvents) /
                                         static_cast<double>(C.MemoryRuns)
                                   : 0.0;
    if (!Consistent || C.Events != Events) {
      P.Ok = false;
      P.Why = "no-op replay did not deliver every event";
    }
  }
  {
    RaceReport Report;
    HBDetector D(Report);
    ScopedSpan S(Spans, "detector.hb.shadow", Parent, OpId);
    replayTraceWith(T, D);
    P.ShadowAddresses = static_cast<double>(D.shadowAddressCount());
    P.StaticRaces = static_cast<double>(Report.numStaticRaces());
    P.Sightings = static_cast<double>(Report.numDynamicSightings());
  }
  std::vector<SegmentStreamDecoder::Chunk> Chunks;
  unsigned Counters = 128;
  {
    SegmentStreamDecoder Decoder;
    auto TakeAll = [&] {
      SegmentStreamDecoder::Chunk C;
      while (Decoder.take(C))
        Chunks.push_back(std::move(C));
    };
    const uint64_t Ns = timedSpan(Spans, "collector.decode", Parent, OpId, [&] {
      for (size_t At = 0; At < Bytes.size(); At += ClientWriteBytes) {
        Decoder.feed(Bytes.data() + At,
                     std::min(ClientWriteBytes, Bytes.size() - At));
        TakeAll();
      }
      Decoder.finish();
      TakeAll();
    });
    P.StreamDecodeNsPerEvent = nsPerEvent(Ns, Events);
    Counters = Decoder.numTimestampCounters();
    if (!Decoder.footerSeen() || Decoder.stats().EventsRecovered != Events) {
      P.Ok = false;
      P.Why = "stream decode of the trace bytes was not clean";
    }
  }
  auto Schedule = [&](const char *Name, TraceConsumer &C) {
    ReplayScheduler Scheduler(Counters);
    size_t Delivered = 0;
    const uint64_t Ns = timedSpan(Spans, Name, Parent, OpId, [&] {
      for (const SegmentStreamDecoder::Chunk &Chunk : Chunks) {
        Scheduler.addEvents(Chunk.Tid, Chunk.Records.data(),
                            Chunk.Records.size());
        Delivered += Scheduler.drain(C);
      }
    });
    if (Delivered != Events) {
      P.Ok = false;
      P.Why = std::string(Name) + " did not deliver every event";
    }
    return nsPerEvent(Ns, Events);
  };
  {
    NoOpConsumer C;
    P.ScheduleNsPerEvent = Schedule("collector.schedule", C);
  }
  {
    RaceReport Report;
    HBDetector D(Report);
    P.ScheduleDetectNsPerEvent = Schedule("collector.schedule_detect", D);
  }
  return P;
}

//===-- Analyze stage -----------------------------------------------------===//

/// Outcome of the analyze stage on one trace file.
struct AnalyzeOutcome {
  bool Failed = false;
  std::string Why;
  uint64_t Events = 0;
  double Seconds = 0.0;
  size_t SeededDetected = 0;
  size_t SeededTotal = 0;
  RaceReport Report;
};

/// The analyze stage: readTrace -> detectRaces -> ReportTriage::observe,
/// then the manifest check. Fails on any read that is not Ok, an
/// inconsistent replay, or a reported race outside every seeded family.
AnalyzeOutcome analyzeTraceFile(const std::string &Path,
                                const std::vector<SeededRaceSpec> &Manifest,
                                SpanRecorder &Spans, SpanId Parent,
                                uint64_t OpId) {
  AnalyzeOutcome Out;
  ScopedSpan Analyze(Spans, "analyze", Parent, OpId);
  const Clock::time_point Start = Clock::now();
  TraceReadResult Read;
  {
    ScopedSpan S(Spans, "runtime.decode", Analyze.id(), OpId);
    Read = readTrace(Path);
  }
  Out.Events = Read.T.totalEvents();
  bool Consistent = false;
  {
    ScopedSpan S(Spans, "detector.hb", Analyze.id(), OpId);
    Consistent = detectRaces(Read.T, Out.Report);
  }
  {
    ScopedSpan S(Spans, "collector.triage", Analyze.id(), OpId);
    ReportTriage Triage;
    for (const StaticRace &R : Out.Report.staticRaces())
      Triage.observe(R.Key, R.DynamicCount, R.SawWriteWrite, R.ExampleAddr,
                     OpId);
  }
  Out.Seconds = secondsSince(Start);

  const auto [Detected, AllWithin] =
      validateAgainstManifest(Out.Report, Manifest);
  Out.SeededDetected = Detected;
  Out.SeededTotal = Manifest.size();
  if (Read.Status != TraceReadStatus::Ok) {
    Out.Failed = true;
    Out.Why = "readTrace was not Ok: " +
              (Read.Error.empty() ? std::string("salvaged") : Read.Error);
  } else if (!Consistent) {
    Out.Failed = true;
    Out.Why = "replay found the trace inconsistent";
  } else if (!AllWithin) {
    Out.Failed = true;
    Out.Why = "a reported race lies outside every seeded family";
  }
  return Out;
}

//===-- Collector layer: sessions -----------------------------------------===//

/// Static race -> (dynamic sightings, sessions), as the triage table
/// holds them.
using TriageTable = std::map<StaticRaceKey, std::pair<uint64_t, uint64_t>>;

/// What a session's verdict must match: batch detection of its bytes.
struct SessionExpect {
  uint64_t Events = 0;
  const RaceReport *Report = nullptr;
};

struct SessionOutcome {
  bool Failed = false;
  std::string Why;
  uint64_t Events = 0;
  /// Last byte written to the collector showing the session complete.
  double LagMs = 0.0;
  /// Connect to verdict.
  double WallS = 0.0;
};

/// An in-process CollectorServer on an AF_UNIX socket, and the client
/// side of its sessions.
class LiveCollector {
public:
  explicit LiveCollector(std::string SocketPath)
      : Socket(std::move(SocketPath)) {}
  ~LiveCollector() {
    if (Server)
      Server->stop();
    ::unlink(Socket.c_str());
  }
  LiveCollector(const LiveCollector &) = delete;
  LiveCollector &operator=(const LiveCollector &) = delete;

  bool start(std::string &Error) {
    CollectorConfig Config;
    Config.IngestSocketPath = Socket;
    Config.Metrics = &Registry;
    Server = std::make_unique<CollectorServer>(std::move(Config));
    return Server->start(&Error);
  }

  /// Streams \p Bytes as one session, waits for its verdict and checks
  /// it: clean, nothing dropped, every event detected, and as many
  /// static races as batch detection of the same bytes.
  SessionOutcome stream(const std::vector<uint8_t> &Bytes,
                        const SessionExpect &Expect, SpanRecorder &Spans,
                        SpanId Parent, uint64_t OpId, uint32_t Lane) {
    SessionOutcome Out;
    ScopedSpan Session(Spans, "collector.session", Parent, OpId, Lane);
    const Clock::time_point Start = Clock::now();
    Clock::time_point LastByte;
    uint64_t Id = 0;
    {
      ScopedSpan Write(Spans, "collector.ingest.client_write", Session.id(),
                       OpId, Lane);
      SocketByteOutput Client(Socket);
      size_t At = 0;
      {
        // One connection at a time until the server has accepted it, so
        // the newest session id is this client's.
        std::lock_guard<std::mutex> Guard(ConnectLock);
        const uint64_t Before = Server->sessionsAccepted();
        At = writeSome(Client, Bytes, 0);
        const Clock::time_point Deadline =
            Clock::now() + std::chrono::seconds(30);
        while (Client.ok() && Server->sessionsAccepted() == Before &&
               Clock::now() < Deadline)
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        for (const SessionStatus &S : Server->sessionStatuses())
          Id = std::max(Id, S.Id);
        if (Server->sessionsAccepted() == Before)
          Id = 0;
      }
      while (Client.ok() && At < Bytes.size())
        At = writeSome(Client, Bytes, At);
      LastByte = Clock::now();
      Client.close();
      if (At != Bytes.size() || Id == 0) {
        Out.Failed = true;
        Out.Why = "client could not deliver the session bytes";
        return Out;
      }
    }
    SessionStatus Final;
    {
      ScopedSpan Wait(Spans, "collector.verdict_wait", Session.id(), OpId,
                      Lane);
      for (;;) {
        const uint64_t Completed = Server->sessionsCompleted();
        Final = status(Id);
        if (!Final.Active)
          break;
        Server->waitForSessions(Completed + 1);
      }
    }
    const Clock::time_point Verdict = Clock::now();
    Out.LagMs =
        std::chrono::duration<double, std::milli>(Verdict - LastByte).count();
    Out.WallS = std::chrono::duration<double>(Verdict - Start).count();
    Out.Events = Final.Events;

    if (!Final.Clean)
      Out.Why = "session did not end clean";
    else if (Final.BytesDropped || Final.SegmentsDropped ||
             Final.Bytes != Bytes.size())
      Out.Why = "session dropped bytes";
    else if (Final.Events != Expect.Events)
      Out.Why = "session detected " + std::to_string(Final.Events) + " of " +
                std::to_string(Expect.Events) + " events";
    else if (Final.Races != Expect.Report->numStaticRaces())
      Out.Why = "live race count differs from detectRaces on the same bytes";
    Out.Failed = !Out.Why.empty();
    return Out;
  }

  /// Triage table snapshot: static race -> (dynamic count, sessions).
  TriageTable triageTable() const {
    TriageTable Table;
    for (const TriagedRace &R : Server->triage().races())
      Table[R.Key] = {R.DynamicCount, R.Sessions};
    return Table;
  }

  /// ingest.queue.{high_water, producer_parks} from /status.
  std::pair<uint64_t, uint64_t> queueStats() const {
    const auto Doc = telemetry::parseJson(Server->statusJson());
    const telemetry::JsonValue *Queue = nullptr;
    if (Doc)
      if (const telemetry::JsonValue *Ingest = Doc->find("ingest"))
        Queue = Ingest->find("queue");
    if (!Queue)
      return {0, 0};
    auto Field = [&](const char *Name) -> uint64_t {
      const telemetry::JsonValue *V = Queue->find(Name);
      return V && V->IsUInt ? V->UInt : 0;
    };
    return {Field("high_water"), Field("producer_parks")};
  }

private:
  static size_t writeSome(SocketByteOutput &Out,
                          const std::vector<uint8_t> &Bytes, size_t At) {
    const WriteResult W = Out.write(
        Bytes.data() + At, std::min(ClientWriteBytes, Bytes.size() - At));
    if (W.Written == 0 && !W.Transient)
      Out.close();
    return At + W.Written;
  }

  SessionStatus status(uint64_t Id) const {
    for (const SessionStatus &S : Server->sessionStatuses())
      if (S.Id == Id)
        return S;
    return SessionStatus();
  }

  const std::string Socket;
  telemetry::MetricsRegistry Registry; // outlives Server
  std::unique_ptr<CollectorServer> Server;
  std::mutex ConnectLock;
};

/// Adds one session's batch verdict to an expected triage table.
void addExpected(TriageTable &Expected, const RaceReport &Batch) {
  for (const StaticRace &R : Batch.staticRaces()) {
    std::pair<uint64_t, uint64_t> &E = Expected[R.Key];
    E.first += R.DynamicCount;
    E.second += 1;
  }
}

/// Checks the triage table's change from \p Before to \p After against
/// batch detection of the same sessions' bytes (\p Expected): exactly
/// the batch race set, with the batch dynamic counts and session counts.
std::string checkTriageDelta(const TriageTable &Before,
                             const TriageTable &After,
                             const TriageTable &Expected) {
  TriageTable Delta;
  for (const auto &[Key, V] : After) {
    const auto It = Before.find(Key);
    const std::pair<uint64_t, uint64_t> Old =
        It == Before.end() ? std::pair<uint64_t, uint64_t>{0, 0} : It->second;
    if (V != Old)
      Delta[Key] = {V.first - Old.first, V.second - Old.second};
  }
  for (const auto &[Key, V] : Expected)
    if (!Delta.count(Key))
      return "live race set differs from detectRaces on the same bytes";
  for (const auto &[Key, V] : Delta) {
    const auto It = Expected.find(Key);
    if (It == Expected.end())
      return "live race set differs from detectRaces on the same bytes";
    if (It->second != V)
      return "live race counts differ from detectRaces on the same bytes";
  }
  return "";
}

//===-- One pipeline operation --------------------------------------------===//

/// Inverts the byte in the middle of the file at \p Path.
void flipMiddleByte(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "r+b");
  if (!F)
    return;
  const long At = static_cast<long>(fileSizeOnDisk(Path) / 2);
  if (std::fseek(F, At, SEEK_SET) == 0) {
    const int Byte = std::fgetc(F);
    if (Byte != EOF && std::fseek(F, At, SEEK_SET) == 0)
      std::fputc(Byte ^ 0xff, F);
  }
  std::fclose(F);
}

/// End-to-end figures of one operation.
struct OpSample {
  bool Failed = false;
  std::string Why;
  double WallS = 0.0;
  double BaselineS = 0.0;
  double RecordS = 0.0;
  double LogMb = 0.0;
  double AnalyzeS = 0.0;
  double AnalyzeEventsPerS = 0.0;
  double Recall = 0.0;
  /// Collect stage: session events over connect-to-verdict time.
  double SessionEventsPerS = 0.0;
  double LagMs = 0.0;
  /// Events the collector detected in the session.
  uint64_t Events = 0;
};

struct PipelineOp {
  OpSample S;
  RecordOutcome Rec;
  AnalyzeOutcome An;
  std::vector<uint8_t> Bytes;
};

/// Each stage of an operation stands for its own process (the
/// instrumented program, literace-report, literace-collectd). Between
/// stages, hand freed heap back to the OS as a process exit would, so
/// peak_rss_mb is the largest stage's own need, not that plus what an
/// earlier stage's threads left cached in their malloc arenas.
void releaseHeap(SpanRecorder &Spans, SpanId Parent, uint64_t OpId) {
  ScopedSpan S(Spans, "release_heap", Parent, OpId);
  malloc_trim(0);
}

/// record -> analyze (-> collect, when \p Collect is set): one Baseline
/// run for the slowdown's base, one recorded run into a v2 file, batch
/// analysis of the file, and the file's bytes streamed to the collector
/// as one session whose verdict must equal the batch one.
PipelineOp runPipelineOp(const ProgramSpec &Spec, uint64_t Seed,
                         const std::string &Path, LiveCollector *Collect,
                         SpanRecorder &Spans, uint64_t OpId,
                         bool CorruptTrace = false) {
  PipelineOp P;
  OpSample &S = P.S;
  ScopedSpan Op(Spans, "op", NoSpan, OpId);
  const Clock::time_point Start = Clock::now();
  auto Fail = [&](std::string Why) {
    S.Failed = true;
    S.Why = std::move(Why);
    S.WallS = secondsSince(Start);
    return std::move(P);
  };

  const RecordOutcome Base =
      recordProgram(Spec, Seed, SinkKind::None, "", Spans, Op.id(), OpId);
  P.Rec = recordProgram(Spec, Seed, SinkKind::File, Path, Spans, Op.id(), OpId);
  S.BaselineS = Base.Seconds;
  S.RecordS = P.Rec.Seconds;
  S.LogMb = static_cast<double>(P.Rec.FileBytes) / 1e6;
  if (P.Rec.Failed)
    return Fail(P.Rec.Why);
  if (CorruptTrace)
    flipMiddleByte(Path);

  releaseHeap(Spans, Op.id(), OpId);
  P.An = analyzeTraceFile(Path, P.Rec.Manifest, Spans, Op.id(), OpId);
  S.AnalyzeS = P.An.Seconds;
  S.AnalyzeEventsPerS =
      P.An.Seconds > 0 ? static_cast<double>(P.An.Events) / P.An.Seconds : 0;
  S.Recall = P.An.SeededTotal ? static_cast<double>(P.An.SeededDetected) /
                                    static_cast<double>(P.An.SeededTotal)
                              : 0.0;
  if (P.An.Failed)
    return Fail(P.An.Why);
  if (P.An.Events != P.Rec.Events)
    return Fail("decoded " + std::to_string(P.An.Events) + " of " +
                std::to_string(P.Rec.Events) + " recorded events");

  releaseHeap(Spans, Op.id(), OpId);
  {
    ScopedSpan Read(Spans, "collector.client_read", Op.id(), OpId);
    P.Bytes = readFileBytes(Path);
  }
  if (Collect) {
    const auto Before = Collect->triageTable();
    const SessionOutcome Session = Collect->stream(
        P.Bytes, SessionExpect{P.An.Events, &P.An.Report}, Spans, Op.id(),
        OpId, 0);
    S.LagMs = Session.LagMs;
    S.SessionEventsPerS =
        Session.WallS > 0 ? static_cast<double>(Session.Events) / Session.WallS
                          : 0.0;
    if (Session.Failed)
      return Fail(Session.Why);
    TriageTable Expected;
    addExpected(Expected, P.An.Report);
    const std::string Why =
        checkTriageDelta(Before, Collect->triageTable(), Expected);
    if (!Why.empty())
      return Fail(Why);
  }
  releaseHeap(Spans, Op.id(), OpId);
  S.WallS = secondsSince(Start);
  return P;
}

std::vector<double> spanDurationsNs(const SpanRecorder &Spans,
                                    const std::string &Name) {
  std::vector<double> Out;
  for (const Span &S : Spans.spans())
    if (S.Name == Name)
      Out.push_back(static_cast<double>(S.durationNs()));
  return Out;
}

/// Per-layer figures of traced operations, plus the probes.
struct LayerSamples {
  std::vector<double> RecordSelfS, DispatchChecks, SampledShare, MemOps,
      SyncOps, WriteNsPerEvent, WriteCallUs, BytesPerEvent;
  uint64_t AnalyzedEvents = 0;
  uint64_t AnalyzedBytes = 0;
  std::vector<ProbeSample> Probes;
  std::vector<double> TracedWallS, UntracedWallS;

  void addRecord(const PipelineOp &P) {
    const RecordOutcome &R = P.Rec;
    RecordSelfS.push_back(R.SelfSeconds);
    const double Checks =
        static_cast<double>(R.Runtime.counter("runtime.dispatch_checks"));
    DispatchChecks.push_back(Checks);
    SampledShare.push_back(
        Checks > 0 ? static_cast<double>(R.Runtime.counter(
                         "runtime.sampled_activations")) /
                         Checks
                   : 0.0);
    MemOps.push_back(
        static_cast<double>(R.Runtime.counter("runtime.memops_logged")));
    SyncOps.push_back(
        static_cast<double>(R.Runtime.counter("runtime.syncops_logged")));
    WriteNsPerEvent.push_back(nsPerEvent(R.WriteTotalNs, R.Events));
    for (double Ns : R.WriteCallNs)
      WriteCallUs.push_back(Ns / 1000.0);
    BytesPerEvent.push_back(R.Events ? static_cast<double>(R.FileBytes) /
                                           static_cast<double>(R.Events)
                                     : 0.0);
    AnalyzedEvents += P.An.Events;
    AnalyzedBytes += R.FileBytes;
  }
};

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return Sum / static_cast<double>(V.size());
}

template <typename Fn>
std::vector<double> collect(const std::vector<OpSample> &Ops, Fn Get) {
  std::vector<double> Out;
  for (const OpSample &S : Ops)
    if (!S.Failed)
      Out.push_back(Get(S));
  return Out;
}

bool makeDirs(const std::string &Path) {
  for (size_t At = Path.find('/', 1);; At = Path.find('/', At + 1)) {
    const std::string Prefix = Path.substr(0, At);
    if (::mkdir(Prefix.c_str(), 0755) != 0 && errno != EEXIST)
      return false;
    if (At == std::string::npos)
      return true;
  }
}

} // namespace

//===-- Metrics -----------------------------------------------------------===//

const std::vector<MetricDecl> &endToEndMetrics() {
  static const std::vector<MetricDecl> Decls = {
      {"setup_s", "s"},
      {"record_s", "s"},
      {"record_slowdown", "x"},
      {"log_mb", "MB"},
      {"analyze_s", "s"},
      {"analyze_events_per_s", "1/s"},
      {"seeded_recall", "share"},
      {"peak_rss_mb", "MB"},
      {"live_events_per_s", "1/s"},
      {"verdict_lag_p50_ms", "ms"},
      {"verdict_lag_tail_ms", "ms"},
      {"ok_op_share", "share"},
  };
  return Decls;
}

const std::vector<MetricDecl> &perLayerMetrics() {
  static const std::vector<MetricDecl> Decls = {
      {"runtime.record_nullsink_s", "s"},
      {"runtime.record_self_s", "s"},
      {"runtime.dispatch_checks", "count"},
      {"runtime.sampled_share", "share"},
      {"runtime.memops_logged", "count"},
      {"runtime.syncops_logged", "count"},
      {"runtime.sink.write_ns_per_event", "ns"},
      {"runtime.sink.write_p50_us", "us"},
      {"runtime.sink.write_tail_us", "us"},
      {"runtime.sink.bytes_per_event", "B"},
      {"runtime.decode.ns_per_event", "ns"},
      {"runtime.decode.mb_per_s", "MB/s"},
      {"detector.replay.ns_per_event", "ns"},
      {"detector.replay.mean_memory_run", "count"},
      {"detector.hb.ns_per_event", "ns"},
      {"detector.hb.self_ns_per_event", "ns"},
      {"detector.hb.shadow_addresses", "count"},
      {"detector.hb.static_races", "count"},
      {"detector.hb.sightings", "count"},
      {"collector.triage.observe_ns", "ns"},
      {"collector.ingest.client_write_ms", "ms"},
      {"collector.ingest.queue_highwater", "count"},
      {"collector.ingest.producer_parks", "count"},
      {"collector.decode.ns_per_event", "ns"},
      {"collector.schedule.ns_per_event", "ns"},
      {"collector.detect.ns_per_event", "ns"},
      {"trace_overhead_share", "share"},
      {"failed_op_share", "share"},
      {"host.calib_gb_per_s", "GB/s"},
  };
  return Decls;
}

const char *workloadName(WorkloadId W) {
  switch (W) {
  case WorkloadId::ExecutorSampled:
    return "executor-sampled";
  case WorkloadId::RenderFull:
    return "render-full";
  case WorkloadId::LiveCollect:
    return "live-collect";
  }
  return "?";
}

std::optional<WorkloadId> workloadByName(const std::string &Name) {
  for (WorkloadId W : {WorkloadId::ExecutorSampled, WorkloadId::RenderFull,
                       WorkloadId::LiveCollect})
    if (Name == workloadName(W))
      return W;
  return std::nullopt;
}

namespace {

/// Fills R.Metrics from \p Values in the declared order; a declared
/// metric without a value is a benchmark bug and fails the run.
void emitMetrics(BenchResult &R, const std::vector<MetricDecl> &Decls,
                 const std::map<std::string, double> &Values) {
  for (const MetricDecl &D : Decls) {
    const auto It = Values.find(D.Name);
    if (It == Values.end()) {
      R.Correct = false;
      R.Errors.push_back(std::string("metric not measured: ") + D.Name);
      continue;
    }
    if (!std::isfinite(It->second)) {
      R.Correct = false;
      R.Errors.push_back(std::string("metric is not finite: ") + D.Name);
    }
    R.Metrics.push_back(Metric{D.Name, D.Unit, It->second});
  }
}

} // namespace

//===-- The benchmark -----------------------------------------------------===//

BenchResult runBenchmark(const BenchOptions &O) {
  BenchResult R;
  R.Host = probeHost();
  auto Abort = [&](std::string Why) {
    R.Correct = false;
    R.Errors.push_back(std::move(Why));
    return R;
  };
  if (!makeDirs(O.WorkDir))
    return Abort("cannot create " + O.WorkDir);

  const bool Live = O.Workload == WorkloadId::LiveCollect;
  const ProgramSpec Spec = programFor(O.Workload, O.ScaleFactor);
  const std::string Tag =
      std::string(workloadName(O.Workload)) + "-" + std::to_string(::getpid());
  const std::string TracePath = joinPath(O.WorkDir, Tag + ".lrlog");
  const std::string Socket = joinPath(O.WorkDir, Tag + ".sock");
  SpanRecorder Spans(O.Trace);
  SpanRecorder Off(false);
  LayerSamples Layers;

  std::vector<OpSample> SetupOps; // live-collect: the session pipelines
  std::vector<OpSample> BatchOps; // record -> analyze (-> collect) ops
  std::vector<OpSample> Sessions; // live-collect: closed-loop sessions
  std::vector<double> SetupS;
  std::unique_ptr<LiveCollector> Collector;
  // live-collect: the sessions the clients stream, round robin. Several
  // recorded inputs, so one seed's session does not set the figures.
  std::vector<PipelineOp> Pool;

  // ---- Set-up, repeated; set-up time is the median. Each repetition
  // starts a collector (the last one is kept) and, for live-collect,
  // records one of the sessions its clients will stream.
  const unsigned SetupRepeats =
      Live ? LiveSessionInputs : (O.Trace ? 1 : BatchSetupRepeats);
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    const Clock::time_point Start = Clock::now();
    Collector.reset();
    Collector = std::make_unique<LiveCollector>(Socket);
    std::string Error;
    if (!Collector->start(Error))
      return Abort("collector did not start: " + Error);
    if (Live) {
      // A session: one executor-sampled pipeline, recorded, analyzed in
      // batch (the reference verdict) and read back as bytes.
      Pool.push_back(runPipelineOp(Spec, opSeed(O.Seed, Rep), TracePath,
                                   nullptr, Off, 0));
      SetupOps.push_back(Pool.back().S);
      if (Pool.back().S.Failed)
        return Abort("set-up session failed: " + Pool.back().S.Why);
    } else {
      // Warm-up: one uninstrumented run of the program.
      recordProgram(Spec, opSeed(O.Seed, 0), SinkKind::None, "", Off, NoSpan,
                    0);
    }
    SetupS.push_back(secondsSince(Start));
  }

  // ---- The measured loop. Batch workloads run pipeline operations until
  // the deadline. live-collect runs rounds of closed-loop sessions, each
  // followed by pipeline operations of the session program for its batch
  // metrics.
  auto After = [](Clock::time_point From, double Seconds) {
    return From + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(Seconds));
  };
  const Clock::time_point LoopStart = Clock::now();
  uint64_t Op = 1;
  auto RunBatchOps = [&](Clock::time_point Deadline) {
    const size_t MinOps = O.Trace ? 2 : 1;
    while (BatchOps.size() < MinOps || Clock::now() < Deadline) {
      const bool Traced = O.Trace && Op % 2 == 0;
      PipelineOp P =
          runPipelineOp(Spec, opSeed(O.Seed, Op), TracePath,
                        Live ? nullptr : Collector.get(), Traced ? Spans : Off,
                        Op, O.CorruptTraces);
      if (P.S.Failed)
        R.Errors.push_back("op " + std::to_string(Op) + ": " + P.S.Why);
      else if (Traced)
        Layers.addRecord(P);
      if (!P.S.Failed && !Live)
        (Traced ? Layers.TracedWallS : Layers.UntracedWallS)
            .push_back(P.S.WallS);
      BatchOps.push_back(P.S);
      ++Op;
    }
  };
  if (!Live)
    RunBatchOps(After(LoopStart, O.Seconds));

  double LiveWindowS = 0.0;
  if (Live) {
    std::mutex Lock;
    std::atomic<uint64_t> NextOp{0};
    TriageTable Expected;
    std::vector<SplitMix64> Think;
    for (unsigned C = 0; C != LiveClients; ++C)
      Think.emplace_back(hashCombine(O.Seed, C + 1));
    // Each client's previous connect-to-verdict time; its think time
    // scales with it. The first session of the run starts at once.
    std::vector<double> LastWallS(LiveClients, 0.0);
    const double RoundS = O.Seconds / LiveRounds;
    for (unsigned Round = 0; Round != LiveRounds; ++Round) {
      const Clock::time_point LiveStart = Clock::now();
      const Clock::time_point Deadline =
          After(LoopStart, RoundS * (Round + 1.0 - LiveBatchShare));
      Clock::time_point LastVerdict = LiveStart;
      std::vector<std::thread> Clients;
      for (unsigned C = 0; C != LiveClients; ++C)
        Clients.emplace_back([&, C] {
          for (;;) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                Think[C].nextDouble() * LiveThinkMaxShare * LastWallS[C]));
            if (Clock::now() >= Deadline)
              break;
            const uint64_t N = NextOp.fetch_add(1);
            const uint64_t SessionOp = (1u << 20) + N;
            const PipelineOp &Input = Pool[N % Pool.size()];
            const bool Traced = O.Trace && N % 2 == 1;
            const SessionOutcome Out = Collector->stream(
                Input.Bytes, SessionExpect{Input.An.Events, &Input.An.Report},
                Traced ? Spans : Off, NoSpan, SessionOp, C + 1);
            LastWallS[C] = Out.WallS;
            OpSample S;
            S.Failed = Out.Failed;
            S.Why = Out.Why;
            S.WallS = Out.WallS;
            S.LagMs = Out.LagMs;
            S.Events = Out.Events;
            std::lock_guard<std::mutex> Guard(Lock);
            LastVerdict = std::max(LastVerdict, Clock::now());
            addExpected(Expected, Input.An.Report);
            if (S.Failed)
              R.Errors.push_back("session " + std::to_string(SessionOp) +
                                 ": " + S.Why);
            else
              (Traced ? Layers.TracedWallS : Layers.UntracedWallS)
                  .push_back(S.WallS);
            Sessions.push_back(S);
          }
        });
      for (std::thread &T : Clients)
        T.join();
      LiveWindowS +=
          std::chrono::duration<double>(LastVerdict - LiveStart).count();
      RunBatchOps(After(LoopStart, RoundS * (Round + 1.0)));
    }
    // The live triage table must hold exactly the batch verdicts of the
    // sessions streamed: every race with its batch dynamic count, seen
    // once per session that found it.
    const std::string Why =
        checkTriageDelta({}, Collector->triageTable(), Expected);
    if (!Why.empty()) {
      R.Errors.push_back(Why);
      for (OpSample &S : Sessions)
        S.Failed = true;
    }
  }
  const auto [QueueHighWater, ProducerParks] = Collector->queueStats();
  R.Host.CalibGbPerS = calibrateGbPerS(readFileBytes(TracePath));

  // ---- Per-layer probes (traced run), on the last trace recorded.
  if (O.Trace) {
    const TraceReadResult Read = readTrace(TracePath);
    const std::vector<uint8_t> Bytes = readFileBytes(TracePath);
    const uint64_t ProbeOp = 1u << 30;
    for (unsigned Rep = 0; Rep != 3; ++Rep) {
      ScopedSpan Probe(Spans, "probe", NoSpan, ProbeOp + Rep);
      const RecordOutcome Null =
          recordProgram(Spec, opSeed(O.Seed, 0), SinkKind::Null, "", Spans,
                        Probe.id(), ProbeOp + Rep);
      ProbeSample P = probeLayers(Read.T, Bytes, Spans, Probe.id(),
                                  ProbeOp + Rep);
      P.NullSinkRecordS = Null.Seconds;
      if (Read.Status != TraceReadStatus::Ok) {
        P.Ok = false;
        P.Why = "probe trace did not read back Ok";
      }
      if (!P.Ok) {
        R.Correct = false;
        R.Errors.push_back("probe: " + P.Why);
      }
      Layers.Probes.push_back(P);
    }
  }

  // ---- Accounting.
  for (const auto *List : {&SetupOps, &BatchOps, &Sessions})
    for (const OpSample &S : *List)
      R.Attempted += 1, R.Failed += S.Failed ? 1 : 0;
  if (R.Failed)
    R.Correct = false;
  const double FailedShare =
      R.Attempted ? static_cast<double>(R.Failed) /
                        static_cast<double>(R.Attempted)
                  : 1.0;

  std::map<std::string, double> V;
  if (!O.Trace) {
    const std::vector<OpSample> &Batch = BatchOps;
    // Verdicts: live-collect's closed-loop sessions, or the collect stage
    // of each batch operation.
    const std::vector<OpSample> &Verdicts = Live ? Sessions : BatchOps;
    V["setup_s"] = median(SetupS);
    V["record_s"] = median(collect(Batch, [](auto &S) { return S.RecordS; }));
    V["record_slowdown"] = median(collect(Batch, [](auto &S) {
      return S.BaselineS > 0 ? S.RecordS / S.BaselineS : 0.0;
    }));
    V["log_mb"] = median(collect(Batch, [](auto &S) { return S.LogMb; }));
    V["analyze_s"] =
        median(collect(Batch, [](auto &S) { return S.AnalyzeS; }));
    V["analyze_events_per_s"] =
        median(collect(Batch, [](auto &S) { return S.AnalyzeEventsPerS; }));
    V["seeded_recall"] =
        mean(collect(Batch, [](auto &S) { return S.Recall; }));
    V["peak_rss_mb"] = peakRssMb();
    const std::vector<double> Lags =
        collect(Verdicts, [](auto &S) { return S.LagMs; });
    if (Live) {
      double Events = 0;
      for (double E :
           collect(Sessions, [](auto &S) { return double(S.Events); }))
        Events += E;
      V["live_events_per_s"] = LiveWindowS > 0 ? Events / LiveWindowS : 0.0;
    } else {
      V["live_events_per_s"] = median(
          collect(BatchOps, [](auto &S) { return S.SessionEventsPerS; }));
    }
    V["verdict_lag_p50_ms"] = median(Lags);
    const Tail T = tailPercentile(Lags);
    V["verdict_lag_tail_ms"] = T.Value;
    R.LagTailPercentile = T.Percentile;
    R.LagSamples = Lags.size();
    V["ok_op_share"] = 1.0 - FailedShare;
    emitMetrics(R, endToEndMetrics(), V);
  } else {
    auto Probe = [&](auto Get) {
      std::vector<double> Out;
      for (const ProbeSample &P : Layers.Probes)
        Out.push_back(Get(P));
      return median(Out);
    };
    const double Events = static_cast<double>(Layers.AnalyzedEvents);
    auto PerEvent = [&](const char *Span) {
      return Events > 0 ? static_cast<double>(Spans.totalNs(Span)) / Events
                        : 0.0;
    };
    V["runtime.record_nullsink_s"] =
        Probe([](auto &P) { return P.NullSinkRecordS; });
    V["runtime.record_self_s"] = median(Layers.RecordSelfS);
    V["runtime.dispatch_checks"] = median(Layers.DispatchChecks);
    V["runtime.sampled_share"] = median(Layers.SampledShare);
    V["runtime.memops_logged"] = median(Layers.MemOps);
    V["runtime.syncops_logged"] = median(Layers.SyncOps);
    V["runtime.sink.write_ns_per_event"] = median(Layers.WriteNsPerEvent);
    V["runtime.sink.write_p50_us"] = median(Layers.WriteCallUs);
    V["runtime.sink.write_tail_us"] = tailPercentile(Layers.WriteCallUs).Value;
    V["runtime.sink.bytes_per_event"] = median(Layers.BytesPerEvent);
    V["runtime.decode.ns_per_event"] = PerEvent("runtime.decode");
    const double DecodeS =
        static_cast<double>(Spans.totalNs("runtime.decode")) / 1e9;
    V["runtime.decode.mb_per_s"] =
        DecodeS > 0 ? static_cast<double>(Layers.AnalyzedBytes) / 1e6 / DecodeS
                    : 0.0;
    const double Replay = Probe([](auto &P) { return P.ReplayNsPerEvent; });
    V["detector.replay.ns_per_event"] = Replay;
    V["detector.replay.mean_memory_run"] =
        Probe([](auto &P) { return P.MeanMemoryRun; });
    V["detector.hb.ns_per_event"] = PerEvent("detector.hb");
    V["detector.hb.self_ns_per_event"] = PerEvent("detector.hb") - Replay;
    V["detector.hb.shadow_addresses"] =
        Probe([](auto &P) { return P.ShadowAddresses; });
    V["detector.hb.static_races"] =
        Probe([](auto &P) { return P.StaticRaces; });
    V["detector.hb.sightings"] = Probe([](auto &P) { return P.Sightings; });
    V["collector.triage.observe_ns"] =
        median(spanDurationsNs(Spans, "collector.triage"));
    V["collector.ingest.client_write_ms"] =
        median(spanDurationsNs(Spans, "collector.ingest.client_write")) / 1e6;
    V["collector.ingest.queue_highwater"] =
        static_cast<double>(QueueHighWater);
    V["collector.ingest.producer_parks"] = static_cast<double>(ProducerParks);
    V["collector.decode.ns_per_event"] =
        Probe([](auto &P) { return P.StreamDecodeNsPerEvent; });
    const double Schedule =
        Probe([](auto &P) { return P.ScheduleNsPerEvent; });
    V["collector.schedule.ns_per_event"] = Schedule;
    V["collector.detect.ns_per_event"] =
        Probe([](auto &P) { return P.ScheduleDetectNsPerEvent; }) - Schedule;
    const double Untraced = median(Layers.UntracedWallS);
    V["trace_overhead_share"] =
        Untraced > 0 ? median(Layers.TracedWallS) / Untraced - 1.0 : 0.0;
    V["failed_op_share"] = FailedShare;
    V["host.calib_gb_per_s"] = R.Host.CalibGbPerS;
    emitMetrics(R, perLayerMetrics(), V);

    const std::vector<Span> All = Spans.spans();
    for (size_t I = 0; I != All.size(); ++I) {
      const Span &S = All[I];
      const bool Op = S.Name == "op" || (S.Name == "collector.session" &&
                                         S.Parent == NoSpan);
      if (Op && S.durationNs() > 0)
        R.OpSpanCoverage.push_back(
            static_cast<double>(Spans.childCoverageNs(static_cast<SpanId>(I))) /
            static_cast<double>(S.durationNs()));
    }

    R.TimelinePath = joinPath(O.WorkDir, std::string("timeline-") +
                                             workloadName(O.Workload) + "-" +
                                             std::to_string(O.Seed) + ".json");
    if (!Spans.toTimeline().writeFile(R.TimelinePath))
      R.Errors.push_back("could not write " + R.TimelinePath);
  }

  Collector.reset();
  std::remove(TracePath.c_str());
  return R;
}

std::string resultJson(const BenchResult &R) {
  std::string J = "{\"correct\": ";
  J += R.Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(R.Attempted);
  J += ", \"failed\": " + std::to_string(R.Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    char Value[64];
    std::snprintf(Value, sizeof(Value), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    J += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Value +
         ", \"unit\": \"" + M.Unit + "\"}";
  }
  J += "}}";
  return J;
}

} // namespace pipebench
