//===-- telemetry/Timeline.cpp - Chrome/Perfetto trace export -------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Timeline.h"

#include "runtime/FunctionRegistry.h"
#include "telemetry/Json.h"
#include "telemetry/Metrics.h"

#include <algorithm>
#include <cstdio>

using namespace literace;
using namespace literace::telemetry;

//===----------------------------------------------------------------------===//
// TraceWriter
//===----------------------------------------------------------------------===//

void TraceWriter::nameThread(uint32_t Pid, uint32_t Tid, std::string Name) {
  TraceEvent E;
  E.Name = "thread_name";
  E.Phase = 'M';
  E.Pid = Pid;
  E.Tid = Tid;
  E.StrArgs.emplace_back("name", std::move(Name));
  add(std::move(E));
}

void TraceWriter::nameProcess(uint32_t Pid, std::string Name) {
  TraceEvent E;
  E.Name = "process_name";
  E.Phase = 'M';
  E.Pid = Pid;
  E.StrArgs.emplace_back("name", std::move(Name));
  add(std::move(E));
}

void TraceWriter::append(const TraceWriter &Other) {
  Events.insert(Events.end(), Other.Events.begin(), Other.Events.end());
}

std::string TraceWriter::toJson() const {
  std::string Out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char Buf[64];
  bool First = true;
  for (const TraceEvent &E : Events) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\n{\"name\": \"" + jsonEscape(E.Name) + "\", \"ph\": \"";
    Out += E.Phase;
    Out += "\"";
    if (!E.Cat.empty())
      Out += ", \"cat\": \"" + jsonEscape(E.Cat) + "\"";
    std::snprintf(Buf, sizeof(Buf),
                  ", \"ts\": %llu, \"pid\": %u, \"tid\": %u",
                  static_cast<unsigned long long>(E.TsUs), E.Pid, E.Tid);
    Out += Buf;
    if (E.Phase == 'X') {
      std::snprintf(Buf, sizeof(Buf), ", \"dur\": %llu",
                    static_cast<unsigned long long>(E.DurUs));
      Out += Buf;
    }
    if (E.Phase == 'i')
      Out += ", \"s\": \"t\""; // thread-scoped instant
    if (!E.Args.empty() || !E.StrArgs.empty()) {
      Out += ", \"args\": {";
      bool FirstArg = true;
      for (const auto &[K, V] : E.Args) {
        if (!FirstArg)
          Out += ", ";
        FirstArg = false;
        Out += "\"" + jsonEscape(K) + "\": ";
        std::snprintf(Buf, sizeof(Buf), "%llu",
                      static_cast<unsigned long long>(V));
        Out += Buf;
      }
      for (const auto &[K, V] : E.StrArgs) {
        if (!FirstArg)
          Out += ", ";
        FirstArg = false;
        Out += "\"" + jsonEscape(K) + "\": \"" + jsonEscape(V) + "\"";
      }
      Out += "}";
    }
    Out += "}";
  }
  Out += "\n]}\n";
  return Out;
}

bool TraceWriter::writeFile(const std::string &Path) const {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  std::string Json = toJson();
  size_t Written = std::fwrite(Json.data(), 1, Json.size(), File);
  return std::fclose(File) == 0 && Written == Json.size();
}

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

bool literace::telemetry::validateChromeTraceJson(std::string_view Json,
                                                  std::string *Error) {
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  std::optional<JsonValue> Doc = parseJson(Json);
  if (!Doc)
    return Fail("not valid JSON");
  if (!Doc->isObject())
    return Fail("top level is not an object");
  const JsonValue *Events = Doc->find("traceEvents");
  if (!Events || !Events->isArray())
    return Fail("missing traceEvents array");
  for (size_t I = 0; I != Events->Array.size(); ++I) {
    const JsonValue &E = Events->Array[I];
    std::string Where = "traceEvents[" + std::to_string(I) + "]";
    if (!E.isObject())
      return Fail(Where + " is not an object");
    const JsonValue *Ph = E.find("ph");
    if (!Ph || !Ph->isString() || Ph->Str.size() != 1)
      return Fail(Where + " has no one-character ph");
    const JsonValue *Name = E.find("name");
    if (!Name || !Name->isString())
      return Fail(Where + " has no name");
    for (const char *Key : {"pid", "tid"}) {
      const JsonValue *V = E.find(Key);
      if (!V || !V->isNumber())
        return Fail(Where + " has no numeric " + Key);
    }
    char Phase = Ph->Str[0];
    if (Phase != 'M') {
      const JsonValue *Ts = E.find("ts");
      if (!Ts || !Ts->isNumber())
        return Fail(Where + " has no numeric ts");
    }
    if (Phase == 'X') {
      const JsonValue *Dur = E.find("dur");
      if (!Dur || !Dur->isNumber())
        return Fail(Where + " is a complete event without dur");
    }
    if (Phase == 'C') {
      const JsonValue *Args = E.find("args");
      if (!Args || !Args->isObject() || Args->Object.empty())
        return Fail(Where + " is a counter event without args");
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Offline timeline from a logged Trace
//===----------------------------------------------------------------------===//

namespace {

/// One contiguous run of memory ops from the same function in one
/// thread's stream (i.e. one or more back-to-back sampled activations).
struct Burst {
  FunctionId F = 0;
  uint64_t StartTick = 0;
  uint64_t EndTick = 0; // exclusive
  uint64_t MemOps = 0;
  uint64_t SampledOps = 0; // mask has a sampler-slot bit
};

std::string functionName(const FunctionRegistry *Registry, FunctionId F) {
  if (Registry && F < Registry->size())
    return Registry->name(F);
  return "fn" + std::to_string(F);
}

} // namespace

TraceWriter literace::telemetry::buildTraceTimeline(
    const Trace &T, const FunctionRegistry *Registry,
    size_t MaxSlicesPerThread) {
  TraceWriter W;
  W.nameProcess(TimelinePidRuntime, "literace runtime (virtual time)");

  for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid) {
    const std::vector<EventRecord> &Stream = T.PerThread[Tid];
    W.nameThread(TimelinePidRuntime, static_cast<uint32_t>(Tid),
                 "thread " + std::to_string(Tid));

    // Pass 1: collect bursts of contiguous memory ops per function.
    std::vector<Burst> Bursts;
    for (uint64_t Tick = 0; Tick != Stream.size(); ++Tick) {
      const EventRecord &R = Stream[Tick];
      if (!isMemoryKind(R.Kind))
        continue;
      FunctionId F = pcFunction(R.Pc);
      bool Sampled = (R.Mask & ~FullLogMaskBit) != 0;
      if (!Bursts.empty() && Bursts.back().F == F &&
          Bursts.back().EndTick == Tick) {
        Bursts.back().EndTick = Tick + 1;
        ++Bursts.back().MemOps;
        Bursts.back().SampledOps += Sampled ? 1 : 0;
      } else {
        Burst B;
        B.F = F;
        B.StartTick = Tick;
        B.EndTick = Tick + 1;
        B.MemOps = 1;
        B.SampledOps = Sampled ? 1 : 0;
        Bursts.push_back(B);
      }
    }

    // Coarsen if over budget: merge adjacent bursts pairwise until the
    // lane fits. Keeps the overall activity shape; names become windows.
    while (Bursts.size() > MaxSlicesPerThread) {
      std::vector<Burst> Coarse;
      Coarse.reserve((Bursts.size() + 1) / 2);
      for (size_t I = 0; I < Bursts.size(); I += 2) {
        Burst B = Bursts[I];
        if (I + 1 < Bursts.size()) {
          B.EndTick = Bursts[I + 1].EndTick;
          B.MemOps += Bursts[I + 1].MemOps;
          B.SampledOps += Bursts[I + 1].SampledOps;
          B.F = static_cast<FunctionId>(~0u); // window of mixed functions
        }
        Coarse.push_back(B);
      }
      Bursts.swap(Coarse);
    }

    for (const Burst &B : Bursts) {
      TraceEvent E;
      E.Name = B.F == static_cast<FunctionId>(~0u)
                   ? "activity window"
                   : functionName(Registry, B.F);
      E.Cat = "burst";
      E.Phase = 'X';
      E.TsUs = B.StartTick;
      E.DurUs = B.EndTick - B.StartTick;
      E.Pid = TimelinePidRuntime;
      E.Tid = static_cast<uint32_t>(Tid);
      E.Args.emplace_back("mem_ops", B.MemOps);
      E.Args.emplace_back("sampled_ops", B.SampledOps);
      W.add(std::move(E));
    }

    // Counter track: cumulative memory/sync ops sampled every stride
    // ticks (and at stream end), so log growth is visible per thread.
    const uint64_t Stride =
        std::max<uint64_t>(1, Stream.size() / 256);
    uint64_t MemOps = 0, SyncOps = 0;
    for (uint64_t Tick = 0; Tick != Stream.size(); ++Tick) {
      const EventRecord &R = Stream[Tick];
      if (isMemoryKind(R.Kind))
        ++MemOps;
      else if (isSyncKind(R.Kind))
        ++SyncOps;
      if ((Tick + 1) % Stride == 0 || Tick + 1 == Stream.size()) {
        TraceEvent E;
        E.Name = "thread " + std::to_string(Tid) + " ops";
        E.Cat = "log";
        E.Phase = 'C';
        E.TsUs = Tick + 1;
        E.Pid = TimelinePidRuntime;
        E.Tid = static_cast<uint32_t>(Tid);
        E.Args.emplace_back("mem_ops", MemOps);
        E.Args.emplace_back("sync_ops", SyncOps);
        W.add(std::move(E));
      }
    }
  }
  return W;
}

//===----------------------------------------------------------------------===//
// TraceRecorder
//===----------------------------------------------------------------------===//

TraceRecorder &TraceRecorder::global() {
  // Leaked for the same reason as MetricsRegistry::global().
  static TraceRecorder *G = new TraceRecorder();
  return *G;
}

bool TraceRecorder::enabled() const {
  return this != &global() || telemetryEnabled();
}

void TraceRecorder::addSpan(
    std::string Name, std::string Cat, uint32_t Pid, uint32_t Tid,
    uint64_t StartUs, uint64_t DurUs,
    std::vector<std::pair<std::string, uint64_t>> Args) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Guard(Lock);
  if (Spans.size() >= MaxSpans) {
    ++Dropped;
    return;
  }
  TraceEvent E;
  E.Name = std::move(Name);
  E.Cat = std::move(Cat);
  E.Phase = 'X';
  E.TsUs = StartUs;
  E.DurUs = DurUs;
  E.Pid = Pid;
  E.Tid = Tid;
  E.Args = std::move(Args);
  Spans.push_back(std::move(E));
}

void TraceRecorder::addInstant(std::string Name, std::string Cat,
                               uint32_t Pid, uint32_t Tid, uint64_t TsUs) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Guard(Lock);
  if (Spans.size() >= MaxSpans) {
    ++Dropped;
    return;
  }
  TraceEvent E;
  E.Name = std::move(Name);
  E.Cat = std::move(Cat);
  E.Phase = 'i';
  E.TsUs = TsUs;
  E.Pid = Pid;
  E.Tid = Tid;
  Spans.push_back(std::move(E));
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> Guard(Lock);
  return Spans.size();
}

TraceWriter TraceRecorder::drainWriter() const {
  TraceWriter W;
  W.nameProcess(TimelinePidRuntime, "literace runtime");
  std::lock_guard<std::mutex> Guard(Lock);
  for (const TraceEvent &E : Spans)
    W.add(E);
  if (Dropped) {
    TraceEvent Note;
    Note.Name = "spans dropped (recorder cap)";
    Note.Cat = "telemetry";
    Note.Phase = 'i';
    Note.Pid = TimelinePidRuntime;
    Note.Tid = 0;
    Note.TsUs = 0;
    Note.Args.emplace_back("dropped", Dropped);
    W.add(std::move(Note));
  }
  return W;
}
