//===-- runtime/EventLog.h - Event streams and log sinks --------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Log storage for the LiteRace profiler (paper §4.4). Each thread buffers
/// its events locally and flushes fixed-size chunks to a LogSink. Chunks
/// from one thread arrive in program order, so a sink can reassemble exact
/// per-thread event streams. Sinks: in-memory (for the detection
/// experiments), the legacy v1 file sink, the crash-consistent v2
/// segmented file sink, and a counting null sink.
///
/// Reading back goes through readTrace(), which accepts every on-disk
/// format and — unlike the strict legacy readers — salvages damaged
/// files: it recovers every intact checksummed segment, drops corrupt or
/// truncated ones, and reports exact per-thread coverage accounting in a
/// TraceReadResult instead of failing the whole file
/// (docs/ROBUSTNESS.md).
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_RUNTIME_EVENTLOG_H
#define LITERACE_RUNTIME_EVENTLOG_H

#include "runtime/Ids.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace literace {

class ByteOutput;
namespace telemetry {
class MetricsRegistry;
}

/// True on a thread that serves as a dedicated trace flusher (set by
/// AsyncLogSink around its consumer loop). Sinks use it to classify
/// writes as application-thread vs flusher-thread in telemetry, which is
/// how "async mode removes write() calls from application threads" is
/// verified rather than assumed.
bool isTraceFlusherThread();
void setTraceFlusherThread(bool Value);

/// A complete logged execution: one event stream per thread, in program
/// order, plus the runtime configuration the detector must agree on.
struct Trace {
  /// Number of timestamp counters the producing runtime used.
  unsigned NumTimestampCounters = 128;
  /// PerThread[Tid] is the program-order event stream of thread Tid.
  std::vector<std::vector<EventRecord>> PerThread;

  /// Total number of records across all threads.
  size_t totalEvents() const;
  /// Number of Read/Write records across all threads.
  size_t memoryOps() const;
  /// Number of sync records (Acquire/Release/AcqRel/Alloc/Free).
  size_t syncOps() const;
  /// Number of memory records whose mask includes sampler \p Slot.
  size_t memoryOpsForSlot(unsigned Slot) const;
};

/// Destination for flushed event chunks. Implementations must tolerate
/// concurrent writeChunk calls from different threads.
class LogSink {
public:
  virtual ~LogSink();

  /// Appends \p Count records produced by thread \p Tid. Successive calls
  /// with the same Tid carry consecutive slices of that thread's stream.
  virtual void writeChunk(ThreadId Tid, const EventRecord *Records,
                          size_t Count) = 0;

  /// Flushes any buffered state (no-op by default).
  virtual void flush();

  /// Tells the sink that \p Count records from thread \p Tid were lost
  /// upstream before reaching it (e.g. dropped by an AsyncLogSink under
  /// FlushPolicy::Drop). Durable sinks fold the loss into their own
  /// accounting so readers see the trace as incomplete; default no-op.
  virtual void noteLostChunk(ThreadId Tid, size_t Count);

  /// Total payload bytes accepted so far.
  uint64_t bytesWritten() const {
    return Bytes.load(std::memory_order_relaxed);
  }

protected:
  void addBytes(uint64_t N) { Bytes.fetch_add(N, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Bytes{0};
};

/// Collects the full trace in memory, for offline analysis in-process.
class MemorySink : public LogSink {
public:
  /// \p NumTimestampCounters is recorded into the produced Trace.
  explicit MemorySink(unsigned NumTimestampCounters = 128);

  void writeChunk(ThreadId Tid, const EventRecord *Records,
                  size_t Count) override;

  /// Moves the accumulated trace out of the sink. Call after all producing
  /// threads have finished.
  Trace takeTrace();

private:
  unsigned NumTimestampCounters;
  std::mutex Lock;
  std::vector<std::vector<EventRecord>> PerThread;
};

/// Streams chunks to a binary log file. Format: FileHeader, then a sequence
/// of ChunkHeader + records. Readable with readTraceFile().
class FileSink : public LogSink {
public:
  /// Opens \p Path for writing. Check ok() before use.
  FileSink(const std::string &Path, unsigned NumTimestampCounters = 128);
  ~FileSink() override;

  /// True if the file opened and the header was written.
  bool ok() const { return File != nullptr; }

  void writeChunk(ThreadId Tid, const EventRecord *Records,
                  size_t Count) override;
  void flush() override;

  /// Flushes and closes the file; further writes are invalid.
  void close();

private:
  std::mutex Lock;
  std::FILE *File = nullptr;
};

/// Discards all records but counts bytes; used to measure pure logging CPU
/// cost without filesystem noise.
class NullSink : public LogSink {
public:
  void writeChunk(ThreadId Tid, const EventRecord *Records,
                  size_t Count) override;
};

/// Streams chunks to a v2 *segmented* log file (docs/LOG_FORMAT.md): each
/// chunk becomes one or more self-describing frames carrying a magic,
/// thread id, event count, payload length, and CRC32C checksums over both
/// header and payload. Frames are written unbuffered, so every segment
/// that writeChunk() completed is durable even if the process is later
/// SIGKILLed; a footer frame is sealed only by a clean close(). Transient
/// write failures (EINTR, short writes) are retried with bounded
/// exponential backoff; a hard failure parks the sink (ok() turns false)
/// and subsequent chunks are counted as dropped rather than corrupting
/// the stream.
class SegmentedFileSink : public LogSink {
public:
  struct Options {
    /// Encode segment payloads with the per-segment delta/varint codec
    /// (each segment is self-contained; see CompressedLog.h).
    bool Compress = false;
    /// Retry budget for transient failures and short writes per frame.
    unsigned MaxRetries = 8;
    /// Byte-layer override for fault injection; null opens
    /// FileByteOutput(Path). Must outlive the sink.
    ByteOutput *Output = nullptr;
    /// Telemetry registry override (tests); null resolves the process
    /// registry unless the kill switch disables telemetry.
    telemetry::MetricsRegistry *Metrics = nullptr;
  };

  SegmentedFileSink(const std::string &Path, unsigned NumTimestampCounters,
                    const Options &Opts);
  explicit SegmentedFileSink(const std::string &Path,
                             unsigned NumTimestampCounters = 128);
  ~SegmentedFileSink() override;

  /// True if the output opened, the file header was written, and no hard
  /// write failure has occurred.
  bool ok() const;

  void writeChunk(ThreadId Tid, const EventRecord *Records,
                  size_t Count) override;
  void flush() override;
  /// Upstream loss (async Drop policy): folded into eventsDropped(), the
  /// footer's dropped-event count, and close()'s verdict. Lock-free, so
  /// an application thread whose chunk was dropped never waits for a
  /// write in progress.
  void noteLostChunk(ThreadId Tid, size_t Count) override;

  /// Seals the footer frame and closes the output. Returns false if any
  /// data was lost to write failures. Idempotent.
  bool close();

  /// Test hook simulating a crash: drops the output without sealing the
  /// footer. Everything already written stays on disk.
  void abandon();

  uint64_t segmentsWritten() const { return Segments; }
  uint64_t eventsWritten() const { return Events; }
  /// Transient-failure / short-write retries performed.
  uint64_t retries() const { return Retries; }
  /// Events dropped because the output hard-failed, plus upstream losses
  /// reported via noteLostChunk().
  uint64_t eventsDropped() const {
    return Dropped.load(std::memory_order_relaxed);
  }
  /// writeChunk() calls made by application threads vs dedicated flusher
  /// threads (isTraceFlusherThread()). In async mode the app count must
  /// be zero — bench/micro_dispatch --check-async-flush enforces it.
  uint64_t appThreadWrites() const { return AppWrites; }
  uint64_t flusherThreadWrites() const { return FlusherWrites; }

private:
  bool writeFrame(ThreadId Tid, const EventRecord *Records, size_t Count);
  bool writeAll(const void *Data, size_t Size);

  std::mutex Lock;
  std::unique_ptr<ByteOutput> Owned;
  ByteOutput *Out = nullptr;
  bool Compress;
  unsigned MaxRetries;
  bool HeaderOk = false;
  bool Failed = false;
  bool Closed = false;
  uint64_t Segments = 0;
  uint64_t Events = 0;
  uint64_t Retries = 0;
  /// Bumped without Lock by noteLostChunk().
  std::atomic<uint64_t> Dropped{0};
  uint64_t AppWrites = 0;
  uint64_t FlusherWrites = 0;
  std::vector<uint8_t> Frame;
  std::vector<EventRecord> Slice;
  telemetry::MetricsRegistry *Metrics = nullptr;
};

/// On-disk format of a trace file, as sniffed by readTrace().
enum class TraceFormat : uint8_t {
  Unknown = 0,
  V1Raw,        ///< FileSink: unframed header + chunk stream
  V1Compressed, ///< CompressedFileSink: whole-file per-thread streams
  V2Segmented,  ///< SegmentedFileSink: checksummed frames + footer
};

const char *traceFormatName(TraceFormat F);

/// Coverage accounting of one read: what was recovered, what was
/// provably lost, and whether the producer shut down cleanly.
struct TraceReadStats {
  TraceFormat Format = TraceFormat::Unknown;
  /// Intact frames decoded (v2) or chunks/streams decoded (v1).
  uint64_t SegmentsRecovered = 0;
  /// Frames dropped for bad CRC, malformed records, or truncation; for
  /// v1, damaged-tail regions.
  uint64_t SegmentsDropped = 0;
  uint64_t EventsRecovered = 0;
  uint64_t BytesDropped = 0;
  /// v2: the footer frame was present and valid at end-of-file. v1 has
  /// no footer; set when the file parsed completely.
  bool CleanShutdown = false;
  /// The file ended inside a frame (producer died mid-write).
  bool TruncatedTail = false;
  /// v2: events the *writer* itself discarded (write failures or async
  /// Drop-policy backpressure), as recorded in the footer. These bytes
  /// never reached the file, so they appear in no other counter; any
  /// nonzero value makes the read Salvaged.
  uint64_t EventsDroppedByWriter = 0;
  /// v2: the footer's totals disagree with what an otherwise-clean read
  /// recovered — the file was tampered with or mis-assembled.
  bool FooterTotalsMismatch = false;
  /// The file header itself was damaged and segments were recovered by
  /// scanning (v2 only).
  bool SalvagedHeader = false;
  /// Events recovered / frames dropped, indexed by thread id.
  std::vector<uint64_t> PerThreadRecovered;
  std::vector<uint64_t> PerThreadDropped;
};

enum class TraceReadStatus : uint8_t {
  Ok,        ///< every byte accounted for, clean shutdown
  Salvaged,  ///< a coherent partial trace was recovered
  Unreadable ///< not a literace log, or salvage found nothing
};

/// Result of readTrace(): the recovered trace plus coverage accounting.
/// Never reports success with silently missing data — any loss shows up
/// in Stats and flips Status to Salvaged.
struct TraceReadResult {
  TraceReadStatus Status = TraceReadStatus::Unreadable;
  Trace T;
  TraceReadStats Stats;
  /// Human-readable reason when Unreadable (or the salvage note).
  std::string Error;

  bool readable() const { return Status != TraceReadStatus::Unreadable; }
};

struct TraceReadOptions {
  /// When false, any imperfection (bad CRC, truncation, missing footer)
  /// makes the read Unreadable instead of Salvaged.
  bool Salvage = true;
  /// Telemetry override; the reader folds trace.segments.recovered /
  /// trace.segments.dropped counters into the resolved registry.
  telemetry::MetricsRegistry *Metrics = nullptr;
};

/// Reads any literace log format back into a Trace, salvaging damaged v2
/// files frame by frame (and v1 files by longest valid prefix). Never
/// throws and never aborts on malformed bytes.
TraceReadResult readTrace(const std::string &Path,
                          const TraceReadOptions &Options = TraceReadOptions());

/// Incremental decoder for a v2 segmented byte *stream* (the same frames
/// SegmentedFileSink writes to disk, arriving over a socket or pipe in
/// arbitrary read sizes). Used by literace-collectd's per-connection
/// readers: feed() consumes bytes as they arrive, take() yields decoded
/// (thread, records) chunks in stream order, and the same salvage rules
/// as readTrace() apply — a damaged frame is dropped and resynced over
/// with exact accounting, never trusted into the decoded stream. finish()
/// closes the stream (connection EOF) and settles the coverage stats:
/// CleanShutdown is true iff the footer frame was the last bytes seen,
/// exactly like a cleanly closed file.
class SegmentStreamDecoder {
public:
  /// One decoded segment: a slice of thread \p Tid's program-order stream.
  struct Chunk {
    ThreadId Tid = 0;
    std::vector<EventRecord> Records;
  };

  SegmentStreamDecoder();
  ~SegmentStreamDecoder();

  /// Consumes \p Size bytes of the stream. Decoded chunks become
  /// available via take(); damaged regions fold into stats().
  void feed(const void *Data, size_t Size);

  /// Signals end-of-stream. Any buffered partial frame is accounted as a
  /// truncated tail. Idempotent; feed() after finish() is ignored.
  void finish();

  /// Declares an upstream hole of \p ShedBytes that will never arrive (a
  /// resuming client shed them at its spool cap; docs/ROBUSTNESS.md).
  /// The shed bytes fold into BytesDropped *exactly* — resyncing alone
  /// would only count the seam residue it happens to scan over — and any
  /// buffered partial frame is dropped with them, since its remainder is
  /// gone. The hole plus the following resync count as one damage
  /// episode, the same discipline a corrupt region gets.
  void noteGap(uint64_t ShedBytes);

  /// Pops the next decoded chunk (FIFO). False when none are pending.
  bool take(Chunk &Out);

  /// True once a valid v2 file header was consumed (or salvage gave up on
  /// one and started resyncing on frame magics).
  bool headerSeen() const { return HeaderSeen; }

  /// Timestamp-counter count from the stream header (128 if the header
  /// was damaged — the writer default).
  unsigned numTimestampCounters() const { return NumCounters; }

  /// True once the footer frame was decoded (clean writer shutdown).
  bool footerSeen() const { return FooterSeen; }

  /// Coverage accounting, live during the stream and settled by finish().
  const TraceReadStats &stats() const { return Stats; }

  /// Raw bytes accepted by feed() so far.
  uint64_t bytesConsumed() const { return BytesFed; }

private:
  void parse();

  std::vector<uint8_t> Buffer;
  size_t Offset = 0; ///< consumed prefix of Buffer
  std::vector<Chunk> Ready;
  size_t ReadyHead = 0;
  TraceReadStats Stats;
  unsigned NumCounters = 128;
  uint64_t BytesFed = 0;
  bool HeaderSeen = false;
  bool FooterSeen = false;
  bool LastDecodedWasFooter = false;
  bool ResyncOpen = false; ///< current damage episode already counted
  bool Finished = false;
  uint64_t FooterTotalEvents = 0;
  uint64_t FooterTotalSegments = 0;
  uint64_t FooterDroppedEvents = 0;
};

/// One frame of a v2 segmented file, as seen by the scanner
/// (literace-fsck's inventory).
struct SegmentInfo {
  uint64_t Offset = 0;
  uint32_t Tid = 0;
  uint32_t EventCount = 0;
  uint32_t PayloadBytes = 0;
  uint8_t Encoding = 0;
  bool IsFooter = false;
  bool HeaderOk = false;
  bool PayloadOk = false;
};

/// Scans a v2 segmented file and returns its frame inventory (empty for
/// other formats or unreadable files). Tolerates arbitrary damage. When
/// the file cannot be opened or read, \p Error (if given) says why;
/// otherwise it is set empty.
std::vector<SegmentInfo> scanSegments(const std::string &Path,
                                      std::string *Error = nullptr);

/// Reads a log file written by FileSink back into a Trace. Returns
/// std::nullopt if the file is missing or malformed. Strict v1 reader;
/// prefer readTrace() for anything user-supplied.
std::optional<Trace> readTraceFile(const std::string &Path);

} // namespace literace

#endif // LITERACE_RUNTIME_EVENTLOG_H
