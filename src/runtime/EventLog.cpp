//===-- runtime/EventLog.cpp - Event streams and log sinks ---------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/EventLog.h"

#include "runtime/CompressedLog.h"
#include "support/ByteOutput.h"
#include "support/Crc32.h"
#include "telemetry/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/stat.h>

using namespace literace;

namespace {

constexpr uint64_t FileMagic = 0x4C695465526163ULL; // "LiteRac"
constexpr uint32_t FileVersion = 1;
/// v2: same FileHeader, then checksummed segments (docs/LOG_FORMAT.md).
constexpr uint32_t SegmentedFileVersion = 2;

struct FileHeader {
  uint64_t Magic;
  uint32_t Version;
  uint32_t NumTimestampCounters;
};

struct ChunkHeader {
  uint32_t Tid;
  uint32_t Count;
};

/// v2 segment framing. Each frame is SegmentHeader + PayloadBytes of
/// payload. HeaderCrc covers the first 24 header bytes, so a reader can
/// trust the framing (and skip by PayloadBytes) before touching the
/// payload; PayloadCrc catches payload damage independently.
constexpr uint32_t SegmentMagic = 0x4753524Cu; // "LRSG" on disk
constexpr uint8_t SegEncodingRaw = 0;
constexpr uint8_t SegEncodingCompressed = 1;
constexpr uint8_t SegFlagFooter = 0x01;
/// Upper bound a reader believes for one payload; the writer stays far
/// below it (MaxRecordsPerSegment records).
constexpr uint32_t MaxSegmentPayload = 1u << 26;
/// Records per frame cap: bounds frame-buffer memory on both sides.
constexpr size_t MaxRecordsPerSegment = 1u << 16;
/// A CRC-valid header claiming a thread id above this is treated as
/// damage rather than trusted into a giant PerThread resize.
constexpr uint32_t MaxReasonableTid = 1u << 20;

struct SegmentHeader {
  uint32_t Magic;
  uint8_t Encoding;
  uint8_t Flags;
  uint16_t Reserved;
  uint32_t Tid;
  uint32_t EventCount;
  uint32_t PayloadBytes;
  uint32_t PayloadCrc;
  uint32_t HeaderCrc;
};
static_assert(sizeof(SegmentHeader) == 28,
              "segment header layout is part of the log file format");

constexpr size_t SegmentHeaderCrcBytes =
    sizeof(SegmentHeader) - sizeof(uint32_t);

/// Payload of the footer frame sealed by a clean close(). DroppedEvents
/// records writer-side loss (hard write failures, async Drop-policy
/// backpressure); a reader that sees it nonzero knows the file is an
/// accounted subset of the execution even though every byte present is
/// intact. Legacy footers are 16 bytes (no DroppedEvents field) and are
/// still accepted.
struct SegmentFooterPayload {
  uint64_t TotalEvents;
  uint64_t TotalSegments;
  uint64_t DroppedEvents;
};
static_assert(sizeof(SegmentFooterPayload) == 24,
              "footer payload layout is part of the log file format");
constexpr size_t LegacyFooterPayloadBytes = 16;

bool validKind(uint8_t K) {
  return K <= static_cast<uint8_t>(EventKind::PolicyMeta);
}

bool validRecords(const EventRecord *Records, size_t Count) {
  for (size_t I = 0; I != Count; ++I)
    if (!validKind(static_cast<uint8_t>(Records[I].Kind)))
      return false;
  return true;
}

/// A whole file's contents, in one buffer.
struct FileBytes {
  std::unique_ptr<uint8_t[]> Data;
  size_t Size = 0;
};

/// Reads \p Path into one buffer sized exactly by fstat, so a trace is
/// copied from the page cache once and never regrown. A file that grows
/// while it is read (a journal still being appended) is read to its end.
/// Returns an empty string, or why the file could not be read: a failed
/// open, or an I/O error part-way (never mistaken for a short file).
std::string readWholeFile(const std::string &Path, FileBytes &Out) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return "cannot open " + Path;
  struct stat St {};
  size_t Capacity = 0;
  if (::fstat(::fileno(File), &St) == 0 && St.st_size > 0)
    Capacity = static_cast<size_t>(St.st_size);
  Out.Data.reset(new uint8_t[std::max<size_t>(Capacity, 1)]);
  Out.Size = std::fread(Out.Data.get(), 1, Capacity, File);
  std::vector<uint8_t> Grown; // bytes appended since the fstat
  if (Out.Size == Capacity) {
    uint8_t Buf[1 << 16];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), File)) > 0)
      Grown.insert(Grown.end(), Buf, Buf + N);
  }
  const int Err = errno;
  const bool Failed = std::ferror(File) != 0;
  std::fclose(File);
  if (Failed)
    return "read error on " + Path + ": " + std::strerror(Err);
  if (!Grown.empty()) {
    std::unique_ptr<uint8_t[]> All(new uint8_t[Out.Size + Grown.size()]);
    std::memcpy(All.get(), Out.Data.get(), Out.Size);
    std::memcpy(All.get() + Out.Size, Grown.data(), Grown.size());
    Out.Data = std::move(All);
    Out.Size += Grown.size();
  }
  return std::string();
}

/// Parses and validates a segment header at \p P (magic, header CRC, and
/// sanity bounds). Returns false on anything a salvager should resync
/// over.
bool parseSegmentHeader(const uint8_t *P, size_t Avail, SegmentHeader &H) {
  if (Avail < sizeof(SegmentHeader))
    return false;
  std::memcpy(&H, P, sizeof(H));
  if (H.Magic != SegmentMagic)
    return false;
  if (crc32c(P, SegmentHeaderCrcBytes) != H.HeaderCrc)
    return false;
  if (H.PayloadBytes > MaxSegmentPayload || H.Tid > MaxReasonableTid ||
      H.Encoding > SegEncodingCompressed)
    return false;
  return true;
}

/// Finds the next offset >= \p From holding a CRC-valid segment header,
/// or \p Size if there is none.
size_t findNextHeader(const uint8_t *Data, size_t Size, size_t From) {
  SegmentHeader H;
  for (size_t O = From; O + sizeof(SegmentHeader) <= Size; ++O) {
    uint32_t Magic;
    std::memcpy(&Magic, Data + O, sizeof(Magic));
    if (Magic == SegmentMagic && parseSegmentHeader(Data + O, Size - O, H))
      return O;
  }
  return Size;
}

void noteThreadRecovered(TraceReadStats &S, uint32_t Tid, uint64_t Events) {
  if (Tid >= S.PerThreadRecovered.size())
    S.PerThreadRecovered.resize(Tid + 1);
  S.PerThreadRecovered[Tid] += Events;
}

void noteThreadDropped(TraceReadStats &S, uint32_t Tid) {
  if (Tid >= S.PerThreadDropped.size())
    S.PerThreadDropped.resize(Tid + 1);
  S.PerThreadDropped[Tid] += 1;
}

void appendStream(Trace &T, TraceReadStats &S, uint32_t Tid,
                  const EventRecord *Records, size_t Count) {
  if (Tid >= T.PerThread.size())
    T.PerThread.resize(Tid + 1);
  T.PerThread[Tid].insert(T.PerThread[Tid].end(), Records, Records + Count);
  S.EventsRecovered += Count;
  noteThreadRecovered(S, Tid, Count);
}

/// Returns thread \p Tid's stream, created on first use. A fresh stream
/// is reserved for \p Expected[Tid] events, so appending the frames the
/// pre-sizing pass counted never reallocates.
std::vector<EventRecord> &streamFor(Trace &T, uint32_t Tid,
                                   const std::vector<uint64_t> &Expected) {
  if (Tid >= T.PerThread.size())
    T.PerThread.resize(Tid + 1);
  std::vector<EventRecord> &Stream = T.PerThread[Tid];
  if (Stream.capacity() == 0 && Tid < Expected.size())
    Stream.reserve(Expected[Tid]);
  return Stream;
}

/// The smallest encoding of one record in a compressed payload: a header
/// byte and two varints (see CompressedLog.cpp).
constexpr uint64_t MinCompressedRecordBytes = 3;

/// Pre-sizing pass over v2 frames from \p O: per thread, the events
/// claimed by CRC-valid data frames that lie wholly inside the file. Only
/// headers are checked (payload CRCs wait for the decode pass), so a
/// count is an upper bound on what decodes; it is never more than the
/// file could hold — a raw frame's count is tied to its payload length,
/// a compressed frame is believed only up to its minimum encoding, and a
/// frame cut off by the end of the file counts nothing.
std::vector<uint64_t> countV2Events(const uint8_t *Data, size_t Size,
                                    size_t O) {
  std::vector<uint64_t> Expected;
  while (O + sizeof(SegmentHeader) <= Size) {
    SegmentHeader H;
    if (!parseSegmentHeader(Data + O, Size - O, H)) {
      O = findNextHeader(Data, Size, O + 1);
      continue;
    }
    const size_t End = O + sizeof(SegmentHeader) + H.PayloadBytes;
    if (End > Size)
      break;
    const bool Plausible =
        H.Encoding == SegEncodingRaw
            ? H.PayloadBytes ==
                  static_cast<uint64_t>(H.EventCount) * sizeof(EventRecord)
            : static_cast<uint64_t>(H.EventCount) * MinCompressedRecordBytes <=
                  H.PayloadBytes;
    if (!(H.Flags & SegFlagFooter) && Plausible) {
      if (H.Tid >= Expected.size())
        Expected.resize(H.Tid + 1);
      Expected[H.Tid] += H.EventCount;
    }
    O = End;
  }
  return Expected;
}

/// Walks v2 frames from \p O, recovering every intact one. Resyncs over
/// damaged headers by scanning for the next valid magic; trusts
/// CRC-valid headers for frame lengths, so a bad-payload frame costs
/// exactly itself.
void parseV2Segments(const uint8_t *Data, size_t Size, size_t O,
                     TraceReadResult &Res) {
  TraceReadStats &S = Res.Stats;
  bool FooterAtEnd = false;
  SegmentFooterPayload Footer{};
  const std::vector<uint64_t> Expected = countV2Events(Data, Size, O);
  while (O < Size) {
    SegmentHeader H;
    if (O + sizeof(SegmentHeader) > Size) {
      // The producer died mid-header.
      S.TruncatedTail = true;
      ++S.SegmentsDropped;
      S.BytesDropped += Size - O;
      break;
    }
    if (!parseSegmentHeader(Data + O, Size - O, H)) {
      // Damaged header: the frame length cannot be trusted, so resync by
      // scanning for the next frame whose header checks out.
      size_t Next = findNextHeader(Data, Size, O + 1);
      ++S.SegmentsDropped;
      S.BytesDropped += Next - O;
      if (Next == Size)
        S.TruncatedTail = true;
      O = Next;
      continue;
    }
    size_t End = O + sizeof(SegmentHeader) + H.PayloadBytes;
    if (End > Size) {
      // The producer died mid-payload; the header is trustworthy, so we
      // know exactly what was lost.
      S.TruncatedTail = true;
      ++S.SegmentsDropped;
      S.BytesDropped += Size - O;
      noteThreadDropped(S, H.Tid);
      break;
    }
    const uint8_t *Payload = Data + O + sizeof(SegmentHeader);
    bool Decoded = false;
    if (crc32c(Payload, H.PayloadBytes) == H.PayloadCrc) {
      if (H.Flags & SegFlagFooter) {
        if (H.PayloadBytes == sizeof(SegmentFooterPayload) ||
            H.PayloadBytes == LegacyFooterPayloadBytes) {
          FooterAtEnd = End == Size;
          Footer = SegmentFooterPayload{};
          // memcpy field-wise: legacy footers stop after TotalSegments.
          std::memcpy(&Footer, Payload, H.PayloadBytes);
          Decoded = true;
        }
      } else if (H.Encoding == SegEncodingRaw) {
        if (H.PayloadBytes ==
            static_cast<uint64_t>(H.EventCount) * sizeof(EventRecord)) {
          // Copy the payload straight to the end of its thread's stream
          // (memcpy: it is only 4-byte aligned in the file) and validate
          // it in place; a bad frame is cut off again.
          std::vector<EventRecord> &Stream =
              streamFor(Res.T, H.Tid, Expected);
          const size_t Before = Stream.size();
          Stream.resize(Before + H.EventCount);
          std::memcpy(Stream.data() + Before, Payload, H.PayloadBytes);
          Decoded = validRecords(Stream.data() + Before, H.EventCount);
          if (!Decoded)
            Stream.resize(Before);
        }
      } else {
        std::vector<EventRecord> &Stream = streamFor(Res.T, H.Tid, Expected);
        const size_t Before = Stream.size();
        Decoded = decompressEventStreamAppend(Payload, H.PayloadBytes, H.Tid,
                                              Stream) &&
                  Stream.size() - Before == H.EventCount;
        if (!Decoded)
          Stream.resize(Before);
      }
      if (Decoded && !(H.Flags & SegFlagFooter)) {
        S.EventsRecovered += H.EventCount;
        noteThreadRecovered(S, H.Tid, H.EventCount);
        ++S.SegmentsRecovered;
      }
    }
    if (!Decoded) {
      ++S.SegmentsDropped;
      S.BytesDropped += End - O;
      if (!(H.Flags & SegFlagFooter))
        noteThreadDropped(S, H.Tid);
    }
    O = End;
  }
  S.CleanShutdown = FooterAtEnd;
  if (FooterAtEnd) {
    S.EventsDroppedByWriter = Footer.DroppedEvents;
    // Cross-check the footer's totals, but only when nothing else went
    // wrong — with dropped or truncated segments a disagreement is
    // already explained and accounted.
    if (S.SegmentsDropped == 0 && !S.TruncatedTail &&
        (Footer.TotalEvents != S.EventsRecovered ||
         Footer.TotalSegments != S.SegmentsRecovered))
      S.FooterTotalsMismatch = true;
  }
}

/// Salvages a v1 raw (FileSink) stream: keeps the longest prefix of
/// intact chunks. v1 framing has no magic to resync on, so damage to a
/// chunk header loses the tail.
void parseV1Raw(const uint8_t *Data, size_t Size, TraceReadResult &Res) {
  TraceReadStats &S = Res.Stats;
  size_t O = sizeof(FileHeader);
  bool Clean = true;
  std::vector<EventRecord> Records;
  while (O < Size) {
    ChunkHeader C;
    if (O + sizeof(ChunkHeader) > Size) {
      S.TruncatedTail = true;
      ++S.SegmentsDropped;
      S.BytesDropped += Size - O;
      Clean = false;
      break;
    }
    std::memcpy(&C, Data + O, sizeof(C));
    uint64_t Bytes = static_cast<uint64_t>(C.Count) * sizeof(EventRecord);
    if (C.Tid > MaxReasonableTid ||
        O + sizeof(ChunkHeader) + Bytes > Size) {
      // Either a truncated chunk or a corrupt count; the framing past
      // this point cannot be trusted either way.
      S.TruncatedTail = true;
      ++S.SegmentsDropped;
      S.BytesDropped += Size - O;
      Clean = false;
      break;
    }
    Records.resize(C.Count);
    std::memcpy(Records.data(), Data + O + sizeof(ChunkHeader), Bytes);
    if (validRecords(Records.data(), Records.size())) {
      appendStream(Res.T, S, C.Tid, Records.data(), Records.size());
      ++S.SegmentsRecovered;
    } else {
      // Undetectable-by-framing damage inside the chunk; the count is
      // still usable, so only this chunk is lost.
      ++S.SegmentsDropped;
      S.BytesDropped += sizeof(ChunkHeader) + Bytes;
      noteThreadDropped(S, C.Tid);
      Clean = false;
    }
    O += sizeof(ChunkHeader) + Bytes;
  }
  S.CleanShutdown = Clean && !S.TruncatedTail;
}

/// Salvages a v1 compressed (CompressedFileSink) file: per-thread
/// streams decode independently; a damaged stream keeps its cleanly
/// decoded prefix.
void parseV1Compressed(const uint8_t *Data, size_t Size,
                       TraceReadResult &Res) {
  TraceReadStats &S = Res.Stats;
  size_t O = sizeof(uint64_t);
  uint32_t Counters = 0;
  uint32_t NumThreads = 0;
  std::memcpy(&Counters, Data + O, sizeof(Counters));
  O += sizeof(Counters);
  std::memcpy(&NumThreads, Data + O, sizeof(NumThreads));
  O += sizeof(NumThreads);
  Res.T.NumTimestampCounters = Counters ? Counters : 128;
  if (static_cast<uint64_t>(NumThreads) * sizeof(uint64_t) > Size) {
    // Corrupt thread count; nothing downstream is trustworthy.
    ++S.SegmentsDropped;
    S.BytesDropped += Size - O;
    S.TruncatedTail = true;
    return;
  }
  bool Clean = Counters != 0;
  for (uint32_t Tid = 0; Tid != NumThreads; ++Tid) {
    if (O + sizeof(uint64_t) > Size) {
      S.TruncatedTail = true;
      ++S.SegmentsDropped;
      S.BytesDropped += Size - O;
      return;
    }
    uint64_t StreamSize = 0;
    std::memcpy(&StreamSize, Data + O, sizeof(StreamSize));
    O += sizeof(StreamSize);
    bool Truncated = StreamSize > Size - O;
    size_t Avail = Truncated ? Size - O : static_cast<size_t>(StreamSize);
    PartialDecode Partial =
        decompressEventStreamPartial(Data + O, Avail, Tid);
    if (!Partial.Events.empty())
      appendStream(Res.T, S, Tid, Partial.Events.data(),
                   Partial.Events.size());
    if (!Truncated && Partial.Complete) {
      ++S.SegmentsRecovered;
    } else {
      ++S.SegmentsDropped;
      S.BytesDropped += Avail - Partial.BytesConsumed;
      noteThreadDropped(S, Tid);
      if (Truncated) {
        S.TruncatedTail = true;
        return;
      }
    }
    O += Avail;
  }
  if (O < Size) {
    // Trailing garbage after the last declared stream.
    ++S.SegmentsDropped;
    S.BytesDropped += Size - O;
    Clean = false;
  }
  S.CleanShutdown = Clean && !S.TruncatedTail &&
                    S.SegmentsDropped == 0;
}

} // namespace

size_t Trace::totalEvents() const {
  size_t N = 0;
  for (const auto &Stream : PerThread)
    N += Stream.size();
  return N;
}

size_t Trace::memoryOps() const {
  size_t N = 0;
  for (const auto &Stream : PerThread)
    for (const EventRecord &R : Stream)
      if (isMemoryKind(R.Kind))
        ++N;
  return N;
}

size_t Trace::syncOps() const {
  size_t N = 0;
  for (const auto &Stream : PerThread)
    for (const EventRecord &R : Stream)
      if (isSyncKind(R.Kind))
        ++N;
  return N;
}

size_t Trace::memoryOpsForSlot(unsigned Slot) const {
  assert(Slot < MaxSamplerSlots && "slot out of range");
  const uint16_t Bit = static_cast<uint16_t>(1u << Slot);
  size_t N = 0;
  for (const auto &Stream : PerThread)
    for (const EventRecord &R : Stream)
      if (isMemoryKind(R.Kind) && (R.Mask & Bit))
        ++N;
  return N;
}

namespace {
/// Set by AsyncLogSink around its consumer loop; read by sinks to
/// classify writes (see isTraceFlusherThread() in EventLog.h).
thread_local bool TraceFlusherThread = false;
} // namespace

bool literace::isTraceFlusherThread() { return TraceFlusherThread; }

void literace::setTraceFlusherThread(bool Value) {
  TraceFlusherThread = Value;
}

LogSink::~LogSink() = default;

void LogSink::flush() {}

void LogSink::noteLostChunk(ThreadId, size_t) {}

MemorySink::MemorySink(unsigned NumTimestampCounters)
    : NumTimestampCounters(NumTimestampCounters) {}

void MemorySink::writeChunk(ThreadId Tid, const EventRecord *Records,
                            size_t Count) {
  std::lock_guard<std::mutex> Guard(Lock);
  if (Tid >= PerThread.size())
    PerThread.resize(Tid + 1);
  PerThread[Tid].insert(PerThread[Tid].end(), Records, Records + Count);
  addBytes(Count * sizeof(EventRecord));
}

Trace MemorySink::takeTrace() {
  std::lock_guard<std::mutex> Guard(Lock);
  Trace T;
  T.NumTimestampCounters = NumTimestampCounters;
  T.PerThread = std::move(PerThread);
  PerThread.clear();
  return T;
}

FileSink::FileSink(const std::string &Path, unsigned NumTimestampCounters) {
  File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return;
  FileHeader Header{FileMagic, FileVersion, NumTimestampCounters};
  if (std::fwrite(&Header, sizeof(Header), 1, File) != 1) {
    std::fclose(File);
    File = nullptr;
  }
}

FileSink::~FileSink() { close(); }

void FileSink::writeChunk(ThreadId Tid, const EventRecord *Records,
                          size_t Count) {
  assert(File && "writeChunk on a closed or failed FileSink");
  ChunkHeader Header{Tid, static_cast<uint32_t>(Count)};
  std::lock_guard<std::mutex> Guard(Lock);
  std::fwrite(&Header, sizeof(Header), 1, File);
  std::fwrite(Records, sizeof(EventRecord), Count, File);
  addBytes(Count * sizeof(EventRecord));
}

void FileSink::flush() {
  std::lock_guard<std::mutex> Guard(Lock);
  if (File)
    std::fflush(File);
}

void FileSink::close() {
  std::lock_guard<std::mutex> Guard(Lock);
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}

void NullSink::writeChunk(ThreadId, const EventRecord *, size_t Count) {
  addBytes(Count * sizeof(EventRecord));
}

SegmentedFileSink::SegmentedFileSink(const std::string &Path,
                                     unsigned NumTimestampCounters,
                                     const Options &Opts)
    : Compress(Opts.Compress), MaxRetries(Opts.MaxRetries),
      Metrics(Opts.Metrics) {
  if (Opts.Output) {
    Out = Opts.Output;
  } else {
    Owned = std::make_unique<FileByteOutput>(Path);
    Out = Owned.get();
  }
  if (!Out->ok())
    return;
  FileHeader Header{FileMagic, SegmentedFileVersion, NumTimestampCounters};
  HeaderOk = writeAll(&Header, sizeof(Header));
  if (!HeaderOk)
    Failed = true;
}

SegmentedFileSink::SegmentedFileSink(const std::string &Path,
                                     unsigned NumTimestampCounters)
    : SegmentedFileSink(Path, NumTimestampCounters, Options()) {}

SegmentedFileSink::~SegmentedFileSink() { close(); }

bool SegmentedFileSink::ok() const { return HeaderOk && !Failed; }

bool SegmentedFileSink::writeAll(const void *Data, size_t Size) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  size_t Remaining = Size;
  unsigned Attempts = 0;
  while (Remaining) {
    WriteResult R = Out->write(P, Remaining);
    P += R.Written;
    Remaining -= R.Written;
    if (!Remaining)
      break;
    if (R.Written == 0) {
      if (!R.Transient || Attempts >= MaxRetries)
        return false;
      ++Attempts;
      ++Retries;
      // Escalating backoff; EINTR-class failures usually clear at once.
      std::this_thread::sleep_for(
          std::chrono::microseconds(1ull << std::min(Attempts, 10u)));
    } else {
      if (!R.Transient)
        return false;
      // Short write with progress: keep going without burning the
      // retry budget, which is for attempts that accept nothing.
      ++Retries;
      Attempts = 0;
    }
  }
  return true;
}

bool SegmentedFileSink::writeFrame(ThreadId Tid, const EventRecord *Records,
                                   size_t Count) {
  Frame.clear();
  Frame.resize(sizeof(SegmentHeader));
  if (Compress) {
    Slice.assign(Records, Records + Count);
    compressEventStream(Slice, Frame);
  } else {
    const uint8_t *Bytes = reinterpret_cast<const uint8_t *>(Records);
    Frame.insert(Frame.end(), Bytes, Bytes + Count * sizeof(EventRecord));
  }
  size_t PayloadSize = Frame.size() - sizeof(SegmentHeader);
  SegmentHeader H{};
  H.Magic = SegmentMagic;
  H.Encoding = Compress ? SegEncodingCompressed : SegEncodingRaw;
  H.Tid = Tid;
  H.EventCount = static_cast<uint32_t>(Count);
  H.PayloadBytes = static_cast<uint32_t>(PayloadSize);
  H.PayloadCrc = crc32c(Frame.data() + sizeof(SegmentHeader), PayloadSize);
  H.HeaderCrc = crc32c(&H, SegmentHeaderCrcBytes);
  std::memcpy(Frame.data(), &H, sizeof(H));
  if (!writeAll(Frame.data(), Frame.size()))
    return false;
  ++Segments;
  Events += Count;
  addBytes(Count * sizeof(EventRecord));
  return true;
}

void SegmentedFileSink::noteLostChunk(ThreadId, size_t Count) {
  // No Lock: the flusher holds it across framing and write(2).
  Dropped.fetch_add(Count, std::memory_order_relaxed);
}

void SegmentedFileSink::writeChunk(ThreadId Tid, const EventRecord *Records,
                                   size_t Count) {
  std::lock_guard<std::mutex> Guard(Lock);
  if (isTraceFlusherThread())
    ++FlusherWrites;
  else
    ++AppWrites;
  if (Failed || Closed || !HeaderOk) {
    Dropped.fetch_add(Count, std::memory_order_relaxed);
    return;
  }
  size_t Off = 0;
  while (Off < Count) {
    size_t N = std::min(Count - Off, MaxRecordsPerSegment);
    if (!writeFrame(Tid, Records + Off, N)) {
      Failed = true;
      Dropped.fetch_add(Count - Off, std::memory_order_relaxed);
      return;
    }
    Off += N;
  }
}

void SegmentedFileSink::flush() {
  std::lock_guard<std::mutex> Guard(Lock);
  if (Out && !Closed)
    Out->flush();
}

bool SegmentedFileSink::close() {
  std::lock_guard<std::mutex> Guard(Lock);
  // Losses noted after this load are not in the footer; callers close
  // the sink once its producers are done.
  const uint64_t DroppedEvents = Dropped.load(std::memory_order_relaxed);
  if (Closed)
    return HeaderOk && !Failed && DroppedEvents == 0;
  Closed = true;
  bool Sealed = false;
  if (HeaderOk && !Failed) {
    SegmentFooterPayload Totals{Events, Segments, DroppedEvents};
    Frame.clear();
    Frame.resize(sizeof(SegmentHeader) + sizeof(Totals));
    std::memcpy(Frame.data() + sizeof(SegmentHeader), &Totals,
                sizeof(Totals));
    SegmentHeader H{};
    H.Magic = SegmentMagic;
    H.Encoding = SegEncodingRaw;
    H.Flags = SegFlagFooter;
    H.PayloadBytes = sizeof(Totals);
    H.PayloadCrc = crc32c(&Totals, sizeof(Totals));
    H.HeaderCrc = crc32c(&H, SegmentHeaderCrcBytes);
    std::memcpy(Frame.data(), &H, sizeof(H));
    Sealed = writeAll(Frame.data(), Frame.size());
    if (Sealed)
      Out->flush();
    else
      Failed = true;
  }
  if (Out)
    Out->close();
  if (telemetry::MetricsRegistry *M = telemetry::resolveRegistry(Metrics)) {
    telemetry::ThreadSlab &Slab = M->threadSlab();
    Slab.add(M->counter("sink.retries"), Retries);
    Slab.add(M->counter("sink.segments_written"), Segments);
    Slab.add(M->counter("sink.writes.app_thread"), AppWrites);
    Slab.add(M->counter("sink.writes.flusher_thread"), FlusherWrites);
    if (DroppedEvents)
      Slab.add(M->counter("sink.events_dropped"), DroppedEvents);
  }
  return Sealed && DroppedEvents == 0;
}

void SegmentedFileSink::abandon() {
  std::lock_guard<std::mutex> Guard(Lock);
  if (Closed)
    return;
  Closed = true;
  if (Out)
    Out->close();
}

const char *literace::traceFormatName(TraceFormat F) {
  switch (F) {
  case TraceFormat::Unknown:
    return "unknown";
  case TraceFormat::V1Raw:
    return "v1-raw";
  case TraceFormat::V1Compressed:
    return "v1-compressed";
  case TraceFormat::V2Segmented:
    return "v2-segmented";
  }
  return "unknown";
}

TraceReadResult literace::readTrace(const std::string &Path,
                                    const TraceReadOptions &Options) {
  TraceReadResult Res;
  FileBytes File;
  Res.Error = readWholeFile(Path, File);
  if (!Res.Error.empty())
    return Res;
  const uint8_t *Data = File.Data.get();
  const size_t Size = File.Size;
  TraceReadStats &S = Res.Stats;

  bool Parsed = false;
  if (Size >= sizeof(FileHeader)) {
    FileHeader Header;
    std::memcpy(&Header, Data, sizeof(Header));
    if (Header.Magic == FileMagic && Header.NumTimestampCounters != 0) {
      if (Header.Version == FileVersion) {
        S.Format = TraceFormat::V1Raw;
        Res.T.NumTimestampCounters = Header.NumTimestampCounters;
        parseV1Raw(Data, Size, Res);
        Parsed = true;
      } else if (Header.Version == SegmentedFileVersion) {
        S.Format = TraceFormat::V2Segmented;
        Res.T.NumTimestampCounters = Header.NumTimestampCounters;
        parseV2Segments(Data, Size, sizeof(FileHeader), Res);
        Parsed = true;
      }
    }
  }
  if (!Parsed && Size >= 2 * sizeof(uint64_t)) {
    uint64_t Magic;
    std::memcpy(&Magic, Data, sizeof(Magic));
    if (Magic == 0x4C52436F6D7001ULL) {
      S.Format = TraceFormat::V1Compressed;
      parseV1Compressed(Data, Size, Res);
      Parsed = true;
    }
  }
  if (!Parsed) {
    // The file header itself is damaged or missing. v2 frames are
    // self-describing, so scan for the first valid one and salvage.
    size_t First = findNextHeader(Data, Size, 0);
    if (First != Size) {
      S.Format = TraceFormat::V2Segmented;
      S.SalvagedHeader = true;
      if (First > 0) {
        ++S.SegmentsDropped;
        S.BytesDropped += First;
      }
      Res.T.NumTimestampCounters = 128;
      parseV2Segments(Data, Size, First, Res);
      Parsed = true;
    }
  }
  if (!Parsed) {
    Res.Error = "not a literace trace file: " + Path;
    return Res;
  }

  // Keep the per-thread accounting vectors the same length so callers
  // can iterate them together.
  size_t Threads = std::max({Res.T.PerThread.size(),
                             S.PerThreadRecovered.size(),
                             S.PerThreadDropped.size()});
  S.PerThreadRecovered.resize(Threads);
  S.PerThreadDropped.resize(Threads);

  if (telemetry::MetricsRegistry *M =
          telemetry::resolveRegistry(Options.Metrics)) {
    telemetry::ThreadSlab &Slab = M->threadSlab();
    Slab.add(M->counter("trace.segments.recovered"), S.SegmentsRecovered);
    Slab.add(M->counter("trace.segments.dropped"), S.SegmentsDropped);
  }

  const bool Loss = S.SegmentsDropped != 0 || S.TruncatedTail ||
                    S.SalvagedHeader || !S.CleanShutdown ||
                    S.EventsDroppedByWriter != 0 || S.FooterTotalsMismatch;
  if (!Loss) {
    Res.Status = TraceReadStatus::Ok;
    return Res;
  }
  std::string Note = "recovered " + std::to_string(S.EventsRecovered) +
                     " events in " + std::to_string(S.SegmentsRecovered) +
                     " segments; dropped " +
                     std::to_string(S.SegmentsDropped) + " segments (" +
                     std::to_string(S.BytesDropped) + " bytes)";
  if (S.TruncatedTail)
    Note += "; truncated tail";
  if (S.SalvagedHeader)
    Note += "; file header damaged";
  if (!S.CleanShutdown)
    Note += "; no clean shutdown marker";
  if (S.EventsDroppedByWriter != 0)
    Note += "; writer dropped " + std::to_string(S.EventsDroppedByWriter) +
            " event(s) before they reached the file";
  if (S.FooterTotalsMismatch)
    Note += "; footer totals disagree with recovered contents";
  if (Options.Salvage) {
    Res.Status = TraceReadStatus::Salvaged;
    Res.Error = Note;
  } else {
    Res.Status = TraceReadStatus::Unreadable;
    Res.Error = "strict mode refused damaged trace: " + Note;
    Res.T.PerThread.clear();
  }
  return Res;
}

std::vector<SegmentInfo> literace::scanSegments(const std::string &Path,
                                                std::string *Error) {
  std::vector<SegmentInfo> Inventory;
  FileBytes File;
  const std::string Why = readWholeFile(Path, File);
  if (Error)
    *Error = Why;
  if (!Why.empty())
    return Inventory;
  const uint8_t *Data = File.Data.get();
  const size_t Size = File.Size;

  size_t O = 0;
  if (Size >= sizeof(FileHeader)) {
    FileHeader Header;
    std::memcpy(&Header, Data, sizeof(Header));
    if (Header.Magic == FileMagic &&
        Header.Version == SegmentedFileVersion)
      O = sizeof(FileHeader);
  }
  while (O < Size) {
    SegmentHeader H;
    if (O + sizeof(SegmentHeader) <= Size &&
        parseSegmentHeader(Data + O, Size - O, H)) {
      SegmentInfo Info;
      Info.Offset = O;
      Info.Tid = H.Tid;
      Info.EventCount = H.EventCount;
      Info.PayloadBytes = H.PayloadBytes;
      Info.Encoding = H.Encoding;
      Info.IsFooter = (H.Flags & SegFlagFooter) != 0;
      Info.HeaderOk = true;
      size_t End = O + sizeof(SegmentHeader) + H.PayloadBytes;
      Info.PayloadOk =
          End <= Size &&
          crc32c(Data + O + sizeof(SegmentHeader), H.PayloadBytes) ==
              H.PayloadCrc;
      Inventory.push_back(Info);
      O = End <= Size ? End : Size;
      continue;
    }
    // Record a damaged frame when the magic is present but the header
    // fails validation; then resync.
    uint32_t Magic = 0;
    if (O + sizeof(Magic) <= Size)
      std::memcpy(&Magic, Data + O, sizeof(Magic));
    if (Magic == SegmentMagic) {
      SegmentInfo Info;
      Info.Offset = O;
      Inventory.push_back(Info);
    }
    O = findNextHeader(Data, Size, O + 1);
  }
  return Inventory;
}

std::optional<Trace> literace::readTraceFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return std::nullopt;

  // Bound allocations against the real file size so a corrupt chunk
  // count fails cleanly instead of attempting a giant resize.
  uint64_t FileSize = 0;
  if (std::fseek(File, 0, SEEK_END) == 0) {
    long Pos = std::ftell(File);
    if (Pos > 0)
      FileSize = static_cast<uint64_t>(Pos);
  }
  std::rewind(File);

  Trace T;
  FileHeader Header;
  if (std::fread(&Header, sizeof(Header), 1, File) != 1 ||
      Header.Magic != FileMagic || Header.Version != FileVersion ||
      Header.NumTimestampCounters == 0) {
    std::fclose(File);
    return std::nullopt;
  }
  T.NumTimestampCounters = Header.NumTimestampCounters;

  ChunkHeader Chunk;
  std::vector<EventRecord> Buffer;
  while (std::fread(&Chunk, sizeof(Chunk), 1, File) == 1) {
    if (static_cast<uint64_t>(Chunk.Count) * sizeof(EventRecord) >
        FileSize) {
      std::fclose(File);
      return std::nullopt; // Corrupt count.
    }
    Buffer.resize(Chunk.Count);
    if (std::fread(Buffer.data(), sizeof(EventRecord), Chunk.Count, File) !=
        Chunk.Count) {
      std::fclose(File);
      return std::nullopt; // Truncated chunk.
    }
    if (!validRecords(Buffer.data(), Buffer.size())) {
      std::fclose(File);
      return std::nullopt; // Corrupt record kinds.
    }
    if (Chunk.Tid >= T.PerThread.size())
      T.PerThread.resize(Chunk.Tid + 1);
    auto &Stream = T.PerThread[Chunk.Tid];
    Stream.insert(Stream.end(), Buffer.begin(), Buffer.end());
  }
  std::fclose(File);
  return T;
}

//===----------------------------------------------------------------------===//
// SegmentStreamDecoder
//===----------------------------------------------------------------------===//

SegmentStreamDecoder::SegmentStreamDecoder() {
  Stats.Format = TraceFormat::V2Segmented;
}

SegmentStreamDecoder::~SegmentStreamDecoder() = default;

void SegmentStreamDecoder::feed(const void *Data, size_t Size) {
  if (Finished || Size == 0)
    return;
  BytesFed += Size;
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  Buffer.insert(Buffer.end(), P, P + Size);
  parse();
}

void SegmentStreamDecoder::parse() {
  const uint8_t *Data = Buffer.data();
  const size_t Size = Buffer.size();
  size_t O = Offset;

  if (!HeaderSeen) {
    if (Size - O < sizeof(FileHeader)) {
      Offset = O;
      return;
    }
    FileHeader Header;
    std::memcpy(&Header, Data + O, sizeof(Header));
    if (Header.Magic == FileMagic &&
        Header.Version == SegmentedFileVersion &&
        Header.NumTimestampCounters != 0) {
      NumCounters = Header.NumTimestampCounters;
      O += sizeof(FileHeader);
    } else {
      // Damaged or missing stream header. v2 frames are self-describing,
      // so fall through to the frame loop, which will resync on the first
      // CRC-valid frame magic — the same salvage readTrace() performs.
      Stats.SalvagedHeader = true;
    }
    HeaderSeen = true;
  }

  while (O < Size) {
    const size_t Avail = Size - O;
    if (Avail < sizeof(SegmentHeader))
      break; // Possibly a partial header; wait for more bytes.
    SegmentHeader H;
    if (!parseSegmentHeader(Data + O, Avail, H)) {
      // Damaged header: the frame length cannot be trusted, so resync by
      // scanning for the next frame whose header checks out. One damage
      // episode counts as one dropped segment no matter how many feed()
      // calls it spans (ResyncOpen carries that across calls).
      LastDecodedWasFooter = false;
      size_t Next = findNextHeader(Data, Size, O + 1);
      if (Next == Size) {
        // No validated header in the buffered bytes. A genuine header may
        // straddle the buffer end, so keep the final header-sized-minus-
        // one tail for re-examination once more bytes arrive.
        const size_t Keep = sizeof(SegmentHeader) - 1;
        const size_t Limit = Size - Keep;
        if (Limit <= O)
          break;
        Next = Limit;
      }
      if (!ResyncOpen) {
        ++Stats.SegmentsDropped;
        ResyncOpen = true;
      }
      Stats.BytesDropped += Next - O;
      O = Next;
      continue;
    }
    ResyncOpen = false;
    const size_t FrameBytes = sizeof(SegmentHeader) + H.PayloadBytes;
    if (Avail < FrameBytes)
      break; // Wait for the rest of the payload (finish() accounts it).

    const uint8_t *Payload = Data + O + sizeof(SegmentHeader);
    const bool IsFooter = (H.Flags & SegFlagFooter) != 0;
    bool Decoded = false;
    if (crc32c(Payload, H.PayloadBytes) == H.PayloadCrc) {
      if (IsFooter) {
        if (H.PayloadBytes == sizeof(SegmentFooterPayload) ||
            H.PayloadBytes == LegacyFooterPayloadBytes) {
          SegmentFooterPayload Footer{};
          std::memcpy(&Footer, Payload, H.PayloadBytes);
          FooterSeen = true;
          FooterTotalEvents = Footer.TotalEvents;
          FooterTotalSegments = Footer.TotalSegments;
          FooterDroppedEvents = Footer.DroppedEvents;
          Decoded = true;
        }
      } else if (H.Encoding == SegEncodingRaw) {
        if (H.PayloadBytes ==
            static_cast<uint64_t>(H.EventCount) * sizeof(EventRecord)) {
          Chunk C;
          C.Tid = H.Tid;
          C.Records.resize(H.EventCount);
          std::memcpy(C.Records.data(), Payload, H.PayloadBytes);
          if (validRecords(C.Records.data(), C.Records.size())) {
            Stats.EventsRecovered += C.Records.size();
            noteThreadRecovered(Stats, H.Tid, C.Records.size());
            ++Stats.SegmentsRecovered;
            Ready.push_back(std::move(C));
            Decoded = true;
          }
        }
      } else {
        auto Stream = decompressEventStream(Payload, H.PayloadBytes, H.Tid);
        if (Stream && Stream->size() == H.EventCount) {
          Chunk C;
          C.Tid = H.Tid;
          C.Records = std::move(*Stream);
          Stats.EventsRecovered += C.Records.size();
          noteThreadRecovered(Stats, H.Tid, C.Records.size());
          ++Stats.SegmentsRecovered;
          Ready.push_back(std::move(C));
          Decoded = true;
        }
      }
    }
    if (!Decoded) {
      ++Stats.SegmentsDropped;
      Stats.BytesDropped += FrameBytes;
      if (!IsFooter)
        noteThreadDropped(Stats, H.Tid);
    }
    LastDecodedWasFooter = Decoded && IsFooter;
    O += FrameBytes;
  }

  // Compact the consumed prefix; amortized so steady streaming does not
  // memmove on every feed.
  if (O == Size) {
    Buffer.clear();
    O = 0;
  } else if (O >= (64u << 10)) {
    Buffer.erase(Buffer.begin(), Buffer.begin() + O);
    O = 0;
  }
  Offset = O;
}

void SegmentStreamDecoder::noteGap(uint64_t ShedBytes) {
  if (Finished || ShedBytes == 0)
    return;
  const size_t Buffered = Buffer.size() - Offset;
  if (Buffered != 0) {
    // The buffered partial frame can never complete: its remainder is
    // inside the hole. A CRC-valid header in it still attributes the
    // loss to its thread, as in finish()'s truncated-tail accounting.
    SegmentHeader H;
    if (parseSegmentHeader(Buffer.data() + Offset, Buffered, H))
      noteThreadDropped(Stats, H.Tid);
    Stats.BytesDropped += Buffered;
    Buffer.clear();
    Offset = 0;
  }
  if (!ResyncOpen) {
    ++Stats.SegmentsDropped;
    ResyncOpen = true;
  }
  Stats.BytesDropped += ShedBytes;
  LastDecodedWasFooter = false;
}

void SegmentStreamDecoder::finish() {
  if (Finished)
    return;
  Finished = true;
  const size_t Leftover = Buffer.size() - Offset;
  if (Leftover != 0) {
    // The producer died (or the connection broke) mid-frame. A CRC-valid
    // header in the tail is trustworthy, so the loss is attributable to
    // its thread, exactly as in file salvage.
    Stats.TruncatedTail = true;
    if (!ResyncOpen)
      ++Stats.SegmentsDropped;
    Stats.BytesDropped += Leftover;
    SegmentHeader H;
    if (parseSegmentHeader(Buffer.data() + Offset, Leftover, H))
      noteThreadDropped(Stats, H.Tid);
    LastDecodedWasFooter = false;
  }
  Buffer.clear();
  Buffer.shrink_to_fit();
  Offset = 0;

  Stats.CleanShutdown = LastDecodedWasFooter;
  if (Stats.CleanShutdown) {
    Stats.EventsDroppedByWriter = FooterDroppedEvents;
    if (Stats.SegmentsDropped == 0 && !Stats.TruncatedTail &&
        (FooterTotalEvents != Stats.EventsRecovered ||
         FooterTotalSegments != Stats.SegmentsRecovered))
      Stats.FooterTotalsMismatch = true;
  }
  const size_t Threads = std::max(Stats.PerThreadRecovered.size(),
                                  Stats.PerThreadDropped.size());
  Stats.PerThreadRecovered.resize(Threads);
  Stats.PerThreadDropped.resize(Threads);
}

bool SegmentStreamDecoder::take(Chunk &Out) {
  if (ReadyHead == Ready.size()) {
    Ready.clear();
    ReadyHead = 0;
    return false;
  }
  Out = std::move(Ready[ReadyHead++]);
  if (ReadyHead == Ready.size()) {
    Ready.clear();
    ReadyHead = 0;
  }
  return true;
}
