#include "src/hosts/session_log.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>

#include "src/telemetry/bytes.h"

namespace hangdoctor {

namespace {

using telemetry::FieldRef;

// Sessions with more declared actions than this are refused at parse: a fuzzed header must
// not be able to make the replayed core allocate an unbounded action table.
constexpr int64_t kMaxActionsInLog = 1 << 20;

// The symbol table's per-frame flags byte.
constexpr uint8_t kClosedLibraryFlag = 1;
constexpr uint8_t kUiFlag = 2;
constexpr uint8_t kSelfDevelopedFlag = 4;

// The HDSL directions: the shared writer and reader, plus a FrameId verb. A frame id is a
// varint, and the reader refuses one the session's symbol table does not hold: the replayed
// core indexes the table by id, and the Trace Analyzer names its culprit by id in it.
class LogWriter : public telemetry::ByteWriter {
 public:
  using ByteWriter::ByteWriter;
  void Frame(telemetry::FrameId id, const char* /*what*/) { Varint(id); }
};

class LogReader : public telemetry::ByteReader {
 public:
  LogReader(std::string_view data, std::string* error) : ByteReader(data, error, "log") {}

  // The number of frames in the session's symbol table, once it is known.
  void set_frames(size_t frames) { frames_ = frames; }

  void Frame(telemetry::FrameId& id, const char* what) {
    uint64_t raw = 0;
    Varint(raw);
    if (ok() && raw >= frames_) {
      FailFrame(what, raw);
    } else if (ok()) {
      id = static_cast<telemetry::FrameId>(raw);
    }
  }

 private:
  [[gnu::cold]] void FailFrame(const char* what, uint64_t raw) {
    Fail(std::string(what) + " out of range: " + std::to_string(raw));
  }

  size_t frames_ = 0;
};

// The header: magic, version, SessionInfo (app package, action count, device id), then the
// full HangDoctorConfig, so replay reconstructs the exact detector.
template <typename IO>
void HeaderFields(IO& io, FieldRef<IO, SessionInfo> info, FieldRef<IO, HangDoctorConfig> config) {
  io.Magic({kSessionLogMagic, sizeof(kSessionLogMagic)});
  uint64_t version = kSessionLogVersion;
  io.Varint(version);
  if constexpr (IO::kReading) {
    if (io.ok() && version != kSessionLogVersion) {
      io.Fail("unsupported session log version " + std::to_string(version));
    }
  }
  io.String(info.app_package);
  io.Signed(info.num_actions);
  if constexpr (IO::kReading) {
    if (io.ok() && (info.num_actions <= 0 || info.num_actions > kMaxActionsInLog)) {
      io.Fail("action count out of range: " + std::to_string(info.num_actions));
    }
  }
  io.Signed(info.device_id);

  // The filter as its (event, threshold) conditions; the reader rebuilds it from them.
  std::vector<FilterCondition> conditions;
  if constexpr (!IO::kReading) {
    conditions = config.filter.conditions();
  }
  io.Sequence(conditions, [&io](FieldRef<IO, FilterCondition> condition) {
    auto event = static_cast<uint64_t>(condition.event);
    io.Varint(event);
    if constexpr (IO::kReading) {
      if (io.ok() && event >= telemetry::kNumPerfEvents) {
        io.Fail("filter event out of range: " + std::to_string(event));
      }
      condition.event = static_cast<telemetry::PerfEventType>(event);
    }
    io.Double(condition.threshold);
  });
  if constexpr (IO::kReading) {
    if (io.ok()) {
      config.filter = SoftHangFilter(std::move(conditions));
    }
  }
  io.Bool(config.main_only);
  io.Signed(config.hang_timeout);
  io.Signed(config.sample_interval);
  io.Signed(config.reset_after_normal);
  io.Signed(config.max_counter_retries);
  io.Signed(config.counter_retry_backoff);
  io.Double(config.analyzer.api_occurrence_threshold);
  io.Double(config.analyzer.caller_occurrence_threshold);
  io.Double(config.analyzer.ui_majority);
  io.Signed(config.costs.perf_start);
  io.Signed(config.costs.perf_stop);
  io.Signed(config.costs.perf_read_per_event);
  io.Signed(config.costs.perf_session_bytes);
  io.Signed(config.costs.state_lookup);
  io.Signed(config.costs.trace_start);
  io.Signed(config.costs.trace_start_bytes);
  io.Signed(config.costs.stack_sample);
  io.Signed(config.costs.stack_sample_bytes);
  io.Signed(config.costs.utilization_sample);
  io.Signed(config.costs.utilization_sample_bytes);
  io.Signed(config.costs.response_probe);
  io.Signed(config.costs.async_record);
  io.Bool(config.second_phase_only);
  io.Bool(config.keep_traces);
}

// A frame's flags byte: bit 0 closed-library, bit 1 UI, bit 2 self-developed.
uint8_t SymbolFlags(const telemetry::SymbolTable& symbols, telemetry::FrameId id) {
  return (symbols.Frame(id).in_closed_library ? kClosedLibraryFlag : 0) |
         (symbols.IsUi(id) ? kUiFlag : 0) | (symbols.IsSelfDeveloped(id) ? kSelfDevelopedFlag : 0);
}

// The symbol-table section of the header: a varint frame count, then per frame in id order
// its function, class and file strings, zigzag line, and SymbolFlags byte. The reader
// interns each frame and refuses a table whose ids do not come back in order.
template <typename IO>
void SymbolTableFields(IO& io, FieldRef<IO, telemetry::SymbolTable> symbols) {
  auto frame_fields = [&io](FieldRef<IO, telemetry::StackFrame> frame,
                            FieldRef<IO, uint8_t> flags) {
    io.String(frame.function);
    io.String(frame.clazz);
    io.String(frame.file);
    io.Signed(frame.line);
    io.Byte(flags);
  };
  uint64_t count = symbols.size();
  io.Varint(count);
  for (uint64_t id = 0; io.ok() && id < count; ++id) {
    if constexpr (IO::kReading) {
      telemetry::StackFrame frame;
      uint8_t flags = 0;
      frame_fields(frame, flags);
      if (!io.ok()) {
        break;
      }
      frame.in_closed_library = (flags & kClosedLibraryFlag) != 0;
      if (symbols.Intern(std::move(frame), (flags & kUiFlag) != 0,
                         (flags & kSelfDevelopedFlag) != 0) != id) {
        io.Fail("symbol table not in id order");
      }
    } else {
      const auto frame = static_cast<telemetry::FrameId>(id);
      frame_fields(symbols.Frame(frame), SymbolFlags(symbols, frame));
    }
  }
}

// The record bodies, one field list per tag (the tag byte precedes each).
template <typename IO>
void RecordFields(IO& io, FieldRef<IO, DispatchStart> start) {
  io.Signed(start.now);
  io.Signed(start.execution_id);
  io.Signed(start.action_uid);
  io.Signed(start.event_index);
  io.Signed(start.events_total);
}

// A DispatchEnd's samples: the span it was pushed with, or the parsed record's vector.
template <typename IO>
using SamplesRef = std::conditional_t<IO::kReading, std::vector<telemetry::StackTrace>&,
                                      std::span<const telemetry::StackTrace>>;

template <typename IO>
void RecordFields(IO& io, FieldRef<IO, DispatchEnd> end, SamplesRef<IO> samples) {
  io.Signed(end.now);
  io.Signed(end.execution_id);
  io.Signed(end.event_index);
  io.Signed(end.response);
  io.Bool(end.trace_stopped);
  if (!end.trace_stopped) {
    if constexpr (IO::kReading) {
      samples.clear();
    }
    return;
  }
  // A reused record keeps its earlier samples' elements and their frame capacity: they are
  // overwritten one at a time and the rest truncated, so a warm parse allocates nothing.
  // Every reserve is capped by the bytes left.
  io.Sequence(samples, [&io](FieldRef<IO, telemetry::StackTrace> sample) {
    io.Signed(sample.timestamp_ns);
    io.Varint(sample.thread);
    io.Sequence(sample.frames,
                [&io](FieldRef<IO, telemetry::FrameId> frame) { io.Frame(frame, "frame id"); });
  });
}

template <typename IO>
void RecordFields(IO& io, FieldRef<IO, ActionQuiesce> quiesce) {
  io.Signed(quiesce.now);
  io.Signed(quiesce.execution_id);
  io.Signed(quiesce.action_uid);
  io.Signed(quiesce.max_response);
  io.Bool(quiesce.counters_valid);
  // The counter differences as sparse (index, value) pairs of the nonzero entries; zeros
  // reconstruct implicitly.
  auto pair = [&io](FieldRef<IO, uint64_t> index, FieldRef<IO, double> value) {
    io.Varint(index);
    io.Double(value);
  };
  const telemetry::CounterArray& diffs = quiesce.counter_diffs;
  uint64_t pairs = 0;
  if constexpr (!IO::kReading) {
    pairs = static_cast<uint64_t>(
        std::count_if(diffs.begin(), diffs.end(), [](double value) { return value != 0.0; }));
  }
  io.Varint(pairs);
  if constexpr (IO::kReading) {
    quiesce.counter_diffs = {};
    for (uint64_t p = 0; io.ok() && p < pairs; ++p) {
      uint64_t index = 0;
      double value = 0.0;
      pair(index, value);
      if (io.ok() && index >= diffs.size()) {
        io.Fail("counter index out of range");
      } else if (io.ok()) {
        quiesce.counter_diffs[index] = value;
      }
    }
  } else {
    for (uint64_t index = 0; index < diffs.size(); ++index) {
      if (diffs[index] != 0.0) {
        pair(index, diffs[index]);
      }
    }
  }
}

template <typename IO>
void RecordFields(IO& io, FieldRef<IO, CounterFault> fault) {
  io.Signed(fault.now);
  io.Signed(fault.execution_id);
  io.Bool(fault.permanent);
}

template <typename IO>
void RecordFields(IO& io, FieldRef<IO, AsyncPost> post) {
  io.Signed(post.now);
  io.Signed(post.execution_id);
  io.Varint(post.edge.value);
  io.Varint(post.target);
  io.Frame(post.post_frame, "post frame id");
  io.Signed(post.delay);
}

template <typename IO>
void RecordFields(IO& io, FieldRef<IO, AsyncRun> run) {
  io.Signed(run.now);
  io.Signed(run.execution_id);
  io.Varint(run.edge.value);
  io.Varint(run.thread);
  io.Bool(run.begin);
}

template <typename IO>
void RecordFields(IO& io, FieldRef<IO, AsyncWaitStart> wait) {
  io.Signed(wait.now);
  io.Signed(wait.execution_id);
  io.Varint(wait.edge.value);
  io.Frame(wait.wait_frame, "wait frame id");
}

template <typename IO>
void RecordFields(IO& io, FieldRef<IO, AsyncWaitEnd> wait) {
  io.Signed(wait.now);
  io.Signed(wait.execution_id);
  io.Varint(wait.edge.value);
  io.Signed(wait.waited);
}

// kTraceUsage: the monitored trace's own CPU and bytes.
template <typename IO>
void RecordFields(IO& io, FieldRef<IO, int64_t> cpu, FieldRef<IO, int64_t> bytes) {
  io.Signed(cpu);
  io.Signed(bytes);
}

// kEnd: the tag alone.
template <typename IO>
void RecordFields(IO& /*io*/) {}

// Encodes one record, tag byte and body, into `out` (cleared first; a reused buffer makes
// steady-state recording allocate nothing).
template <typename... Body>
std::string_view EncodeRecord(std::string* out, SessionRecordTag tag, const Body&... body) {
  out->clear();
  LogWriter io(out);
  io.Byte(static_cast<uint8_t>(tag));
  RecordFields(io, body...);
  return *out;
}

// One tag byte + body into `record`. kEnd is tag-only; kTraceUsage lands in the record's
// usage fields.
bool ParseRecordBody(LogReader& in, SessionRecord* record) {
  uint8_t tag = 0;
  in.Byte(tag);
  if (!in.ok()) {
    return false;
  }
  record->tag = static_cast<SessionRecordTag>(tag);
  switch (record->tag) {
    case SessionRecordTag::kDispatchStart:
      RecordFields(in, record->start);
      break;
    case SessionRecordTag::kDispatchEnd:
      RecordFields(in, record->end, record->samples);
      break;
    case SessionRecordTag::kActionQuiesce:
      RecordFields(in, record->quiesce);
      break;
    case SessionRecordTag::kCounterFault:
      RecordFields(in, record->fault);
      break;
    case SessionRecordTag::kAsyncPost:
      RecordFields(in, record->async_post);
      break;
    case SessionRecordTag::kAsyncRun:
      RecordFields(in, record->async_run);
      break;
    case SessionRecordTag::kAsyncWaitStart:
      RecordFields(in, record->wait_start);
      break;
    case SessionRecordTag::kAsyncWaitEnd:
      RecordFields(in, record->wait_end);
      break;
    case SessionRecordTag::kTraceUsage:
      RecordFields(in, record->usage_cpu, record->usage_bytes);
      break;
    case SessionRecordTag::kEnd:
      break;
    default:
      return in.Fail("unknown record tag " + std::to_string(tag));
  }
  return in.ok();
}

// Symbol-table section into a fresh table. The result is meaningful only while the reader
// is still ok; record frame ids are checked against it from here on.
std::shared_ptr<telemetry::SymbolTable> ParseSymbolTable(LogReader& in) {
  auto symbols = std::make_shared<telemetry::SymbolTable>();
  SymbolTableFields(in, *symbols);
  in.set_frames(symbols->size());
  return symbols;
}

void SetSymbols(SessionLog* log, std::shared_ptr<const telemetry::SymbolTable> symbols) {
  log->info.symbols = symbols.get();
  log->symbols = std::move(symbols);
}

// An open prefix: header and symbol table with nothing after them. With a cache, the
// section runs from the table's count varint to the end of `bytes`, so it is looked up
// whole before the frame loop; without one (or on a miss) it parses exactly as in
// ParseSessionLog.
bool ParseOpenPrefix(std::string_view bytes, SymbolTableCache* cache, SessionLog* log,
                     std::string* error, bool* shared) {
  LogReader in(bytes, error);
  HeaderFields(in, log->info, log->config);
  if (!in.ok()) {
    return false;
  }
  const std::string_view section = bytes.substr(in.pos());
  if (cache != nullptr) {
    if (std::shared_ptr<const telemetry::SymbolTable> symbols = cache->Find(section)) {
      SetSymbols(log, std::move(symbols));
      if (shared != nullptr) {
        *shared = true;
      }
      return true;
    }
  }
  std::shared_ptr<const telemetry::SymbolTable> symbols = ParseSymbolTable(in);
  if (!in.ok()) {
    return false;
  }
  if (!in.AtEnd()) {
    return in.Fail("trailing bytes after session log prefix");
  }
  if (cache != nullptr) {
    symbols = cache->Insert(section, std::move(symbols));
  }
  SetSymbols(log, std::move(symbols));
  return true;
}

bool ParseSessionLog(const std::string& data, SessionLog* log, SessionLogLayout* layout,
                     std::string* error) {
  LogReader in(data, error);
  HeaderFields(in, log->info, log->config);
  if (layout != nullptr) {
    layout->symtab_begin = in.pos();
  }
  SetSymbols(log, ParseSymbolTable(in));
  if (layout != nullptr) {
    layout->header_end = in.pos();
  }

  bool saw_end = false;
  while (in.ok() && !saw_end) {
    size_t record_offset = in.pos();
    SessionRecord record;
    if (!ParseRecordBody(in, &record)) {
      break;
    }
    if (layout != nullptr) {
      layout->record_offsets.push_back(record_offset);
    }
    switch (record.tag) {
      case SessionRecordTag::kTraceUsage:
        log->has_usage = true;
        log->usage_cpu = record.usage_cpu;
        log->usage_bytes = record.usage_bytes;
        break;
      case SessionRecordTag::kEnd:
        saw_end = true;
        break;
      default:
        log->records.push_back(std::move(record));
        break;
    }
  }
  if (in.ok() && !saw_end) {
    return in.Fail("missing end marker (truncated log)");
  }
  return in.ok();
}

}  // namespace

SessionLogWriter::SessionLogWriter(const std::string& path, const HangDoctorConfig& config)
    : out_(path, std::ios::binary | std::ios::trunc), config_(config) {
  if (!out_.good()) {
    ok_ = false;
  }
}

SessionLogWriter::~SessionLogWriter() { Finish(); }

void SessionLogWriter::WriteBytes(std::string_view bytes) {
  if (!ok_ || bytes.empty()) {
    return;
  }
  auto want = static_cast<int64_t>(bytes.size());
  if (fail_after_ >= 0 && written_ + want > fail_after_) {
    // Injected torn write: the prefix that fits lands, the rest is lost, and the writer
    // fails sticky — exactly the shape of a crash mid-write or a disk running full.
    int64_t fits = std::max<int64_t>(0, fail_after_ - written_);
    if (fits > 0) {
      out_.write(bytes.data(), static_cast<std::streamsize>(fits));
      written_ += fits;
    }
    ok_ = false;
    return;
  }
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out_.good()) {
    ok_ = false;
    return;
  }
  written_ += want;
}

void SessionLogWriter::OnSessionStart(const SessionInfo& info) {
  record_.clear();
  LogWriter io(&record_);
  HeaderFields(io, info, config_);
  SymbolTableFields(io, *info.symbols);
  WriteBytes(record_);
}

MonitorDirectives SessionLogWriter::OnDispatchStart(const DispatchStart& start) {
  WriteBytes(EncodeRecord(&record_, SessionRecordTag::kDispatchStart, start));
  return {};
}

void SessionLogWriter::OnDispatchEnd(const DispatchEnd& end) {
  WriteBytes(EncodeRecord(&record_, SessionRecordTag::kDispatchEnd, end, end.samples));
}

void SessionLogWriter::OnActionQuiesce(const ActionQuiesce& quiesce) {
  WriteBytes(EncodeRecord(&record_, SessionRecordTag::kActionQuiesce, quiesce));
}

void SessionLogWriter::OnCounterFault(const CounterFault& fault) {
  WriteBytes(EncodeRecord(&record_, SessionRecordTag::kCounterFault, fault));
}

void SessionLogWriter::OnAsyncPost(const AsyncPost& post) {
  WriteBytes(EncodeRecord(&record_, SessionRecordTag::kAsyncPost, post));
}

void SessionLogWriter::OnAsyncRun(const AsyncRun& run) {
  WriteBytes(EncodeRecord(&record_, SessionRecordTag::kAsyncRun, run));
}

void SessionLogWriter::OnAsyncWaitStart(const AsyncWaitStart& wait) {
  WriteBytes(EncodeRecord(&record_, SessionRecordTag::kAsyncWaitStart, wait));
}

void SessionLogWriter::OnAsyncWaitEnd(const AsyncWaitEnd& wait) {
  WriteBytes(EncodeRecord(&record_, SessionRecordTag::kAsyncWaitEnd, wait));
}

void SessionLogWriter::WriteTraceUsage(int64_t cpu, int64_t bytes) {
  WriteBytes(EncodeRecord(&record_, SessionRecordTag::kTraceUsage, cpu, bytes));
}

void SessionLogWriter::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  if (out_.is_open()) {
    WriteBytes(EncodeRecord(&record_, SessionRecordTag::kEnd));
    out_.close();
    if (!out_.good()) {
      ok_ = false;
    }
  }
}

bool LoadSessionLog(const std::string& path, SessionLog* log, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return ParseSessionLog(data, log, nullptr, error);
}

bool LoadSessionLogBytes(const std::string& bytes, SessionLog* log, std::string* error) {
  return ParseSessionLog(bytes, log, nullptr, error);
}

bool ScanSessionLog(const std::string& bytes, SessionLogLayout* layout, std::string* error) {
  SessionLog scratch;
  layout->header_end = 0;
  layout->symtab_begin = 0;
  layout->record_offsets.clear();
  return ParseSessionLog(bytes, &scratch, layout, error);
}

size_t SymbolTableCache::Hash(std::string_view section) {
  // splitmix64's finalizer over (length, sampled words): a few dozen instructions whatever
  // the section's size. Byte equality, not this hash, decides a match.
  auto mix = [](uint64_t h) {
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
  };
  uint64_t h = mix(section.size());
  if (section.size() < sizeof(uint64_t)) {
    uint64_t word = 0;
    if (!section.empty()) {
      std::memcpy(&word, section.data(), section.size());
    }
    return mix(h ^ word);
  }
  const size_t last = section.size() - sizeof(uint64_t);
  for (size_t i = 0; i < kHashWords; ++i) {
    uint64_t word;
    std::memcpy(&word, section.data() + last * i / (kHashWords - 1), sizeof(word));
    h = mix(h ^ word);
  }
  return h;
}

std::shared_ptr<const telemetry::SymbolTable> SymbolTableCache::Find(
    std::string_view section) const {
  const Probe probe{section, Hash(section)};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(probe);
  return it == entries_.end() ? nullptr : it->second.lock();
}

std::shared_ptr<const telemetry::SymbolTable> SymbolTableCache::Insert(
    std::string_view section, std::shared_ptr<const telemetry::SymbolTable> table) {
  const Probe probe{section, Hash(section)};
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(entries_, [](const auto& entry) { return entry.second.expired(); });
  auto it = entries_.find(probe);
  if (it == entries_.end()) {
    entries_.emplace(std::string(section), table);
    return table;
  }
  // A concurrent miss on the same bytes may have published first: share its table while it
  // is still alive.
  if (std::shared_ptr<const telemetry::SymbolTable> live = it->second.lock()) {
    return live;
  }
  it->second = table;
  return table;
}

size_t SymbolTableCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

bool ParseSessionLogPrefix(std::string_view bytes, SessionLog* log, std::string* error) {
  return ParseOpenPrefix(bytes, nullptr, log, error, nullptr);
}

bool ParseSessionLogPrefix(std::string_view bytes, SymbolTableCache& cache, SessionLog* log,
                           std::string* error, bool* shared) {
  if (shared != nullptr) {
    *shared = false;
  }
  return ParseOpenPrefix(bytes, &cache, log, error, shared);
}

bool ParseSessionRecordBytes(std::string_view bytes, const telemetry::SymbolTable& symbols,
                             SessionRecord* record, std::string* error) {
  LogReader in(bytes, error);
  in.set_frames(symbols.size());
  if (!ParseRecordBody(in, record)) {
    return false;
  }
  if (record->tag == SessionRecordTag::kEnd) {
    return in.Fail("unexpected end marker record");
  }
  if (!in.AtEnd()) {
    return in.Fail("trailing bytes after record");
  }
  return true;
}

bool ToSpiPayload(SessionRecord&& record, SpiPayload* payload) {
  switch (record.tag) {
    case SessionRecordTag::kDispatchStart:
      payload->start = record.start;
      payload->kind = SpiPayload::Kind::kDispatchStart;
      return true;
    case SessionRecordTag::kDispatchEnd:
      payload->end = record.end;
      // Swapped, not moved: the record gets the payload's old sample buffers back, so a
      // decoder that reuses both parses the next sampled record without allocating.
      payload->samples.swap(record.samples);
      payload->kind = SpiPayload::Kind::kDispatchEnd;
      return true;
    case SessionRecordTag::kActionQuiesce:
      payload->quiesce = record.quiesce;
      payload->kind = SpiPayload::Kind::kActionQuiesce;
      return true;
    case SessionRecordTag::kCounterFault:
      payload->fault = record.fault;
      payload->kind = SpiPayload::Kind::kCounterFault;
      return true;
    case SessionRecordTag::kAsyncPost:
      payload->async_post = record.async_post;
      payload->kind = SpiPayload::Kind::kAsyncPost;
      return true;
    case SessionRecordTag::kAsyncRun:
      payload->async_run = record.async_run;
      payload->kind = SpiPayload::Kind::kAsyncRun;
      return true;
    case SessionRecordTag::kAsyncWaitStart:
      payload->wait_start = record.wait_start;
      payload->kind = SpiPayload::Kind::kAsyncWaitStart;
      return true;
    case SessionRecordTag::kAsyncWaitEnd:
      payload->wait_end = record.wait_end;
      payload->kind = SpiPayload::Kind::kAsyncWaitEnd;
      return true;
    default:
      return false;
  }
}

}  // namespace hangdoctor
