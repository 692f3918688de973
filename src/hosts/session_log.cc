#include "src/hosts/session_log.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/telemetry/bytes.h"

namespace hangdoctor {

namespace {

using telemetry::PutDouble;
using telemetry::PutSigned;
using telemetry::PutString;
using telemetry::PutVarint;

void PutBool(std::string* out, bool value) { out->push_back(value ? '\1' : '\0'); }

// Sessions with more declared actions than this are refused at parse: a fuzzed header must
// not be able to make the replayed core allocate an unbounded action table.
constexpr int64_t kMaxActionsInLog = 1 << 20;

// The symbol table's per-frame flags byte.
constexpr uint8_t kClosedLibraryFlag = 1;
constexpr uint8_t kUiFlag = 2;
constexpr uint8_t kSelfDevelopedFlag = 4;

// Sequential reader over a loaded log: the sticky-failure and "(at byte N)" message layer
// over the shared byte codec. After the first failure every read returns zero and the first
// error stands.
class Parser {
 public:
  Parser(std::string_view data, std::string* error) : data_(data), error_(error) {}

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }

  bool Fail(const std::string& message) {
    if (ok_) {
      ok_ = false;
      *error_ = message + " (at byte " + std::to_string(pos_) + ")";
    }
    return false;
  }

  uint8_t GetByte() {
    if (!ok_ || pos_ >= data_.size()) {
      Fail("unexpected end of log");
      return 0;
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }

  uint64_t GetVarint() {
    uint64_t value = 0;
    if (ok_ && !telemetry::GetVarint(data_, &pos_, &value)) {
      FailVarint();
    }
    return value;
  }

  int64_t GetSigned() {
    int64_t value = 0;
    if (ok_ && !telemetry::GetSigned(data_, &pos_, &value)) {
      FailVarint();
    }
    return value;
  }

  double GetDouble() {
    double value = 0.0;
    if (ok_ && !telemetry::GetDouble(data_, &pos_, &value)) {
      Fail("unexpected end of log");
    }
    return value;
  }

  std::string GetString() {
    std::string_view value;
    if (ok_ && !telemetry::GetString(data_, &pos_, &value)) {
      // Either the length varint failed, or the length overruns the bytes after it.
      uint64_t length = 0;
      if (telemetry::GetVarint(data_, &pos_, &length)) {
        Fail("unexpected end of log");
      } else {
        FailVarint();
      }
    }
    return std::string(value);
  }

  bool AtEnd() const { return pos_ >= data_.size(); }

  // Bytes not yet read. Every sample and every frame id takes at least one byte, so this
  // caps a reserve against a declared count: a fuzzed count cannot request a huge buffer.
  size_t remaining() const { return data_.size() - std::min(pos_, data_.size()); }

 private:
  // Reports a varint that failed at pos_ where a byte-at-a-time read stops: at the end of
  // the log when it is truncated, just past its tenth byte when it overflows.
  void FailVarint() {
    if (telemetry::VarintTruncated(data_, pos_)) {
      pos_ = data_.size();
      Fail("unexpected end of log");
    } else {
      pos_ += telemetry::kMaxVarintBytes;
      Fail("varint too long");
    }
  }

  std::string_view data_;
  std::string* error_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Header grammar — magic, version, SessionInfo, config — leaving the parser positioned at
// the symbol table's count varint.
bool ParseHeader(Parser& parser, std::string_view data, SessionLog* log, std::string* error) {
  if (data.size() < sizeof(kSessionLogMagic) ||
      std::memcmp(data.data(), kSessionLogMagic, sizeof(kSessionLogMagic)) != 0) {
    *error = "not a session log (bad magic)";
    return false;
  }
  for (size_t i = 0; i < sizeof(kSessionLogMagic); ++i) {
    parser.GetByte();
  }
  uint64_t version = parser.GetVarint();
  if (parser.ok() && version != kSessionLogVersion) {
    *error = "unsupported session log version " + std::to_string(version);
    return false;
  }

  log->info.app_package = parser.GetString();
  int64_t num_actions = parser.GetSigned();
  if (parser.ok() && (num_actions <= 0 || num_actions > kMaxActionsInLog)) {
    return parser.Fail("action count out of range: " + std::to_string(num_actions));
  }
  log->info.num_actions = static_cast<int32_t>(num_actions);
  log->info.device_id = static_cast<int32_t>(parser.GetSigned());

  uint64_t num_conditions = parser.GetVarint();
  std::vector<FilterCondition> conditions;
  for (uint64_t i = 0; parser.ok() && i < num_conditions; ++i) {
    FilterCondition condition;
    uint64_t event = parser.GetVarint();
    if (parser.ok() && event >= telemetry::kNumPerfEvents) {
      return parser.Fail("filter event out of range: " + std::to_string(event));
    }
    condition.event = static_cast<telemetry::PerfEventType>(event);
    condition.threshold = parser.GetDouble();
    conditions.push_back(condition);
  }
  log->config.filter = SoftHangFilter(std::move(conditions));
  log->config.main_only = parser.GetByte() != 0;
  log->config.hang_timeout = parser.GetSigned();
  log->config.sample_interval = parser.GetSigned();
  log->config.reset_after_normal = static_cast<int32_t>(parser.GetSigned());
  log->config.max_counter_retries = static_cast<int32_t>(parser.GetSigned());
  log->config.counter_retry_backoff = static_cast<int32_t>(parser.GetSigned());
  log->config.analyzer.api_occurrence_threshold = parser.GetDouble();
  log->config.analyzer.caller_occurrence_threshold = parser.GetDouble();
  log->config.analyzer.ui_majority = parser.GetDouble();
  log->config.costs.perf_start = parser.GetSigned();
  log->config.costs.perf_stop = parser.GetSigned();
  log->config.costs.perf_read_per_event = parser.GetSigned();
  log->config.costs.perf_session_bytes = parser.GetSigned();
  log->config.costs.state_lookup = parser.GetSigned();
  log->config.costs.trace_start = parser.GetSigned();
  log->config.costs.trace_start_bytes = parser.GetSigned();
  log->config.costs.stack_sample = parser.GetSigned();
  log->config.costs.stack_sample_bytes = parser.GetSigned();
  log->config.costs.utilization_sample = parser.GetSigned();
  log->config.costs.utilization_sample_bytes = parser.GetSigned();
  log->config.costs.response_probe = parser.GetSigned();
  log->config.costs.async_record = parser.GetSigned();
  log->config.second_phase_only = parser.GetByte() != 0;
  log->config.keep_traces = parser.GetByte() != 0;

  return parser.ok();
}

// Symbol-table grammar: every frame in id order. The result is meaningful only while the
// parser is still ok.
std::shared_ptr<telemetry::SymbolTable> ParseSymbolTable(Parser& parser) {
  auto symbols = std::make_shared<telemetry::SymbolTable>();
  uint64_t num_frames = parser.GetVarint();
  for (uint64_t i = 0; parser.ok() && i < num_frames; ++i) {
    telemetry::StackFrame frame;
    frame.function = parser.GetString();
    frame.clazz = parser.GetString();
    frame.file = parser.GetString();
    frame.line = static_cast<int32_t>(parser.GetSigned());
    uint8_t flags = parser.GetByte();
    frame.in_closed_library = (flags & kClosedLibraryFlag) != 0;
    if (!parser.ok()) {
      break;
    }
    telemetry::FrameId id = symbols->Intern(std::move(frame), (flags & kUiFlag) != 0,
                                            (flags & kSelfDevelopedFlag) != 0);
    if (id != i) {
      parser.Fail("symbol table not in id order");
      break;
    }
  }
  return symbols;
}

void SetSymbols(SessionLog* log, std::shared_ptr<const telemetry::SymbolTable> symbols) {
  log->info.symbols = symbols.get();
  log->symbols = std::move(symbols);
}

// Shared prefix grammar — header, then symbol table — leaving the parser positioned at the
// first record's tag byte.
bool ParsePrefix(Parser& parser, std::string_view data, SessionLog* log,
                 SessionLogLayout* layout, std::string* error) {
  if (!ParseHeader(parser, data, log, error)) {
    return false;
  }
  if (layout != nullptr) {
    layout->symtab_begin = parser.pos();
  }
  SetSymbols(log, ParseSymbolTable(parser));
  if (layout != nullptr) {
    layout->header_end = parser.pos();
  }
  return parser.ok();
}

// An open prefix: header and symbol table with nothing after them. With a cache, the
// section runs from the table's count varint to the end of `bytes`, so it is looked up
// whole before the frame loop; without one (or on a miss) it parses exactly as in
// ParsePrefix.
bool ParseOpenPrefix(std::string_view bytes, SymbolTableCache* cache, SessionLog* log,
                     std::string* error, bool* shared) {
  Parser parser(bytes, error);
  if (!ParseHeader(parser, bytes, log, error)) {
    return false;
  }
  const std::string_view section = bytes.substr(parser.pos());
  if (cache != nullptr) {
    if (std::shared_ptr<const telemetry::SymbolTable> symbols = cache->Find(section)) {
      SetSymbols(log, std::move(symbols));
      if (shared != nullptr) {
        *shared = true;
      }
      return true;
    }
  }
  std::shared_ptr<const telemetry::SymbolTable> symbols = ParseSymbolTable(parser);
  if (!parser.ok()) {
    return false;
  }
  if (!parser.AtEnd()) {
    return parser.Fail("trailing bytes after session log prefix");
  }
  if (cache != nullptr) {
    symbols = cache->Insert(section, std::move(symbols));
  }
  SetSymbols(log, std::move(symbols));
  return true;
}

// Shared record grammar: one tag byte + body into `record`. kEnd is tag-only; kTraceUsage
// lands in the record's usage fields. Every FrameId is range-checked against `symbols`,
// exactly as the monolithic parse checks against the log's own table.
bool ParseRecordBody(Parser& parser, const telemetry::SymbolTable& symbols,
                     SessionRecord* record) {
  auto tag = static_cast<SessionRecordTag>(parser.GetByte());
  if (!parser.ok()) {
    return false;
  }
  record->tag = tag;
  switch (tag) {
    case SessionRecordTag::kDispatchStart: {
      record->start.now = parser.GetSigned();
      record->start.execution_id = parser.GetSigned();
      record->start.action_uid = static_cast<int32_t>(parser.GetSigned());
      record->start.event_index = static_cast<int32_t>(parser.GetSigned());
      record->start.events_total = static_cast<int32_t>(parser.GetSigned());
      break;
    }
    case SessionRecordTag::kDispatchEnd: {
      record->end.now = parser.GetSigned();
      record->end.execution_id = parser.GetSigned();
      record->end.event_index = static_cast<int32_t>(parser.GetSigned());
      record->end.response = parser.GetSigned();
      record->end.trace_stopped = parser.GetByte() != 0;
      // A reused record keeps its earlier samples' elements and their frame capacity: they
      // are overwritten one at a time and the rest truncated, so a warm parse allocates
      // nothing. Every reserve is capped by the bytes left.
      size_t parsed = 0;
      if (record->end.trace_stopped) {
        uint64_t num_samples = parser.GetVarint();
        record->samples.reserve(std::min<uint64_t>(num_samples, parser.remaining()));
        for (; parser.ok() && parsed < num_samples; ++parsed) {
          if (parsed == record->samples.size()) {
            record->samples.emplace_back();
          }
          telemetry::StackTrace& sample = record->samples[parsed];
          sample.timestamp_ns = parser.GetSigned();
          sample.thread = static_cast<telemetry::ThreadId>(parser.GetVarint());
          uint64_t depth = parser.GetVarint();
          sample.frames.clear();
          sample.frames.reserve(std::min<uint64_t>(depth, parser.remaining()));
          for (uint64_t f = 0; parser.ok() && f < depth; ++f) {
            uint64_t frame_id = parser.GetVarint();
            // Unknown FrameIds must die here: the replayed core indexes the symbol table
            // by id, and the Trace Analyzer names its culprit by id in that table.
            if (parser.ok() && frame_id >= symbols.size()) {
              return parser.Fail("frame id out of range: " + std::to_string(frame_id));
            }
            sample.frames.push_back(static_cast<telemetry::FrameId>(frame_id));
          }
        }
      }
      record->samples.resize(parsed);
      break;
    }
    case SessionRecordTag::kActionQuiesce: {
      record->quiesce.now = parser.GetSigned();
      record->quiesce.execution_id = parser.GetSigned();
      record->quiesce.action_uid = static_cast<int32_t>(parser.GetSigned());
      record->quiesce.max_response = parser.GetSigned();
      record->quiesce.counters_valid = parser.GetByte() != 0;
      record->quiesce.counter_diffs = {};  // only the listed pairs are set below
      uint64_t num_pairs = parser.GetVarint();
      for (uint64_t p = 0; parser.ok() && p < num_pairs; ++p) {
        uint64_t index = parser.GetVarint();
        double value = parser.GetDouble();
        if (index >= record->quiesce.counter_diffs.size()) {
          return parser.Fail("counter index out of range");
        }
        record->quiesce.counter_diffs[index] = value;
      }
      break;
    }
    case SessionRecordTag::kCounterFault: {
      record->fault.now = parser.GetSigned();
      record->fault.execution_id = parser.GetSigned();
      record->fault.permanent = parser.GetByte() != 0;
      break;
    }
    case SessionRecordTag::kAsyncPost: {
      record->async_post.now = parser.GetSigned();
      record->async_post.execution_id = parser.GetSigned();
      record->async_post.edge.value = parser.GetVarint();
      record->async_post.target = static_cast<telemetry::ThreadId>(parser.GetVarint());
      uint64_t post_frame = parser.GetVarint();
      if (parser.ok() && post_frame >= symbols.size()) {
        return parser.Fail("post frame id out of range: " + std::to_string(post_frame));
      }
      record->async_post.post_frame = static_cast<telemetry::FrameId>(post_frame);
      record->async_post.delay = parser.GetSigned();
      break;
    }
    case SessionRecordTag::kAsyncRun: {
      record->async_run.now = parser.GetSigned();
      record->async_run.execution_id = parser.GetSigned();
      record->async_run.edge.value = parser.GetVarint();
      record->async_run.thread = static_cast<telemetry::ThreadId>(parser.GetVarint());
      record->async_run.begin = parser.GetByte() != 0;
      break;
    }
    case SessionRecordTag::kAsyncWaitStart: {
      record->wait_start.now = parser.GetSigned();
      record->wait_start.execution_id = parser.GetSigned();
      record->wait_start.edge.value = parser.GetVarint();
      uint64_t wait_frame = parser.GetVarint();
      if (parser.ok() && wait_frame >= symbols.size()) {
        return parser.Fail("wait frame id out of range: " + std::to_string(wait_frame));
      }
      record->wait_start.wait_frame = static_cast<telemetry::FrameId>(wait_frame);
      break;
    }
    case SessionRecordTag::kAsyncWaitEnd: {
      record->wait_end.now = parser.GetSigned();
      record->wait_end.execution_id = parser.GetSigned();
      record->wait_end.edge.value = parser.GetVarint();
      record->wait_end.waited = parser.GetSigned();
      break;
    }
    case SessionRecordTag::kTraceUsage: {
      record->usage_cpu = parser.GetSigned();
      record->usage_bytes = parser.GetSigned();
      break;
    }
    case SessionRecordTag::kEnd:
      break;
    default:
      return parser.Fail("unknown record tag " + std::to_string(static_cast<int>(tag)));
  }
  return parser.ok();
}

bool ParseSessionLog(const std::string& data, SessionLog* log, SessionLogLayout* layout,
                     std::string* error) {
  Parser parser(data, error);
  if (!ParsePrefix(parser, data, log, layout, error)) {
    return false;
  }

  bool saw_end = false;
  while (parser.ok() && !saw_end) {
    size_t record_offset = parser.pos();
    SessionRecord record;
    if (!ParseRecordBody(parser, *log->symbols, &record)) {
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
  if (parser.ok() && !saw_end) {
    return parser.Fail("missing end marker (truncated log)");
  }
  return parser.ok();
}

// A frame's flags byte: bit 0 closed-library, bit 1 UI, bit 2 self-developed.
uint8_t SymbolFlags(const telemetry::SymbolTable& symbols, telemetry::FrameId id) {
  uint8_t flags = 0;
  if (symbols.Frame(id).in_closed_library) {
    flags |= kClosedLibraryFlag;
  }
  if (symbols.IsUi(id)) {
    flags |= kUiFlag;
  }
  if (symbols.IsSelfDeveloped(id)) {
    flags |= kSelfDevelopedFlag;
  }
  return flags;
}

// The symbol-table section of the header: a varint frame count, then per frame in id order
// its function, class and file strings, zigzag line, and SymbolFlags byte.
void AppendSymbolTable(const telemetry::SymbolTable& symbols, std::string* out) {
  PutVarint(out, symbols.size());
  for (telemetry::FrameId id = 0; id < symbols.size(); ++id) {
    const telemetry::StackFrame& frame = symbols.Frame(id);
    PutString(out, frame.function);
    PutString(out, frame.clazz);
    PutString(out, frame.file);
    PutSigned(out, frame.line);
    out->push_back(static_cast<char>(SymbolFlags(symbols, id)));
  }
}

}  // namespace

SessionLogWriter::SessionLogWriter(const std::string& path, const HangDoctorConfig& config)
    : out_(path, std::ios::binary | std::ios::trunc), config_(config) {
  if (!out_.good()) {
    ok_ = false;
  }
}

SessionLogWriter::~SessionLogWriter() { Finish(); }

void SessionLogWriter::WriteBytes(const char* data, size_t size) {
  if (!ok_ || size == 0) {
    return;
  }
  auto want = static_cast<int64_t>(size);
  if (fail_after_ >= 0 && written_ + want > fail_after_) {
    // Injected torn write: the prefix that fits lands, the rest is lost, and the writer
    // fails sticky — exactly the shape of a crash mid-write or a disk running full.
    int64_t fits = std::max<int64_t>(0, fail_after_ - written_);
    if (fits > 0) {
      out_.write(data, static_cast<std::streamsize>(fits));
      written_ += fits;
    }
    ok_ = false;
    return;
  }
  out_.write(data, static_cast<std::streamsize>(size));
  if (!out_.good()) {
    ok_ = false;
    return;
  }
  written_ += want;
}

std::string* SessionLogWriter::BeginRecord(SessionRecordTag tag) {
  record_.clear();
  record_.push_back(static_cast<char>(tag));
  return &record_;
}

void SessionLogWriter::WriteRecord() { WriteBytes(record_.data(), record_.size()); }

void SessionLogWriter::OnSessionStart(const SessionInfo& info) {
  std::string* out = &record_;
  out->assign(kSessionLogMagic, sizeof(kSessionLogMagic));
  PutVarint(out, kSessionLogVersion);
  PutString(out, info.app_package);
  PutSigned(out, info.num_actions);
  PutSigned(out, info.device_id);

  // Full config, so replay reconstructs the exact detector.
  PutVarint(out, config_.filter.conditions().size());
  for (const FilterCondition& condition : config_.filter.conditions()) {
    PutVarint(out, static_cast<uint64_t>(condition.event));
    PutDouble(out, condition.threshold);
  }
  PutBool(out, config_.main_only);
  PutSigned(out, config_.hang_timeout);
  PutSigned(out, config_.sample_interval);
  PutSigned(out, config_.reset_after_normal);
  PutSigned(out, config_.max_counter_retries);
  PutSigned(out, config_.counter_retry_backoff);
  PutDouble(out, config_.analyzer.api_occurrence_threshold);
  PutDouble(out, config_.analyzer.caller_occurrence_threshold);
  PutDouble(out, config_.analyzer.ui_majority);
  PutSigned(out, config_.costs.perf_start);
  PutSigned(out, config_.costs.perf_stop);
  PutSigned(out, config_.costs.perf_read_per_event);
  PutSigned(out, config_.costs.perf_session_bytes);
  PutSigned(out, config_.costs.state_lookup);
  PutSigned(out, config_.costs.trace_start);
  PutSigned(out, config_.costs.trace_start_bytes);
  PutSigned(out, config_.costs.stack_sample);
  PutSigned(out, config_.costs.stack_sample_bytes);
  PutSigned(out, config_.costs.utilization_sample);
  PutSigned(out, config_.costs.utilization_sample_bytes);
  PutSigned(out, config_.costs.response_probe);
  PutSigned(out, config_.costs.async_record);
  PutBool(out, config_.second_phase_only);
  PutBool(out, config_.keep_traces);

  AppendSymbolTable(*info.symbols, out);
  WriteRecord();
}

MonitorDirectives SessionLogWriter::OnDispatchStart(const DispatchStart& start) {
  std::string* out = BeginRecord(SessionRecordTag::kDispatchStart);
  PutSigned(out, start.now);
  PutSigned(out, start.execution_id);
  PutSigned(out, start.action_uid);
  PutSigned(out, start.event_index);
  PutSigned(out, start.events_total);
  WriteRecord();
  return {};
}

void SessionLogWriter::OnDispatchEnd(const DispatchEnd& end) {
  std::string* out = BeginRecord(SessionRecordTag::kDispatchEnd);
  PutSigned(out, end.now);
  PutSigned(out, end.execution_id);
  PutSigned(out, end.event_index);
  PutSigned(out, end.response);
  PutBool(out, end.trace_stopped);
  if (end.trace_stopped) {
    PutVarint(out, end.samples.size());
    for (const telemetry::StackTrace& sample : end.samples) {
      PutSigned(out, sample.timestamp_ns);
      PutVarint(out, sample.thread);
      PutVarint(out, sample.frames.size());
      for (telemetry::FrameId frame : sample.frames) {
        PutVarint(out, frame);
      }
    }
  }
  WriteRecord();
}

void SessionLogWriter::OnActionQuiesce(const ActionQuiesce& quiesce) {
  std::string* out = BeginRecord(SessionRecordTag::kActionQuiesce);
  PutSigned(out, quiesce.now);
  PutSigned(out, quiesce.execution_id);
  PutSigned(out, quiesce.action_uid);
  PutSigned(out, quiesce.max_response);
  PutBool(out, quiesce.counters_valid);
  // Sparse nonzero entries; zeros reconstruct implicitly.
  uint64_t nonzero = 0;
  for (double value : quiesce.counter_diffs) {
    if (value != 0.0) {
      ++nonzero;
    }
  }
  PutVarint(out, nonzero);
  for (size_t index = 0; index < quiesce.counter_diffs.size(); ++index) {
    if (quiesce.counter_diffs[index] != 0.0) {
      PutVarint(out, index);
      PutDouble(out, quiesce.counter_diffs[index]);
    }
  }
  WriteRecord();
}

void SessionLogWriter::OnCounterFault(const CounterFault& fault) {
  std::string* out = BeginRecord(SessionRecordTag::kCounterFault);
  PutSigned(out, fault.now);
  PutSigned(out, fault.execution_id);
  PutBool(out, fault.permanent);
  WriteRecord();
}

void SessionLogWriter::OnAsyncPost(const AsyncPost& post) {
  std::string* out = BeginRecord(SessionRecordTag::kAsyncPost);
  PutSigned(out, post.now);
  PutSigned(out, post.execution_id);
  PutVarint(out, post.edge.value);
  PutVarint(out, post.target);
  PutVarint(out, post.post_frame);
  PutSigned(out, post.delay);
  WriteRecord();
}

void SessionLogWriter::OnAsyncRun(const AsyncRun& run) {
  std::string* out = BeginRecord(SessionRecordTag::kAsyncRun);
  PutSigned(out, run.now);
  PutSigned(out, run.execution_id);
  PutVarint(out, run.edge.value);
  PutVarint(out, run.thread);
  PutBool(out, run.begin);
  WriteRecord();
}

void SessionLogWriter::OnAsyncWaitStart(const AsyncWaitStart& wait) {
  std::string* out = BeginRecord(SessionRecordTag::kAsyncWaitStart);
  PutSigned(out, wait.now);
  PutSigned(out, wait.execution_id);
  PutVarint(out, wait.edge.value);
  PutVarint(out, wait.wait_frame);
  WriteRecord();
}

void SessionLogWriter::OnAsyncWaitEnd(const AsyncWaitEnd& wait) {
  std::string* out = BeginRecord(SessionRecordTag::kAsyncWaitEnd);
  PutSigned(out, wait.now);
  PutSigned(out, wait.execution_id);
  PutVarint(out, wait.edge.value);
  PutSigned(out, wait.waited);
  WriteRecord();
}

void SessionLogWriter::WriteTraceUsage(int64_t cpu, int64_t bytes) {
  std::string* out = BeginRecord(SessionRecordTag::kTraceUsage);
  PutSigned(out, cpu);
  PutSigned(out, bytes);
  WriteRecord();
}

void SessionLogWriter::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  if (out_.is_open()) {
    BeginRecord(SessionRecordTag::kEnd);
    WriteRecord();
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
  Parser parser(bytes, error);
  if (!ParseRecordBody(parser, symbols, record)) {
    return false;
  }
  if (record->tag == SessionRecordTag::kEnd) {
    return parser.Fail("unexpected end marker record");
  }
  if (!parser.AtEnd()) {
    return parser.Fail("trailing bytes after record");
  }
  return parser.ok();
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
