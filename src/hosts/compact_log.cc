#include "src/hosts/compact_log.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/telemetry/bytes.h"

namespace hangdoctor {

namespace {

using telemetry::GetString;
using telemetry::GetVarint;
using telemetry::PutSigned;
using telemetry::PutString;
using telemetry::PutVarint;

// Insertion-ordered string interner: ids are emission order, so the pool — and therefore the
// whole archive — is a pure function of the input logs in input order.
class StringPool {
 public:
  uint64_t Intern(const std::string& value) {
    auto [it, inserted] = ids_.try_emplace(value, strings_.size());
    if (inserted) {
      strings_.push_back(value);
    }
    return it->second;
  }

  const std::vector<std::string>& strings() const { return strings_; }

 private:
  std::unordered_map<std::string, uint64_t> ids_;
  std::vector<std::string> strings_;
};

}  // namespace

bool CompactSessionLogs(std::span<const CompactInput> logs, std::string* out,
                        CompactStats* stats, std::string* error) {
  struct Parsed {
    SessionLog log;
    SessionLogLayout layout;
  };
  std::vector<Parsed> parsed(logs.size());
  std::unordered_set<std::string> names;
  size_t input_bytes = 0;
  for (size_t i = 0; i < logs.size(); ++i) {
    if (!names.insert(logs[i].name).second) {
      *error = "duplicate log name " + logs[i].name;
      return false;
    }
    if (!ScanSessionLog(logs[i].bytes, &parsed[i].layout, error) ||
        !LoadSessionLogBytes(logs[i].bytes, &parsed[i].log, error)) {
      *error = logs[i].name + ": " + *error;
      return false;
    }
    input_bytes += logs[i].bytes.size();
  }

  StringPool pool;
  std::vector<std::string> bodies(logs.size());
  for (size_t i = 0; i < logs.size(); ++i) {
    const CompactInput& input = logs[i];
    const SessionLogLayout& layout = parsed[i].layout;
    const telemetry::SymbolTable& symbols = *parsed[i].log.symbols;
    std::string* body = &bodies[i];
    PutString(body, input.name);
    PutVarint(body, layout.symtab_begin);
    body->append(input.bytes, 0, layout.symtab_begin);
    PutVarint(body, symbols.size());
    for (telemetry::FrameId id = 0; id < symbols.size(); ++id) {
      const telemetry::StackFrame& frame = symbols.Frame(id);
      PutVarint(body, pool.Intern(frame.function));
      PutVarint(body, pool.Intern(frame.clazz));
      PutVarint(body, pool.Intern(frame.file));
      PutSigned(body, frame.line);
      body->push_back(static_cast<char>(SymbolFlags(symbols, id)));
    }
    size_t suffix = input.bytes.size() - layout.header_end;
    PutVarint(body, suffix);
    body->append(input.bytes, layout.header_end, suffix);

    // Round-trip guard: the archive must be able to reproduce this log byte for byte, or we
    // refuse to archive it (an inline encoding this writer does not know about, say).
    std::string rebuilt;
    rebuilt.append(input.bytes, 0, layout.symtab_begin);
    AppendSymbolTable(symbols, &rebuilt);
    rebuilt.append(input.bytes, layout.header_end, suffix);
    if (rebuilt != input.bytes) {
      *error = input.name + ": symbol table does not re-encode byte-identically";
      return false;
    }
  }

  out->clear();
  out->append(kCompactLogMagic, sizeof(kCompactLogMagic));
  PutVarint(out, kCompactLogVersion);
  size_t pool_bytes = 0;
  PutVarint(out, pool.strings().size());
  for (const std::string& value : pool.strings()) {
    PutString(out, value);
    pool_bytes += value.size();
  }
  PutVarint(out, logs.size());
  for (const std::string& body : bodies) {
    out->append(body);
  }
  if (stats != nullptr) {
    stats->logs = logs.size();
    stats->input_bytes = input_bytes;
    stats->output_bytes = out->size();
    stats->pool_strings = pool.strings().size();
    stats->pool_bytes = pool_bytes;
  }
  return true;
}

bool ExtractCompactLog(const std::string& bytes, std::vector<CompactInput>* logs,
                       std::string* error) {
  logs->clear();
  if (bytes.size() < sizeof(kCompactLogMagic) ||
      std::memcmp(bytes.data(), kCompactLogMagic, sizeof(kCompactLogMagic)) != 0) {
    *error = "not a compact log archive (bad magic)";
    return false;
  }
  size_t pos = sizeof(kCompactLogMagic);
  uint64_t version = 0;
  if (!GetVarint(bytes, &pos, &version)) {
    *error = "truncated archive version";
    return false;
  }
  if (version != kCompactLogVersion) {
    *error = "unsupported compact log version " + std::to_string(version);
    return false;
  }
  uint64_t pool_count = 0;
  if (!GetVarint(bytes, &pos, &pool_count)) {
    *error = "truncated pool count";
    return false;
  }
  if (pool_count > bytes.size()) {  // every pool string costs at least its length byte
    *error = "pool count overruns the archive";
    return false;
  }
  auto get_string = [&](std::string* value) {
    if (!GetString(bytes, &pos, value)) {
      *error = "truncated string or string overruns the archive";
      return false;
    }
    return true;
  };
  std::vector<std::string> pool(static_cast<size_t>(pool_count));
  for (std::string& value : pool) {
    if (!get_string(&value)) {
      return false;
    }
  }
  uint64_t log_count = 0;
  if (!GetVarint(bytes, &pos, &log_count)) {
    *error = "truncated log count";
    return false;
  }
  if (log_count > bytes.size()) {
    *error = "log count overruns the archive";
    return false;
  }
  auto pool_ref = [&](uint64_t* id) {
    if (!GetVarint(bytes, &pos, id)) {
      *error = "truncated pool reference";
      return false;
    }
    if (*id >= pool.size()) {
      *error = "pool reference " + std::to_string(*id) + " out of range";
      return false;
    }
    return true;
  };
  for (uint64_t i = 0; i < log_count; ++i) {
    CompactInput log;
    if (!get_string(&log.name)) {
      return false;
    }
    if (!get_string(&log.bytes)) {  // the prefix
      return false;
    }
    uint64_t num_frames = 0;
    if (!GetVarint(bytes, &pos, &num_frames)) {
      *error = "truncated frame count";
      return false;
    }
    if (num_frames > bytes.size()) {  // every frame costs at least 5 encoded bytes
      *error = "frame count overruns the archive";
      return false;
    }
    PutVarint(&log.bytes, num_frames);
    for (uint64_t f = 0; f < num_frames; ++f) {
      uint64_t function = 0;
      uint64_t clazz = 0;
      uint64_t file = 0;
      uint64_t line = 0;
      if (!pool_ref(&function) || !pool_ref(&clazz) || !pool_ref(&file)) {
        return false;
      }
      if (!GetVarint(bytes, &pos, &line)) {
        *error = "truncated frame line";
        return false;
      }
      if (pos >= bytes.size()) {
        *error = "truncated frame flags";
        return false;
      }
      char flags = bytes[pos++];
      PutString(&log.bytes, pool[static_cast<size_t>(function)]);
      PutString(&log.bytes, pool[static_cast<size_t>(clazz)]);
      PutString(&log.bytes, pool[static_cast<size_t>(file)]);
      PutVarint(&log.bytes, line);
      log.bytes.push_back(flags);
    }
    std::string suffix;
    if (!get_string(&suffix)) {
      return false;
    }
    log.bytes.append(suffix);
    logs->push_back(std::move(log));
  }
  if (pos != bytes.size()) {
    *error = "trailing bytes after archive";
    return false;
  }
  return true;
}

bool RollupCompactLog(const std::string& bytes, std::vector<AppRollupRow>* apps,
                      std::vector<ApiRollupRow>* apis, std::string* error) {
  std::vector<CompactInput> logs;
  if (!ExtractCompactLog(bytes, &logs, error)) {
    return false;
  }
  // std::map keys both rollups so iteration — and therefore row order — is sorted without a
  // second pass.
  std::map<std::string, AppRollupRow> by_app;
  struct ApiCount {
    int64_t samples = 0;
    std::unordered_set<const CompactInput*> logs;
  };
  std::map<std::string, ApiCount> by_api;
  for (const CompactInput& input : logs) {
    SessionLog log;
    if (!LoadSessionLogBytes(input.bytes, &log, error)) {
      *error = input.name + ": " + *error;
      return false;
    }
    AppRollupRow& app = by_app[log.info.app_package];
    app.app_package = log.info.app_package;
    ++app.logs;
    app.records += static_cast<int64_t>(log.records.size());
    for (const SessionRecord& record : log.records) {
      switch (record.tag) {
        case SessionRecordTag::kDispatchStart:
          ++app.dispatches;
          break;
        case SessionRecordTag::kActionQuiesce:
          ++app.quiesces;
          break;
        case SessionRecordTag::kDispatchEnd:
          app.samples += static_cast<int64_t>(record.samples.size());
          for (const telemetry::StackTrace& sample : record.samples) {
            if (sample.frames.empty()) {
              continue;
            }
            // Frames are outermost-first (telemetry/stack.h): the innermost frame — the API
            // actually blocking — is the last one, the same frame the Trace Analyzer's
            // occurrence census counts.
            const telemetry::StackFrame& frame = log.symbols->Frame(sample.frames.back());
            ApiCount& api = by_api[frame.clazz + "." + frame.function];
            ++api.samples;
            api.logs.insert(&input);
          }
          break;
        default:
          break;
      }
    }
  }
  apps->clear();
  for (auto& [package, row] : by_app) {
    apps->push_back(std::move(row));
  }
  apis->clear();
  for (auto& [api, count] : by_api) {
    apis->push_back({api, count.samples, static_cast<int64_t>(count.logs.size())});
  }
  std::sort(apis->begin(), apis->end(), [](const ApiRollupRow& a, const ApiRollupRow& b) {
    if (a.samples != b.samples) {
      return a.samples > b.samples;
    }
    return a.api < b.api;
  });
  return true;
}

std::string RenderAppRollupCsv(std::span<const AppRollupRow> rows) {
  std::string out = "app,logs,records,dispatches,quiesces,stack_samples\n";
  for (const AppRollupRow& row : rows) {
    out += row.app_package + "," + std::to_string(row.logs) + "," +
           std::to_string(row.records) + "," + std::to_string(row.dispatches) + "," +
           std::to_string(row.quiesces) + "," + std::to_string(row.samples) + "\n";
  }
  return out;
}

std::string RenderApiRollupCsv(std::span<const ApiRollupRow> rows) {
  std::string out = "api,stack_samples,logs\n";
  for (const ApiRollupRow& row : rows) {
    out += row.api + "," + std::to_string(row.samples) + "," + std::to_string(row.logs) + "\n";
  }
  return out;
}

}  // namespace hangdoctor
