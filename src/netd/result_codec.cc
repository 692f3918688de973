#include "src/netd/result_codec.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/netd/wire.h"

namespace netd {

namespace {

// One guard byte so a decoder pointed at non-result bytes (or a future incompatible
// encoding) fails on byte 0 instead of mis-parsing fields.
constexpr uint8_t kResultCodecVersion = 1;

using telemetry::GetSigned;
using telemetry::PutSigned;

void PutBool(std::string* out, bool value) { out->push_back(value ? '\1' : '\0'); }

bool GetBool(const std::string& data, size_t* pos, bool* value) {
  if (*pos >= data.size()) {
    return false;
  }
  *value = data[(*pos)++] != '\0';
  return true;
}

}  // namespace

std::string EncodeSessionResult(const hangdoctor::SessionResult& result) {
  std::string out;
  out.push_back(static_cast<char>(kResultCodecVersion));
  PutVarint(&out, result.id.value);
  PutString(&out, result.app_package);
  PutSigned(&out, result.device_id);
  PutBool(&out, result.stream_ok);
  PutString(&out, result.stream_error);
  PutSigned(&out, result.stack_samples);

  PutVarint(&out, result.discovered.size());
  for (const std::string& api : result.discovered) {
    PutString(&out, api);
  }

  const hangdoctor::DegradationStats& d = result.degradation;
  PutSigned(&out, d.counter_open_failures);
  PutSigned(&out, d.counter_retries);
  PutSigned(&out, d.invalid_counter_windows);
  PutSigned(&out, d.degraded_checks);
  PutSigned(&out, d.empty_trace_windows);
  PutSigned(&out, d.dropped_records);
  PutBool(&out, d.counters_unavailable);

  PutSigned(&out, result.overhead.cpu());
  PutSigned(&out, result.overhead.memory_bytes());
  PutSigned(&out, result.overhead.counter_retries());
  PutSigned(&out, result.overhead.async_records());

  PutSigned(&out, result.kb.memo_hits);
  PutSigned(&out, result.kb.memo_misses);
  PutSigned(&out, result.kb.known_hits);

  std::vector<hangdoctor::BugReportEntry> entries = result.report.Entries();
  PutVarint(&out, entries.size());
  for (const hangdoctor::BugReportEntry& entry : entries) {
    PutString(&out, entry.app_package);
    PutString(&out, entry.api);
    PutString(&out, entry.file);
    PutSigned(&out, entry.line);
    PutBool(&out, entry.self_developed);
    PutBool(&out, entry.degraded);
    PutString(&out, entry.wait_site);
    PutSigned(&out, entry.occurrences);
    PutVarint(&out, entry.devices.size());
    for (int32_t device : entry.devices) {
      PutSigned(&out, device);
    }
    PutSigned(&out, entry.total_hang);
    PutSigned(&out, entry.max_hang);
  }
  return out;
}

bool DecodeSessionResult(const std::string& bytes, hangdoctor::SessionResult* result,
                         std::string* error) {
  hangdoctor::SessionResult out;
  if (bytes.empty() || static_cast<uint8_t>(bytes[0]) != kResultCodecVersion) {
    *error = "result: bad codec version byte";
    return false;
  }
  size_t pos = 1;
  uint64_t id = 0;
  int64_t device_id = 0;
  int64_t stack_samples = 0;
  if (!GetVarint(bytes, &pos, &id) || !GetString(bytes, &pos, &out.app_package) ||
      !GetSigned(bytes, &pos, &device_id) || !GetBool(bytes, &pos, &out.stream_ok) ||
      !GetString(bytes, &pos, &out.stream_error) || !GetSigned(bytes, &pos, &stack_samples)) {
    *error = "result: malformed header";
    return false;
  }
  out.id = telemetry::SessionId{id};
  out.device_id = static_cast<int32_t>(device_id);
  out.stack_samples = stack_samples;

  uint64_t discovered = 0;
  if (!GetVarint(bytes, &pos, &discovered) || discovered > bytes.size() - pos) {
    *error = "result: malformed discovered list";
    return false;
  }
  out.discovered.reserve(static_cast<size_t>(discovered));
  for (uint64_t i = 0; i < discovered; ++i) {
    std::string api;
    if (!GetString(bytes, &pos, &api)) {
      *error = "result: truncated discovered list";
      return false;
    }
    out.discovered.push_back(std::move(api));
  }

  hangdoctor::DegradationStats& d = out.degradation;
  if (!GetSigned(bytes, &pos, &d.counter_open_failures) ||
      !GetSigned(bytes, &pos, &d.counter_retries) ||
      !GetSigned(bytes, &pos, &d.invalid_counter_windows) ||
      !GetSigned(bytes, &pos, &d.degraded_checks) ||
      !GetSigned(bytes, &pos, &d.empty_trace_windows) ||
      !GetSigned(bytes, &pos, &d.dropped_records) ||
      !GetBool(bytes, &pos, &d.counters_unavailable)) {
    *error = "result: malformed degradation stats";
    return false;
  }

  int64_t cpu = 0, memory = 0, retries = 0, async_records = 0;
  if (!GetSigned(bytes, &pos, &cpu) || !GetSigned(bytes, &pos, &memory) ||
      !GetSigned(bytes, &pos, &retries) || !GetSigned(bytes, &pos, &async_records)) {
    *error = "result: malformed overhead";
    return false;
  }
  out.overhead.AddCpu(cpu);
  out.overhead.AddMemory(memory);
  // One call per count, so a corrupt count cannot stall the decoder; a negative one adds
  // nothing.
  out.overhead.CountCounterRetry(std::max<int64_t>(retries, 0));
  out.overhead.CountAsyncRecord(std::max<int64_t>(async_records, 0));

  if (!GetSigned(bytes, &pos, &out.kb.memo_hits) || !GetSigned(bytes, &pos, &out.kb.memo_misses) ||
      !GetSigned(bytes, &pos, &out.kb.known_hits)) {
    *error = "result: malformed kb stats";
    return false;
  }

  uint64_t entries = 0;
  if (!GetVarint(bytes, &pos, &entries) || entries > bytes.size() - pos) {
    *error = "result: malformed report entry count";
    return false;
  }
  for (uint64_t i = 0; i < entries; ++i) {
    hangdoctor::BugReportEntry entry;
    int64_t line = 0;
    uint64_t devices = 0;
    if (!GetString(bytes, &pos, &entry.app_package) || !GetString(bytes, &pos, &entry.api) ||
        !GetString(bytes, &pos, &entry.file) || !GetSigned(bytes, &pos, &line) ||
        !GetBool(bytes, &pos, &entry.self_developed) ||
        !GetBool(bytes, &pos, &entry.degraded) ||
        !GetString(bytes, &pos, &entry.wait_site) ||
        !GetSigned(bytes, &pos, &entry.occurrences) ||
        !GetVarint(bytes, &pos, &devices) || devices > bytes.size() - pos) {
      *error = "result: malformed report entry";
      return false;
    }
    entry.line = static_cast<int32_t>(line);
    for (uint64_t j = 0; j < devices; ++j) {
      int64_t device = 0;
      if (!GetSigned(bytes, &pos, &device)) {
        *error = "result: truncated device set";
        return false;
      }
      entry.devices.insert(static_cast<int32_t>(device));
    }
    if (!GetSigned(bytes, &pos, &entry.total_hang) || !GetSigned(bytes, &pos, &entry.max_hang)) {
      *error = "result: truncated entry durations";
      return false;
    }
    out.report.Absorb(entry);
  }
  if (pos != bytes.size()) {
    *error = "result: trailing bytes";
    return false;
  }
  *result = std::move(out);
  return true;
}

}  // namespace netd
