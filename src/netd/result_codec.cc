#include "src/netd/result_codec.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/telemetry/bytes.h"

namespace netd {

namespace {

using telemetry::FieldRef;

// One guard byte so a decoder pointed at non-result bytes (or a future incompatible
// encoding) fails on byte 0 instead of mis-parsing fields.
constexpr char kResultCodecVersion[] = {1};

template <typename IO>
void EntryFields(IO& io, FieldRef<IO, hangdoctor::BugReportEntry> entry) {
  io.String(entry.app_package);
  io.String(entry.api);
  io.String(entry.file);
  io.Signed(entry.line);
  io.Bool(entry.self_developed);
  io.Bool(entry.degraded);
  io.String(entry.wait_site);
  io.Signed(entry.occurrences);
  io.Sequence(entry.devices, [&io](FieldRef<IO, int32_t> device) { io.Signed(device); });
  io.Signed(entry.total_hang);
  io.Signed(entry.max_hang);
}

template <typename IO>
void ResultFields(IO& io, FieldRef<IO, hangdoctor::SessionResult> result) {
  io.Magic({kResultCodecVersion, sizeof(kResultCodecVersion)});
  io.Varint(result.id.value);
  io.String(result.app_package);
  io.Signed(result.device_id);
  io.Bool(result.stream_ok);
  io.String(result.stream_error);
  io.Signed(result.stack_samples);
  io.Sequence(result.discovered, [&io](FieldRef<IO, std::string> api) { io.String(api); });

  io.Signed(result.degradation.counter_open_failures);
  io.Signed(result.degradation.counter_retries);
  io.Signed(result.degradation.invalid_counter_windows);
  io.Signed(result.degradation.degraded_checks);
  io.Signed(result.degradation.empty_trace_windows);
  io.Signed(result.degradation.dropped_records);
  io.Bool(result.degradation.counters_unavailable);

  // The overhead meter travels as its four totals; the reader adds them to an empty meter.
  int64_t cpu = 0, memory = 0, retries = 0, async_records = 0;
  if constexpr (!IO::kReading) {
    cpu = result.overhead.cpu();
    memory = result.overhead.memory_bytes();
    retries = result.overhead.counter_retries();
    async_records = result.overhead.async_records();
  }
  io.Signed(cpu);
  io.Signed(memory);
  io.Signed(retries);
  io.Signed(async_records);
  if constexpr (IO::kReading) {
    result.overhead.AddCpu(cpu);
    result.overhead.AddMemory(memory);
    // One call per count, so a corrupt count cannot stall the decoder; a negative one adds
    // nothing.
    result.overhead.CountCounterRetry(std::max<int64_t>(retries, 0));
    result.overhead.CountAsyncRecord(std::max<int64_t>(async_records, 0));
  }

  io.Signed(result.kb.memo_hits);
  io.Signed(result.kb.memo_misses);
  io.Signed(result.kb.known_hits);

  // The report as its entries; the reader absorbs each, which rebuilds the keyed map.
  std::vector<hangdoctor::BugReportEntry> entries;
  if constexpr (!IO::kReading) {
    entries = result.report.Entries();
  }
  io.Sequence(entries,
              [&io](FieldRef<IO, hangdoctor::BugReportEntry> entry) { EntryFields(io, entry); });
  if constexpr (IO::kReading) {
    if (io.ok()) {
      for (const hangdoctor::BugReportEntry& entry : entries) {
        result.report.Absorb(entry);
      }
    }
  }
}

}  // namespace

std::string EncodeSessionResult(const hangdoctor::SessionResult& result) {
  std::string out;
  telemetry::ByteWriter io(&out);
  ResultFields(io, result);
  return out;
}

bool DecodeSessionResult(const std::string& bytes, hangdoctor::SessionResult* result,
                         std::string* error) {
  hangdoctor::SessionResult out;
  std::string reason;
  telemetry::ByteReader io(bytes, &reason, "result");
  ResultFields(io, out);
  if (io.ok() && !io.AtEnd()) {
    io.Fail("trailing bytes");
  }
  if (!io.ok()) {
    *error = "result: " + reason;
    return false;
  }
  *result = std::move(out);
  return true;
}

}  // namespace netd
