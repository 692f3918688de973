// Session record/replay: a compact binary log ("HDSL") of everything that ever crosses the
// Telemetry Host SPI into a DetectorCore, sufficient to re-run the core offline with
// bit-identical results.
//
// A log holds, in order:
//   header  — magic "HDSL", format version, the SessionInfo (app package, action count,
//             device id), the full HangDoctorConfig, and the session's symbol table (every
//             frame with its is_ui / self-developed classification), so the reader can rebuild FrameId
//             resolution exactly;
//   records — the SPI stream: one record per DispatchStart / DispatchEnd / ActionQuiesce /
//             CounterFault, in push order, including stack samples (as interned FrameIds)
//             and the main−render counter differences S-Checker read;
//   footer  — optionally, the monitored trace's own resource usage (CPU + bytes), so the
//             Section 4.5 overhead percentage is reproducible offline.
//
// Encoding: the shared byte codec (src/telemetry/bytes.h) — unsigned LEB128 varints, zigzag
// for signed integers, raw little-endian IEEE-754 for doubles, length-prefixed UTF-8 for
// strings. The byte-level layout is specified in DESIGN.md ("Session log format").
//
// Version history: v1 had no CounterFault records and no retry-policy config fields; v2
// adds both, so a session recorded under injected telemetry faults replays the same
// degradation decisions bit-identically; v4 (current) adds the cross-thread causal stream —
// AsyncPost / AsyncRun / AsyncWaitStart / AsyncWaitEnd records, a per-sample ThreadId on
// every stack trace, and the async_record cost in the header — so a session of an app with
// HandlerThreads and executors replays its waiting-chain diagnoses bit-identically. (v3 is
// the multiplexed container version, mux_log.h; single-session logs skip it.)
//
// SessionLogWriter is a TelemetrySink: hand it to the droidsim host (or any host) and it
// records the exact stream the core consumes, without influencing detection. SessionLog is
// the in-memory parse; replay_host.h re-feeds it to a fresh core.
#ifndef SRC_HOSTS_SESSION_LOG_H_
#define SRC_HOSTS_SESSION_LOG_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/hangdoctor/detector_core.h"
#include "src/hangdoctor/host_spi.h"
#include "src/hangdoctor/session_stream.h"

namespace hangdoctor {

inline constexpr char kSessionLogMagic[4] = {'H', 'D', 'S', 'L'};
inline constexpr uint32_t kSessionLogVersion = 4;

// Record tags (one byte each, in-stream).
enum class SessionRecordTag : uint8_t {
  kDispatchStart = 1,
  kDispatchEnd = 2,
  kActionQuiesce = 3,
  kTraceUsage = 4,
  kEnd = 5,
  kCounterFault = 6,
  kAsyncPost = 7,
  kAsyncRun = 8,
  kAsyncWaitStart = 9,
  kAsyncWaitEnd = 10,
};

class SessionLogWriter : public TelemetrySink {
 public:
  // Opens `path` for writing; the header is emitted on OnSessionStart (the config is needed
  // for the header, so it is captured here).
  SessionLogWriter(const std::string& path, const HangDoctorConfig& config);
  ~SessionLogWriter() override;

  // Sticky: goes false on the first failed or short write (file unopenable, stream error, or
  // an injected torn write) and never recovers; once false no further bytes are emitted, so
  // a failed log is a clean prefix, not interleaved garbage. Callers must check this after
  // Finish() — a silently truncated log would replay as a different session.
  bool ok() const { return ok_; }
  // Total bytes successfully written so far.
  int64_t bytes_written() const { return written_; }

  // Fault hook (src/faultsim's torn-log profile): every byte past `bytes` fails to land,
  // simulating a full disk or a crash mid-write. Negative disables (default).
  void SetFailAfter(int64_t bytes) { fail_after_ = bytes; }

  // TelemetrySink:
  void OnSessionStart(const SessionInfo& info) override;
  void OnDispatchStart(const DispatchStart& start) override;
  void OnDispatchEnd(const DispatchEnd& end) override;
  void OnActionQuiesce(const ActionQuiesce& quiesce) override;
  void OnCounterFault(const CounterFault& fault) override;
  void OnAsyncPost(const AsyncPost& post) override;
  void OnAsyncRun(const AsyncRun& run) override;
  void OnAsyncWaitStart(const AsyncWaitStart& wait) override;
  void OnAsyncWaitEnd(const AsyncWaitEnd& wait) override;

  // Optional footer: the monitored trace's own resource usage (overhead denominator).
  void WriteTraceUsage(int64_t cpu, int64_t bytes);

  // Writes the end marker and closes the file. Called by the destructor if not already done.
  void Finish();

 private:
  void WriteBytes(const char* data, size_t size);
  // Each record is encoded into record_ (reused, so steady-state recording allocates
  // nothing) and written with one WriteBytes.
  std::string* BeginRecord(SessionRecordTag tag);
  void WriteRecord();

  std::ofstream out_;
  std::string record_;
  HangDoctorConfig config_;
  bool finished_ = false;
  bool ok_ = true;
  int64_t written_ = 0;
  int64_t fail_after_ = -1;
};

// The symbol-table section of the header, the one encoder of it (the writer above and the
// compact archive, compact_log.h, both use it): a varint frame count, then per frame in id
// order its function, class and file strings, zigzag line, and SymbolFlags byte.
void AppendSymbolTable(const telemetry::SymbolTable& symbols, std::string* out);

// A frame's flags byte: bit 0 closed-library, bit 1 UI, bit 2 self-developed.
uint8_t SymbolFlags(const telemetry::SymbolTable& symbols, telemetry::FrameId id);

// One parsed SPI record. `end.samples` is not set directly (spans would dangle as the vector
// grows); replay points it at `samples` when pushing.
struct SessionRecord {
  SessionRecordTag tag = SessionRecordTag::kEnd;
  DispatchStart start;
  DispatchEnd end;
  std::vector<telemetry::StackTrace> samples;
  ActionQuiesce quiesce;
  CounterFault fault;
  AsyncPost async_post;
  AsyncRun async_run;
  AsyncWaitStart wait_start;
  AsyncWaitEnd wait_end;
  int64_t usage_cpu = 0;    // kTraceUsage only
  int64_t usage_bytes = 0;  // kTraceUsage only
};

// A fully parsed session log.
//
// The symbol table is an immutable, shared value: every reader (the core, the analyzer, the
// decoders, the compactor) takes it by const reference, so sessions whose logs carry
// byte-identical symbol tables may hold one table between them (SymbolTableCache below).
// The table lives until the last SessionLog holding it is gone.
struct SessionLog {
  SessionInfo info;  // info.symbols points at *symbols below
  HangDoctorConfig config;
  std::shared_ptr<const telemetry::SymbolTable> symbols;
  std::vector<SessionRecord> records;
  bool has_usage = false;
  int64_t usage_cpu = 0;
  int64_t usage_bytes = 0;
};

// Byte-level structure of a well-formed log, for structure-aware mutation (src/faultsim's
// HDSL mutator works on record boundaries, not blind byte soup). Plain data so faultsim can
// consume it without depending on the parser.
struct SessionLogLayout {
  // Offset one past the header (= offset of the first record's tag byte).
  size_t header_end = 0;
  // Offset of the symbol table's count varint inside the header; the table's encoding runs
  // [symtab_begin, header_end). Lets the compactor (src/hosts/compact_log.h) swap the symbol
  // section for pool references while copying every other header byte verbatim.
  size_t symtab_begin = 0;
  // Offset of every record's tag byte, in stream order, including kTraceUsage and the
  // trailing kEnd marker.
  std::vector<size_t> record_offsets;
};

// Parses `path`; on failure returns false and sets `error`. `log` is valid only on success.
bool LoadSessionLog(const std::string& path, SessionLog* log, std::string* error);

// Same, from an in-memory byte string (the fuzz harness parses mutated logs without disk).
bool LoadSessionLogBytes(const std::string& bytes, SessionLog* log, std::string* error);

// Parses only as far as needed to map record boundaries. Returns false (with `error`) when
// `bytes` is not a well-formed log; `layout` is valid only on success.
bool ScanSessionLog(const std::string& bytes, SessionLogLayout* layout, std::string* error);

// A content-addressed pool of parsed symbol tables. One app build runs on many devices, so a
// daemon serving a fleet receives the same table from every one of them; sessions whose
// prefixes carry byte-identical symbol-table sections share one parsed table through the
// pool instead of each parsing (and later freeing) its own. Thread-safe.
//
// Rules:
//   - Byte equality. An entry is keyed on the section's exact bytes (`symtab_begin` to the
//     end of an open prefix), and a lookup matches only a byte-equal key; a hash only picks
//     the bucket, so a collision can never alias one client's table to another's.
//   - Only clean parses. A table enters the pool only when its whole prefix parsed, with no
//     trailing bytes.
//   - Lifetime. The pool holds tables weakly: a table lives exactly as long as some
//     SessionLog holds it. Expired entries are pruned on every insert, so the pool's memory
//     is bounded by the live sessions' distinct tables, with no size knob.
class SymbolTableCache {
 public:
  SymbolTableCache() = default;
  SymbolTableCache(const SymbolTableCache&) = delete;
  SymbolTableCache& operator=(const SymbolTableCache&) = delete;

  // The live table parsed from exactly `section`, or null.
  std::shared_ptr<const telemetry::SymbolTable> Find(std::string_view section) const;

  // Publishes `table`, parsed from exactly `section`, and returns the pool's table for that
  // section: `table` itself, or the one a concurrent parse published first.
  std::shared_ptr<const telemetry::SymbolTable> Insert(
      std::string_view section, std::shared_ptr<const telemetry::SymbolTable> table);

  // Entries held, expired ones not yet pruned included.
  size_t size() const;

 private:
  struct SectionHash {
    using is_transparent = void;
    size_t operator()(std::string_view section) const {
      return std::hash<std::string_view>{}(section);
    }
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::weak_ptr<const telemetry::SymbolTable>, SectionHash,
                     std::equal_to<>>
      entries_;  // guarded by mu_
};

// Incremental entry points for streaming consumers (the netd wire decoder): a connection
// delivers a session's complete prefix first — the mux open-frame payload — and then one
// record at a time, so the monolithic parse is also exposed piecewise. Both share the
// byte-level grammar (and every bounds check) with LoadSessionLogBytes.
//
// Parses a complete log prefix: magic, version, SessionInfo, config, symbol table — no
// records, no trailing bytes. On success `log` holds info/config/symbols with `records`
// empty; `log->info.symbols` points at `*log->symbols`, which the log keeps alive for every
// record later parsed against it. This is the uncached reference parse.
bool ParseSessionLogPrefix(std::string_view bytes, SessionLog* log, std::string* error);

// The same parse through `cache`: once the header has parsed, the symbol-table section is
// looked up before the frame loop. A hit takes the pooled table (`*shared` = true); a miss
// parses the section exactly as above and publishes the table if the whole prefix parsed.
// Accepts and rejects exactly the bytes the uncached parse does, with the same errors, and
// on success yields a table with identical content.
bool ParseSessionLogPrefix(std::string_view bytes, SymbolTableCache& cache, SessionLog* log,
                           std::string* error, bool* shared = nullptr);

// Parses exactly one record (tag byte + body; trailing bytes rejected) against `symbols`,
// with the same FrameId range checks as the full parse. kTraceUsage parses into
// `record->usage_cpu` / `usage_bytes`; a bare end marker is rejected — mux/wire framing
// regenerates end markers, they never travel as records.
bool ParseSessionRecordBytes(std::string_view bytes, const telemetry::SymbolTable& symbols,
                             SessionRecord* record, std::string* error);

// Re-expresses one parsed SPI record as a stream payload, taking its samples. Returns false,
// leaving `payload` untouched, for records that carry no SPI traffic (kTraceUsage, kEnd).
bool ToSpiPayload(SessionRecord&& record, SpiPayload* payload);

}  // namespace hangdoctor

#endif  // SRC_HOSTS_SESSION_LOG_H_
