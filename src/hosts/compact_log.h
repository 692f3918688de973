// HDSL compaction ("HDSC"): an archive of many v2 session logs with their symbol tables
// deduplicated into one shared string pool. Fleets record one log per session, and every
// session of the same app carries a byte-identical symbol table — by far the largest part of
// a short session's log — so a directory of fleet logs compresses dramatically by interning
// each (function, clazz, file) string once and re-encoding symbol tables as pool references.
//
// Archive layout (the HDSL byte codec, src/telemetry/bytes.h: LEB128 varints, zigzag
// signed, length-prefixed strings):
//   magic "HDSC", varint version = 1
//   pool   — varint count, then each string length-prefixed; ids are emission order
//   logs   — varint count, then per log:
//              name            (length-prefixed string; the source file name)
//              prefix          (varint size + bytes: the log's bytes [0, symtab_begin) —
//                               magic, version, SessionInfo, config — copied verbatim)
//              symbol table    (varint frame count, then per frame: varint function/clazz/
//                               file pool ids, zigzag line, SymbolFlags byte — the field
//                               order and flag bits of AppendSymbolTable, session_log.h)
//              suffix          (varint size + bytes: the log's bytes [header_end, end) —
//                               every record — copied verbatim)
//
// Extraction rebuilds each v2 log byte-identically: prefix + re-encoded symbol table +
// suffix. Byte identity holds because the v2 symbol encoding is canonical (pure LEB128 /
// zigzag, no padding) and AppendSymbolTable is its one encoder; CompactSessionLogs still
// verifies the round trip for every log at compact time and refuses rather than archive
// anything it cannot reproduce exactly.
//
// Rollups answer the fleet-scale questions ("which app hangs, on which API?") straight from
// an archive: a per-app activity census and a per-API innermost-frame census over every
// recorded stack sample, both as deterministic CSV (stable row order, no timestamps).
#ifndef SRC_HOSTS_COMPACT_LOG_H_
#define SRC_HOSTS_COMPACT_LOG_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/hosts/session_log.h"

namespace hangdoctor {

inline constexpr char kCompactLogMagic[4] = {'H', 'D', 'S', 'C'};
inline constexpr uint32_t kCompactLogVersion = 1;

// One v2 session log travelling under a name (its source file name, for extraction).
struct CompactInput {
  std::string name;
  std::string bytes;
};

struct CompactStats {
  size_t logs = 0;
  size_t input_bytes = 0;   // sum of the v2 logs
  size_t output_bytes = 0;  // the archive
  size_t pool_strings = 0;
  size_t pool_bytes = 0;  // payload bytes of the shared pool
};

// Compacts v2 logs into one HDSC archive. Fails (false + `error`) on a malformed input log,
// a duplicate name, or a log whose reconstruction is not byte-identical to its input (each
// log is round-trip-verified before the archive is returned). `stats` may be null.
bool CompactSessionLogs(std::span<const CompactInput> logs, std::string* out,
                        CompactStats* stats, std::string* error);

// Expands an HDSC archive back into the original (name, bytes) logs, in archive order,
// byte-identical to what was compacted.
bool ExtractCompactLog(const std::string& bytes, std::vector<CompactInput>* logs,
                       std::string* error);

// Per-app activity over one archive, one row per distinct app package.
struct AppRollupRow {
  std::string app_package;
  int64_t logs = 0;
  int64_t records = 0;     // SPI records across the app's logs
  int64_t dispatches = 0;  // DispatchStart records
  int64_t quiesces = 0;    // ActionQuiesce records
  int64_t samples = 0;     // stack samples captured in DispatchEnd records
};

// Innermost-frame census over every recorded stack sample, one row per API.
struct ApiRollupRow {
  std::string api;  // "clazz.function" of the sample's innermost frame
  int64_t samples = 0;
  int64_t logs = 0;  // distinct logs the API appeared in
};

// Parses every log in an archive and aggregates. Rows come back sorted — apps by package,
// APIs by descending sample count then name — so the output is deterministic.
bool RollupCompactLog(const std::string& bytes, std::vector<AppRollupRow>* apps,
                      std::vector<ApiRollupRow>* apis, std::string* error);

// The rollups as CSV ("app,logs,records,dispatches,quiesces,stack_samples" /
// "api,stack_samples,logs"), header line included.
std::string RenderAppRollupCsv(std::span<const AppRollupRow> rows);
std::string RenderApiRollupCsv(std::span<const ApiRollupRow> rows);

}  // namespace hangdoctor

#endif  // SRC_HOSTS_COMPACT_LOG_H_
