// The per-connection HDSL stream decoder: turns wire frame payloads (each exactly one HDSL
// v3 mux-container frame, src/hosts/mux_log.h grammar) into the ServiceRecords a
// DetectorService consumes — sans-IO, so the protocol battery and the fuzzer drive it
// without sockets and the epoll worker drives it from its read loop.
//
// The decoder enforces the container's session-framing contract exactly as
// ReplayMultiplexedLog does offline: open-before-record, no double open, close exactly once,
// kEnd only with every session closed and nothing after it. Violations are sticky — the
// connection is beyond repair once its stream is, which is what makes a torn or corrupted
// frame unable to corrupt a neighboring session.
//
// Ownership: an open frame's payload is a complete v4 log prefix; the decoder parses it into
// a shared SessionLog that holds the session's symbol table. Every decoded record of that
// session carries the shared_ptr, so symbols outlive the record wherever the server's apply
// pipeline takes it — the same lifetime rule mux replay satisfies by keeping parsed logs on
// the stack. The table itself is an immutable value parsed through a SymbolTableCache
// (src/hosts/session_log.h): sessions whose prefixes carry byte-identical symbol-table bytes
// hold one table, which lives until the last such SessionLog is gone. A decoder owns a
// private cache unless given one; the daemon hands every connection's decoder the same one,
// so sessions share tables across connections and epoll workers.
#ifndef SRC_NETD_RECORD_CODEC_H_
#define SRC_NETD_RECORD_CODEC_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/hangdoctor/session_stream.h"
#include "src/hosts/mux_log.h"
#include "src/hosts/session_log.h"
#include "src/telemetry/session.h"

namespace netd {

// One decoded container frame.
struct DecodedFrame {
  enum class Kind : uint8_t {
    kOpen,          // session open: log + record (kSessionOpen) are set
    kRecord,        // one SPI record: record is set (skip == true for usage footers)
    kClose,         // session close: record (kSessionClose) is set
    kEpochPublish,  // recorded knowledge-base epoch boundary (no session)
    kBye,           // container kEnd: the client is done
  };
  Kind kind = Kind::kBye;
  telemetry::SessionId id{0};
  // kOpen: bytes of the open payload — the admission estimate's variable part.
  size_t open_bytes = 0;
  // kOpen / kRecord / kClose: the session's parsed prefix (holds the symbol table).
  std::shared_ptr<hangdoctor::SessionLog> log;
  // kOpen: the symbol table came from the cache, shared with a live session, not parsed.
  bool shared_symbols = false;
  hangdoctor::ServiceRecord record;
  // kRecord of a kTraceUsage footer: structurally valid, but carries no SPI traffic.
  bool skip = false;
};

class MuxStreamDecoder {
 public:
  // Parses open-frame symbol tables through a private cache.
  MuxStreamDecoder() = default;
  // Parses them through `symbols`, which may be shared with other decoders on any thread.
  explicit MuxStreamDecoder(std::shared_ptr<hangdoctor::SymbolTableCache> symbols)
      : symbols_(std::move(symbols)) {}

  // Decodes one wire frame payload (= one container frame), parsing it in place. Returns
  // false and goes sticky on any grammar or framing violation; `out` is meaningful only on
  // success. `out` may be reused across calls: of its payload, only the members the decoded
  // kind selects are rewritten.
  bool Decode(std::string_view payload, DecodedFrame* out);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  bool saw_bye() const { return saw_bye_; }
  size_t open_sessions() const { return live_.size(); }
  // The parsed prefix of open session `id`, or null when it is not open.
  std::shared_ptr<hangdoctor::SessionLog> OpenLog(uint64_t id) const {
    auto it = live_.find(id);
    return it != live_.end() ? it->second : nullptr;
  }

 private:
  bool Fail(const std::string& message);

  std::shared_ptr<hangdoctor::SymbolTableCache> symbols_ =
      std::make_shared<hangdoctor::SymbolTableCache>();
  std::unordered_map<uint64_t, std::shared_ptr<hangdoctor::SessionLog>> live_;
  bool saw_bye_ = false;
  bool ok_ = true;
  std::string error_;
};

// Client-side inverse: splits a v3 container (magic + version + frames) into the per-frame
// wire payloads, in stream order, the final kEnd frame included. `frames[i]` starts at the
// frame's tag byte — exactly what a conforming client sends as wire frame i+1.
bool ContainerToWireFrames(const std::string& container, std::vector<std::string>* frames,
                           std::string* error);

}  // namespace netd

#endif  // SRC_NETD_RECORD_CODEC_H_
