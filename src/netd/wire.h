// The hangdoctord wire protocol: length-prefixed HDSL framing over a byte stream.
//
// Every frame, both directions, is `varint length` followed by exactly `length` payload
// bytes. A zero length is invalid, and a length above the negotiated cap is rejected before
// any payload is buffered — a 4-terabyte length varint must not allocate 4 terabytes.
//
// Client → server:
//   frame 0        HELLO: the HDSL magic "HDSL" + varint wire version. The daemon accepts
//                  versions 3 and 4 (the v3 container grammar is identical; 4 announces the
//                  async-capable v4 record vocabulary) and echoes the version in kHelloOk.
//                  An optional trailing varint names the connection role: 0 (or absent) is a
//                  plain ingest client; 1 declares a fleetd coordinator link ("worker role"),
//                  which unlocks the control frames and per-close kSessionResult replies
//                  below. Servers that do not allow the worker role reject role != 0 at
//                  HELLO time (kError), so a stray coordinator cannot half-speak the
//                  protocol against a plain daemon.
//   frames 1..N    each payload is exactly one HDSL v3 mux-container frame (tag byte +
//                  fields, src/hosts/mux_log.h grammar): kOpenSession / kRecord /
//                  kCloseSession / kEpochPublish, and finally kEnd — the BYE. Invariant:
//                  "HDSL" + varint version + the concatenated payloads of frames 1..N is a
//                  byte-valid v3 container, which is what makes wire ingest replayable by
//                  the same grammar the on-disk container uses. Every receiver decodes
//                  these frames with the container's own reader (MuxStreamDecoder,
//                  src/hosts/mux_log.h): hangdoctord per connection, and fleetd per client
//                  before it routes a frame to a worker link.
//
//   Worker-role connections may interleave control frames with container frames. A control
//   frame's first payload byte is >= kCtrlBase (0x40) — disjoint from every mux-container
//   tag, so the dispatch is a one-byte peek:
//   kCtrlHeartbeat varint epoch — coordinator liveness probe carrying its current fencing
//                  epoch. Answered with kHeartbeatAck (health) or kStaleEpoch (the frame's
//                  epoch is older than one this worker has already seen — a fenced,
//                  superseded coordinator).
//   kCtrlHandoff   varint epoch, varint count, count x varint session_id — migrate-away
//                  order: the worker quietly discards each named live session (no outcome is
//                  recorded; the coordinator replays the session's HDSL prefix on its new
//                  owner). The discards apply in stream order like records, so a handoff
//                  lands strictly after every record the link sent before it. Each named
//                  session also ends in the link's stream decoder, so the coordinator may
//                  later send it back with a fresh open. Answered with kHandoffAck once
//                  every named session is gone, or kStaleEpoch.
//
// Server → client: one reply frame per event, payload = tag byte + fields:
//   kHelloOk       varint version — HELLO accepted.
//   kBusy          varint session_id (0 = the connection itself was refused), varint
//                  live_arena_bytes, varint budget_bytes — admission control rejected the
//                  open; the session does not exist, its later records are dropped.
//   kSessionClosed varint session_id, byte stream_ok, varint report_entries, string
//                  stream_error — the session's close was applied and its result harvested.
//   kError         string message — sticky protocol error; the daemon stops reading,
//                  discards the connection's live sessions as aborted, flushes, and closes.
//   kBye           varint sessions_closed — every apply for this connection has landed
//                  (sent in response to the container kEnd frame, or at drain).
//
// Server → worker-role client only:
//   kHeartbeatAck  varint epoch, varint live_sessions, varint records_applied, byte
//                  applier_stuck, byte lease_failed — structured health. applier_stuck is
//                  the self-watchdog verdict (an epoll worker wedged > timeout on one
//                  record: a link that worker serves answers nothing meanwhile);
//                  lease_failed is sticky and tells the coordinator to migrate everything
//                  this worker holds.
//   kStaleEpoch    varint lease_epoch — the control frame carried an epoch older than the
//                  newest this worker has seen; the sender is fenced and must stand down.
//   kHandoffAck    varint epoch, varint discarded — every session named by the handoff has
//                  been discarded (count actually found live and dropped).
//   kSessionResult varint session_id, string result — the full serialized SessionResult
//                  (src/netd/result_codec.h) for a cleanly closed session, emitted alongside
//                  kSessionClosed so the coordinator can fold worker results into the fleet
//                  report bit-identically to the in-process oracle.
#ifndef SRC_NETD_WIRE_H_
#define SRC_NETD_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/bytes.h"

namespace netd {

inline constexpr uint32_t kWireVersionMin = 3;
inline constexpr uint32_t kWireVersionMax = 4;
inline constexpr size_t kDefaultMaxFrameBytes = 8u << 20;

enum class ReplyTag : uint8_t {
  kHelloOk = 1,
  kBusy = 2,
  kSessionClosed = 3,
  kError = 4,
  kBye = 5,
  kHeartbeatAck = 6,
  kStaleEpoch = 7,
  kHandoffAck = 8,
  kSessionResult = 9,
};

// HELLO connection roles (trailing varint; absent == kClient).
enum class HelloRole : uint8_t {
  kClient = 0,
  kWorker = 1,  // a fleetd coordinator link into a worker daemon
};

// Control-frame lead bytes. Disjoint from the mux-container tag space (hosts/mux_log.h tags
// stay small), so a worker-role server can dispatch on payload[0] without a decoder.
inline constexpr uint8_t kCtrlBase = 0x40;
inline constexpr uint8_t kCtrlHeartbeat = 0x40;
inline constexpr uint8_t kCtrlHandoff = 0x41;

// The byte codec both ends share is the HDSL one (src/telemetry/bytes.h), so a wire frame is
// bytes the container grammar already speaks.
using telemetry::GetString;
using telemetry::GetVarint;
using telemetry::PutString;
using telemetry::PutVarint;

// Appends `varint payload.size()` + payload to `out`: a frame is a length-prefixed string.
inline void AppendFrame(std::string* out, std::string_view payload) { PutString(out, payload); }

// HELLO payload ("HDSL" + varint version [+ varint role]). A kClient role is encoded as the
// historical two-field payload, so a new client speaking to an old daemon is byte-identical
// to PR 9's HELLO.
std::string BuildHello(uint32_t version, HelloRole role = HelloRole::kClient);
bool ParseHello(std::string_view payload, uint32_t* version, HelloRole* role,
                std::string* error);

// Control frame payloads (worker-role connections).
std::string BuildHeartbeat(uint64_t epoch);
bool ParseHeartbeat(std::string_view payload, uint64_t* epoch, std::string* error);
std::string BuildHandoff(uint64_t epoch, const std::vector<uint64_t>& sessions);
bool ParseHandoff(std::string_view payload, uint64_t* epoch,
                  std::vector<uint64_t>* sessions, std::string* error);

// Server reply payloads.
std::string BuildHelloOk(uint32_t version);
std::string BuildBusy(uint64_t session_id, uint64_t live_bytes, uint64_t budget_bytes);
std::string BuildSessionClosed(uint64_t session_id, bool stream_ok, uint64_t report_entries,
                               const std::string& stream_error);
std::string BuildError(const std::string& message);
std::string BuildBye(uint64_t sessions_closed);

// Worker-role reply payloads.
std::string BuildHeartbeatAck(uint64_t epoch, uint64_t live_sessions,
                              uint64_t records_applied, bool applier_stuck,
                              bool lease_failed);
std::string BuildStaleEpoch(uint64_t lease_epoch);
std::string BuildHandoffAck(uint64_t epoch, uint64_t discarded);
std::string BuildSessionResult(uint64_t session_id, const std::string& result_bytes);

// One decoded server reply (client side).
struct Reply {
  ReplyTag tag = ReplyTag::kError;
  uint64_t session_id = 0;      // kBusy, kSessionClosed, kSessionResult
  uint32_t version = 0;         // kHelloOk
  uint64_t live_bytes = 0;      // kBusy
  uint64_t budget_bytes = 0;    // kBusy
  bool stream_ok = true;        // kSessionClosed
  uint64_t report_entries = 0;  // kSessionClosed
  uint64_t sessions_closed = 0; // kBye
  uint64_t epoch = 0;           // kHeartbeatAck, kStaleEpoch, kHandoffAck
  uint64_t live_sessions = 0;   // kHeartbeatAck
  uint64_t records_applied = 0; // kHeartbeatAck
  bool applier_stuck = false;   // kHeartbeatAck
  bool lease_failed = false;    // kHeartbeatAck
  uint64_t discarded = 0;       // kHandoffAck
  std::string result;           // kSessionResult (serialized SessionResult bytes)
  std::string message;          // kError / kSessionClosed.stream_error
};
bool ParseReply(const std::string& payload, Reply* reply, std::string* error);

// Incremental frame reassembly: feed arbitrary byte chunks, pop complete payloads. The
// error state is sticky — after an oversized or malformed length, every further Feed/Next
// fails, which is the per-connection "sticky reject" the protocol battery pins.
class FrameSplitter {
 public:
  explicit FrameSplitter(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  // Appends raw bytes from the stream. Returns false once the splitter is in error.
  bool Feed(const char* data, size_t size);

  // Pops the next complete frame payload into `payload`. Returns false when no complete
  // frame is buffered (or the splitter is in error — check ok() to distinguish).
  bool Next(std::string* payload);
  // Same, without the copy: `payload` views the splitter's buffer and stays valid until the
  // next Feed.
  bool Next(std::string_view* payload);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  // Bytes buffered but not yet returned (bounded by max_frame_bytes + the length prefix).
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  bool Fail(const std::string& message);

  size_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already returned
  bool ok_ = true;
  std::string error_;
};

}  // namespace netd

#endif  // SRC_NETD_WIRE_H_
