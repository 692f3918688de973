// hangdoctord's network core: an epoll server that ingests HDSL wire streams from thousands
// of connections into one shared DetectorService.
//
// One thread per connection (DESIGN.md section 3.9): the epoll worker that reads a
// connection's bytes also decodes, applies and answers for every record in them.
//
//   acceptor → epoll worker: read → FrameSplitter → MuxStreamDecoder
//                            → DetectorService::Apply → reply appended
//                            → one send per read chunk
//
//   acceptor        hands accepted fds to epoll workers round-robin (kBusy + close past
//                   max_connections).
//   epoll workers   `workers` threads, each owning whole connections: reads, FrameSplitter,
//                   HELLO, MuxStreamDecoder into the connection's one reused DecodedFrame,
//                   admission, and DetectorService::Apply on the decoded payload, in place.
//                   A session belongs to the connection that opened it, so its records
//                   apply on one thread in stream order, which keeps wire ingest
//                   bit-identical to the per-job oracle at any topology. A record's
//                   completion (close, abort, handoff, error) is answered right there: the
//                   budget is released, kSessionClosed (plus kSessionResult on worker links)
//                   is appended to the connection's replies, the outcome is retained. The
//                   replies one read chunk produced leave in one send.
//
// A record touches only what its connection's epoll worker owns: one probe of the
// connection's decoder finds the session's entry, which holds the arena handle the service
// filled at the open, and the record applies through it with no shard lock. Opens and
// session ends (close, abort, handoff, drain) go through the service's locked shard map, and
// each end clears the handle. Scale-out comes from more connections and epoll workers, or
// from more worker daemons under fleetd: one connection's sessions apply on one thread.
//
// Flow control is TCP's: a worker does not read while it applies, so a peer that sends
// faster than its records apply fills its socket and blocks. Replies are capped: once a
// connection's unsent replies pass kMaxUnsentReplyBytes (a peer that sends and does not
// read) its reads pause until they fall below half of it.
//
// Watchdog: each epoll worker publishes single-writer progress/busy counters, and the
// watchdog thread flags a worker busy on one record past `watchdog_timeout_ms`. A wedged
// apply holds its epoll worker: the links that worker serves stop answering (heartbeats
// included), so a coordinator fences them by lease expiry, while heartbeats on links served
// by the other epoll workers carry applier_stuck / lease_failed. A wedge stalls only the
// connections of its own epoll worker.
//
// Admission: live open-header bytes are budgeted. An open that would exceed
// `session_budget_bytes` is refused with a structured kBusy reply; the session is never
// created and its subsequent records are dropped silently until its close frame.
//
// Drain: BeginDrain() stops accepting, takes in only what each peer had already sent (so a
// peer that hung up before the drain is seen as gone and its torn sessions abort), then
// stops reading, force-closes every in-flight session in place (harvesting their results —
// "flush in-flight sessions"), flushes replies, and closes. SIGTERM in hangdoctord maps to
// exactly this.
#ifndef SRC_NETD_SERVER_H_
#define SRC_NETD_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/hangdoctor/detector_service.h"
#include "src/telemetry/session.h"

namespace netd {

// A connection's unsent reply bytes past which the daemon stops reading it; reading resumes
// below half of it. A worker-role link's kSessionResult replies are
// the largest, so a coordinator that stops reading is paused within a few hundred sessions.
inline constexpr size_t kMaxUnsentReplyBytes = size_t{128} << 10;

struct ServerOptions {
  // Shared detector backend: the epoll workers apply every record into it in place.
  // `service.shards` (>= 1) only spreads the session map's spin locks.
  hangdoctor::ServiceOptions service;
  // Epoll worker threads (>= 1): each reads, decodes and applies its connections' records.
  int32_t workers = 1;
  // Ignored: records no longer cross to shard workers. Kept only because the ladder
  // benchmark still sets it; its next change deletes it.
  int32_t rings = 0;
  // TCP listener. port 0 binds an ephemeral port (read it back via port()); listen = false
  // skips the listener entirely — connections arrive only via AdoptConnection (the
  // socketpair test shape).
  bool listen = true;
  uint16_t port = 0;
  // Connection-level admission: accepts beyond this are answered kBusy(session 0) + close.
  int32_t max_connections = 4096;
  // Session-level admission: refuse opens once live open-header bytes (+ overhead each)
  // would exceed this.
  int64_t session_budget_bytes = 256ll << 20;
  int64_t session_overhead_bytes = 4096;
  // Per-frame size cap (wire.h FrameSplitter).
  size_t max_frame_bytes = 8u << 20;
  // Accept worker-role HELLOs (fleetd coordinator links): control frames and per-close
  // kSessionResult replies. Off by default so a plain daemon rejects a stray coordinator at
  // HELLO time instead of half-speaking the fleet protocol.
  bool allow_worker_role = false;
  // Self-watchdog (LCI hang_detector idiom): a thread that flags any epoll worker stuck
  // longer than this on a single record, surfaces it in heartbeat health, and force-fails
  // the lease so the coordinator migrates this daemon's sessions. 0 = no watchdog thread.
  int64_t watchdog_timeout_ms = 0;
  // Watchdog sampling period.
  int64_t watchdog_poll_ms = 20;
  // Test hook: invoked on the epoll worker with the session id immediately before each
  // record is applied. Lets tests wedge an epoll worker deterministically (watchdog +
  // bounded-Stop coverage) without sleeping on real hangs. Must be set before construction.
  std::function<void(uint64_t)> before_apply;
};

// What one session left behind after traveling the wire.
struct NetSessionOutcome {
  telemetry::SessionId id{0};
  // True when the session never reached a clean close: its connection disconnected or went
  // into sticky protocol error mid-session, or the daemon drained first. The session was
  // discarded, never merged — a torn neighbor cannot perturb anyone else's report.
  bool aborted = false;
  std::string stream_error;  // why, when aborted
  hangdoctor::SessionResult result;  // harvested result; meaningful only when !aborted
};

struct ServerStats {
  std::atomic<int64_t> connections_accepted{0};
  std::atomic<int64_t> connections_rejected{0};
  std::atomic<int64_t> frames_in{0};
  std::atomic<int64_t> bytes_in{0};
  std::atomic<int64_t> sessions_refused{0};
  std::atomic<int64_t> sessions_aborted{0};
  std::atomic<int64_t> sessions_closed{0};
  // Always 0: TCP backpressure is a worker not reading while it applies, and nothing
  // parks. Kept only because the ladder benchmark reads it; its next change deletes it.
  std::atomic<int64_t> backpressure_pauses{0};
  // Reads paused because a connection's unsent replies passed kMaxUnsentReplyBytes.
  std::atomic<int64_t> reply_pauses{0};
  std::atomic<int64_t> protocol_errors{0};
  std::atomic<int64_t> records_applied{0};
  std::atomic<int64_t> heartbeats{0};
  std::atomic<int64_t> stale_epochs{0};
  std::atomic<int64_t> sessions_migrated{0};  // handoff-discarded (replayed elsewhere)
  std::atomic<int64_t> watchdog_trips{0};
  // Session opens whose symbol table was parsed, and those that shared the live table of an
  // earlier session with byte-identical symbol-table bytes instead (any connection).
  std::atomic<int64_t> symbol_tables_parsed{0};
  std::atomic<int64_t> symbol_tables_shared{0};
};

class NetServer {
 public:
  explicit NetServer(const ServerOptions& options);
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // The bound port (listen = true only; valid after the constructor returns).
  uint16_t port() const { return port_; }

  // Hands an already-connected fd (e.g. one end of a socketpair) to a worker. The server
  // owns the fd from here on.
  void AdoptConnection(int fd);

  // Stops accepting and reading, force-closes in-flight sessions, flushes replies and
  // closes every connection. Idempotent; does not join threads.
  void BeginDrain();

  // BeginDrain + join everything. Idempotent; the destructor calls it. The drain wait is
  // generous (10 s) but the joins are unconditional — a wedged epoll worker makes this block;
  // use the deadline overload when shutdown must be bounded.
  void Stop();

  // Deadline-bounded stop: BeginDrain, then wait up to `drain_timeout_ms` for quiescence.
  // On success joins everything (like Stop()) and returns empty. On timeout it returns the
  // session ids still live in the service — the undrained sessions a coordinator must
  // recover by HDSL replay elsewhere — WITHOUT joining, leaving the machinery intact: the
  // server stays drainable, and a later Stop()/destructor finishes shutdown once the wedge
  // clears (a stuck epoll worker cannot be force-killed; it can only be disowned).
  std::vector<uint64_t> Stop(int64_t drain_timeout_ms);

  // Outcomes of every session that closed (or aborted) so far, except clean closes on
  // worker-role connections: their result went to the coordinator as kSessionResult and is
  // not retained here (stats().sessions_closed still counts them). Barrier-free snapshot;
  // callers quiesce first (WaitIdle or Stop).
  std::vector<NetSessionOutcome> TakeResults();

  // Blocks until no connection is live (so every record read has been applied), or
  // `timeout_ms` elapses. Returns true on quiescence.
  bool WaitIdle(int64_t timeout_ms);

  size_t live_sessions() const { return service_->live_sessions(); }
  int64_t live_connections() const { return live_connections_.load(); }
  int64_t live_session_bytes() const { return live_session_bytes_.load(); }
  const ServerStats& stats() const { return stats_; }
  hangdoctor::DetectorService& service() { return *service_; }

  // Self-watchdog health (heartbeat fields). applier_stuck tracks the current epoll-worker
  // wedge and clears when it makes progress again; lease_failed is sticky — once a wedge
  // crossed the timeout, this daemon's lease is forfeit and its sessions migrate.
  bool applier_stuck() const;
  bool lease_failed() const;
  // Newest coordinator fencing epoch seen on any control frame.
  uint64_t lease_epoch() const;

 private:
  struct Impl;
  // Declared before impl_ so it is destroyed after it: the service outlives every
  // connection whose sessions it holds.
  std::unique_ptr<hangdoctor::DetectorService> service_;
  std::unique_ptr<Impl> impl_;
  std::atomic<int64_t> live_connections_{0};
  std::atomic<int64_t> live_session_bytes_{0};
  ServerStats stats_;
  uint16_t port_ = 0;
};

}  // namespace netd

#endif  // SRC_NETD_SERVER_H_
