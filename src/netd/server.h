// hangdoctord's network core: an epoll server that ingests HDSL wire streams from thousands
// of connections into one shared DetectorService.
//
// One ingest pipeline (DESIGN.md section 3.9), the DetectorService's own:
//
//   acceptor → epoll worker + Ingestor → shard rings → shard worker → completion
//            → batched reply wake → epoll worker writes
//
//   acceptor        hands accepted fds to epoll workers round-robin (kBusy + close past
//                   max_connections).
//   epoll workers   `workers` threads, each owning whole connections: reads, FrameSplitter,
//                   HELLO, in-place MuxStreamDecoder, admission, and every reply's write.
//                   Decoded records go into the worker's Ingestor, flushed once per epoll
//                   round: one ring push per shard per round, not per record.
//   shard workers   the service's `rings` threads. A session's records travel one ring in
//                   stream order and are applied by one worker, which is what keeps wire
//                   ingest bit-identical to the per-job oracle at any topology. Completions
//                   become replies or outcomes; after each batch a connection's pending
//                   count is settled once, and its epoll worker is woken at most once —
//                   only if the batch produced a reply or an error or emptied the count.
//
// The hand-off: a decoded frame is written once, straight into a pooled ring record, and
// routing it touches only that record. The epoll worker counts what it routes on its own
// thread and publishes the counts in blocks: a connection's routed records join its
// pending count once per read chunk, a shard's once per batch (64 records). A shard worker
// subtracts a batch's share with one step per connection and returns the batch's spent
// records with one splice per epoll worker. Records name their connection by plain
// pointer; a connection outlives every record that names it: its epoll worker keeps it
// until everything it routed has been applied, and a shard worker holds a reference to
// each connection of a batch while it settles the batch.
//
// Flow control: at most `ring_capacity` session records are in flight per shard ring, to
// within one batch per other epoll worker (whose latest block is not yet published). At
// the cap the record parks on its connection with EPOLLIN off (TCP backpressure) until a
// shard worker frees space; nothing is dropped. Replies are capped the same way: once a
// connection's unsent replies pass kMaxUnsentReplyBytes (a peer that sends and does not
// read) its reads pause until they fall below half of it.
//
// Admission: live open-header bytes are budgeted. An open that would exceed
// `session_budget_bytes` is refused with a structured kBusy reply; the session is never
// created and its subsequent records are dropped silently until its close frame.
//
// Drain: BeginDrain() stops accepting, takes in only what each peer had already sent (so a
// peer that hung up before the drain is seen as gone and its torn sessions abort), then
// stops reading, force-closes every in-flight session through the rings (harvesting their
// results — "flush in-flight sessions"), flushes replies, and closes. SIGTERM in
// hangdoctord maps to exactly this.
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

// A connection's unsent reply bytes past which the daemon stops reading it, as for a parked
// record; reading resumes below half of it. A worker-role link's kSessionResult replies are
// the largest, so a coordinator that stops reading is paused within a few hundred sessions.
inline constexpr size_t kMaxUnsentReplyBytes = size_t{128} << 10;

struct ServerOptions {
  // Shared detector backend. `service.threads` must stay 0 (a nonzero value throws):
  // `rings` sets the pipeline's shard workers, and the server sizes the service's rings and
  // batches itself. `service.shards` is raised to `rings` when smaller.
  hangdoctor::ServiceOptions service;
  // Epoll worker threads (>= 1).
  int32_t workers = 1;
  // Ingest (shard worker) threads (>= 1); 0 resolves to `workers`.
  int32_t rings = 0;
  // Session records in flight (routed, not yet applied) per shard ring, >= 1; exceeded by at
  // most one batch per other epoll worker.
  int32_t ring_capacity = 1024;
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
  // Self-watchdog (LCI hang_detector idiom): a thread that flags any shard worker stuck
  // longer than this on a single record, surfaces it in heartbeat health, and force-fails
  // the lease so the coordinator migrates this worker's sessions. 0 = no watchdog thread.
  int64_t watchdog_timeout_ms = 0;
  // Watchdog sampling period.
  int64_t watchdog_poll_ms = 20;
  // Test hook: invoked on the shard worker with the session id immediately before each
  // record is applied. Lets tests wedge a shard worker deterministically (watchdog +
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
  // generous (10 s) but the joins are unconditional — a wedged shard worker makes this block;
  // use the deadline overload when shutdown must be bounded.
  void Stop();

  // Deadline-bounded stop: BeginDrain, then wait up to `drain_timeout_ms` for quiescence.
  // On success joins everything (like Stop()) and returns empty. On timeout it returns the
  // session ids still live in the service — the undrained sessions a coordinator must
  // recover by HDSL replay elsewhere — WITHOUT joining, leaving the machinery intact: the
  // server stays drainable, and a later Stop()/destructor finishes shutdown once the wedge
  // clears (a stuck shard worker cannot be force-killed; it can only be disowned).
  std::vector<uint64_t> Stop(int64_t drain_timeout_ms);

  // Outcomes of every session that closed (or aborted) so far, except clean closes on
  // worker-role connections: their result went to the coordinator as kSessionResult and is
  // not retained here (stats().sessions_closed still counts them). Barrier-free snapshot;
  // callers quiesce first (WaitIdle or Stop).
  std::vector<NetSessionOutcome> TakeResults();

  // Blocks until no connection is live and every routed record has been applied, or
  // `timeout_ms` elapses. Returns true on quiescence.
  bool WaitIdle(int64_t timeout_ms);

  size_t live_sessions() const { return service_->live_sessions(); }
  int64_t live_connections() const { return live_connections_.load(); }
  int64_t live_session_bytes() const { return live_session_bytes_.load(); }
  const ServerStats& stats() const { return stats_; }
  hangdoctor::DetectorService& service() { return *service_; }

  // Self-watchdog health (heartbeat fields). applier_stuck tracks the current shard-worker
  // wedge and clears when it makes progress again; lease_failed is sticky — once a wedge
  // crossed the timeout, this worker's lease is forfeit and its sessions migrate.
  bool applier_stuck() const;
  bool lease_failed() const;
  // Newest coordinator fencing epoch seen on any control frame.
  uint64_t lease_epoch() const;

 private:
  struct Impl;
  // Declared before impl_ so it is destroyed after it: the epoll workers' Ingestors in
  // impl_ must never outlive the service they feed.
  std::unique_ptr<hangdoctor::DetectorService> service_;
  std::unique_ptr<Impl> impl_;
  std::atomic<int64_t> live_connections_{0};
  std::atomic<int64_t> live_session_bytes_{0};
  ServerStats stats_;
  uint16_t port_ = 0;
};

}  // namespace netd

#endif  // SRC_NETD_SERVER_H_
