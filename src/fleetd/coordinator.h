// The fleetd coordinator: owns worker-role links into N hangdoctord workers, routes each
// session's mux-container frames to the session's current owner, and folds the workers'
// serialized SessionResults into one fleet report that is bit-identical to the in-process
// RunFleet oracle at any worker count.
//
// The migration primitive is HDSL record/replay. The coordinator is the tap: every frame it
// routes for a live session is framed once and retained, as wire bytes, in that session's
// replay prefix (freed the moment the session's result lands). Moving a session is then
//   drain     MoveRanges (epoch bump) -> kCtrlHandoff to the old owner, behind every frame
//             still buffered for it -> await kHandoffAck (the worker applies the discard
//             in link order, so it lands strictly after every routed record) -> append each
//             prefix to the new owner's buffer -> resume routing.
//   failover  Fence the dead worker (epoch bump), drop its unwritten buffer, and replay the
//             prefixes of its unfinished sessions on the lowest live worker. Nothing is
//             drained — the worker is gone — so replay reconstructs its sessions from the
//             tap alone, including the bytes the dead link never wrote.
//
// Only decoded frames are routed (RouteFrame), and a handoff also ends each moved session in
// the old owner's stream decoder, so a session may later return to that worker.
//
// Why the fold stays bit-identical: detection is per-session pure (a session's result is a
// function of its own record stream only — detector_service.h's contract), and the tap holds
// exactly the stream routed so far. A replayed session therefore produces the same
// SessionResult its first owner would have, byte for byte. Results are accepted only from a
// session's *current* owner (epoch-fenced on the worker side, owner-gated here), so each
// session contributes exactly one result no matter how many times it moved, and the final
// ascending-session-id fold is independent of worker count, migrations, and crashes.
//
// Threading and writes: one reader thread per link decodes replies (a kSessionResult is
// decoded before the lock is taken); all state lives under one mutex. Worker links are
// written only by the caller's thread, under that mutex, and in batches: RouteFrame appends
// to the owner link's buffer, which is written with one send once it holds kLinkBatchBytes.
// Every point that talks to or waits on the workers writes the buffers first — Pulse (ahead
// of the heartbeat), MigrateWorker (ahead of the handoff), WaitForResults, Finish (ahead of
// the BYE), Flush, and every replay. A failed write fences the link exactly as a dead reader
// does. Liveness time is injected through Pulse(now_ms) — heartbeat acks renew leases only
// when the next Pulse applies them — so the lease battery can run on a virtual clock.
#ifndef SRC_FLEETD_COORDINATOR_H_
#define SRC_FLEETD_COORDINATOR_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/fleetd/topology.h"
#include "src/hangdoctor/detector_service.h"
#include "src/netd/client.h"
#include "src/netd/server.h"

namespace fleetd {

// A worker link's buffered frames are written with one send once they reach this size.
inline constexpr size_t kLinkBatchBytes = 64 * 1024;

// One worker daemon to link to: a TCP port (fleetd binary) or an already-connected fd
// (socketpair drivers — the coordinator owns the fd from construction on).
struct WorkerEndpoint {
  uint16_t port = 0;
  int fd = -1;
};

struct CoordinatorOptions {
  std::vector<WorkerEndpoint> workers;
  int64_t lease_timeout_ms = 2000;
  // How long MigrateWorker waits for the old owner's kHandoffAck before treating the worker
  // as dead and recovering by replay instead.
  int64_t handoff_timeout_ms = 10000;
  // Invoked (under the coordinator lock — keep it cheap, no coordinator re-entry) whenever a
  // session reaches its final state. The fleetd front end uses this to answer the client
  // connection that carried the session.
  std::function<void(uint64_t id, bool aborted)> on_session_done;
};

struct CoordinatorStats {
  int64_t migrated = 0;      // sessions moved by drain-handoff
  int64_t recovered = 0;     // session replays after a worker loss (cascades recount)
  int64_t failovers = 0;     // workers fenced
  int64_t stale_epochs = 0;  // kStaleEpoch replies observed (fenced frames bounced)
  int64_t results = 0;       // accepted session results
  int64_t discarded = 0;     // sessions the old owners' kHandoffAcks report discarded
  int64_t link_writes = 0;   // buffered-frame writes on worker links (batches + flushes)
};

// The folded output of one fleet run.
struct FleetReport {
  // Every routed session, ascending id. A session whose close never produced a result
  // (total outage, timeout) comes back aborted with a stream_error naming why.
  std::vector<netd::NetSessionOutcome> outcomes;
  // MergeSessionReports over the clean outcomes — the bit-identity surface.
  hangdoctor::HangBugReport merged;
  CoordinatorStats stats;
};

class Coordinator {
 public:
  // Connects (or adopts) every endpoint, performs the worker-role HELLO, and starts the
  // reader threads. Throws std::runtime_error when any link fails to come up.
  explicit Coordinator(const CoordinatorOptions& options);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // Partitions [first, last] across the workers (contiguous ranges, topology.h).
  void AssignRange(uint64_t first, uint64_t last);

  // Routes one mux-container frame (kOpenSession/kRecord/kCloseSession payload bytes) for
  // `session` to its current owner's link buffer, retaining it in the session's replay tap.
  // The buffer is written once it reaches kLinkBatchBytes or at the next flush point. A dead
  // owner triggers failover inline: the frame still reaches a live worker (via tap replay),
  // so a false return means total outage — no live worker remains.
  // Callers pass frames already decoded (fleetd's front end: a MuxStreamDecoder per client).
  // Only the tag and id are checked here, and an invalid frame would end the owner's whole
  // link — and, replayed from the tap, the failover target's.
  bool RouteFrame(uint64_t session, const std::string& frame, std::string* error);

  // Writes every live link's buffered frames now. A front end calls it once per batch of
  // routed client bytes so no session's close waits for the next batch to fill.
  void Flush();

  // Drain-migrates every unfinished session owned by `from` onto `to` (handoff + replay).
  // Waits for the handoff ack up to handoff_timeout_ms; a worker that dies or times out
  // mid-handoff is fenced and recovered instead: its sessions are replayed on their owner,
  // `to` while it lives, so they end up where routing sends their next record either way.
  // False only on invalid arguments (bad index, fenced end, from == to).
  bool MigrateWorker(int32_t from, int32_t to, std::string* error);

  // Severs the link to `worker` now (test/driver crash injection) and runs failover. The
  // worker process itself is not touched — the caller kills or stops it.
  void CrashWorker(int32_t worker);

  // One liveness beat at injected time `now_ms`: applies heartbeat acks received since the
  // last pulse (renewing leases), sends a fresh heartbeat on every live link, then fences
  // every worker whose lease expired or failed and recovers its sessions.
  void Pulse(int64_t now_ms);

  // Drops (or restores) worker `w`'s heartbeats: Pulse neither sends to it nor applies its
  // acks — the heartbeat-loss fault family. Its lease then expires on schedule.
  void SetHeartbeatLoss(int32_t worker, bool lost);

  // Blocks until every session whose close frame was routed has its final state (or
  // `timeout_ms` passes). True on completion.
  bool WaitForResults(int64_t timeout_ms);

  // Folds the fleet report (ascending session id) and gracefully closes the links. Call
  // once, after routing is finished (WaitForResults first for a clean run).
  FleetReport Finish();

  int32_t OwnerOf(uint64_t session);
  uint64_t epoch();
  bool fenced(int32_t worker);
  CoordinatorStats stats();

 private:
  struct Link {
    netd::NetClient client;
    std::thread reader;
    // Framed bytes routed to this worker and not yet written.
    std::string out;
    bool alive = false;
    bool ack_pending = false;      // a kHeartbeatAck arrived since the last Pulse
    WorkerHealth ack_health;
    bool heartbeat_lost = false;   // fault injection: drop this worker's heartbeats
    uint64_t handoff_ack_epoch = 0;
  };
  struct SessionState {
    std::string tap;  // framed bytes routed so far — the session's replay prefix
    int32_t last_owner = -1;
    bool close_routed = false;
    bool done = false;
    netd::NetSessionOutcome outcome;
  };

  void ReaderLoop(int32_t worker);
  // `decoded` is the outcome the reader decoded from a kSessionResult reply (aborted when
  // the decode failed); other tags ignore it.
  void OnReplyLocked(int32_t worker, const netd::Reply& reply, netd::NetSessionOutcome* decoded);
  // Writes `worker`'s buffer with one send and empties it. False when the write fails or
  // the link is down; the caller fences the link (its taps still hold every dropped byte).
  bool FlushLinkLocked(int32_t worker);
  // FlushLinkLocked on every live link, fencing each one whose write fails.
  void FlushAllLocked();
  // Fences `worker` (unless already fenced) and replays each of its unfinished sessions on
  // that session's owner: the failover target, or a migration's target for a session whose
  // range already moved. A failed replay cascades onto the next target.
  void CascadeFenceLocked(int32_t worker, const std::string& reason);
  void FailoverLocked(int32_t victim, int32_t target, const std::string& reason);
  // Appends the tap of every listed session still bound to `target` to its buffer, then
  // writes it out. False when a write fails (the caller fences `target`).
  bool ReplayLocked(int32_t target, const std::vector<uint64_t>& ids);
  void FinishSessionLocked(uint64_t id, SessionState* state);
  void AbortUnfinishedLocked(const std::string& reason);

  CoordinatorOptions options_;
  std::mutex mu_;
  std::condition_variable cv_;
  Topology topology_;
  std::vector<std::unique_ptr<Link>> links_;
  std::map<uint64_t, SessionState> sessions_;  // ordered: deterministic replay + fold order
  CoordinatorStats stats_;
  // Sessions whose close was routed and that are not done yet (WaitForResults waits for 0).
  int64_t closes_pending_ = 0;
  bool total_outage_ = false;
  bool finished_ = false;
};

}  // namespace fleetd

#endif  // SRC_FLEETD_COORDINATOR_H_
