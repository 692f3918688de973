// Fleet topology: who owns which sessions, which workers hold a live lease, and what the
// coordinator must do when a lease dies. Pure bookkeeping — no sockets, no threads, no
// clocks of its own (every time is a caller-supplied now_ms) — so the lease/fencing battery
// drives it with a fake clock and the coordinator wraps it under one mutex.
//
// Ownership model: AssignRange() partitions a contiguous session-id interval into one
// contiguous sub-range per worker (fleetd's shard-group shape). Ownership then moves in two
// ways, both of which bump the fencing epoch:
//   MoveRanges(from, to)  drain-migration: every range owned by `from` transfers to `to`;
//                         `from` stays alive and can receive work again later.
//   Fence(victim)         failover: `victim` is permanently out (crash, lease expiry, failed
//                         self-watchdog lease). Its ranges transfer to the lowest-indexed
//                         live worker and OnHeartbeatAck() refuses to resurrect it.
//
// Epochs are the fencing primitive end to end: every control frame the coordinator sends
// carries the current epoch, workers remember the highest epoch they have seen, and a frame
// carrying an older epoch is answered kStaleEpoch and ignored — a superseded coordinator (or
// a delayed frame addressed to a pre-failover world) cannot mutate a worker's sessions.
#ifndef SRC_FLEETD_TOPOLOGY_H_
#define SRC_FLEETD_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fleetd {

// A contiguous inclusive session-id interval. lo > hi encodes the empty range (a fleet with
// more workers than sessions leaves the tail workers empty).
struct SessionRange {
  uint64_t lo = 1;
  uint64_t hi = 0;
  bool empty() const { return lo > hi; }
  bool Contains(uint64_t id) const { return id >= lo && id <= hi; }
  uint64_t size() const { return empty() ? 0 : hi - lo + 1; }
};

// Splits [first, last] into `workers` contiguous ranges, sizes differing by at most one
// (the remainder goes to the front). Deterministic: a pure function of its arguments.
std::vector<SessionRange> PartitionSessions(uint64_t first, uint64_t last, int32_t workers);

struct TopologyOptions {
  // A lease is live for this long after its last applied heartbeat ack; Tick() fences any
  // worker whose lease has expired.
  int64_t lease_timeout_ms = 2000;
};

// The health a worker reported on its last heartbeat ack (wire.h kHeartbeatAck fields).
struct WorkerHealth {
  uint64_t live_sessions = 0;
  uint64_t records_applied = 0;
  bool applier_stuck = false;  // current self-watchdog wedge (clears on progress)
  bool lease_failed = false;   // sticky: the worker itself forfeited its lease
};

// One failover Tick() decided on: `victim` is fenced (at `epoch`), its sessions belong to
// `target` now. target < 0 means no live worker remains — total outage.
struct FailoverDecision {
  int32_t victim = -1;
  int32_t target = -1;
  uint64_t epoch = 0;
  std::string reason;
};

class Topology {
 public:
  explicit Topology(int32_t workers, const TopologyOptions& options = {});

  int32_t workers() const { return static_cast<int32_t>(slots_.size()); }
  uint64_t epoch() const { return epoch_; }

  // Partitions [first, last] across all workers (fenced workers' shares land on their
  // failover targets immediately). Callable more than once; later ranges stack.
  void AssignRange(uint64_t first, uint64_t last);

  // Current owner of `id`: the worker whose range contains it. -1 when nobody owns it
  // (outside every assigned range, or total outage).
  int32_t OwnerOf(uint64_t id) const;

  // Lease protocol. Register starts the lease clock; an ack renews it (and records health)
  // unless the worker is fenced — a fenced worker's acks return false and change nothing.
  void Register(int32_t worker, int64_t now_ms);
  bool OnHeartbeatAck(int32_t worker, int64_t now_ms, const WorkerHealth& health);

  // Fences every registered worker whose lease expired or whose last health said
  // lease_failed. Returns the decisions in worker order; each fence bumps the epoch.
  std::vector<FailoverDecision> Tick(int64_t now_ms);

  // Permanently fences `worker` (idempotent: refenced workers return -1 with no epoch
  // bump). Transfers its ranges to the lowest-indexed live worker and returns that target,
  // or -1 on total outage.
  int32_t Fence(int32_t worker, const std::string& reason);

  // Drain-migration: moves every range owned by `from` to `to`, bumps the epoch, and
  // returns it. Throws std::invalid_argument when either end is fenced or out of range.
  uint64_t MoveRanges(int32_t from, int32_t to);

  bool fenced(int32_t worker) const;
  const std::string& fence_reason(int32_t worker) const;
  int64_t lease_expires_ms(int32_t worker) const;
  int32_t live_workers() const;

 private:
  struct Slot {
    bool registered = false;
    bool fenced = false;
    int64_t lease_expires_ms = 0;
    WorkerHealth health;
    std::string fence_reason;
  };
  struct Assignment {
    SessionRange range;
    int32_t owner = -1;
  };

  void CheckWorker(int32_t worker) const;
  int32_t LowestLive() const;

  TopologyOptions options_;
  std::vector<Slot> slots_;
  std::vector<Assignment> assignments_;
  uint64_t epoch_ = 1;
};

}  // namespace fleetd

#endif  // SRC_FLEETD_TOPOLOGY_H_
