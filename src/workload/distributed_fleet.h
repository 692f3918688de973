// The distributed fleet driver: RunFleet's evaluation shape spread across a
// coordinator/worker shard group (src/fleetd). Phase A records every job's HDSL session log
// (the same passive tap RunFleet's record_path uses); phase B boots N in-process worker
// daemons (each an embedded NetServer + DetectorService behind one end of a socketpair),
// links a fleetd::Coordinator to them, and streams the recorded sessions through the wire —
// with optional mid-run drain-migration, worker crashes, and heartbeat loss injected at
// deterministic frame fractions (src/faultsim/fleet_faults.h).
//
// Determinism contract, extending fleet.h's one more level out: the folded outcomes and the
// merged Hang Bug Report are bit-identical to the in-process RunFleet oracle on the same
// jobs — at any worker count, with or without a mid-run migration, a worker crash, or a
// fenced heartbeat-silent worker, because every move is an HDSL replay of a per-session-pure
// prefix and each session contributes exactly one result (coordinator.h).
#ifndef SRC_WORKLOAD_DISTRIBUTED_FLEET_H_
#define SRC_WORKLOAD_DISTRIBUTED_FLEET_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/faultsim/fleet_faults.h"
#include "src/fleetd/coordinator.h"
#include "src/hosts/mux_log.h"
#include "src/netd/server.h"
#include "src/workload/fleet.h"

namespace workload {

struct DistributedFleetOptions {
  // Worker daemons in the shard group (>= 1), each with one epoll worker and two shard
  // workers.
  int32_t workers = 2;
  // Drain-migrate the busiest live worker's sessions onto the next live worker once this
  // fraction of all frames has been routed. < 0 disables; ignored with a single worker.
  double migrate_at = -1.0;
  // Seeded worker-crash / heartbeat-loss events (fleet_faults.h).
  faultsim::FleetFaultProfile fleet_faults;
  uint64_t fault_seed = 0;
  // Seed blocking-API database for every worker's DetectorService — must match the database
  // the recorded jobs ran with (fleet.h known_db) for the bit-identity contract. Must
  // outlive the run. RunDistributedFleet wires this from the jobs automatically.
  const hangdoctor::BlockingApiDatabase* known_db = nullptr;
  // Leases live `lease_timeout_ms` real ms — the window a worker has to ack a heartbeat
  // before it is fenced; the driver pulses the coordinator on the real clock
  // (distributed_fleet.cc). Heartbeat acks ride the same stream as session replies, so the
  // timeout must dominate the worker's worst backpressure stall (a parked shard queue delays
  // acks), not just the network round trip; frame-count-coupled virtual time would fence a
  // healthy-but-busy worker.
  int64_t lease_timeout_ms = 2000;
};

struct DistributedFleetResult {
  // Every session, ascending id. Clean runs abort nothing.
  std::vector<netd::NetSessionOutcome> outcomes;
  // MergeSessionReports over the clean outcomes — compare against the oracle's merged
  // report for the bit-identity check.
  hangdoctor::HangBugReport merged;
  fleetd::CoordinatorStats stats;
  // Human-readable lines for everything injected ("worker 1 crash at 42% of frames",
  // "drain-migrated worker 0 -> 1 at 50% of frames").
  std::vector<std::string> events;
  int64_t frames_routed = 0;
};

// Streams pre-recorded session logs through the shard group. `slices` ids must be unique;
// ownership ranges partition [min id, max id].
DistributedFleetResult RunDistributedFleetFromLogs(
    std::span<const hangdoctor::SessionLogSlice> slices,
    const DistributedFleetOptions& options);

// Records `jobs` into `record_dir` (file job_<i>.hdsl, session id i + 1) via the per-job
// RunFleet path, then streams the logs. The recording summary — the natural oracle — comes
// back through `oracle` when non-null.
DistributedFleetResult RunDistributedFleet(std::span<const FleetJob> jobs,
                                           const std::string& record_dir,
                                           const DistributedFleetOptions& options,
                                           FleetSummary* oracle = nullptr);

}  // namespace workload

#endif  // SRC_WORKLOAD_DISTRIBUTED_FLEET_H_
