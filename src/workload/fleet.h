// Parallel fleet experiment runner: fans a list of independent (app × device × seed) runs
// across a simkit::ThreadPool, one SingleAppHarness + HangDoctor per job, and folds the
// results into order-independent aggregates. This is the paper's Section 4 evaluation shape —
// many users running instrumented apps, their Hang Bug Reports merging fleet-wide — made
// parallel without giving up reproducibility.
//
// Determinism contract: every job is self-contained (own Phone, own Rng stream, own copy of
// the blocking-API database), results are stored index-aligned with the input jobs, and
// merges fold in job-index order. Therefore the merged DetectionStats, the merged
// HangBugReport, and each per-job result are bit-identical for any worker count
// (`FleetOptions::jobs`) and any host scheduling order. Same seeds => same results.
//
// Record/replay: a job with `record_path` set writes an HDSL session log of the exact
// telemetry its HangDoctor consumed (src/hosts/session_log.h); ReplayFleetJob re-runs a
// detector from such a log offline, with a bit-identical report and execution log. Recording
// is a passive tap, so a recorded fleet's results are bit-identical to an unrecorded one.
#ifndef SRC_WORKLOAD_FLEET_H_
#define SRC_WORKLOAD_FLEET_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/faultsim/fault_plan.h"
#include "src/hosts/hang_doctor.h"
#include "src/simkit/time.h"
#include "src/workload/experiment.h"

namespace workload {

// One fleet run: one app on one simulated device for one user session.
struct FleetJob {
  const droidsim::AppSpec* spec = nullptr;  // must outlive the fleet run (catalog-owned)
  droidsim::DeviceProfile profile;
  uint64_t seed = 0;  // harness seed; use FleetSeed() when no specific seed is called for
  simkit::SimDuration session = simkit::Seconds(120);
  UserSessionConfig user;
  hangdoctor::HangDoctorConfig doctor;
  int32_t device_id = 0;  // stamped on bug-report entries (device-coverage ordering)
  // Known blocking APIs seeding the job's database; null = empty. Each job *overlays* it
  // (src/hangdoctor/blocking_api_db.h) so no mutable state is shared across workers and
  // discoveries stay deterministic regardless of which job finishes first — bit-equivalent
  // to the old per-job copy, without N copies of the catalog. Must outlive the fleet run.
  // Service mode requires every job of one RunFleet call to carry the same pointer (the
  // service holds one seed); per-job catalogs remain available via service = false.
  const hangdoctor::BlockingApiDatabase* known_db = nullptr;
  // When non-empty, write an HDSL session log of this job's telemetry stream here.
  std::string record_path;
  // Telemetry faults to inject between the host and the core (src/faultsim). The job's
  // FaultPlan is seeded from `seed`, so the fault sequence — like everything else — is a
  // pure function of (fleet_seed, job_index) and identical at any --jobs=N. The profile's
  // hdsl_fail_after budget additionally applies to this job's recorder, when any.
  faultsim::FaultProfile faults;
};

// Deterministic per-job seed: splits the fleet master stream by job index with simkit::Rng
// forking, so a fleet keyed by (fleet_seed, job_index) draws identical randomness at any
// parallelism level, and adding jobs at the end never perturbs earlier ones.
uint64_t FleetSeed(uint64_t fleet_seed, uint64_t job_index);

struct FleetJobResult {
  bool ok = false;
  std::string error;  // exception message when !ok; the pool itself is never poisoned
  // Identity of the job that produced this result, echoed from the FleetJob so a result is
  // self-describing (a degraded job can be named — and re-run — without re-deriving its
  // index into the input span).
  std::string app_package;
  int32_t device_id = 0;
  uint64_t seed = 0;
  DetectionStats stats;              // ScoreHangDoctor against the job's own ground truth
  hangdoctor::HangBugReport report;  // this device's local Hang Bug Report
  std::vector<std::string> discovered;  // blocking APIs this job newly learned
  TraceUsage usage;
  double overhead_pct = 0.0;
  int64_t stack_samples = 0;
  // Graceful-degradation accounting (src/hangdoctor/stream_guard.h): retries, degraded
  // checks, dropped records. All-zero on a fault-free run.
  hangdoctor::DegradationStats degradation;
  // False when the core hit a sticky stream-contract violation (e.g. an injected delay made
  // time regress); the job still completes and reports whatever it concluded before.
  bool stream_ok = true;
  std::string stream_error;
  // False when the session-log recorder lost bytes (torn-write injection / full disk). The
  // job itself still succeeds; only the recording is unusable.
  bool record_ok = true;
  std::string record_error;
  // Shared-knowledge-base savings for this job's session (zeros without --shared-kb).
  // Advisory, not part of the bit-identity contract: hit counts depend on which epoch the
  // session's snapshot came from, which depends on scheduling — the verdicts never do.
  hangdoctor::KbSessionStats kb;

  // One line naming the job and its health — app, device, seed, then whatever went wrong
  // (degradation counters, stream violation, torn recording). Used by table5's degradation
  // section; a clean job reads "... ok".
  std::string Describe() const;
};

struct FleetSummary {
  std::vector<FleetJobResult> jobs;  // index-aligned with the input span
  DetectionStats merged_stats;       // sum over ok jobs, folded in job-index order
  hangdoctor::HangBugReport merged_report;
  std::vector<std::string> discovered;  // union over ok jobs, deduplicated, sorted
  size_t failed = 0;                    // jobs that threw
  // Knowledge-base totals after the run's final publish (all-zero without shared_kb).
  hangdoctor::KnowledgeBase::Stats kb;

  // Folds the results of jobs [begin, end) — e.g. one app's slice of a fleet — into a
  // fresh report, in index order.
  hangdoctor::HangBugReport MergeReports(size_t begin, size_t end) const;
};

struct FleetOptions {
  // Worker threads; <= 0 resolves via ThreadPool::DefaultJobCount() (HANGDOCTOR_JOBS env,
  // else hardware_concurrency).
  int32_t jobs = 0;
  // Detection backend. Service mode (default) runs every job's detector inside one shared
  // DetectorService — the session-multiplexed shape — with `shards` shards (<= 0 resolves to
  // the worker count). Results are bit-identical to the per-job path at any value of either
  // knob; `service = false` keeps the old one-private-core-per-job path, retained as the
  // equivalence oracle for tests.
  bool service = true;
  int32_t shards = 0;
  // Shared knowledge base (service mode only): every session reads epoch-published
  // snapshots of one hangdoctor::KnowledgeBase seeded from the jobs' common known_db and
  // publishes its confirmations back at epoch boundaries — the paper's reuse loop, fleet-
  // wide. Fleet output stays bit-identical to shared_kb = false (and to the per-job oracle)
  // at any {jobs, shards, kb_epoch_sessions}; only FleetSummary::kb / per-job kb stats
  // change. Ignored when `service` is false.
  bool shared_kb = false;
  // Epoch length for shared_kb: publish every N closed sessions (0 = only at ingest
  // barriers and the end-of-run publish).
  int64_t kb_epoch_sessions = 16;
};

// Runs one job synchronously on the calling thread against a private DetectorCore (also the
// per-worker body of RunFleet's per-job oracle, `service = false`).
FleetJobResult RunFleetJob(const FleetJob& job);

// Runs every job across the pool and merges. A throwing job yields !ok for that index and
// is excluded from the merged aggregates; the remaining jobs are unaffected.
FleetSummary RunFleet(std::span<const FleetJob> jobs, const FleetOptions& options = {});

// Replays one recorded session log offline. The replayed report, execution log, and overhead
// accounting are bit-identical to the recording job's. Ground truth is not in the log, so
// `stats` stays zero apart from overhead_pct (detection-only replay); pass the same seeded
// `known_db` as the live run to reproduce the report's `discovered` markers.
FleetJobResult ReplayFleetJob(const std::string& path,
                              const hangdoctor::BlockingApiDatabase* known_db = nullptr);

// Replays many logs across the pool (same merge semantics as RunFleet).
FleetSummary ReplayFleet(std::span<const std::string> paths, const FleetOptions& options = {},
                         const hangdoctor::BlockingApiDatabase* known_db = nullptr);

// CLI flag helpers (strict parsing, src/simkit/flags.h: a malformed number throws
// simkit::FlagError, a std::invalid_argument naming the flag).
//
// Resolves the worker count for a CLI consumer: `--jobs=N` argv flag wins, then the
// HANGDOCTOR_JOBS environment variable, then hardware_concurrency.
int32_t ResolveJobs(int argc, char** argv);

// `--shards=N` flag helper for service-mode consumers; 0 when absent (resolve to workers).
int32_t ResolveShards(int argc, char** argv);

// `--kb-epoch=N` flag helper for --shared-kb consumers: the FleetOptions default (16) when
// absent; throws std::invalid_argument for an explicit N < 0.
int64_t ResolveKbEpoch(int argc, char** argv);

// CLI flag helpers for record/replay: `--record=DIR` / `--replay=DIR`; empty when absent.
std::string ResolveRecordDir(int argc, char** argv);
std::string ResolveReplayDir(int argc, char** argv);

// `--faults=PROFILE` flag helper: resolves a named FaultProfile (see
// faultsim::FaultProfile::KnownProfiles). Returns the "none" profile when the flag is
// absent; throws std::invalid_argument on an unknown name.
faultsim::FaultProfile ResolveFaultProfile(int argc, char** argv);

}  // namespace workload

#endif  // SRC_WORKLOAD_FLEET_H_
