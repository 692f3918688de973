#include "src/workload/fleet.h"

#include <exception>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "src/hosts/replay_host.h"
#include "src/hosts/session_log.h"
#include "src/simkit/flags.h"
#include "src/simkit/rng.h"
#include "src/simkit/thread_pool.h"

namespace workload {

uint64_t FleetSeed(uint64_t fleet_seed, uint64_t job_index) {
  // Master stream tagged 'flt'; one fork per job index. Forking (rather than seed + index
  // arithmetic) keeps neighbouring jobs' streams statistically independent.
  simkit::Rng master(fleet_seed, /*stream=*/0x666c74ULL);
  return master.Fork(job_index).NextU64();
}

namespace {

// Shared per-job setup: identity echo, recorder, fault plan. Recording is a passive tap on
// the Telemetry Host SPI — it never feeds anything back, so a recorded job's results are
// bit-identical to an unrecorded one.
void StampIdentity(const FleetJob& job, FleetJobResult* result) {
  result->app_package = job.spec->package;
  result->device_id = job.device_id;
  result->seed = job.seed;
}

std::unique_ptr<hangdoctor::SessionLogWriter> MakeRecorder(const FleetJob& job) {
  if (job.record_path.empty()) {
    return nullptr;
  }
  auto recorder = std::make_unique<hangdoctor::SessionLogWriter>(job.record_path, job.doctor);
  if (!recorder->ok()) {
    throw std::runtime_error("cannot open session log for writing: " + job.record_path);
  }
  if (job.faults.hdsl_fail_after >= 0) {
    recorder->SetFailAfter(job.faults.hdsl_fail_after);
  }
  return recorder;
}

// The fault plan splits off the same job seed the harness uses; FaultPlan forks its own
// tagged streams internally, so the app/user randomness is untouched and the fault
// sequence is identical at any --jobs=N.
faultsim::FaultPlan MakePlan(const FleetJob& job) {
  if (job.faults.enabled()) {
    return faultsim::FaultPlan(job.faults, job.seed);
  }
  return {};
}

void FinishRecorder(hangdoctor::SessionLogWriter* recorder, const FleetJob& job,
                    FleetJobResult* result) {
  if (recorder == nullptr) {
    return;
  }
  recorder->WriteTraceUsage(result->usage.cpu, result->usage.bytes);
  recorder->Finish();
  if (!recorder->ok()) {
    // An injected torn write (or a genuinely full disk): the run itself is fine, the
    // recording is not. Surface it instead of throwing so the fleet's other results and
    // this job's detections survive.
    result->record_ok = false;
    result->record_error = "session log short write: " + job.record_path;
  }
}

}  // namespace

FleetJobResult RunFleetJob(const FleetJob& job) {
  FleetJobResult result;
  if (job.spec == nullptr) {
    throw std::invalid_argument("FleetJob.spec is null");
  }
  StampIdentity(job, &result);
  // Private overlay over the shared (immutable) seed: jobs never share *mutable* state, so a
  // job's discoveries (and any behaviour conditioned on them) cannot depend on which other
  // job finished first — and nobody pays a per-job copy of the catalog.
  hangdoctor::BlockingApiDatabase database;
  database.SetBase(job.known_db);
  std::unique_ptr<hangdoctor::SessionLogWriter> recorder = MakeRecorder(job);
  SingleAppHarness harness(job.profile, job.spec, job.seed);
  hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(), job.doctor, &database,
                                job.device_id, recorder.get(), MakePlan(job));
  harness.RunUserSession(job.session, job.user);

  result.stats = ScoreHangDoctor(harness.truth(), doctor.log());
  result.usage = harness.Usage();
  result.overhead_pct =
      doctor.overhead().OverheadPercent(result.usage.cpu, result.usage.bytes);
  result.stats.overhead_pct = result.overhead_pct;
  result.report = doctor.local_report();
  result.discovered = database.discovered();
  result.stack_samples = doctor.stack_samples_taken();
  result.degradation = doctor.core().degradation();
  result.stream_ok = doctor.core().stream().ok();
  result.stream_error = doctor.core().stream().error();
  result.ok = true;
  FinishRecorder(recorder.get(), job, &result);
  return result;
}

FleetJobResult ReplayFleetJob(const std::string& path,
                              const hangdoctor::BlockingApiDatabase* known_db) {
  FleetJobResult result;
  hangdoctor::BlockingApiDatabase database;
  database.SetBase(known_db);
  std::string error;
  std::unique_ptr<hangdoctor::ReplaySession> session =
      hangdoctor::ReplaySessionLog(path, &error, &database);
  if (session == nullptr) {
    throw std::runtime_error("replay of " + path + " failed: " + error);
  }
  const hangdoctor::DetectorCore& core = session->core();
  // Identity as far as the log carries it (the harness seed is not recorded).
  result.app_package = session->log().info.app_package;
  result.device_id = session->log().info.device_id;
  // Ground truth is not recorded, so TP/FP/FN scoring is unavailable offline; only the
  // overhead percentage (recorded usage footer) is reproduced.
  result.usage.cpu = session->log().usage_cpu;
  result.usage.bytes = session->log().usage_bytes;
  result.overhead_pct = session->OverheadPercent();
  result.stats.overhead_pct = result.overhead_pct;
  result.report = core.local_report();
  result.discovered = database.discovered();
  result.stack_samples = core.stack_samples_taken();
  result.degradation = core.degradation();
  result.stream_ok = core.stream().ok();
  result.stream_error = core.stream().error();
  result.ok = true;
  return result;
}

namespace {

// The service-mode worker body: same job, but its detector lives inside the shared
// DetectorService as session `id` — the per-session arena replaces the private core — and
// the result is harvested through Close. Bit-identical to RunFleetJob because detection is
// per-session pure and the session id is the job index (so merges fold in the same order).
FleetJobResult RunServiceFleetJob(const FleetJob& job, hangdoctor::DetectorService* service,
                                  uint64_t id) {
  FleetJobResult result;
  if (job.spec == nullptr) {
    throw std::invalid_argument("FleetJob.spec is null");
  }
  StampIdentity(job, &result);
  std::unique_ptr<hangdoctor::SessionLogWriter> recorder = MakeRecorder(job);
  SingleAppHarness harness(job.profile, job.spec, job.seed);
  telemetry::SessionId session_id{id};
  try {
    hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(), job.doctor, service,
                                  session_id, job.device_id, recorder.get(), MakePlan(job));
    harness.RunUserSession(job.session, job.user);

    hangdoctor::SessionResult session = service->Close(session_id);
    result.stats = ScoreHangDoctor(harness.truth(), session.log);
    result.usage = harness.Usage();
    result.overhead_pct =
        session.overhead.OverheadPercent(result.usage.cpu, result.usage.bytes);
    result.stats.overhead_pct = result.overhead_pct;
    result.report = std::move(session.report);
    result.discovered = std::move(session.discovered);
    result.stack_samples = session.stack_samples;
    result.degradation = session.degradation;
    result.stream_ok = session.stream_ok;
    result.stream_error = std::move(session.stream_error);
    result.kb = session.kb;
    result.ok = true;
  } catch (...) {
    // The session may still be live (the harness threw mid-run); free its arena so one bad
    // job cannot leak service memory. Discard is idempotent, so a Close that already
    // happened — or an Open that never did — is fine.
    service->Discard(session_id);
    throw;
  }
  FinishRecorder(recorder.get(), job, &result);
  return result;
}

// Runs `run(i)` for every job index across the pool, then folds the results in job-index
// order. A throwing job fails only its own slot; the worker (and the other jobs) carry on.
// DetectionStats addition is commutative and HangBugReport::Merge is keyed, but fixing the
// fold order makes bit-identical output trivially true rather than a property to re-audit
// every time a field is added.
template <typename RunJob>
FleetSummary RunFleetWith(size_t count, const FleetOptions& options, RunJob run) {
  FleetSummary summary;
  summary.jobs.resize(count);
  {
    simkit::ThreadPool pool(options.jobs);
    for (size_t i = 0; i < count; ++i) {
      FleetJobResult* slot = &summary.jobs[i];
      pool.Submit([i, slot, &run]() {
        try {
          *slot = run(i);
        } catch (const std::exception& e) {
          slot->ok = false;
          slot->error = e.what();
        } catch (...) {
          slot->ok = false;
          slot->error = "unknown exception";
        }
      });
    }
    pool.Wait();
  }
  std::set<std::string> discovered;
  for (const FleetJobResult& result : summary.jobs) {
    if (!result.ok) {
      ++summary.failed;
      continue;
    }
    summary.merged_stats += result.stats;
    summary.merged_report.Merge(result.report);
    discovered.insert(result.discovered.begin(), result.discovered.end());
  }
  summary.discovered.assign(discovered.begin(), discovered.end());
  return summary;
}

int32_t ResolveServiceShards(const FleetOptions& options) {
  return options.shards > 0
             ? options.shards
             : (options.jobs > 0 ? options.jobs : simkit::ThreadPool::DefaultJobCount());
}

// Service mode holds ONE seed catalog (ServiceOptions.seed_db / the knowledge base's seed),
// so every job of the call must agree on its known_db pointer — including agreeing on null.
const hangdoctor::BlockingApiDatabase* UniformKnownDb(std::span<const FleetJob> jobs) {
  const hangdoctor::BlockingApiDatabase* known_db =
      jobs.empty() ? nullptr : jobs.front().known_db;
  for (const FleetJob& job : jobs) {
    if (job.known_db != known_db) {
      throw std::invalid_argument(
          "service-mode RunFleet requires every FleetJob to share one known_db (use "
          "FleetOptions.service = false for per-job catalogs)");
    }
  }
  return known_db;
}

}  // namespace

FleetSummary RunFleet(std::span<const FleetJob> jobs, const FleetOptions& options) {
  if (options.kb_epoch_sessions < 0) {
    throw std::invalid_argument("FleetOptions.kb_epoch_sessions must be >= 0, got " +
                                std::to_string(options.kb_epoch_sessions));
  }
  if (!options.service) {
    // The per-job oracle: one private DetectorCore per job. Kept for the equivalence tests
    // that pin service mode (and the shared knowledge base) against it.
    return RunFleetWith(jobs.size(), options,
                        [&jobs](size_t i) { return RunFleetJob(jobs[i]); });
  }
  // One seed, or one knowledge base carrying the seed plus the epoch schedule.
  hangdoctor::ServiceOptions service_options;
  service_options.shards = ResolveServiceShards(options);
  const hangdoctor::BlockingApiDatabase* seed = UniformKnownDb(jobs);
  std::unique_ptr<hangdoctor::KnowledgeBase> kb;
  if (options.shared_kb) {
    kb = std::make_unique<hangdoctor::KnowledgeBase>(
        seed != nullptr ? *seed : hangdoctor::BlockingApiDatabase{});
    service_options.knowledge_base = kb.get();
    service_options.kb_epoch_sessions = options.kb_epoch_sessions;
  } else {
    service_options.seed_db = seed;
  }
  hangdoctor::DetectorService service(service_options);
  FleetSummary summary = RunFleetWith(jobs.size(), options, [&jobs, &service](size_t i) {
    return RunServiceFleetJob(jobs[i], &service, static_cast<uint64_t>(i));
  });
  if (kb != nullptr) {
    // Final epoch: everything the last sessions confirmed becomes part of the published
    // state before the totals are read.
    kb->Publish();
    summary.kb = kb->TotalStats();
  }
  return summary;
}

FleetSummary ReplayFleet(std::span<const std::string> paths, const FleetOptions& options,
                         const hangdoctor::BlockingApiDatabase* known_db) {
  return RunFleetWith(paths.size(), options, [&paths, known_db](size_t i) {
    return ReplayFleetJob(paths[i], known_db);
  });
}

std::string FleetJobResult::Describe() const {
  std::string line =
      app_package + " device " + std::to_string(device_id) + " seed " + std::to_string(seed) + ":";
  if (!ok) {
    return line + " FAILED (" + error + ")";
  }
  std::string notes;
  if (degradation.Degraded()) {
    notes += " degraded(opens_failed=" + std::to_string(degradation.counter_open_failures) +
             " retries=" + std::to_string(degradation.counter_retries) +
             " invalid_windows=" + std::to_string(degradation.invalid_counter_windows) +
             " degraded_checks=" + std::to_string(degradation.degraded_checks) +
             " empty_traces=" + std::to_string(degradation.empty_trace_windows) +
             " dropped=" + std::to_string(degradation.dropped_records) + ")";
  }
  if (!stream_ok) {
    notes += " stream_error(" + stream_error + ")";
  }
  if (!record_ok) {
    notes += " torn_recording";
  }
  if (notes.empty()) {
    notes = " ok";
  }
  return line + notes;
}

hangdoctor::HangBugReport FleetSummary::MergeReports(size_t begin, size_t end) const {
  hangdoctor::HangBugReport merged;
  for (size_t i = begin; i < end && i < jobs.size(); ++i) {
    if (jobs[i].ok) {
      merged.Merge(jobs[i].report);
    }
  }
  return merged;
}

int32_t ResolveJobs(int argc, char** argv) {
  int64_t jobs = simkit::FlagInt(argc, argv, "--jobs=", 0);
  return jobs > 0 ? static_cast<int32_t>(jobs) : simkit::ThreadPool::DefaultJobCount();
}

int32_t ResolveShards(int argc, char** argv) {
  int64_t shards = simkit::FlagInt(argc, argv, "--shards=", 0);
  return shards > 0 ? static_cast<int32_t>(shards) : 0;
}

int64_t ResolveKbEpoch(int argc, char** argv) {
  int64_t epoch = simkit::FlagInt(argc, argv, "--kb-epoch=", FleetOptions{}.kb_epoch_sessions);
  if (epoch < 0) {
    throw std::invalid_argument("--kb-epoch must be >= 0, got " + std::to_string(epoch));
  }
  return epoch;
}

std::string ResolveRecordDir(int argc, char** argv) {
  return std::string(simkit::FlagString(argc, argv, "--record=").value_or(""));
}

std::string ResolveReplayDir(int argc, char** argv) {
  return std::string(simkit::FlagString(argc, argv, "--replay=").value_or(""));
}

faultsim::FaultProfile ResolveFaultProfile(int argc, char** argv) {
  std::string_view value = simkit::FlagString(argc, argv, "--faults=").value_or("");
  if (value.empty()) {
    return faultsim::FaultProfile{};
  }
  return faultsim::FaultProfile::Named(std::string(value));
}

}  // namespace workload
