// Reproduces Table 5 of the paper: the in-the-wild study over 114 apps. Each study app runs
// on a small fleet of devices with Hang Doctor attached; the fleet report's diagnosed bugs are
// matched against the catalog's ground-truth BugSpecs, and a PerfChecker-style offline scan of
// the same apps determines which of Hang Doctor's findings offline detection would miss (MO).
//
// The (app × device) runs are independent, so they fan out across workload::RunFleet —
// pass --jobs=N (or set HANGDOCTOR_JOBS) to pick the worker count; the merged results are
// bit-identical at any parallelism level.
//
// Paper reference: 16 of 114 tested apps show soft hang bugs; Hang Doctor identifies 34 bugs,
// 23 of which (68%) are missed by the offline detector because their root causes are
// previously unknown blocking APIs or self-developed operations. (Developer confirmations —
// 62% in the paper — require real issue trackers and are out of scope here.)
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench/smoke.h"
#include "src/baselines/offline_scanner.h"
#include "src/faultsim/fault_plan.h"
#include "src/faultsim/fleet_faults.h"
#include "src/hangdoctor/stream_guard.h"
#include "src/hosts/hang_doctor.h"
#include "src/simkit/flags.h"
#include "src/workload/distributed_fleet.h"
#include "src/workload/experiment.h"
#include "src/workload/fleet.h"

namespace {

std::string BugKey(const std::string& api, const std::string& file, int32_t line) {
  return api + "@" + file + ":" + std::to_string(line);
}

std::string JobLogPath(const std::string& dir, size_t job_index) {
  return dir + "/job_" + std::to_string(job_index) + ".hdsl";
}

std::string Downloads(int64_t n) {
  if (n >= 1000000) {
    return std::to_string(n / 1000000) + "M+";
  }
  if (n >= 1000) {
    return std::to_string(n / 1000) + "K+";
  }
  return std::to_string(n) + "+";
}

int Run(int argc, char** argv) {
  // Every argument is validated up front: an unknown flag or a typo'd --app= name fails
  // loudly with the valid spellings instead of silently running the default study.
  simkit::CheckKnownFlags(argc, argv,
                          {"--fleet-scale=", "--faults=", "--record=", "--replay=", "--jobs=",
                           "--shards=", "--kb-epoch=", "--app=", "--workers=", "--migrate-at=",
                           "--fleet-faults="},
                          {"--shared-kb", "--async"});
  std::vector<std::string> app_filter;
  for (std::string_view name : simkit::FlagStrings(argc, argv, "--app=")) {
    app_filter.emplace_back(name);
  }

  // Numeric flags parse strictly (simkit/flags.h), also before anything runs: a malformed
  // value such as --fleet-scale=3x exits 2 naming the flag instead of running at scale 3.
  auto int_flag = [&](std::string_view prefix, int32_t fallback) {
    std::optional<std::string_view> value = simkit::FlagString(argc, argv, prefix);
    return value ? simkit::ParseFlag<int32_t>(prefix, *value) : fallback;
  };
  // --fleet-scale=N multiplies the devices per study app: the same study at N× fleet size,
  // e.g. to exercise --shared-kb epoch churn at scale. Table counts scale with it, so the
  // default (1) is what the goldens pin.
  const int32_t fleet_scale = int_flag("--fleet-scale=", 1);
  // --workers=N and --migrate-at=K (percent of frames): the distributed-fleet run below.
  const int32_t fleet_workers = int_flag("--workers=", 0);
  const double migrate_at = simkit::FlagDouble(argc, argv, "--migrate-at=", -1.0);
  if (fleet_scale < 1) {
    std::fprintf(stderr, "--fleet-scale must be >= 1, got %d\n", fleet_scale);
    return 2;
  }
  if (simkit::FlagString(argc, argv, "--workers=") && fleet_workers < 1) {
    std::fprintf(stderr, "--workers must be >= 1, got %d\n", fleet_workers);
    return 2;
  }
  if (simkit::FlagString(argc, argv, "--migrate-at=") &&
      !(migrate_at >= 0.0 && migrate_at <= 100.0)) {
    std::fprintf(stderr, "--migrate-at must be a percentage in [0, 100], got %g\n", migrate_at);
    return 2;
  }

  // Mutually-incompatible combinations fail up front, before any simulation runs. A flag
  // that the chosen mode would silently ignore is an error, not a no-op: --replay re-runs
  // detectors from recorded logs on the per-job path, so it cannot record, inject faults,
  // or use the service's shards or knowledge base; --kb-epoch only means something once
  // --shared-kb exists to publish on that cadence.
  {
    auto has_value = [&](const char* prefix) {
      return simkit::FlagString(argc, argv, prefix).has_value();
    };
    const bool replaying = has_value("--replay=");
    struct Conflict {
      bool active;
      const char* message;
    };
    const Conflict conflicts[] = {
        {replaying && has_value("--record="),
         "--record and --replay are mutually exclusive: a replayed fleet never runs the "
         "live simulation, so nothing would be recorded"},
        {replaying && has_value("--faults="),
         "--faults does nothing under --replay: faults are injected at simulation time "
         "and are already baked into (or absent from) the recorded logs"},
        {replaying && has_value("--shards="),
         "--shards=N does nothing under --replay: replay re-runs detectors on the per-job "
         "path, which has no service shards"},
        {replaying && simkit::HasFlag(argc, argv, "--shared-kb"),
         "--shared-kb does nothing under --replay: replay re-runs detectors on the "
         "per-job path, which has no fleet-wide knowledge base"},
        {has_value("--kb-epoch=") && !simkit::HasFlag(argc, argv, "--shared-kb"),
         "--kb-epoch requires --shared-kb: the epoch cadence is the shared knowledge "
         "base's publish schedule"},
        {replaying && has_value("--workers="),
         "--workers does nothing under --replay: the distributed fleet records and "
         "streams its own logs"},
        {has_value("--migrate-at=") && !has_value("--workers="),
         "--migrate-at requires --workers: migration is a distributed-fleet event"},
        {has_value("--fleet-faults=") && !has_value("--workers="),
         "--fleet-faults requires --workers: worker crashes and heartbeat loss are "
         "distributed-fleet events"},
    };
    for (const Conflict& conflict : conflicts) {
      if (conflict.active) {
        std::fprintf(stderr, "%s\n", conflict.message);
        return 2;
      }
    }
  }

  const int32_t devices_per_app = bench::SmokeScaled(4, 1) * fleet_scale;
  const simkit::SimDuration session_length =
      bench::SmokeScaled(simkit::Seconds(420), simkit::Seconds(60));

  workload::Catalog catalog;
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();
  baselines::OfflineScanner scanner(&known_db);
  const bool async_section = simkit::HasFlag(argc, argv, "--async");

  // Resolve --app= names against the catalog before anything runs. An async study app is a
  // valid spelling only under --async (it never appears in the Table 5 rows).
  std::vector<const droidsim::AppSpec*> study_specs = catalog.study_apps();
  std::vector<const droidsim::AppSpec*> async_specs =
      async_section ? catalog.async_apps() : std::vector<const droidsim::AppSpec*>{};
  if (!app_filter.empty()) {
    auto named = [&](const std::vector<const droidsim::AppSpec*>& specs,
                     const std::string& name) {
      for (const droidsim::AppSpec* spec : specs) {
        if (spec->name == name) {
          return true;
        }
      }
      return false;
    };
    for (const std::string& name : app_filter) {
      if (named(catalog.study_apps(), name) || named(async_specs, name)) {
        continue;
      }
      if (named(catalog.async_apps(), name)) {
        std::fprintf(stderr, "--app=%s names an async study app; pass --async to run it\n",
                     name.c_str());
        return 2;
      }
      std::fprintf(stderr, "unknown app '%s' for --app=; valid apps:", name.c_str());
      for (const droidsim::AppSpec* spec : catalog.study_apps()) {
        std::fprintf(stderr, " '%s'", spec->name.c_str());
      }
      for (const droidsim::AppSpec* spec : catalog.async_apps()) {
        std::fprintf(stderr, " '%s' (--async)", spec->name.c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    auto keep = [&](const droidsim::AppSpec* spec) {
      for (const std::string& name : app_filter) {
        if (spec->name == name) {
          return true;
        }
      }
      return false;
    };
    std::erase_if(study_specs, [&](const droidsim::AppSpec* s) { return !keep(s); });
    std::erase_if(async_specs, [&](const droidsim::AppSpec* s) { return !keep(s); });
  }

  // One fleet job per (study app, device); app i owns indices [i*devices, (i+1)*devices).
  std::vector<workload::FleetJob> jobs;
  for (const droidsim::AppSpec* spec : study_specs) {
    for (int32_t device = 0; device < devices_per_app; ++device) {
      workload::FleetJob job;
      job.spec = spec;
      job.profile = droidsim::LgV10();
      job.seed = 1000 + static_cast<uint64_t>(device) * 77 +
                 static_cast<uint64_t>(spec->downloads % 97);
      job.session = session_length;
      job.device_id = device;
      job.known_db = &known_db;
      jobs.push_back(job);
    }
  }

  // --faults=PROFILE injects seeded telemetry faults into every job (src/faultsim); with the
  // flag absent the profile is "none" and the output below is byte-identical to a build
  // without the fault layer.
  faultsim::FaultProfile faults;
  try {
    faults = workload::ResolveFaultProfile(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s; known profiles:", e.what());
    for (const std::string& name : faultsim::FaultProfile::KnownProfiles()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (faults.enabled()) {
    for (workload::FleetJob& job : jobs) {
      job.faults = faults;
    }
  }

  // --record=DIR taps every job's telemetry into DIR/job_<i>.hdsl (results unchanged);
  // --replay=DIR skips the live fleet and re-runs the detectors from those logs instead.
  const std::string record_dir = workload::ResolveRecordDir(argc, argv);
  const std::string replay_dir = workload::ResolveReplayDir(argc, argv);
  if (!record_dir.empty()) {
    std::filesystem::create_directories(record_dir);
    for (size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].record_path = JobLogPath(record_dir, i);
    }
  }

  // The fleet always runs through the session-multiplexed DetectorService, bit-identical to
  // the per-job path at any shard count (--shards=N).
  workload::FleetOptions options;
  options.jobs = workload::ResolveJobs(argc, argv);
  options.shards = workload::ResolveShards(argc, argv);
  // --shared-kb pools every job's discoveries and diagnosis memos through one
  // epoch-published KnowledgeBase (--kb-epoch=N picks the publish cadence). The table below
  // is bit-identical either way — the KB is advisory — so only the summary block at the end
  // is new output, keeping the default byte-identical to the goldens.
  const bool shared_kb = simkit::HasFlag(argc, argv, "--shared-kb");
  if (shared_kb) {
    options.shared_kb = true;
    try {
      options.kb_epoch_sessions = workload::ResolveKbEpoch(argc, argv);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  auto fleet_start = std::chrono::steady_clock::now();
  workload::FleetSummary summary;
  if (!replay_dir.empty()) {
    std::vector<std::string> paths;
    paths.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
      paths.push_back(JobLogPath(replay_dir, i));
    }
    summary = workload::ReplayFleet(paths, options, &known_db);
  } else {
    summary = workload::RunFleet(jobs, options);
  }
  double fleet_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - fleet_start).count();

  std::printf("=== Table 5: apps with soft hang problems (of %zu apps tested) ===\n",
              catalog.all_apps().size());
  std::printf("fleet phase: %zu jobs on %d worker(s) in %.2f s\n", jobs.size(),
              options.jobs, fleet_seconds);
  if (fleet_scale > 1) {
    std::printf("fleet scale: %dx (%d devices per study app)\n", fleet_scale,
                devices_per_app);
  }
  std::printf("\n");
  std::printf("%-16s %-12s %-16s %-7s %-9s %-9s\n", "App (downloads)", "Commit", "Category",
              "Issue", "BD (MO)", "paper");

  int64_t total_detected = 0;
  int64_t total_missed_offline = 0;
  int64_t total_expected = 0;
  int64_t buggy_apps = 0;

  for (size_t app_index = 0; app_index < study_specs.size(); ++app_index) {
    const droidsim::AppSpec* spec = study_specs[app_index];
    std::vector<workload::BugSpec> expected = catalog.BugsOf(spec->name);
    total_expected += static_cast<int64_t>(expected.size());

    hangdoctor::HangBugReport app_report = summary.MergeReports(
        app_index * static_cast<size_t>(devices_per_app),
        (app_index + 1) * static_cast<size_t>(devices_per_app));

    // Match diagnosed bugs against the expected list; count offline-missed ones.
    std::set<std::string> diagnosed;
    for (const hangdoctor::BugReportEntry& entry : app_report.SortedEntries()) {
      diagnosed.insert(BugKey(entry.api, entry.file, entry.line));
    }
    int64_t detected = 0;
    int64_t missed_offline = 0;
    int64_t expected_missed = 0;
    for (const workload::BugSpec& bug : expected) {
      if (bug.missed_offline) {
        ++expected_missed;
      }
      if (diagnosed.count(BugKey(bug.api, bug.file, bug.line)) == 0) {
        continue;
      }
      ++detected;
      if (!scanner.Detects(*spec, bug.api)) {
        ++missed_offline;
      }
    }
    total_detected += detected;
    total_missed_offline += missed_offline;
    if (detected > 0) {
      ++buggy_apps;
    }
    std::printf("%-16s %-12s %-16s %-7s %ld (%ld)    %zu (%ld)\n",
                (spec->name + " (" + Downloads(spec->downloads) + ")").c_str(),
                spec->commit.c_str(), spec->category.c_str(),
                expected.empty() ? "-" : catalog.BugsOf(spec->name)[0].issue_id.c_str(),
                static_cast<long>(detected), static_cast<long>(missed_offline),
                expected.size(), static_cast<long>(expected_missed));
    for (const workload::BugSpec& bug : expected) {
      if (diagnosed.count(BugKey(bug.api, bug.file, bug.line)) == 0) {
        std::printf("    !! expected bug not diagnosed: %s@%s:%d\n", bug.api.c_str(),
                    bug.file.c_str(), bug.line);
      }
    }
  }

  std::printf("\nTotal: %ld bugs detected (%ld missed by offline detection, %.0f%%)\n",
              static_cast<long>(total_detected), static_cast<long>(total_missed_offline),
              total_detected > 0 ? 100.0 * static_cast<double>(total_missed_offline) /
                                       static_cast<double>(total_detected)
                                 : 0.0);
  std::printf("paper: 34 bugs detected (23 missed offline, 68%%); %ld/%zu study apps showed "
              "bugs\n",
              static_cast<long>(buggy_apps), study_specs.size());
  std::printf("new blocking APIs discovered by the fleet at runtime: %zu\n\n",
              summary.discovered.size());
  std::printf("%s\n", summary.merged_report.Render(devices_per_app).c_str());

  // --workers=N runs the same study through a coordinator/worker shard group
  // (src/fleetd): the jobs are recorded once, streamed over the wire to N embedded worker
  // daemons, optionally drain-migrated mid-run (--migrate-at=K, percent of frames) or hit
  // with seeded worker faults (--fleet-faults=PROFILE), and the folded fleet report is
  // checked bit-for-bit against the in-process oracle. Opt-in, so the default output stays
  // byte-identical to the goldens.
  {
    const std::string fleet_fault_name(
        simkit::FlagString(argc, argv, "--fleet-faults=").value_or(""));
    if (fleet_workers > 0) {
      workload::DistributedFleetOptions fleet_options;
      fleet_options.workers = fleet_workers;
      fleet_options.migrate_at = migrate_at >= 0.0 ? migrate_at / 100.0 : -1.0;
      if (!fleet_fault_name.empty()) {
        try {
          fleet_options.fleet_faults = faultsim::FleetFaultProfile::Named(fleet_fault_name);
        } catch (const std::invalid_argument& e) {
          std::fprintf(stderr, "%s; known profiles:", e.what());
          for (const std::string& name : faultsim::FleetFaultProfile::KnownProfiles()) {
            std::fprintf(stderr, " %s", name.c_str());
          }
          std::fprintf(stderr, "\n");
          return 2;
        }
        fleet_options.fault_seed = 4242;
      }
      std::string fleet_dir =
          (std::filesystem::temp_directory_path() /
           ("hd_table5_fleet_" + std::to_string(getpid())))
              .string();
      auto fleet_t0 = std::chrono::steady_clock::now();
      workload::FleetSummary fleet_oracle;
      workload::DistributedFleetResult fleet =
          workload::RunDistributedFleet(jobs, fleet_dir, fleet_options, &fleet_oracle);
      double fleet_secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - fleet_t0).count();
      std::filesystem::remove_all(fleet_dir);

      size_t fleet_aborted = 0;
      for (const netd::NetSessionOutcome& outcome : fleet.outcomes) {
        fleet_aborted += outcome.aborted ? 1 : 0;
      }
      std::printf("=== Distributed fleet (--workers=%d) ===\n", fleet_workers);
      std::printf("%zu sessions over %d worker daemon(s), %lld frames routed in %.2f s\n",
                  fleet.outcomes.size(), fleet_workers,
                  static_cast<long long>(fleet.frames_routed), fleet_secs);
      std::printf("migrated %lld, recovered %lld, failovers %lld, aborted %zu\n",
                  static_cast<long long>(fleet.stats.migrated),
                  static_cast<long long>(fleet.stats.recovered),
                  static_cast<long long>(fleet.stats.failovers), fleet_aborted);
      for (const std::string& event : fleet.events) {
        std::printf("  event: %s\n", event.c_str());
      }
      bool identical = fleet.merged.Render(devices_per_app) ==
                       fleet_oracle.merged_report.Render(devices_per_app);
      std::printf("merged report vs in-process oracle: %s\n\n",
                  identical ? "bit-identical" : "MISMATCH");
      if (!identical) {
        return 1;
      }
    }
  }

  if (shared_kb) {
    const hangdoctor::KnowledgeBase::Stats& kb = summary.kb;
    const int64_t probes = kb.memo_hits + kb.memo_misses;
    std::printf("=== Shared knowledge base (--shared-kb) ===\n");
    std::printf("epoch %llu after %ld publish(es): %zu discovered APIs, %zu memo entries\n",
                static_cast<unsigned long long>(kb.epoch),
                static_cast<long>(kb.publishes), kb.discovered, kb.memo_entries);
    std::printf("memo hits %ld / misses %ld (hit rate %.1f%%), known-API hits %ld, "
                "%ld sessions absorbed\n",
                static_cast<long>(kb.memo_hits), static_cast<long>(kb.memo_misses),
                probes > 0 ? 100.0 * static_cast<double>(kb.memo_hits) /
                                 static_cast<double>(probes)
                           : 0.0,
                static_cast<long>(kb.known_hits), static_cast<long>(kb.sessions_absorbed));
    std::printf("\n");
  }

  // Degradation accounting — printed only under --faults so the fault-free output stays
  // byte-identical to the pinned goldens.
  if (faults.enabled()) {
    hangdoctor::DegradationStats total;
    int64_t degraded_jobs = 0;
    int64_t stream_errors = 0;
    int64_t record_failures = 0;
    for (const workload::FleetJobResult& result : summary.jobs) {
      if (!result.ok) {
        continue;
      }
      total.counter_open_failures += result.degradation.counter_open_failures;
      total.counter_retries += result.degradation.counter_retries;
      total.invalid_counter_windows += result.degradation.invalid_counter_windows;
      total.degraded_checks += result.degradation.degraded_checks;
      total.empty_trace_windows += result.degradation.empty_trace_windows;
      total.dropped_records += result.degradation.dropped_records;
      if (result.degradation.Degraded()) {
        ++degraded_jobs;
      }
      if (!result.stream_ok) {
        ++stream_errors;
      }
      if (!result.record_ok) {
        ++record_failures;
      }
    }
    std::printf("=== Fault injection: profile '%s' ===\n", faults.name.c_str());
    std::printf("degraded jobs: %ld/%zu  (stream errors: %ld, torn recordings: %ld)\n",
                static_cast<long>(degraded_jobs), summary.jobs.size(),
                static_cast<long>(stream_errors), static_cast<long>(record_failures));
    std::printf("counter opens failed: %ld  retries: %ld  invalid windows: %ld  degraded "
                "checks: %ld\n",
                static_cast<long>(total.counter_open_failures),
                static_cast<long>(total.counter_retries),
                static_cast<long>(total.invalid_counter_windows),
                static_cast<long>(total.degraded_checks));
    std::printf("empty trace windows: %ld  dropped records: %ld\n",
                static_cast<long>(total.empty_trace_windows),
                static_cast<long>(total.dropped_records));
    for (const workload::FleetJobResult& result : summary.jobs) {
      if (!result.ok || result.degradation.Degraded() || !result.stream_ok ||
          !result.record_ok) {
        std::printf("  %s\n", result.Describe().c_str());
      }
    }
  }

  // --async: the waiting-chain study (DESIGN.md section 3.8). A separate fleet over the
  // async study apps — soft hangs that happen on worker threads behind a future — verifying
  // that every diagnosis names the async culprit frame, never the Future.get frame the
  // main-thread traces show, with the wait site kept as provenance. Opt-in, so the default
  // output above stays byte-identical to the goldens.
  if (async_section) {
    std::vector<workload::FleetJob> async_jobs;
    for (const droidsim::AppSpec* spec : async_specs) {
      for (int32_t device = 0; device < devices_per_app; ++device) {
        workload::FleetJob job;
        job.spec = spec;
        job.profile = droidsim::LgV10();
        job.seed = 5000 + static_cast<uint64_t>(device) * 77 +
                   static_cast<uint64_t>(spec->downloads % 97);
        job.session = session_length;
        job.device_id = device;
        job.known_db = &known_db;
        if (faults.enabled()) {
          job.faults = faults;
        }
        if (!record_dir.empty()) {
          job.record_path = record_dir + "/async_job_" + std::to_string(async_jobs.size()) +
                            ".hdsl";
        }
        async_jobs.push_back(job);
      }
    }
    workload::FleetSummary async_summary;
    if (!replay_dir.empty()) {
      std::vector<std::string> paths;
      paths.reserve(async_jobs.size());
      for (size_t i = 0; i < async_jobs.size(); ++i) {
        paths.push_back(replay_dir + "/async_job_" + std::to_string(i) + ".hdsl");
      }
      async_summary = workload::ReplayFleet(paths, options, &known_db);
    } else {
      async_summary = workload::RunFleet(async_jobs, options);
    }

    std::printf("=== Async study (--async): waiting-chain diagnosis over %zu apps ===\n",
                async_specs.size());
    int64_t async_detected = 0;
    int64_t async_expected = 0;
    int64_t wait_frame_bugs = 0;
    const std::string wait_api = catalog.std_apis().future_get->FullName();
    for (size_t app_index = 0; app_index < async_specs.size(); ++app_index) {
      const droidsim::AppSpec* spec = async_specs[app_index];
      std::vector<workload::BugSpec> expected = catalog.BugsOf(spec->name);
      async_expected += static_cast<int64_t>(expected.size());
      hangdoctor::HangBugReport app_report = async_summary.MergeReports(
          app_index * static_cast<size_t>(devices_per_app),
          (app_index + 1) * static_cast<size_t>(devices_per_app));
      const std::vector<hangdoctor::BugReportEntry> entries = app_report.SortedEntries();
      for (const hangdoctor::BugReportEntry& entry : entries) {
        if (entry.api == wait_api) {
          // A diagnosis pinned on the wait frame means the causal walk failed.
          ++wait_frame_bugs;
          std::printf("  !! %s: wait frame misattributed as culprit: %s@%s:%d\n",
                      spec->name.c_str(), entry.api.c_str(), entry.file.c_str(), entry.line);
        }
      }
      for (const workload::BugSpec& bug : expected) {
        const hangdoctor::BugReportEntry* match = nullptr;
        for (const hangdoctor::BugReportEntry& entry : entries) {
          if (BugKey(entry.api, entry.file, entry.line) == BugKey(bug.api, bug.file, bug.line)) {
            match = &entry;
            break;
          }
        }
        if (match == nullptr) {
          std::printf("  !! %s: expected async bug not diagnosed: %s@%s:%d\n",
                      spec->name.c_str(), bug.api.c_str(), bug.file.c_str(), bug.line);
          continue;
        }
        ++async_detected;
        std::printf("%-12s %s@%s:%d%s\n", spec->name.c_str(), match->api.c_str(),
                    match->file.c_str(), match->line,
                    match->self_developed ? " [self-developed]" : "");
        std::printf("%-12s   via wait %s (hangs: %ld, mean %.0f ms)\n", "",
                    match->wait_site.empty() ? "<missing>" : match->wait_site.c_str(),
                    static_cast<long>(match->occurrences), match->MeanHangMs());
      }
    }
    std::printf("async bugs diagnosed: %ld/%ld, wait-frame misattributions: %ld\n\n",
                static_cast<long>(async_detected), static_cast<long>(async_expected),
                static_cast<long>(wait_frame_bugs));
  }
  return 0;
}

}  // namespace

// A malformed numeric flag value (simkit/flags.h) exits 2, like every other flag error.
int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const simkit::FlagError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
