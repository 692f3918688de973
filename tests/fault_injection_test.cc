// Fault-injection and graceful-degradation tests (src/faultsim + the DetectorCore
// degradation policy). Covers: every named fault profile across all study apps, bit-identity
// of no-fault plans with plan-less runs, determinism of degraded fleets at any worker count,
// bit-identical record/replay of faulty sessions, the degraded flag on reports produced
// without counters, torn-log surfacing, the session-log writer's sticky failure state, and
// DetectorCore's construction-time SessionInfo validation.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/faultsim/fault_injector.h"
#include "src/faultsim/fault_plan.h"
#include "src/hangdoctor/detector_core.h"
#include "src/hangdoctor/stream_guard.h"
#include "src/hosts/hang_doctor.h"
#include "src/hosts/replay_host.h"
#include "src/hosts/session_log.h"
#include "src/telemetry/symbols.h"
#include "src/workload/catalog.h"
#include "src/workload/experiment.h"
#include "src/workload/fleet.h"

namespace {

const workload::Catalog& SharedCatalog() {
  static const workload::Catalog* catalog = new workload::Catalog();
  return *catalog;
}

std::string TempPath(const std::string& leaf) {
  std::filesystem::path dir = std::filesystem::temp_directory_path() / "hd_fault_injection";
  std::filesystem::create_directories(dir);
  return (dir / leaf).string();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// One fleet job per study app under `profile`, sized for a quick integration run.
std::vector<workload::FleetJob> StudyFleet(const faultsim::FaultProfile& profile,
                                           const hangdoctor::BlockingApiDatabase* known_db,
                                           simkit::SimDuration session = simkit::Seconds(30)) {
  const workload::Catalog& catalog = SharedCatalog();
  std::vector<workload::FleetJob> jobs;
  for (const droidsim::AppSpec* spec : catalog.study_apps()) {
    workload::FleetJob job;
    job.spec = spec;
    job.profile = droidsim::LgV10();
    job.seed = workload::FleetSeed(4242, jobs.size());
    job.session = session;
    job.device_id = static_cast<int32_t>(jobs.size());
    job.known_db = known_db;
    job.faults = profile;
    jobs.push_back(job);
  }
  return jobs;
}

hangdoctor::DegradationStats SumDegradation(const workload::FleetSummary& summary) {
  hangdoctor::DegradationStats total;
  for (const workload::FleetJobResult& result : summary.jobs) {
    total.counter_open_failures += result.degradation.counter_open_failures;
    total.counter_retries += result.degradation.counter_retries;
    total.invalid_counter_windows += result.degradation.invalid_counter_windows;
    total.degraded_checks += result.degradation.degraded_checks;
    total.empty_trace_windows += result.degradation.empty_trace_windows;
    total.dropped_records += result.degradation.dropped_records;
    total.counters_unavailable = total.counters_unavailable ||
                                 result.degradation.counters_unavailable;
  }
  return total;
}

void ExpectJobsEqual(const workload::FleetSummary& a, const workload::FleetSummary& b,
                     const std::string& label) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << label;
  EXPECT_EQ(a.failed, b.failed) << label;
  EXPECT_EQ(a.merged_report.Render(4), b.merged_report.Render(4)) << label;
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    const workload::FleetJobResult& x = a.jobs[i];
    const workload::FleetJobResult& y = b.jobs[i];
    EXPECT_EQ(x.report.Render(4), y.report.Render(4)) << label << " job " << i;
    EXPECT_EQ(x.stack_samples, y.stack_samples) << label << " job " << i;
    EXPECT_DOUBLE_EQ(x.overhead_pct, y.overhead_pct) << label << " job " << i;
    EXPECT_EQ(x.stream_ok, y.stream_ok) << label << " job " << i;
    EXPECT_EQ(x.stream_error, y.stream_error) << label << " job " << i;
    EXPECT_EQ(x.degradation.counter_open_failures, y.degradation.counter_open_failures)
        << label << " job " << i;
    EXPECT_EQ(x.degradation.counter_retries, y.degradation.counter_retries)
        << label << " job " << i;
    EXPECT_EQ(x.degradation.invalid_counter_windows, y.degradation.invalid_counter_windows)
        << label << " job " << i;
    EXPECT_EQ(x.degradation.degraded_checks, y.degradation.degraded_checks)
        << label << " job " << i;
    EXPECT_EQ(x.degradation.empty_trace_windows, y.degradation.empty_trace_windows)
        << label << " job " << i;
    EXPECT_EQ(x.degradation.dropped_records, y.degradation.dropped_records)
        << label << " job " << i;
    EXPECT_EQ(x.degradation.counters_unavailable, y.degradation.counters_unavailable)
        << label << " job " << i;
  }
}

TEST(FaultPlanTest, NamedProfilesRoundTripAndUnknownThrows) {
  std::vector<std::string> names = faultsim::FaultProfile::KnownProfiles();
  ASSERT_EQ(names.size(), 7u);
  for (const std::string& name : names) {
    faultsim::FaultProfile profile = faultsim::FaultProfile::Named(name);
    EXPECT_EQ(profile.name, name);
    EXPECT_EQ(profile.enabled(), name != "none") << name;
  }
  EXPECT_THROW(faultsim::FaultProfile::Named("bogus"), std::invalid_argument);
  EXPECT_FALSE(faultsim::FaultProfile{}.enabled());
}

TEST(FaultPlanTest, DecisionStreamsAreAPureFunctionOfProfileAndSeed) {
  faultsim::FaultProfile chaos = faultsim::FaultProfile::Named("chaos");
  faultsim::FaultPlan a(chaos, 99);
  faultsim::FaultPlan b(chaos, 99);
  faultsim::FaultPlan other(chaos, 100);
  bool any_difference = false;
  for (int i = 0; i < 512; ++i) {
    EXPECT_EQ(a.NextCounterOpen(), b.NextCounterOpen());
    EXPECT_EQ(a.NextCounterReadInvalid(), b.NextCounterReadInvalid());
    EXPECT_EQ(a.NextWindowFate(), b.NextWindowFate());
    EXPECT_EQ(a.NextSampleDrop(), b.NextSampleDrop());
    faultsim::FaultPlan::RecordFate fate = a.NextRecordFate();
    EXPECT_EQ(fate, b.NextRecordFate());
    if (fate != other.NextRecordFate()) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference) << "different seeds should draw different fault sequences";
}

TEST(FaultPlanTest, PermanentCounterFailureIsSticky) {
  faultsim::FaultProfile profile = faultsim::FaultProfile::Named("no-counters");
  faultsim::FaultPlan plan(profile, 7);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(plan.NextCounterOpen(), faultsim::FaultPlan::CounterOpen::kPermanentFailure);
  }
}

// Logs every record a FaultInjector hands on as "<who> <kind> <execution id>", where `who`
// is "core" for the backend and "sink" for the recorder; the execution id names the push.
class EventLog {
 public:
  void Add(const char* who, const char* kind, int64_t execution_id) {
    events.push_back(std::string(who) + " " + kind + " " + std::to_string(execution_id));
  }
  std::vector<std::string> events;
};

class LoggingCore final : public hangdoctor::SpiBackend {
 public:
  explicit LoggingCore(EventLog* log) : log_(log) {}
  hangdoctor::MonitorDirectives OnDispatchStart(const hangdoctor::DispatchStart& r) override {
    log_->Add("core", "start", r.execution_id);
    return {.start_counters = true, .arm_hang_check = true};
  }
  void OnDispatchEnd(const hangdoctor::DispatchEnd& r) override {
    log_->Add("core", "end", r.execution_id);
    end_samples = r.samples;
  }
  void OnActionQuiesced(const hangdoctor::ActionQuiesce& r) override {
    log_->Add("core", "quiesce", r.execution_id);
  }
  void OnCounterFault(const hangdoctor::CounterFault& r) override {
    log_->Add("core", "fault", r.execution_id);
  }
  void OnAsyncPost(const hangdoctor::AsyncPost& r) override {
    log_->Add("core", "post", r.execution_id);
  }
  void OnAsyncRun(const hangdoctor::AsyncRun& r) override {
    log_->Add("core", "run", r.execution_id);
  }
  void OnAsyncWaitStart(const hangdoctor::AsyncWaitStart& r) override {
    log_->Add("core", "wait_start", r.execution_id);
  }
  void OnAsyncWaitEnd(const hangdoctor::AsyncWaitEnd& r) override {
    log_->Add("core", "wait_end", r.execution_id);
  }

  std::span<const telemetry::StackTrace> end_samples;  // as the core received them

 private:
  EventLog* log_;
};

class LoggingSink final : public hangdoctor::TelemetrySink {
 public:
  explicit LoggingSink(EventLog* log) : log_(log) {}
  void OnSessionStart(const hangdoctor::SessionInfo&) override {}
  void OnDispatchStart(const hangdoctor::DispatchStart& r) override {
    log_->Add("sink", "start", r.execution_id);
  }
  void OnDispatchEnd(const hangdoctor::DispatchEnd& r) override {
    log_->Add("sink", "end", r.execution_id);
  }
  void OnActionQuiesce(const hangdoctor::ActionQuiesce& r) override {
    log_->Add("sink", "quiesce", r.execution_id);
  }
  void OnCounterFault(const hangdoctor::CounterFault& r) override {
    log_->Add("sink", "fault", r.execution_id);
  }
  void OnAsyncPost(const hangdoctor::AsyncPost& r) override {
    log_->Add("sink", "post", r.execution_id);
  }
  void OnAsyncRun(const hangdoctor::AsyncRun& r) override {
    log_->Add("sink", "run", r.execution_id);
  }
  void OnAsyncWaitStart(const hangdoctor::AsyncWaitStart& r) override {
    log_->Add("sink", "wait_start", r.execution_id);
  }
  void OnAsyncWaitEnd(const hangdoctor::AsyncWaitEnd& r) override {
    log_->Add("sink", "wait_end", r.execution_id);
  }

 private:
  EventLog* log_;
};

// The live host pushes every record through its FaultInjector, so under the default plan the
// injector must be a pure passthrough: each of the eight record kinds exactly once, in push
// order, sink before core, directives back from the core, samples not copied.
TEST(FaultInjectionTest, DefaultPlanForwardsEveryRecordKindOnceInPushOrder) {
  EventLog log;
  LoggingCore core(&log);
  LoggingSink sink(&log);
  faultsim::FaultInjector injector(faultsim::FaultPlan{}, &core, &sink);
  ASSERT_FALSE(injector.plan().enabled());

  const std::vector<telemetry::StackTrace> samples(3);
  hangdoctor::MonitorDirectives directives = injector.PushStart({.execution_id = 1});
  EXPECT_TRUE(directives.start_counters);
  EXPECT_TRUE(directives.arm_hang_check);
  injector.PushEnd({.execution_id = 2, .trace_stopped = true, .samples = samples});
  injector.PushQuiesce({.execution_id = 3});
  injector.PushCounterFault({.execution_id = 4});
  injector.PushAsyncPost({.execution_id = 5, .edge = {}});
  injector.PushAsyncRun({.execution_id = 6, .edge = {}});
  injector.PushAsyncWaitStart({.execution_id = 7, .edge = {}});
  injector.PushAsyncWaitEnd({.execution_id = 8, .edge = {}});

  const std::vector<std::string> want = {
      "sink start 1",      "core start 1",      "sink end 2",      "core end 2",
      "sink quiesce 3",    "core quiesce 3",    "sink fault 4",    "core fault 4",
      "sink post 5",       "core post 5",       "sink run 6",      "core run 6",
      "sink wait_start 7", "core wait_start 7", "sink wait_end 8", "core wait_end 8"};
  EXPECT_EQ(log.events, want);
  EXPECT_EQ(core.end_samples.data(), samples.data());
  EXPECT_EQ(core.end_samples.size(), samples.size());
  EXPECT_EQ(injector.NextCounterOpen(), faultsim::FaultPlan::CounterOpen::kOk);
  EXPECT_FALSE(injector.NextCounterReadInvalid());
}

TEST(FaultInjectionTest, NoFaultPlanIsByteIdenticalToPlanlessRun) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();

  workload::FleetJob plain;
  plain.spec = catalog.study_apps()[0];
  plain.profile = droidsim::LgV10();
  plain.seed = workload::FleetSeed(11, 0);
  plain.session = simkit::Seconds(30);
  plain.known_db = &known_db;
  plain.record_path = TempPath("planless.hdsl");

  workload::FleetJob with_none = plain;
  with_none.faults = faultsim::FaultProfile::Named("none");
  with_none.record_path = TempPath("none_profile.hdsl");

  workload::FleetJobResult a = workload::RunFleetJob(plain);
  workload::FleetJobResult b = workload::RunFleetJob(with_none);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_TRUE(a.record_ok);
  EXPECT_TRUE(b.record_ok);
  EXPECT_EQ(a.report.Render(4), b.report.Render(4));
  EXPECT_EQ(a.stack_samples, b.stack_samples);
  EXPECT_DOUBLE_EQ(a.overhead_pct, b.overhead_pct);
  EXPECT_FALSE(a.degradation.Degraded());
  EXPECT_FALSE(b.degradation.Degraded());
  EXPECT_EQ(FileBytes(plain.record_path), FileBytes(with_none.record_path));
}

TEST(FaultInjectionTest, EveryProfileRunsEveryStudyAppToCompletion) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();
  for (const std::string& name : faultsim::FaultProfile::KnownProfiles()) {
    faultsim::FaultProfile profile = faultsim::FaultProfile::Named(name);
    std::vector<workload::FleetJob> jobs = StudyFleet(profile, &known_db);
    workload::FleetSummary summary = workload::RunFleet(jobs, {.jobs = 4});
    ASSERT_EQ(summary.failed, 0u) << name;
    hangdoctor::DegradationStats total = SumDegradation(summary);

    if (name == "none" || name == "torn-log") {
      // torn-log only bites when a recorder is attached (none here); detection is clean.
      EXPECT_EQ(total.counter_open_failures, 0) << name;
      EXPECT_EQ(total.dropped_records, 0) << name;
      EXPECT_FALSE(total.counters_unavailable) << name;
    }
    if (name == "flaky-counters") {
      EXPECT_GT(total.counter_open_failures, 0) << name;
      EXPECT_GT(total.counter_retries, 0) << name;
    }
    if (name == "no-counters") {
      for (size_t i = 0; i < summary.jobs.size(); ++i) {
        EXPECT_TRUE(summary.jobs[i].degradation.counters_unavailable) << name << " job " << i;
        EXPECT_GT(summary.jobs[i].degradation.counter_open_failures, 0)
            << name << " job " << i;
      }
    }
    if (name == "lossy-sampler") {
      EXPECT_GT(total.empty_trace_windows, 0) << name;
    }
    if (name == "reorder") {
      bool stream_tripped = false;
      for (const workload::FleetJobResult& result : summary.jobs) {
        if (!result.stream_ok) {
          stream_tripped = true;
        }
      }
      EXPECT_TRUE(total.dropped_records > 0 || stream_tripped) << name;
    }
    if (name == "chaos") {
      EXPECT_TRUE(total.Degraded()) << name;
    }
  }
}

TEST(FaultInjectionTest, DegradedFleetIsDeterministicAtAnyParallelism) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();
  faultsim::FaultProfile chaos = faultsim::FaultProfile::Named("chaos");

  std::vector<workload::FleetJob> serial_jobs = StudyFleet(chaos, &known_db);
  std::vector<workload::FleetJob> parallel_jobs = StudyFleet(chaos, &known_db);
  workload::FleetSummary serial = workload::RunFleet(serial_jobs, {.jobs = 1});
  workload::FleetSummary parallel = workload::RunFleet(parallel_jobs, {.jobs = 4});
  ASSERT_EQ(serial.failed, 0u);
  ExpectJobsEqual(serial, parallel, "chaos jobs=1 vs jobs=4");
  EXPECT_TRUE(SumDegradation(serial).Degraded());
}

TEST(FaultInjectionTest, FaultySessionsRecordAndReplayBitIdentically) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();
  // flaky-counters and reorder both write tagged fault evidence into the log (CounterFault
  // records; duplicated/regressed records); neither tears the log itself.
  for (const std::string& name : {std::string("flaky-counters"), std::string("reorder")}) {
    faultsim::FaultProfile profile = faultsim::FaultProfile::Named(name);
    std::vector<workload::FleetJob> serial_jobs = StudyFleet(profile, &known_db);
    std::vector<workload::FleetJob> parallel_jobs = StudyFleet(profile, &known_db);
    serial_jobs.resize(4);
    parallel_jobs.resize(4);
    for (size_t i = 0; i < serial_jobs.size(); ++i) {
      serial_jobs[i].record_path = TempPath(name + "_serial_" + std::to_string(i) + ".hdsl");
      parallel_jobs[i].record_path =
          TempPath(name + "_parallel_" + std::to_string(i) + ".hdsl");
    }
    workload::FleetSummary serial = workload::RunFleet(serial_jobs, {.jobs = 1});
    workload::FleetSummary parallel = workload::RunFleet(parallel_jobs, {.jobs = 4});
    ASSERT_EQ(serial.failed, 0u) << name;
    ExpectJobsEqual(serial, parallel, name + " recorded");
    for (size_t i = 0; i < serial_jobs.size(); ++i) {
      EXPECT_TRUE(serial.jobs[i].record_ok) << name << " job " << i;
      EXPECT_EQ(FileBytes(serial_jobs[i].record_path),
                FileBytes(parallel_jobs[i].record_path))
          << name << " job " << i;
    }

    // Offline replay of the faulty logs reproduces every degraded observable.
    std::vector<std::string> paths;
    for (const workload::FleetJob& job : serial_jobs) {
      paths.push_back(job.record_path);
    }
    workload::FleetSummary replayed = workload::ReplayFleet(paths, {.jobs = 2}, &known_db);
    ASSERT_EQ(replayed.failed, 0u) << name;
    for (size_t i = 0; i < paths.size(); ++i) {
      const workload::FleetJobResult& live = serial.jobs[i];
      const workload::FleetJobResult& replay = replayed.jobs[i];
      EXPECT_EQ(live.report.Render(4), replay.report.Render(4)) << name << " job " << i;
      EXPECT_EQ(live.stack_samples, replay.stack_samples) << name << " job " << i;
      EXPECT_DOUBLE_EQ(live.overhead_pct, replay.overhead_pct) << name << " job " << i;
      EXPECT_EQ(live.stream_ok, replay.stream_ok) << name << " job " << i;
      EXPECT_EQ(live.stream_error, replay.stream_error) << name << " job " << i;
      EXPECT_EQ(live.degradation.counter_open_failures,
                replay.degradation.counter_open_failures)
          << name << " job " << i;
      EXPECT_EQ(live.degradation.counters_unavailable,
                replay.degradation.counters_unavailable)
          << name << " job " << i;
      EXPECT_EQ(live.degradation.dropped_records, replay.degradation.dropped_records)
          << name << " job " << i;
    }
  }
}

TEST(FaultInjectionTest, NoCountersRunsFlagEveryDiagnosedBugDegraded) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();
  std::vector<workload::FleetJob> jobs =
      StudyFleet(faultsim::FaultProfile::Named("no-counters"), &known_db,
                 simkit::Seconds(45));
  workload::FleetSummary summary = workload::RunFleet(jobs, {.jobs = 4});
  ASSERT_EQ(summary.failed, 0u);

  std::vector<hangdoctor::BugReportEntry> entries = summary.merged_report.SortedEntries();
  ASSERT_FALSE(entries.empty()) << "study apps should still diagnose bugs without counters";
  for (const hangdoctor::BugReportEntry& entry : entries) {
    EXPECT_TRUE(entry.degraded) << entry.api << "@" << entry.file << ":" << entry.line;
  }
  EXPECT_NE(summary.merged_report.Render(4).find("[degraded]"), std::string::npos);
}

TEST(FaultInjectionTest, TornLogSurfacesRecordFailureWithoutFailingTheJob) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();

  workload::FleetJob job;
  job.spec = catalog.study_apps()[0];
  job.profile = droidsim::LgV10();
  job.seed = workload::FleetSeed(17, 0);
  job.session = simkit::Seconds(30);
  job.known_db = &known_db;
  job.faults = faultsim::FaultProfile::Named("torn-log");
  job.record_path = TempPath("torn.hdsl");

  workload::FleetJobResult result = workload::RunFleetJob(job);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.record_ok);
  EXPECT_NE(result.record_error.find("torn.hdsl"), std::string::npos);
  // Detection itself was untouched: a plan-less run of the same job matches.
  workload::FleetJob clean = job;
  clean.faults = faultsim::FaultProfile{};
  clean.record_path.clear();
  workload::FleetJobResult baseline = workload::RunFleetJob(clean);
  EXPECT_EQ(result.report.Render(4), baseline.report.Render(4));

  // The torn file is at most the injected budget and the reader rejects it cleanly.
  EXPECT_LE(std::filesystem::file_size(job.record_path),
            static_cast<uintmax_t>(job.faults.hdsl_fail_after));
  std::string error;
  EXPECT_EQ(hangdoctor::ReplaySessionLog(job.record_path, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(SessionLogWriterTest, ShortWriteIsStickyAndUnopenablePathFailsFast) {
  const std::string path = TempPath("sticky.hdsl");
  {
    hangdoctor::SessionLogWriter writer(path, hangdoctor::HangDoctorConfig{});
    ASSERT_TRUE(writer.ok());
    writer.SetFailAfter(2);
    writer.WriteTraceUsage(1000, 2000);  // needs more than 2 bytes
    EXPECT_FALSE(writer.ok());
    int64_t written = writer.bytes_written();
    EXPECT_LE(written, 2);
    // Every later write is swallowed and the flag never un-sets.
    writer.WriteTraceUsage(1, 2);
    EXPECT_FALSE(writer.ok());
    EXPECT_EQ(writer.bytes_written(), written);
    writer.Finish();
    EXPECT_FALSE(writer.ok());
  }
  hangdoctor::SessionLogWriter bad("/nonexistent_dir_hd/fault.hdsl",
                                   hangdoctor::HangDoctorConfig{});
  EXPECT_FALSE(bad.ok());
  bad.WriteTraceUsage(1, 2);  // must be a safe no-op
  EXPECT_FALSE(bad.ok());
}

TEST(DetectorCoreValidationTest, ConstructionRejectsInvalidSessionInfo) {
  telemetry::SymbolTable symbols;
  hangdoctor::SessionInfo null_symbols;
  null_symbols.app_package = "com.example";
  null_symbols.num_actions = 4;
  null_symbols.symbols = nullptr;
  EXPECT_THROW(hangdoctor::DetectorCore(null_symbols, hangdoctor::HangDoctorConfig{}),
               std::invalid_argument);

  hangdoctor::SessionInfo zero_actions;
  zero_actions.app_package = "com.example";
  zero_actions.num_actions = 0;
  zero_actions.symbols = &symbols;
  EXPECT_THROW(hangdoctor::DetectorCore(zero_actions, hangdoctor::HangDoctorConfig{}),
               std::invalid_argument);

  hangdoctor::SessionInfo negative_actions = zero_actions;
  negative_actions.num_actions = -3;
  EXPECT_THROW(hangdoctor::DetectorCore(negative_actions, hangdoctor::HangDoctorConfig{}),
               std::invalid_argument);

  hangdoctor::SessionInfo valid = zero_actions;
  valid.num_actions = 2;
  EXPECT_NO_THROW(hangdoctor::DetectorCore(valid, hangdoctor::HangDoctorConfig{}));
}

}  // namespace
