// Record/replay round-trip tests: a live HangDoctor session taped through SessionLogWriter
// and replayed through ReplaySession must reproduce the detector's observable state
// bit-identically — execution log, action-table transitions, Hang Bug Report, overhead
// accounting, and discovered blocking APIs. Also checks that recording is a passive tap
// (recorded fleets equal unrecorded ones at any worker count) and that the written log
// files themselves are byte-identical across parallelism levels.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/hangdoctor/detector_core.h"
#include "src/hosts/hang_doctor.h"
#include "src/hosts/replay_host.h"
#include "src/hosts/session_log.h"
#include "src/workload/catalog.h"
#include "src/workload/experiment.h"
#include "src/workload/fleet.h"

namespace {

const workload::Catalog& SharedCatalog() {
  static const workload::Catalog* catalog = new workload::Catalog();
  return *catalog;
}

std::string TempPath(const std::string& leaf) {
  std::filesystem::path dir = std::filesystem::temp_directory_path() / "hd_record_replay";
  std::filesystem::create_directories(dir);
  return (dir / leaf).string();
}

// Every observable output of a DetectorCore, flattened to comparable strings.
struct CoreSnapshot {
  std::vector<std::string> log_lines;
  std::vector<std::string> transitions;
  std::string report;
  int64_t overhead_cpu = 0;
  int64_t overhead_bytes = 0;
  int64_t stack_samples = 0;
};

// `symbols` is the table the record's frame ids index.
std::string FormatRecord(const hangdoctor::ExecutionRecord& record,
                         const telemetry::SymbolTable& symbols) {
  std::ostringstream out;
  out << record.execution_id << " uid=" << record.action_uid << " resp=" << record.response
      << " hang=" << record.hang << " before=" << static_cast<int>(record.state_before)
      << " s1=" << record.schecker_ran << " s2=" << record.diagnoser_ran
      << " traced=" << record.traced << " verdict=" << hangdoctor::VerdictName(record.verdict)
      << " traces=" << record.traces.size();
  if (record.diagnosis.valid) {
    const telemetry::StackFrame& culprit = symbols.Frame(record.diagnosis.culprit);
    out << " culprit=" << culprit.clazz << "." << culprit.function << "@" << culprit.file << ":"
        << culprit.line << " occ=" << record.diagnosis.occurrence_factor
        << " ui=" << record.diagnosis.is_ui << " self=" << record.diagnosis.is_self_developed
        << " n=" << record.diagnosis.samples_used;
  }
  for (telemetry::PerfEventType event : telemetry::AllPerfEvents()) {
    out << " " << static_cast<int64_t>(record.SCheckerDiff(event));
  }
  return out.str();
}

CoreSnapshot Snapshot(const hangdoctor::DetectorCore& core, int32_t total_devices) {
  CoreSnapshot snap;
  for (const hangdoctor::ExecutionRecord& record : core.log()) {
    snap.log_lines.push_back(FormatRecord(record, *core.session().symbols));
  }
  for (const hangdoctor::StateTransition& transition : core.actions().transitions()) {
    std::ostringstream out;
    out << transition.time << " uid=" << transition.action_uid << " "
        << static_cast<int>(transition.from) << "->" << static_cast<int>(transition.to) << " "
        << transition.reason;
    snap.transitions.push_back(out.str());
  }
  snap.report = core.local_report().Render(total_devices);
  snap.overhead_cpu = core.overhead().cpu();
  snap.overhead_bytes = core.overhead().memory_bytes();
  snap.stack_samples = core.stack_samples_taken();
  return snap;
}

void ExpectSnapshotsEqual(const CoreSnapshot& live, const CoreSnapshot& replayed,
                          const std::string& label) {
  EXPECT_EQ(live.log_lines, replayed.log_lines) << label;
  EXPECT_EQ(live.transitions, replayed.transitions) << label;
  EXPECT_EQ(live.report, replayed.report) << label;
  EXPECT_EQ(live.overhead_cpu, replayed.overhead_cpu) << label;
  EXPECT_EQ(live.overhead_bytes, replayed.overhead_bytes) << label;
  EXPECT_EQ(live.stack_samples, replayed.stack_samples) << label;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Records a live session for `spec`, replays it, and checks every observable for equality.
void RoundTrip(const droidsim::AppSpec* spec, uint64_t seed,
               const hangdoctor::HangDoctorConfig& config, const std::string& label) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase live_db = catalog.MakeKnownDatabase();
  hangdoctor::BlockingApiDatabase replay_db = catalog.MakeKnownDatabase();
  const std::string path = TempPath(label + ".hdsl");

  workload::SingleAppHarness harness(droidsim::LgV10(), spec, seed);
  hangdoctor::SessionLogWriter writer(path, config);
  ASSERT_TRUE(writer.ok()) << path;
  hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(), config, &live_db,
                                /*fleet_report=*/nullptr, /*device_id=*/3, &writer);
  harness.RunUserSession(simkit::Seconds(45));
  workload::TraceUsage usage = harness.Usage();
  writer.WriteTraceUsage(usage.cpu, usage.bytes);
  writer.Finish();

  CoreSnapshot live = Snapshot(doctor.core(), 4);
  double live_overhead = doctor.overhead().OverheadPercent(usage.cpu, usage.bytes);

  std::string error;
  std::unique_ptr<hangdoctor::ReplaySession> session =
      hangdoctor::ReplaySessionLog(path, &error, &replay_db);
  ASSERT_NE(session, nullptr) << label << ": " << error;
  CoreSnapshot replayed = Snapshot(session->core(), 4);
  ExpectSnapshotsEqual(live, replayed, label);
  EXPECT_EQ(live_db.discovered(), replay_db.discovered()) << label;
  EXPECT_DOUBLE_EQ(session->OverheadPercent(), live_overhead) << label;

  // The replayed header must carry the live session's identity and configuration.
  EXPECT_EQ(session->log().info.app_package, spec->package) << label;
  EXPECT_EQ(session->log().config.main_only, config.main_only) << label;
  EXPECT_EQ(session->log().config.second_phase_only, config.second_phase_only) << label;
}

TEST(RecordReplayTest, EveryStudyAppRoundTripsBitIdentically) {
  const workload::Catalog& catalog = SharedCatalog();
  ASSERT_FALSE(catalog.study_apps().empty());
  uint64_t seed = 2000;
  for (const droidsim::AppSpec* spec : catalog.study_apps()) {
    RoundTrip(spec, seed++, hangdoctor::HangDoctorConfig{}, "study_" + spec->name);
  }
}

// HDSL v4: sessions of the async study apps carry AsyncPost/AsyncRun/AsyncWaitStart/
// AsyncWaitEnd records and thread-tagged samples; the round trip must reproduce the causal
// diagnosis (async culprit, wait-site provenance) bit-identically.
TEST(RecordReplayTest, AsyncStudyAppsRoundTripBitIdentically) {
  const workload::Catalog& catalog = SharedCatalog();
  ASSERT_FALSE(catalog.async_apps().empty());
  uint64_t seed = 5000;
  for (const droidsim::AppSpec* spec : catalog.async_apps()) {
    RoundTrip(spec, seed++, hangdoctor::HangDoctorConfig{}, "async_" + spec->name);
  }
}

// The recorded async logs must actually contain the v4 causal records (a silent fallback to
// the pre-async encoding would also "round-trip").
TEST(RecordReplayTest, AsyncSessionLogsContainCausalRecords) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase db = catalog.MakeKnownDatabase();
  const std::string path = TempPath("async_records.hdsl");
  {
    workload::SingleAppHarness harness(droidsim::LgV10(), catalog.async_apps()[0], 5001);
    hangdoctor::SessionLogWriter writer(path, hangdoctor::HangDoctorConfig{});
    ASSERT_TRUE(writer.ok());
    hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(),
                                  hangdoctor::HangDoctorConfig{}, &db,
                                  /*fleet_report=*/nullptr, /*device_id=*/0, &writer);
    (void)doctor;
    harness.RunUserSession(simkit::Seconds(45));
    writer.Finish();
  }
  hangdoctor::SessionLog log;
  std::string error;
  ASSERT_TRUE(hangdoctor::LoadSessionLog(path, &log, &error)) << error;
  int64_t posts = 0;
  int64_t runs = 0;
  int64_t wait_starts = 0;
  int64_t wait_ends = 0;
  for (const hangdoctor::SessionRecord& record : log.records) {
    switch (record.tag) {
      case hangdoctor::SessionRecordTag::kAsyncPost:
        ++posts;
        break;
      case hangdoctor::SessionRecordTag::kAsyncRun:
        ++runs;
        break;
      case hangdoctor::SessionRecordTag::kAsyncWaitStart:
        ++wait_starts;
        break;
      case hangdoctor::SessionRecordTag::kAsyncWaitEnd:
        ++wait_ends;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(posts, 0);
  EXPECT_EQ(runs, posts * 2);  // every task logs a begin and an end
  EXPECT_GT(wait_starts, 0);
  EXPECT_EQ(wait_starts, wait_ends);
}

TEST(RecordReplayTest, KeepTracesConfigRoundTrips) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::HangDoctorConfig config;
  config.keep_traces = true;
  RoundTrip(catalog.study_apps()[0], 77, config, "keep_traces");
}

TEST(RecordReplayTest, SecondPhaseOnlyConfigRoundTrips) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::HangDoctorConfig config;
  config.second_phase_only = true;
  RoundTrip(catalog.study_apps()[1], 78, config, "second_phase_only");
}

TEST(RecordReplayTest, MainOnlyConfigRoundTrips) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::HangDoctorConfig config;
  config.main_only = true;
  RoundTrip(catalog.study_apps()[2], 79, config, "main_only");
}

// Builds the small fleet used by the parallelism tests: two apps x two devices.
std::vector<workload::FleetJob> SmallFleet(const hangdoctor::BlockingApiDatabase* known_db) {
  const workload::Catalog& catalog = SharedCatalog();
  std::vector<workload::FleetJob> jobs;
  for (size_t app = 0; app < 2; ++app) {
    for (int32_t device = 0; device < 2; ++device) {
      workload::FleetJob job;
      job.spec = catalog.study_apps()[app];
      job.profile = droidsim::LgV10();
      job.seed = workload::FleetSeed(42, jobs.size());
      job.session = simkit::Seconds(30);
      job.device_id = device;
      job.known_db = known_db;
      jobs.push_back(job);
    }
  }
  return jobs;
}

void ExpectSummariesEqual(const workload::FleetSummary& a, const workload::FleetSummary& b,
                          const std::string& label) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << label;
  EXPECT_EQ(a.failed, b.failed) << label;
  EXPECT_EQ(a.merged_report.Render(4), b.merged_report.Render(4)) << label;
  EXPECT_EQ(a.discovered, b.discovered) << label;
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].report.Render(4), b.jobs[i].report.Render(4)) << label << " job " << i;
    EXPECT_EQ(a.jobs[i].stack_samples, b.jobs[i].stack_samples) << label << " job " << i;
  }
}

TEST(RecordReplayTest, RecordingIsAPassiveTapAtAnyParallelism) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();

  std::vector<workload::FleetJob> plain = SmallFleet(&known_db);
  std::vector<workload::FleetJob> recorded_serial = SmallFleet(&known_db);
  std::vector<workload::FleetJob> recorded_parallel = SmallFleet(&known_db);
  const std::string dir_serial = TempPath("fleet_serial");
  const std::string dir_parallel = TempPath("fleet_parallel");
  std::filesystem::create_directories(dir_serial);
  std::filesystem::create_directories(dir_parallel);
  for (size_t i = 0; i < plain.size(); ++i) {
    recorded_serial[i].record_path = dir_serial + "/job_" + std::to_string(i) + ".hdsl";
    recorded_parallel[i].record_path = dir_parallel + "/job_" + std::to_string(i) + ".hdsl";
  }

  workload::FleetSummary baseline = workload::RunFleet(plain, {.jobs = 1});
  workload::FleetSummary serial = workload::RunFleet(recorded_serial, {.jobs = 1});
  workload::FleetSummary parallel = workload::RunFleet(recorded_parallel, {.jobs = 4});
  ASSERT_EQ(baseline.failed, 0u);

  ExpectSummariesEqual(baseline, serial, "recorded serial vs plain");
  ExpectSummariesEqual(baseline, parallel, "recorded parallel vs plain");

  // The session logs themselves are byte-identical regardless of the worker count.
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(FileBytes(recorded_serial[i].record_path),
              FileBytes(recorded_parallel[i].record_path))
        << "job " << i;
  }

  // Replaying the recorded fleet reproduces reports, discoveries, and overhead.
  std::vector<std::string> paths;
  for (const workload::FleetJob& job : recorded_serial) {
    paths.push_back(job.record_path);
  }
  workload::FleetSummary replayed = workload::ReplayFleet(paths, {.jobs = 2}, &known_db);
  ExpectSummariesEqual(baseline, replayed, "replayed vs plain");
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_DOUBLE_EQ(replayed.jobs[i].overhead_pct, baseline.jobs[i].overhead_pct)
        << "job " << i;
  }
}

TEST(RecordReplayTest, ReplayOfMissingLogFailsThatJobOnly) {
  std::vector<std::string> paths = {TempPath("does_not_exist.hdsl")};
  workload::FleetSummary summary = workload::ReplayFleet(paths, {.jobs = 1});
  ASSERT_EQ(summary.jobs.size(), 1u);
  EXPECT_FALSE(summary.jobs[0].ok);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_NE(summary.jobs[0].error.find("does_not_exist"), std::string::npos);
}

TEST(RecordReplayTest, TruncatedLogIsRejectedWithError) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase db = catalog.MakeKnownDatabase();
  const std::string path = TempPath("truncate_me.hdsl");
  {
    workload::SingleAppHarness harness(droidsim::LgV10(), catalog.study_apps()[0], 5);
    hangdoctor::SessionLogWriter writer(path, hangdoctor::HangDoctorConfig{});
    ASSERT_TRUE(writer.ok());
    hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(),
                                  hangdoctor::HangDoctorConfig{}, &db,
                                  /*fleet_report=*/nullptr, /*device_id=*/0, &writer);
    (void)doctor;
    harness.RunUserSession(simkit::Seconds(10));
    writer.Finish();
  }
  std::string bytes = FileBytes(path);
  ASSERT_GT(bytes.size(), 8u);
  const std::string cut = TempPath("truncated.hdsl");
  {
    std::ofstream out(cut, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  std::string error;
  EXPECT_EQ(hangdoctor::ReplaySessionLog(cut, &error), nullptr);
  EXPECT_FALSE(error.empty());

  std::string garbage = TempPath("garbage.hdsl");
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "not a session log";
  }
  error.clear();
  EXPECT_EQ(hangdoctor::ReplaySessionLog(garbage, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

}  // namespace
