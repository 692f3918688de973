// DetectorService equivalence tests. The tentpole contract: a fleet run through one
// session-multiplexed DetectorService produces results bit-identical to the per-job oracle
// path (one private DetectorCore per job) — for every study app, at any shard count, at any
// worker count. Plus direct service-surface tests: session lifecycle errors, Discard,
// live-session accounting, and the ascending-id merge order.
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/hangdoctor/detector_service.h"
#include "src/hangdoctor/session_stream.h"
#include "src/hosts/hang_doctor.h"
#include "src/workload/catalog.h"
#include "src/workload/experiment.h"
#include "src/workload/fleet.h"

namespace {

const workload::Catalog& SharedCatalog() {
  static const workload::Catalog* catalog = new workload::Catalog();
  return *catalog;
}

// One job per study app — all 16 — on one device each.
std::vector<workload::FleetJob> StudyFleet(const hangdoctor::BlockingApiDatabase* known_db) {
  const workload::Catalog& catalog = SharedCatalog();
  std::vector<workload::FleetJob> jobs;
  for (const droidsim::AppSpec* spec : catalog.study_apps()) {
    workload::FleetJob job;
    job.spec = spec;
    job.profile = droidsim::LgV10();
    job.seed = workload::FleetSeed(4242, jobs.size());
    job.session = simkit::Seconds(30);
    job.device_id = static_cast<int32_t>(jobs.size() % 4);
    job.known_db = known_db;
    jobs.push_back(job);
  }
  return jobs;
}

void ExpectStatsEqual(const workload::DetectionStats& a, const workload::DetectionStats& b,
                      const std::string& label) {
  EXPECT_EQ(a.true_positives, b.true_positives) << label;
  EXPECT_EQ(a.false_positives, b.false_positives) << label;
  EXPECT_EQ(a.false_negatives, b.false_negatives) << label;
  EXPECT_EQ(a.bug_hangs, b.bug_hangs) << label;
  EXPECT_EQ(a.ui_hangs, b.ui_hangs) << label;
  EXPECT_DOUBLE_EQ(a.overhead_pct, b.overhead_pct) << label;
}

// Full bit-for-bit comparison of a service-mode summary against the oracle summary.
void ExpectSummariesEqual(const workload::FleetSummary& oracle,
                          const workload::FleetSummary& service, const std::string& label) {
  ASSERT_EQ(oracle.jobs.size(), service.jobs.size()) << label;
  EXPECT_EQ(oracle.failed, service.failed) << label;
  ExpectStatsEqual(oracle.merged_stats, service.merged_stats, label + " merged_stats");
  EXPECT_EQ(oracle.merged_report.Render(4), service.merged_report.Render(4)) << label;
  EXPECT_EQ(oracle.discovered, service.discovered) << label;
  for (size_t i = 0; i < oracle.jobs.size(); ++i) {
    const workload::FleetJobResult& a = oracle.jobs[i];
    const workload::FleetJobResult& b = service.jobs[i];
    const std::string job_label = label + " job " + std::to_string(i);
    EXPECT_EQ(a.ok, b.ok) << job_label;
    EXPECT_EQ(a.app_package, b.app_package) << job_label;
    EXPECT_EQ(a.device_id, b.device_id) << job_label;
    EXPECT_EQ(a.seed, b.seed) << job_label;
    ExpectStatsEqual(a.stats, b.stats, job_label + " stats");
    EXPECT_EQ(a.report.Render(4), b.report.Render(4)) << job_label;
    EXPECT_EQ(a.discovered, b.discovered) << job_label;
    EXPECT_DOUBLE_EQ(a.overhead_pct, b.overhead_pct) << job_label;
    EXPECT_EQ(a.stack_samples, b.stack_samples) << job_label;
    EXPECT_EQ(a.stream_ok, b.stream_ok) << job_label;
    EXPECT_EQ(a.Describe(), b.Describe()) << job_label;
  }
}

TEST(DetectorServiceTest, ServiceFleetMatchesPerJobOracleForEveryStudyApp) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();
  ASSERT_EQ(catalog.study_apps().size(), 16u);

  std::vector<workload::FleetJob> jobs = StudyFleet(&known_db);
  workload::FleetOptions oracle_options;
  oracle_options.jobs = 2;
  oracle_options.service = false;
  workload::FleetSummary oracle = workload::RunFleet(jobs, oracle_options);
  ASSERT_EQ(oracle.failed, 0u);

  for (int32_t shards : {1, 4, 7}) {
    workload::FleetOptions options;
    options.jobs = 2;
    options.service = true;
    options.shards = shards;
    workload::FleetSummary service = workload::RunFleet(jobs, options);
    ExpectSummariesEqual(oracle, service, "shards=" + std::to_string(shards));
  }
}

TEST(DetectorServiceTest, ServiceResultsIndependentOfWorkerCount) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();
  std::vector<workload::FleetJob> jobs = StudyFleet(&known_db);

  workload::FleetOptions serial;
  serial.jobs = 1;
  serial.shards = 3;
  workload::FleetSummary baseline = workload::RunFleet(jobs, serial);

  workload::FleetOptions wide;
  wide.jobs = 8;
  wide.shards = 3;
  workload::FleetSummary parallel = workload::RunFleet(jobs, wide);
  ExpectSummariesEqual(baseline, parallel, "jobs=8 vs jobs=1");
}

TEST(DetectorServiceTest, DescribeNamesIdentityAndHealth) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();
  std::vector<workload::FleetJob> jobs = StudyFleet(&known_db);
  jobs.resize(1);
  workload::FleetSummary summary = workload::RunFleet(jobs, {.jobs = 1});
  ASSERT_EQ(summary.jobs.size(), 1u);
  const workload::FleetJobResult& result = summary.jobs[0];
  EXPECT_EQ(result.app_package, jobs[0].spec->package);
  EXPECT_EQ(result.device_id, jobs[0].device_id);
  EXPECT_EQ(result.seed, jobs[0].seed);
  std::string line = result.Describe();
  EXPECT_NE(line.find(jobs[0].spec->package), std::string::npos) << line;
  EXPECT_NE(line.find("device 0"), std::string::npos) << line;
  EXPECT_NE(line.find("seed " + std::to_string(jobs[0].seed)), std::string::npos) << line;
  EXPECT_NE(line.find(" ok"), std::string::npos) << line;
}

// Direct service-surface tests (no fleet): lifecycle errors and accounting.

hangdoctor::SessionInfo TestInfo(const telemetry::SymbolTable* symbols) {
  hangdoctor::SessionInfo info;
  info.app_package = "com.example.session";
  info.num_actions = 4;
  info.symbols = symbols;
  return info;
}

TEST(DetectorServiceTest, LifecycleErrorsThrow) {
  telemetry::SymbolTable symbols;
  hangdoctor::DetectorService service(hangdoctor::ServiceOptions{4});
  hangdoctor::HangDoctorConfig config;
  telemetry::SessionId id{11};

  service.Open(id, TestInfo(&symbols), config);
  EXPECT_THROW(service.Open(id, TestInfo(&symbols), config), std::invalid_argument);

  hangdoctor::DispatchStart start;
  start.execution_id = 1;
  start.action_uid = 0;
  EXPECT_THROW(service.OnDispatchStart(telemetry::SessionId{99}, start),
               std::invalid_argument);
  EXPECT_THROW(service.Close(telemetry::SessionId{99}), std::invalid_argument);

  EXPECT_EQ(service.live_sessions(), 1u);
  hangdoctor::SessionResult result = service.Close(id);
  EXPECT_EQ(result.app_package, "com.example.session");
  EXPECT_EQ(service.live_sessions(), 0u);
  // Closed means gone: records for the id are unroutable and a re-close throws.
  EXPECT_THROW(service.OnDispatchStart(id, start), std::invalid_argument);
  EXPECT_THROW(service.Close(id), std::invalid_argument);
}

TEST(DetectorServiceTest, DiscardIsIdempotentAndFreesTheSession) {
  telemetry::SymbolTable symbols;
  hangdoctor::DetectorService service(hangdoctor::ServiceOptions{2});
  telemetry::SessionId id{5};
  service.Open(id, TestInfo(&symbols), hangdoctor::HangDoctorConfig{});
  EXPECT_EQ(service.live_sessions(), 1u);
  service.Discard(id);
  EXPECT_EQ(service.live_sessions(), 0u);
  service.Discard(id);  // idempotent: a second discard of the same id is a no-op
  EXPECT_EQ(service.live_sessions(), 0u);
  EXPECT_EQ(service.sessions_opened(), 1);
  // The id is reusable after discard.
  service.Open(id, TestInfo(&symbols), hangdoctor::HangDoctorConfig{});
  EXPECT_EQ(service.live_sessions(), 1u);
  EXPECT_EQ(service.sessions_opened(), 2);
}

TEST(DetectorServiceTest, ShardCountResolvesAndRoutesAllIds) {
  telemetry::SymbolTable symbols;
  // shards < 1 is a construction error, not a silent clamp (it would mask a bad topology).
  EXPECT_THROW(hangdoctor::DetectorService(hangdoctor::ServiceOptions{0}),
               std::invalid_argument);

  hangdoctor::DetectorService sharded(hangdoctor::ServiceOptions{7});
  EXPECT_EQ(sharded.shards(), 7);
  // Every id routes somewhere: open a spread of ids and close them all.
  for (uint64_t id = 0; id < 64; ++id) {
    sharded.Open(telemetry::SessionId{id * 1000003}, TestInfo(&symbols),
                 hangdoctor::HangDoctorConfig{});
  }
  EXPECT_EQ(sharded.live_sessions(), 64u);
  for (uint64_t id = 0; id < 64; ++id) {
    sharded.Close(telemetry::SessionId{id * 1000003});
  }
  EXPECT_EQ(sharded.live_sessions(), 0u);
}

TEST(DetectorServiceTest, MergeSessionReportsFoldsInAscendingIdOrder) {
  // Merge order must be a function of session ids, not of the order results are handed in.
  telemetry::SymbolTable symbols;
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();

  std::vector<hangdoctor::SessionResult> results;
  for (uint64_t id : {42, 7, 19}) {
    workload::SingleAppHarness harness(droidsim::LgV10(),
                                       catalog.study_apps()[id % 3], 8800 + id);
    hangdoctor::ServiceOptions options;
    options.shards = 1;
    options.seed_db = &known_db;  // the seed lives in the service now, not per session
    hangdoctor::DetectorService service(options);
    hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(),
                                  hangdoctor::HangDoctorConfig{}, &service,
                                  telemetry::SessionId{id});
    (void)doctor;
    harness.RunUserSession(simkit::Seconds(20));
    results.push_back(service.Close(telemetry::SessionId{id}));
  }

  hangdoctor::HangBugReport merged = hangdoctor::MergeSessionReports(results);
  std::vector<hangdoctor::SessionResult> reversed(results.rbegin(), results.rend());
  hangdoctor::HangBugReport merged_reversed = hangdoctor::MergeSessionReports(reversed);
  EXPECT_EQ(merged.Render(4), merged_reversed.Render(4));
}

// In-place apply's arena handle (ServiceRecordRef::arena). An applied open fills the
// producer's handle, records that carry it land in the session exactly as the locked probe
// puts them, and whatever ends the session — a close, an abort, a handoff — clears it. A
// failed open writes null, and a record from another source that carries no handle is still
// refused.
TEST(DetectorServiceTest, ArenaHandleIsFilledAtOpenAndClearedWhenTheSessionEnds) {
  using Kind = hangdoctor::SpiPayload::Kind;
  // A recorded K9-Mail session's SPI stream. The harness owns the symbol table the stream's
  // info points at, so it lives as long as the test.
  workload::SingleAppHarness harness(droidsim::LgV10(), SharedCatalog().FindApp("K9-Mail"),
                                     /*seed=*/0xA7E);
  hangdoctor::SpiStreamRecorder recorder;
  {
    hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(),
                                  hangdoctor::HangDoctorConfig{}, /*database=*/nullptr,
                                  /*device_id=*/0, &recorder);
    harness.RunUserSession(simkit::Seconds(20));
  }
  ASSERT_FALSE(recorder.records().empty());
  auto payload = [](Kind kind) {
    hangdoctor::SpiPayload made;
    made.kind = kind;
    return made;
  };
  hangdoctor::SpiPayload open = payload(Kind::kSessionOpen);
  open.info = recorder.info();
  const hangdoctor::SpiPayload close = payload(Kind::kSessionClose);
  const int owner = 1;
  const int stranger = 2;
  hangdoctor::DetectorService service(hangdoctor::ServiceOptions{2});

  // The same stream twice: session 1 through its handle, session 2 through the probe.
  const telemetry::SessionId handled{1};
  const telemetry::SessionId probed{2};
  hangdoctor::SessionSlot* handle = nullptr;
  ASSERT_FALSE(service.Apply({handled, &open, &owner, &handle}));
  ASSERT_NE(handle, nullptr);
  ASSERT_FALSE(service.Apply({probed, &open, &owner}));
  for (const hangdoctor::SpiPayload& record : recorder.records()) {
    ASSERT_FALSE(service.Apply({handled, &record, &owner, &handle}));
    ASSERT_FALSE(service.Apply({probed, &record, &owner}));
  }
  std::optional<hangdoctor::IngestCompletion> foreign =
      service.Apply({handled, &recorder.records().front(), &stranger});
  ASSERT_TRUE(foreign);
  EXPECT_EQ(foreign->kind, hangdoctor::IngestCompletion::Kind::kError);
  hangdoctor::SessionSlot* duplicate = handle;
  std::optional<hangdoctor::IngestCompletion> reopened =
      service.Apply({handled, &open, &stranger, &duplicate});
  ASSERT_TRUE(reopened);
  EXPECT_EQ(reopened->kind, hangdoctor::IngestCompletion::Kind::kError);
  EXPECT_EQ(duplicate, nullptr) << "a refused open must not leave a handle";

  std::optional<hangdoctor::IngestCompletion> closed =
      service.Apply({handled, &close, &owner, &handle});
  ASSERT_TRUE(closed);
  EXPECT_EQ(closed->kind, hangdoctor::IngestCompletion::Kind::kClosed);
  EXPECT_EQ(handle, nullptr) << "the close must clear the handle";
  std::optional<hangdoctor::IngestCompletion> reference = service.Apply({probed, &close, &owner});
  ASSERT_TRUE(reference);
  ASSERT_EQ(reference->kind, hangdoctor::IngestCompletion::Kind::kClosed);
  EXPECT_GT(closed->result.log.size(), 0u);
  EXPECT_EQ(closed->result.log.size(), reference->result.log.size());
  EXPECT_EQ(closed->result.report.Render(4), reference->result.report.Render(4));
  EXPECT_EQ(closed->result.stack_samples, reference->result.stack_samples);
  EXPECT_EQ(closed->result.discovered, reference->result.discovered);

  for (Kind ending : {Kind::kSessionAbort, Kind::kSessionHandoff}) {
    const telemetry::SessionId id{3};
    hangdoctor::SessionSlot* ended_handle = nullptr;
    ASSERT_FALSE(service.Apply({id, &open, &owner, &ended_handle}));
    ASSERT_NE(ended_handle, nullptr);
    ASSERT_FALSE(service.Apply({id, &recorder.records().front(), &owner, &ended_handle}));
    const hangdoctor::SpiPayload end = payload(ending);
    std::optional<hangdoctor::IngestCompletion> ended =
        service.Apply({id, &end, &owner, &ended_handle});
    ASSERT_TRUE(ended);
    EXPECT_EQ(ended->kind, ending == Kind::kSessionAbort
                               ? hangdoctor::IngestCompletion::Kind::kAborted
                               : hangdoctor::IngestCompletion::Kind::kHandedOff);
    EXPECT_EQ(ended_handle, nullptr) << "ending kind " << static_cast<int>(ending);
  }
  EXPECT_EQ(service.live_sessions(), 0u);
}

}  // namespace
