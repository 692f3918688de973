// Waiting-chain diagnosis tests (DESIGN.md section 3.8): for every async study app — a soft
// hang that happens on a worker thread behind a future the main thread blocks on — the
// diagnosis must name the async culprit frame, never the Future.get frame the main-thread
// traces actually show, and keep the wait site as provenance. The verdicts must be
// bit-identical across every deployment shape: worker counts, service shard counts, with and
// without the shared knowledge base, and under record/replay. The producer-threads axis of
// in-place apply runs over these apps' recorded logs in ingest_concurrency_test, on the
// sanitizer legs.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/hangdoctor/detector_service.h"
#include "src/hangdoctor/report.h"
#include "src/hosts/mux_log.h"
#include "src/workload/catalog.h"
#include "src/workload/fleet.h"

namespace {

const workload::Catalog& SharedCatalog() {
  static const workload::Catalog* catalog = new workload::Catalog();
  return *catalog;
}

std::string TempPath(const std::string& leaf) {
  std::filesystem::path dir = std::filesystem::temp_directory_path() / "hd_async_diagnosis";
  std::filesystem::create_directories(dir);
  return (dir / leaf).string();
}

// One device per async study app; app i owns job index i.
std::vector<workload::FleetJob> AsyncFleet(const hangdoctor::BlockingApiDatabase* known_db) {
  const workload::Catalog& catalog = SharedCatalog();
  std::vector<workload::FleetJob> jobs;
  for (const droidsim::AppSpec* spec : catalog.async_apps()) {
    workload::FleetJob job;
    job.spec = spec;
    job.profile = droidsim::LgV10();
    job.seed = 5000 + static_cast<uint64_t>(spec->downloads % 97);
    job.session = simkit::Seconds(60);
    job.device_id = 0;
    job.known_db = known_db;
    jobs.push_back(job);
  }
  return jobs;
}

// Every diagnosis-observable output of a fleet run, flattened for equality comparison.
std::string Fingerprint(const workload::FleetSummary& summary) {
  std::ostringstream out;
  out << "failed=" << summary.failed << "\n";
  out << summary.merged_report.Render(1);
  for (const std::string& api : summary.discovered) {
    out << "discovered " << api << "\n";
  }
  for (const workload::FleetJobResult& result : summary.jobs) {
    out << result.app_package << " samples=" << result.stack_samples << "\n";
    out << result.report.Render(1);
  }
  return out.str();
}

// The same fingerprint over a service's results, session i + 1 standing for job i.
std::string Fingerprint(const std::vector<hangdoctor::SessionResult>& results) {
  std::ostringstream out;
  out << "failed=0\n";
  out << hangdoctor::MergeSessionReports(results).Render(1);
  std::set<std::string> discovered;
  for (const hangdoctor::SessionResult& result : results) {
    discovered.insert(result.discovered.begin(), result.discovered.end());
  }
  for (const std::string& api : discovered) {
    out << "discovered " << api << "\n";
  }
  for (const hangdoctor::SessionResult& result : results) {
    out << result.app_package << " samples=" << result.stack_samples << "\n";
    out << result.report.Render(1);
  }
  return out.str();
}

TEST(AsyncDiagnosisTest, EveryAsyncAppAttributesTheAsyncCulpritNotTheWaitFrame) {
  const workload::Catalog& catalog = SharedCatalog();
  ASSERT_GE(catalog.async_apps().size(), 3u);
  ASSERT_EQ(catalog.async_bugs().size(), catalog.async_apps().size());
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();
  std::vector<workload::FleetJob> jobs = AsyncFleet(&known_db);
  workload::FleetSummary summary = workload::RunFleet(jobs, {.jobs = 1, .shards = 1});
  ASSERT_EQ(summary.failed, 0u);

  const std::string wait_api = catalog.std_apis().future_get->FullName();
  for (size_t i = 0; i < catalog.async_apps().size(); ++i) {
    const droidsim::AppSpec* spec = catalog.async_apps()[i];
    std::vector<workload::BugSpec> expected = catalog.BugsOf(spec->name);
    ASSERT_EQ(expected.size(), 1u) << spec->name;
    hangdoctor::HangBugReport report = summary.MergeReports(i, i + 1);
    const std::vector<hangdoctor::BugReportEntry> entries = report.SortedEntries();
    ASSERT_FALSE(entries.empty()) << spec->name << ": no hangs diagnosed";

    const hangdoctor::BugReportEntry* match = nullptr;
    for (const hangdoctor::BugReportEntry& entry : entries) {
      // The wait frame must never be pinned as a culprit.
      EXPECT_NE(entry.api, wait_api)
          << spec->name << ": wait frame misattributed at " << entry.file << ":" << entry.line;
      if (entry.api == expected[0].api && entry.file == expected[0].file &&
          entry.line == expected[0].line) {
        match = &entry;
      }
    }
    ASSERT_NE(match, nullptr) << spec->name << ": async culprit " << expected[0].api << "@"
                              << expected[0].file << ":" << expected[0].line
                              << " not diagnosed";
    EXPECT_GT(match->occurrences, 0) << spec->name;
    EXPECT_EQ(match->self_developed, expected[0].self_developed) << spec->name;
    // Waiting-chain provenance: the diagnosis walked through the main thread's wait site.
    ASSERT_FALSE(match->wait_site.empty()) << spec->name;
    EXPECT_NE(match->wait_site.find(wait_api + "@"), std::string::npos)
        << spec->name << ": wait_site = " << match->wait_site;
  }
}

TEST(AsyncDiagnosisTest, VerdictsAreBitIdenticalAcrossJobsThreadsAndShards) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();
  std::vector<workload::FleetJob> jobs = AsyncFleet(&known_db);
  const std::string baseline =
      Fingerprint(workload::RunFleet(jobs, {.jobs = 1, .shards = 1}));

  for (int32_t workers : {1, 8}) {
    for (int32_t shards : {1, 4, 7}) {
      workload::FleetOptions options;
      options.jobs = workers;
      options.shards = shards;
      const std::string label =
          "jobs=" + std::to_string(workers) + " shards=" + std::to_string(shards);
      EXPECT_EQ(Fingerprint(workload::RunFleet(jobs, options)), baseline) << label;
    }
  }
}

TEST(AsyncDiagnosisTest, SharedKnowledgeBaseDoesNotChangeVerdicts) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();
  std::vector<workload::FleetJob> jobs = AsyncFleet(&known_db);
  const std::string baseline =
      Fingerprint(workload::RunFleet(jobs, {.jobs = 1, .shards = 1}));

  for (int64_t epoch : {int64_t{1}, int64_t{16}}) {
    workload::FleetOptions options;
    options.jobs = 8;
    options.shards = 7;
    options.shared_kb = true;
    options.kb_epoch_sessions = epoch;
    EXPECT_EQ(Fingerprint(workload::RunFleet(jobs, options)), baseline)
        << "shared_kb epoch=" << epoch;
  }
}

TEST(AsyncDiagnosisTest, RecordedAsyncFleetReplaysBitIdentically) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();
  std::vector<workload::FleetJob> plain = AsyncFleet(&known_db);
  std::vector<workload::FleetJob> recorded = AsyncFleet(&known_db);
  for (size_t i = 0; i < recorded.size(); ++i) {
    recorded[i].record_path = TempPath("async_job_" + std::to_string(i) + ".hdsl");
  }

  const std::string baseline = Fingerprint(workload::RunFleet(plain, {.jobs = 1}));
  workload::FleetSummary taped = workload::RunFleet(recorded, {.jobs = 8});
  EXPECT_EQ(Fingerprint(taped), baseline) << "recording must be a passive tap";

  std::vector<std::string> paths;
  for (const workload::FleetJob& job : recorded) {
    paths.push_back(job.record_path);
  }
  EXPECT_EQ(Fingerprint(workload::ReplayFleet(paths, {.jobs = 2}, &known_db)), baseline)
      << "per-log replay";

  // The same logs multiplexed into one container and replayed through a DetectorService,
  // where the shard count is a real axis. Session i + 1 is job i.
  std::vector<hangdoctor::SessionLogSlice> slices;
  for (size_t i = 0; i < paths.size(); ++i) {
    std::ifstream in(paths[i], std::ios::binary);
    slices.push_back({telemetry::SessionId{i + 1},
                      std::string(std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>())});
  }
  std::string container;
  std::string error;
  ASSERT_TRUE(hangdoctor::MuxSessionLogs(slices, {}, &container, &error)) << error;
  for (int32_t shards : {1, 4, 7}) {
    std::vector<hangdoctor::SessionResult> results;
    ASSERT_TRUE(hangdoctor::ReplayMultiplexedLog(
        container, {.shards = shards, .seed_db = &known_db}, &results, &error))
        << error;
    EXPECT_EQ(Fingerprint(results), baseline) << "mux replay shards=" << shards;
  }
}

}  // namespace
