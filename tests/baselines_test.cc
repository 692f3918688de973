// Tests for the baseline detectors: Timeout-based, Utilization-based, the UT+TI combination,
// and the PerfChecker-style offline scanner with its three blind spots.
#include <gtest/gtest.h>

#include "src/baselines/combined_detector.h"
#include "src/baselines/offline_scanner.h"
#include "src/baselines/timeout_detector.h"
#include "src/baselines/utilization_detector.h"
#include "src/workload/api_catalog.h"
#include "src/workload/catalog.h"

namespace {

using baselines::CombinedDetector;
using baselines::OfflineScanner;
using baselines::TimeoutDetector;
using baselines::UtilizationDetector;
using droidsim::ActionSpec;
using droidsim::AppSpec;
using droidsim::InputEventSpec;
using droidsim::OpNode;

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() { apis_ = workload::BuildStandardApis(&registry_); }

  AppSpec OneActionApp(std::vector<OpNode> ops) {
    AppSpec spec;
    spec.name = "BaselineApp";
    spec.package = "com.test.baseline";
    ActionSpec action;
    action.name = "Go";
    InputEventSpec event;
    event.handler = "onClick";
    event.handler_file = "Go.java";
    event.handler_line = 7;
    event.ops = std::move(ops);
    action.events.push_back(std::move(event));
    spec.actions.push_back(std::move(action));
    return spec;
  }

  droidsim::ApiRegistry registry_;
  workload::StandardApis apis_;
};

TEST_F(BaselinesTest, TimeoutDetectorTracesHangsAboveItsTimeout) {
  OpNode bug = droidsim::MakeOp(apis_.gson_tojson, "Go.java", 9);  // ~800 ms CPU
  bug.manifest_probability = 1.0;
  AppSpec spec = OneActionApp({std::move(bug)});
  droidsim::Phone phone(droidsim::LgV10(), 11);
  droidsim::App* app = phone.InstallApp(&spec);
  baselines::TimeoutDetectorConfig fast_config;
  fast_config.timeout = simkit::Milliseconds(100);
  TimeoutDetector fast(&phone, app, fast_config);
  baselines::TimeoutDetectorConfig slow_config;
  slow_config.timeout = simkit::Seconds(5);
  TimeoutDetector slow(&phone, app, slow_config);
  app->PerformAction(0);
  phone.RunFor(simkit::Seconds(10));
  ASSERT_EQ(fast.outcomes().size(), 1u);
  EXPECT_TRUE(fast.outcomes()[0].hang);
  EXPECT_TRUE(fast.outcomes()[0].traced);
  EXPECT_EQ(app->symbols().Frame(fast.outcomes()[0].diagnosis.culprit).function, "toJson");
  // The ANR-style 5 s timeout misses the same hang entirely.
  ASSERT_EQ(slow.outcomes().size(), 1u);
  EXPECT_FALSE(slow.outcomes()[0].traced);
  EXPECT_FALSE(slow.outcomes()[0].flagged);
  // Tracing cost was paid by the fast detector only.
  EXPECT_GT(fast.overhead().cpu(), slow.overhead().cpu());
}

TEST_F(BaselinesTest, TimeoutDetectorIgnoresFastActions) {
  AppSpec spec = OneActionApp({droidsim::MakeOp(apis_.ui_set_text, "Go.java", 9)});
  droidsim::Phone phone(droidsim::LgV10(), 12);
  droidsim::App* app = phone.InstallApp(&spec);
  TimeoutDetector detector(&phone, app, baselines::TimeoutDetectorConfig{});
  app->PerformAction(0);
  phone.RunFor(simkit::Seconds(5));
  ASSERT_EQ(detector.outcomes().size(), 1u);
  EXPECT_FALSE(detector.outcomes()[0].hang);
  EXPECT_FALSE(detector.outcomes()[0].traced);
}

TEST(UtilizationMathTest, ComputeUtilizationWindows) {
  kernelsim::ThreadStats before;
  kernelsim::ThreadStats after;
  after.cpu_time = simkit::Milliseconds(50);
  after.minor_faults = 100;
  after.allocated_bytes = 0;
  baselines::UtilizationSample sample =
      baselines::ComputeUtilization(before, after, simkit::Milliseconds(100));
  EXPECT_NEAR(sample.cpu_fraction, 0.5, 1e-9);
  EXPECT_NEAR(sample.mem_bytes_per_sec, 100 * 4096 / 0.1, 1.0);
  baselines::UtilizationThresholds thresholds;
  thresholds.cpu_fraction = 0.4;
  thresholds.mem_bytes_per_sec = 1e12;
  EXPECT_TRUE(sample.Above(thresholds));
  thresholds.cpu_fraction = 0.6;
  EXPECT_FALSE(sample.Above(thresholds));
  EXPECT_DOUBLE_EQ(baselines::ComputeUtilization(before, after, 0).cpu_fraction, 0.0);
}

TEST_F(BaselinesTest, UtilizationDetectorLowThresholdTracesBusyHang) {
  OpNode bug = droidsim::MakeOp(apis_.gson_tojson, "Go.java", 9);
  bug.manifest_probability = 1.0;
  AppSpec spec = OneActionApp({std::move(bug)});
  droidsim::Phone phone(droidsim::LgV10(), 13);
  droidsim::App* app = phone.InstallApp(&spec);
  baselines::UtilizationDetectorConfig config;
  config.thresholds.cpu_fraction = 0.2;
  config.thresholds.mem_bytes_per_sec = 1e12;
  UtilizationDetector detector(&phone, app, config);
  app->PerformAction(0);
  phone.RunFor(simkit::Seconds(10));
  ASSERT_EQ(detector.outcomes().size(), 1u);
  EXPECT_TRUE(detector.outcomes()[0].flagged);
  EXPECT_TRUE(detector.outcomes()[0].traced);
  EXPECT_GT(detector.samples_taken(), 50);  // periodic sampling ran the whole time
}

TEST_F(BaselinesTest, UtilizationDetectorHighThresholdMissesIoBug) {
  // camera.open blocks with almost no CPU: a high CPU/memory threshold never fires.
  OpNode bug = droidsim::MakeOp(apis_.camera_open, "Go.java", 9);
  bug.manifest_probability = 1.0;
  AppSpec spec = OneActionApp({std::move(bug)});
  droidsim::Phone phone(droidsim::LgV10(), 14);
  droidsim::App* app = phone.InstallApp(&spec);
  baselines::UtilizationDetectorConfig config;
  config.thresholds.cpu_fraction = 0.95;
  config.thresholds.mem_bytes_per_sec = 1e12;
  UtilizationDetector detector(&phone, app, config);
  app->PerformAction(0);
  phone.RunFor(simkit::Seconds(10));
  ASSERT_EQ(detector.outcomes().size(), 1u);
  EXPECT_TRUE(detector.outcomes()[0].hang);       // the hang happened...
  EXPECT_FALSE(detector.outcomes()[0].traced);    // ...but UTH never noticed
}

TEST_F(BaselinesTest, UtilizationDetectorRaisesSpuriousAlarmsOffHang) {
  // Absurdly low thresholds: ticks outside any dispatch raise spurious detections.
  AppSpec spec = OneActionApp({droidsim::MakeOp(apis_.ui_set_text, "Go.java", 9)});
  droidsim::Phone phone(droidsim::LgV10(), 15);
  droidsim::App* app = phone.InstallApp(&spec);
  baselines::UtilizationDetectorConfig config;
  config.thresholds.cpu_fraction = -1.0;  // always above
  config.thresholds.mem_bytes_per_sec = -1.0;
  UtilizationDetector detector(&phone, app, config);
  phone.RunFor(simkit::Seconds(5));
  EXPECT_GT(detector.spurious_detections(), 10);
}

TEST_F(BaselinesTest, CombinedDetectorSamplesOnlyDuringHangs) {
  OpNode bug = droidsim::MakeOp(apis_.gson_tojson, "Go.java", 9);
  bug.manifest_probability = 1.0;
  AppSpec spec = OneActionApp({std::move(bug)});
  droidsim::Phone phone(droidsim::LgV10(), 16);
  droidsim::App* app = phone.InstallApp(&spec);
  baselines::CombinedDetectorConfig config;
  config.thresholds.cpu_fraction = 0.2;
  config.thresholds.mem_bytes_per_sec = 1e12;
  CombinedDetector detector(&phone, app, config);
  app->PerformAction(0);
  phone.RunFor(simkit::Seconds(10));
  ASSERT_EQ(detector.outcomes().size(), 1u);
  EXPECT_TRUE(detector.outcomes()[0].flagged);
  EXPECT_TRUE(detector.outcomes()[0].traced);
  // UT+TI pays nothing while idle: overhead far below a periodic sampler's.
  baselines::UtilizationDetectorConfig periodic_config;
  periodic_config.thresholds = config.thresholds;
  droidsim::Phone phone2(droidsim::LgV10(), 16);
  droidsim::App* app2 = phone2.InstallApp(&spec);
  UtilizationDetector periodic(&phone2, app2, periodic_config);
  app2->PerformAction(0);
  phone2.RunFor(simkit::Seconds(10));
  EXPECT_LT(detector.overhead().cpu(), periodic.overhead().cpu());
}

TEST_F(BaselinesTest, CombinedDetectorIgnoresQuietHangs) {
  OpNode bug = droidsim::MakeOp(apis_.camera_open, "Go.java", 9);
  bug.manifest_probability = 1.0;
  AppSpec spec = OneActionApp({std::move(bug)});
  droidsim::Phone phone(droidsim::LgV10(), 17);
  droidsim::App* app = phone.InstallApp(&spec);
  baselines::CombinedDetectorConfig config;
  config.thresholds.cpu_fraction = 0.95;
  config.thresholds.mem_bytes_per_sec = 1e12;
  CombinedDetector detector(&phone, app, config);
  app->PerformAction(0);
  phone.RunFor(simkit::Seconds(10));
  ASSERT_EQ(detector.outcomes().size(), 1u);
  EXPECT_FALSE(detector.outcomes()[0].traced);
}

// ------------------------- Offline scanner (PerfChecker-like) -------------------------

TEST(OfflineScannerTest, FindsKnownBlockingApisOnMainThread) {
  workload::Catalog catalog;
  hangdoctor::BlockingApiDatabase database = catalog.MakeKnownDatabase();
  OfflineScanner scanner(&database);
  const droidsim::AppSpec* sticker = catalog.FindApp("StickerCamera");
  ASSERT_NE(sticker, nullptr);
  EXPECT_TRUE(scanner.Detects(*sticker, "android.hardware.Camera.open"));
  EXPECT_TRUE(scanner.Detects(*sticker, "android.graphics.BitmapFactory.decodeFile"));
}

TEST(OfflineScannerTest, BlindSpotUnknownApis) {
  workload::Catalog catalog;
  hangdoctor::BlockingApiDatabase database = catalog.MakeKnownDatabase();
  OfflineScanner scanner(&database);
  const droidsim::AppSpec* k9 = catalog.FindApp("K9-Mail");
  // clean() is right there on the main thread, but nobody knows it blocks.
  EXPECT_FALSE(scanner.Detects(*k9, "org.htmlcleaner.HtmlCleaner.clean"));
  // After Hang Doctor's discovery feeds the database, the same scan finds it.
  database.AddDiscovered("org.htmlcleaner.HtmlCleaner.clean");
  EXPECT_TRUE(scanner.Detects(*k9, "org.htmlcleaner.HtmlCleaner.clean"));
}

TEST(OfflineScannerTest, BlindSpotClosedLibraries) {
  droidsim::ApiRegistry registry;
  workload::StandardApis apis = workload::BuildStandardApis(&registry);
  droidsim::AppSpec spec;
  spec.name = "ClosedLib";
  spec.package = "com.test.closedlib";
  droidsim::ActionSpec action;
  action.name = "Store";
  droidsim::InputEventSpec event;
  droidsim::OpNode wrapper = droidsim::MakeLibraryOp(apis.cupboard_get, "Wrapper.java", 29);
  wrapper.children.push_back(droidsim::MakeLibraryOp(apis.db_insert, "Hidden.java", 205));
  event.ops.push_back(std::move(wrapper));
  action.events.push_back(std::move(event));
  spec.actions.push_back(std::move(action));
  hangdoctor::BlockingApiDatabase database;
  database.SeedKnown(apis.db_insert->FullName());
  OfflineScanner scanner(&database);
  // The insert is known-blocking, but it hides behind a closed-source frame.
  EXPECT_TRUE(scanner.Scan(spec).empty());
}

TEST(OfflineScannerTest, WorkerSubtreesAreNotBugs) {
  droidsim::ApiRegistry registry;
  workload::StandardApis apis = workload::BuildStandardApis(&registry);
  droidsim::AppSpec spec;
  spec.name = "Fixed";
  spec.package = "com.test.fixed";
  droidsim::ActionSpec action;
  droidsim::InputEventSpec event;
  droidsim::OpNode open = droidsim::MakeOp(apis.camera_open, "Main.java", 10);
  open.on_worker = true;  // correctly moved off the main thread
  event.ops.push_back(std::move(open));
  action.events.push_back(std::move(event));
  spec.actions.push_back(std::move(action));
  hangdoctor::BlockingApiDatabase database;
  database.SeedKnown(apis.camera_open->FullName());
  OfflineScanner scanner(&database);
  EXPECT_TRUE(scanner.Scan(spec).empty());
}

TEST(OfflineScannerTest, FindingsCarryCallSites) {
  workload::Catalog catalog;
  hangdoctor::BlockingApiDatabase database = catalog.MakeKnownDatabase();
  OfflineScanner scanner(&database);
  const droidsim::AppSpec* dashclock = catalog.FindApp("DashClock");
  std::vector<baselines::OfflineFinding> findings = scanner.Scan(*dashclock);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].api, "android.database.sqlite.SQLiteDatabase.query");
  EXPECT_EQ(findings[0].file, "ExtensionManager.java");
  EXPECT_EQ(findings[0].line, 152);
  EXPECT_EQ(findings[0].action, "RefreshWidgets");
}

}  // namespace
