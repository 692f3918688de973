// Integration tests of the full Hang Doctor runtime on simulated phones: the Figure 3 state
// machine end to end, both phases, occasional bugs, self-developed operations, closed-library
// bugs, main-only mode and the test-bed (second-phase-only) mode.
#include <gtest/gtest.h>

#include "src/hosts/hang_doctor.h"
#include "src/workload/api_catalog.h"
#include "src/workload/user_model.h"

namespace {

using droidsim::ActionSpec;
using droidsim::AppSpec;
using droidsim::InputEventSpec;
using droidsim::OpNode;
using hangdoctor::ActionState;
using hangdoctor::HangDoctor;
using hangdoctor::HangDoctorConfig;
using hangdoctor::Verdict;

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() { apis_ = workload::BuildStandardApis(&registry_); }

  ActionSpec Action(const std::string& name, std::vector<OpNode> ops) {
    ActionSpec action;
    action.name = name;
    action.weight = 1.0;
    InputEventSpec event;
    event.handler = "onClick";
    event.handler_file = name + ".java";
    event.handler_line = 11;
    event.ops = std::move(ops);
    action.events.push_back(std::move(event));
    return action;
  }

  OpNode Bug(const droidsim::ApiSpec* api, double manifest = 1.0) {
    OpNode node = droidsim::MakeOp(api, "Bug.java", 99);
    node.manifest_probability = manifest;
    return node;
  }

  // Performs action `uid` `times` times with breathing room in between.
  void Drive(droidsim::Phone* phone, droidsim::App* app, int32_t uid, int times) {
    for (int i = 0; i < times; ++i) {
      app->PerformAction(uid);
      phone->RunFor(simkit::Seconds(6));
    }
  }

  droidsim::ApiRegistry registry_;
  workload::StandardApis apis_;
};

TEST_F(RuntimeTest, BugActionWalksPathC) {
  AppSpec spec;
  spec.name = "PathC";
  spec.package = "com.test.pathc";
  spec.actions.push_back(Action("Save", {Bug(apis_.gson_tojson)}));
  droidsim::Phone phone(droidsim::LgV10(), 1);
  droidsim::App* app = phone.InstallApp(&spec);
  HangDoctor doctor(&phone, app, HangDoctorConfig{});
  Drive(&phone, app, 0, 3);
  // Execution 1: S-Checker marks Suspicious. Execution 2: Diagnoser confirms the bug.
  EXPECT_EQ(doctor.actions().Find(0)->state, ActionState::kHangBug);
  ASSERT_GE(doctor.log().size(), 3u);
  EXPECT_EQ(doctor.log()[0].verdict, Verdict::kMarkedSuspicious);
  EXPECT_TRUE(doctor.log()[0].schecker_ran);
  EXPECT_FALSE(doctor.log()[0].traced);  // phase 1 never collects traces
  EXPECT_EQ(doctor.log()[1].verdict, Verdict::kDiagnosedBug);
  EXPECT_TRUE(doctor.log()[1].traced);
  EXPECT_EQ(app->symbols().Frame(doctor.log()[1].diagnosis.culprit).function, "toJson");
  // HangBug actions keep being diagnosed on every subsequent hang.
  EXPECT_EQ(doctor.log()[2].verdict, Verdict::kDiagnosedBug);
  // The discovery reached the blocking-API database (toJson was unknown).
  EXPECT_TRUE(doctor.database().IsKnown("com.google.gson.Gson.toJson"));
  EXPECT_EQ(doctor.local_report().NumBugs(), 1u);
}

TEST_F(RuntimeTest, UiActionWalksPathA) {
  AppSpec spec;
  spec.name = "PathA";
  spec.package = "com.test.patha";
  spec.actions.push_back(Action(
      "Open", {droidsim::MakeOp(apis_.ui_inflate, "Open.java", 5),
               droidsim::MakeOp(apis_.ui_list_layout, "Open.java", 9)}));
  droidsim::Phone phone(droidsim::LgV10(), 2);
  droidsim::App* app = phone.InstallApp(&spec);
  HangDoctor doctor(&phone, app, HangDoctorConfig{});
  Drive(&phone, app, 0, 4);
  EXPECT_EQ(doctor.actions().Find(0)->state, ActionState::kNormal);
  for (const hangdoctor::ExecutionRecord& record : doctor.log()) {
    EXPECT_FALSE(record.traced);
    EXPECT_NE(record.verdict, Verdict::kDiagnosedBug);
  }
  EXPECT_EQ(doctor.local_report().NumBugs(), 0u);
}

TEST_F(RuntimeTest, PageFaultFalsePositiveWalksPathB) {
  // A gallery bind allocates enough to trip the page-fault condition; the Diagnoser must
  // recognize the UI-class culprit and send the action to Normal (path B).
  AppSpec spec;
  spec.name = "PathB";
  spec.package = "com.test.pathb";
  spec.actions.push_back(Action(
      "Grid", {droidsim::MakeOp(apis_.ui_gallery_bind, "Grid.java", 5),
               droidsim::MakeOp(apis_.ui_list_layout, "Grid.java", 9)}));
  droidsim::Phone phone(droidsim::LgV10(), 3);
  droidsim::App* app = phone.InstallApp(&spec);
  HangDoctor doctor(&phone, app, HangDoctorConfig{});
  Drive(&phone, app, 0, 6);
  EXPECT_EQ(doctor.actions().Find(0)->state, ActionState::kNormal);
  bool saw_suspicious = false;
  bool saw_diagnosed_ui = false;
  for (const hangdoctor::ExecutionRecord& record : doctor.log()) {
    saw_suspicious |= record.verdict == Verdict::kMarkedSuspicious;
    saw_diagnosed_ui |= record.verdict == Verdict::kDiagnosedUi;
    EXPECT_NE(record.verdict, Verdict::kDiagnosedBug);
  }
  EXPECT_TRUE(saw_suspicious);
  EXPECT_TRUE(saw_diagnosed_ui);
  EXPECT_EQ(doctor.local_report().NumBugs(), 0u);
}

TEST_F(RuntimeTest, OccasionalBugStaysSuspiciousUntilItHangsAgain) {
  AppSpec spec;
  spec.name = "Occasional";
  spec.package = "com.test.occ";
  spec.actions.push_back(Action("Sync", {Bug(apis_.gson_tojson, /*manifest=*/1.0)}));
  droidsim::Phone phone(droidsim::LgV10(), 4);
  droidsim::App* app = phone.InstallApp(&spec);
  // Control manifestation per execution by editing the spec between runs is not possible;
  // instead use a low manifest probability and check the kAwaitingHang verdict occurs.
  spec.actions[0].events[0].ops[0].manifest_probability = 0.3;
  HangDoctor doctor(&phone, app, HangDoctorConfig{});
  Drive(&phone, app, 0, 20);
  bool awaited = false;
  for (const hangdoctor::ExecutionRecord& record : doctor.log()) {
    if (record.verdict == Verdict::kAwaitingHang) {
      awaited = true;
      EXPECT_TRUE(record.state_before == ActionState::kSuspicious ||
                  record.state_before == ActionState::kHangBug);
    }
  }
  EXPECT_TRUE(awaited);
  EXPECT_EQ(doctor.actions().Find(0)->state, ActionState::kHangBug);
}

TEST_F(RuntimeTest, SelfDevelopedOperationReportedButNotAddedToDatabase) {
  const droidsim::ApiSpec* loop = workload::MakeSelfDevelopedApi(
      &registry_, "com.test.selfdev.Worker", "crunchAll", simkit::Milliseconds(4), 256 * 1024,
      0.3);
  OpNode parent = droidsim::MakeOp(loop, "Worker.java", 40);
  for (int i = 0; i < 40; ++i) {
    // Distinct call sites: no single callee dominates the stack samples, only the caller.
    parent.children.push_back(droidsim::MakeOp(apis_.small_file_read, "Worker.java", 52 + i));
  }
  AppSpec spec;
  spec.name = "SelfDev";
  spec.package = "com.test.selfdev";
  spec.actions.push_back(Action("Crunch", {std::move(parent)}));
  droidsim::Phone phone(droidsim::LgV10(), 5);
  droidsim::App* app = phone.InstallApp(&spec);
  HangDoctor doctor(&phone, app, HangDoctorConfig{});
  Drive(&phone, app, 0, 4);
  EXPECT_EQ(doctor.actions().Find(0)->state, ActionState::kHangBug);
  ASSERT_EQ(doctor.local_report().NumBugs(), 1u);
  hangdoctor::BugReportEntry entry = doctor.local_report().SortedEntries()[0];
  EXPECT_TRUE(entry.self_developed);
  EXPECT_EQ(entry.api, "com.test.selfdev.Worker.crunchAll");
  // Self-developed operations go only to the developer, not the offline API database.
  EXPECT_FALSE(doctor.database().IsKnown("com.test.selfdev.Worker.crunchAll"));
}

TEST_F(RuntimeTest, ClosedLibraryBugIsDiagnosedAtRuntime) {
  // A known-blocking insert hidden behind a closed-source wrapper: offline scanners are
  // blind (tested in baselines_test); Hang Doctor still names the real culprit.
  OpNode wrapper = droidsim::MakeOp(apis_.cupboard_get, "Wrapper.java", 29);
  OpNode inner = droidsim::MakeOp(apis_.db_insert, "Hidden.java", 205);
  inner.in_closed_library = true;
  wrapper.in_closed_library = true;
  wrapper.children.push_back(std::move(inner));
  AppSpec spec;
  spec.name = "Closed";
  spec.package = "com.test.closed";
  spec.actions.push_back(Action("Store", {std::move(wrapper)}));
  droidsim::Phone phone(droidsim::LgV10(), 6);
  droidsim::App* app = phone.InstallApp(&spec);
  HangDoctor doctor(&phone, app, HangDoctorConfig{});
  Drive(&phone, app, 0, 4);
  EXPECT_EQ(doctor.actions().Find(0)->state, ActionState::kHangBug);
  ASSERT_GE(doctor.local_report().NumBugs(), 1u);
  EXPECT_EQ(doctor.local_report().SortedEntries()[0].api,
            "android.database.sqlite.SQLiteDatabase.insertWithOnConflict");
}

TEST_F(RuntimeTest, MainOnlyModeStillCatchesCpuBugs) {
  AppSpec spec;
  spec.name = "MainOnly";
  spec.package = "com.test.mainonly";
  spec.actions.push_back(Action("Save", {Bug(apis_.gson_tojson)}));
  droidsim::Phone phone(droidsim::GalaxyS3(), 7);  // pre-5.0 device, no render thread use
  droidsim::App* app = phone.InstallApp(&spec);
  HangDoctorConfig config;
  config.main_only = true;
  // Main-only mode needs main-thread thresholds (no render-side subtraction): a long task
  // clock or many faults on the main thread alone.
  config.filter = hangdoctor::SoftHangFilter({
      {telemetry::PerfEventType::kTaskClock, 1.7e8},
      {telemetry::PerfEventType::kPageFaults, 500.0},
  });
  HangDoctor doctor(&phone, app, config);
  Drive(&phone, app, 0, 3);
  EXPECT_EQ(doctor.actions().Find(0)->state, ActionState::kHangBug);
}

TEST_F(RuntimeTest, SecondPhaseOnlyTracesEveryHang) {
  AppSpec spec;
  spec.name = "TestBed";
  spec.package = "com.test.bed";
  spec.actions.push_back(Action("Open", {droidsim::MakeOp(apis_.ui_inflate, "O.java", 5),
                                         droidsim::MakeOp(apis_.ui_list_layout, "O.java", 8)}));
  droidsim::Phone phone(droidsim::LgV10(), 8);
  droidsim::App* app = phone.InstallApp(&spec);
  HangDoctorConfig config;
  config.second_phase_only = true;
  HangDoctor doctor(&phone, app, config);
  Drive(&phone, app, 0, 4);
  int64_t hangs = 0;
  int64_t traced = 0;
  for (const hangdoctor::ExecutionRecord& record : doctor.log()) {
    hangs += record.hang ? 1 : 0;
    traced += record.traced ? 1 : 0;
  }
  EXPECT_GT(hangs, 0);
  EXPECT_EQ(traced, hangs);  // no phase-1 filtering in the test bed
  // And the Diagnoser still prunes the UI hangs: no bugs reported.
  EXPECT_EQ(doctor.local_report().NumBugs(), 0u);
}

TEST_F(RuntimeTest, FleetReportAggregatesAcrossDevices) {
  AppSpec spec;
  spec.name = "Fleet";
  spec.package = "com.test.fleet";
  spec.actions.push_back(Action("Save", {Bug(apis_.gson_tojson)}));
  hangdoctor::HangBugReport fleet;
  hangdoctor::BlockingApiDatabase database;
  for (int device = 0; device < 3; ++device) {
    droidsim::Phone phone(droidsim::LgV10(), 100 + device);
    droidsim::App* app = phone.InstallApp(&spec);
    HangDoctor doctor(&phone, app, HangDoctorConfig{}, &database, device);
    Drive(&phone, app, 0, 3);
    fleet.Merge(doctor.local_report());
  }
  ASSERT_EQ(fleet.NumBugs(), 1u);
  EXPECT_EQ(fleet.SortedEntries()[0].devices.size(), 3u);
  EXPECT_TRUE(database.IsKnown("com.google.gson.Gson.toJson"));
}

TEST_F(RuntimeTest, OverheadAccumulatesOnlyWhenMonitoring) {
  AppSpec spec;
  spec.name = "Cost";
  spec.package = "com.test.cost";
  spec.actions.push_back(Action("Open", {droidsim::MakeOp(apis_.ui_set_text, "O.java", 5)}));
  droidsim::Phone phone(droidsim::LgV10(), 9);
  droidsim::App* app = phone.InstallApp(&spec);
  HangDoctor doctor(&phone, app, HangDoctorConfig{});
  Drive(&phone, app, 0, 2);
  simkit::SimDuration after_ui = doctor.overhead().cpu();
  EXPECT_GT(after_ui, 0);  // probes + sessions
  // A sub-100 ms action never pays for stack traces.
  EXPECT_EQ(doctor.stack_samples_taken(), 0);
}

}  // namespace
