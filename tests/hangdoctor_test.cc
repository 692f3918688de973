// Unit tests for the Hang Doctor core components in isolation: the soft hang filter, the
// action state machine, the trace analyzer, the report, the blocking-API database, the
// correlation trainer and the overhead meter.
#include <gtest/gtest.h>

#include "src/droidsim/symbols.h"
#include "src/hangdoctor/action_state.h"
#include "src/hangdoctor/blocking_api_db.h"
#include "src/hangdoctor/correlation.h"
#include "src/hangdoctor/filter.h"
#include "src/hangdoctor/overhead.h"
#include "src/hangdoctor/report.h"
#include "src/hangdoctor/trace_analyzer.h"

namespace {

using hangdoctor::ActionState;
using hangdoctor::ActionTable;
using hangdoctor::Diagnosis;
using hangdoctor::FilterCondition;
using hangdoctor::LabeledSample;
using hangdoctor::SoftHangFilter;
using hangdoctor::TraceAnalyzer;
using telemetry::PerfEventType;

telemetry::CounterArray Diffs(double ctx, double task, double page) {
  telemetry::CounterArray diffs{};
  diffs[static_cast<size_t>(PerfEventType::kContextSwitches)] = ctx;
  diffs[static_cast<size_t>(PerfEventType::kTaskClock)] = task;
  diffs[static_cast<size_t>(PerfEventType::kPageFaults)] = page;
  return diffs;
}

TEST(FilterTest, DefaultMatchesPaperConditions) {
  SoftHangFilter filter = SoftHangFilter::Default();
  ASSERT_EQ(filter.conditions().size(), 3u);
  EXPECT_EQ(filter.conditions()[0].event, PerfEventType::kContextSwitches);
  EXPECT_DOUBLE_EQ(filter.conditions()[0].threshold, 0.0);
  EXPECT_EQ(filter.conditions()[1].event, PerfEventType::kTaskClock);
  EXPECT_DOUBLE_EQ(filter.conditions()[1].threshold, 1.7e8);
  EXPECT_EQ(filter.conditions()[2].event, PerfEventType::kPageFaults);
  EXPECT_DOUBLE_EQ(filter.conditions()[2].threshold, 500.0);
}

TEST(FilterTest, AnyConditionTriggers) {
  SoftHangFilter filter = SoftHangFilter::Default();
  EXPECT_FALSE(filter.HasSymptoms(Diffs(-10, 1e8, 100)));
  EXPECT_TRUE(filter.HasSymptoms(Diffs(1, 0, 0)));          // ctx only
  EXPECT_TRUE(filter.HasSymptoms(Diffs(-10, 2e8, 0)));      // task only
  EXPECT_TRUE(filter.HasSymptoms(Diffs(-10, 0, 501)));      // page only
  EXPECT_FALSE(filter.HasSymptoms(Diffs(0, 1.7e8, 500)));   // thresholds are strict
}

TEST(FilterTest, MatchVectorPerCondition) {
  SoftHangFilter filter = SoftHangFilter::Default();
  std::vector<bool> matches = filter.MatchVector(Diffs(5, 1e8, 900));
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_TRUE(matches[0]);
  EXPECT_FALSE(matches[1]);
  EXPECT_TRUE(matches[2]);
}

TEST(FilterTest, EventsDeduplicated) {
  SoftHangFilter filter({{PerfEventType::kContextSwitches, 0.0},
                         {PerfEventType::kContextSwitches, 10.0}});
  EXPECT_EQ(filter.Events().size(), 1u);
  EXPECT_FALSE(filter.ToString().empty());
}

TEST(ActionTableTest, TransitionsRecordHistory) {
  ActionTable table;
  table.Transition(100, 1, ActionState::kSuspicious, "symptoms");
  table.Transition(200, 1, ActionState::kHangBug, "diagnosed");
  EXPECT_EQ(table.Lookup(1).state, ActionState::kHangBug);
  ASSERT_EQ(table.transitions().size(), 2u);
  EXPECT_EQ(table.transitions()[0].from, ActionState::kUncategorized);
  EXPECT_EQ(table.transitions()[0].to, ActionState::kSuspicious);
  EXPECT_EQ(table.transitions()[1].time, 200);
}

TEST(ActionTableTest, SelfTransitionIsNoOp) {
  ActionTable table;
  table.Transition(1, 7, ActionState::kNormal, "a");
  table.Transition(2, 7, ActionState::kNormal, "b");
  EXPECT_EQ(table.transitions().size(), 1u);
}

TEST(ActionTableTest, PeriodicResetAfterNormalStreak) {
  ActionTable table(/*reset_after_normal_executions=*/3);
  table.Transition(1, 5, ActionState::kNormal, "ui");
  table.CountNormalExecution(2, 5);
  table.CountNormalExecution(3, 5);
  EXPECT_EQ(table.Lookup(5).state, ActionState::kNormal);
  table.CountNormalExecution(4, 5);
  EXPECT_EQ(table.Lookup(5).state, ActionState::kUncategorized);
  // Becoming Normal again restarts the streak.
  table.Transition(5, 5, ActionState::kNormal, "ui again");
  table.CountNormalExecution(6, 5);
  EXPECT_EQ(table.Lookup(5).state, ActionState::kNormal);
}

TEST(ActionTableTest, CountNormalIgnoresOtherStates) {
  ActionTable table(1);
  table.Transition(1, 2, ActionState::kHangBug, "bug");
  table.CountNormalExecution(2, 2);
  EXPECT_EQ(table.Lookup(2).state, ActionState::kHangBug);
}

const telemetry::StackFrame kHandler{"onClick", "com.app.Main", "Main.java", 10, false};
const telemetry::StackFrame kClean{"clean", "org.htmlcleaner.HtmlCleaner", "Sanitizer.java", 25,
                                  true};
const telemetry::StackFrame kInflate{"inflate", "android.view.LayoutInflater", "Main.java", 30,
                                    false};
const telemetry::StackFrame kLoop{"processAll", "com.app.Loader", "Loader.java", 50, false};

// Interns test frames into its own SymbolTable, the way an App would at construction.
struct AnalyzerFixture {
  droidsim::SymbolTable symbols;

  telemetry::StackTrace Trace(std::initializer_list<telemetry::StackFrame> frames) {
    telemetry::StackTrace trace;
    for (const telemetry::StackFrame& frame : frames) {
      trace.frames.push_back(symbols.Intern(frame));
    }
    return trace;
  }
};

TEST(TraceAnalyzerTest, DominantApiIsCulprit) {
  TraceAnalyzer analyzer;
  AnalyzerFixture fix;
  std::vector<telemetry::StackTrace> traces;
  for (int i = 0; i < 9; ++i) {
    traces.push_back(fix.Trace({kHandler, kClean}));
  }
  traces.push_back(fix.Trace({kHandler, kInflate}));
  Diagnosis diagnosis = analyzer.Analyze(traces, fix.symbols);
  ASSERT_TRUE(diagnosis.valid);
  EXPECT_EQ(fix.symbols.Frame(diagnosis.culprit).function, "clean");
  EXPECT_NEAR(diagnosis.occurrence_factor, 0.9, 1e-9);
  EXPECT_FALSE(diagnosis.is_ui);
  EXPECT_FALSE(diagnosis.is_self_developed);
}

TEST(TraceAnalyzerTest, UiMajorityIsBenign) {
  TraceAnalyzer analyzer;
  AnalyzerFixture fix;
  std::vector<telemetry::StackTrace> traces;
  for (int i = 0; i < 8; ++i) {
    traces.push_back(fix.Trace({kHandler, kInflate}));
  }
  traces.push_back(fix.Trace({kHandler, kClean}));
  Diagnosis diagnosis = analyzer.Analyze(traces, fix.symbols);
  ASSERT_TRUE(diagnosis.valid);
  EXPECT_TRUE(diagnosis.is_ui);
  EXPECT_EQ(fix.symbols.Frame(diagnosis.culprit).function, "inflate");
}

TEST(TraceAnalyzerTest, SelfDevelopedCallerWhenNoApiDominates) {
  TraceAnalyzer analyzer;
  AnalyzerFixture fix;
  std::vector<telemetry::StackTrace> traces;
  // Many different light callees below a common self-developed loop frame.
  for (int i = 0; i < 12; ++i) {
    telemetry::StackFrame leaf{"op" + std::to_string(i), "java.util.Helper", "Helper.java",
                              i + 1, false};
    traces.push_back(fix.Trace({kHandler, kLoop, leaf}));
  }
  Diagnosis diagnosis = analyzer.Analyze(traces, fix.symbols);
  ASSERT_TRUE(diagnosis.valid);
  EXPECT_TRUE(diagnosis.is_self_developed);
  EXPECT_EQ(fix.symbols.Frame(diagnosis.culprit).function, "processAll");
  EXPECT_FALSE(diagnosis.is_ui);
  EXPECT_NEAR(diagnosis.occurrence_factor, 1.0, 1e-9);
}

TEST(TraceAnalyzerTest, EmptyAndIdleTracesInvalid) {
  TraceAnalyzer analyzer;
  AnalyzerFixture fix;
  EXPECT_FALSE(analyzer.Analyze({}, fix.symbols).valid);
  std::vector<telemetry::StackTrace> idle(3);
  EXPECT_FALSE(analyzer.Analyze(idle, fix.symbols).valid);
}

TEST(TraceAnalyzerTest, IdleSamplesAreIgnoredNotCounted) {
  TraceAnalyzer analyzer;
  AnalyzerFixture fix;
  std::vector<telemetry::StackTrace> traces(5);  // idle
  for (int i = 0; i < 5; ++i) {
    traces.push_back(fix.Trace({kHandler, kClean}));
  }
  Diagnosis diagnosis = analyzer.Analyze(traces, fix.symbols);
  ASSERT_TRUE(diagnosis.valid);
  EXPECT_EQ(diagnosis.samples_used, 5u);
  EXPECT_NEAR(diagnosis.occurrence_factor, 1.0, 1e-9);
}

TEST(ReportTest, RecordsAndSorts) {
  hangdoctor::HangBugReport report;
  AnalyzerFixture fix;
  Diagnosis a;
  a.valid = true;
  a.culprit = fix.symbols.Intern(kClean);
  Diagnosis b;
  b.valid = true;
  b.culprit = fix.symbols.Intern(kLoop);
  b.is_self_developed = true;
  report.Record("com.app", a, fix.symbols, simkit::Milliseconds(500), /*device_id=*/0);
  report.Record("com.app", a, fix.symbols, simkit::Milliseconds(700), /*device_id=*/1);
  report.Record("com.app", b, fix.symbols, simkit::Milliseconds(200), /*device_id=*/0);
  ASSERT_EQ(report.NumBugs(), 2u);
  std::vector<hangdoctor::BugReportEntry> entries = report.SortedEntries();
  EXPECT_EQ(entries[0].api, "org.htmlcleaner.HtmlCleaner.clean");  // 2 devices first
  EXPECT_EQ(entries[0].occurrences, 2);
  EXPECT_EQ(entries[0].devices.size(), 2u);
  EXPECT_NEAR(entries[0].MeanHangMs(), 600.0, 1.0);
  EXPECT_EQ(entries[0].max_hang, simkit::Milliseconds(700));
  EXPECT_TRUE(entries[1].self_developed);
  EXPECT_NE(report.Render(2).find("HtmlCleaner"), std::string::npos);
}

TEST(ReportTest, MergeCombinesDevices) {
  hangdoctor::HangBugReport left;
  hangdoctor::HangBugReport right;
  AnalyzerFixture fix;
  Diagnosis d;
  d.valid = true;
  d.culprit = fix.symbols.Intern(kClean);
  left.Record("com.app", d, fix.symbols, simkit::Milliseconds(300), 0);
  right.Record("com.app", d, fix.symbols, simkit::Milliseconds(400), 1);
  right.Record("com.other", d, fix.symbols, simkit::Milliseconds(100), 1);
  left.Merge(right);
  EXPECT_EQ(left.NumBugs(), 2u);
  std::vector<hangdoctor::BugReportEntry> entries = left.SortedEntries();
  EXPECT_EQ(entries[0].occurrences, 2);
  EXPECT_EQ(entries[0].devices.size(), 2u);
}

TEST(BlockingApiDbTest, SeedAndDiscover) {
  hangdoctor::BlockingApiDatabase database;
  database.SeedKnown("android.hardware.Camera.open");
  EXPECT_TRUE(database.IsKnown("android.hardware.Camera.open"));
  EXPECT_FALSE(database.IsKnown("com.google.gson.Gson.toJson"));
  EXPECT_TRUE(database.AddDiscovered("com.google.gson.Gson.toJson"));
  EXPECT_TRUE(database.IsKnown("com.google.gson.Gson.toJson"));
  // Re-adding is not a new discovery; neither is a seeded API.
  EXPECT_FALSE(database.AddDiscovered("com.google.gson.Gson.toJson"));
  EXPECT_FALSE(database.AddDiscovered("android.hardware.Camera.open"));
  ASSERT_EQ(database.discovered().size(), 1u);
  EXPECT_EQ(database.discovered()[0], "com.google.gson.Gson.toJson");
}

std::vector<LabeledSample> SeparableSamples() {
  // Bugs: ctx in [10, 30]; UI: ctx in [-30, -10]. task separates a second bug group.
  std::vector<LabeledSample> samples;
  for (int i = 0; i < 10; ++i) {
    LabeledSample bug;
    bug.is_bug = true;
    bug.readings = Diffs(10.0 + i * 2, 1e7, 100);
    samples.push_back(bug);
    LabeledSample ui;
    ui.is_bug = false;
    ui.readings = Diffs(-30.0 + i * 2, -1e7, -100);
    samples.push_back(ui);
  }
  // A bug invisible to ctx but visible to task-clock.
  LabeledSample stealth;
  stealth.is_bug = true;
  stealth.readings = Diffs(-25.0, 5e8, 50);
  samples.push_back(stealth);
  return samples;
}

TEST(CorrelationTest, RankEventsPutsDiscriminativeFirst) {
  std::vector<LabeledSample> samples = SeparableSamples();
  std::vector<hangdoctor::RankedEvent> ranking = hangdoctor::RankEvents(samples);
  // ctx or task must rank ahead of never-varying events.
  EXPECT_TRUE(ranking[0].event == PerfEventType::kContextSwitches ||
              ranking[0].event == PerfEventType::kTaskClock ||
              ranking[0].event == PerfEventType::kPageFaults);
  EXPECT_GT(ranking[0].correlation, 0.5);
  // Constant-zero events correlate at 0.
  double alignment = 0.0;
  for (const hangdoctor::RankedEvent& ranked : ranking) {
    if (ranked.event == PerfEventType::kAlignmentFaults) {
      alignment = ranked.correlation;
    }
  }
  EXPECT_DOUBLE_EQ(alignment, 0.0);
}

TEST(CorrelationTest, TrainFilterCoversEveryBug) {
  std::vector<LabeledSample> samples = SeparableSamples();
  std::vector<hangdoctor::RankedEvent> ranking = hangdoctor::RankEvents(samples);
  SoftHangFilter filter = hangdoctor::TrainFilter(samples, ranking);
  hangdoctor::FilterQuality quality = hangdoctor::EvaluateFilter(filter, samples);
  EXPECT_EQ(quality.false_negatives, 0);  // all bugs covered (the paper's primary target)
  EXPECT_GE(filter.conditions().size(), 1u);
}

TEST(CorrelationTest, EvaluateFilterCountsConfusionMatrix) {
  SoftHangFilter filter({{PerfEventType::kContextSwitches, 0.0}});
  std::vector<LabeledSample> samples;
  LabeledSample tp;
  tp.is_bug = true;
  tp.readings = Diffs(5, 0, 0);
  LabeledSample fn;
  fn.is_bug = true;
  fn.readings = Diffs(-5, 0, 0);
  LabeledSample fp;
  fp.is_bug = false;
  fp.readings = Diffs(5, 0, 0);
  LabeledSample tn;
  tn.is_bug = false;
  tn.readings = Diffs(-5, 0, 0);
  samples = {tp, fn, fp, tn};
  hangdoctor::FilterQuality quality = hangdoctor::EvaluateFilter(filter, samples);
  EXPECT_EQ(quality.true_positives, 1);
  EXPECT_EQ(quality.false_negatives, 1);
  EXPECT_EQ(quality.false_positives, 1);
  EXPECT_EQ(quality.true_negatives, 1);
  EXPECT_DOUBLE_EQ(quality.Accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(quality.FalsePositivePruneRate(), 0.5);
}

TEST(OverheadMeterTest, PercentIsMeanOfCpuAndMemory) {
  hangdoctor::OverheadMeter meter;
  meter.AddCpu(simkit::Milliseconds(10));
  meter.AddMemory(1024);
  // 10 ms of 1 s = 1% CPU; 1 KiB of 100 KiB = 1% memory -> 1% overall.
  EXPECT_NEAR(meter.OverheadPercent(simkit::Seconds(1), 100 * 1024), 1.0, 1e-9);
  meter.Reset();
  EXPECT_DOUBLE_EQ(meter.OverheadPercent(simkit::Seconds(1), 100 * 1024), 0.0);
}

TEST(OverheadMeterTest, ZeroDenominatorsAreSafe) {
  hangdoctor::OverheadMeter meter;
  meter.AddCpu(simkit::Milliseconds(5));
  EXPECT_DOUBLE_EQ(meter.OverheadPercent(0, 0), 0.0);
}

}  // namespace
