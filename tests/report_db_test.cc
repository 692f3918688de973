// Unit tests for the two shared detector outputs: the BlockingApiDatabase (seed / discover /
// copy semantics the fleet runner's per-job private copies rely on) and the HangBugReport
// (record / merge / ordering / rendering, including string materialization from interned
// FrameId stack samples via the Trace Analyzer).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/hangdoctor/blocking_api_db.h"
#include "src/hangdoctor/report.h"
#include "src/hangdoctor/trace_analyzer.h"
#include "src/telemetry/symbols.h"

namespace {

TEST(BlockingApiDatabaseTest, SeedKnownIsQueryableAndNotADiscovery) {
  hangdoctor::BlockingApiDatabase db;
  db.SeedKnown("android.graphics.BitmapFactory.decodeFile");
  EXPECT_TRUE(db.IsKnown("android.graphics.BitmapFactory.decodeFile"));
  EXPECT_FALSE(db.IsKnown("android.hardware.Camera.open"));
  EXPECT_TRUE(db.discovered().empty());
  EXPECT_EQ(db.size(), 1u);
}

TEST(BlockingApiDatabaseTest, AddDiscoveredDeduplicatesAndKeepsInsertionOrder) {
  hangdoctor::BlockingApiDatabase db;
  db.SeedKnown("known.Api.call");
  EXPECT_FALSE(db.AddDiscovered("known.Api.call"));  // already known: not a discovery
  EXPECT_TRUE(db.AddDiscovered("b.Second.call"));
  EXPECT_TRUE(db.AddDiscovered("a.First.call"));
  EXPECT_FALSE(db.AddDiscovered("b.Second.call"));  // repeat diagnosis: recorded once
  EXPECT_TRUE(db.IsKnown("a.First.call"));
  // discovered() preserves discovery order (not sorted), one entry per API.
  const std::vector<std::string> expected = {"b.Second.call", "a.First.call"};
  EXPECT_EQ(db.discovered(), expected);
  EXPECT_EQ(db.size(), 3u);
}

TEST(BlockingApiDatabaseTest, CopiesAreIndependent) {
  // The fleet runner hands each job a private copy of the known database; a job's
  // discoveries must never leak into the original or into sibling copies.
  hangdoctor::BlockingApiDatabase original;
  original.SeedKnown("known.Api.call");

  hangdoctor::BlockingApiDatabase job_a = original;
  hangdoctor::BlockingApiDatabase job_b = original;
  EXPECT_TRUE(job_a.AddDiscovered("job_a.Only.call"));
  EXPECT_TRUE(job_b.AddDiscovered("job_b.Only.call"));

  EXPECT_FALSE(original.IsKnown("job_a.Only.call"));
  EXPECT_FALSE(original.IsKnown("job_b.Only.call"));
  EXPECT_TRUE(original.discovered().empty());
  EXPECT_FALSE(job_a.IsKnown("job_b.Only.call"));
  EXPECT_FALSE(job_b.IsKnown("job_a.Only.call"));
  EXPECT_EQ(job_a.discovered(), std::vector<std::string>{"job_a.Only.call"});
  EXPECT_EQ(job_b.discovered(), std::vector<std::string>{"job_b.Only.call"});
}

TEST(BlockingApiDatabaseTest, CopyCarriesPriorDiscoveries) {
  hangdoctor::BlockingApiDatabase original;
  ASSERT_TRUE(original.AddDiscovered("early.Find.call"));
  hangdoctor::BlockingApiDatabase copy = original;
  EXPECT_TRUE(copy.IsKnown("early.Find.call"));
  EXPECT_EQ(copy.discovered(), original.discovered());
  EXPECT_FALSE(copy.AddDiscovered("early.Find.call"));
}

// A diagnosis whose culprit frame is interned into `symbols`.
hangdoctor::Diagnosis MakeDiagnosis(telemetry::SymbolTable& symbols, const std::string& clazz,
                                    const std::string& function, const std::string& file,
                                    int32_t line, bool self_developed = false) {
  hangdoctor::Diagnosis diagnosis;
  diagnosis.valid = true;
  diagnosis.culprit = symbols.Intern({function, clazz, file, line}, /*is_ui=*/false);
  diagnosis.is_self_developed = self_developed;
  diagnosis.occurrence_factor = 1.0;
  diagnosis.samples_used = 5;
  return diagnosis;
}

TEST(HangBugReportTest, RecordAggregatesPerBug) {
  hangdoctor::HangBugReport report;
  telemetry::SymbolTable symbols;
  hangdoctor::Diagnosis bug = MakeDiagnosis(symbols, "org.app.Db", "query", "Db.java", 42);
  report.Record("org.app", bug, symbols, simkit::Milliseconds(200), /*device_id=*/0);
  report.Record("org.app", bug, symbols, simkit::Milliseconds(400), /*device_id=*/1);
  report.Record("org.app", bug, symbols, simkit::Milliseconds(300), /*device_id=*/1);
  ASSERT_EQ(report.NumBugs(), 1u);

  const hangdoctor::BugReportEntry entry = report.SortedEntries()[0];
  EXPECT_EQ(entry.api, "org.app.Db.query");
  EXPECT_EQ(entry.file, "Db.java");
  EXPECT_EQ(entry.line, 42);
  EXPECT_EQ(entry.occurrences, 3);
  EXPECT_EQ(entry.devices.size(), 2u);
  EXPECT_EQ(entry.max_hang, simkit::Milliseconds(400));
  EXPECT_DOUBLE_EQ(entry.MeanHangMs(), 300.0);
}

TEST(HangBugReportTest, MergeFoldsDevicesAndSortsByCoverage) {
  telemetry::SymbolTable symbols;
  hangdoctor::Diagnosis wide = MakeDiagnosis(symbols, "a.Wide", "call", "Wide.java", 1);
  hangdoctor::Diagnosis narrow = MakeDiagnosis(symbols, "b.Narrow", "call", "Narrow.java", 2);

  hangdoctor::HangBugReport device0;
  device0.Record("org.app", wide, symbols, simkit::Milliseconds(150), 0);
  device0.Record("org.app", narrow, symbols, simkit::Milliseconds(900), 0);
  device0.Record("org.app", narrow, symbols, simkit::Milliseconds(900), 0);

  hangdoctor::HangBugReport device1;
  device1.Record("org.app", wide, symbols, simkit::Milliseconds(250), 1);

  hangdoctor::HangBugReport fleet;
  fleet.Merge(device0);
  fleet.Merge(device1);
  ASSERT_EQ(fleet.NumBugs(), 2u);

  // Sorted by device coverage first: `wide` (2 devices) outranks `narrow` (2 occurrences
  // but 1 device).
  std::vector<hangdoctor::BugReportEntry> entries = fleet.SortedEntries();
  EXPECT_EQ(entries[0].api, "a.Wide.call");
  EXPECT_EQ(entries[0].devices.size(), 2u);
  EXPECT_EQ(entries[1].api, "b.Narrow.call");
  EXPECT_EQ(entries[1].occurrences, 2);
  EXPECT_EQ(entries[1].max_hang, simkit::Milliseconds(900));
}

TEST(HangBugReportTest, RenderMaterializesApiAndSite) {
  hangdoctor::HangBugReport report;
  telemetry::SymbolTable symbols;
  report.Record("org.app", MakeDiagnosis(symbols, "org.app.Net", "fetch", "Net.java", 7),
                symbols, simkit::Milliseconds(500), 0);
  std::string rendered = report.Render(/*total_devices=*/4);
  EXPECT_NE(rendered.find("org.app.Net.fetch"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("Net.java"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("25"), std::string::npos) << rendered;  // 1 of 4 devices = 25%
}

TEST(HangBugReportTest, RenderMaterializesInternedFrames) {
  // End-to-end string materialization: stacks built from dense FrameIds, analyzed by the
  // Trace Analyzer against the owning SymbolTable, recorded, and rendered as strings.
  telemetry::SymbolTable symbols;
  telemetry::FrameId looper = symbols.Intern(
      {"loop", "android.os.Looper", "Looper.java", 160}, /*is_ui=*/false);
  telemetry::FrameId decode = symbols.Intern(
      {"decodeStream", "android.graphics.BitmapFactory", "BitmapFactory.java", 623},
      /*is_ui=*/false);

  std::vector<telemetry::StackTrace> traces(6);
  for (telemetry::StackTrace& trace : traces) {
    trace.frames = {looper, decode};  // innermost last
  }
  hangdoctor::TraceAnalyzer analyzer;
  hangdoctor::Diagnosis diagnosis = analyzer.Analyze(traces, symbols);
  ASSERT_TRUE(diagnosis.valid);
  EXPECT_FALSE(diagnosis.is_ui);
  EXPECT_FALSE(diagnosis.is_self_developed);
  EXPECT_EQ(symbols.Frame(diagnosis.culprit).clazz, "android.graphics.BitmapFactory");

  hangdoctor::HangBugReport report;
  report.Record("org.other.app", diagnosis, symbols, simkit::Milliseconds(350), 2);
  std::string rendered = report.Render(/*total_devices=*/4);
  EXPECT_NE(rendered.find("android.graphics.BitmapFactory.decodeStream"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("BitmapFactory.java"), std::string::npos) << rendered;
}

}  // namespace
