// KnowledgeBase unit tests: the epoch-publication protocol in isolation. Snapshot acquire /
// immutability, the deterministic (session id, discovery order) merge, memo first-wins, the
// overlay database semantics snapshots rest on, and the memo key's injectivity.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/hangdoctor/blocking_api_db.h"
#include "src/hangdoctor/knowledge_base.h"
#include "src/telemetry/stack.h"
#include "src/telemetry/symbols.h"

namespace {

hangdoctor::BlockingApiDatabase SeedDb() {
  hangdoctor::BlockingApiDatabase seed;
  seed.SeedKnown("android.hardware.Camera.open");
  seed.SeedKnown("android.graphics.BitmapFactory.decodeStream");
  return seed;
}

// The frames the memo entries below name as culprits, interned once per test process.
telemetry::SymbolTable& Culprits() {
  static telemetry::SymbolTable* symbols = new telemetry::SymbolTable();
  return *symbols;
}

hangdoctor::DiagnosisMemoEntry MemoEntry(const std::string& key_package,
                                         const std::string& culprit_function) {
  hangdoctor::DiagnosisMemoEntry entry;
  entry.key.app_package = key_package;
  entry.key.symbols_fingerprint = 0x1234;
  entry.key.shape = {1, 7};
  entry.diagnosis.valid = true;
  entry.diagnosis.culprit =
      Culprits().Intern({culprit_function, "com.example.Worker", "Worker.java", 1},
                        /*is_ui=*/false);
  return entry;
}

TEST(KnowledgeBaseTest, SeedIsVisibleFromTheFirstSnapshot) {
  hangdoctor::KnowledgeBase kb(SeedDb());
  hangdoctor::KnowledgeBase::Snapshot snap = kb.Acquire();
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(snap.epoch(), 0u);
  EXPECT_TRUE(snap.IsKnown("android.hardware.Camera.open"));
  EXPECT_FALSE(snap.IsKnown("com.example.Worker.block"));
  EXPECT_EQ(snap.discovered_size(), 0u);
  EXPECT_EQ(snap.memo_size(), 0u);
  // A default-constructed snapshot is the "no knowledge base" state.
  EXPECT_FALSE(hangdoctor::KnowledgeBase::Snapshot{}.valid());
}

TEST(KnowledgeBaseTest, OverlayDatabaseIsBitEquivalentToAPrivateCopy) {
  hangdoctor::BlockingApiDatabase seed = SeedDb();
  hangdoctor::BlockingApiDatabase overlay;
  overlay.SetBase(&seed);
  EXPECT_TRUE(overlay.IsKnown("android.hardware.Camera.open"));
  EXPECT_EQ(overlay.size(), seed.size());
  // A base-known API is never a discovery; a new one is a discovery exactly once.
  EXPECT_FALSE(overlay.AddDiscovered("android.hardware.Camera.open"));
  EXPECT_TRUE(overlay.AddDiscovered("com.example.Worker.block"));
  EXPECT_FALSE(overlay.AddDiscovered("com.example.Worker.block"));
  EXPECT_TRUE(overlay.IsKnown("com.example.Worker.block"));
  EXPECT_EQ(overlay.size(), seed.size() + 1);
  ASSERT_EQ(overlay.discovered().size(), 1u);
  EXPECT_EQ(overlay.discovered()[0], "com.example.Worker.block");
  // The base never mutates.
  EXPECT_FALSE(seed.IsKnown("com.example.Worker.block"));
}

TEST(KnowledgeBaseTest, PublishMergesAndOldSnapshotsStayImmutable) {
  hangdoctor::KnowledgeBase kb(SeedDb());
  hangdoctor::KnowledgeBase::Snapshot before = kb.Acquire();

  kb.AbsorbSession(telemetry::SessionId{3}, {"com.example.Worker.block"},
                   {MemoEntry("com.example.app", "block")}, {});
  // Nothing is visible until the epoch boundary.
  EXPECT_EQ(kb.Acquire().epoch(), 0u);
  EXPECT_FALSE(kb.Acquire().IsKnown("com.example.Worker.block"));

  EXPECT_TRUE(kb.Publish());
  hangdoctor::KnowledgeBase::Snapshot after = kb.Acquire();
  EXPECT_EQ(after.epoch(), 1u);
  EXPECT_TRUE(after.IsKnown("com.example.Worker.block"));
  EXPECT_TRUE(after.IsKnown("android.hardware.Camera.open"));  // seed still overlaid
  EXPECT_EQ(after.discovered_size(), 1u);
  EXPECT_EQ(after.memo_size(), 1u);

  // The pre-publish snapshot is frozen: RCU readers never see in-place mutation.
  EXPECT_EQ(before.epoch(), 0u);
  EXPECT_FALSE(before.IsKnown("com.example.Worker.block"));
  EXPECT_EQ(before.memo_size(), 0u);

  // An empty epoch is a no-op, not a new version.
  EXPECT_FALSE(kb.Publish());
  EXPECT_EQ(kb.Acquire().epoch(), 1u);
}

TEST(KnowledgeBaseTest, MergeOrderIsSessionThenDiscoveryOrderNotArrivalOrder) {
  // Two sessions race the same memo key with different diagnoses (impossible with the pure
  // analyzer, but exactly what the determinism contract must pin down): the merged value is
  // the lowest (session id, order) writer's, no matter which AbsorbSession ran first.
  hangdoctor::DiagnosisMemoEntry late = MemoEntry("com.example.app", "from_session_9");
  hangdoctor::DiagnosisMemoEntry early = MemoEntry("com.example.app", "from_session_2");
  ASSERT_TRUE(late.key == early.key);

  hangdoctor::KnowledgeBase kb;
  kb.AbsorbSession(telemetry::SessionId{9}, {}, {late}, {});
  kb.AbsorbSession(telemetry::SessionId{2}, {}, {early}, {});
  ASSERT_TRUE(kb.Publish());

  hangdoctor::KnowledgeBase::Snapshot snap = kb.Acquire();
  const hangdoctor::Diagnosis* memo = snap.FindMemo(early.key);
  ASSERT_NE(memo, nullptr);
  EXPECT_EQ(Culprits().Frame(memo->culprit).function, "from_session_2");

  // Same race, arrival order flipped: identical winner.
  hangdoctor::KnowledgeBase flipped;
  flipped.AbsorbSession(telemetry::SessionId{2}, {}, {early}, {});
  flipped.AbsorbSession(telemetry::SessionId{9}, {}, {late}, {});
  ASSERT_TRUE(flipped.Publish());
  const hangdoctor::Diagnosis* flipped_memo = flipped.Acquire().FindMemo(early.key);
  ASSERT_NE(flipped_memo, nullptr);
  EXPECT_EQ(Culprits().Frame(flipped_memo->culprit).function, "from_session_2");
}

TEST(KnowledgeBaseTest, StatsAccumulateAcrossAbsorbAndPublish) {
  hangdoctor::KnowledgeBase kb(SeedDb());
  hangdoctor::KbSessionStats session_stats;
  session_stats.memo_hits = 3;
  session_stats.memo_misses = 1;
  session_stats.known_hits = 2;
  kb.AbsorbSession(telemetry::SessionId{1}, {"com.example.A.x"},
                   {MemoEntry("com.example.app", "x")}, session_stats);
  kb.AbsorbSession(telemetry::SessionId{2}, {"com.example.B.y"}, {}, session_stats);
  kb.Publish();

  hangdoctor::KnowledgeBase::Stats stats = kb.TotalStats();
  EXPECT_EQ(stats.sessions_absorbed, 2);
  EXPECT_EQ(stats.publishes, 1);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.memo_hits, 6);
  EXPECT_EQ(stats.memo_misses, 2);
  EXPECT_EQ(stats.known_hits, 4);
  EXPECT_EQ(stats.discovered, 2u);
  EXPECT_EQ(stats.memo_entries, 1u);
}

// Four plain frames (ids 0..3), none UI, lines 10*i.
void FillTable(telemetry::SymbolTable& table) {
  for (int i = 0; i < 4; ++i) {
    telemetry::StackFrame frame;
    frame.function = "f" + std::to_string(i);
    frame.clazz = "com.example.C" + std::to_string(i);
    frame.file = "C.java";
    frame.line = 10 * i;
    table.Intern(frame, /*is_ui=*/false);
  }
}

// "clazz.function@file:line" of `id` in `symbols`.
std::string Site(const telemetry::SymbolTable& symbols, telemetry::FrameId id) {
  const telemetry::StackFrame& frame = symbols.Frame(id);
  return frame.clazz + "." + frame.function + "@" + frame.file + ":" + std::to_string(frame.line);
}

TEST(KnowledgeBaseTest, MemoHitRendersTheSameCulpritAsAFreshAnalysis) {
  // Memos hold frame ids, not strings. The key's fingerprint pins the table's (size,
  // content hash), so a memo published from one session's table and hit from another,
  // independently interned, table resolves to the same frames a fresh AnalyzeCausal over
  // the second table names — culprit and wait site both.
  auto intern_app = [](telemetry::SymbolTable& table) {
    table.Intern({"onClick", "com.example.Main", "Main.java", 10}, /*is_ui=*/false);
    table.Intern({"get", "java.util.concurrent.FutureTask", "Main.java", 12}, false);
    table.Intern({"run", "com.example.Loader", "Loader.java", 30}, false, true);
    table.Intern({"clean", "org.htmlcleaner.HtmlCleaner", "Loader.java", 31}, false);
  };
  telemetry::SymbolTable publisher;
  telemetry::SymbolTable reader;
  intern_app(publisher);
  intern_app(reader);
  std::vector<telemetry::StackTrace> traces;
  for (int i = 0; i < 6; ++i) {
    telemetry::StackTrace main_sample;
    main_sample.frames = {0, 1};  // the main thread blocks in Future.get
    traces.push_back(main_sample);
    telemetry::StackTrace async_sample;
    async_sample.thread = 1;
    async_sample.frames = {2, 3};  // the worker runs HtmlCleaner.clean
    traces.push_back(async_sample);
  }
  const std::vector<telemetry::FrameId> wait_frames = {1};
  hangdoctor::TraceAnalyzer analyzer;
  hangdoctor::TraceAnalyzerConfig config = analyzer.config();

  hangdoctor::DiagnosisMemoEntry published;
  published.key = hangdoctor::MakeDiagnosisMemoKey(traces, publisher, "com.example.app", config,
                                                   wait_frames);
  published.diagnosis = analyzer.AnalyzeCausal(traces, publisher, wait_frames);
  hangdoctor::KnowledgeBase kb;
  kb.AbsorbSession(telemetry::SessionId{1}, {}, {published}, {});
  ASSERT_TRUE(kb.Publish());

  const hangdoctor::Diagnosis* hit = kb.Acquire().FindMemo(hangdoctor::MakeDiagnosisMemoKey(
      traces, reader, "com.example.app", config, wait_frames));
  ASSERT_NE(hit, nullptr);
  hangdoctor::Diagnosis fresh = analyzer.AnalyzeCausal(traces, reader, wait_frames);
  ASSERT_TRUE(fresh.valid);
  ASSERT_TRUE(fresh.via_async_wait);
  EXPECT_EQ(Site(reader, hit->culprit), Site(reader, fresh.culprit));
  EXPECT_EQ(Site(reader, hit->culprit), "org.htmlcleaner.HtmlCleaner.clean@Loader.java:31");
  ASSERT_TRUE(hit->via_async_wait);
  EXPECT_EQ(Site(reader, hit->wait_frame), Site(reader, fresh.wait_frame));
  EXPECT_EQ(hit->is_self_developed, fresh.is_self_developed);
  EXPECT_EQ(hit->occurrence_factor, fresh.occurrence_factor);
}

TEST(KnowledgeBaseTest, MemoKeyShapeFlatteningIsInjective) {
  // Traces [[1,2],[3]] and [[1],[2,3]] carry the same frame multiset; the per-trace
  // (depth, frames...) flattening must still tell them apart.
  telemetry::StackTrace a1;
  a1.frames = {1, 2};
  telemetry::StackTrace a2;
  a2.frames = {3};
  telemetry::StackTrace b1;
  b1.frames = {1};
  telemetry::StackTrace b2;
  b2.frames = {2, 3};
  hangdoctor::TraceAnalyzerConfig config;
  telemetry::SymbolTable symbols;
  FillTable(symbols);
  std::vector<telemetry::StackTrace> set_a = {a1, a2};
  std::vector<telemetry::StackTrace> set_b = {b1, b2};
  hangdoctor::DiagnosisMemoKey key_a =
      hangdoctor::MakeDiagnosisMemoKey(set_a, symbols, "com.example.app", config);
  hangdoctor::DiagnosisMemoKey key_b =
      hangdoctor::MakeDiagnosisMemoKey(set_b, symbols, "com.example.app", config);
  EXPECT_FALSE(key_a == key_b);
  // Same distinct-id set {1,2,3} over the same table: the fingerprints agree — only the
  // shape separates the keys, exactly as intended.
  EXPECT_EQ(key_a.symbols_fingerprint, key_b.symbols_fingerprint);

  // Every key dimension participates: package and analyzer thresholds too.
  hangdoctor::DiagnosisMemoKey other_package =
      hangdoctor::MakeDiagnosisMemoKey(set_a, symbols, "com.example.other", config);
  EXPECT_FALSE(key_a == other_package);
  hangdoctor::TraceAnalyzerConfig tweaked = config;
  tweaked.api_occurrence_threshold += 0.125;
  hangdoctor::DiagnosisMemoKey other_config =
      hangdoctor::MakeDiagnosisMemoKey(set_a, symbols, "com.example.app", tweaked);
  EXPECT_FALSE(key_a == other_config);

  hangdoctor::DiagnosisMemoKey same =
      hangdoctor::MakeDiagnosisMemoKey(set_a, symbols, "com.example.app", config);
  EXPECT_TRUE(key_a == same);
  EXPECT_EQ(key_a.Hash(), same.Hash());
}

TEST(KnowledgeBaseTest, FingerprintIsWholeTableContentIdentity) {
  // The key's fingerprint is the table's size plus its incremental content hash: two
  // sessions share memos exactly when their tables interned identical frame sequences.
  // Any content difference — even in a frame the traces never name — separates the keys.
  // That is conservative (Analyze could not observe the untraced frame) but never wrong:
  // equal keys still imply equal Analyze output, and the cost is only an extra miss.
  hangdoctor::TraceAnalyzerConfig config;
  telemetry::StackTrace trace;
  trace.frames = {0, 1};
  std::vector<telemetry::StackTrace> traces = {trace};

  auto key_for = [&](bool frame1_ui, int32_t frame1_line, int32_t frame3_line,
                     int extra_frames) {
    telemetry::SymbolTable table;
    for (int i = 0; i < 4 + extra_frames; ++i) {
      telemetry::StackFrame frame;
      frame.function = "f" + std::to_string(i);
      frame.clazz = "com.example.C" + std::to_string(i);
      frame.file = "C.java";
      frame.line = i == 1 ? frame1_line : i == 3 ? frame3_line : 10 * i;
      table.Intern(frame, /*is_ui=*/i == 1 && frame1_ui);
    }
    return hangdoctor::MakeDiagnosisMemoKey(traces, table, "com.example.app", config);
  };
  // Independently interned but content-identical tables agree: cross-session memo sharing
  // (the whole point of the shared KB) works without pointer identity.
  hangdoctor::DiagnosisMemoKey base = key_for(true, 120, 30, 0);
  EXPECT_TRUE(base == key_for(true, 120, 30, 0));
  // Frame content and UI classification are analyzer inputs: part of the identity.
  EXPECT_FALSE(base == key_for(false, 120, 30, 0));
  EXPECT_FALSE(base == key_for(true, 121, 30, 0));
  // Frame 3 is outside every trace, but the whole-table hash pins it anyway: a miss, by
  // design, rather than per-diagnosis string hashing to prove it could not matter.
  EXPECT_FALSE(base == key_for(true, 120, 31, 0));
  // Table size separates too (it decides out-of-range-id discards).
  EXPECT_FALSE(base == key_for(true, 120, 30, 1));

  // An id past the end of the table never dereferences it; the key is still well-formed and
  // reproducible.
  telemetry::StackTrace wild;
  wild.frames = {1, 99};
  traces = {wild};
  hangdoctor::DiagnosisMemoKey wild_key = key_for(true, 120, 30, 0);
  EXPECT_TRUE(wild_key == key_for(true, 120, 30, 0));
  EXPECT_FALSE(wild_key == base);  // different shape
}

}  // namespace
