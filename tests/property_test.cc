// Property-based tests: parameterized sweeps over seeds and configurations asserting the
// system's invariants rather than specific values.
#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/detector.h"
#include "src/hangdoctor/trace_analyzer.h"
#include "src/hosts/hang_doctor.h"
#include "src/workload/catalog.h"
#include "src/workload/experiment.h"
#include "src/workload/training.h"
#include "src/simkit/rng.h"
#include "src/workload/user_model.h"

namespace {

const workload::Catalog& SharedCatalog() {
  static const workload::Catalog* catalog = new workload::Catalog();
  return *catalog;
}

// ---------- Property: simulation runs are deterministic in the seed ----------

class DeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismTest, SameSeedSameDetections) {
  const workload::Catalog& catalog = SharedCatalog();
  auto run = [&](uint64_t seed) {
    workload::SingleAppHarness harness(droidsim::LgV10(), catalog.FindApp("K9-Mail"), seed);
    hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(),
                                  hangdoctor::HangDoctorConfig{});
    harness.RunUserSession(simkit::Seconds(60));
    std::vector<std::pair<int64_t, int>> log;
    for (const hangdoctor::ExecutionRecord& record : doctor.log()) {
      log.emplace_back(record.response, static_cast<int>(record.verdict));
    }
    return log;
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest, ::testing::Values(1, 17, 9001));

// ---------- Property: the kernel never creates CPU time out of thin air ----------

class ConservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConservationTest, TotalCpuBoundedByWallClockTimesCores) {
  const workload::Catalog& catalog = SharedCatalog();
  droidsim::Phone phone(droidsim::LgV10(), GetParam());
  droidsim::App* app = phone.InstallApp(catalog.FindApp("QKSMS"));
  workload::UserSession user(&phone, app, phone.ForkRng(1));
  phone.RunFor(simkit::Seconds(45));
  simkit::SimDuration total = 0;
  for (kernelsim::ThreadId tid :
       {app->main_tid(), app->render_tid(), app->worker_looper().tid()}) {
    total += phone.kernel().GetThread(tid).stats.cpu_time;
  }
  EXPECT_LE(total, phone.Now() * phone.profile().kernel.num_cpus);
  // And per-thread CPU never exceeds the wall clock.
  EXPECT_LE(phone.kernel().GetThread(app->main_tid()).stats.cpu_time, phone.Now());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationTest, ::testing::Values(2, 23, 404));

// ---------- Property: Hang Doctor never convicts a bug-free app ----------

class NoFalseConvictionTest : public ::testing::TestWithParam<int> {};

TEST_P(NoFalseConvictionTest, FillerAppsProduceNoBugReports) {
  const workload::Catalog& catalog = SharedCatalog();
  const droidsim::AppSpec* spec = catalog.filler_apps()[static_cast<size_t>(GetParam())];
  workload::SingleAppHarness harness(droidsim::LgV10(), spec, 600 + GetParam());
  hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(),
                                hangdoctor::HangDoctorConfig{});
  harness.RunUserSession(simkit::Seconds(90));
  EXPECT_EQ(doctor.local_report().NumBugs(), 0u)
      << doctor.local_report().Render(1) << " in " << spec->name;
}

INSTANTIATE_TEST_SUITE_P(FillerApps, NoFalseConvictionTest,
                         ::testing::Values(0, 7, 19, 33, 42, 58, 71, 89));

// ---------- Property: longer timeouts can only reduce what TI traces ----------

class TimeoutMonotonicityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TimeoutMonotonicityTest, TracedCountDecreasesWithTimeout) {
  const workload::Catalog& catalog = SharedCatalog();
  workload::SingleAppHarness harness(droidsim::LgV10(), catalog.FindApp(GetParam()), 77);
  std::vector<std::unique_ptr<baselines::TimeoutDetector>> detectors;
  for (simkit::SimDuration timeout :
       {simkit::Milliseconds(100), simkit::Milliseconds(500), simkit::Seconds(1),
        simkit::Seconds(5)}) {
    baselines::TimeoutDetectorConfig config;
    config.timeout = timeout;
    detectors.push_back(std::make_unique<baselines::TimeoutDetector>(&harness.phone(),
                                                                     &harness.app(), config));
  }
  harness.RunUserSession(simkit::Seconds(90));
  std::vector<int64_t> traced;
  for (const auto& detector : detectors) {
    int64_t count = 0;
    for (const baselines::DetectionOutcome& outcome : detector->outcomes()) {
      count += outcome.traced ? 1 : 0;
    }
    traced.push_back(count);
  }
  for (size_t i = 1; i < traced.size(); ++i) {
    EXPECT_LE(traced[i], traced[i - 1]) << "timeout index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, TimeoutMonotonicityTest,
                         ::testing::Values("K9-Mail", "SeaDroid", "cgeo"));

// ---------- Property: S-Checker's phase-1 verdicts never pay for traces ----------

class PhaseCostTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PhaseCostTest, OnlyDiagnoserExecutionsTrace) {
  const workload::Catalog& catalog = SharedCatalog();
  workload::SingleAppHarness harness(droidsim::LgV10(), catalog.FindApp(GetParam()), 88);
  hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(),
                                hangdoctor::HangDoctorConfig{});
  harness.RunUserSession(simkit::Seconds(120));
  for (const hangdoctor::ExecutionRecord& record : doctor.log()) {
    if (record.traced) {
      EXPECT_TRUE(record.diagnoser_ran);
      EXPECT_TRUE(record.state_before == hangdoctor::ActionState::kSuspicious ||
                  record.state_before == hangdoctor::ActionState::kHangBug);
    }
    if (record.verdict == hangdoctor::Verdict::kFilteredUi ||
        record.verdict == hangdoctor::Verdict::kMarkedSuspicious) {
      EXPECT_FALSE(record.traced);  // phase 1 is counters-only
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, PhaseCostTest,
                         ::testing::Values("AndStatus", "Omni-Notes", "SageMath", "SkyTube"));

// ---------- Property: every diagnosed culprit names a real operation of the app ----------

class CulpritValidityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CulpritValidityTest, DiagnosedCulpritsExistInAppSpec) {
  const workload::Catalog& catalog = SharedCatalog();
  const droidsim::AppSpec* spec = catalog.FindApp(GetParam());
  workload::SingleAppHarness harness(droidsim::LgV10(), spec, 99);
  hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(),
                                hangdoctor::HangDoctorConfig{});
  harness.RunUserSession(simkit::Seconds(150));
  // Collect every (clazz.function) reachable from the app spec, plus handlers.
  std::set<std::string> known;
  std::function<void(const droidsim::OpNode&)> walk = [&](const droidsim::OpNode& node) {
    known.insert(node.api->FullName());
    for (const droidsim::OpNode& child : node.children) {
      walk(child);
    }
  };
  for (const droidsim::ActionSpec& action : spec->actions) {
    for (const droidsim::InputEventSpec& event : action.events) {
      known.insert("." + event.handler);  // handler frames have an empty class
      for (const droidsim::OpNode& node : event.ops) {
        walk(node);
      }
    }
  }
  for (const hangdoctor::BugReportEntry& entry : doctor.local_report().SortedEntries()) {
    EXPECT_TRUE(known.count(entry.api) > 0) << entry.api;
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, CulpritValidityTest,
                         ::testing::Values("K9-Mail", "CycleStreets", "QKSMS", "Merchant",
                                           "RadioDroid"));

// ---------- Property: trained filters never miss a training bug ----------

class TrainerCoverageTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrainerCoverageTest, ZeroFalseNegativesOnTrainingSet) {
  const workload::Catalog& catalog = SharedCatalog();
  workload::TrainingConfig config;
  config.executions_per_op = 5;
  config.seed = GetParam();
  workload::TrainingData data = workload::CollectTrainingSamples(catalog, config);
  std::vector<hangdoctor::RankedEvent> ranking = hangdoctor::RankEvents(data.diff_samples);
  hangdoctor::SoftHangFilter filter = hangdoctor::TrainFilter(data.diff_samples, ranking);
  hangdoctor::FilterQuality quality = hangdoctor::EvaluateFilter(filter, data.diff_samples);
  // Zero false negatives is the paper's hard requirement; false-positive pruning is a
  // best-effort secondary objective (it can collapse on tiny training sets, so it is asserted
  // separately on the full-size set below).
  EXPECT_EQ(quality.false_negatives, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrainerCoverageTest, ::testing::Values(99, 123, 7777));

TEST(TrainerQualityTest, FullTrainingSetPrunesMostUiHangs) {
  const workload::Catalog& catalog = SharedCatalog();
  workload::TrainingConfig config;  // full-size defaults
  workload::TrainingData data = workload::CollectTrainingSamples(catalog, config);
  std::vector<hangdoctor::RankedEvent> ranking = hangdoctor::RankEvents(data.diff_samples);
  hangdoctor::SoftHangFilter filter = hangdoctor::TrainFilter(data.diff_samples, ranking);
  hangdoctor::FilterQuality quality = hangdoctor::EvaluateFilter(filter, data.diff_samples);
  EXPECT_EQ(quality.false_negatives, 0);
  EXPECT_GT(quality.FalsePositivePruneRate(), 0.5);
  EXPECT_GT(quality.Accuracy(), 0.75);
}

// ---------- Property: responses and quiescence are sane across the whole corpus ----------

class ResponseSanityTest : public ::testing::TestWithParam<int> {};

TEST_P(ResponseSanityTest, EveryExecutionQuiescesWithNonNegativeResponse) {
  const workload::Catalog& catalog = SharedCatalog();
  const droidsim::AppSpec* spec =
      catalog.study_apps()[static_cast<size_t>(GetParam()) % catalog.study_apps().size()];
  workload::SingleAppHarness harness(droidsim::LgV10(), spec, 1000 + GetParam());
  harness.RunUserSession(simkit::Seconds(60));
  EXPECT_GT(harness.truth().labels().size(), 0u);
  for (const workload::HangLabel& label : harness.truth().labels()) {
    EXPECT_GE(label.response, 0);
    EXPECT_LT(label.response, simkit::Seconds(30));
    EXPECT_EQ(label.hang, label.response > simkit::kPerceivableDelay);
  }
}

INSTANTIATE_TEST_SUITE_P(StudyApps, ResponseSanityTest, ::testing::Range(0, 16));

// ---------- Property: the sparse Trace Analyzer census equals the dense one ----------

// The dense-array census the Trace Analyzer used before it counted only the frame ids its
// samples touch, kept verbatim as the reference: arrays of symbols.size() entries, scanned
// in id order. `key_ties` counts exact count ties whose key order disagrees with id order,
// so the sweep can show it exercised the tie-break that matters.
struct DenseReference {
  hangdoctor::TraceAnalyzerConfig config;
  int64_t key_ties = 0;

  static std::string FrameKey(const telemetry::StackFrame& frame) {
    return frame.clazz + "." + frame.function + "@" + frame.file + ":" +
           std::to_string(frame.line);
  }

  bool KeyLess(const telemetry::SymbolTable& symbols, telemetry::FrameId a,
               telemetry::FrameId b) {
    bool less = FrameKey(symbols.Frame(a)) < FrameKey(symbols.Frame(b));
    key_ties += less ? 1 : 0;  // a is the larger id: a key win here overrides id order
    return less;
  }

  hangdoctor::Diagnosis Analyze(std::span<const telemetry::StackTrace> traces,
                                const telemetry::SymbolTable& symbols) {
    using telemetry::kNoFrame;
    hangdoctor::Diagnosis diagnosis;
    std::vector<const telemetry::StackTrace*> usable;
    for (const telemetry::StackTrace& trace : traces) {
      if (trace.frames.empty()) {
        continue;
      }
      bool in_range = true;
      for (telemetry::FrameId id : trace.frames) {
        if (id >= symbols.size()) {
          in_range = false;
          break;
        }
      }
      if (in_range) {
        usable.push_back(&trace);
      }
    }
    if (usable.empty()) {
      return diagnosis;
    }
    diagnosis.valid = true;
    diagnosis.samples_used = usable.size();
    double total = static_cast<double>(usable.size());

    std::vector<int64_t> innermost(symbols.size(), 0);
    int64_t ui_innermost = 0;
    for (const telemetry::StackTrace* trace : usable) {
      telemetry::FrameId leaf = trace->frames.back();
      ++innermost[leaf];
      if (symbols.IsUi(leaf)) {
        ++ui_innermost;
      }
    }
    telemetry::FrameId top = kNoFrame;
    for (telemetry::FrameId id = 0; id < innermost.size(); ++id) {
      if (innermost[id] == 0) {
        continue;
      }
      if (top == kNoFrame || innermost[id] > innermost[top] ||
          (innermost[id] == innermost[top] && KeyLess(symbols, id, top))) {
        top = id;
      }
    }

    if (static_cast<double>(ui_innermost) / total >= config.ui_majority) {
      telemetry::FrameId top_ui = kNoFrame;
      for (telemetry::FrameId id = 0; id < innermost.size(); ++id) {
        if (innermost[id] == 0 || !symbols.IsUi(id)) {
          continue;
        }
        if (top_ui == kNoFrame || innermost[id] > innermost[top_ui] ||
            (innermost[id] == innermost[top_ui] && KeyLess(symbols, id, top_ui))) {
          top_ui = id;
        }
      }
      telemetry::FrameId chosen = top_ui != kNoFrame ? top_ui : top;
      diagnosis.culprit = chosen;
      diagnosis.occurrence_factor = static_cast<double>(innermost[chosen]) / total;
      diagnosis.is_ui = true;
      return diagnosis;
    }

    double top_occurrence = static_cast<double>(innermost[top]) / total;
    if (top_occurrence >= config.api_occurrence_threshold) {
      diagnosis.culprit = top;
      diagnosis.occurrence_factor = top_occurrence;
      diagnosis.is_ui = symbols.IsUi(top);
      return diagnosis;
    }

    std::vector<int64_t> callers(symbols.size(), 0);
    std::vector<size_t> caller_depth(symbols.size(), 0);
    for (const telemetry::StackTrace* trace : usable) {
      for (size_t depth = 0; depth + 1 < trace->frames.size(); ++depth) {
        telemetry::FrameId id = trace->frames[depth];
        ++callers[id];
        caller_depth[id] = std::max(caller_depth[id], depth);
      }
    }
    telemetry::FrameId best = kNoFrame;
    for (telemetry::FrameId id = 0; id < callers.size(); ++id) {
      if (callers[id] == 0) {
        continue;
      }
      double occurrence = static_cast<double>(callers[id]) / total;
      if (occurrence < config.caller_occurrence_threshold) {
        continue;
      }
      if (best == kNoFrame || caller_depth[id] > caller_depth[best] ||
          (caller_depth[id] == caller_depth[best] &&
           (callers[id] > callers[best] ||
            (callers[id] == callers[best] && KeyLess(symbols, id, best))))) {
        best = id;
      }
    }
    if (best != kNoFrame) {
      diagnosis.culprit = best;
      diagnosis.occurrence_factor = static_cast<double>(callers[best]) / total;
      diagnosis.is_ui = symbols.IsUi(best);
      diagnosis.is_self_developed = true;
      return diagnosis;
    }

    diagnosis.culprit = top;
    diagnosis.occurrence_factor = top_occurrence;
    diagnosis.is_ui = symbols.IsUi(top);
    return diagnosis;
  }

  hangdoctor::Diagnosis AnalyzeCausal(std::span<const telemetry::StackTrace> traces,
                                      const telemetry::SymbolTable& symbols,
                                      std::span<const telemetry::FrameId> wait_frames) {
    if (wait_frames.empty()) {
      return Analyze(traces, symbols);
    }
    std::vector<telemetry::StackTrace> main_traces;
    std::vector<telemetry::StackTrace> async_traces;
    for (const telemetry::StackTrace& trace : traces) {
      (trace.thread == telemetry::kMainThread ? main_traces : async_traces).push_back(trace);
    }
    hangdoctor::Diagnosis main_diag = Analyze(main_traces, symbols);
    if (!main_diag.valid) {
      return main_diag;
    }
    bool culprit_is_wait = std::find(wait_frames.begin(), wait_frames.end(),
                                     main_diag.culprit) != wait_frames.end();
    if (!culprit_is_wait || async_traces.empty()) {
      return main_diag;
    }
    hangdoctor::Diagnosis async_diag = Analyze(async_traces, symbols);
    if (!async_diag.valid) {
      return main_diag;
    }
    async_diag.via_async_wait = true;
    async_diag.wait_frame = main_diag.culprit;
    if (symbols.IsSelfDeveloped(async_diag.culprit)) {
      async_diag.is_self_developed = true;
    }
    return async_diag;
  }
};

void ExpectSameDiagnosis(const hangdoctor::Diagnosis& got, const hangdoctor::Diagnosis& want,
                         uint64_t seed) {
  EXPECT_EQ(got.culprit, want.culprit) << "seed " << seed;
  EXPECT_EQ(got.wait_frame, want.wait_frame) << "seed " << seed;
  EXPECT_EQ(got.occurrence_factor, want.occurrence_factor) << "seed " << seed;
  EXPECT_EQ(got.samples_used, want.samples_used) << "seed " << seed;
  EXPECT_EQ(got.valid, want.valid) << "seed " << seed;
  EXPECT_EQ(got.is_ui, want.is_ui) << "seed " << seed;
  EXPECT_EQ(got.is_self_developed, want.is_self_developed) << "seed " << seed;
  EXPECT_EQ(got.via_async_wait, want.via_async_wait) << "seed " << seed;
}

// A small table whose census keys sort in an order unrelated to id order (random class
// names), so exact count ties are decided by the key, not by which id came first.
void FillRandomTable(simkit::Rng& rng, size_t frames, telemetry::SymbolTable& symbols) {
  for (size_t i = 0; i < frames; ++i) {
    telemetry::StackFrame frame;
    frame.function = "m" + std::to_string(i);
    frame.clazz = std::string(1, static_cast<char>('a' + rng.UniformInt(0, 25))) + ".C";
    frame.file = "C.java";
    frame.line = static_cast<int32_t>(rng.UniformInt(1, 99));
    symbols.Intern(frame, rng.Bernoulli(0.3), rng.Bernoulli(0.3));
  }
}

// Seeded traces in one of three shapes: uniform ids; UI-heavy leaves; or a shared root with
// one of two callers at equal depth above a light leaf (the case-4 shape). Some samples are
// empty, some carry an out-of-range id, some come from an async thread.
std::vector<telemetry::StackTrace> RandomTraces(simkit::Rng& rng,
                                                const telemetry::SymbolTable& symbols) {
  const auto size = static_cast<int64_t>(symbols.size());
  auto any_id = [&] { return static_cast<telemetry::FrameId>(rng.UniformInt(0, size - 1)); };
  std::vector<telemetry::FrameId> ui_ids;
  for (telemetry::FrameId id = 0; id < symbols.size(); ++id) {
    if (symbols.IsUi(id)) {
      ui_ids.push_back(id);
    }
  }
  const int64_t shape = rng.UniformInt(0, 2);
  std::vector<telemetry::StackTrace> traces(static_cast<size_t>(rng.UniformInt(0, 30)));
  for (telemetry::StackTrace& trace : traces) {
    trace.thread = rng.Bernoulli(0.25) ? 3 : telemetry::kMainThread;
    if (rng.Bernoulli(0.08)) {
      continue;  // idle sample
    }
    if (shape == 2) {
      trace.frames = {0, static_cast<telemetry::FrameId>(1 + rng.UniformInt(0, 1) % (size - 1)),
                      any_id()};
    } else {
      const int64_t depth = rng.UniformInt(1, 6);
      for (int64_t d = 0; d < depth; ++d) {
        trace.frames.push_back(any_id());
      }
      if (shape == 1 && !ui_ids.empty() && rng.Bernoulli(0.8)) {
        trace.frames.back() =
            ui_ids[static_cast<size_t>(rng.UniformInt(0, ui_ids.size() - 1))];
      }
    }
    if (rng.Bernoulli(0.04)) {
      trace.frames[static_cast<size_t>(rng.UniformInt(0, trace.frames.size() - 1))] =
          static_cast<telemetry::FrameId>(size + rng.UniformInt(0, 3));
    }
  }
  return traces;
}

TEST(TraceAnalyzerCensusTest, SparseCensusEqualsTheDenseReference) {
  const double api_thresholds[] = {0.3, hangdoctor::kApiOccurrenceThreshold, 0.9};
  const double caller_thresholds[] = {0.2, hangdoctor::kCallerOccurrenceThreshold, 0.9};
  const double ui_majorities[] = {0.4, hangdoctor::kUiMajorityThreshold};
  int64_t key_ties = 0;
  std::map<std::string, int> outcomes;
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    simkit::Rng rng(seed);
    hangdoctor::TraceAnalyzerConfig config;
    config.api_occurrence_threshold = api_thresholds[rng.UniformInt(0, 2)];
    config.caller_occurrence_threshold = caller_thresholds[rng.UniformInt(0, 2)];
    config.ui_majority = ui_majorities[rng.UniformInt(0, 1)];
    telemetry::SymbolTable symbols;
    FillRandomTable(rng, static_cast<size_t>(rng.UniformInt(2, 12)), symbols);
    const std::vector<telemetry::StackTrace> traces = RandomTraces(rng, symbols);
    std::vector<telemetry::FrameId> wait_frames;
    for (int64_t n = rng.UniformInt(0, 2); n > 0; --n) {
      wait_frames.push_back(
          static_cast<telemetry::FrameId>(rng.UniformInt(0, symbols.size() - 1)));
    }

    const hangdoctor::TraceAnalyzer analyzer(config);
    DenseReference reference{config};
    ExpectSameDiagnosis(analyzer.Analyze(traces, symbols), reference.Analyze(traces, symbols),
                        seed);
    const hangdoctor::Diagnosis causal = analyzer.AnalyzeCausal(traces, symbols, wait_frames);
    ExpectSameDiagnosis(causal, reference.AnalyzeCausal(traces, symbols, wait_frames), seed);
    key_ties += reference.key_ties;

    if (!causal.valid) {
      ++outcomes["invalid"];
    } else if (causal.via_async_wait) {
      ++outcomes["async"];
    } else if (causal.is_self_developed) {
      ++outcomes["caller"];
    } else if (causal.is_ui) {
      ++outcomes["ui"];
    } else {
      ++outcomes["api"];
    }
  }
  // The sweep must reach every branch and every kind of tie it claims to check.
  EXPECT_GT(key_ties, 0);
  for (const char* outcome : {"invalid", "async", "caller", "ui", "api"}) {
    EXPECT_GT(outcomes[outcome], 0) << outcome;
  }
}

}  // namespace
