// Reproduces Figure 8 of the paper: detection performance and overhead of Hang Doctor (HD)
// against the runtime baselines — Timeout-based (TI, 100 ms), Utilization-based with low/high
// thresholds (UTL/UTH), and their combinations (UTL+TI / UTH+TI) — all observing the SAME user
// trace per app. True/false positives are normalized to TI, which traces every soft hang and
// therefore has no false negatives.
//
// Paper reference shapes:
//  (a) HD traces ~80% of the bug hangs TI traces; UTH misses ~62% of them.
//  (b) HD traces <10% of TI's false positives; UTL traces 8-22x MORE than TI; UTH ~0.
//  (c) Overheads: UTL ~25%, UTH ~10%, TI ~2.26%, UTL+TI ~ a few %, UTH+TI ~0.58%, HD ~0.83%.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/smoke.h"
#include "src/baselines/detector.h"
#include "src/hosts/hang_doctor.h"
#include "src/workload/experiment.h"

namespace {

const simkit::SimDuration kSessionLength =
    bench::SmokeScaled(simkit::Seconds(600), simkit::Seconds(60));
const char* kApps[] = {"AndStatus", "CycleStreets", "K9-Mail", "Omni-Notes", "UOITDC Booking"};

}  // namespace

int main() {
  workload::Catalog catalog;
  std::printf("=== Figure 8: detection performance and overhead, normalized to TI ===\n\n");

  std::vector<std::string> names = {"HD", "TI", "UTL", "UTH", "UTL+TI", "UTH+TI"};
  std::map<std::string, workload::DetectionStats> aggregate;

  for (const char* app_name : kApps) {
    const droidsim::AppSpec* spec = catalog.FindApp(app_name);
    // Calibrate the utilization thresholds from bug hangs observed without any detector, as
    // the paper derives UTL (minimum observed) and UTH (90% of peak) per app.
    workload::CalibratedThresholds thresholds =
        workload::CalibrateUtilization(droidsim::LgV10(), spec, /*seed=*/555, kSessionLength);

    workload::SingleAppHarness harness(droidsim::LgV10(), spec, /*seed=*/777);
    hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(),
                                  hangdoctor::HangDoctorConfig{});
    baselines::TimeoutDetectorConfig ti_config;
    baselines::TimeoutDetector ti(&harness.phone(), &harness.app(), ti_config);
    baselines::UtilizationDetectorConfig utl_config;
    utl_config.thresholds = thresholds.low;
    utl_config.label = "UTL";
    baselines::UtilizationDetector utl(&harness.phone(), &harness.app(), utl_config);
    baselines::UtilizationDetectorConfig uth_config;
    uth_config.thresholds = thresholds.high;
    uth_config.label = "UTH";
    baselines::UtilizationDetector uth(&harness.phone(), &harness.app(), uth_config);
    baselines::CombinedDetectorConfig utl_ti_config;
    utl_ti_config.thresholds = thresholds.low;
    utl_ti_config.label = "UTL+TI";
    baselines::CombinedDetector utl_ti(&harness.phone(), &harness.app(), utl_ti_config);
    baselines::CombinedDetectorConfig uth_ti_config;
    uth_ti_config.thresholds = thresholds.high;
    uth_ti_config.label = "UTH+TI";
    baselines::CombinedDetector uth_ti(&harness.phone(), &harness.app(), uth_ti_config);

    harness.RunUserSession(kSessionLength);
    workload::TraceUsage usage = harness.Usage();

    auto score_baseline = [&](const baselines::Detector& detector) {
      workload::DetectionStats stats = workload::ScoreDetector(
          harness.truth(), detector.outcomes(), detector.spurious_detections());
      stats.overhead_pct = detector.overhead().OverheadPercent(usage.cpu, usage.bytes);
      return stats;
    };
    workload::DetectionStats hd_stats = workload::ScoreHangDoctor(harness.truth(), doctor.log());
    hd_stats.overhead_pct = doctor.overhead().OverheadPercent(usage.cpu, usage.bytes);
    std::map<std::string, workload::DetectionStats> per_detector;
    per_detector["HD"] = hd_stats;
    per_detector["TI"] = score_baseline(ti);
    per_detector["UTL"] = score_baseline(utl);
    per_detector["UTH"] = score_baseline(uth);
    per_detector["UTL+TI"] = score_baseline(utl_ti);
    per_detector["UTH+TI"] = score_baseline(uth_ti);

    const workload::DetectionStats& ti_stats = per_detector["TI"];
    std::printf("%s (bug hangs: %ld, UI hangs: %ld; TI traced %ld TP / %ld FP)\n", app_name,
                static_cast<long>(ti_stats.bug_hangs), static_cast<long>(ti_stats.ui_hangs),
                static_cast<long>(ti_stats.true_positives),
                static_cast<long>(ti_stats.false_positives));
    std::printf("  %-8s %14s %14s %10s\n", "detector", "TP (norm. TI)", "FP (norm. TI)",
                "overhead");
    for (const std::string& name : names) {
      const workload::DetectionStats& stats = per_detector[name];
      double tp_norm = ti_stats.true_positives > 0
                           ? static_cast<double>(stats.true_positives) /
                                 static_cast<double>(ti_stats.true_positives)
                           : 0.0;
      double fp_norm = ti_stats.false_positives > 0
                           ? static_cast<double>(stats.false_positives) /
                                 static_cast<double>(ti_stats.false_positives)
                           : 0.0;
      std::printf("  %-8s %14.2f %14.2f %9.2f%%\n", name.c_str(), tp_norm, fp_norm,
                  stats.overhead_pct);
      aggregate[name] += stats;
    }
    std::printf("\n");
  }

  std::printf("Average across apps (TP/FP normalized to TI's totals, overhead averaged):\n");
  std::printf("  %-8s %14s %14s %10s   %s\n", "detector", "TP (norm. TI)", "FP (norm. TI)",
              "overhead", "paper (TP, FP, overhead)");
  const workload::DetectionStats& ti_total = aggregate["TI"];
  const std::map<std::string, std::string> paper = {
      {"HD", "0.80, <0.10, 0.83%"},  {"TI", "1.00, 1.00, 2.26%"}, {"UTL", "1.00, 8-22x, ~25%"},
      {"UTH", "0.38, ~0, ~10%"},     {"UTL+TI", "<UTL, <UTL, -"}, {"UTH+TI", "0.34, ~0, 0.58%"},
  };
  for (const std::string& name : names) {
    const workload::DetectionStats& stats = aggregate[name];
    double tp_norm = ti_total.true_positives > 0
                         ? static_cast<double>(stats.true_positives) /
                               static_cast<double>(ti_total.true_positives)
                         : 0.0;
    double fp_norm = ti_total.false_positives > 0
                         ? static_cast<double>(stats.false_positives) /
                               static_cast<double>(ti_total.false_positives)
                         : 0.0;
    std::printf("  %-8s %14.2f %14.2f %9.2f%%   %s\n", name.c_str(), tp_norm, fp_norm,
                stats.overhead_pct / 5.0, paper.at(name).c_str());
  }
  return 0;
}
