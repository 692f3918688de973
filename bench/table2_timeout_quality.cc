// Reproduces Table 2 of the paper: detection quality of the Timeout-based (TI) method at
// 5 s / 1 s / 500 ms / 100 ms timeouts on the eight motivation apps of Table 1. All four
// detectors observe the *same* user trace; a true positive is a distinct soft hang bug whose
// hang was traced, a false positive a distinct UI operation whose hang was traced.
//
// Paper reference totals: 5 s -> 0/19 TP, 0 FP; 1 s -> 1/19, 0; 500 ms -> 2/19, 8;
// 100 ms -> 19/19, 33. The shape: long timeouts miss nearly everything; the 100 ms timeout
// finds every bug but drowns in UI false positives.
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "bench/smoke.h"
#include "src/baselines/detector.h"
#include "src/workload/experiment.h"

namespace {

const simkit::SimDuration kTimeouts[] = {simkit::Seconds(5), simkit::Seconds(1),
                                         simkit::Milliseconds(500), simkit::Milliseconds(100)};
const simkit::SimDuration kSessionLength =
    bench::SmokeScaled(simkit::Seconds(900), simkit::Seconds(60));

}  // namespace

int main() {
  workload::Catalog catalog;
  std::printf("=== Table 2: Timeout-based detection quality vs timeout ===\n\n");
  std::printf("%-16s | TP @5s @1s @500ms @100ms | FP @5s @1s @500ms @100ms | bugs\n", "App");

  std::map<size_t, std::array<int64_t, 2>> totals;  // timeout idx -> {tp, fp}
  int64_t total_bugs = 0;
  for (const droidsim::AppSpec* spec : catalog.motivation_apps()) {
    workload::SingleAppHarness harness(droidsim::LgV10(), spec, /*seed=*/4242);
    std::vector<std::unique_ptr<baselines::TimeoutDetector>> detectors;
    for (simkit::SimDuration timeout : kTimeouts) {
      baselines::TimeoutDetectorConfig config;
      config.timeout = timeout;
      detectors.push_back(std::make_unique<baselines::TimeoutDetector>(&harness.phone(),
                                                                       &harness.app(), config));
    }
    harness.RunUserSession(kSessionLength);

    int64_t app_bugs = static_cast<int64_t>(catalog.BugsOf(spec->name).size());
    total_bugs += app_bugs;
    std::array<std::array<int64_t, 2>, 4> cells{};
    for (size_t t = 0; t < detectors.size(); ++t) {
      // True positives: distinct soft hang bugs traced (bug identity = culprit call site).
      // False positives: distinct user actions whose traced hangs were really UI work.
      std::set<std::string> bug_culprits;
      std::set<int32_t> ui_culprits;
      for (const baselines::DetectionOutcome& outcome : detectors[t]->outcomes()) {
        if (!outcome.traced) {
          continue;
        }
        const workload::HangLabel* label = harness.truth().Find(outcome.execution_id);
        if (label == nullptr || !label->hang) {
          continue;
        }
        if (label->cause_is_bug) {
          bug_culprits.insert(label->cause_api + "@" + label->cause_file + ":" +
                              std::to_string(label->cause_line));
        } else {
          ui_culprits.insert(outcome.action_uid);
        }
      }
      cells[t][0] = static_cast<int64_t>(bug_culprits.size());
      cells[t][1] = static_cast<int64_t>(ui_culprits.size());
      totals[t][0] += cells[t][0];
      totals[t][1] += cells[t][1];
    }
    std::printf("%-16s |     %2ld  %2ld     %2ld     %2ld |     %2ld  %2ld     %2ld     %2ld | %ld\n",
                spec->name.c_str(), static_cast<long>(cells[0][0]),
                static_cast<long>(cells[1][0]), static_cast<long>(cells[2][0]),
                static_cast<long>(cells[3][0]), static_cast<long>(cells[0][1]),
                static_cast<long>(cells[1][1]), static_cast<long>(cells[2][1]),
                static_cast<long>(cells[3][1]), static_cast<long>(app_bugs));
  }
  std::printf("%-16s |     %2ld  %2ld     %2ld     %2ld |     %2ld  %2ld     %2ld     %2ld | %ld\n",
              "TOTAL", static_cast<long>(totals[0][0]), static_cast<long>(totals[1][0]),
              static_cast<long>(totals[2][0]), static_cast<long>(totals[3][0]),
              static_cast<long>(totals[0][1]), static_cast<long>(totals[1][1]),
              static_cast<long>(totals[2][1]), static_cast<long>(totals[3][1]),
              static_cast<long>(total_bugs));
  std::printf("paper TOTAL      |      0   1      2     19 |      0   0      8     33 | 19\n");
  return 0;
}
