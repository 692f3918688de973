// Ground truth for detection-quality metrics, mirroring the paper's methodology (Section
// 4.1): every action execution is labeled by its response time and — for soft hangs — by the
// operation that actually dominated the main thread, determined here from the executor's
// contribution log (the paper does this by manual code review and fix-and-verify). The
// recorder also captures each execution's main-thread utilization, which calibrates the UTL /
// UTH baseline thresholds exactly as the paper derives them from observed bug hangs.
#ifndef SRC_WORKLOAD_GROUND_TRUTH_H_
#define SRC_WORKLOAD_GROUND_TRUTH_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/baselines/detector.h"
#include "src/droidsim/app.h"
#include "src/droidsim/phone.h"

namespace workload {

struct HangLabel {
  int64_t execution_id = 0;
  int32_t action_uid = -1;
  simkit::SimDuration response = 0;
  bool hang = false;
  // The dominant operation of the execution (empty when no ops contributed).
  std::string cause_api;
  std::string cause_file;
  int32_t cause_line = 0;
  bool cause_is_bug = false;  // dominant op is a non-UI operation on the main thread
  // Main-thread utilization over the execution window (for UT threshold calibration).
  baselines::UtilizationSample utilization;
};

class GroundTruthRecorder : public droidsim::AppObserver {
 public:
  GroundTruthRecorder(droidsim::Phone* phone, droidsim::App* app);
  ~GroundTruthRecorder() override;

  const std::vector<HangLabel>& labels() const { return labels_; }
  const HangLabel* Find(int64_t execution_id) const;

  // Threshold calibration from observed bug hangs (Section 4.1): UTL = the minimum
  // utilization seen during any bug hang; UTH = 90% of the peak.
  baselines::UtilizationThresholds LowThresholds() const;
  baselines::UtilizationThresholds HighThresholds() const;
  int64_t bug_hangs() const;

  // droidsim::AppObserver:
  void OnInputEventStart(droidsim::App& app, const droidsim::ActionExecution& execution,
                         int32_t event_index) override;
  void OnActionQuiesced(droidsim::App& app, const droidsim::ActionExecution& execution) override;

 private:
  droidsim::Phone* phone_;
  droidsim::App* app_;
  std::vector<HangLabel> labels_;
  std::unordered_map<int64_t, size_t> by_execution_;
  std::unordered_map<int64_t, kernelsim::ThreadStats> start_stats_;
  std::unordered_map<int64_t, simkit::SimTime> start_time_;
};

}  // namespace workload

#endif  // SRC_WORKLOAD_GROUND_TRUTH_H_
