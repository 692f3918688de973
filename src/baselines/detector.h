// The paper's baseline runtime detectors (Section 4.1): Timeout-based (TI), Utilization-based
// (UTL/UTH) and their combination (UT+TI). Every baseline watches an app's input events,
// decides per action execution whether to collect stack traces (the costed act the evaluation
// counts), and charges its monitoring work to an OverheadMeter using the same cost model as
// Hang Doctor, so Figure 8(c) is an apples-to-apples comparison.
//
// The three differ only in when they start collecting traces. Detector owns everything they
// share: the droidsim observer hooks, response probes, the main-thread stack sampler and its
// cost, the live executions, analysing their traces at quiesce, and the outcome record. Each
// subclass implements only its trigger.
#ifndef SRC_BASELINES_DETECTOR_H_
#define SRC_BASELINES_DETECTOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/droidsim/app.h"
#include "src/droidsim/phone.h"
#include "src/droidsim/stack_sampler.h"
#include "src/hangdoctor/overhead.h"
#include "src/hangdoctor/stream_guard.h"
#include "src/hangdoctor/trace_analyzer.h"

namespace baselines {

struct DetectionOutcome {
  int32_t action_uid = -1;
  int64_t execution_id = 0;
  simkit::SimDuration response = 0;
  bool hang = false;     // response exceeded the detector's hang definition (100 ms)
  bool flagged = false;  // detector declared a potential soft hang bug
  bool traced = false;   // stack traces were collected (the costed act)
  hangdoctor::Diagnosis diagnosis;
};

struct UtilizationThresholds {
  // Main-thread CPU time per wall time over the sampling window.
  double cpu_fraction = 0.5;
  // Memory traffic (faulted + allocated bytes) per second over the window.
  double mem_bytes_per_sec = 8.0 * 1024 * 1024;
};

// A point utilization measurement of one thread over a window, as read from /proc.
struct UtilizationSample {
  double cpu_fraction = 0.0;
  double mem_bytes_per_sec = 0.0;

  bool Above(const UtilizationThresholds& thresholds) const {
    return cpu_fraction > thresholds.cpu_fraction ||
           mem_bytes_per_sec > thresholds.mem_bytes_per_sec;
  }
};

// Computes the utilization of a thread between two stat snapshots `window` apart.
UtilizationSample ComputeUtilization(const kernelsim::ThreadStats& before,
                                     const kernelsim::ThreadStats& after,
                                     simkit::SimDuration window);

struct TimeoutDetectorConfig {
  simkit::SimDuration timeout = simkit::kPerceivableDelay;
  simkit::SimDuration sample_interval = simkit::Milliseconds(20);
  hangdoctor::TraceAnalyzerConfig analyzer;
  hangdoctor::MonitorCosts costs;
};

struct UtilizationDetectorConfig {
  UtilizationThresholds thresholds;
  simkit::SimDuration period = simkit::Milliseconds(100);
  simkit::SimDuration sample_interval = simkit::Milliseconds(20);
  hangdoctor::TraceAnalyzerConfig analyzer;
  hangdoctor::MonitorCosts costs;
  std::string label = "UT";
};

struct CombinedDetectorConfig {
  UtilizationThresholds thresholds;
  simkit::SimDuration timeout = simkit::kPerceivableDelay;
  simkit::SimDuration period = simkit::Milliseconds(100);
  simkit::SimDuration sample_interval = simkit::Milliseconds(20);
  hangdoctor::TraceAnalyzerConfig analyzer;
  hangdoctor::MonitorCosts costs;
  std::string label = "UT+TI";
};

class Detector : public droidsim::AppObserver {
 public:
  ~Detector() override;

  virtual std::string name() const = 0;
  const std::vector<DetectionOutcome>& outcomes() const { return outcomes_; }
  const hangdoctor::OverheadMeter& overhead() const { return overhead_; }

  // Detections raised outside any soft hang (possible for the utilization baseline, which
  // fires whenever a threshold is crossed, hang or not). Pure false positives.
  virtual int64_t spurious_detections() const { return 0; }

  // droidsim::AppObserver:
  void OnInputEventStart(droidsim::App& app, const droidsim::ActionExecution& execution,
                         int32_t event_index) final;
  void OnInputEventEnd(droidsim::App& app, const droidsim::ActionExecution& execution,
                       int32_t event_index) final;
  void OnActionQuiesced(droidsim::App& app, const droidsim::ActionExecution& execution) final;

 protected:
  struct LiveExecution {
    bool flagged = false;
    std::vector<telemetry::StackTrace> traces;
  };

  Detector(droidsim::Phone* phone, droidsim::App* app, simkit::SimDuration sample_interval,
           const hangdoctor::TraceAnalyzerConfig& analyzer,
           const hangdoctor::MonitorCosts& costs);

  // The trigger. Each hook runs only for an event the stream guard admitted.
  virtual void OnDispatchStarted(int64_t execution_id, int32_t event_index) {
    (void)execution_id;
    (void)event_index;
  }
  virtual void OnDispatchEnded() {}
  // Whether a quiesced execution counts as a flagged potential soft hang bug.
  virtual bool Flagged(const LiveExecution& live, simkit::SimDuration max_response) const {
    (void)max_response;
    return live.flagged;
  }
  // Whether an event end whose execution was never seen starting still stops trace
  // collection. Only the utilization baseline, whose traces start off any timer, does.
  virtual bool StopsUnseenTraces() const { return false; }

  // True while event `event_index` of `execution_id` has started and not yet ended.
  bool EventOpen(int64_t execution_id, int32_t event_index) const;
  // Null when the execution is not live (never started, or already quiesced).
  LiveExecution* FindLive(int64_t execution_id);
  kernelsim::ThreadStats MainThreadStats() const;
  void ChargeUtilizationSample();
  void StartTraces();

  droidsim::Phone* phone_;
  hangdoctor::OverheadMeter overhead_;
  hangdoctor::MonitorCosts costs_;

 private:
  droidsim::App* app_;
  droidsim::StackSampler sampler_;
  hangdoctor::TraceAnalyzer analyzer_;
  hangdoctor::StreamGuard guard_;
  std::unordered_map<int64_t, std::vector<bool>> event_open_;
  std::unordered_map<int64_t, LiveExecution> live_;
  std::vector<DetectionOutcome> outcomes_;
};

// TImeout-based (TI): flag whenever an action's response exceeds the timeout, and collect
// stack traces for the remainder of the hang. With the 5 s timeout this is Android's ANR
// tool; with 100 ms it is the Jovic et al. style detector whose false-positive cost Table 2
// quantifies.
class TimeoutDetector : public Detector {
 public:
  TimeoutDetector(droidsim::Phone* phone, droidsim::App* app, TimeoutDetectorConfig config);

  std::string name() const override;

 private:
  void OnDispatchStarted(int64_t execution_id, int32_t event_index) override;
  bool Flagged(const LiveExecution& live, simkit::SimDuration max_response) const override;

  TimeoutDetectorConfig config_;
};

// UTilization-based (UT): sample the main thread's resource utilization (CPU time fraction
// and memory traffic) every period; a threshold crossing during a dispatch flags the
// execution and collects stack traces until the event ends, and one outside any dispatch is
// a spurious detection that still pays for a trace burst. UTL uses the minimum utilization
// ever observed during a bug hang (catches everything, floods of false positives); UTH uses
// 90% of the peak (few false positives, misses most bugs).
class UtilizationDetector : public Detector {
 public:
  UtilizationDetector(droidsim::Phone* phone, droidsim::App* app,
                      UtilizationDetectorConfig config);
  ~UtilizationDetector() override;

  std::string name() const override { return config_.label; }
  int64_t samples_taken() const { return samples_taken_; }
  int64_t spurious_detections() const override { return spurious_; }

 private:
  void OnDispatchStarted(int64_t execution_id, int32_t event_index) override;
  void OnDispatchEnded() override { dispatching_execution_ = -1; }
  bool StopsUnseenTraces() const override { return true; }
  void Tick();

  UtilizationDetectorConfig config_;
  kernelsim::ThreadStats last_stats_;
  simkit::SimTime last_tick_ = 0;
  simkit::EventId pending_tick_ = 0;
  int64_t dispatching_execution_ = -1;  // execution whose event is currently dispatching
  int64_t samples_taken_ = 0;
  int64_t spurious_ = 0;
};

// UT+TI: utilization is sampled only *during* soft hangs (the response time must exceed the
// timeout first), and stack traces are collected only once a utilization threshold is also
// violated. UTH+TI is the cheapest baseline but inherits UTH's misses; UTL+TI prunes some of
// UTL's false positives but not the UI operations that are both slow and busy.
class CombinedDetector : public Detector {
 public:
  CombinedDetector(droidsim::Phone* phone, droidsim::App* app, CombinedDetectorConfig config);
  ~CombinedDetector() override;

  std::string name() const override { return config_.label; }

 private:
  void OnDispatchStarted(int64_t execution_id, int32_t event_index) override;
  // Samples the main thread's utilization while (execution_id, event_index) is still hanging.
  void HangTick(int64_t execution_id, int32_t event_index);

  CombinedDetectorConfig config_;
  kernelsim::ThreadStats window_stats_;
  simkit::SimTime window_start_ = 0;
  simkit::EventId pending_tick_ = 0;
};

}  // namespace baselines

#endif  // SRC_BASELINES_DETECTOR_H_
