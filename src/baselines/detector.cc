#include "src/baselines/detector.h"

#include <utility>

#include "src/kernelsim/types.h"

namespace baselines {

UtilizationSample ComputeUtilization(const kernelsim::ThreadStats& before,
                                     const kernelsim::ThreadStats& after,
                                     simkit::SimDuration window) {
  UtilizationSample sample;
  if (window <= 0) {
    return sample;
  }
  sample.cpu_fraction =
      static_cast<double>(after.cpu_time - before.cpu_time) / static_cast<double>(window);
  int64_t fault_bytes = ((after.minor_faults + after.major_faults) -
                         (before.minor_faults + before.major_faults)) *
                        kernelsim::kPageSize;
  int64_t alloc_bytes = after.allocated_bytes - before.allocated_bytes;
  sample.mem_bytes_per_sec = static_cast<double>(fault_bytes + alloc_bytes) /
                             simkit::ToSeconds(window);
  return sample;
}

Detector::Detector(droidsim::Phone* phone, droidsim::App* app,
                   simkit::SimDuration sample_interval,
                   const hangdoctor::TraceAnalyzerConfig& analyzer,
                   const hangdoctor::MonitorCosts& costs)
    : phone_(phone),
      costs_(costs),
      app_(app),
      sampler_(&phone->sim(), &app->main_looper(), sample_interval),
      analyzer_(analyzer) {
  app_->AddObserver(this);
}

Detector::~Detector() { app_->RemoveObserver(this); }

void Detector::OnInputEventStart(droidsim::App& app, const droidsim::ActionExecution& execution,
                                 int32_t event_index) {
  (void)app;
  auto [open, inserted] = event_open_.try_emplace(execution.execution_id);
  if (inserted) {
    open->second.resize(execution.events_total, false);
  }
  open->second[static_cast<size_t>(event_index)] = true;
  if (!guard_.AdmitTime(phone_->Now())) {
    return;
  }
  overhead_.AddCpu(costs_.response_probe);
  live_.try_emplace(execution.execution_id);
  OnDispatchStarted(execution.execution_id, event_index);
}

void Detector::OnInputEventEnd(droidsim::App& app, const droidsim::ActionExecution& execution,
                               int32_t event_index) {
  (void)app;
  auto open = event_open_.find(execution.execution_id);
  bool seen = open != event_open_.end();
  if (seen && static_cast<size_t>(event_index) < open->second.size()) {
    open->second[static_cast<size_t>(event_index)] = false;
  }
  bool trace_stopped = (seen || StopsUnseenTraces()) && sampler_.active();
  std::span<const telemetry::StackTrace> samples;
  if (trace_stopped) {
    samples = sampler_.StopCollection();
  }
  if (!guard_.AdmitTime(phone_->Now())) {
    return;
  }
  OnDispatchEnded();
  LiveExecution* live = FindLive(execution.execution_id);
  if (live == nullptr) {
    return;  // an end for an execution this detector never saw start
  }
  overhead_.AddCpu(costs_.response_probe);
  if (trace_stopped) {
    auto count = static_cast<int64_t>(samples.size());
    overhead_.AddCpu(costs_.trace_start + costs_.stack_sample * count);
    overhead_.AddMemory(costs_.trace_start_bytes + costs_.stack_sample_bytes * count);
    // The sampler's buffer is reused on the next collection; copy the traces out.
    live->traces.insert(live->traces.end(), samples.begin(), samples.end());
  }
}

void Detector::OnActionQuiesced(droidsim::App& app, const droidsim::ActionExecution& execution) {
  (void)app;
  event_open_.erase(execution.execution_id);
  if (!guard_.AdmitTime(phone_->Now())) {
    return;
  }
  auto it = live_.find(execution.execution_id);
  if (it == live_.end()) {
    return;
  }
  DetectionOutcome outcome;
  outcome.action_uid = execution.action_uid;
  outcome.execution_id = execution.execution_id;
  outcome.response = execution.max_response;
  outcome.hang = execution.max_response > simkit::kPerceivableDelay;
  outcome.flagged = Flagged(it->second, execution.max_response);
  outcome.traced = !it->second.traces.empty();
  if (outcome.traced) {
    outcome.diagnosis = analyzer_.Analyze(it->second.traces, app_->symbols());
  }
  outcomes_.push_back(std::move(outcome));
  live_.erase(it);
}

bool Detector::EventOpen(int64_t execution_id, int32_t event_index) const {
  auto it = event_open_.find(execution_id);
  auto idx = static_cast<size_t>(event_index);
  return it != event_open_.end() && idx < it->second.size() && it->second[idx];
}

Detector::LiveExecution* Detector::FindLive(int64_t execution_id) {
  auto it = live_.find(execution_id);
  return it == live_.end() ? nullptr : &it->second;
}

kernelsim::ThreadStats Detector::MainThreadStats() const {
  return phone_->kernel().ThreadStatsSnapshot(app_->main_tid());
}

void Detector::ChargeUtilizationSample() {
  overhead_.AddCpu(costs_.utilization_sample);
  overhead_.AddMemory(costs_.utilization_sample_bytes);
}

void Detector::StartTraces() { sampler_.StartCollection(); }

TimeoutDetector::TimeoutDetector(droidsim::Phone* phone, droidsim::App* app,
                                 TimeoutDetectorConfig config)
    : Detector(phone, app, config.sample_interval, config.analyzer, config.costs),
      config_(std::move(config)) {}

std::string TimeoutDetector::name() const {
  return "TI-" + std::to_string(config_.timeout / simkit::Milliseconds(1)) + "ms";
}

void TimeoutDetector::OnDispatchStarted(int64_t execution_id, int32_t event_index) {
  phone_->sim().ScheduleAfter(config_.timeout, [this, execution_id, event_index]() {
    if (EventOpen(execution_id, event_index)) {
      StartTraces();
    }
  });
}

bool TimeoutDetector::Flagged(const LiveExecution& live, simkit::SimDuration max_response) const {
  (void)live;
  return max_response > config_.timeout;
}

UtilizationDetector::UtilizationDetector(droidsim::Phone* phone, droidsim::App* app,
                                         UtilizationDetectorConfig config)
    : Detector(phone, app, config.sample_interval, config.analyzer, config.costs),
      config_(std::move(config)),
      last_stats_(MainThreadStats()),
      last_tick_(phone->Now()) {
  pending_tick_ = phone_->sim().ScheduleAfter(config_.period, [this]() { Tick(); });
}

UtilizationDetector::~UtilizationDetector() {
  if (pending_tick_ != 0) {
    phone_->sim().Cancel(pending_tick_);
  }
}

void UtilizationDetector::OnDispatchStarted(int64_t execution_id, int32_t event_index) {
  (void)event_index;
  dispatching_execution_ = execution_id;
}

void UtilizationDetector::Tick() {
  kernelsim::ThreadStats now_stats = MainThreadStats();
  simkit::SimTime now = phone_->Now();
  UtilizationSample sample = ComputeUtilization(last_stats_, now_stats, now - last_tick_);
  last_stats_ = now_stats;
  last_tick_ = now;
  ++samples_taken_;
  ChargeUtilizationSample();
  if (sample.Above(config_.thresholds)) {
    if (dispatching_execution_ < 0) {
      // Threshold crossed with no input event in flight: the detector still raises a
      // potential-bug alarm and pays for a trace burst — a pure false positive.
      ++spurious_;
      constexpr int64_t kSpuriousTraceSamples = 4;
      overhead_.AddCpu(costs_.trace_start + costs_.stack_sample * kSpuriousTraceSamples);
      overhead_.AddMemory(costs_.trace_start_bytes +
                          costs_.stack_sample_bytes * kSpuriousTraceSamples);
    } else if (LiveExecution* live = FindLive(dispatching_execution_)) {
      live->flagged = true;
      StartTraces();
    }
  }
  pending_tick_ = phone_->sim().ScheduleAfter(config_.period, [this]() { Tick(); });
}

CombinedDetector::CombinedDetector(droidsim::Phone* phone, droidsim::App* app,
                                   CombinedDetectorConfig config)
    : Detector(phone, app, config.sample_interval, config.analyzer, config.costs),
      config_(std::move(config)) {}

CombinedDetector::~CombinedDetector() {
  if (pending_tick_ != 0) {
    phone_->sim().Cancel(pending_tick_);
  }
}

void CombinedDetector::OnDispatchStarted(int64_t execution_id, int32_t event_index) {
  phone_->sim().ScheduleAfter(config_.timeout, [this, execution_id, event_index]() {
    if (!EventOpen(execution_id, event_index)) {
      return;  // finished below the timeout: utilization sampling never starts
    }
    // The hang is confirmed; start windowed utilization sampling.
    window_stats_ = MainThreadStats();
    window_start_ = phone_->Now();
    HangTick(execution_id, event_index);
  });
}

void CombinedDetector::HangTick(int64_t execution_id, int32_t event_index) {
  pending_tick_ =
      phone_->sim().ScheduleAfter(config_.period, [this, execution_id, event_index]() {
        pending_tick_ = 0;
        if (!EventOpen(execution_id, event_index)) {
          return;  // the hang ended; stop sampling
        }
        kernelsim::ThreadStats now_stats = MainThreadStats();
        UtilizationSample sample =
            ComputeUtilization(window_stats_, now_stats, phone_->Now() - window_start_);
        window_stats_ = now_stats;
        window_start_ = phone_->Now();
        if (LiveExecution* live = FindLive(execution_id)) {
          ChargeUtilizationSample();
          if (sample.Above(config_.thresholds)) {
            live->flagged = true;
            StartTraces();
          }
        }
        HangTick(execution_id, event_index);
      });
}

}  // namespace baselines
