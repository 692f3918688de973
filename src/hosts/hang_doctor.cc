#include "src/hosts/hang_doctor.h"

#include <limits>
#include <span>
#include <utility>

namespace hangdoctor {

namespace {

SessionInfo MakeSessionInfo(const droidsim::App& app, int32_t device_id) {
  SessionInfo info;
  info.app_package = app.spec().package;
  info.num_actions = app.num_actions();
  info.device_id = device_id;
  info.symbols = &app.symbols();
  return info;
}

std::unique_ptr<DetectorService::SessionHandle> OpenSession(DetectorService* service,
                                                            telemetry::SessionId id,
                                                            const SessionInfo& info,
                                                            const HangDoctorConfig& config) {
  service->Open(id, info, config);
  return std::make_unique<DetectorService::SessionHandle>(service->Handle(id));
}

}  // namespace

HangDoctor::HangDoctor(droidsim::Phone* phone, droidsim::App* app, HangDoctorConfig config,
                       BlockingApiDatabase* database, HangBugReport* fleet_report,
                       int32_t device_id, TelemetrySink* sink, faultsim::FaultPlan plan)
    : phone_(phone),
      app_(app),
      rng_(phone->ForkRng(0x4844 + static_cast<uint64_t>(device_id)).NextU64(),
           /*stream=*/0x4841ULL),
      config_(std::move(config)),
      core_(std::make_unique<DetectorCore>(MakeSessionInfo(*app, device_id), config_, database,
                                           fleet_report)),
      injector_(std::move(plan), core_.get(), sink),
      sampler_(&phone->sim(), &app->main_looper(), config_.sample_interval) {
  FinishSetup(sink, core_->session());
}

HangDoctor::HangDoctor(droidsim::Phone* phone, droidsim::App* app, const HangDoctorConfig& config,
                       DetectorService* service, telemetry::SessionId id, int32_t device_id,
                       TelemetrySink* sink, faultsim::FaultPlan plan)
    : phone_(phone),
      app_(app),
      rng_(phone->ForkRng(0x4844 + static_cast<uint64_t>(device_id)).NextU64(),
           /*stream=*/0x4841ULL),
      config_(config),
      handle_(OpenSession(service, id, MakeSessionInfo(*app, device_id), config_)),
      injector_(std::move(plan), handle_.get(), sink),
      sampler_(&phone->sim(), &app->main_looper(), config_.sample_interval) {
  FinishSetup(sink, MakeSessionInfo(*app, device_id));
}

void HangDoctor::FinishSetup(TelemetrySink* sink, const SessionInfo& info) {
  // One sampler per async thread, tagged with its telemetry thread id; they stay parked
  // until a future wait overlaps an active main-thread collection.
  async_samplers_.reserve(app_->num_async_threads());
  for (size_t i = 0; i < app_->num_async_threads(); ++i) {
    async_samplers_.push_back(std::make_unique<droidsim::StackSampler>(
        &phone_->sim(), &app_->async_looper(i), config_.sample_interval,
        static_cast<telemetry::ThreadId>(i + 1)));
  }
  if (sink != nullptr) {
    sink->OnSessionStart(info);
  }
  app_->AddObserver(this);
}

HangDoctor::~HangDoctor() { app_->RemoveObserver(this); }

HangDoctor::HostExecution& HangDoctor::Live(const droidsim::ActionExecution& execution) {
  auto [it, inserted] = live_.try_emplace(execution.execution_id);
  if (inserted) {
    it->second.event_open.resize(execution.events_total, false);
  }
  return it->second;
}

void HangDoctor::ArmHangCheck(int64_t execution_id, int32_t event_index) {
  phone_->sim().ScheduleAfter(config_.hang_timeout, [this, execution_id, event_index]() {
    auto it = live_.find(execution_id);
    if (it == live_.end()) {
      return;
    }
    HostExecution& live = it->second;
    auto idx = static_cast<size_t>(event_index);
    if (idx >= live.event_open.size() || !live.event_open[idx]) {
      return;  // the event finished below the timeout: no soft hang this time
    }
    if (!sampler_.active()) {
      sampler_.StartCollection();
    }
    // If the main thread is already blocked in a future wait, the hang is (at least partly)
    // the awaited thread's work: sample it too, so the Diagnoser can walk the chain.
    if (active_wait_edge_ != 0 && active_wait_execution_ == execution_id) {
      StartWaitSampler(active_wait_thread_);
    }
  });
}

void HangDoctor::StartWaitSampler(telemetry::ThreadId thread) {
  if (thread == 0 || static_cast<size_t>(thread) > async_samplers_.size()) {
    return;
  }
  droidsim::StackSampler& sampler = *async_samplers_[thread - 1];
  if (!sampler.active()) {
    sampler.StartCollection();
  }
}

void HangDoctor::StartCounters(HostExecution& live) {
  live.session = std::make_unique<perfsim::PerfSession>(
      &phone_->counter_hub(), phone_->profile().pmu, rng_.Fork(0x5350).NextU64());
  live.session->AddThread(app_->main_tid());
  if (!config_.main_only) {
    live.session->AddThread(app_->render_tid());
  }
  for (telemetry::PerfEventType event : config_.filter.Events()) {
    live.session->AddEvent(event);
  }
  live.session->Start();
}

void HangDoctor::OnInputEventStart(droidsim::App& app,
                                   const droidsim::ActionExecution& execution,
                                   int32_t event_index) {
  (void)app;
  HostExecution& live = Live(execution);
  live.event_open[static_cast<size_t>(event_index)] = true;

  DispatchStart start;
  start.now = phone_->Now();
  start.execution_id = execution.execution_id;
  start.action_uid = execution.action_uid;
  start.event_index = event_index;
  start.events_total = static_cast<int32_t>(execution.events_total);
  MonitorDirectives directives = injector_.PushStart(start);
  if (directives.start_counters && live.session == nullptr) {
    faultsim::FaultPlan::CounterOpen fate = injector_.NextCounterOpen();
    if (fate == faultsim::FaultPlan::CounterOpen::kOk) {
      StartCounters(live);
    } else {
      // The open failed: report it as telemetry so the core can retry or degrade (and so
      // the recorded session replays the same decision).
      CounterFault fault;
      fault.now = start.now;
      fault.execution_id = execution.execution_id;
      fault.permanent = fate == faultsim::FaultPlan::CounterOpen::kPermanentFailure;
      injector_.PushCounterFault(fault);
    }
  }
  if (directives.arm_hang_check) {
    ArmHangCheck(execution.execution_id, event_index);
  }
}

void HangDoctor::OnInputEventEnd(droidsim::App& app, const droidsim::ActionExecution& execution,
                                 int32_t event_index) {
  (void)app;
  DispatchEnd end;
  end.now = phone_->Now();
  end.execution_id = execution.execution_id;
  end.event_index = event_index;

  // Owned storage for a merged or fault-filtered window; must outlive the push below.
  std::vector<telemetry::StackTrace> filtered;
  std::vector<telemetry::StackTrace> merged;
  auto it = live_.find(execution.execution_id);
  if (it != live_.end()) {
    auto idx = static_cast<size_t>(event_index);
    HostExecution& live = it->second;
    if (idx < live.event_open.size()) {
      live.event_open[idx] = false;
    }
    const droidsim::EventTiming& timing = execution.events[idx];
    end.response = timing.end - timing.start;
    if (sampler_.active()) {
      end.trace_stopped = true;
      end.samples = sampler_.StopCollection();
      if (!live.async_samples.empty()) {
        // Append the waits' worker-thread stacks behind the main window. Owned storage only
        // in the async case — pre-async sessions keep the sampler's zero-copy span.
        merged.assign(end.samples.begin(), end.samples.end());
        merged.insert(merged.end(), live.async_samples.begin(), live.async_samples.end());
        live.async_samples.clear();
        end.samples = merged;
      }
      // A disabled plan would only copy the window; skipping it keeps the zero-copy span.
      if (injector_.plan().enabled()) {
        filtered = injector_.FilterSamples(end.samples);
        end.samples = filtered;
      }
    }
  }
  injector_.PushEnd(end);
}

void HangDoctor::OnActionQuiesced(droidsim::App& app,
                                  const droidsim::ActionExecution& execution) {
  (void)app;
  ActionQuiesce quiesce;
  quiesce.now = phone_->Now();
  quiesce.execution_id = execution.execution_id;
  quiesce.action_uid = execution.action_uid;
  quiesce.max_response = execution.max_response;

  auto it = live_.find(execution.execution_id);
  if (it != live_.end() && it->second.session != nullptr) {
    perfsim::PerfSession& session = *it->second.session;
    session.Stop();
    if (execution.max_response > config_.hang_timeout) {
      // S-Checker will run: read the main−render differences, in filter-event order.
      quiesce.counters_valid = true;
      for (telemetry::PerfEventType event : config_.filter.Events()) {
        double value = config_.main_only
                           ? session.Read(app_->main_tid(), event)
                           : session.ReadDifference(app_->main_tid(), app_->render_tid(), event);
        quiesce.counter_diffs[static_cast<size_t>(event)] = value;
      }
      if (injector_.NextCounterReadInvalid()) {
        // The read returned garbage: poison the first filter event with NaN. The core's
        // FiniteDiffs guard must treat the window as unusable (and the NaN round-trips
        // through the session log, so replay sees the identical poison).
        const std::vector<telemetry::PerfEventType> events = config_.filter.Events();
        if (!events.empty()) {
          quiesce.counter_diffs[static_cast<size_t>(events.front())] =
              std::numeric_limits<double>::quiet_NaN();
        }
      }
    }
  }
  injector_.PushQuiesce(quiesce);
  if (it != live_.end()) {
    live_.erase(it);
  }
}

void HangDoctor::OnAsyncPost(droidsim::App& app, int64_t execution_id, uint64_t edge,
                             telemetry::ThreadId thread, telemetry::FrameId post_frame,
                             simkit::SimDuration delay) {
  (void)app;
  edge_thread_[edge] = thread;
  AsyncPost post;
  post.now = phone_->Now();
  post.execution_id = execution_id;
  post.edge = telemetry::CausalEdgeId{edge};
  post.target = thread;
  post.post_frame = post_frame;
  post.delay = delay;
  injector_.PushAsyncPost(post);
}

void HangDoctor::OnAsyncRun(droidsim::App& app, int64_t execution_id, uint64_t edge,
                            telemetry::ThreadId thread, bool begin) {
  (void)app;
  AsyncRun run;
  run.now = phone_->Now();
  run.execution_id = execution_id;
  run.edge = telemetry::CausalEdgeId{edge};
  run.thread = thread;
  run.begin = begin;
  injector_.PushAsyncRun(run);
  if (!begin) {
    edge_thread_.erase(edge);  // the task is done; its edge can never be waited on again
  }
}

void HangDoctor::OnAsyncWaitStart(droidsim::App& app, int64_t execution_id, uint64_t edge,
                                  telemetry::FrameId wait_frame) {
  (void)app;
  AsyncWaitStart wait;
  wait.now = phone_->Now();
  wait.execution_id = execution_id;
  wait.edge = telemetry::CausalEdgeId{edge};
  wait.wait_frame = wait_frame;
  injector_.PushAsyncWaitStart(wait);
  active_wait_edge_ = edge;
  active_wait_execution_ = execution_id;
  auto thread_it = edge_thread_.find(edge);
  active_wait_thread_ = thread_it != edge_thread_.end() ? thread_it->second : 0;
  // Already hung and sampling? Then the awaited thread's stacks are the interesting ones —
  // start its sampler now. (If the hang check fires later, it starts the sampler itself.)
  if (sampler_.active()) {
    StartWaitSampler(active_wait_thread_);
  }
}

void HangDoctor::OnAsyncWaitEnd(droidsim::App& app, int64_t execution_id, uint64_t edge,
                                simkit::SimDuration waited) {
  (void)app;
  AsyncWaitEnd wait;
  wait.now = phone_->Now();
  wait.execution_id = execution_id;
  wait.edge = telemetry::CausalEdgeId{edge};
  wait.waited = waited;
  injector_.PushAsyncWaitEnd(wait);
  if (active_wait_edge_ != edge) {
    return;
  }
  if (active_wait_thread_ != 0 &&
      static_cast<size_t>(active_wait_thread_) <= async_samplers_.size()) {
    droidsim::StackSampler& sampler = *async_samplers_[active_wait_thread_ - 1];
    if (sampler.active()) {
      // Buffer the wait's worker stacks; they ride the DispatchEnd of the event that blocked.
      std::span<const telemetry::StackTrace> taken = sampler.StopCollection();
      auto it = live_.find(execution_id);
      if (it != live_.end()) {
        it->second.async_samples.insert(it->second.async_samples.end(), taken.begin(),
                                        taken.end());
      }
    }
  }
  active_wait_edge_ = 0;
  active_wait_execution_ = 0;
  active_wait_thread_ = 0;
}

}  // namespace hangdoctor
