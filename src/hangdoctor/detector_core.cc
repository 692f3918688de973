#include "src/hangdoctor/detector_core.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace hangdoctor {

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kNotChecked:
      return "not-checked";
    case Verdict::kNoHang:
      return "no-hang";
    case Verdict::kFilteredUi:
      return "filtered-ui";
    case Verdict::kMarkedSuspicious:
      return "marked-suspicious";
    case Verdict::kAwaitingHang:
      return "awaiting-hang";
    case Verdict::kDiagnosedUi:
      return "diagnosed-ui";
    case Verdict::kDiagnosedBug:
      return "diagnosed-bug";
    case Verdict::kCounterFailure:
      return "counter-failure";
  }
  return "?";
}

DetectorCore::DetectorCore(const SessionInfo& info, HangDoctorConfig config,
                           BlockingApiDatabase* database, HangBugReport* fleet_report,
                           KnowledgeBase::Snapshot kb)
    : info_(info),
      config_(std::move(config)),
      table_(config_.reset_after_normal),
      analyzer_(config_.analyzer),
      database_(database != nullptr ? database : &own_database_),
      fleet_report_(fleet_report),
      kb_(kb) {
  if (info_.symbols == nullptr) {
    throw std::invalid_argument("DetectorCore: SessionInfo.symbols must be non-null");
  }
  if (info_.num_actions <= 0) {
    throw std::invalid_argument("DetectorCore: SessionInfo.num_actions must be positive, got " +
                                std::to_string(info_.num_actions));
  }
  // App Injector: assign a UID to every action up front.
  for (int32_t uid = 0; uid < info_.num_actions; ++uid) {
    table_.Lookup(uid);
  }
}

DetectorCore::LiveExecution& DetectorCore::Live(const DispatchStart& start) {
  auto [it, inserted] = live_.try_emplace(start.execution_id);
  if (inserted) {
    it->second.state_before = table_.Lookup(start.action_uid).state;
    it->second.action_uid = start.action_uid;
  }
  return it->second;
}

MonitorDirectives DetectorCore::OnDispatchStart(const DispatchStart& start) {
  if (!guard_.AdmitTime(start.now)) {
    return MonitorDirectives{};
  }
  if (start.action_uid < 0 || start.action_uid >= info_.num_actions) {
    // An action the session never declared: indistinguishable from a corrupted record;
    // dropping it keeps the action table well-formed.
    ++degradation_.dropped_records;
    return MonitorDirectives{};
  }
  auto existing = live_.find(start.execution_id);
  if (existing == live_.end() && start.execution_id <= completed_watermark_) {
    // Stale re-delivery of an execution that already quiesced.
    ++degradation_.dropped_records;
    return MonitorDirectives{};
  }
  if (existing != live_.end()) {
    if (existing->second.open_event >= 0) {
      guard_.SetError("DispatchStart for execution " + std::to_string(start.execution_id) +
                      " while event " + std::to_string(existing->second.open_event) +
                      " is still dispatching");
      return MonitorDirectives{};
    }
    if (existing->second.action_uid != start.action_uid) {
      guard_.SetError("execution " + std::to_string(start.execution_id) + " changed action " +
                      std::to_string(existing->second.action_uid) + " -> " +
                      std::to_string(start.action_uid));
      return MonitorDirectives{};
    }
  }
  overhead_.AddCpu(config_.costs.state_lookup + config_.costs.response_probe);
  LiveExecution& live = Live(start);
  live.open_event = start.event_index;
  ++dispatch_events_;
  if (config_.second_phase_only) {
    return MonitorDirectives{.arm_hang_check = true};
  }
  switch (live.state_before) {
    case ActionState::kUncategorized: {
      if (!live.counters_started && !degradation_.counters_unavailable) {
        bool first_attempt = counter_failure_streak_ == 0;
        // After a transient open failure, re-opening waits out a backoff measured in
        // dispatch events and doubled per consecutive failure; a streak past
        // max_counter_retries escalates to counters_unavailable (see OnCounterFault), so
        // reaching here with a nonzero streak means the budget still has room.
        bool retry_due = !first_attempt && dispatch_events_ >= counter_retry_at_;
        if (first_attempt || retry_due) {
          live.counters_started = true;
          overhead_.AddCpu(config_.costs.perf_start);
          overhead_.AddMemory(config_.costs.perf_session_bytes);
          if (!first_attempt) {
            overhead_.CountCounterRetry();
            ++degradation_.counter_retries;
          }
          return MonitorDirectives{.start_counters = true};
        }
      }
      break;
    }
    case ActionState::kSuspicious:
    case ActionState::kHangBug: {
      live.diagnoser_armed = true;
      return MonitorDirectives{.arm_hang_check = true};
    }
    case ActionState::kNormal:
      break;
  }
  return MonitorDirectives{};
}

void DetectorCore::OnDispatchEnd(const DispatchEnd& end) {
  if (!guard_.AdmitTime(end.now)) {
    return;
  }
  auto it = live_.find(end.execution_id);
  if (it == live_.end() || it->second.open_event != end.event_index) {
    // End for an unknown execution or a non-open event: a re-delivered or delayed record.
    ++degradation_.dropped_records;
    return;
  }
  LiveExecution& live = it->second;
  live.open_event = -1;
  overhead_.AddCpu(config_.costs.response_probe);
  if (end.response > config_.hang_timeout) {
    live.longest_hang = std::max(live.longest_hang, end.response);
  }
  if (end.trace_stopped) {
    auto count = static_cast<int64_t>(end.samples.size());
    overhead_.AddCpu(config_.costs.trace_start);
    overhead_.AddMemory(config_.costs.trace_start_bytes);
    samples_taken_ += count;
    overhead_.AddCpu(config_.costs.stack_sample * count);
    overhead_.AddMemory(config_.costs.stack_sample_bytes * count);
    if (count == 0) {
      // A lost or timed-out collection window; the diagnosis aborts and retries on the
      // action's next hang (the action keeps its state).
      ++degradation_.empty_trace_windows;
    }
    // The host's sample buffer is reused on the next collection; copy the id traces out.
    live.traces.insert(live.traces.end(), end.samples.begin(), end.samples.end());
  }
}

void DetectorCore::OnCounterFault(const CounterFault& fault) {
  if (!guard_.AdmitTime(fault.now)) {
    return;
  }
  ++degradation_.counter_open_failures;
  ++counter_failure_streak_;
  if (fault.permanent || counter_failure_streak_ > config_.max_counter_retries ||
      degradation_.counter_open_failures >= kCounterFailureEscalation) {
    // Counters are gone for the session: stop retrying, degrade S-Checker to the
    // timeout-only predicate, and mark everything it reports as degraded.
    degradation_.counters_unavailable = true;
  } else {
    int32_t doublings = std::min(counter_failure_streak_ - 1, 30);
    counter_retry_at_ = dispatch_events_ +
                        (static_cast<int64_t>(config_.counter_retry_backoff) << doublings);
  }
  auto it = live_.find(fault.execution_id);
  if (it != live_.end()) {
    it->second.counters_started = false;
  }
}

void DetectorCore::OnAsyncPost(const AsyncPost& post) {
  if (!guard_.AdmitTime(post.now)) {
    return;
  }
  if (post.post_frame >= info_.symbols->size()) {
    ++degradation_.dropped_records;
    return;
  }
  overhead_.AddCpu(config_.costs.async_record);
  overhead_.CountAsyncRecord();
}

void DetectorCore::OnAsyncRun(const AsyncRun& run) {
  if (!guard_.AdmitTime(run.now)) {
    return;
  }
  overhead_.AddCpu(config_.costs.async_record);
  overhead_.CountAsyncRecord();
}

void DetectorCore::OnAsyncWaitStart(const AsyncWaitStart& wait) {
  if (!guard_.AdmitTime(wait.now)) {
    return;
  }
  if (wait.wait_frame >= info_.symbols->size()) {
    ++degradation_.dropped_records;
    return;
  }
  overhead_.AddCpu(config_.costs.async_record);
  overhead_.CountAsyncRecord();
  auto it = live_.find(wait.execution_id);
  if (it == live_.end()) {
    // A wait for an execution the core never saw dispatch (re-delivery after quiesce, or a
    // truncated stream): nothing to attach the wait site to.
    ++degradation_.dropped_records;
    return;
  }
  it->second.wait_frames.push_back(wait.wait_frame);
}

void DetectorCore::OnAsyncWaitEnd(const AsyncWaitEnd& wait) {
  if (!guard_.AdmitTime(wait.now)) {
    return;
  }
  overhead_.AddCpu(config_.costs.async_record);
  overhead_.CountAsyncRecord();
}

void DetectorCore::RunSChecker(const ActionQuiesce& quiesce, LiveExecution& live,
                               ExecutionRecord& record) {
  (void)live;
  record.schecker_ran = true;
  std::vector<telemetry::PerfEventType> events = config_.filter.Events();
  record.schecker_diffs.reserve(events.size());
  for (telemetry::PerfEventType event : events) {
    record.schecker_diffs.push_back({event, quiesce.counter_diffs[static_cast<size_t>(event)]});
  }
  if (!quiesce.counters_valid || !SoftHangFilter::FiniteDiffs(quiesce.counter_diffs)) {
    // No usable counter window for this hang. With counters permanently unavailable the
    // S-Checker degrades to the response-time predicate alone — the hang already exceeded
    // the timeout, so the action is marked Suspicious and the report flagged degraded
    // (false positives here are filtered by the Diagnoser, at extra tracing cost). While
    // retries are still possible the action simply stays Uncategorized and the next hang
    // re-examines it.
    record.degraded = true;
    if (degradation_.counters_unavailable) {
      ++degradation_.degraded_checks;
      table_.Transition(quiesce.now, quiesce.action_uid, ActionState::kSuspicious,
                        "S-Checker degraded: timeout-only suspicion");
      record.verdict = Verdict::kMarkedSuspicious;
    } else {
      ++degradation_.invalid_counter_windows;
      record.verdict = Verdict::kCounterFailure;
    }
    return;
  }
  overhead_.AddCpu(config_.costs.perf_read_per_event *
                   static_cast<int64_t>(events.size() * (config_.main_only ? 1 : 2)));
  if (config_.filter.HasSymptoms(quiesce.counter_diffs)) {
    table_.Transition(quiesce.now, quiesce.action_uid, ActionState::kSuspicious,
                      "S-Checker: soft hang bug symptoms");
    record.verdict = Verdict::kMarkedSuspicious;
  } else {
    table_.Transition(quiesce.now, quiesce.action_uid, ActionState::kNormal,
                      "S-Checker: UI operation");
    record.verdict = Verdict::kFilteredUi;
  }
}

void DetectorCore::RunDiagnoser(const ActionQuiesce& quiesce, LiveExecution& live,
                                ExecutionRecord& record) {
  record.diagnoser_ran = true;
  if (live.traces.empty()) {
    // The action did not hang this time; an occasional bug may still manifest later, so the
    // action stays where it is (Suspicious or Hang Bug).
    record.verdict = Verdict::kAwaitingHang;
    return;
  }
  record.traced = true;
  Diagnosis diagnosis;
  if (kb_.valid()) {
    // Knowledge-base fast path: AnalyzeCausal is pure in (traces incl. thread tags, wait
    // frames, symbols, thresholds), so an exact-key memo hit IS the diagnosis — same bytes,
    // none of the census work. Probe the published snapshot first, then this session's own
    // pending memos (so repeat hangs skip re-analysis even before any epoch publishes).
    FillDiagnosisMemoKey(live.traces, *info_.symbols, info_.app_package, config_.analyzer,
                         &kb_key_scratch_, live.wait_frames);
    const Diagnosis* memo = kb_.FindMemo(kb_key_scratch_);
    if (memo == nullptr) {
      for (const DiagnosisMemoEntry& pending : kb_memos_) {
        if (pending.key == kb_key_scratch_) {
          memo = &pending.diagnosis;
          break;
        }
      }
    }
    if (memo != nullptr) {
      ++kb_stats_.memo_hits;
      diagnosis = *memo;
    } else {
      ++kb_stats_.memo_misses;
      diagnosis = analyzer_.AnalyzeCausal(live.traces, *info_.symbols, live.wait_frames);
      // Copied, not moved: the scratch key keeps its buffers warm for the next diagnosis.
      kb_memos_.push_back({kb_key_scratch_, diagnosis});
    }
  } else {
    // Counted with the KB off too, so a KB-off arm reports the diagnoser work a KB targets.
    ++kb_stats_.memo_misses;
    diagnosis = analyzer_.AnalyzeCausal(live.traces, *info_.symbols, live.wait_frames);
  }
  record.diagnosis = diagnosis;
  if (config_.keep_traces) {
    record.traces = live.traces;
  }
  if (!diagnosis.valid) {
    record.verdict = Verdict::kAwaitingHang;
    return;
  }
  if (diagnosis.is_ui) {
    record.verdict = Verdict::kDiagnosedUi;
    if (live.state_before == ActionState::kSuspicious) {
      table_.Transition(quiesce.now, quiesce.action_uid, ActionState::kNormal,
                        "Diagnoser: UI operation (path B)");
    }
    return;
  }
  record.verdict = Verdict::kDiagnosedBug;
  // A diagnosis reached through the degraded timeout-only S-Checker is flagged so report
  // consumers know the symptom filter never vetted it.
  record.degraded = record.degraded || degradation_.counters_unavailable;
  table_.Transition(quiesce.now, quiesce.action_uid, ActionState::kHangBug,
                    "Diagnoser: soft hang bug (path C)");
  simkit::SimDuration hang = std::max(live.longest_hang, quiesce.max_response);
  const telemetry::SymbolTable& symbols = *info_.symbols;
  local_report_.Record(info_.app_package, diagnosis, symbols, hang, info_.device_id,
                       record.degraded);
  if (fleet_report_ != nullptr) {
    fleet_report_->Record(info_.app_package, diagnosis, symbols, hang, info_.device_id,
                          record.degraded);
  }
  if (!diagnosis.is_self_developed) {
    // Self-developed lengthy operations are reported only to the developer; real APIs feed
    // the offline detectors' database.
    const telemetry::StackFrame& culprit = symbols.Frame(diagnosis.culprit);
    std::string api = culprit.clazz + "." + culprit.function;
    if (kb_.IsKnown(api)) {
      // The fleet already knew this API when the session opened: a re-confirmation the
      // shared knowledge base turns into zero new offline-scanner work.
      ++kb_stats_.known_hits;
    }
    database_->AddDiscovered(api);
  }
}

void DetectorCore::OnActionQuiesced(const ActionQuiesce& quiesce) {
  if (!guard_.AdmitTime(quiesce.now)) {
    return;
  }
  auto it = live_.find(quiesce.execution_id);
  if (it == live_.end() || it->second.action_uid != quiesce.action_uid) {
    // Quiesce for an unknown execution (a re-delivered record after completion) or one whose
    // recorded action disagrees: dropped, detection continues.
    ++degradation_.dropped_records;
    return;
  }
  LiveExecution& live = it->second;
  live.open_event = -1;
  completed_watermark_ = std::max(completed_watermark_, quiesce.execution_id);
  if (live.counters_started) {
    // The counter session opened for this execution survived to quiesce: the device's
    // counters work again, so the retry backoff streak resets.
    counter_failure_streak_ = 0;
  }
  ExecutionRecord record;
  record.action_uid = quiesce.action_uid;
  record.execution_id = quiesce.execution_id;
  record.response = quiesce.max_response;
  record.hang = quiesce.max_response > config_.hang_timeout;
  record.state_before = live.state_before;

  ActionInfo& info = table_.Lookup(quiesce.action_uid);
  ++info.executions;
  if (record.hang) {
    ++info.hangs_observed;
  }

  if (config_.second_phase_only) {
    if (record.hang || !live.traces.empty()) {
      RunDiagnoser(quiesce, live, record);
    } else {
      record.verdict = Verdict::kNoHang;
    }
    if (record.traced) {
      ++info.times_traced;
    }
    log_.push_back(std::move(record));
    live_.erase(it);
    return;
  }

  switch (live.state_before) {
    case ActionState::kUncategorized: {
      if (live.counters_started) {
        overhead_.AddCpu(config_.costs.perf_stop);
      }
      if (record.hang) {
        RunSChecker(quiesce, live, record);
      } else {
        record.verdict = Verdict::kNoHang;  // stays Uncategorized, monitored again next time
      }
      break;
    }
    case ActionState::kSuspicious:
    case ActionState::kHangBug: {
      RunDiagnoser(quiesce, live, record);
      break;
    }
    case ActionState::kNormal: {
      record.verdict = Verdict::kNotChecked;
      table_.CountNormalExecution(quiesce.now, quiesce.action_uid);
      break;
    }
  }
  if (record.traced) {
    ++info.times_traced;
  }
  log_.push_back(std::move(record));
  live_.erase(it);
}

}  // namespace hangdoctor
