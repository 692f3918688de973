#include "src/faultsim/fault_injector.h"

#include <utility>

namespace faultsim {

FaultInjector::FaultInjector(FaultPlan plan, hangdoctor::SpiBackend* core,
                             hangdoctor::SpiBackend* sink)
    : plan_(std::move(plan)), core_(core), sink_(sink) {}

hangdoctor::MonitorDirectives FaultInjector::OnDispatchStart(
    const hangdoctor::DispatchStart& start) {
  // A held record is released after the *next* record: the start is that next record, so it
  // goes first and the stale one follows with its older timestamp.
  if (sink_ != nullptr) {
    sink_->OnDispatchStart(start);
  }
  hangdoctor::MonitorDirectives directives = core_->OnDispatchStart(start);
  ReleaseHeld();
  return directives;
}

void FaultInjector::OnDispatchEnd(const hangdoctor::DispatchEnd& end) {
  PushFated(&SpiBackend::OnDispatchEnd, end);
}

void FaultInjector::OnActionQuiesce(const hangdoctor::ActionQuiesce& quiesce) {
  PushFated(&SpiBackend::OnActionQuiesce, quiesce);
}

template <typename Record>
void FaultInjector::PushFated(void (SpiBackend::*on)(const Record&), const Record& record) {
  FaultPlan::RecordFate fate = plan_.NextRecordFate();
  if (fate == FaultPlan::RecordFate::kDelay) {
    // Hold this record; whatever is pushed next goes first. An already-held record is
    // released now (at most one record rides the delay buffer).
    hangdoctor::SpiPayload held = hangdoctor::MakeSpiPayload(record);
    ReleaseHeld();
    held_ = std::move(held);
    return;
  }
  Deliver(on, record);
  if (fate == FaultPlan::RecordFate::kDuplicate) {
    Deliver(on, record);
  }
  ReleaseHeld();
}

void FaultInjector::ReleaseHeld() {
  if (!held_.has_value()) {
    return;
  }
  hangdoctor::SpiPayload held = std::move(*held_);
  held_.reset();
  if (sink_ != nullptr) {
    hangdoctor::PushSpiPayload(*sink_, held);
  }
  hangdoctor::PushSpiPayload(*core_, held);
}

std::vector<telemetry::StackTrace> FaultInjector::FilterSamples(
    std::span<const telemetry::StackTrace> samples) {
  std::vector<telemetry::StackTrace> kept;
  FaultPlan::WindowFate fate = plan_.NextWindowFate();
  if (fate == FaultPlan::WindowFate::kLost || samples.empty()) {
    return kept;
  }
  size_t limit = samples.size();
  if (fate == FaultPlan::WindowFate::kTimeout) {
    // The collector died partway through the window: only the first half of the samples was
    // ever taken.
    limit = samples.size() / 2;
  }
  kept.reserve(limit);
  for (size_t i = 0; i < limit; ++i) {
    if (plan_.NextSampleDrop()) {
      continue;
    }
    kept.push_back(samples[i]);
  }
  return kept;
}

}  // namespace faultsim
