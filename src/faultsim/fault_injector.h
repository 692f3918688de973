// The fault-injection shim between a Telemetry Host and a DetectorCore, and the host's one
// path into it: the live host pushes every SPI record into its FaultInjector, which is itself
// an SpiBackend. The injector consults its FaultPlan and delivers each record zero, one, or
// two times — and possibly out of order — to BOTH the sink and the core, in lockstep. A
// default (disabled) plan delivers each record exactly once, in push order, sink first, with
// zero Rng draws and no copy. Because the sink sees exactly the post-injection stream the core
// consumed, a recorded faulty session replays bit-identically: faults are ordinary telemetry
// by the time they reach disk.
//
// Injection points:
//   OnSessionStart     — passthrough (the core ignores it; a recording sink writes its header).
//   OnDispatchStart    — never perturbed (losing the record that opens an execution models an
//                        adapter bug, not a telemetry fault; the fuzz/property harness covers
//                        that shape separately). The core's directives come back.
//   OnDispatchEnd /    — per-record fate: deliver, duplicate (delivered twice back to back),
//   OnActionQuiesce      or delay (held as an owned SpiPayload until after the next record,
//                        keeping its original timestamp — the core's StreamGuard sees time
//                        regress).
//   OnCounterFault     — passthrough; emitted by the host when NextCounterOpen() refuses.
//   OnAsync*           — passthrough: the causal stream (post / run / wait) mirrors scheduler
//                        state the host observed directly, so perturbing it would desynchronize
//                        the recorded session from the simulation rather than model a fault.
//   FilterSamples      — applies the sampler faults (lost window, timeout prefix, per-sample
//                        drops) to a collection window before the host attaches it to a
//                        DispatchEnd.
#ifndef SRC_FAULTSIM_FAULT_INJECTOR_H_
#define SRC_FAULTSIM_FAULT_INJECTOR_H_

#include <optional>
#include <span>
#include <vector>

#include "src/faultsim/fault_plan.h"
#include "src/hangdoctor/host_spi.h"
#include "src/hangdoctor/session_stream.h"
#include "src/telemetry/stack.h"

namespace faultsim {

class FaultInjector final : public hangdoctor::SpiBackend {
 public:
  // `core` is any SpiBackend — a private DetectorCore or a DetectorService session handle —
  // must be non-null and outlive the injector; `sink` (a recording tap) may be null.
  FaultInjector(FaultPlan plan, hangdoctor::SpiBackend* core, hangdoctor::SpiBackend* sink);

  void OnSessionStart(const hangdoctor::SessionInfo& info) override {
    Deliver(&SpiBackend::OnSessionStart, info);
  }
  hangdoctor::MonitorDirectives OnDispatchStart(const hangdoctor::DispatchStart& start) override;
  void OnDispatchEnd(const hangdoctor::DispatchEnd& end) override;
  void OnActionQuiesce(const hangdoctor::ActionQuiesce& quiesce) override;
  void OnCounterFault(const hangdoctor::CounterFault& fault) override {
    PassThrough(&SpiBackend::OnCounterFault, fault);
  }
  void OnAsyncPost(const hangdoctor::AsyncPost& post) override {
    PassThrough(&SpiBackend::OnAsyncPost, post);
  }
  void OnAsyncRun(const hangdoctor::AsyncRun& run) override {
    PassThrough(&SpiBackend::OnAsyncRun, run);
  }
  void OnAsyncWaitStart(const hangdoctor::AsyncWaitStart& wait) override {
    PassThrough(&SpiBackend::OnAsyncWaitStart, wait);
  }
  void OnAsyncWaitEnd(const hangdoctor::AsyncWaitEnd& wait) override {
    PassThrough(&SpiBackend::OnAsyncWaitEnd, wait);
  }

  // Decision taps the host consults while honoring directives.
  FaultPlan::CounterOpen NextCounterOpen() { return plan_.NextCounterOpen(); }
  bool NextCounterReadInvalid() { return plan_.NextCounterReadInvalid(); }

  // Applies the sampler faults to one collection window; the returned vector is what the
  // host should deliver as DispatchEnd::samples.
  std::vector<telemetry::StackTrace> FilterSamples(
      std::span<const telemetry::StackTrace> samples);

  const FaultPlan& plan() const { return plan_; }

 private:
  // Delivers one record to the sink, then the core.
  template <typename Record>
  void Deliver(void (SpiBackend::*on)(const Record&), const Record& record) {
    if (sink_ != nullptr) {
      (sink_->*on)(record);
    }
    (core_->*on)(record);
  }

  // A record no fault touches: delivered once; a held record follows it.
  template <typename Record>
  void PassThrough(void (SpiBackend::*on)(const Record&), const Record& record) {
    Deliver(on, record);
    ReleaseHeld();
  }

  // A DispatchEnd or ActionQuiesce: delivered, duplicated, or held per the plan's next fate.
  template <typename Record>
  void PushFated(void (SpiBackend::*on)(const Record&), const Record& record);

  void ReleaseHeld();

  FaultPlan plan_;
  hangdoctor::SpiBackend* core_;
  hangdoctor::SpiBackend* sink_;
  // The record a delay fault holds back (at most one); it owns its samples.
  std::optional<hangdoctor::SpiPayload> held_;
};

}  // namespace faultsim

#endif  // SRC_FAULTSIM_FAULT_INJECTOR_H_
