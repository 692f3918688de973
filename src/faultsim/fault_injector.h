// The fault-injection shim between a Telemetry Host and a DetectorCore, and the host's one
// path into it: the live host pushes every SPI record through its FaultInjector. The
// injector consults its FaultPlan and delivers each record zero, one, or two times — and
// possibly out of order — to BOTH the sink and the core, in lockstep. A default (disabled)
// plan delivers each record exactly once, in push order, sink first, with zero Rng draws.
// Because the sink sees exactly the post-injection stream the core consumed, a recorded
// faulty session replays bit-identically: faults are ordinary telemetry by the time they
// reach disk.
//
// Injection points:
//   PushStart          — DispatchStart is never perturbed (losing the record that opens an
//                        execution models an adapter bug, not a telemetry fault; the
//                        fuzz/property harness covers that shape separately).
//   PushEnd/PushQuiesce— per-record fate: deliver, duplicate (delivered twice back to back),
//                        or delay (held until after the next pushed record, keeping its
//                        original timestamp — the core's StreamGuard sees time regress).
//   PushCounterFault   — passthrough; emitted by the host when NextCounterOpen() refuses.
//   PushAsync*         — passthrough: the causal stream (post / run / wait) mirrors scheduler
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
#include "src/telemetry/stack.h"

namespace faultsim {

class FaultInjector {
 public:
  // `core` is any SpiBackend — a private DetectorCore or a DetectorService session handle —
  // must be non-null and outlive the injector; `sink` may be null (no recording).
  FaultInjector(FaultPlan plan, hangdoctor::SpiBackend* core, hangdoctor::TelemetrySink* sink);

  hangdoctor::MonitorDirectives PushStart(const hangdoctor::DispatchStart& start);
  void PushEnd(const hangdoctor::DispatchEnd& end);
  void PushQuiesce(const hangdoctor::ActionQuiesce& quiesce);
  void PushCounterFault(const hangdoctor::CounterFault& fault);
  void PushAsyncPost(const hangdoctor::AsyncPost& post);
  void PushAsyncRun(const hangdoctor::AsyncRun& run);
  void PushAsyncWaitStart(const hangdoctor::AsyncWaitStart& wait);
  void PushAsyncWaitEnd(const hangdoctor::AsyncWaitEnd& wait);

  // Decision taps the host consults while honoring directives.
  FaultPlan::CounterOpen NextCounterOpen() { return plan_.NextCounterOpen(); }
  bool NextCounterReadInvalid() { return plan_.NextCounterReadInvalid(); }

  // Applies the sampler faults to one collection window; the returned vector is what the
  // host should deliver as DispatchEnd::samples.
  std::vector<telemetry::StackTrace> FilterSamples(
      std::span<const telemetry::StackTrace> samples);

  const FaultPlan& plan() const { return plan_; }

 private:
  // A record held back by a delay fault; samples are owned (the host's span dies with its
  // buffer).
  struct Held {
    bool is_end = false;
    hangdoctor::DispatchEnd end;
    std::vector<telemetry::StackTrace> samples;
    hangdoctor::ActionQuiesce quiesce;
  };

  void DeliverEnd(const hangdoctor::DispatchEnd& end);
  void DeliverQuiesce(const hangdoctor::ActionQuiesce& quiesce);
  void ReleaseHeld();

  FaultPlan plan_;
  hangdoctor::SpiBackend* core_;
  hangdoctor::TelemetrySink* sink_;
  std::optional<Held> held_;
};

}  // namespace faultsim

#endif  // SRC_FAULTSIM_FAULT_INJECTOR_H_
