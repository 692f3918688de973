// The Telemetry Host SPI: the narrow data contract between the substrate-agnostic detector
// core (detector_core.h) and whatever host feeds it — the droidsim adapter
// (src/hosts/hang_doctor.h), the session-log replayer (src/hosts/replay_host.h), or a future
// /proc-style on-device collector.
//
// The contract is deliberately value-shaped rather than virtual-call-shaped: the host pushes
// four kinds of telemetry into the core —
//   (a) action dispatch begin/end/quiesce events with response times,
//   (b) main−render counter deltas for the symptom events (read at quiesce, only when the
//       core previously directed the host to count and the action hung),
//   (c) interned stack samples collected during diagnosis,
//   (d) cross-thread causal records (async post / run / wait) —
// and the core answers dispatch-begin with MonitorDirectives telling the host which
// mechanisms to engage. Because every byte the core ever sees crosses this boundary as plain
// data, a session is trivially recordable (serialize the pushed structs) and replayable
// (push them again): the core is a pure function of (SessionInfo, config, telemetry stream),
// which is what makes the record/replay round-trip bit-identical.
//
// One interface and one record carry the stream below the service: everything that consumes
// it — the core, a service session, the fault injector, a recording tap — is a SpiBackend
// (below), and a record that must outlive its push (held, generated, parsed, recorded) is a
// SpiPayload (session_stream.h), pushed with PushSpiPayload.
//
// Symbol resolution stays id-based: traces carry telemetry::FrameIds interned in the session's
// SymbolTable (supplied once in SessionInfo); the core materializes strings only when a
// diagnosis or report is rendered.
#ifndef SRC_HANGDOCTOR_HOST_SPI_H_
#define SRC_HANGDOCTOR_HOST_SPI_H_

#include <cstdint>
#include <span>
#include <string>

#include "src/simkit/time.h"
#include "src/telemetry/causal.h"
#include "src/telemetry/counters.h"
#include "src/telemetry/stack.h"
#include "src/telemetry/symbols.h"

namespace hangdoctor {

// Per-session facts the host supplies once, before any telemetry. `symbols` must outlive the
// core and resolve every FrameId the host will ever push.
struct SessionInfo {
  std::string app_package;
  int32_t num_actions = 0;
  int32_t device_id = 0;
  const telemetry::SymbolTable* symbols = nullptr;
};

// (a) An input event of an action execution began dispatching on the main thread.
struct DispatchStart {
  simkit::SimTime now = 0;
  int64_t execution_id = 0;
  int32_t action_uid = -1;
  int32_t event_index = 0;
  int32_t events_total = 0;
};

// (a)+(c) An input event finished dispatching. When the host had an active trace collection
// (armed per MonitorDirectives::arm_hang_check), it stops the collection at this boundary and
// delivers the samples here; `trace_stopped` is set even when zero samples fit the window, so
// the core's overhead accounting matches a real collector's fixed start cost.
struct DispatchEnd {
  simkit::SimTime now = 0;
  int64_t execution_id = 0;
  int32_t event_index = 0;
  simkit::SimDuration response = 0;
  bool trace_stopped = false;
  std::span<const telemetry::StackTrace> samples;
};

// (a)+(b) The action quiesced (main thread finished all its input events and the render
// thread drained). When the core directed counting (start_counters) and the action hung
// (max_response exceeded the configured timeout), the host reads the per-event main−render
// deltas — in SoftHangFilter::Events() order — into `counter_diffs` and sets
// `counters_valid`; entries for events outside the filter stay zero. A host whose counter
// read failed (or that never managed to open the session) leaves `counters_valid` false even
// on a hang; the core then degrades per its policy instead of filtering on zeros.
struct ActionQuiesce {
  simkit::SimTime now = 0;
  int64_t execution_id = 0;
  int32_t action_uid = -1;
  simkit::SimDuration max_response = 0;
  bool counters_valid = false;
  telemetry::CounterArray counter_diffs{};
};

// (b) The host failed to honor a start_counters directive (perf_event_open refused, the
// counter file descriptor died, ...). `permanent` distinguishes a transient failure — the
// core may direct a bounded retry with backoff — from a permanent one (counters disabled on
// this device), after which the core degrades S-Checker to the timeout-only predicate for
// the rest of the session. Pushed like any other telemetry so faulty sessions record and
// replay bit-identically.
struct CounterFault {
  simkit::SimTime now = 0;
  int64_t execution_id = 0;
  bool permanent = false;
};

// (d) Cross-thread causal telemetry (DESIGN.md section 3.8). The host pushes these when the
// app posts work to an async thread, when that work runs, and when the main thread blocks on
// its future. Frame ids use the session symbol table like every trace; thread ids and edge
// ids use the telemetry::causal vocabulary, so no substrate type crosses the SPI. All four
// are pure data — they record and replay like any other telemetry.

// A task was posted to async thread `target`, creating causal edge `edge`. `post_frame` is
// the submit call's frame; `delay` is nonzero for PostDelayed-style posts.
struct AsyncPost {
  simkit::SimTime now = 0;
  int64_t execution_id = 0;
  telemetry::CausalEdgeId edge;
  telemetry::ThreadId target = telemetry::kMainThread;
  telemetry::FrameId post_frame = 0;
  simkit::SimDuration delay = 0;
};

// Edge `edge`'s task started (begin = true) or finished (begin = false) on `thread`.
struct AsyncRun {
  simkit::SimTime now = 0;
  int64_t execution_id = 0;
  telemetry::CausalEdgeId edge;
  telemetry::ThreadId thread = telemetry::kMainThread;
  bool begin = true;
};

// The main thread blocked on edge `edge`'s future inside `wait_frame` (Future.get). Only
// pushed when the task was still incomplete at get() time — a satisfied future emits nothing.
struct AsyncWaitStart {
  simkit::SimTime now = 0;
  int64_t execution_id = 0;
  telemetry::CausalEdgeId edge;
  telemetry::FrameId wait_frame = 0;
};

// The blocked wait resolved after `waited`.
struct AsyncWaitEnd {
  simkit::SimTime now = 0;
  int64_t execution_id = 0;
  telemetry::CausalEdgeId edge;
  simkit::SimDuration waited = 0;
};

// The core's answer to DispatchStart: which host mechanisms to engage for this execution.
struct MonitorDirectives {
  // Begin a per-execution counter session over the symptom events (first Uncategorized
  // dispatch only; idempotent for the host to ignore when already counting).
  bool start_counters = false;
  // Arm the hang check: if this event is still dispatching one hang-timeout from now, start
  // periodic stack-trace collection until the event ends.
  bool arm_hang_check = false;
};

// The SPI as an interface: something that eats one session's telemetry and answers
// DispatchStart with MonitorDirectives. DetectorCore implements it directly (the
// single-session case); a DetectorService session handle implements it by routing the record
// to the shard that owns the session. The recording taps (SessionLogWriter,
// SpiStreamRecorder) implement it too: a tap answers every DispatchStart with default
// directives, which nobody reads, and never influences the core. faultsim::FaultInjector is
// one more SpiBackend, in front of a core and an optional tap, so a host drives a private
// core, one session of a multiplexed service, or a recording of either through one interface.
class SpiBackend {
 public:
  virtual ~SpiBackend() = default;
  // The stream's kSessionOpen: the session's facts, before any telemetry. A backend built
  // with its session (DetectorCore, a DetectorService session handle) ignores it; a tap
  // writes its header here.
  virtual void OnSessionStart(const SessionInfo& /*info*/) {}
  virtual MonitorDirectives OnDispatchStart(const DispatchStart& start) = 0;
  virtual void OnDispatchEnd(const DispatchEnd& end) = 0;
  virtual void OnActionQuiesce(const ActionQuiesce& quiesce) = 0;
  virtual void OnCounterFault(const CounterFault& fault) = 0;
  virtual void OnAsyncPost(const AsyncPost& post) = 0;
  virtual void OnAsyncRun(const AsyncRun& run) = 0;
  virtual void OnAsyncWaitStart(const AsyncWaitStart& wait) = 0;
  virtual void OnAsyncWaitEnd(const AsyncWaitEnd& wait) = 0;
};

}  // namespace hangdoctor

#endif  // SRC_HANGDOCTOR_HOST_SPI_H_
