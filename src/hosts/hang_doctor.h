// The droidsim Telemetry Host: attaches a substrate-agnostic DetectorCore
// (src/hangdoctor/detector_core.h) to one app on one simulated phone. This class owns every
// substrate mechanism the paper's runtime needs —
//  - Looper dispatch notifications (AppObserver) become DispatchStart/End/ActionQuiesce
//    telemetry,
//  - the core's start_counters directive opens a perfsim::PerfSession over the main and
//    render threads counting exactly the filter's events,
//  - the core's arm_hang_check directive schedules the one-timeout-later check that starts
//    the StackSampler if the event is still dispatching (Trace Collector),
//  - async posts / task runs / future waits (AppObserver's causal callbacks) become
//    AsyncPost/AsyncRun/AsyncWaitStart/AsyncWaitEnd telemetry, and while the main thread is
//    both sampled and blocked in a wait, a per-async-thread StackSampler collects the target
//    thread's stacks so the Diagnoser can walk the waiting chain,
//  - at quiesce, the main−render counter differences are read back (only when the core was
//    counting and the action hung) and pushed in with the quiesce event —
// while every detection decision stays in the core. Every record goes through the host's
// FaultInjector (src/faultsim), an SpiBackend that hands it to an optional recording sink
// (another SpiBackend) and then to the core; under the default, disabled plan it forwards each
// record once, in push order, and draws no randomness. The sink therefore observes the exact
// stream the core consumes, which is how session recording works (session_log.h).
//
// This is the drop-in successor of the old monolithic hangdoctor::HangDoctor; constructor and
// accessors are unchanged, so existing experiments only swap the include path.
//
// The host drives either a private DetectorCore (owned-core mode — every accessor below
// works) or a DetectorService session it opened (service mode — detection state lives in the
// service; the caller harvests it with DetectorService::Close after the run). The injector
// feeds either one through the SpiBackend interface, so recorded sessions replay
// bit-identically either way.
#ifndef SRC_HOSTS_HANG_DOCTOR_H_
#define SRC_HOSTS_HANG_DOCTOR_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/droidsim/app.h"
#include "src/droidsim/phone.h"
#include "src/droidsim/stack_sampler.h"
#include "src/faultsim/fault_injector.h"
#include "src/faultsim/fault_plan.h"
#include "src/hangdoctor/detector_core.h"
#include "src/hangdoctor/detector_service.h"
#include "src/perfsim/perf_session.h"
#include "src/telemetry/session.h"

namespace hangdoctor {

class HangDoctor : public droidsim::AppObserver {
 public:
  // Owned-core mode. `database` may be null (a private one is used); when given it must
  // outlive this object and collects discoveries across devices. `sink`, when given,
  // receives the full telemetry stream fed to the core (see host_spi.h) and must outlive
  // this object. `plan`, when enabled, injects telemetry faults between this host's
  // mechanisms and the core (src/faultsim); the sink observes the post-injection stream, so
  // faulty sessions record and replay bit-identically.
  HangDoctor(droidsim::Phone* phone, droidsim::App* app, HangDoctorConfig config,
             BlockingApiDatabase* database = nullptr, int32_t device_id = 0,
             SpiBackend* sink = nullptr, faultsim::FaultPlan plan = {});
  // Service mode: opens session `id` on `service` (throws std::invalid_argument if the id is
  // already open) and streams this app's telemetry into it. The session's seed catalog and
  // knowledge base come from the service (ServiceOptions.seed_db / knowledge_base — one
  // source of truth, not a per-session pointer). The service must outlive this object; the
  // caller owns the session's lifecycle end — harvest with service->Close(id) (or Discard)
  // after the run. The core-state accessors below must not be used in this mode.
  HangDoctor(droidsim::Phone* phone, droidsim::App* app, const HangDoctorConfig& config,
             DetectorService* service, telemetry::SessionId id, int32_t device_id = 0,
             SpiBackend* sink = nullptr, faultsim::FaultPlan plan = {});
  ~HangDoctor() override;
  HangDoctor(const HangDoctor&) = delete;
  HangDoctor& operator=(const HangDoctor&) = delete;

  // droidsim::AppObserver:
  void OnInputEventStart(droidsim::App& app, const droidsim::ActionExecution& execution,
                         int32_t event_index) override;
  void OnInputEventEnd(droidsim::App& app, const droidsim::ActionExecution& execution,
                       int32_t event_index) override;
  void OnActionQuiesced(droidsim::App& app, const droidsim::ActionExecution& execution) override;
  void OnAsyncPost(droidsim::App& app, int64_t execution_id, uint64_t edge,
                   telemetry::ThreadId thread, telemetry::FrameId post_frame,
                   simkit::SimDuration delay) override;
  void OnAsyncRun(droidsim::App& app, int64_t execution_id, uint64_t edge,
                  telemetry::ThreadId thread, bool begin) override;
  void OnAsyncWaitStart(droidsim::App& app, int64_t execution_id, uint64_t edge,
                        telemetry::FrameId wait_frame) override;
  void OnAsyncWaitEnd(droidsim::App& app, int64_t execution_id, uint64_t edge,
                      simkit::SimDuration waited) override;

  // Owned-core accessors; undefined in service mode (state lives in the service — harvest
  // it via DetectorService::Close). config() works in both modes.
  const DetectorCore& core() const { return *core_; }
  const std::vector<ExecutionRecord>& log() const { return core_->log(); }
  const ActionTable& actions() const { return core_->actions(); }
  const OverheadMeter& overhead() const { return core_->overhead(); }
  const HangBugReport& local_report() const { return core_->local_report(); }
  const BlockingApiDatabase& database() const { return core_->database(); }
  const HangDoctorConfig& config() const { return config_; }
  int64_t stack_samples_taken() const { return core_->stack_samples_taken(); }

 private:
  // Substrate state for one in-flight action execution; detection state lives in the core.
  struct HostExecution {
    std::unique_ptr<perfsim::PerfSession> session;
    std::vector<bool> event_open;
    // Worker-thread stacks collected during this execution's future waits (copied out of the
    // per-thread samplers at wait end), merged behind the main-thread window at DispatchEnd.
    std::vector<telemetry::StackTrace> async_samples;
  };

  HostExecution& Live(const droidsim::ActionExecution& execution);
  void ArmHangCheck(int64_t execution_id, int32_t event_index);
  void StartCounters(HostExecution& live);
  void StartWaitSampler(telemetry::ThreadId thread);

  void FinishSetup(const SessionInfo& info);

  droidsim::Phone* phone_;
  droidsim::App* app_;
  simkit::Rng rng_;
  HangDoctorConfig config_;
  std::unique_ptr<DetectorCore> core_;                       // owned-core mode only
  std::unique_ptr<DetectorService::SessionHandle> handle_;   // service mode only
  // Every SPI record goes through here to (sink, core or handle) — sink first, so recording
  // sees exactly what the core consumes.
  faultsim::FaultInjector injector_;
  droidsim::StackSampler sampler_;
  // One sampler per app async thread (handlers then executor pool; telemetry id = index+1).
  // A wait sampler runs only while the main thread is blocked on that thread's work AND the
  // main sampler is (or becomes) active — apps without async threads allocate nothing here.
  std::vector<std::unique_ptr<droidsim::StackSampler>> async_samplers_;
  // Which async thread each live causal edge's task runs on (from AsyncPost, pruned when the
  // task finishes) — resolves a wait's edge to the sampler to start.
  std::unordered_map<uint64_t, telemetry::ThreadId> edge_thread_;
  // The in-progress future wait (at most one: the main thread is blocked inside it).
  uint64_t active_wait_edge_ = 0;
  int64_t active_wait_execution_ = 0;
  telemetry::ThreadId active_wait_thread_ = 0;
  std::unordered_map<int64_t, HostExecution> live_;
};

}  // namespace hangdoctor

#endif  // SRC_HOSTS_HANG_DOCTOR_H_
