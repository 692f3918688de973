// The substrate-agnostic Hang Doctor core (Figure 2(a)): the two-phase detector as a pure
// function of a telemetry stream. Components and their paper counterparts:
//  - App Injector        -> the constructor: seeds the action table with one UID per action.
//  - Response Time Mon.  -> DispatchStart/DispatchEnd telemetry (on a device this is Looper
//                           message logging, the setMessageLogging technique of Section 3.5;
//                           in simulation the droidsim host's dispatch notifications).
//  - Perf Event Monitor  -> the host's counter session, engaged on the core's
//                           start_counters directive and read back as ActionQuiesce deltas.
//  - S-Checker           -> first phase, runs for Uncategorized actions: on a >100 ms action,
//                           applies the SoftHangFilter to the main−render counter deltas.
//  - Diagnoser           -> second phase, runs for Suspicious/HangBug actions: arms the
//                           host's hang check, consumes the stack samples delivered at
//                           DispatchEnd, and attributes the hang (Trace Analyzer),
//                           transitioning the action per Figure 3.
//  - Hang Bug Report     -> diagnosed bugs are recorded locally and into a shared fleet report.
//  - Blocking-API DB     -> newly diagnosed non-UI, non-self-developed APIs are added so
//                           offline detectors learn them.
//
// The core depends only on the Telemetry Host SPI (host_spi.h), simkit time/ids, and the
// telemetry vocabulary — never on a substrate. Feeding two cores the same SessionInfo,
// config, and telemetry stream produces bit-identical logs, state transitions, reports, and
// overhead accounting; that property is what the session record/replay hosts build on.
//
// Every monitoring act is charged to an OverheadMeter per the Section 4.5 methodology.
#ifndef SRC_HANGDOCTOR_DETECTOR_CORE_H_
#define SRC_HANGDOCTOR_DETECTOR_CORE_H_

#include <limits>
#include <unordered_map>
#include <vector>

#include "src/hangdoctor/action_state.h"
#include "src/hangdoctor/blocking_api_db.h"
#include "src/hangdoctor/filter.h"
#include "src/hangdoctor/host_spi.h"
#include "src/hangdoctor/knowledge_base.h"
#include "src/hangdoctor/overhead.h"
#include "src/hangdoctor/report.h"
#include "src/hangdoctor/stream_guard.h"
#include "src/hangdoctor/thresholds.h"
#include "src/hangdoctor/trace_analyzer.h"

namespace hangdoctor {

enum class Verdict : uint8_t {
  kNotChecked,        // Normal-state action: no monitoring beyond the state lookup
  kNoHang,            // response never exceeded the timeout
  kFilteredUi,        // S-Checker: no symptoms -> Normal
  kMarkedSuspicious,  // S-Checker: symptoms -> Suspicious
  kAwaitingHang,      // Diagnoser armed but the action did not hang this time
  kDiagnosedUi,       // Diagnoser: culprit is a UI operation -> Normal (path B)
  kDiagnosedBug,      // Diagnoser: soft hang bug confirmed -> Hang Bug (path C)
  kCounterFailure,    // S-Checker: hang but no usable counters yet -> stays Uncategorized
};

const char* VerdictName(Verdict verdict);

// One counter difference S-Checker read: the main−render delta of one filter event.
struct SCheckerReading {
  telemetry::PerfEventType event = telemetry::PerfEventType::kContextSwitches;
  double diff = 0.0;
};

// One entry of the execution log. A daemon retains every record of every session until it
// is harvested, so the record stays small: frames are ids into the session's SymbolTable
// (Diagnosis), and only the filter's counter differences are kept, only when S-Checker ran.
struct ExecutionRecord {
  int32_t action_uid = -1;
  ActionState state_before = ActionState::kUncategorized;
  Verdict verdict = Verdict::kNotChecked;
  bool hang = false;
  bool schecker_ran = false;
  bool diagnoser_ran = false;
  bool traced = false;
  // The check ran without usable counters (invalid read, or counters permanently gone and
  // S-Checker fell back to the timeout-only predicate).
  bool degraded = false;
  int64_t execution_id = 0;
  simkit::SimDuration response = 0;
  Diagnosis diagnosis;
  // Counter differences S-Checker read, one per filter event; empty unless it ran.
  std::vector<SCheckerReading> schecker_diffs;
  // Stack traces the Diagnoser collected (kept only when config.keep_traces is set).
  std::vector<telemetry::StackTrace> traces;

  // The difference S-Checker read for `event`; 0.0 for an event outside the filter or when
  // S-Checker did not run.
  double SCheckerDiff(telemetry::PerfEventType event) const {
    for (const SCheckerReading& reading : schecker_diffs) {
      if (reading.event == event) {
        return reading.diff;
      }
    }
    return 0.0;
  }
};
static_assert(sizeof(ExecutionRecord) <= 112, "a daemon retains every execution record");

struct HangDoctorConfig {
  SoftHangFilter filter = SoftHangFilter::Default();
  // Monitor only the main thread (pre-5.0 devices, Table 3(b) mode).
  bool main_only = false;
  simkit::SimDuration hang_timeout = kHangTimeout;
  simkit::SimDuration sample_interval = kDefaultSampleInterval;
  int32_t reset_after_normal = kDefaultResetAfterNormal;
  TraceAnalyzerConfig analyzer;
  MonitorCosts costs;
  // Test-bed mode (Section 4.6): skip phase 1 and trace every soft hang.
  bool second_phase_only = false;
  // Retain collected stack traces in the execution log (debugging / report rendering).
  bool keep_traces = false;
  // Graceful-degradation policy for transient counter-session failures (DESIGN.md 3.4):
  // bounded per-execution retries, each waiting counter_retry_backoff << (k-1) dispatch
  // events before re-issuing start_counters.
  int32_t max_counter_retries = kMaxCounterOpenRetries;
  int32_t counter_retry_backoff = kCounterRetryBackoffDispatches;
};

class DetectorCore : public SpiBackend {
 public:
  // `database` may be null (a private one is used); when given it must outlive this object
  // and collects discoveries across devices. `info.symbols` must outlive this object. Throws
  // std::invalid_argument when `info` is malformed (null symbol table or a non-positive
  // action count) — a session that cannot be monitored is refused up front rather than left
  // to fault on the first telemetry push.
  //
  // `kb` is an optional knowledge-base snapshot (knowledge_base.h): when valid, the
  // Diagnoser consults the shared diagnosis memo before running the trace analyzer — a hit
  // returns the identical Diagnosis with the Analyze work skipped — and diagnoses computed
  // locally queue in TakeKbMemos() for publication at session close. Verdicts, logs, and
  // reports are bit-identical with any snapshot (including none): the memo caches a pure
  // function and the database is write-only on the detection path.
  DetectorCore(const SessionInfo& info, HangDoctorConfig config,
               BlockingApiDatabase* database = nullptr, KnowledgeBase::Snapshot kb = {});
  DetectorCore(const DetectorCore&) = delete;
  DetectorCore& operator=(const DetectorCore&) = delete;

  // Telemetry Host SPI entry points (see host_spi.h for the contract).
  MonitorDirectives OnDispatchStart(const DispatchStart& start) override;
  void OnDispatchEnd(const DispatchEnd& end) override;
  void OnActionQuiesce(const ActionQuiesce& quiesce) override;
  void OnCounterFault(const CounterFault& fault) override;
  void OnAsyncPost(const AsyncPost& post) override;
  void OnAsyncRun(const AsyncRun& run) override;
  void OnAsyncWaitStart(const AsyncWaitStart& wait) override;
  void OnAsyncWaitEnd(const AsyncWaitEnd& wait) override;

  const std::vector<ExecutionRecord>& log() const { return log_; }
  // Moves the execution log out (the DetectorService harvests it when a session closes and
  // the core is about to be destroyed); the core is not usable for detection afterwards.
  std::vector<ExecutionRecord> TakeLog() { return std::move(log_); }
  const ActionTable& actions() const { return table_; }
  const OverheadMeter& overhead() const { return overhead_; }
  const HangBugReport& local_report() const { return local_report_; }
  const BlockingApiDatabase& database() const { return *database_; }
  const HangDoctorConfig& config() const { return config_; }
  const SessionInfo& session() const { return info_; }
  int64_t stack_samples_taken() const { return samples_taken_; }
  const DegradationStats& degradation() const { return degradation_; }
  // What the knowledge base saved this session (zeros when no snapshot was supplied).
  const KbSessionStats& kb_stats() const { return kb_stats_; }
  // Moves out the diagnoses this session computed itself (memo misses), for publication into
  // the shared memo. Harvested once at session close, like TakeLog().
  std::vector<DiagnosisMemoEntry> TakeKbMemos() { return std::move(kb_memos_); }
  // SPI-stream validator; stream().ok() goes false (sticky) on an impossible stream.
  const StreamGuard& stream() const { return guard_; }

 private:
  struct LiveExecution {
    ActionState state_before = ActionState::kUncategorized;
    std::vector<telemetry::StackTrace> traces;
    // Wait frames (Future.get sites) this execution blocked in, from AsyncWaitStart records;
    // the Diagnoser's waiting-chain walk re-attributes a hang whose culprit is one of these.
    std::vector<telemetry::FrameId> wait_frames;
    int32_t action_uid = -1;
    // event_index of the input event currently dispatching; -1 between events. A second
    // start while an event is open is an impossible stream (sticky StreamError).
    int32_t open_event = -1;
    bool counters_started = false;
    bool diagnoser_armed = false;
    simkit::SimDuration longest_hang = 0;
  };

  LiveExecution& Live(const DispatchStart& start);
  void RunSChecker(const ActionQuiesce& quiesce, LiveExecution& live, ExecutionRecord& record);
  void RunDiagnoser(const ActionQuiesce& quiesce, LiveExecution& live, ExecutionRecord& record);

  SessionInfo info_;
  HangDoctorConfig config_;
  ActionTable table_;
  TraceAnalyzer analyzer_;
  BlockingApiDatabase own_database_;
  BlockingApiDatabase* database_;
  HangBugReport local_report_;
  OverheadMeter overhead_;
  StreamGuard guard_;
  DegradationStats degradation_;
  KnowledgeBase::Snapshot kb_;
  KbSessionStats kb_stats_;
  std::vector<DiagnosisMemoEntry> kb_memos_;
  // Reused buffer for FillDiagnosisMemoKey: repeat diagnoses build their probe key with
  // zero allocations.
  DiagnosisMemoKey kb_key_scratch_;
  std::unordered_map<int64_t, LiveExecution> live_;
  std::vector<ExecutionRecord> log_;
  int64_t samples_taken_ = 0;
  // Highest execution_id ever quiesced: a DispatchStart at or below it (and not live) is a
  // stale re-delivery and is dropped, not restarted.
  int64_t completed_watermark_ = std::numeric_limits<int64_t>::min();
  // Counter-open retry state, session-wide (executions are usually single-dispatch, so the
  // backoff clock must span executions): `counter_failure_streak_` counts consecutive
  // transient open failures and resets when an opened session survives to quiesce;
  // `dispatch_events_` is the backoff clock; a retry is issued once it reaches
  // `counter_retry_at_`. A streak past config.max_counter_retries escalates to
  // counters_unavailable.
  int64_t dispatch_events_ = 0;
  int32_t counter_failure_streak_ = 0;
  int64_t counter_retry_at_ = 0;
};

}  // namespace hangdoctor

#endif  // SRC_HANGDOCTOR_DETECTOR_CORE_H_
