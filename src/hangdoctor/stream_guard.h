// Shared SPI-stream validation and degradation accounting for Hang Doctor's DetectorCore
// (the baseline detectors in src/baselines/detector.h admit their events through the same
// StreamGuard).
//
// On a real device the telemetry stream is not perfect: perf sessions fail to open, samplers
// drop windows, and an adapter bug (or an injected fault — src/faultsim) can deliver
// duplicate, delayed, or out-of-order records. A core must never silently misbehave on such
// input. The policy, mirrored by the HDSL reader's sticky-fail:
//
//  - *Impossible* streams fail sticky. Time running backwards, or a DispatchStart arriving
//    while the execution's previous event never ended (an unmatched start/end pair), cannot
//    be explained by any benign host; the guard enters a StreamError state and the core
//    ignores everything that follows — a refused stream, never a garbage report.
//  - *Duplicate-shaped* anomalies degrade gracefully. A DispatchEnd or ActionQuiesce for an
//    unknown execution, a re-delivered quiesce after completion, or a stale DispatchStart
//    for an already-completed execution is indistinguishable from a benignly re-sent or
//    delayed record: it is dropped and counted, and detection continues.
//
// DegradationStats is the session-level account of every such event plus the counter-failure
// degradation path (see DetectorCore); the fleet runner surfaces it per job and
// bench/table5_app_study prints it under --faults=PROFILE.
#ifndef SRC_HANGDOCTOR_STREAM_GUARD_H_
#define SRC_HANGDOCTOR_STREAM_GUARD_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "src/simkit/time.h"

namespace hangdoctor {

// Session-level account of telemetry faults observed and degradations applied.
struct DegradationStats {
  // Counter-session failures the host reported (CounterFault records).
  int64_t counter_open_failures = 0;
  // start_counters directives re-issued after a transient failure (also counted in the
  // OverheadMeter: retries are monitoring work).
  int64_t counter_retries = 0;
  // Hangs where S-Checker had no usable counters and the retry budget was not yet exhausted:
  // the action stays Uncategorized and is re-examined on its next execution.
  int64_t invalid_counter_windows = 0;
  // Hangs classified by the degraded timeout-only predicate (counters permanently gone).
  int64_t degraded_checks = 0;
  // Armed trace collections that delivered zero samples: the diagnosis aborts and the action
  // stays Suspicious/HangBug so the next hang retries it.
  int64_t empty_trace_windows = 0;
  // Duplicate-shaped SPI records dropped by the StreamGuard policy above.
  int64_t dropped_records = 0;
  // Sticky: the host's counters are permanently unavailable; S-Checker runs timeout-only.
  bool counters_unavailable = false;

  // True when any degradation left a mark a report consumer should know about.
  bool Degraded() const {
    return counters_unavailable || degraded_checks > 0 || invalid_counter_windows > 0 ||
           counter_open_failures > 0;
  }
};

// Sticky stream validator: admits monotone timestamps until the first impossible record,
// after which every event is refused (mirrors the HDSL reader's sticky-fail).
class StreamGuard {
 public:
  // Admits an event timestamp. Returns false — sticky — once the stream is in error; a
  // regression (now earlier than the previous admitted event) trips the error.
  bool AdmitTime(simkit::SimTime now) {
    if (!ok_) {
      return false;
    }
    if (now < last_now_) {
      SetError("time regression: " + std::to_string(now) + " after " +
               std::to_string(last_now_));
      return false;
    }
    last_now_ = now;
    return true;
  }

  // Enters the sticky StreamError state (first error wins).
  void SetError(std::string message) {
    if (ok_) {
      ok_ = false;
      error_ = std::move(message);
    }
  }

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

 private:
  bool ok_ = true;
  simkit::SimTime last_now_ = std::numeric_limits<simkit::SimTime>::min();
  std::string error_;
};

}  // namespace hangdoctor

#endif  // SRC_HANGDOCTOR_STREAM_GUARD_H_
