// Trace Analyzer (Section 3.4.1): given the stack traces collected during a soft hang, find
// the root-cause operation via occurrence factors and classify it as a UI operation or a soft
// hang bug.
//
// Decision procedure:
//  1. Discard empty (idle) samples.
//  2. If the majority of samples execute a UI-class API innermost, the hang is UI work.
//  3. Otherwise, if one API dominates the innermost frames (occurrence factor >= the
//     threshold), it is the culprit — a single heavy blocking API (the camera.open /
//     HtmlCleaner.clean shape).
//  4. Otherwise many light APIs share the time: the culprit is the deepest *caller* common to
//     most samples — a self-developed lengthy operation (the heavy-loop shape). Moving any
//     single callee would not fix the hang, so the whole caller is reported.
//
// Traces carry interned FrameIds, so the occurrence census sorts the ids the usable samples
// touch and counts runs: a hang costs in proportion to its samples, not to the app's symbol
// table. The diagnosis names its culprit by id too: strings are built only to break exact
// count ties and when a report is rendered.
#ifndef SRC_HANGDOCTOR_TRACE_ANALYZER_H_
#define SRC_HANGDOCTOR_TRACE_ANALYZER_H_

#include <span>
#include <string>
#include <vector>

#include "src/hangdoctor/thresholds.h"
#include "src/telemetry/stack.h"
#include "src/telemetry/symbols.h"

namespace hangdoctor {

// A diagnosis names frames by id in the session's SymbolTable, like the traces it came from;
// HangBugReport::Record and the renderers resolve them to strings.
struct Diagnosis {
  // The culprit frame; meaningful only when `valid`.
  telemetry::FrameId culprit = telemetry::kNoFrame;
  // Waiting-chain provenance (DESIGN.md section 3.8): set when the main-thread culprit was a
  // blocking wait and the hang was re-attributed to the async thread's stack. `culprit` is
  // then the async culprit; `wait_frame` keeps the main-thread wait site for the report.
  telemetry::FrameId wait_frame = telemetry::kNoFrame;
  double occurrence_factor = 0.0;
  size_t samples_used = 0;
  bool valid = false;  // false when no usable samples were collected
  bool is_ui = false;
  bool is_self_developed = false;
  bool via_async_wait = false;
};
static_assert(sizeof(Diagnosis) <= 32, "Diagnosis is retained in every execution record");

struct TraceAnalyzerConfig {
  // Minimum innermost-frame occurrence for a single API to be declared the culprit.
  double api_occurrence_threshold = kApiOccurrenceThreshold;
  // Minimum occurrence for a caller frame to be declared a self-developed culprit.
  double caller_occurrence_threshold = kCallerOccurrenceThreshold;
  // Fraction of innermost UI frames above which the hang is classified as UI work.
  double ui_majority = kUiMajorityThreshold;
};

class TraceAnalyzer {
 public:
  explicit TraceAnalyzer(TraceAnalyzerConfig config = {}) : config_(config) {}

  // `symbols` must be the table the traces' frame ids were interned in (the app's).
  // Self-developed culprits are recognized structurally (case 4) or by the host's
  // provenance bit on the frame, never by package name.
  Diagnosis Analyze(std::span<const telemetry::StackTrace> traces,
                    const telemetry::SymbolTable& symbols) const;

  // The waiting-chain walk. With no wait frames this is exactly Analyze() — bit-identical
  // for every pre-async session. Otherwise: analyze the main-thread samples as usual; when
  // the culprit turns out to be one of `wait_frames` (the execution's Future.get sites) and
  // async-thread samples exist, re-run the analysis over the async samples and attribute the
  // hang to the thread doing the work, keeping the wait site as provenance. When the async
  // samples are unusable (idle thread, no samples) the wait-frame diagnosis stands.
  Diagnosis AnalyzeCausal(std::span<const telemetry::StackTrace> traces,
                          const telemetry::SymbolTable& symbols,
                          std::span<const telemetry::FrameId> wait_frames) const;

  const TraceAnalyzerConfig& config() const { return config_; }

 private:
  TraceAnalyzerConfig config_;
};

}  // namespace hangdoctor

#endif  // SRC_HANGDOCTOR_TRACE_ANALYZER_H_
