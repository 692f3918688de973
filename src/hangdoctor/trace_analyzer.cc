#include "src/hangdoctor/trace_analyzer.h"

#include <algorithm>
#include <cstdint>

namespace hangdoctor {

namespace {

// The census identity string the analyzer historically keyed on. Only materialized to break
// exact count ties, so the common path never touches symbols.
std::string FrameKey(const telemetry::StackFrame& frame) {
  return frame.clazz + "." + frame.function + "@" + frame.file + ":" +
         std::to_string(frame.line);
}

// Tie order: lexicographically smallest census key wins (the order the analyzer's old
// string-keyed map iterated in), keeping diagnoses byte-identical across the id refactor.
bool KeyLess(const telemetry::SymbolTable& symbols, telemetry::FrameId a, telemetry::FrameId b) {
  return FrameKey(symbols.Frame(a)) < FrameKey(symbols.Frame(b));
}

using telemetry::kNoFrame;

}  // namespace

Diagnosis TraceAnalyzer::Analyze(std::span<const telemetry::StackTrace> traces,
                                 const telemetry::SymbolTable& symbols) const {
  // A dominant single API is reported as a (possibly new) blocking API even when its class
  // lives in the app's own package — runtime behaviour, not provenance, is what matters
  // (Section 2.2: blocking status comes from expert diagnosis of runtime data).
  Diagnosis diagnosis;
  std::vector<const telemetry::StackTrace*> usable;
  for (const telemetry::StackTrace& trace : traces) {
    if (trace.frames.empty()) {
      continue;
    }
    // A frame id outside the session's symbol table marks a corrupted sample (a fuzzed or
    // torn log); such traces are excluded from the census rather than indexed blindly.
    bool in_range = true;
    for (telemetry::FrameId id : trace.frames) {
      if (id >= symbols.size()) {
        in_range = false;
        break;
      }
    }
    if (in_range) {
      usable.push_back(&trace);
    }
  }
  if (usable.empty()) {
    return diagnosis;
  }
  diagnosis.valid = true;
  diagnosis.samples_used = usable.size();
  double total = static_cast<double>(usable.size());

  // Innermost-frame census: dense integer counting over frame ids.
  std::vector<int64_t> innermost(symbols.size(), 0);
  int64_t ui_innermost = 0;
  for (const telemetry::StackTrace* trace : usable) {
    telemetry::FrameId leaf = trace->frames.back();
    ++innermost[leaf];
    if (symbols.IsUi(leaf)) {
      ++ui_innermost;
    }
  }
  telemetry::FrameId top = kNoFrame;
  for (telemetry::FrameId id = 0; id < innermost.size(); ++id) {
    if (innermost[id] == 0) {
      continue;
    }
    if (top == kNoFrame || innermost[id] > innermost[top] ||
        (innermost[id] == innermost[top] && KeyLess(symbols, id, top))) {
      top = id;
    }
  }

  // Case 2: the samples are dominated by UI-class work.
  if (static_cast<double>(ui_innermost) / total >= config_.ui_majority) {
    // Report the most frequent innermost UI frame as the (benign) cause.
    telemetry::FrameId top_ui = kNoFrame;
    for (telemetry::FrameId id = 0; id < innermost.size(); ++id) {
      if (innermost[id] == 0 || !symbols.IsUi(id)) {
        continue;
      }
      if (top_ui == kNoFrame || innermost[id] > innermost[top_ui] ||
          (innermost[id] == innermost[top_ui] && KeyLess(symbols, id, top_ui))) {
        top_ui = id;
      }
    }
    telemetry::FrameId chosen = top_ui != kNoFrame ? top_ui : top;
    diagnosis.culprit = chosen;
    diagnosis.occurrence_factor = static_cast<double>(innermost[chosen]) / total;
    diagnosis.is_ui = true;
    return diagnosis;
  }

  // Case 3: one API dominates.
  double top_occurrence = static_cast<double>(innermost[top]) / total;
  if (top_occurrence >= config_.api_occurrence_threshold) {
    diagnosis.culprit = top;
    diagnosis.occurrence_factor = top_occurrence;
    diagnosis.is_ui = symbols.IsUi(top);
    return diagnosis;
  }

  // Case 4: many light callees — find the deepest caller frame common to most samples.
  // Count occurrence (at any depth) per non-leaf frame, remembering its maximum depth.
  std::vector<int64_t> callers(symbols.size(), 0);
  std::vector<size_t> caller_depth(symbols.size(), 0);
  for (const telemetry::StackTrace* trace : usable) {
    for (size_t depth = 0; depth + 1 < trace->frames.size(); ++depth) {
      telemetry::FrameId id = trace->frames[depth];
      ++callers[id];
      caller_depth[id] = std::max(caller_depth[id], depth);
    }
  }
  telemetry::FrameId best = kNoFrame;
  for (telemetry::FrameId id = 0; id < callers.size(); ++id) {
    if (callers[id] == 0) {
      continue;
    }
    double occurrence = static_cast<double>(callers[id]) / total;
    if (occurrence < config_.caller_occurrence_threshold) {
      continue;
    }
    if (best == kNoFrame || caller_depth[id] > caller_depth[best] ||
        (caller_depth[id] == caller_depth[best] &&
         (callers[id] > callers[best] ||
          (callers[id] == callers[best] && KeyLess(symbols, id, best))))) {
      best = id;
    }
  }
  if (best != kNoFrame) {
    diagnosis.culprit = best;
    diagnosis.occurrence_factor = static_cast<double>(callers[best]) / total;
    diagnosis.is_ui = symbols.IsUi(best);
    diagnosis.is_self_developed = true;
    return diagnosis;
  }

  // Fall back to the most frequent innermost frame even below threshold.
  diagnosis.culprit = top;
  diagnosis.occurrence_factor = top_occurrence;
  diagnosis.is_ui = symbols.IsUi(top);
  return diagnosis;
}

Diagnosis TraceAnalyzer::AnalyzeCausal(std::span<const telemetry::StackTrace> traces,
                                       const telemetry::SymbolTable& symbols,
                                       std::span<const telemetry::FrameId> wait_frames) const {
  if (wait_frames.empty()) {
    return Analyze(traces, symbols);
  }
  // Partition by thread: the main thread's samples carry the symptom (the wait frame); any
  // async thread's samples carry the cause. Diagnosis runs once per hang, so the copies here
  // never touch the sampling hot path.
  std::vector<telemetry::StackTrace> main_traces;
  std::vector<telemetry::StackTrace> async_traces;
  for (const telemetry::StackTrace& trace : traces) {
    (trace.thread == telemetry::kMainThread ? main_traces : async_traces).push_back(trace);
  }
  Diagnosis main_diag = Analyze(main_traces, symbols);
  if (!main_diag.valid) {
    return main_diag;
  }
  // Ids compare exactly: a SymbolTable never holds two ids for one frame (Intern dedups on
  // the fields StackFrame::operator== compares, and a parsed table with a duplicate frame is
  // rejected).
  bool culprit_is_wait =
      std::find(wait_frames.begin(), wait_frames.end(), main_diag.culprit) != wait_frames.end();
  if (!culprit_is_wait || async_traces.empty()) {
    return main_diag;
  }
  Diagnosis async_diag = Analyze(async_traces, symbols);
  if (!async_diag.valid) {
    return main_diag;  // async thread was idle/unsampled; the wait-site diagnosis stands
  }
  async_diag.via_async_wait = true;
  async_diag.wait_frame = main_diag.culprit;
  // Worker stacks are rooted at the submit site, so the caller census (case 4) that marks
  // self-developed work on the main thread cannot fire here — the async culprit is a
  // dominant leaf either way. The host's provenance bit on the culprit frame substitutes,
  // keeping self-developed operations out of the blocking-API database on this path too.
  if (symbols.IsSelfDeveloped(async_diag.culprit)) {
    async_diag.is_self_developed = true;
  }
  return async_diag;
}

}  // namespace hangdoctor
