#include "src/hangdoctor/trace_analyzer.h"

#include <algorithm>
#include <cstdint>
#include <utility>

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

// One census entry: a frame id and how often the usable samples hold it.
struct Count {
  telemetry::FrameId id;
  int64_t count;
};

// The runs of sorted `ids` as (id, run length), in ascending id order.
std::vector<Count> CountRuns(std::vector<telemetry::FrameId> ids) {
  std::sort(ids.begin(), ids.end());
  std::vector<Count> counts;
  for (size_t i = 0; i < ids.size();) {
    size_t end = i;
    while (end < ids.size() && ids[end] == ids[i]) {
      ++end;
    }
    counts.push_back({ids[i], static_cast<int64_t>(end - i)});
    i = end;
  }
  return counts;
}

// The most frequent entry among those `eligible` accepts, ties to the smallest key; null
// when none is eligible.
template <typename Eligible>
const Count* MostFrequent(const std::vector<Count>& counts,
                          const telemetry::SymbolTable& symbols, Eligible eligible) {
  const Count* top = nullptr;
  for (const Count& entry : counts) {
    if (!eligible(entry.id)) {
      continue;
    }
    if (top == nullptr || entry.count > top->count ||
        (entry.count == top->count && KeyLess(symbols, entry.id, top->id))) {
      top = &entry;
    }
  }
  return top;
}

// The decision procedure over the sampled traces. Candidates come in ascending id order, as
// the old id-indexed scan visited them, and every exact tie falls to the smallest census
// key, so each Diagnosis matches that scan's byte for byte.
Diagnosis Diagnose(std::vector<const telemetry::StackTrace*> usable,
                   const telemetry::SymbolTable& symbols, const TraceAnalyzerConfig& config) {
  // A dominant single API is reported as a (possibly new) blocking API even when its class
  // lives in the app's own package — runtime behaviour, not provenance, is what matters
  // (Section 2.2: blocking status comes from expert diagnosis of runtime data).
  Diagnosis diagnosis;
  // A frame id outside the session's symbol table marks a corrupted sample (a fuzzed or torn
  // log); such traces are excluded from the census rather than resolved blindly. Empty
  // (idle) samples carry no frame.
  std::erase_if(usable, [&symbols](const telemetry::StackTrace* trace) {
    return trace->frames.empty() ||
           std::any_of(trace->frames.begin(), trace->frames.end(),
                       [&symbols](telemetry::FrameId id) { return id >= symbols.size(); });
  });
  if (usable.empty()) {
    return diagnosis;
  }
  diagnosis.valid = true;
  diagnosis.samples_used = usable.size();
  double total = static_cast<double>(usable.size());

  // Innermost-frame census.
  std::vector<telemetry::FrameId> leaves;
  leaves.reserve(usable.size());
  int64_t ui_innermost = 0;
  for (const telemetry::StackTrace* trace : usable) {
    telemetry::FrameId leaf = trace->frames.back();
    leaves.push_back(leaf);
    if (symbols.IsUi(leaf)) {
      ++ui_innermost;
    }
  }
  const std::vector<Count> innermost = CountRuns(std::move(leaves));
  const Count& top = *MostFrequent(innermost, symbols, [](telemetry::FrameId) { return true; });

  // Case 2: the samples are dominated by UI-class work.
  if (static_cast<double>(ui_innermost) / total >= config.ui_majority) {
    // Report the most frequent innermost UI frame as the (benign) cause.
    const Count* top_ui = MostFrequent(
        innermost, symbols, [&symbols](telemetry::FrameId id) { return symbols.IsUi(id); });
    const Count& chosen = top_ui != nullptr ? *top_ui : top;
    diagnosis.culprit = chosen.id;
    diagnosis.occurrence_factor = static_cast<double>(chosen.count) / total;
    diagnosis.is_ui = true;
    return diagnosis;
  }

  // Case 3: one API dominates.
  double top_occurrence = static_cast<double>(top.count) / total;
  if (top_occurrence >= config.api_occurrence_threshold) {
    diagnosis.culprit = top.id;
    diagnosis.occurrence_factor = top_occurrence;
    diagnosis.is_ui = symbols.IsUi(top.id);
    return diagnosis;
  }

  // Case 4: many light callees — find the deepest caller frame common to most samples.
  // Count occurrence (at any depth) per non-leaf frame, remembering its maximum depth: sorted
  // (id, depth) pairs put each id's occurrences in one run, its deepest last.
  std::vector<std::pair<telemetry::FrameId, size_t>> callers;
  for (const telemetry::StackTrace* trace : usable) {
    for (size_t depth = 0; depth + 1 < trace->frames.size(); ++depth) {
      callers.emplace_back(trace->frames[depth], depth);
    }
  }
  std::sort(callers.begin(), callers.end());
  telemetry::FrameId best = kNoFrame;
  int64_t best_count = 0;
  size_t best_depth = 0;
  for (size_t i = 0; i < callers.size();) {
    const telemetry::FrameId id = callers[i].first;
    size_t end = i;
    while (end < callers.size() && callers[end].first == id) {
      ++end;
    }
    const auto count = static_cast<int64_t>(end - i);
    const size_t depth = callers[end - 1].second;
    i = end;
    double occurrence = static_cast<double>(count) / total;
    if (occurrence < config.caller_occurrence_threshold) {
      continue;
    }
    if (best == kNoFrame || depth > best_depth ||
        (depth == best_depth &&
         (count > best_count || (count == best_count && KeyLess(symbols, id, best))))) {
      best = id;
      best_count = count;
      best_depth = depth;
    }
  }
  if (best != kNoFrame) {
    diagnosis.culprit = best;
    diagnosis.occurrence_factor = static_cast<double>(best_count) / total;
    diagnosis.is_ui = symbols.IsUi(best);
    diagnosis.is_self_developed = true;
    return diagnosis;
  }

  // Fall back to the most frequent innermost frame even below threshold.
  diagnosis.culprit = top.id;
  diagnosis.occurrence_factor = top_occurrence;
  diagnosis.is_ui = symbols.IsUi(top.id);
  return diagnosis;
}

}  // namespace

Diagnosis TraceAnalyzer::Analyze(std::span<const telemetry::StackTrace> traces,
                                 const telemetry::SymbolTable& symbols) const {
  std::vector<const telemetry::StackTrace*> pointers;
  pointers.reserve(traces.size());
  for (const telemetry::StackTrace& trace : traces) {
    pointers.push_back(&trace);
  }
  return Diagnose(std::move(pointers), symbols, config_);
}

Diagnosis TraceAnalyzer::AnalyzeCausal(std::span<const telemetry::StackTrace> traces,
                                       const telemetry::SymbolTable& symbols,
                                       std::span<const telemetry::FrameId> wait_frames) const {
  if (wait_frames.empty()) {
    return Analyze(traces, symbols);
  }
  // Partition by thread: the main thread's samples carry the symptom (the wait frame); any
  // async thread's samples carry the cause.
  std::vector<const telemetry::StackTrace*> main_traces;
  std::vector<const telemetry::StackTrace*> async_traces;
  for (const telemetry::StackTrace& trace : traces) {
    (trace.thread == telemetry::kMainThread ? main_traces : async_traces).push_back(&trace);
  }
  Diagnosis main_diag = Diagnose(std::move(main_traces), symbols, config_);
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
  Diagnosis async_diag = Diagnose(std::move(async_traces), symbols, config_);
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
