// Stack traces as the detector core's Diagnoser sees them: one frame per active call,
// innermost last. On the hot sampling path a frame is a 32-bit FrameId interned in a
// SymbolTable (symbols.h); the symbolic StackFrame — API name, class, call-site file/line —
// is materialized only at report-render time. Frames inside closed-source third-party
// libraries carry a flag so offline-scanner baselines can be made realistically blind to
// them while the runtime trace collector still sees the symbols (on a real phone they come
// from the unwinder; symbol names survive even without source access).
//
// These types are the Telemetry Host SPI's trace currency: hosts (the droidsim adapter, the
// session-log replayer, future /proc-style collectors) produce them, the core consumes them.
#ifndef SRC_TELEMETRY_STACK_H_
#define SRC_TELEMETRY_STACK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/telemetry/causal.h"

namespace telemetry {

// Index into a SymbolTable. Hosts must assign ids deterministically (the droidsim host
// interns by a canonical spec walk at App construction), so the same app yields the same ids
// in every run and under any fleet sharding.
using FrameId = uint32_t;

// No frame: what a FrameId field holds before (or without) a diagnosis assigning it.
inline constexpr FrameId kNoFrame = UINT32_MAX;

// A materialized (symbolic) frame: what reports and diagnoses show.
struct StackFrame {
  std::string function;  // e.g. "clean"
  std::string clazz;     // e.g. "org.htmlcleaner.HtmlCleaner"
  std::string file;      // e.g. "HtmlSanitizer.java"
  int32_t line = 0;
  bool in_closed_library = false;

  bool operator==(const StackFrame& other) const {
    return function == other.function && clazz == other.clazz && file == other.file &&
           line == other.line;
  }
};

// A sampled stack: interned frame ids, outermost first. Resolving an id back to its
// StackFrame requires the session's SymbolTable (see SymbolTable::Frame). `thread` says
// which thread the sample was taken on (causal.h); 0 — the main thread — is the default, so
// every producer that predates cross-thread sampling is already tagged correctly.
struct StackTrace {
  int64_t timestamp_ns = 0;
  ThreadId thread = kMainThread;
  std::vector<FrameId> frames;  // outermost first

  bool Contains(FrameId id) const {
    for (FrameId frame : frames) {
      if (frame == id) {
        return true;
      }
    }
    return false;
  }
};

// Renders "function(File.java:123)" like an Android stack dump line.
inline std::string FormatFrame(const StackFrame& frame) {
  return frame.function + "(" + frame.file + ":" + std::to_string(frame.line) + ")";
}

}  // namespace telemetry

#endif  // SRC_TELEMETRY_STACK_H_
