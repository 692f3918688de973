// Random SPI-stream generation for the property-based half of the fuzz harness. Generates
// syntactically *valid* telemetry streams — monotone timestamps, matched start/end pairs,
// increasing execution ids, declared action uids — with randomized hangs, counter windows,
// trace samples, and (optionally) counter faults; the property test then asserts that a
// DetectorCore fed any such stream performs only legal Figure 3 action-state transitions and
// keeps its overhead accounting monotone.
//
// With `corrupt` set, one deliberate contract violation is spliced in (time regression,
// orphan record, unmatched start, out-of-range uid, ...) and reported in `corruption`; the
// test then asserts the core either drops the record (counted) or fails sticky — and never
// crashes.
//
// Everything is a pure function of (options, the Rng's state): a failing seed replays.
#ifndef SRC_FAULTSIM_STREAM_GEN_H_
#define SRC_FAULTSIM_STREAM_GEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/hangdoctor/host_spi.h"
#include "src/hangdoctor/session_stream.h"
#include "src/simkit/rng.h"
#include "src/telemetry/symbols.h"

namespace faultsim {

struct StreamGenOptions {
  int32_t num_actions = 4;
  int32_t num_executions = 16;
  double hang_probability = 0.35;
  // P(a hanging event delivers a trace window) — windows may still hold zero samples.
  double trace_probability = 0.5;
  // P(a CounterFault record is emitted during an execution).
  double counter_fault_probability = 0.0;
  // Splice in one contract violation (see file comment).
  bool corrupt = false;
};

struct GeneratedStream {
  std::unique_ptr<telemetry::SymbolTable> symbols;
  hangdoctor::SessionInfo info;  // info.symbols points at *symbols
  // The SPI pushes in order (kDispatchStart / kDispatchEnd / kActionQuiesce /
  // kCounterFault), with sample storage owned; push each with hangdoctor::PushSpiPayload.
  std::vector<hangdoctor::SpiPayload> events;
  // Which violation was spliced in; empty for a valid stream.
  std::string corruption;
};

GeneratedStream GenerateStream(const StreamGenOptions& options, simkit::Rng& rng);

}  // namespace faultsim

#endif  // SRC_FAULTSIM_STREAM_GEN_H_
