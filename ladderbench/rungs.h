// In-process rungs of the ladder. Each drives the same session bytes through one more layer
// of the stack than the rung below it, repeats whole passes over the set for `seconds`
// (at least one pass), checks every pass's merged report against the oracle, and returns
// sessions/s plus the rung's layer metrics:
//   R1  LoadSessionLogBytes + ReplaySession::Run (a private DetectorCore per session)
//   R2  LoadSessionLogBytes + DetectorService synchronous push
//   R3  parse on `threads` producers + DetectorService::Ingestor into `threads` shard
//       workers (the pipelined ingest)
//   R4  wire bytes -> FrameSplitter -> MuxStreamDecoder -> DetectorService, no sockets
// The pass time excludes the oracle check.
#ifndef LADDERBENCH_RUNGS_H_
#define LADDERBENCH_RUNGS_H_

#include <cstdint>
#include <string>

#include "inputs.h"
#include "trace.h"

namespace ladder {

// Common keys: "<rung>.sessions", "<rung>.seconds", "<rung>.sessions_per_s",
// "<rung>.failed" with <rung> one of r1, r2, r3_t<threads>, r4.
Metrics RunR1(const SessionSet& set, const std::string& oracle, double seconds,
              SpanRecorder& spans);
Metrics RunR2(const SessionSet& set, const std::string& oracle, double seconds,
              SpanRecorder& spans);
Metrics RunR3(const SessionSet& set, const std::string& oracle, double seconds,
              int32_t threads, SpanRecorder& spans);
Metrics RunR4(const SessionSet& set, const std::string& oracle, double seconds,
              SpanRecorder& spans);

}  // namespace ladder

#endif  // LADDERBENCH_RUNGS_H_
