// Monitoring-overhead accounting, reproducing the paper's Section 4.5 methodology: overhead is
// the average of the percentage CPU increase and percentage memory increase a detector causes
// on a user trace. Detectors charge each monitoring act (a perf read, a /proc utilization
// sample, a stack unwind) to an OverheadMeter; the experiment harness divides the accumulated
// cost by the trace's own resource usage.
//
// The per-act costs below are calibrated to the paper's measured totals (UTL ≈ 25%, UTH ≈ 10%,
// TI ≈ 2.26%, UTH+TI ≈ 0.58%, HD ≈ 0.83%): the dominant terms are the 100 ms-period
// utilization sampling (reading and parsing /proc stat+smaps is milliseconds of CPU on a
// phone) and per-hang stack-trace collection; perf-counter sessions are comparatively cheap,
// which is the paper's core efficiency argument.
#ifndef SRC_HANGDOCTOR_OVERHEAD_H_
#define SRC_HANGDOCTOR_OVERHEAD_H_

#include <cstdint>

#include "src/simkit/time.h"

namespace hangdoctor {

struct MonitorCosts {
  // Perf-event session management (simpleperf start/stop + one read per event per thread).
  simkit::SimDuration perf_start = simkit::Microseconds(40);
  simkit::SimDuration perf_stop = simkit::Microseconds(30);
  simkit::SimDuration perf_read_per_event = simkit::Microseconds(5);
  int64_t perf_session_bytes = 256;
  // Action UID lookup in the state table.
  simkit::SimDuration state_lookup = simkit::Microseconds(1);
  // Arming one stack-trace collection (attaching the unwinder, priming symbol caches).
  simkit::SimDuration trace_start = simkit::Milliseconds(8);
  int64_t trace_start_bytes = 4096;
  // One main-thread stack unwind + symbolization + buffering.
  simkit::SimDuration stack_sample = simkit::Microseconds(2500);
  int64_t stack_sample_bytes = 8192;
  // One /proc utilization sample (stat + io + smaps walk) as the UT baselines take it.
  simkit::SimDuration utilization_sample = simkit::Microseconds(2200);
  int64_t utilization_sample_bytes = 1500;
  // Response-time probe at dispatch begin/end (all runtime detectors pay this).
  simkit::SimDuration response_probe = simkit::Microseconds(3);
  // Handling one cross-thread causal record (AsyncPost/AsyncRun/AsyncWaitStart/End): a map
  // update plus edge bookkeeping, comparable to the state lookup. Sessions of pre-async apps
  // never push such records, so they are charged nothing.
  simkit::SimDuration async_record = simkit::Microseconds(2);
};

class OverheadMeter {
 public:
  void AddCpu(simkit::SimDuration cpu) { cpu_ += cpu; }
  void AddMemory(int64_t bytes) { bytes_ += bytes; }
  // A re-issued start_counters directive after a transient counter-session failure. The
  // retry's perf_start cost is charged via AddCpu as usual; the count is kept separately so
  // the Section 4.5 accounting can attribute how much overhead degradation retries added.
  void CountCounterRetry(int64_t count = 1) { counter_retries_ += count; }
  // One cross-thread causal record handled (its async_record cost is charged via AddCpu);
  // counted separately so async sessions' overhead columns can attribute the causal traffic.
  void CountAsyncRecord(int64_t count = 1) { async_records_ += count; }

  simkit::SimDuration cpu() const { return cpu_; }
  int64_t memory_bytes() const { return bytes_; }
  int64_t counter_retries() const { return counter_retries_; }
  int64_t async_records() const { return async_records_; }

  // The paper's metric: mean of %CPU and %memory increase over the unmonitored trace.
  double OverheadPercent(simkit::SimDuration trace_cpu, int64_t trace_bytes) const {
    double cpu_pct =
        trace_cpu > 0 ? 100.0 * static_cast<double>(cpu_) / static_cast<double>(trace_cpu) : 0.0;
    double mem_pct = trace_bytes > 0
                         ? 100.0 * static_cast<double>(bytes_) / static_cast<double>(trace_bytes)
                         : 0.0;
    return (cpu_pct + mem_pct) / 2.0;
  }

  void Reset() {
    cpu_ = 0;
    bytes_ = 0;
    counter_retries_ = 0;
    async_records_ = 0;
  }

 private:
  simkit::SimDuration cpu_ = 0;
  int64_t bytes_ = 0;
  int64_t counter_retries_ = 0;
  int64_t async_records_ = 0;
};

}  // namespace hangdoctor

#endif  // SRC_HANGDOCTOR_OVERHEAD_H_
