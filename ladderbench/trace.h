// Measurement primitives of the layer-ladder benchmark: wall and CPU clocks, resident
// memory, in-memory spans with self-time arithmetic, the tail-percentile rule, an input
// hash, and a flat metrics map that serializes to one JSON object.
//
// Spans are recorded only by the benchmark's own code, around calls into the layers under
// test; the program itself carries no tracing. A span names its parent, and every span of
// one session carries that session's id, so a layer's self time (its duration minus the
// part of it its child spans cover) is computed after the run from the spans alone.
#ifndef LADDERBENCH_TRACE_H_
#define LADDERBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ladder {

// Monotonic wall clock in nanoseconds.
int64_t NowNs();
double SecondsSince(int64_t start_ns);

// CPU time (user + system) of the whole process, and of the calling thread, in seconds.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

// Seconds the hypervisor kept this machine's runnable vCPUs off a physical CPU (the steal
// column of /proc/stat), averaged over the online vCPUs; 0 where the kernel reports none.
double StealSeconds();

// Resident memory of this process in MiB: the current value and the peak so far.
double ResidentMb();
double PeakResidentMb();
// Lowers the peak to the current resident memory (Linux /proc/self/clear_refs), so the next
// PeakResidentMb() is the peak since this call; where that is unsupported it stays the
// process's peak.
void ResetPeakResident();

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = a root span
  uint64_t session = 0;  // shared by every span of one session; 0 = not session-scoped
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t count = 1;  // work items the span covers (frames, records, sessions)
};

// Thread-safe, in-memory span store. A disabled recorder records nothing and hands out id 0,
// so untraced runs pay one branch per would-be span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Records a finished span and returns its id (0 when disabled). `id` is one reserved with
  // NextId(), or 0 to allocate a fresh one.
  uint64_t Record(const std::string& name, uint64_t parent, uint64_t session, int64_t start_ns,
                  int64_t end_ns, int64_t count = 1, uint64_t id = 0);
  // Reserves an id for a span whose children are recorded before it ends.
  uint64_t NextId();
  std::vector<Span> Take();
  std::vector<Span> Snapshot();

 private:
  bool enabled_;
  std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

// Self time of every span, index-aligned with `spans`: its duration minus the length of the
// union of its children's intervals clipped to it. Children may overlap (parallel work).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

struct SpanTotals {
  int64_t spans = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
// Per-name totals of span count, duration and self time.
std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans);

// Writes spans as JSON lines (one object per span); returns false on an I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

// The reporting rule for a latency sample: the median, and the highest of the percentiles
// {99.9, 99, 95, 90, 75} that has at least ten samples beyond it. `tail_pct` is 0 when
// there are too few samples for any of them (`tail` then repeats the median).
struct TailStats {
  size_t samples = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
};
TailStats TailPercentile(std::vector<double> samples);

double Median(std::vector<double> values);

// One measured stretch of a run (a daemon lifetime, a fleetd pass, a RunFleet call): the
// sessions it carried, how many of them failed, its wall time, the steal that accrued
// meanwhile, the system-under-test's CPU time in it and its peak resident memory.
struct Interval {
  double sessions = 0.0;
  double failed = 0.0;
  double wall_s = 0.0;
  double steal_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

// FNV-1a, 64-bit: the input hash of the result descriptor.
uint64_t Fnv1a(const std::string& bytes, uint64_t state = 1469598103934665603ull);
std::string Hex64(uint64_t value);

// Named numeric metrics plus string facts, serialized as one flat JSON object.
class Metrics {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Add(const std::string& name, double value) { values_[name] += value; }
  void Fact(const std::string& name, const std::string& value) { facts_[name] = value; }
  double Get(const std::string& name) const;
  std::string GetFact(const std::string& name) const;
  void Merge(const Metrics& other);
  std::string ToJson() const;
  // Line format for crossing a process boundary ("v name value" / "f name value").
  std::string Serialize() const;
  static Metrics Deserialize(const std::string& text);

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> facts_;
};

// Sets a run's totals ("sessions", "failed", "wall_s", "steal_s", "sut.cpu_s", "intervals")
// and its medians over intervals: "rate_p50", the clean sessions per second of the time the
// host let this machine run (wall minus steal, so on bare metal per wall second),
// "cpu_ms_p50", the CPU milliseconds per session, and "peak_rss_p50", the peak resident
// memory. A steal burst or a stalled interval moves a median far less than it moves a total.
void SetIntervalMetrics(const std::vector<Interval>& intervals, Metrics* out);

}  // namespace ladder

#endif  // LADDERBENCH_TRACE_H_
