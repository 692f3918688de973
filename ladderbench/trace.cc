#include "trace.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <sstream>
#include <unordered_map>

namespace ladder {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) * 1e-9; }

namespace {

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
}

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double StealSeconds() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) {
    return 0.0;
  }
  unsigned long long v[8] = {};
  int fields = std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                           &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(stat);
  long cpus = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  return fields == 8 ? static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK)) /
                           static_cast<double>(cpus)
                     : 0.0;
}

double ResidentMb() {
  long total = 0;
  long resident = 0;
  if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
    int fields = std::fscanf(statm, "%ld %ld", &total, &resident);
    std::fclose(statm);
    if (fields == 2) {
      return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
             (1024.0 * 1024.0);
    }
  }
  return PeakResidentMb();
}

double PeakResidentMb() {
  // VmHWM rather than getrusage's ru_maxrss: exiting threads fold the peak into ru_maxrss
  // for good, while VmHWM follows ResetPeakResident().
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (kb < 0 && std::fgets(line, sizeof(line), status) != nullptr) {
      std::sscanf(line, "VmHWM: %ld kB", &kb);
    }
    std::fclose(status);
    if (kb >= 0) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void ResetPeakResident() {
  if (std::FILE* clear_refs = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", clear_refs);
    std::fclose(clear_refs);
  }
}

uint64_t SpanRecorder::Record(const std::string& name, uint64_t parent, uint64_t session,
                              int64_t start_ns, int64_t end_ns, int64_t count, uint64_t id) {
  if (!enabled_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0) {
    id = next_id_++;
  }
  spans_.push_back(Span{id, parent, session, name, start_ns, end_ns, count});
  return id;
}

uint64_t SpanRecorder::NextId() {
  if (!enabled_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

std::vector<Span> SpanRecorder::Snapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) {
    index_of[spans[i].id] = i;
  }
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    auto parent = index_of.find(span.parent);
    if (span.parent == 0 || parent == index_of.end()) {
      continue;
    }
    const Span& owner = spans[parent->second];
    int64_t begin = std::max(span.start_ns, owner.start_ns);
    int64_t end = std::min(span.end_ns, owner.end_ns);
    if (begin < end) {
      children[parent->second].emplace_back(begin, end);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_begin = 0;
    int64_t run_end = 0;
    bool open = false;
    for (const auto& [begin, end] : intervals) {
      if (!open || begin > run_end) {
        if (open) {
          covered += run_end - run_begin;
        }
        run_begin = begin;
        run_end = end;
        open = true;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (open) {
      covered += run_end - run_begin;
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans) {
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    t.spans += 1;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return totals;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (const Span& s : spans) {
    std::fprintf(out,
                 "{\"id\": %" PRIu64 ", \"parent\": %" PRIu64 ", \"session\": %" PRIu64
                 ", \"name\": \"%s\", \"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64
                 ", \"count\": %" PRId64 "}\n",
                 s.id, s.parent, s.session, s.name.c_str(), s.start_ns, s.end_ns, s.count);
  }
  return std::fclose(out) == 0;
}

namespace {

// 1-based nearest rank of the pct-th percentile among n samples. The epsilon keeps
// 99.9% of 10000 at rank 9990 despite 0.999 not being exact in binary.
size_t NearestRank(double pct, size_t n) {
  auto rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, std::max<size_t>(n, 1));
}

// Nearest-rank percentile of sorted `samples` (pct in (0, 100]).
double PercentileSorted(const std::vector<double>& sorted, double pct) {
  return sorted.empty() ? 0.0 : sorted[NearestRank(pct, sorted.size()) - 1];
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

void SetIntervalMetrics(const std::vector<Interval>& intervals, Metrics* out) {
  Interval total;
  std::vector<double> rates;
  std::vector<double> cpu_ms;
  std::vector<double> peak_rss;
  for (const Interval& i : intervals) {
    peak_rss.push_back(i.peak_rss_mb);
    total.sessions += i.sessions;
    total.failed += i.failed;
    total.wall_s += i.wall_s;
    total.steal_s += i.steal_s;
    total.cpu_s += i.cpu_s;
    rates.push_back((i.sessions - i.failed) / std::max(1e-9, i.wall_s - i.steal_s));
    cpu_ms.push_back(i.cpu_s * 1e3 / std::max(1.0, i.sessions));
  }
  out->Set("sessions", total.sessions);
  out->Set("failed", total.failed);
  out->Set("wall_s", total.wall_s);
  out->Set("steal_s", total.steal_s);
  out->Set("sut.cpu_s", total.cpu_s);
  out->Set("intervals", static_cast<double>(intervals.size()));
  out->Set("rate_p50", Median(rates));
  out->Set("cpu_ms_p50", Median(cpu_ms));
  out->Set("peak_rss_p50", Median(peak_rss));
}

TailStats TailPercentile(std::vector<double> samples) {
  TailStats stats;
  stats.samples = samples.size();
  if (samples.empty()) {
    return stats;
  }
  std::sort(samples.begin(), samples.end());
  stats.p50 = PercentileSorted(samples, 50.0);
  stats.tail = stats.p50;
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    // Samples strictly beyond the nearest-rank pct-th sample.
    if (samples.size() - NearestRank(pct, samples.size()) >= 10) {
      stats.tail_pct = pct;
      stats.tail = PercentileSorted(samples, pct);
      break;
    }
  }
  return stats;
}

uint64_t Fnv1a(const std::string& bytes, uint64_t state) {
  for (unsigned char c : bytes) {
    state ^= c;
    state *= 1099511628211ull;
  }
  return state;
}

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

double Metrics::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::string Metrics::GetFact(const std::string& name) const {
  auto it = facts_.find(name);
  return it == facts_.end() ? std::string() : it->second;
}

void Metrics::Merge(const Metrics& other) {
  for (const auto& [name, value] : other.values_) {
    values_[name] = value;
  }
  for (const auto& [name, value] : other.facts_) {
    facts_[name] = value;
  }
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : values_) {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    out += (first ? "\"" : ", \"") + name + "\": " + buf;
    first = false;
  }
  for (const auto& [name, value] : facts_) {
    out += (first ? "\"" : ", \"") + name + "\": \"" + value + "\"";
    first = false;
  }
  return out + "}";
}

std::string Metrics::Serialize() const {
  std::string out;
  char buf[64];
  for (const auto& [name, value] : values_) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += "v " + name + " " + buf + "\n";
  }
  for (const auto& [name, value] : facts_) {
    out += "f " + name + " " + value + "\n";
  }
  return out;
}

Metrics Metrics::Deserialize(const std::string& text) {
  Metrics metrics;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 4) {
      continue;
    }
    size_t space = line.find(' ', 2);
    if (space == std::string::npos) {
      continue;
    }
    std::string name = line.substr(2, space - 2);
    std::string value = line.substr(space + 1);
    if (line[0] == 'v') {
      metrics.Set(name, std::strtod(value.c_str(), nullptr));
    } else {
      metrics.Fact(name, value);
    }
  }
  return metrics;
}

}  // namespace ladder
