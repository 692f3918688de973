#include "sut.h"

#include <malloc.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "src/fleetd/coordinator.h"
#include "src/netd/client.h"
#include "src/netd/server.h"
#include "src/netd/wire.h"
#include "src/workload/fleet.h"

namespace ladder {

namespace {

bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, char* data, size_t size) {
  while (size > 0) {
    ssize_t n = ::read(fd, data, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// hangdoctord's default shape: 2 epoll workers, rings = workers, shards = workers.
netd::ServerOptions DaemonOptions() {
  netd::ServerOptions options;
  options.workers = 2;
  options.rings = 0;
  options.service.shards = 2;
  return options;
}

std::vector<std::string> Words(const std::string& command) {
  std::istringstream in(command);
  std::vector<std::string> words;
  for (std::string word; in >> word;) {
    words.push_back(word);
  }
  return words;
}

// Collects harvested outcomes by pass (pass = (id - 1) / pass_size) and checks each
// complete pass against the oracle: no aborted session, and a merged report
// byte-identical to the in-process replay's.
class PassChecker {
 public:
  PassChecker(int64_t pass_size, std::string oracle)
      : pass_size_(pass_size), oracle_(std::move(oracle)) {}

  void Add(netd::NetSessionOutcome outcome) {
    int64_t pass = (static_cast<int64_t>(outcome.id.value) - 1) / pass_size_;
    std::vector<netd::NetSessionOutcome>& bucket = passes_[pass];
    bucket.push_back(std::move(outcome));
    ++harvested_;
    if (static_cast<int64_t>(bucket.size()) == pass_size_) {
      double cpu = ThreadCpuSeconds();
      Check(bucket);
      check_cpu_s_ += ThreadCpuSeconds() - cpu;
      passes_.erase(pass);
    }
  }

  // Counts the harvested sessions of every incomplete pass as failed; the sessions those
  // passes miss are the caller's to count (expected - harvested), so none counts twice.
  void FinishIncomplete() {
    for (const auto& [pass, bucket] : passes_) {
      failed_ += static_cast<int64_t>(bucket.size());
    }
    passes_.clear();
  }

  int64_t harvested() const { return harvested_; }
  int64_t failed() const { return failed_; }
  int64_t checked_passes() const { return checked_; }
  double check_cpu_s() const { return check_cpu_s_; }
  int64_t memo_hits() const { return memo_hits_; }
  int64_t memo_misses() const { return memo_misses_; }

 private:
  void Check(std::vector<netd::NetSessionOutcome>& bucket) {
    std::sort(bucket.begin(), bucket.end(),
              [](const auto& a, const auto& b) { return a.id.value < b.id.value; });
    hangdoctor::HangBugReport merged;
    int64_t aborted = 0;
    for (const netd::NetSessionOutcome& outcome : bucket) {
      if (outcome.aborted || !outcome.result.stream_ok) {
        ++aborted;
        continue;
      }
      merged.Merge(outcome.result.report);
      memo_hits_ += outcome.result.kb.memo_hits;
      memo_misses_ += outcome.result.kb.memo_misses;
    }
    ++checked_;
    failed_ += aborted > 0 || RenderReport(merged) != oracle_ ? pass_size_ : 0;
  }

  int64_t pass_size_;
  std::string oracle_;
  std::map<int64_t, std::vector<netd::NetSessionOutcome>> passes_;
  int64_t harvested_ = 0;
  int64_t failed_ = 0;
  int64_t checked_ = 0;
  int64_t memo_hits_ = 0;
  int64_t memo_misses_ = 0;
  double check_cpu_s_ = 0.0;
};

void AddSpanMetrics(const std::vector<Span>& spans, const std::string& trace_path,
                    Metrics* out) {
  if (!trace_path.empty()) {
    WriteSpans(trace_path, spans);
  }
  out->Add("trace.spans", static_cast<double>(spans.size()));
}

// A hangdoctord-shaped daemon lifetime in the helper. The server keeps every harvested
// outcome until its drain, as hangdoctord does; `cpu0` and `rss0` are read once it is up.
struct Daemon {
  std::unique_ptr<netd::NetServer> server;
  double cpu0 = 0.0;
  double rss0 = 0.0;
};

// Drains the daemon the way hangdoctord does at SIGTERM (Stop, then one TakeResults) after
// the parent's load has streamed `expected` sessions into it, and checks every pass.
Metrics DrainAndCheck(Daemon& daemon, int64_t expected, int64_t pass_size,
                      const std::string& oracle) {
  netd::NetServer& server = *daemon.server;
  const int64_t drain_start = NowNs();
  server.Stop();
  const double rss_at_drain = ResidentMb();
  std::vector<netd::NetSessionOutcome> outcomes = server.TakeResults();
  const double drain_s = SecondsSince(drain_start);
  const double peak_rss_mb = PeakResidentMb();  // before the check allocates
  PassChecker checker(pass_size, oracle);
  for (netd::NetSessionOutcome& outcome : outcomes) {
    checker.Add(std::move(outcome));
  }
  checker.FinishIncomplete();
  const int64_t missing = std::max<int64_t>(0, expected - checker.harvested());
  Metrics m;
  m.Set("sut.cpu_s", ProcessCpuSeconds() - daemon.cpu0 - checker.check_cpu_s());
  m.Set("sut.peak_rss_mb", peak_rss_mb);
  m.Set("sut.drain_s", drain_s);
  m.Set("sut.harvested", static_cast<double>(checker.harvested()));
  m.Set("sut.failed", static_cast<double>(std::min(expected, checker.failed() + missing)));
  m.Set("sut.checked_passes", static_cast<double>(checker.checked_passes()));
  // Resident growth while the lifetime's outcomes were retained, per 1,000 sessions.
  m.Set("netd.rss_mb_per_ksession",
        std::max(0.0, rss_at_drain - daemon.rss0) /
            (static_cast<double>(std::max<int64_t>(checker.harvested(), 1)) / 1000.0));
  m.Set("hangdoctor.memo_hits", static_cast<double>(checker.memo_hits()));
  m.Set("hangdoctor.memo_misses", static_cast<double>(checker.memo_misses()));
  const netd::ServerStats& stats = server.stats();
  m.Set("netd.frames_in", static_cast<double>(stats.frames_in.load()));
  m.Set("netd.bytes_in", static_cast<double>(stats.bytes_in.load()));
  m.Set("netd.records_applied", static_cast<double>(stats.records_applied.load()));
  m.Set("netd.backpressure_pauses", static_cast<double>(stats.backpressure_pauses.load()));
  m.Set("netd.sessions_refused", static_cast<double>(stats.sessions_refused.load()));
  m.Set("netd.protocol_errors", static_cast<double>(stats.protocol_errors.load()));
  return m;
}

// The fleetd shape: 2 worker daemons in the default shape, each linked to the coordinator
// over a socketpair.
struct FleetGroup {
  FleetGroup() {
    std::vector<fleetd::WorkerEndpoint> endpoints;
    for (int32_t w = 0; w < 2; ++w) {
      netd::ServerOptions options = DaemonOptions();
      options.listen = false;
      options.allow_worker_role = true;
      servers.push_back(std::make_unique<netd::NetServer>(options));
      int sv[2];
      if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
        throw std::runtime_error("socketpair failed");
      }
      servers.back()->AdoptConnection(sv[0]);
      endpoints.push_back(fleetd::WorkerEndpoint{.port = 0, .fd = sv[1]});
    }
    fleetd::CoordinatorOptions options;
    options.workers = endpoints;
    coordinator = std::make_unique<fleetd::Coordinator>(options);
  }

  std::vector<std::unique_ptr<netd::NetServer>> servers;
  std::unique_ptr<fleetd::Coordinator> coordinator;  // destroyed before the servers
};

struct FleetPassStats {
  int64_t sessions = 0;
  int64_t failed = 0;
  int64_t frames = 0;
  int64_t route_ns = 0;
  double wall_s = 0.0;  // boot to stop, without the output check
  double peak_rss_mb = 0.0;
  double migrate_ms = 0.0;
  double wait_ms = 0.0;
  fleetd::CoordinatorStats stats;
};

// One fleetd pass: boot 2 worker daemons behind socketpairs and a Coordinator, route every
// session's frames round-robin, drain-migrate worker 0's sessions at half the frames, wait
// for the results and fold them.
FleetPassStats RunFleetPass(const std::vector<std::vector<std::string>>& frames,
                            const std::string& oracle, SpanRecorder& spans, double* check_cpu) {
  FleetPassStats pass;
  const uint64_t root = spans.NextId();
  const int64_t pass_start = NowNs();
  FleetGroup group;
  fleetd::Coordinator& coordinator = *group.coordinator;
  coordinator.AssignRange(1, frames.size());
  spans.Record("fleetd.boot", root, 0, pass_start, NowNs());

  int64_t total = 0;
  for (const auto& session : frames) {
    total += static_cast<int64_t>(session.size());
  }
  const int64_t migrate_at = total / 2;
  std::vector<size_t> next(frames.size(), 0);
  int64_t routed = 0;
  int64_t last_pulse = pass_start;
  bool migrated = false;
  bool any = true;
  while (any) {
    any = false;
    int64_t chunk_start = NowNs();
    int64_t chunk_frames = 0;
    for (size_t s = 0; s < frames.size(); ++s) {
      if (next[s] >= frames[s].size()) {
        continue;
      }
      any = true;
      std::string error;
      if (!coordinator.RouteFrame(s + 1, frames[s][next[s]], &error)) {
        throw std::runtime_error("fleetd routing stopped: " + error);
      }
      ++next[s];
      ++routed;
      ++chunk_frames;
    }
    int64_t chunk_end = NowNs();
    pass.route_ns += chunk_end - chunk_start;
    pass.frames += chunk_frames;
    if (chunk_frames > 0) {
      spans.Record("fleetd.route", root, 0, chunk_start, chunk_end, chunk_frames);
    }
    if (chunk_end - last_pulse >= 50'000'000) {
      last_pulse = chunk_end;
      coordinator.Pulse((chunk_end - pass_start) / 1'000'000);
    }
    if (!migrated && routed >= migrate_at) {
      migrated = true;
      int64_t t0 = NowNs();
      int32_t from = coordinator.OwnerOf(1);
      std::string error;
      if (from < 0 || !coordinator.MigrateWorker(from, 1 - from, &error)) {
        throw std::runtime_error("fleetd migration failed: " + error);
      }
      int64_t t1 = NowNs();
      pass.migrate_ms += static_cast<double>(t1 - t0) * 1e-6;
      spans.Record("fleetd.migrate", root, 0, t0, t1);
    }
  }
  int64_t wait_start = NowNs();
  bool done = coordinator.WaitForResults(60'000);
  int64_t wait_end = NowNs();
  pass.wait_ms = static_cast<double>(wait_end - wait_start) * 1e-6;
  spans.Record("fleetd.wait_results", root, 0, wait_start, wait_end);
  fleetd::FleetReport report = coordinator.Finish();
  for (auto& server : group.servers) {
    server->Stop();
  }
  int64_t pass_end = NowNs();
  pass.wall_s = static_cast<double>(pass_end - pass_start) * 1e-9;
  pass.peak_rss_mb = PeakResidentMb();
  spans.Record("fleetd.pass", 0, 0, pass_start, pass_end,
               static_cast<int64_t>(frames.size()), root);

  double cpu = ThreadCpuSeconds();
  pass.sessions = static_cast<int64_t>(frames.size());
  pass.stats = report.stats;
  int64_t aborted = 0;
  for (const netd::NetSessionOutcome& outcome : report.outcomes) {
    aborted += outcome.aborted ? 1 : 0;
  }
  bool clean = done && aborted == 0 && report.outcomes.size() == frames.size() &&
               report.stats.failovers == 0 && RenderReport(report.merged) == oracle;
  pass.failed = clean ? 0 : pass.sessions;
  *check_cpu += ThreadCpuSeconds() - cpu;
  return pass;
}

Metrics FleetRun(const std::string& payload, double seconds, SpanRecorder& spans) {
  size_t pos = 0;
  uint64_t sessions = 0;
  std::vector<std::vector<std::string>> frames;
  if (!netd::GetVarint(payload, &pos, &sessions)) {
    throw std::runtime_error("fleet-run: bad payload");
  }
  frames.resize(sessions);
  for (auto& session : frames) {
    uint64_t count = 0;
    netd::GetVarint(payload, &pos, &count);
    session.resize(count);
    for (std::string& frame : session) {
      netd::GetString(payload, &pos, &frame);
    }
  }
  std::string oracle;
  if (!netd::GetString(payload, &pos, &oracle)) {
    throw std::runtime_error("fleet-run: bad payload");
  }

  const int64_t start = NowNs();
  std::vector<Interval> intervals;
  FleetPassStats total;
  do {
    const double cpu0 = ProcessCpuSeconds();
    const double steal0 = StealSeconds();
    double check_cpu = 0.0;
    ResetPeakResident();
    FleetPassStats pass = RunFleetPass(frames, oracle, spans, &check_cpu);
    intervals.push_back({static_cast<double>(pass.sessions), static_cast<double>(pass.failed),
                         pass.wall_s, StealSeconds() - steal0,
                         ProcessCpuSeconds() - cpu0 - check_cpu, pass.peak_rss_mb});
    total.frames += pass.frames;
    total.route_ns += pass.route_ns;
    total.migrate_ms += pass.migrate_ms;
    total.wait_ms += pass.wait_ms;
    total.stats.migrated += pass.stats.migrated;
    total.stats.recovered += pass.stats.recovered;
    total.stats.failovers += pass.stats.failovers;
  } while (SecondsSince(start) < seconds);
  Metrics m;
  SetIntervalMetrics(intervals, &m);
  const auto p = static_cast<double>(intervals.size());
  m.Set("fleetd.route_us_per_frame",
        static_cast<double>(total.route_ns) * 1e-3 / static_cast<double>(total.frames));
  m.Set("fleetd.migrate_ms", total.migrate_ms / p);
  m.Set("fleetd.results_wait_ms", total.wait_ms / p);
  m.Set("fleetd.migrated", static_cast<double>(total.stats.migrated) / p);
  m.Set("fleetd.recovered", static_cast<double>(total.stats.recovered) / p);
  m.Set("fleetd.failovers", static_cast<double>(total.stats.failovers));
  return m;
}

Metrics SimRun(const FleetPlan& plan, double seconds, SpanRecorder& spans) {
  workload::FleetOptions options;
  options.jobs = SimulationThreads();
  const auto jobs = static_cast<double>(plan.jobs.size());
  const int64_t start = NowNs();
  std::vector<Interval> intervals;
  std::string reference;
  do {
    const double cpu0 = ProcessCpuSeconds();
    const double steal0 = StealSeconds();
    ResetPeakResident();
    const int64_t t0 = NowNs();
    workload::FleetSummary summary = workload::RunFleet(plan.jobs, options);
    const int64_t t1 = NowNs();
    const double peak_rss_mb = PeakResidentMb();
    spans.Record("sim.pass", 0, 0, t0, t1, static_cast<int64_t>(plan.jobs.size()));
    double cpu = ThreadCpuSeconds();
    bool ok = summary.failed == 0;
    for (const workload::FleetJobResult& job : summary.jobs) {
      ok = ok && job.ok;
    }
    std::string render = RenderReport(summary.merged_report);
    if (reference.empty()) {
      reference = render;
    }
    const double check_cpu = ThreadCpuSeconds() - cpu;
    intervals.push_back({jobs, ok && render == reference ? 0.0 : jobs,
                         static_cast<double>(t1 - t0) * 1e-9, StealSeconds() - steal0,
                         ProcessCpuSeconds() - cpu0 - check_cpu, peak_rss_mb});
  } while (SecondsSince(start) < seconds);
  Metrics m;
  SetIntervalMetrics(intervals, &m);
  m.Fact("report_hash", Hex64(Fnv1a(reference)));
  return m;
}

std::string TracePath(const std::string& trace_dir, const std::string& tag) {
  return trace_dir.empty() ? std::string() : trace_dir + "/" + tag + ".spans.jsonl";
}

}  // namespace

Channel::~Channel() {
  ::close(read_fd_);
  ::close(write_fd_);
}

bool Channel::Send(const std::string& message) {
  uint64_t size = message.size();
  return WriteAll(write_fd_, reinterpret_cast<const char*>(&size), sizeof(size)) &&
         WriteAll(write_fd_, message.data(), message.size());
}

bool Channel::Receive(std::string* message) {
  uint64_t size = 0;
  if (!ReadAll(read_fd_, reinterpret_cast<char*>(&size), sizeof(size))) {
    return false;
  }
  message->resize(size);
  return ReadAll(read_fd_, message->data(), size);
}

Child ForkChild(const std::function<int(Channel&)>& body) {
  int to_child[2];
  int to_parent[2];
  if (::pipe(to_child) != 0 || ::pipe(to_parent) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::fflush(nullptr);
  pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::close(to_child[1]);
    ::close(to_parent[0]);
    int code = 1;
    {
      Channel channel(to_child[0], to_parent[1]);
      try {
        code = body(channel);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ladder child: %s\n", e.what());
        code = 1;
      }
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::close(to_child[0]);
  ::close(to_parent[1]);
  Child child;
  child.pid = pid;
  child.channel = std::make_unique<Channel>(to_parent[0], to_child[1]);
  return child;
}

int WaitChild(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      return -1;
    }
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

Metrics Call(Channel& channel, const std::string& command, const std::string& payload) {
  std::string reply;
  if (!channel.Send(command) || !channel.Send(payload) || !channel.Receive(&reply)) {
    throw std::runtime_error("helper process gone during '" + command + "'");
  }
  if (reply.rfind("error ", 0) == 0) {
    throw std::runtime_error("helper: " + reply.substr(6));
  }
  return Metrics::Deserialize(reply);
}

std::string EncodeFrames(const SessionSet& set, const std::string& oracle) {
  std::string out;
  netd::PutVarint(&out, set.frames.size());
  for (const auto& session : set.frames) {
    netd::PutVarint(&out, session.size());
    for (const std::string& frame : session) {
      netd::PutString(&out, frame);
    }
  }
  netd::PutString(&out, oracle);
  return out;
}

int SutMain(Channel& channel, const std::string& trace_dir) {
  Daemon daemon;
  std::unique_ptr<FleetPlan> plan;
  while (true) {
    std::string command;
    std::string payload;
    if (!channel.Receive(&command) || !channel.Receive(&payload)) {
      return 0;  // the parent is gone
    }
    std::vector<std::string> words = Words(command);
    if (words.empty() || words[0] == "quit") {
      return 0;
    }
    Metrics reply;
    try {
      const std::string& verb = words[0];
      if (verb == "net-start") {
        ResetPeakResident();  // each lifetime reports its own peak
        int64_t t0 = NowNs();
        daemon.server = std::make_unique<netd::NetServer>(DaemonOptions());
        reply.Set("start_s", SecondsSince(t0));
        reply.Set("port", daemon.server->port());
        daemon.cpu0 = ProcessCpuSeconds();
        daemon.rss0 = ResidentMb();
      } else if (verb == "net-finish" && words.size() == 3 && daemon.server) {
        // net-finish <expected sessions> <pass size>; payload = oracle render.
        reply = DrainAndCheck(daemon, std::stoll(words[1]), std::stoll(words[2]), payload);
      } else if (verb == "net-stop") {
        // Free the lifetime's outcomes and hand the pages back, so the next lifetime's
        // resident growth starts from a trimmed heap.
        daemon.server.reset();
        ::malloc_trim(0);
      } else if (verb == "fleet-start") {
        // Boot and tear down the fleet shape once: the start-up cost of a fleetd pass.
        int64_t t0 = NowNs();
        FleetGroup group;
        reply.Set("start_s", SecondsSince(t0));
        group.coordinator->Finish();
      } else if (verb == "fleet-run" && words.size() == 4) {
        // fleet-run <seconds> <traced> <tag>; payload = EncodeFrames.
        SpanRecorder spans(words[2] == "1");
        reply = FleetRun(payload, std::stod(words[1]), spans);
        if (spans.enabled()) {
          AddSpanMetrics(spans.Take(), TracePath(trace_dir, words[3]), &reply);
        }
      } else if (verb == "sim-setup" && words.size() == 2) {
        int64_t t0 = NowNs();
        plan = MakeFleetPlan(Workload::kSimulateFleet, std::stoull(words[1]));
        reply.Set("start_s", SecondsSince(t0));
        reply.Set("jobs", static_cast<double>(plan->jobs.size()));
        reply.Fact("input_hash", Hex64(plan->hash));
      } else if (verb == "sim-run" && words.size() == 4 && plan) {
        // sim-run <seconds> <traced> <tag>: one "sim.pass" span per RunFleet call.
        SpanRecorder spans(words[2] == "1");
        reply = SimRun(*plan, std::stod(words[1]), spans);
        if (spans.enabled()) {
          AddSpanMetrics(spans.Take(), TracePath(trace_dir, words[3]), &reply);
        }
      } else {
        throw std::runtime_error("unknown or malformed command: " + command);
      }
    } catch (const std::exception& e) {
      std::string error = std::string("error ") + e.what();
      channel.Send(error);
      continue;
    }
    if (!channel.Send(reply.Serialize())) {
      return 1;
    }
  }
}

namespace {

struct FrameTail {
  char tag = 0;
  std::string_view rest;  // the frame after its session-id varint
};

size_t VarintLength(uint64_t value) {
  size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

// Appends one wire frame: the mux frame `tail` re-addressed to session `id`.
void AppendFrame(std::string* out, const FrameTail& tail, uint64_t id) {
  netd::PutVarint(out, 1 + VarintLength(id) + tail.rest.size());
  out->push_back(tail.tag);
  netd::PutVarint(out, id);
  out->append(tail.rest);
}

struct Connection {
  netd::NetClient client;
  std::mutex mu;
  std::condition_variable cv;
  int32_t in_flight = 0;
  bool broken = false;
  std::unordered_map<uint64_t, int64_t> close_sent;
  std::vector<double> verdict_ms;
  int64_t closed = 0;
  int64_t refused = 0;
  int64_t errors = 0;
  int64_t last_verdict_ns = 0;
  int64_t send_ns = 0;
  int64_t blocked_ns = 0;
  int64_t frames = 0;
  int64_t bytes = 0;
};

void ReaderLoop(Connection& conn) {
  netd::Reply reply;
  bool bye = false;
  while (!bye && conn.client.ReadReply(&reply)) {
    int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(conn.mu);
    switch (reply.tag) {
      case netd::ReplyTag::kSessionClosed: {
        auto sent = conn.close_sent.find(reply.session_id);
        if (sent != conn.close_sent.end()) {
          conn.verdict_ms.push_back(static_cast<double>(now - sent->second) * 1e-6);
          conn.close_sent.erase(sent);
        }
        (reply.stream_ok ? conn.closed : conn.errors) += 1;
        conn.last_verdict_ns = now;
        --conn.in_flight;
        break;
      }
      case netd::ReplyTag::kBusy:
        if (reply.session_id == 0) {
          conn.broken = true;
          bye = true;
        } else {
          conn.close_sent.erase(reply.session_id);
          ++conn.refused;
          --conn.in_flight;
        }
        break;
      case netd::ReplyTag::kError:
        conn.broken = true;
        bye = true;
        break;
      case netd::ReplyTag::kBye:
        bye = true;
        break;
      default:
        break;
    }
    conn.cv.notify_all();
  }
  std::lock_guard<std::mutex> lock(conn.mu);
  if (!bye) {
    conn.broken = true;
  }
  conn.errors += conn.in_flight;  // sessions that will never get a verdict
  conn.in_flight = 0;
  conn.cv.notify_all();
}

}  // namespace

WireResult RunWireLoad(uint16_t port, const SessionSet& set, int64_t sessions,
                       SpanRecorder* spans) {
  constexpr int32_t kLivePerConnection = 8;
  const auto connection_count = static_cast<int32_t>(
      std::clamp(std::max(1u, std::thread::hardware_concurrency()) / 2, 1u, 2u));
  std::vector<std::vector<FrameTail>> tails(set.frames.size());
  for (size_t s = 0; s < set.frames.size(); ++s) {
    for (const std::string& frame : set.frames[s]) {
      size_t pos = 1;
      uint64_t id = 0;
      netd::GetVarint(frame, &pos, &id);
      tails[s].push_back(FrameTail{frame[0], std::string_view(frame).substr(pos)});
    }
  }
  const auto pass_size = static_cast<int64_t>(set.frames.size());
  std::mutex claim_mu;
  int64_t next = 0;
  const double steal0 = StealSeconds();
  const int64_t start = NowNs();
  // Hands out session indices 0..sessions-1, then -1.
  auto claim = [&]() -> int64_t {
    std::lock_guard<std::mutex> lock(claim_mu);
    return next < sessions ? next++ : -1;
  };

  std::vector<std::unique_ptr<Connection>> connections;
  for (int32_t c = 0; c < connection_count; ++c) {
    connections.push_back(std::make_unique<Connection>());
    if (!connections.back()->client.Connect(port)) {
      throw std::runtime_error("connect: " + connections.back()->client.error());
    }
  }
  std::vector<std::thread> threads;
  for (auto& owned : connections) {
    Connection& conn = *owned;
    threads.emplace_back([&conn]() { ReaderLoop(conn); });
    threads.emplace_back([&conn, &tails, &claim, pass_size, spans]() {
      struct Live {
        uint64_t id;
        size_t session;
        size_t pos;
      };
      const int64_t sender_start = NowNs();
      std::vector<Live> active;
      std::vector<uint64_t> closes;
      std::string batch;
      bool exhausted = false;
      bool ok = conn.client.SendHello(netd::kWireVersionMax);
      while (ok) {
        while (!exhausted) {
          {
            std::lock_guard<std::mutex> lock(conn.mu);
            if (conn.in_flight >= kLivePerConnection) {
              break;
            }
            ++conn.in_flight;
          }
          int64_t n = claim();
          if (n < 0) {
            std::lock_guard<std::mutex> lock(conn.mu);
            --conn.in_flight;
            exhausted = true;
            break;
          }
          active.push_back(Live{static_cast<uint64_t>(n) + 1,
                                static_cast<size_t>(n % pass_size), 0});
        }
        if (active.empty()) {
          if (exhausted) {
            break;
          }
          std::unique_lock<std::mutex> lock(conn.mu);
          conn.cv.wait(lock, [&conn]() {
            return conn.broken || conn.in_flight < kLivePerConnection;
          });
          if (conn.broken) {
            break;
          }
          continue;
        }
        batch.clear();
        closes.clear();
        int64_t batch_frames = 0;
        while (batch.size() < (64u << 10) && !active.empty()) {
          for (size_t a = 0; a < active.size();) {
            Live& live = active[a];
            AppendFrame(&batch, tails[live.session][live.pos++], live.id);
            ++batch_frames;
            if (live.pos == tails[live.session].size()) {
              closes.push_back(live.id);
              active.erase(active.begin() + static_cast<std::ptrdiff_t>(a));
            } else {
              ++a;
            }
          }
        }
        const int64_t t0 = NowNs();
        {
          std::lock_guard<std::mutex> lock(conn.mu);
          for (uint64_t id : closes) {
            conn.close_sent[id] = t0;
          }
        }
        ok = conn.client.SendRaw(batch);
        const int64_t t1 = NowNs();
        conn.blocked_ns += t1 - t0;
        conn.frames += batch_frames;
        conn.bytes += static_cast<int64_t>(batch.size());
        if (spans != nullptr) {
          spans->Record("gen.send", 0, 0, t0, t1, batch_frames);
        }
      }
      if (ok) {
        std::string bye;
        netd::AppendFrame(&bye, std::string(1, static_cast<char>(hangdoctor::MuxFrameTag::kEnd)));
        ok = conn.client.SendRaw(bye);
      }
      if (!ok) {
        std::lock_guard<std::mutex> lock(conn.mu);
        conn.broken = true;
        conn.client.ShutdownWrite();
      }
      conn.send_ns = NowNs() - sender_start;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  WireResult result;
  int64_t last_verdict = start;
  for (const auto& conn : connections) {
    result.closed += conn->closed;
    result.refused += conn->refused;
    result.errors += conn->errors + (conn->broken ? 1 : 0);
    result.send_s += static_cast<double>(conn->send_ns) * 1e-9;
    result.send_blocked_s += static_cast<double>(conn->blocked_ns) * 1e-9;
    result.frames += conn->frames;
    result.bytes += conn->bytes;
    result.verdict_ms.insert(result.verdict_ms.end(), conn->verdict_ms.begin(),
                             conn->verdict_ms.end());
    last_verdict = std::max(last_verdict, conn->last_verdict_ns);
  }
  result.wall_s = static_cast<double>(last_verdict - start) * 1e-9;
  result.steal_s = StealSeconds() - steal0;
  return result;
}

}  // namespace ladder
