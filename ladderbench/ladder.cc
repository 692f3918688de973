// The layer-ladder benchmark driver.
//
//   ladder run --workload W --seed N --seconds S --trace 0|1 --workdir DIR
//   ladder selftest --workdir DIR
//
// `run --trace 0` measures the workload end to end and reports the end-to-end metrics;
// `run --trace 1` drives the same seeded bytes through every rung of the ladder, each rung
// in a fresh process, and reports the per-layer metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: value}, "facts": {...}}.
// ladderbench/run.py builds this binary and turns that line into the benchmark's result.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "inputs.h"
#include "rungs.h"
#include "sut.h"
#include "trace.h"

namespace ladder {
namespace {

// Set-up repetitions per run; setup_s is the median. The simulated fleet's set-up (catalog
// and job list) takes under a millisecond, so it repeats far more to steady the median.
constexpr int kSetupRepeats = 9;
constexpr int kSimulateSetupRepeats = 101;
constexpr unsigned kWatchdogSeconds = 170;

struct Args {
  std::string mode;
  Workload workload = Workload::kFleetWire;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2 || argc % 2 != 0) {
    return false;
  }
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) {
        return false;
      }
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return args->seconds > 0.0;
}

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool checks_ok = true;
  Metrics metrics;
  Metrics facts;

  void Count(double sessions, double failures) {
    attempted += static_cast<int64_t>(sessions);
    failed += static_cast<int64_t>(failures);
  }
};

void Print(const Outcome& outcome) {
  bool correct = outcome.checks_ok && outcome.failed == 0 && outcome.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s, "
              "\"facts\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed), outcome.metrics.ToJson().c_str(),
              outcome.facts.ToJson().c_str());
}

bool IsWire(Workload w) { return w == Workload::kFleetWire || w == Workload::kDeepStacksWire; }

// One end-to-end run of a workload through the helper process. The result always carries
// SetIntervalMetrics' totals and medians.
struct E2EContext {
  Channel* helper = nullptr;
  Workload workload = Workload::kFleetWire;
  const SessionSet* set = nullptr;
  std::string oracle;
  std::string trace_dir;
  std::string run_name;  // "<workload>-<seed>": trace files are <run_name>-<tag>*.spans.jsonl
};

// Sessions one wire daemon lifetime serves: whole passes, enough for 2,000 sessions but at
// most 10 passes (fleet_wire: 9 passes, 2,106 sessions; deep_stacks_wire: 10 passes, 480).
int64_t LifetimeSessions(int64_t pass_size) {
  return std::clamp<int64_t>((2000 + pass_size - 1) / pass_size, 1, 10) * pass_size;
}

// Daemon lifetimes until `seconds` elapse, at least one. Each boots a fresh
// hangdoctord-shaped server, streams LifetimeSessions() sessions into it and drains it. The
// server retains every outcome of its lifetime until that drain, as hangdoctord does, so
// the helper's peak RSS carries the retention. Each lifetime is one interval; its wall time
// runs from the first byte sent to the end of the drain's TakeResults.
Metrics WireRun(const E2EContext& ctx, double seconds, bool traced, const std::string& tag) {
  Channel& helper = *ctx.helper;
  const SessionSet& set = *ctx.set;
  const auto pass_size = static_cast<int64_t>(set.slices.size());
  const int64_t lifetime = LifetimeSessions(pass_size);
  SpanRecorder spans(traced);
  std::vector<Interval> intervals;
  std::vector<double> retention;
  std::vector<double> verdict_ms;
  double send_s = 0.0;
  double send_blocked_s = 0.0;
  Metrics m;
  const int64_t start = NowNs();
  do {
    const auto port = static_cast<uint16_t>(Call(helper, "net-start").Get("port"));
    WireResult wire = RunWireLoad(port, set, lifetime, &spans);
    Metrics drained = Call(helper,
                           "net-finish " + std::to_string(lifetime) + " " +
                               std::to_string(pass_size),
                           ctx.oracle);
    Call(helper, "net-stop");
    const double unanswered = static_cast<double>(lifetime - wire.closed);
    intervals.push_back({static_cast<double>(lifetime),
                         std::max(unanswered, drained.Get("sut.failed")),
                         wire.wall_s + drained.Get("sut.drain_s"), wire.steal_s,
                         drained.Get("sut.cpu_s"), drained.Get("sut.peak_rss_mb")});
    for (const char* name : {"netd.frames_in", "netd.bytes_in", "netd.records_applied",
                             "netd.backpressure_pauses", "netd.sessions_refused",
                             "netd.protocol_errors", "hangdoctor.memo_hits",
                             "hangdoctor.memo_misses"}) {
      m.Add(name, drained.Get(name));
    }
    retention.push_back(drained.Get("netd.rss_mb_per_ksession"));
    m.Add("gen.refused", static_cast<double>(wire.refused));
    m.Add("gen.errors", static_cast<double>(wire.errors));
    m.Add("gen.frames", static_cast<double>(wire.frames));
    m.Add("gen.bytes", static_cast<double>(wire.bytes));
    send_s += wire.send_s;
    send_blocked_s += wire.send_blocked_s;
    verdict_ms.insert(verdict_ms.end(), wire.verdict_ms.begin(), wire.verdict_ms.end());
  } while (SecondsSince(start) < seconds);
  SetIntervalMetrics(intervals, &m);
  m.Set("lifetime_sessions", static_cast<double>(lifetime));
  m.Set("netd.rss_mb_per_ksession", Median(retention));
  if (traced) {
    TailStats tail = TailPercentile(verdict_ms);
    m.Set("netd.verdict_p50_ms", tail.p50);
    m.Set("netd.verdict_tail_ms", tail.tail);
    m.Set("netd.verdict_tail_pct", tail.tail_pct);
    m.Set("netd.verdict_samples", static_cast<double>(tail.samples));
    m.Set("netd.send_blocked_share", send_s > 0 ? send_blocked_s / send_s : 0.0);
    WriteSpans(ctx.trace_dir + "/" + tag + ".gen.spans.jsonl", spans.Take());
  }
  return m;
}

Metrics E2ERun(const E2EContext& ctx, double seconds, bool traced, const std::string& rung) {
  const std::string tag = ctx.run_name + "-" + rung;
  const std::string args = std::to_string(seconds) + (traced ? " 1 " : " 0 ") + tag;
  switch (ctx.workload) {
    case Workload::kFleetWire:
    case Workload::kDeepStacksWire:
      return WireRun(ctx, seconds, traced, tag);
    case Workload::kFleetMigrate:
      return Call(*ctx.helper, "fleet-run " + args, EncodeFrames(*ctx.set, ctx.oracle));
    case Workload::kSimulateFleet:
      return Call(*ctx.helper, "sim-run " + args);
  }
  throw std::logic_error("unknown workload");
}

Child ForkHelper(const Args& args) {
  const std::string trace_dir = args.workdir + "/trace";
  return ForkChild([trace_dir](Channel& channel) {
    ::alarm(kWatchdogSeconds);
    return SutMain(channel, trace_dir);
  });
}

void StopHelper(Child& helper) {
  helper.channel->Send("quit");
  helper.channel->Send("");
  if (WaitChild(helper.pid) != 0) {
    throw std::runtime_error("helper process failed");
  }
}

std::string RunName(const Args& args) {
  return std::string(WorkloadName(args.workload)) + "-" + std::to_string(args.seed);
}

// --trace 0: set up kSetupRepeats times (generate the inputs, start the system), then one
// measured run of `seconds`.
Outcome RunEndToEnd(const Args& args) {
  Child helper = ForkHelper(args);
  Outcome out;
  std::vector<double> generate_s;
  std::vector<double> start_s;
  SessionSet set;
  const int repeats =
      args.workload == Workload::kSimulateFleet ? kSimulateSetupRepeats : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    if (args.workload == Workload::kSimulateFleet) {
      Metrics setup = Call(*helper.channel, "sim-setup " + std::to_string(args.seed));
      start_s.push_back(setup.Get("start_s"));
      out.facts.Merge(setup);
      continue;
    }
    const double steal0 = StealSeconds();
    const int64_t t0 = NowNs();
    SessionSet generated = GenerateSessions(args.workload, args.seed, args.workdir);
    generate_s.push_back(SecondsSince(t0) - (StealSeconds() - steal0));
    if (r == 0) {
      set = std::move(generated);
    } else if (generated.hash != set.hash) {
      out.checks_ok = false;  // the same seed must give byte-identical inputs
    }
    if (IsWire(args.workload)) {
      start_s.push_back(Call(*helper.channel, "net-start").Get("start_s"));
      Call(*helper.channel, "net-stop");
    } else {
      start_s.push_back(Call(*helper.channel, "fleet-start").Get("start_s"));
    }
  }
  E2EContext ctx{helper.channel.get(), args.workload, &set, "", args.workdir + "/trace",
                 RunName(args)};
  if (args.workload != Workload::kSimulateFleet) {
    ctx.oracle = OracleReport(set);
    out.facts.Fact("input_hash", Hex64(set.hash));
    out.facts.Set("input_sessions", static_cast<double>(set.slices.size()));
    out.facts.Set("input_bytes", static_cast<double>(set.bytes));
    out.facts.Set("input_frames", static_cast<double>(set.frame_count));
  }
  Metrics m = E2ERun(ctx, args.seconds, false, "e2e");
  StopHelper(helper);

  out.Count(m.Get("sessions"), m.Get("failed"));
  out.metrics.Set("sessions_per_s", m.Get("rate_p50"));
  out.metrics.Set("cpu_ms_per_session", m.Get("cpu_ms_p50"));
  out.metrics.Set("peak_rss_mb", m.Get("peak_rss_p50"));
  out.metrics.Set("setup_s", Median(generate_s) + Median(start_s));
  for (const char* name : {"sessions", "intervals", "wall_s", "steal_s"}) {
    out.facts.Set(name, m.Get(name));
  }
  if (IsWire(args.workload)) {
    for (const char* name : {"lifetime_sessions", "netd.rss_mb_per_ksession", "gen.refused",
                             "gen.errors", "gen.frames", "gen.bytes"}) {
      out.facts.Set(name, m.Get(name));
    }
  }
  out.facts.Set("failed_ratio", m.Get("failed") / m.Get("sessions"));
  return out;
}

// Runs `body` in a fresh forked process and returns its metrics; its spans go to `path`.
Metrics RunRung(const std::string& path, const std::function<Metrics(SpanRecorder&)>& body) {
  Child child = ForkChild([&](Channel& channel) {
    ::alarm(kWatchdogSeconds);
    SpanRecorder spans(true);
    Metrics m = body(spans);
    std::vector<Span> recorded = spans.Take();
    WriteSpans(path, recorded);
    m.Set("trace.spans", static_cast<double>(recorded.size()));
    return channel.Send(m.Serialize()) ? 0 : 1;
  });
  std::string reply;
  bool received = child.channel->Receive(&reply);
  if (WaitChild(child.pid) != 0 || !received) {
    throw std::runtime_error("rung process failed: " + path);
  }
  return Metrics::Deserialize(reply);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// --trace 1: R0 generates the bytes (with spans), R1-R4 run in fresh processes, R5 and R6
// run through the helper, and the workload's own path runs untraced and traced once each.
Outcome RunTraced(const Args& args) {
  std::filesystem::create_directories(args.workdir + "/trace");
  Child helper = ForkHelper(args);
  Outcome out;
  Metrics& m = out.metrics;
  const std::string trace_dir = args.workdir + "/trace";
  const std::string stem = trace_dir + "/" + RunName(args);
  const double slice = std::max(0.25, args.seconds / 10.0);

  // R0: simulate and record (or synthesize) the session bytes.
  SpanRecorder r0(true);
  double busy_share = 0.0;
  const int64_t r0_start = NowNs();
  SessionSet set = GenerateSessions(args.workload, args.seed, args.workdir, &r0, &busy_share);
  const double r0_wall = SecondsSince(r0_start);
  std::vector<Span> r0_spans = r0.Take();
  WriteSpans(stem + "-r0.spans.jsonl", r0_spans);
  const auto r0_totals = SummarizeSpans(r0_spans);
  const bool synthesized = args.workload == Workload::kDeepStacksWire;
  const SpanTotals& unit = r0_totals.at(synthesized ? "synth.session" : "droidsim.job");
  m.Set("droidsim.sim_ms_per_session",
        static_cast<double>(unit.total_ns) * 1e-6 / static_cast<double>(unit.spans));
  m.Set("workload.pool_busy_share",
        synthesized ? static_cast<double>(unit.total_ns) * 1e-9 / r0_wall : busy_share);
  m.Set("ladder.r0_sessions_per_s", static_cast<double>(set.slices.size()) / r0_wall);
  out.facts.Set("repeated_memo_key_share", set.repeated_memo_key_share);
  out.facts.Fact("input_hash", Hex64(set.hash));
  out.facts.Set("input_sessions", static_cast<double>(set.slices.size()));
  out.facts.Set("input_bytes", static_cast<double>(set.bytes));
  out.facts.Set("input_frames", static_cast<double>(set.frame_count));

  const std::string oracle = OracleReport(set);
  auto rung = [&](const std::string& name,
                  const std::function<Metrics(SpanRecorder&)>& body) -> Metrics {
    Metrics r = RunRung(stem + "-" + name + ".spans.jsonl", body);
    out.Count(r.Get(name + ".sessions"), r.Get(name + ".failed"));
    m.Add("trace.spans", r.Get("trace.spans"));
    return r;
  };
  Metrics r1 = rung("r1", [&](SpanRecorder& s) { return RunR1(set, oracle, slice, s); });
  Metrics r2 = rung("r2", [&](SpanRecorder& s) { return RunR2(set, oracle, slice, s); });
  Metrics r3[3];
  const int32_t r3_threads[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    const std::string name = "r3_t" + std::to_string(r3_threads[i]);
    r3[i] = rung(name, [&](SpanRecorder& s) {
      return RunR3(set, oracle, slice, r3_threads[i], s);
    });
    m.Set("service.pipeline_sessions_per_s_t" + std::to_string(r3_threads[i]),
          r3[i].Get(name + ".sessions_per_s"));
  }
  Metrics r4 = rung("r4", [&](SpanRecorder& s) { return RunR4(set, oracle, slice, s); });
  m.Merge(r1);
  m.Merge(r2);
  m.Merge(r4);

  // R5 and R6 through the helper, and the workload's own path untraced vs traced.
  E2EContext ctx{helper.channel.get(), Workload::kFleetWire, &set, oracle, trace_dir,
                 RunName(args)};
  Metrics r5_untraced = E2ERun(ctx, slice, false, "r5u");
  Metrics r5 = E2ERun(ctx, slice, true, "r5");
  ctx.workload = Workload::kFleetMigrate;
  Metrics r6 = E2ERun(ctx, slice, true, "r6");
  for (const Metrics* run : {&r5_untraced, &r5, &r6}) {
    out.Count(run->Get("sessions"), run->Get("failed"));
  }
  Metrics own_untraced = r5_untraced;
  Metrics own_traced = r5;
  if (args.workload == Workload::kFleetMigrate) {
    own_untraced = E2ERun(ctx, slice, false, "r6u");
    own_traced = r6;
    out.Count(own_untraced.Get("sessions"), own_untraced.Get("failed"));
  } else if (args.workload == Workload::kSimulateFleet) {
    Call(*helper.channel, "sim-setup " + std::to_string(args.seed));
    ctx.workload = Workload::kSimulateFleet;
    own_untraced = E2ERun(ctx, slice, false, "simu");
    own_traced = E2ERun(ctx, slice, true, "sim");
    out.Count(own_untraced.Get("sessions"), own_untraced.Get("failed"));
    out.Count(own_traced.Get("sessions"), own_traced.Get("failed"));
    // The traced and untraced runs of one seed must fold byte-identical reports.
    out.checks_ok = out.checks_ok && !own_untraced.GetFact("report_hash").empty() &&
                    own_untraced.GetFact("report_hash") == own_traced.GetFact("report_hash");
  }
  StopHelper(helper);

  // Per-layer metrics from R5 (traced) and R6.
  for (const char* name :
       {"netd.frames_in", "netd.bytes_in", "netd.records_applied", "netd.backpressure_pauses",
        "netd.sessions_refused", "netd.protocol_errors", "netd.rss_mb_per_ksession",
        "netd.verdict_p50_ms", "netd.verdict_tail_ms", "netd.verdict_tail_pct",
        "netd.verdict_samples", "netd.send_blocked_share"}) {
    m.Set(name, r5.Get(name));
  }
  const double hits = r5.Get("hangdoctor.memo_hits");
  const double misses = r5.Get("hangdoctor.memo_misses");
  m.Set("hangdoctor.memo_hit_ratio", Ratio(hits, hits + misses));
  for (const char* name : {"fleetd.route_us_per_frame", "fleetd.migrate_ms",
                           "fleetd.results_wait_ms", "fleetd.migrated", "fleetd.recovered",
                           "fleetd.failovers"}) {
    m.Set(name, r6.Get(name));
  }
  out.checks_ok = out.checks_ok && r6.Get("fleetd.failovers") == 0.0;
  m.Add("trace.spans", r6.Get("trace.spans"));

  // Rung rates and cost ratios (rate of the rung below / rate of the rung: > 1 means the
  // rung costs more than the one below it).
  const double rate1 = r1.Get("r1.sessions_per_s");
  const double rate2 = r2.Get("r2.sessions_per_s");
  const double rate3_t1 = r3[0].Get("r3_t1.sessions_per_s");
  const double rate3_t2 = r3[1].Get("r3_t2.sessions_per_s");
  const double rate4 = r4.Get("r4.sessions_per_s");
  const double rate5 = r5.Get("rate_p50");
  const double rate6 = r6.Get("rate_p50");
  m.Set("ladder.r1_sessions_per_s", rate1);
  m.Set("ladder.r2_sessions_per_s", rate2);
  m.Set("ladder.r4_sessions_per_s", rate4);
  m.Set("ladder.r5_sessions_per_s", rate5);
  m.Set("ladder.r6_sessions_per_s", rate6);
  m.Set("ladder.r2_over_r1", Ratio(rate1, rate2));
  m.Set("ladder.r3_over_r2", Ratio(rate2, rate3_t1));
  m.Set("ladder.r4_over_r3", Ratio(rate3_t1, rate4));
  m.Set("ladder.r5_over_r4", Ratio(rate4, rate5));
  m.Set("netd.r5_over_r3", Ratio(rate3_t2, rate5));
  m.Set("fleetd.r6_over_r5", Ratio(rate5, rate6));
  m.Set("service.pipeline_speedup",
        Ratio(m.Get("service.pipeline_sessions_per_s_t4"), rate3_t1));

  // Tracing overhead on the workload's own path.
  const double untraced_rate = own_untraced.Get("rate_p50");
  const double traced_rate = own_traced.Get("rate_p50");
  m.Set("trace.untraced_sessions_per_s", untraced_rate);
  m.Set("trace.traced_sessions_per_s", traced_rate);
  m.Set("trace.overhead_ratio", Ratio(untraced_rate, traced_rate));
  m.Set("failed_ratio", Ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)));
  return out;
}

// Self-tests of the benchmark's own arithmetic and input generation.
int RunSelfTest(const Args& args) {
  int failures = 0;
  auto check = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };

  // The percentile rule: the highest of {99.9, 99, 95, 90, 75} with >= 10 samples beyond it.
  auto ramp = [](int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) {
      v.push_back(i);
    }
    return v;
  };
  TailStats t1000 = TailPercentile(ramp(1000));
  check(t1000.tail_pct == 99.0 && t1000.tail == 990.0 && t1000.p50 == 500.0,
        "1000 samples report p99 (10 beyond it)");
  TailStats t999 = TailPercentile(ramp(999));
  check(t999.tail_pct == 95.0 && t999.tail == 950.0, "999 samples fall back to p95");
  TailStats t10000 = TailPercentile(ramp(10000));
  check(t10000.tail_pct == 99.9 && t10000.tail == 9990.0, "10000 samples report p99.9");
  TailStats t15 = TailPercentile(ramp(15));
  check(t15.tail_pct == 0.0 && t15.tail == t15.p50 && t15.samples == 15,
        "15 samples have no eligible tail percentile");

  // Span self time: duration minus the union of child intervals clipped to the span.
  std::vector<Span> spans = {
      {1, 0, 7, "root", 0, 100, 1},    {2, 1, 7, "a", 10, 30, 1}, {3, 1, 7, "b", 20, 50, 1},
      {4, 1, 7, "c", 60, 70, 1},       {5, 1, 7, "d", 90, 120, 1}, {6, 2, 7, "e", 15, 20, 1},
      {7, 0, 8, "other", 200, 210, 1},
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  check(self[0] == 40, "root self = 100 - |[10,50] u [60,70] u [90,100]| = 40");
  check(self[1] == 15 && self[2] == 30 && self[4] == 30, "children subtract only their own");
  check(self[6] == 10, "a span without children keeps its whole duration");
  auto totals = SummarizeSpans(spans);
  check(totals.at("root").self_ns == 40 && totals.at("a").total_ns == 20,
        "per-name totals carry duration and self time");

  // Same seed, same input bytes; another seed, other bytes.
  const std::string dir = args.workdir + "/selftest";
  for (Workload w : {Workload::kDeepStacksWire, Workload::kFleetWire}) {
    uint64_t a = GenerateSessions(w, 7, dir).hash;
    uint64_t b = GenerateSessions(w, 7, dir).hash;
    uint64_t c = GenerateSessions(w, 8, dir).hash;
    check(a == b, std::string(WorkloadName(w)) + ": seed 7 twice gives one input hash");
    check(a != c, std::string(WorkloadName(w)) + ": seeds 7 and 8 give different hashes");
  }
  uint64_t a = MakeFleetPlan(Workload::kSimulateFleet, 7)->hash;
  uint64_t b = MakeFleetPlan(Workload::kSimulateFleet, 7)->hash;
  uint64_t c = MakeFleetPlan(Workload::kSimulateFleet, 8)->hash;
  check(a == b && a != c, "simulate_fleet: job-list hash follows the seed");
  std::filesystem::remove_all(dir);
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ladder

int main(int argc, char** argv) {
  ladder::Args args;
  if (!ladder::ParseArgs(argc, argv, &args) || (args.mode != "run" && args.mode != "selftest")) {
    std::fprintf(stderr,
                 "usage: ladder run --workload W --seed N --seconds S --trace 0|1 "
                 "--workdir DIR\n       ladder selftest --workdir DIR\n");
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  ::alarm(ladder::kWatchdogSeconds);
  try {
    std::filesystem::create_directories(args.workdir);
    if (args.mode == "selftest") {
      return ladder::RunSelfTest(args);
    }
    ladder::Outcome outcome =
        args.trace ? ladder::RunTraced(args) : ladder::RunEndToEnd(args);
    ladder::Print(outcome);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ladder: %s\n", e.what());
    return 1;
  }
  return 0;
}
