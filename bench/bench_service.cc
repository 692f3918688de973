// DetectorService capacity benchmark. One process, one service, N concurrent sessions: a
// donor SPI stream (one recorded droidsim session) is replayed into N live sessions
// round-robin — records of all sessions interleaved, the shape a fleet ingestion backend
// sees — and the bench reports sustained sessions/s plus resident memory at each
// concurrency level (1 / 100 / 10k live sessions; smoke: 1 / 10 / 100).
//
// The point being measured: session cost is one arena (core + action table + private
// blocking-API database), not one thread — so the sustained concurrent-session count
// exceeds the machine's thread count by orders of magnitude, and memory tracks *live*
// sessions (each level closes its sessions and the next level's RSS does not accumulate
// the total ever processed).
//
// Second axis (the threads sweep): the same donor stream is applied in place from
// threads ∈ {1, 2, 4} producer threads over disjoint sessions that share the service's
// shards — the shape of hangdoctord's epoll workers — measuring how ingest throughput scales
// with cores. Sessions are pushed as record refs into one shared donor payload set, so the
// sweep measures lookup + detection, not payload copying. Emits machine-readable
// BENCH_service.json with both the capacity levels and the threads axis.
//
// Fourth axis (`--net`, opt-in): the same ingest through the full hangdoctord network
// stack — an in-process epoll NetServer on a loopback port, driven by the loadgen over a
// connections sweep (up to 1024 concurrent connections) — measuring wire-ingest
// sessions/s and resident memory per concurrency level. Emitted as `net_axis` in the JSON
// and gated by scripts/check_bench_json.py --net.
//
// Fifth axis (`--fleet`, opt-in): the same recorded sessions through the distributed
// coordinator/worker shard group (src/fleetd) at workers ∈ {1, 2, 4} — each worker an
// embedded NetServer + DetectorService behind a socketpair, the coordinator routing every
// frame by session-id range — measuring routed throughput as the group widens and
// asserting the merged report stays byte-identical across worker counts (the distributed
// determinism contract). Emitted as `fleet_axis`, gated by check_bench_json.py --fleet.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/smoke.h"
#include "src/hangdoctor/detector_service.h"
#include "src/hangdoctor/knowledge_base.h"
#include "src/hangdoctor/session_stream.h"
#include "src/hosts/hang_doctor.h"
#include "src/hosts/mux_log.h"
#include "src/netd/loadgen.h"
#include "src/netd/server.h"
#include "src/workload/catalog.h"
#include "src/workload/distributed_fleet.h"
#include "src/workload/experiment.h"
#include "src/workload/fleet.h"

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Current resident set in MiB (/proc/self/statm; falls back to getrusage peak).
double ResidentMb() {
  if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
    long total = 0;
    long resident = 0;
    int fields = std::fscanf(statm, "%ld %ld", &total, &resident);
    std::fclose(statm);
    if (fields == 2) {
      return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
             (1024.0 * 1024.0);
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct LevelResult {
  size_t concurrent = 0;
  double seconds = 0.0;
  double sessions_per_sec = 0.0;
  double records_per_sec = 0.0;
  double live_rss_mb = 0.0;    // resident while all sessions of the level are open
  double closed_rss_mb = 0.0;  // resident after every session of the level is closed
};

// Opens `concurrent` sessions, streams the donor records into all of them round-robin
// (record r of every session lands before record r+1 of any), then closes them all.
LevelResult RunLevel(size_t concurrent, const hangdoctor::SessionInfo& info,
                     const hangdoctor::HangDoctorConfig& config,
                     const std::vector<hangdoctor::SpiPayload>& records, int32_t shards) {
  hangdoctor::DetectorService service(hangdoctor::ServiceOptions{shards});
  auto start = std::chrono::steady_clock::now();
  for (size_t s = 0; s < concurrent; ++s) {
    service.Open(telemetry::SessionId{s}, info, config);
  }
  for (const hangdoctor::SpiPayload& payload : records) {
    for (size_t s = 0; s < concurrent; ++s) {
      telemetry::SessionId id{s};
      switch (payload.kind) {
        case hangdoctor::SpiPayload::Kind::kDispatchStart:
          service.OnDispatchStart(id, payload.start);
          break;
        case hangdoctor::SpiPayload::Kind::kDispatchEnd: {
          hangdoctor::DispatchEnd end = payload.end;
          end.samples = payload.samples;
          service.OnDispatchEnd(id, end);
          break;
        }
        case hangdoctor::SpiPayload::Kind::kActionQuiesce:
          service.OnActionQuiesced(id, payload.quiesce);
          break;
        case hangdoctor::SpiPayload::Kind::kCounterFault:
          service.OnCounterFault(id, payload.fault);
          break;
        default:
          break;
      }
    }
  }
  LevelResult result;
  result.live_rss_mb = ResidentMb();
  for (size_t s = 0; s < concurrent; ++s) {
    hangdoctor::SessionResult session = service.Close(telemetry::SessionId{s});
    (void)session;  // harvested and dropped: the arena is what we are freeing
  }
  result.concurrent = concurrent;
  result.seconds = Seconds(start);
  result.sessions_per_sec = static_cast<double>(concurrent) / result.seconds;
  result.records_per_sec =
      static_cast<double>(concurrent * records.size()) / result.seconds;
  result.closed_rss_mb = ResidentMb();
  return result;
}

struct SweepResult {
  int32_t threads = 0;
  int32_t shards = 0;
  size_t sessions = 0;
  double seconds = 0.0;
  double sessions_per_sec = 0.0;
  double records_per_sec = 0.0;
  double speedup = 1.0;  // vs the sweep's first (threads=1) entry
};

// In-place apply from `threads` producers: each producer thread owns an Ingestor and applies
// its share of `sessions` complete sessions (open, donor records, close) as refs into one
// shared payload set, on its own thread; the sessions share the service's shards.
// Throughput is wall-clock from the first push to the drained harvest.
SweepResult RunSweep(int32_t threads, int32_t shards, size_t sessions,
                     const hangdoctor::SpiPayload& open_payload,
                     const hangdoctor::SpiPayload& close_payload,
                     const std::vector<hangdoctor::SpiPayload>& records) {
  hangdoctor::ServiceOptions options;
  options.shards = shards;
  hangdoctor::DetectorService service(options);
  size_t producers = std::min<size_t>(static_cast<size_t>(threads), sessions);
  producers = std::max<size_t>(producers, 1);

  auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> pushers;
    pushers.reserve(producers);
    for (size_t p = 0; p < producers; ++p) {
      pushers.emplace_back([p, producers, sessions, &service, &open_payload, &close_payload,
                            &records]() {
        hangdoctor::DetectorService::Ingestor ingestor(&service);
        for (size_t s = p; s < sessions; s += producers) {
          telemetry::SessionId id{s};
          ingestor.Push({id, &open_payload});
          for (const hangdoctor::SpiPayload& payload : records) {
            ingestor.Push({id, &payload});
          }
          ingestor.Push({id, &close_payload});
        }
      });
    }
    for (std::thread& pusher : pushers) {
      pusher.join();
    }
  }
  std::vector<hangdoctor::SessionResult> results = service.DrainClosed();

  SweepResult result;
  result.threads = threads;
  result.shards = shards;
  result.sessions = results.size();
  result.seconds = Seconds(start);
  result.sessions_per_sec = static_cast<double>(results.size()) / result.seconds;
  result.records_per_sec =
      static_cast<double>(results.size() * (records.size() + 2)) / result.seconds;
  return result;
}

// One record push, shared by the capacity levels and the knowledge-base axis.
void PushRecord(hangdoctor::DetectorService* service, telemetry::SessionId id,
                const hangdoctor::SpiPayload& payload) {
  switch (payload.kind) {
    case hangdoctor::SpiPayload::Kind::kDispatchStart:
      service->OnDispatchStart(id, payload.start);
      break;
    case hangdoctor::SpiPayload::Kind::kDispatchEnd: {
      hangdoctor::DispatchEnd end = payload.end;
      end.samples = payload.samples;
      service->OnDispatchEnd(id, end);
      break;
    }
    case hangdoctor::SpiPayload::Kind::kActionQuiesce:
      service->OnActionQuiesced(id, payload.quiesce);
      break;
    case hangdoctor::SpiPayload::Kind::kCounterFault:
      service->OnCounterFault(id, payload.fault);
      break;
    default:
      break;
  }
}

struct KbArmResult {
  size_t sessions = 0;
  double seconds = 0.0;
  double sessions_per_sec = 0.0;
  int64_t memo_hits = 0;    // diagnoser runs skipped via a published memo
  int64_t memo_misses = 0;  // diagnoser runs that had to execute
  double hit_rate = 0.0;    // memo_hits / (memo_hits + memo_misses)
  double rss_mb = 0.0;
};

// Third axis (fleet scale): `sessions` complete sessions of the same donor app, one live at
// a time — the steady-state shape of a backend draining a fleet's queue — with and without
// the shared KnowledgeBase. With the KB, every session past the first publish resolves its
// hang diagnoses from epoch-published memos instead of re-running the Trace Analyzer, so
// the axis measures exactly the work the KB deletes.
KbArmResult RunKbArm(size_t sessions, const hangdoctor::SessionInfo& info,
                     const hangdoctor::HangDoctorConfig& config,
                     const std::vector<hangdoctor::SpiPayload>& records, int32_t shards,
                     hangdoctor::KnowledgeBase* kb, int64_t epoch_sessions) {
  hangdoctor::ServiceOptions options;
  options.shards = shards;
  options.knowledge_base = kb;
  options.kb_epoch_sessions = kb != nullptr ? epoch_sessions : 0;
  hangdoctor::DetectorService service(options);
  KbArmResult result;
  auto start = std::chrono::steady_clock::now();
  for (size_t s = 0; s < sessions; ++s) {
    telemetry::SessionId id{s};
    service.Open(id, info, config);
    for (const hangdoctor::SpiPayload& payload : records) {
      PushRecord(&service, id, payload);
    }
    hangdoctor::SessionResult session = service.Close(id);
    result.memo_hits += session.kb.memo_hits;
    result.memo_misses += session.kb.memo_misses;
  }
  result.sessions = sessions;
  result.seconds = Seconds(start);
  result.sessions_per_sec = static_cast<double>(sessions) / result.seconds;
  int64_t diagnoses = result.memo_hits + result.memo_misses;
  result.hit_rate =
      diagnoses > 0 ? static_cast<double>(result.memo_hits) / static_cast<double>(diagnoses)
                    : 0.0;
  result.rss_mb = ResidentMb();
  return result;
}

struct NetLevelResult {
  int32_t connections = 0;
  size_t sessions = 0;
  double seconds = 0.0;
  double sessions_per_sec = 0.0;
  int64_t sessions_closed = 0;
  int64_t busy = 0;
  int64_t errors = 0;
  double rss_mb = 0.0;
};

// One point of the `--net` sweep: a fresh NetServer on an ephemeral loopback port, the
// loadgen replaying `2 * connections` copies of the donor log (two sessions multiplexed per
// connection, the fleet shape) over `connections` concurrent connections. Wall-clock covers
// connect through the last kBye; RSS is sampled while the server still holds every
// harvested result, so the level's memory reflects the full in-flight load.
NetLevelResult RunNetLevel(int32_t connections, const std::string& donor_log,
                           int32_t workers, int32_t shards) {
  netd::ServerOptions options;
  options.service.shards = shards;
  options.workers = workers;
  options.max_connections = connections + 64;
  netd::NetServer server(options);

  std::vector<hangdoctor::SessionLogSlice> sessions;
  sessions.reserve(static_cast<size_t>(connections) * 2);
  for (size_t i = 0; i < static_cast<size_t>(connections) * 2; ++i) {
    sessions.push_back({telemetry::SessionId{i + 1}, donor_log});
  }

  netd::LoadGenOptions load;
  load.connections = connections;
  auto start = std::chrono::steady_clock::now();
  netd::LoadGenResult replay = netd::RunLoadGen(server.port(), sessions, load);

  NetLevelResult result;
  result.connections = connections;
  result.sessions = sessions.size();
  result.seconds = Seconds(start);
  result.sessions_per_sec = static_cast<double>(sessions.size()) / result.seconds;
  result.sessions_closed = replay.sessions_closed;
  result.busy = replay.busy;
  result.errors = replay.errors;
  result.rss_mb = ResidentMb();
  server.Stop();
  return result;
}

struct FleetLevelResult {
  int32_t workers = 0;
  size_t sessions = 0;
  int64_t frames_routed = 0;
  double seconds = 0.0;
  double sessions_per_sec = 0.0;
  double frames_per_sec = 0.0;
  size_t aborted = 0;
  bool report_identical = false;  // merged report matches the workers=1 reference run
  double rss_mb = 0.0;
};

// One point of the `--fleet` sweep: the donor log replicated into `sessions` sessions and
// streamed through a fresh shard group of `workers` in-process worker daemons. The caller
// compares each run's merged report against the workers=1 reference.
FleetLevelResult RunFleetLevel(int32_t workers,
                               std::span<const hangdoctor::SessionLogSlice> slices,
                               std::string* rendered) {
  workload::DistributedFleetOptions options;
  options.workers = workers;
  auto start = std::chrono::steady_clock::now();
  workload::DistributedFleetResult run =
      workload::RunDistributedFleetFromLogs(slices, options);

  FleetLevelResult result;
  result.workers = workers;
  result.sessions = slices.size();
  result.frames_routed = run.frames_routed;
  result.seconds = Seconds(start);
  result.sessions_per_sec = static_cast<double>(slices.size()) / result.seconds;
  result.frames_per_sec = static_cast<double>(run.frames_routed) / result.seconds;
  for (const netd::NetSessionOutcome& outcome : run.outcomes) {
    result.aborted += outcome.aborted ? 1 : 0;
  }
  *rendered = run.merged.Render(static_cast<int32_t>(slices.size()));
  result.rss_mb = ResidentMb();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool net = false;
  bool fleet = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--net") == 0) {
      net = true;
    }
    if (std::strcmp(argv[i], "--fleet") == 0) {
      fleet = true;
    }
  }
  const bool smoke = bench::SmokeRun();
  const simkit::SimDuration donor_session =
      bench::SmokeScaled(simkit::Seconds(60), simkit::Seconds(10));
  const std::vector<size_t> levels =
      smoke ? std::vector<size_t>{1, 10, 100} : std::vector<size_t>{1, 100, 10000};

  // Donor stream: one recorded droidsim session; the replay property guarantees any core
  // fed this stream behaves bit-identically, so N sessions fed the same stream model N
  // concurrent devices exactly.
  workload::Catalog catalog;
  hangdoctor::SpiStreamRecorder recorder;
  hangdoctor::HangDoctorConfig config;
  workload::SingleAppHarness harness(droidsim::LgV10(), catalog.FindApp("K9-Mail"),
                                     /*seed=*/0x5E55);
  {
    hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(), config,
                                  /*database=*/nullptr, /*fleet_report=*/nullptr,
                                  /*device_id=*/0, &recorder);
    harness.RunUserSession(donor_session, {});
  }

  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  const int32_t shards = static_cast<int32_t>(std::max(1u, threads / 2));
  std::printf("donor stream: %zu records (%s session)%s\n", recorder.records().size(),
              "K9-Mail", smoke ? " (smoke)" : "");
  std::printf("machine threads: %u   service shards: %d\n\n", threads, shards);

  std::vector<LevelResult> results;
  for (size_t level : levels) {
    LevelResult result =
        RunLevel(level, recorder.info(), config, recorder.records(), shards);
    std::printf(
        "concurrent=%-6zu  %8.3f s  %10.1f sessions/s  %12.0f records/s  "
        "rss live %.1f MB / closed %.1f MB\n",
        result.concurrent, result.seconds, result.sessions_per_sec, result.records_per_sec,
        result.live_rss_mb, result.closed_rss_mb);
    results.push_back(result);
  }

  const LevelResult& top = results.back();
  double sessions_per_thread = static_cast<double>(top.concurrent) / threads;
  std::printf("\nmax concurrency sustained: %zu sessions in one process = %.1fx the "
              "machine's %u threads\n",
              top.concurrent, sessions_per_thread, threads);

  // Threads axis: same donor stream applied in place from 1/2/4 producer threads.
  // Fixed shard count (8, comfortably above the largest thread count) so the sweep varies
  // exactly one knob; session count is sized to run a few seconds per point.
  const std::vector<int32_t> threads_axis = {1, 2, 4};
  const int32_t sweep_shards = 8;
  const size_t sweep_sessions = smoke ? 200 : 10000;
  hangdoctor::SpiPayload open_payload;
  open_payload.kind = hangdoctor::SpiPayload::Kind::kSessionOpen;
  open_payload.info = recorder.info();
  open_payload.config = config;
  hangdoctor::SpiPayload close_payload;
  close_payload.kind = hangdoctor::SpiPayload::Kind::kSessionClose;

  std::printf("\nin-place apply sweep: %zu sessions, %d shards, t producer threads\n",
              sweep_sessions, sweep_shards);
  std::vector<SweepResult> sweep;
  for (int32_t t : threads_axis) {
    SweepResult result = RunSweep(t, sweep_shards, sweep_sessions, open_payload,
                                  close_payload, recorder.records());
    result.speedup = sweep.empty() ? 1.0
                                   : result.sessions_per_sec / sweep.front().sessions_per_sec;
    std::printf("threads=%-2d  %8.3f s  %10.1f sessions/s  %12.0f records/s  %.2fx\n",
                result.threads, result.seconds, result.sessions_per_sec,
                result.records_per_sec, result.speedup);
    sweep.push_back(result);
  }

  // Knowledge-base axis: fleet-scale session count, one live session at a time, the same
  // app build throughout — so diagnosis memos repeat across sessions exactly as they do for
  // a fleet of devices. droidsim's synthetic stacks are far shallower than production
  // Android ones (depth ~2 over a dozen interned methods), which makes a Trace Analyzer run
  // nearly free and would understate the work a shared KB deletes; this axis therefore
  // synthesizes a production-shaped donor — a 6000-method symbol table, 8 hang diagnoses per
  // session, each carrying 25 stack samples of depth 35 — replayed second-phase-only so
  // every hang runs the Diagnoser.
  constexpr uint32_t kKbTable = 6000;
  telemetry::SymbolTable kb_symbols;
  for (uint32_t i = 0; i < kKbTable; ++i) {
    telemetry::StackFrame frame;
    frame.function = "method" + std::to_string(i);
    frame.clazz = "com.example.fleet.Class" + std::to_string(i / 20);
    frame.file = "Class" + std::to_string(i / 20) + ".java";
    frame.line = static_cast<int32_t>(i % 400);
    kb_symbols.Intern(frame, /*is_ui=*/false);
  }
  hangdoctor::SessionInfo kb_info;
  kb_info.app_package = "com.example.fleetapp";
  kb_info.num_actions = 8;
  kb_info.symbols = &kb_symbols;
  hangdoctor::HangDoctorConfig kb_config = config;
  kb_config.second_phase_only = true;
  constexpr uint32_t kKbHangs = 8;
  std::vector<hangdoctor::SpiPayload> kb_records;
  for (uint32_t hang = 0; hang < kKbHangs; ++hang) {
    const simkit::SimTime at = simkit::Seconds(10 * hang + 1);
    hangdoctor::SpiPayload start;
    start.kind = hangdoctor::SpiPayload::Kind::kDispatchStart;
    start.start.now = at;
    start.start.execution_id = hang + 1;
    start.start.action_uid = static_cast<int32_t>(hang % kb_info.num_actions);
    start.start.events_total = 1;
    kb_records.push_back(std::move(start));

    hangdoctor::SpiPayload end;
    end.kind = hangdoctor::SpiPayload::Kind::kDispatchEnd;
    end.end.now = at + simkit::Seconds(6);
    end.end.execution_id = hang + 1;
    end.end.response = simkit::Seconds(6);
    end.end.trace_stopped = true;
    for (uint32_t sample = 0; sample < 25; ++sample) {
      telemetry::StackTrace trace;
      trace.frames.reserve(35);
      for (uint32_t depth = 0; depth + 1 < 35; ++depth) {
        trace.frames.push_back((hang * 131 + depth * 7 + sample % 5) % kKbTable);
      }
      // 80% of the samples bottom out in this hang's culprit API — comfortably past the 50%
      // occurrence threshold — the rest in per-sample noise leaves.
      trace.frames.push_back(sample < 20 ? (hang * 37) % kKbTable
                                         : (hang * 37 + sample) % kKbTable);
      end.samples.push_back(std::move(trace));
    }
    kb_records.push_back(std::move(end));

    hangdoctor::SpiPayload quiesce;
    quiesce.kind = hangdoctor::SpiPayload::Kind::kActionQuiesce;
    quiesce.quiesce.now = at + simkit::Seconds(7);
    quiesce.quiesce.execution_id = hang + 1;
    quiesce.quiesce.action_uid = static_cast<int32_t>(hang % kb_info.num_actions);
    quiesce.quiesce.max_response = simkit::Seconds(6);
    kb_records.push_back(std::move(quiesce));
  }
  const size_t kb_sessions = smoke ? 2000 : 100000;
  const int64_t kb_epoch_sessions = 256;
  std::printf("\nknowledge-base axis: %zu sessions, %zu-record donor (%u diagnoses/session, "
              "%u-method table), epoch every %lld sessions\n",
              kb_sessions, kb_records.size(), kKbHangs, kKbTable,
              static_cast<long long>(kb_epoch_sessions));
  KbArmResult kb_off =
      RunKbArm(kb_sessions, kb_info, kb_config, kb_records, shards, nullptr, 0);
  hangdoctor::KnowledgeBase knowledge_base;
  KbArmResult kb_on = RunKbArm(kb_sessions, kb_info, kb_config, kb_records, shards,
                               &knowledge_base, kb_epoch_sessions);
  double kb_speedup = kb_on.sessions_per_sec / kb_off.sessions_per_sec;
  std::printf("kb off      %8.3f s  %10.1f sessions/s  %lld diagnoser runs  rss %.1f MB\n",
              kb_off.seconds, kb_off.sessions_per_sec,
              static_cast<long long>(kb_off.memo_misses), kb_off.rss_mb);
  std::printf("kb on       %8.3f s  %10.1f sessions/s  %lld diagnoser runs  rss %.1f MB\n",
              kb_on.seconds, kb_on.sessions_per_sec,
              static_cast<long long>(kb_on.memo_misses), kb_on.rss_mb);
  std::printf("kb hit rate %.1f%%  (%lld of %lld diagnoses from published memos)  "
              "speedup %.2fx\n",
              100.0 * kb_on.hit_rate, static_cast<long long>(kb_on.memo_hits),
              static_cast<long long>(kb_on.memo_hits + kb_on.memo_misses), kb_speedup);

  // Net axis (--net): the same service behind the hangdoctord wire stack, swept over
  // concurrent loadgen connections. Donor is one short recorded study-app session; every
  // connection multiplexes two copies under fresh session ids, so the top level holds
  // 2 * connections live sessions behind `connections` sockets.
  std::vector<NetLevelResult> net_levels;
  std::vector<int32_t> net_axis;
  std::string donor_log;  // recorded once, shared by the net and fleet axes
  if (net || fleet) {
    std::filesystem::path net_dir =
        std::filesystem::temp_directory_path() / "hd_bench_service_net";
    std::filesystem::create_directories(net_dir);
    workload::FleetJob donor_job;
    donor_job.spec = catalog.study_apps()[0];
    donor_job.profile = droidsim::LgV10();
    donor_job.seed = workload::FleetSeed(4242, 0);
    donor_job.session = simkit::Seconds(10);
    donor_job.record_path = (net_dir / "donor.hdsl").string();
    workload::FleetJobResult donor_result = workload::RunFleetJob(donor_job);
    if (!donor_result.ok || !donor_result.record_ok) {
      std::fprintf(stderr, "donor recording failed: %s%s\n",
                   donor_result.error.c_str(), donor_result.record_error.c_str());
      return 1;
    }
    std::ifstream donor_in(donor_job.record_path, std::ios::binary);
    donor_log.assign(std::istreambuf_iterator<char>(donor_in),
                     std::istreambuf_iterator<char>());
  }
  if (net) {
    net_axis = smoke ? std::vector<int32_t>{8, 32, 128}
                     : std::vector<int32_t>{64, 256, 1024};
    const int32_t net_workers = static_cast<int32_t>(std::min(4u, threads));
    std::printf("\nnet axis (--net): loopback hangdoctord ingest, %d epoll workers, "
                "%zu-byte donor log, 2 sessions per connection\n",
                net_workers, donor_log.size());
    for (int32_t connections : net_axis) {
      NetLevelResult result = RunNetLevel(connections, donor_log, net_workers, shards);
      std::printf("connections=%-5d  %8.3f s  %10.1f sessions/s  %lld closed  %lld busy  "
                  "%lld errors  rss %.1f MB\n",
                  result.connections, result.seconds, result.sessions_per_sec,
                  static_cast<long long>(result.sessions_closed),
                  static_cast<long long>(result.busy),
                  static_cast<long long>(result.errors), result.rss_mb);
      net_levels.push_back(result);
    }
  }

  // Fleet axis (--fleet): the donor sessions through the coordinator/worker shard group,
  // swept over the worker count. Every run must fold the same merged report — the workers=1
  // run is the reference — so the axis tracks both distributed throughput and the
  // determinism contract the distributed fleet is built on.
  std::vector<FleetLevelResult> fleet_levels;
  std::vector<int32_t> fleet_axis;
  if (fleet) {
    fleet_axis = {1, 2, 4};
    const size_t fleet_sessions = smoke ? 16 : 64;
    std::vector<hangdoctor::SessionLogSlice> fleet_slices;
    fleet_slices.reserve(fleet_sessions);
    for (size_t i = 0; i < fleet_sessions; ++i) {
      fleet_slices.push_back({telemetry::SessionId{i + 1}, donor_log});
    }
    std::printf("\nfleet axis (--fleet): coordinator/worker shard group, %zu sessions, "
                "%zu-byte donor log\n",
                fleet_sessions, donor_log.size());
    std::string reference;
    for (int32_t workers : fleet_axis) {
      std::string rendered;
      FleetLevelResult result = RunFleetLevel(workers, fleet_slices, &rendered);
      if (workers == fleet_axis.front()) {
        reference = rendered;
      }
      result.report_identical = rendered == reference;
      std::printf("workers=%-2d  %8.3f s  %10.1f sessions/s  %12.0f frames/s  "
                  "%zu aborted  report %s  rss %.1f MB\n",
                  result.workers, result.seconds, result.sessions_per_sec,
                  result.frames_per_sec, result.aborted,
                  result.report_identical ? "identical" : "DIVERGED", result.rss_mb);
      fleet_levels.push_back(result);
    }
  }

  std::FILE* json = std::fopen("BENCH_service.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_service.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"service\",\n");
  std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(json, "  \"donor_records\": %zu,\n", recorder.records().size());
  std::fprintf(json, "  \"threads\": %u,\n", threads);
  std::fprintf(json, "  \"shards\": %d,\n", shards);
  std::fprintf(json, "  \"levels\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const LevelResult& r = results[i];
    std::fprintf(json,
                 "    {\"concurrent_sessions\": %zu, \"seconds\": %.3f, "
                 "\"sessions_per_sec\": %.2f, \"records_per_sec\": %.0f, "
                 "\"live_rss_mb\": %.1f, \"closed_rss_mb\": %.1f}%s\n",
                 r.concurrent, r.seconds, r.sessions_per_sec, r.records_per_sec,
                 r.live_rss_mb, r.closed_rss_mb, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"threads_axis\": [");
  for (size_t i = 0; i < threads_axis.size(); ++i) {
    std::fprintf(json, "%d%s", threads_axis[i], i + 1 < threads_axis.size() ? ", " : "");
  }
  std::fprintf(json, "],\n");
  std::fprintf(json, "  \"threads_sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepResult& r = sweep[i];
    std::fprintf(json,
                 "    {\"threads\": %d, \"shards\": %d, \"sessions\": %zu, "
                 "\"seconds\": %.3f, \"sessions_per_sec\": %.2f, "
                 "\"records_per_sec\": %.0f, \"speedup\": %.3f}%s\n",
                 r.threads, r.shards, r.sessions, r.seconds, r.sessions_per_sec,
                 r.records_per_sec, r.speedup, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"kb_axis\": {\n");
  std::fprintf(json, "    \"sessions\": %zu,\n", kb_sessions);
  std::fprintf(json, "    \"donor_records\": %zu,\n", kb_records.size());
  std::fprintf(json, "    \"epoch_sessions\": %lld,\n",
               static_cast<long long>(kb_epoch_sessions));
  std::fprintf(json,
               "    \"off\": {\"seconds\": %.3f, \"sessions_per_sec\": %.2f, "
               "\"diagnoser_runs\": %lld, \"rss_mb\": %.1f},\n",
               kb_off.seconds, kb_off.sessions_per_sec,
               static_cast<long long>(kb_off.memo_misses), kb_off.rss_mb);
  std::fprintf(json,
               "    \"on\": {\"seconds\": %.3f, \"sessions_per_sec\": %.2f, "
               "\"diagnoser_runs\": %lld, \"rss_mb\": %.1f},\n",
               kb_on.seconds, kb_on.sessions_per_sec,
               static_cast<long long>(kb_on.memo_misses), kb_on.rss_mb);
  std::fprintf(json, "    \"memo_hits\": %lld,\n", static_cast<long long>(kb_on.memo_hits));
  std::fprintf(json, "    \"hit_rate\": %.4f,\n", kb_on.hit_rate);
  std::fprintf(json, "    \"speedup\": %.3f\n", kb_speedup);
  std::fprintf(json, "  },\n");
  if (net) {
    std::fprintf(json, "  \"net_axis\": [\n");
    for (size_t i = 0; i < net_levels.size(); ++i) {
      const NetLevelResult& r = net_levels[i];
      std::fprintf(json,
                   "    {\"connections\": %d, \"sessions\": %zu, \"seconds\": %.3f, "
                   "\"sessions_per_sec\": %.2f, \"sessions_closed\": %lld, "
                   "\"busy\": %lld, \"errors\": %lld, \"rss_mb\": %.1f}%s\n",
                   r.connections, r.sessions, r.seconds, r.sessions_per_sec,
                   static_cast<long long>(r.sessions_closed),
                   static_cast<long long>(r.busy), static_cast<long long>(r.errors),
                   r.rss_mb, i + 1 < net_levels.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
  }
  if (fleet) {
    std::fprintf(json, "  \"fleet_axis\": [\n");
    for (size_t i = 0; i < fleet_levels.size(); ++i) {
      const FleetLevelResult& r = fleet_levels[i];
      std::fprintf(json,
                   "    {\"workers\": %d, \"sessions\": %zu, \"frames_routed\": %lld, "
                   "\"seconds\": %.3f, \"sessions_per_sec\": %.2f, "
                   "\"frames_per_sec\": %.0f, \"aborted\": %zu, "
                   "\"report_identical\": %s, \"rss_mb\": %.1f}%s\n",
                   r.workers, r.sessions, static_cast<long long>(r.frames_routed),
                   r.seconds, r.sessions_per_sec, r.frames_per_sec, r.aborted,
                   r.report_identical ? "true" : "false", r.rss_mb,
                   i + 1 < fleet_levels.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
  }
  std::fprintf(json, "  \"max_concurrent_sessions\": %zu,\n", top.concurrent);
  std::fprintf(json, "  \"sessions_per_thread\": %.1f,\n", sessions_per_thread);
  std::fprintf(json, "  \"peak_rss_mb\": %.1f\n", PeakRssMb());
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote BENCH_service.json\n");
  return 0;
}
