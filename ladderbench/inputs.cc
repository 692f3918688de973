#include "inputs.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "src/droidsim/device.h"
#include "src/hosts/replay_host.h"
#include "src/hosts/session_log.h"
#include "src/netd/record_codec.h"
#include "src/netd/wire.h"
#include "src/simkit/rng.h"

namespace ladder {

namespace {

constexpr int32_t kFleetDevices = 2;           // devices per app, fleet workloads
constexpr int32_t kStudyDevices = 4;           // devices per study app, simulate_fleet
constexpr int64_t kStudySessionSeconds = 420;  // Table 5's session length
constexpr int32_t kDeepSessions = 48;
constexpr uint32_t kDeepMethods = 6000;
constexpr uint32_t kDeepHangs = 8;
constexpr uint32_t kDeepSamples = 25;
constexpr uint32_t kDeepDepth = 35;
constexpr uint32_t kDeepCulpritPool = 96;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Splits one v4 log into its mux frames under its id, dropping the container's kEnd.
std::vector<std::string> SessionFrames(const hangdoctor::SessionLogSlice& slice) {
  std::string container;
  std::string error;
  std::vector<hangdoctor::SessionLogSlice> one{slice};
  std::vector<std::string> frames;
  if (!hangdoctor::MuxSessionLogs(one, {}, &container, &error) ||
      !netd::ContainerToWireFrames(container, &frames, &error)) {
    throw std::runtime_error("session " + std::to_string(slice.id.value) + ": " + error);
  }
  while (!frames.empty() && static_cast<hangdoctor::MuxFrameTag>(static_cast<uint8_t>(
                                frames.back()[0])) != hangdoctor::MuxFrameTag::kCloseSession) {
    frames.pop_back();
  }
  return frames;
}

SessionSet FromLogs(std::vector<std::string> logs) {
  SessionSet set;
  set.hash = Fnv1a("");
  for (size_t i = 0; i < logs.size(); ++i) {
    set.hash = Fnv1a(logs[i], set.hash);
    set.bytes += static_cast<int64_t>(logs[i].size());
    set.slices.push_back({telemetry::SessionId{i + 1}, std::move(logs[i])});
    set.frames.push_back(SessionFrames(set.slices.back()));
    set.frame_count += static_cast<int64_t>(set.frames.back().size());
  }
  return set;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* workload) {
  for (Workload w : {Workload::kFleetWire, Workload::kDeepStacksWire, Workload::kSimulateFleet,
                     Workload::kFleetMigrate}) {
    if (name == WorkloadName(w)) {
      *workload = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kFleetWire:
      return "fleet_wire";
    case Workload::kDeepStacksWire:
      return "deep_stacks_wire";
    case Workload::kSimulateFleet:
      return "simulate_fleet";
    case Workload::kFleetMigrate:
      return "fleet_migrate";
  }
  return "?";
}

int32_t SimulationThreads() {
  unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int32_t>(std::min(4u, cores));
}

std::unique_ptr<FleetPlan> MakeFleetPlan(Workload workload, uint64_t seed) {
  auto plan = std::make_unique<FleetPlan>();
  plan->catalog = std::make_unique<workload::Catalog>();
  plan->known_db = plan->catalog->MakeKnownDatabase();
  std::vector<const droidsim::AppSpec*> apps;
  int32_t devices = kFleetDevices;
  simkit::SimDuration session = workload::FleetJob{}.session;
  if (workload == Workload::kSimulateFleet) {
    apps = plan->catalog->study_apps();
    devices = kStudyDevices;
    session = simkit::Seconds(kStudySessionSeconds);
  } else {
    apps = plan->catalog->all_apps();
    const auto& async_apps = plan->catalog->async_apps();
    apps.insert(apps.end(), async_apps.begin(), async_apps.end());
  }
  plan->hash = Fnv1a("");
  for (const droidsim::AppSpec* spec : apps) {
    for (int32_t device = 0; device < devices; ++device) {
      workload::FleetJob job;
      job.spec = spec;
      job.profile = droidsim::LgV10();
      job.seed = workload::FleetSeed(seed, plan->jobs.size());
      job.session = session;
      job.device_id = device;
      job.known_db = &plan->known_db;
      plan->hash = Fnv1a(spec->name + "/" + std::to_string(device) + "/" +
                             std::to_string(job.seed) + "/" + std::to_string(job.session),
                         plan->hash);
      plan->jobs.push_back(job);
    }
  }
  return plan;
}

SessionSet RecordFleet(const FleetPlan& plan, const std::string& workdir, int32_t threads,
                       SpanRecorder* spans, double* busy_share) {
  std::filesystem::create_directories(workdir);
  const std::string stem = workdir + "/fleet_" + std::to_string(::getpid()) + "_";
  std::vector<workload::FleetJob> jobs = plan.jobs;
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].record_path = stem + std::to_string(i) + ".hdsl";
  }
  std::vector<workload::FleetJobResult> results(jobs.size());
  std::vector<int64_t> job_ns(jobs.size(), 0);
  std::atomic<size_t> next{0};
  const uint64_t root = spans != nullptr ? spans->NextId() : 0;
  const int64_t start = NowNs();
  {
    std::vector<std::thread> pool;
    for (int32_t t = 0; t < threads; ++t) {
      pool.emplace_back([&]() {
        for (size_t i = next++; i < jobs.size(); i = next++) {
          int64_t job_start = NowNs();
          results[i] = workload::RunFleetJob(jobs[i]);
          int64_t job_end = NowNs();
          job_ns[i] = job_end - job_start;
          if (spans != nullptr) {
            spans->Record("droidsim.job", root, i + 1, job_start, job_end);
          }
        }
      });
    }
    for (std::thread& worker : pool) {
      worker.join();
    }
  }
  const int64_t end = NowNs();
  if (spans != nullptr) {
    spans->Record("r0.fleet", 0, 0, start, end, static_cast<int64_t>(jobs.size()), root);
  }
  if (busy_share != nullptr) {
    int64_t busy = 0;
    for (int64_t ns : job_ns) {
      busy += ns;
    }
    *busy_share = static_cast<double>(busy) / (static_cast<double>(threads) *
                                               static_cast<double>(std::max<int64_t>(1, end - start)));
  }
  std::vector<std::string> logs;
  logs.reserve(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (!results[i].ok || !results[i].record_ok) {
      throw std::runtime_error("fleet job " + results[i].Describe() + ": " + results[i].error +
                               results[i].record_error);
    }
    logs.push_back(ReadFile(jobs[i].record_path));
    std::filesystem::remove(jobs[i].record_path);
  }
  return FromLogs(std::move(logs));
}

SessionSet SynthesizeDeepStacks(uint64_t seed, const std::string& workdir,
                                SpanRecorder* spans) {
  std::filesystem::create_directories(workdir);
  telemetry::SymbolTable symbols;
  for (uint32_t i = 0; i < kDeepMethods; ++i) {
    telemetry::StackFrame frame;
    frame.function = "method" + std::to_string(i);
    frame.clazz = "com.example.fleet.Class" + std::to_string(i / 20);
    frame.file = "Class" + std::to_string(i / 20) + ".java";
    frame.line = static_cast<int32_t>(i % 400);
    symbols.Intern(frame, /*is_ui=*/false);
  }
  hangdoctor::HangDoctorConfig config;
  config.second_phase_only = true;

  const std::string path = workdir + "/deep_" + std::to_string(::getpid()) + ".hdsl";
  std::vector<std::string> logs;
  std::vector<bool> seen(kDeepCulpritPool, false);
  int64_t repeated = 0;
  for (int32_t session = 0; session < kDeepSessions; ++session) {
    const int64_t session_start = NowNs();
    simkit::Rng rng(seed, static_cast<uint64_t>(session) + 1);
    hangdoctor::SessionInfo info;
    info.app_package = "com.example.fleetapp";
    info.num_actions = static_cast<int32_t>(kDeepHangs);
    info.device_id = session;
    info.symbols = &symbols;
    {
      hangdoctor::SessionLogWriter writer(path, config);
      writer.OnSessionStart(info);
      for (uint32_t hang = 0; hang < kDeepHangs; ++hang) {
        const auto culprit = static_cast<uint32_t>(rng.UniformInt(0, kDeepCulpritPool - 1));
        repeated += seen[culprit] ? 1 : 0;
        seen[culprit] = true;
        const simkit::SimTime at = simkit::Seconds(10 * hang + 1);
        hangdoctor::DispatchStart start;
        start.now = at;
        start.execution_id = hang + 1;
        start.action_uid = static_cast<int32_t>(hang);
        start.events_total = 1;
        writer.OnDispatchStart(start);

        std::vector<telemetry::StackTrace> samples;
        for (uint32_t sample = 0; sample < kDeepSamples; ++sample) {
          telemetry::StackTrace trace;
          trace.frames.reserve(kDeepDepth);
          for (uint32_t depth = 0; depth + 1 < kDeepDepth; ++depth) {
            trace.frames.push_back((culprit * 131 + depth * 7 + sample % 5) % kDeepMethods);
          }
          // 80% of the samples end in the culprit (past the 50% occurrence threshold), the
          // rest in noise leaves; a culprit's samples are identical wherever it is drawn, so
          // repeated culprits repeat their diagnosis memo keys.
          trace.frames.push_back(sample < 20 ? (culprit * 37) % kDeepMethods
                                             : (culprit * 37 + sample) % kDeepMethods);
          samples.push_back(std::move(trace));
        }
        hangdoctor::DispatchEnd end;
        end.now = at + simkit::Seconds(6);
        end.execution_id = hang + 1;
        end.response = simkit::Seconds(6);
        end.trace_stopped = true;
        end.samples = samples;
        writer.OnDispatchEnd(end);

        hangdoctor::ActionQuiesce quiesce;
        quiesce.now = at + simkit::Seconds(7);
        quiesce.execution_id = hang + 1;
        quiesce.action_uid = static_cast<int32_t>(hang);
        quiesce.max_response = simkit::Seconds(6);
        writer.OnActionQuiesce(quiesce);
      }
      writer.Finish();
      if (!writer.ok()) {
        throw std::runtime_error("deep stacks: writing " + path + " failed");
      }
    }
    logs.push_back(ReadFile(path));
    if (spans != nullptr) {
      spans->Record("synth.session", 0, static_cast<uint64_t>(session) + 1, session_start,
                    NowNs());
    }
  }
  std::filesystem::remove(path);
  SessionSet set = FromLogs(std::move(logs));
  set.repeated_memo_key_share =
      static_cast<double>(repeated) / static_cast<double>(kDeepSessions * kDeepHangs);
  return set;
}

SessionSet GenerateSessions(Workload workload, uint64_t seed, const std::string& workdir,
                            SpanRecorder* spans, double* busy_share) {
  if (workload == Workload::kDeepStacksWire) {
    return SynthesizeDeepStacks(seed, workdir, spans);
  }
  std::unique_ptr<FleetPlan> plan = MakeFleetPlan(workload, seed);
  return RecordFleet(*plan, workdir, SimulationThreads(), spans, busy_share);
}

std::string RenderReport(const hangdoctor::HangBugReport& report) {
  return report.Render(/*total_devices=*/1000);
}

std::string OracleReport(const SessionSet& set) {
  hangdoctor::HangBugReport merged;
  for (const hangdoctor::SessionLogSlice& slice : set.slices) {
    hangdoctor::SessionLog log;
    std::string error;
    if (!hangdoctor::LoadSessionLogBytes(slice.bytes, &log, &error)) {
      throw std::runtime_error("oracle: session " + std::to_string(slice.id.value) + ": " +
                               error);
    }
    hangdoctor::ReplaySession replay(std::move(log));
    replay.Run();
    merged.Merge(replay.core().local_report());
  }
  return RenderReport(merged);
}

}  // namespace ladder
