#include "src/workload/distributed_fleet.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/netd/record_codec.h"

namespace workload {

namespace {

// Liveness clock: every 64 routed frames the driver checks the real elapsed time and, if
// at least kPulseStepMs real milliseconds have passed since the last pulse, pulses the
// coordinator with it.
constexpr int64_t kPulseStepMs = 50;

struct PlannedEvent {
  enum class Kind : uint8_t { kMigrate, kCrash, kHeartbeatLoss };
  Kind kind = Kind::kMigrate;
  int32_t worker = -1;  // victim (crash / loss); ignored for migrate
  int64_t at_frame = 0;
};

// Splits one recorded v2 log into its wire frames (open + records + close), dropping the
// container's kEnd — the coordinator owns stream termination.
std::vector<std::string> SessionFrames(const hangdoctor::SessionLogSlice& slice) {
  std::string container;
  std::string error;
  std::vector<hangdoctor::SessionLogSlice> one{slice};
  if (!hangdoctor::MuxSessionLogs(one, {}, &container, &error)) {
    throw std::runtime_error("distributed fleet: mux session " +
                             std::to_string(slice.id.value) + ": " + error);
  }
  std::vector<std::string> frames;
  if (!netd::ContainerToWireFrames(container, &frames, &error)) {
    throw std::runtime_error("distributed fleet: split session " +
                             std::to_string(slice.id.value) + ": " + error);
  }
  while (!frames.empty() &&
         (static_cast<hangdoctor::MuxFrameTag>(static_cast<uint8_t>(frames.back()[0])) ==
              hangdoctor::MuxFrameTag::kEnd ||
          static_cast<hangdoctor::MuxFrameTag>(static_cast<uint8_t>(frames.back()[0])) ==
              hangdoctor::MuxFrameTag::kEpochPublish)) {
    frames.pop_back();
  }
  return frames;
}

int64_t FrameIndexFor(double fraction, int64_t total_frames) {
  auto at = static_cast<int64_t>(fraction * static_cast<double>(total_frames));
  return std::clamp<int64_t>(at, 1, total_frames > 1 ? total_frames - 1 : 1);
}

int32_t NextLiveWorker(fleetd::Coordinator* coordinator, int32_t workers, int32_t after) {
  for (int32_t step = 1; step < workers; ++step) {
    int32_t w = (after + step) % workers;
    if (!coordinator->fenced(w)) {
      return w;
    }
  }
  return -1;
}

}  // namespace

DistributedFleetResult RunDistributedFleetFromLogs(
    std::span<const hangdoctor::SessionLogSlice> slices,
    const DistributedFleetOptions& options) {
  if (options.workers < 1) {
    throw std::invalid_argument("distributed fleet: workers must be >= 1");
  }
  if (slices.empty()) {
    throw std::invalid_argument("distributed fleet: no sessions");
  }

  // Per-session frame queues, plus the run's total frame count for event placement.
  std::vector<std::vector<std::string>> frames;
  frames.reserve(slices.size());
  int64_t total_frames = 0;
  uint64_t min_id = slices.front().id.value;
  uint64_t max_id = slices.front().id.value;
  for (const auto& slice : slices) {
    frames.push_back(SessionFrames(slice));
    total_frames += static_cast<int64_t>(frames.back().size());
    min_id = std::min(min_id, slice.id.value);
    max_id = std::max(max_id, slice.id.value);
  }

  DistributedFleetResult result;

  // The run's event schedule, sorted by frame index.
  std::vector<PlannedEvent> plan;
  if (options.migrate_at >= 0.0 && options.workers >= 2) {
    plan.push_back(PlannedEvent{PlannedEvent::Kind::kMigrate, -1,
                                FrameIndexFor(options.migrate_at, total_frames)});
  }
  for (const faultsim::FleetFaultEvent& fault :
       faultsim::PlanFleetFaults(options.fleet_faults, options.fault_seed, options.workers)) {
    PlannedEvent event;
    event.kind = fault.kind == faultsim::FleetFaultEvent::Kind::kWorkerCrash
                     ? PlannedEvent::Kind::kCrash
                     : PlannedEvent::Kind::kHeartbeatLoss;
    event.worker = fault.worker;
    event.at_frame = FrameIndexFor(fault.at, total_frames);
    plan.push_back(event);
    result.events.push_back(faultsim::DescribeFleetFault(fault));
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const PlannedEvent& a, const PlannedEvent& b) {
                     return a.at_frame < b.at_frame;
                   });

  // Boot the shard group: one embedded daemon per worker, linked over a socketpair.
  std::vector<std::unique_ptr<netd::NetServer>> servers;
  std::vector<fleetd::WorkerEndpoint> endpoints;
  for (int32_t w = 0; w < options.workers; ++w) {
    netd::ServerOptions server_options;
    server_options.workers = 1;  // one coordinator link: one epoll worker applies it
    server_options.service.shards = 4;
    server_options.service.seed_db = options.known_db;
    server_options.listen = false;
    server_options.allow_worker_role = true;
    servers.push_back(std::make_unique<netd::NetServer>(server_options));
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
      throw std::runtime_error("distributed fleet: socketpair failed");
    }
    servers.back()->AdoptConnection(sv[0]);
    endpoints.push_back(fleetd::WorkerEndpoint{.port = 0, .fd = sv[1]});
  }

  fleetd::CoordinatorOptions coordinator_options;
  coordinator_options.workers = endpoints;
  coordinator_options.lease_timeout_ms = options.lease_timeout_ms;
  fleetd::Coordinator coordinator(coordinator_options);
  coordinator.AssignRange(min_id, max_id);

  // Route round-robin across sessions (the mux default interleaving), firing planned events
  // at their frame indices and liveness pulses on the real clock (see the options comment:
  // leases race heartbeat-ack round trips, so pulse time must be wall time).
  std::vector<size_t> next(frames.size(), 0);
  size_t planned = 0;
  int64_t routed = 0;
  const auto run_start = std::chrono::steady_clock::now();
  auto elapsed_ms = [&run_start]() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - run_start)
        .count();
  };
  int64_t last_pulse_ms = 0;
  bool outage = false;
  std::vector<int32_t> lost_workers;
  while (!outage) {
    bool any = false;
    for (size_t s = 0; s < frames.size() && !outage; ++s) {
      if (next[s] >= frames[s].size()) {
        continue;
      }
      any = true;
      while (planned < plan.size() && plan[planned].at_frame <= routed) {
        const PlannedEvent& event = plan[planned++];
        switch (event.kind) {
          case PlannedEvent::Kind::kMigrate: {
            int32_t from = coordinator.OwnerOf(min_id);
            int32_t to = from < 0 ? -1 : NextLiveWorker(&coordinator, options.workers, from);
            std::string error;
            if (from >= 0 && to >= 0 && coordinator.MigrateWorker(from, to, &error)) {
              result.events.push_back("drain-migrated worker " + std::to_string(from) +
                                      " -> " + std::to_string(to) + " at frame " +
                                      std::to_string(routed));
            } else {
              result.events.push_back("migration skipped: " + error);
            }
            break;
          }
          case PlannedEvent::Kind::kCrash:
            coordinator.CrashWorker(event.worker);
            break;
          case PlannedEvent::Kind::kHeartbeatLoss:
            coordinator.SetHeartbeatLoss(event.worker, true);
            lost_workers.push_back(event.worker);
            break;
        }
      }
      if (routed % 64 == 0) {
        int64_t now_ms = elapsed_ms();
        if (routed == 0 || now_ms - last_pulse_ms >= kPulseStepMs) {
          last_pulse_ms = now_ms;
          coordinator.Pulse(now_ms);
        }
      }
      uint64_t id = slices[s].id.value;
      std::string error;
      if (!coordinator.RouteFrame(id, frames[s][next[s]], &error)) {
        result.events.push_back("routing stopped: " + error);
        outage = true;
        break;
      }
      ++next[s];
      ++routed;
    }
    if (!any) {
      break;
    }
  }
  result.frames_routed = routed;

  // A heartbeat-silent worker is fenced by lease expiry, which needs the clock to keep
  // beating (in real time) after routing ends — up to a full lease past the last pulse.
  if (!outage) {
    int64_t deadline_ms = elapsed_ms() + options.lease_timeout_ms + 4 * kPulseStepMs;
    while (!lost_workers.empty() && elapsed_ms() < deadline_ms) {
      bool all_fenced = true;
      for (int32_t w : lost_workers) {
        all_fenced = all_fenced && coordinator.fenced(w);
      }
      if (all_fenced) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(kPulseStepMs));
      coordinator.Pulse(elapsed_ms());
    }
    coordinator.WaitForResults(/*timeout_ms=*/120000);
  }

  fleetd::FleetReport report = coordinator.Finish();
  result.outcomes = std::move(report.outcomes);
  result.merged = std::move(report.merged);
  result.stats = report.stats;
  for (auto& server : servers) {
    server->Stop();
  }
  return result;
}

DistributedFleetResult RunDistributedFleet(std::span<const FleetJob> jobs,
                                           const std::string& record_dir,
                                           const DistributedFleetOptions& options,
                                           FleetSummary* oracle) {
  std::filesystem::create_directories(record_dir);
  std::vector<FleetJob> recorded(jobs.begin(), jobs.end());
  for (size_t i = 0; i < recorded.size(); ++i) {
    recorded[i].record_path = record_dir + "/job_" + std::to_string(i) + ".hdsl";
  }
  FleetSummary summary = RunFleet(recorded, {.jobs = 2, .service = false});
  std::vector<std::string> logs;
  logs.reserve(recorded.size());
  for (const FleetJob& job : recorded) {
    std::ifstream in(job.record_path, std::ios::binary);
    logs.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    if (logs.back().empty()) {
      throw std::runtime_error("distributed fleet: empty recording " + job.record_path);
    }
  }
  std::vector<hangdoctor::SessionLogSlice> slices;
  for (size_t i = 0; i < logs.size(); ++i) {
    slices.push_back({telemetry::SessionId{i + 1}, logs[i]});
  }
  if (oracle != nullptr) {
    *oracle = std::move(summary);
  }
  DistributedFleetOptions wired = options;
  if (wired.known_db == nullptr && !recorded.empty()) {
    wired.known_db = recorded.front().known_db;
  }
  DistributedFleetResult result = RunDistributedFleetFromLogs(slices, wired);
  for (const FleetJob& job : recorded) {
    std::remove(job.record_path.c_str());
  }
  return result;
}

}  // namespace workload
