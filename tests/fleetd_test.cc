// Distributed-fleet battery (DESIGN.md section 3.10), three layers deep:
//
//   Topology        pure lease/fencing/ownership bookkeeping on a fake clock: contiguous
//                   partitioning, lease renew/expiry, fence idempotence + epoch
//                   monotonicity, drain-migration moves, pins, total outage.
//   Wire + worker   the fleet control vocabulary (heartbeat / handoff / acks / session
//                   results) round-trips byte-exactly, and a live worker-role NetServer
//                   answers it correctly over a socketpair: role gating at HELLO, epoch
//                   fencing (kStaleEpoch), handoff discards, per-close kSessionResult that
//                   decodes to the replay-oracle-identical report, the self-watchdog
//                   flagging a wedged applier, and the bounded Stop() overload returning
//                   the undrained session ids; a worker-role close ships its result
//                   and is not retained, while a client-role close still is.
//   Batched links   the Coordinator driven directly over socketpair-linked workers: a link
//                   is written once per kLinkBatchBytes plus once per flush point, and a
//                   crash, a drain-migration or a front-end Flush() with frames still
//                   buffered keeps the fold oracle-identical.
//   End to end      the 16-app study fleet recorded once and pushed through
//                   RunDistributedFleetFromLogs at workers {1, 2, 4} x {no event,
//                   drain-migration at 50%, worker crash, heartbeat loss}: every session's
//                   report and the merged fleet report must be bit-identical (Render
//                   equality) to the in-process RunFleet oracle — migration and failover
//                   are HDSL replays of per-session-pure prefixes, so they must never show
//                   up in the output.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/faultsim/fleet_faults.h"
#include "src/fleetd/coordinator.h"
#include "src/fleetd/topology.h"
#include "src/hangdoctor/detector_service.h"
#include "src/hosts/mux_log.h"
#include "src/netd/client.h"
#include "src/netd/record_codec.h"
#include "src/netd/result_codec.h"
#include "src/netd/server.h"
#include "src/netd/wire.h"
#include "src/workload/catalog.h"
#include "src/workload/distributed_fleet.h"
#include "src/workload/fleet.h"

namespace {

using fleetd::PartitionSessions;
using fleetd::SessionRange;
using fleetd::Topology;
using fleetd::TopologyOptions;
using fleetd::WorkerHealth;

// ---------------------------------------------------------------------------------------
// Topology: partitioning.
// ---------------------------------------------------------------------------------------

TEST(PartitionTest, CoversIntervalContiguouslyWithBalancedSizes) {
  for (uint64_t first : {1ull, 7ull}) {
    for (uint64_t count : {1ull, 4ull, 16ull, 17ull, 1000ull}) {
      for (int32_t workers : {1, 2, 3, 4, 7}) {
        uint64_t last = first + count - 1;
        std::vector<SessionRange> ranges = PartitionSessions(first, last, workers);
        ASSERT_EQ(ranges.size(), static_cast<size_t>(workers));
        uint64_t next = first;
        uint64_t min_size = UINT64_MAX;
        uint64_t max_size = 0;
        for (const SessionRange& r : ranges) {
          if (r.empty()) {
            min_size = 0;
            continue;
          }
          ASSERT_EQ(r.lo, next) << "gap or overlap";
          next = r.hi + 1;
          min_size = std::min(min_size, r.size());
          max_size = std::max(max_size, r.size());
        }
        EXPECT_EQ(next, last + 1) << "interval not fully covered";
        EXPECT_LE(max_size - min_size, 1u) << "sizes must differ by at most one";
        // Remainder at the front: sizes are non-increasing across workers.
        for (size_t i = 1; i < ranges.size(); ++i) {
          EXPECT_GE(ranges[i - 1].size(), ranges[i].size());
        }
      }
    }
  }
}

TEST(PartitionTest, MoreWorkersThanSessionsLeavesEmptyTails) {
  std::vector<SessionRange> ranges = PartitionSessions(1, 3, 5);
  ASSERT_EQ(ranges.size(), 5u);
  EXPECT_EQ(ranges[0].size(), 1u);
  EXPECT_EQ(ranges[1].size(), 1u);
  EXPECT_EQ(ranges[2].size(), 1u);
  EXPECT_TRUE(ranges[3].empty());
  EXPECT_TRUE(ranges[4].empty());
}

// ---------------------------------------------------------------------------------------
// Topology: leases, fencing, migration — all on a fake clock.
// ---------------------------------------------------------------------------------------

Topology LeasedTopology(int32_t workers, int64_t lease_ms, int64_t now_ms) {
  TopologyOptions options;
  options.lease_timeout_ms = lease_ms;
  Topology topo(workers, options);
  for (int32_t w = 0; w < workers; ++w) {
    topo.Register(w, now_ms);
  }
  return topo;
}

TEST(TopologyTest, OwnershipFollowsRangesAndPins) {
  Topology topo = LeasedTopology(2, 1000, 0);
  topo.AssignRange(1, 10);
  EXPECT_EQ(topo.OwnerOf(1), 0);
  EXPECT_EQ(topo.OwnerOf(5), 0);
  EXPECT_EQ(topo.OwnerOf(6), 1);
  EXPECT_EQ(topo.OwnerOf(10), 1);
  EXPECT_EQ(topo.OwnerOf(11), -1) << "outside every range";
  topo.PinSession(3, 1);
  EXPECT_EQ(topo.OwnerOf(3), 1) << "pins override ranges";
  EXPECT_EQ(topo.OwnerOf(4), 0);
}

TEST(TopologyTest, LeaseRenewalKeepsAckedWorkersAliveAndFencesSilentOnes) {
  Topology topo = LeasedTopology(2, 1000, 0);
  topo.AssignRange(1, 8);
  EXPECT_TRUE(topo.Tick(999).empty()) << "both leases still live";
  EXPECT_TRUE(topo.OnHeartbeatAck(0, 900, WorkerHealth{}));
  EXPECT_TRUE(topo.OnHeartbeatAck(1, 900, WorkerHealth{}));
  EXPECT_TRUE(topo.Tick(1800).empty()) << "both renewed through 1900";
  EXPECT_EQ(topo.lease_expires_ms(0), 1900);
}

TEST(TopologyTest, SilentWorkerIsFencedAndItsSessionsRetarget) {
  Topology topo = LeasedTopology(2, 1000, 0);
  topo.AssignRange(1, 8);
  uint64_t epoch_before = topo.epoch();
  EXPECT_TRUE(topo.OnHeartbeatAck(0, 900, WorkerHealth{}));
  std::vector<fleetd::FailoverDecision> decisions = topo.Tick(1500);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].victim, 1);
  EXPECT_EQ(decisions[0].target, 0);
  EXPECT_GT(decisions[0].epoch, epoch_before);
  EXPECT_EQ(decisions[0].reason, "lease expired");
  EXPECT_TRUE(topo.fenced(1));
  EXPECT_FALSE(topo.fenced(0));
  for (uint64_t id = 1; id <= 8; ++id) {
    EXPECT_EQ(topo.OwnerOf(id), 0) << "session " << id;
  }
}

TEST(TopologyTest, SelfForfeitedLeaseFencesOnTick) {
  Topology topo = LeasedTopology(2, 1000, 0);
  topo.AssignRange(1, 4);
  WorkerHealth sick;
  sick.lease_failed = true;
  EXPECT_TRUE(topo.OnHeartbeatAck(1, 100, sick));
  std::vector<fleetd::FailoverDecision> decisions = topo.Tick(200);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].victim, 1);
  EXPECT_EQ(decisions[0].reason, "lease forfeited by self-watchdog");
}

TEST(TopologyTest, FenceIsIdempotentAndEpochIsMonotonic) {
  Topology topo = LeasedTopology(3, 1000, 0);
  topo.AssignRange(1, 9);
  uint64_t e0 = topo.epoch();
  int32_t target = topo.Fence(2, "crash");
  EXPECT_EQ(target, 0) << "lowest live worker";
  uint64_t e1 = topo.epoch();
  EXPECT_GT(e1, e0);
  EXPECT_EQ(topo.Fence(2, "again"), -1) << "refencing is a no-op";
  EXPECT_EQ(topo.epoch(), e1) << "no epoch bump on refence";
  EXPECT_EQ(topo.fence_reason(2), "crash") << "first reason sticks";
  EXPECT_FALSE(topo.OnHeartbeatAck(2, 10, WorkerHealth{}))
      << "a fenced worker's acks must not resurrect it";
  EXPECT_EQ(topo.live_workers(), 2);
}

TEST(TopologyTest, FencingEveryWorkerIsTotalOutage) {
  Topology topo = LeasedTopology(2, 1000, 0);
  topo.AssignRange(1, 4);
  EXPECT_EQ(topo.Fence(0, "crash"), 1);
  EXPECT_EQ(topo.Fence(1, "crash"), -1) << "no live target remains";
  EXPECT_EQ(topo.live_workers(), 0);
  EXPECT_EQ(topo.OwnerOf(1), -1);
}

TEST(TopologyTest, MoveRangesTransfersOwnershipAndBumpsEpoch) {
  Topology topo = LeasedTopology(2, 1000, 0);
  topo.AssignRange(1, 8);
  topo.PinSession(7, 0);
  uint64_t e0 = topo.epoch();
  uint64_t e1 = topo.MoveRanges(0, 1);
  EXPECT_GT(e1, e0);
  EXPECT_EQ(topo.epoch(), e1);
  for (uint64_t id = 1; id <= 8; ++id) {
    EXPECT_EQ(topo.OwnerOf(id), 1) << "session " << id;
  }
  EXPECT_FALSE(topo.fenced(0)) << "drain-migration keeps the source alive";
  EXPECT_THROW(topo.MoveRanges(0, 0), std::invalid_argument);
  EXPECT_THROW(topo.MoveRanges(-1, 1), std::invalid_argument);
  topo.Fence(0, "crash");
  EXPECT_THROW(topo.MoveRanges(0, 1), std::invalid_argument) << "fenced source";
  EXPECT_THROW(topo.MoveRanges(1, 0), std::invalid_argument) << "fenced target";
}

// ---------------------------------------------------------------------------------------
// Wire: the fleet control vocabulary round-trips, and control tags stay disjoint from the
// mux-container grammar.
// ---------------------------------------------------------------------------------------

TEST(FleetWireTest, HelloCarriesWorkerRole) {
  for (uint32_t version = netd::kWireVersionMin; version <= netd::kWireVersionMax;
       ++version) {
    for (netd::HelloRole role : {netd::HelloRole::kClient, netd::HelloRole::kWorker}) {
      uint32_t got_version = 0;
      netd::HelloRole got_role = netd::HelloRole::kClient;
      std::string error;
      ASSERT_TRUE(
          netd::ParseHello(netd::BuildHello(version, role), &got_version, &got_role, &error))
          << error;
      EXPECT_EQ(got_version, version);
      EXPECT_EQ(got_role, role);
    }
  }
}

TEST(FleetWireTest, ControlFramesRoundTripAndStayDisjointFromMuxTags) {
  static_assert(netd::kCtrlBase >= 0x40, "control tags must not collide with mux tags");
  std::string hb = netd::BuildHeartbeat(12345);
  ASSERT_FALSE(hb.empty());
  EXPECT_GE(static_cast<uint8_t>(hb[0]), netd::kCtrlBase);
  uint64_t epoch = 0;
  std::string error;
  ASSERT_TRUE(netd::ParseHeartbeat(hb, &epoch, &error)) << error;
  EXPECT_EQ(epoch, 12345u);
  EXPECT_FALSE(netd::ParseHeartbeat(hb.substr(0, 1), &epoch, &error)) << "truncated";

  for (const std::vector<uint64_t>& ids :
       {std::vector<uint64_t>{}, std::vector<uint64_t>{1, 5, 1u << 20}}) {
    std::string handoff = netd::BuildHandoff(7, ids);
    EXPECT_GE(static_cast<uint8_t>(handoff[0]), netd::kCtrlBase);
    uint64_t got_epoch = 0;
    std::vector<uint64_t> got_ids;
    ASSERT_TRUE(netd::ParseHandoff(handoff, &got_epoch, &got_ids, &error)) << error;
    EXPECT_EQ(got_epoch, 7u);
    EXPECT_EQ(got_ids, ids);
  }
}

TEST(FleetWireTest, FleetRepliesRoundTripThroughParseReply) {
  netd::Reply reply;
  std::string error;
  ASSERT_TRUE(netd::ParseReply(netd::BuildHeartbeatAck(9, 3, 77, true, false), &reply,
                               &error))
      << error;
  EXPECT_EQ(reply.tag, netd::ReplyTag::kHeartbeatAck);
  EXPECT_EQ(reply.epoch, 9u);
  EXPECT_EQ(reply.live_sessions, 3u);
  EXPECT_EQ(reply.records_applied, 77u);
  EXPECT_TRUE(reply.applier_stuck);
  EXPECT_FALSE(reply.lease_failed);

  ASSERT_TRUE(netd::ParseReply(netd::BuildStaleEpoch(41), &reply, &error)) << error;
  EXPECT_EQ(reply.tag, netd::ReplyTag::kStaleEpoch);
  EXPECT_EQ(reply.epoch, 41u);

  ASSERT_TRUE(netd::ParseReply(netd::BuildHandoffAck(6, 4), &reply, &error)) << error;
  EXPECT_EQ(reply.tag, netd::ReplyTag::kHandoffAck);
  EXPECT_EQ(reply.epoch, 6u);
  EXPECT_EQ(reply.discarded, 4u);

  ASSERT_TRUE(netd::ParseReply(netd::BuildSessionResult(12, "payload-bytes"), &reply,
                               &error))
      << error;
  EXPECT_EQ(reply.tag, netd::ReplyTag::kSessionResult);
  EXPECT_EQ(reply.session_id, 12u);
  EXPECT_EQ(reply.result, "payload-bytes");

  std::string ack = netd::BuildHeartbeatAck(9, 3, 77, true, false);
  EXPECT_FALSE(netd::ParseReply(ack.substr(0, ack.size() - 1), &reply, &error))
      << "truncated ack must not parse";
}

TEST(FleetWireTest, SessionResultCodecRoundTripsAndRejectsTruncation) {
  hangdoctor::SessionResult result;
  result.id = telemetry::SessionId{42};
  result.app_package = "com.example.app";
  result.device_id = 3;
  result.stream_ok = false;
  result.stream_error = "torn mid-frame";
  result.stack_samples = 17;
  result.discovered = {"android.net.Socket.connect", "com.x.Parser.parse"};
  std::string bytes = netd::EncodeSessionResult(result);
  hangdoctor::SessionResult decoded;
  std::string error;
  ASSERT_TRUE(netd::DecodeSessionResult(bytes, &decoded, &error)) << error;
  EXPECT_EQ(decoded.id.value, 42u);
  EXPECT_EQ(decoded.app_package, "com.example.app");
  EXPECT_EQ(decoded.device_id, 3);
  EXPECT_FALSE(decoded.stream_ok);
  EXPECT_EQ(decoded.stream_error, "torn mid-frame");
  EXPECT_EQ(decoded.stack_samples, 17);
  EXPECT_EQ(decoded.discovered, result.discovered);
  EXPECT_EQ(decoded.report.Render(4), result.report.Render(4));
  for (size_t cut = 0; cut < bytes.size(); cut += std::max<size_t>(1, bytes.size() / 16)) {
    EXPECT_FALSE(netd::DecodeSessionResult(bytes.substr(0, cut), &decoded, &error))
        << "truncation at " << cut << " must not decode";
  }
}

// ---------------------------------------------------------------------------------------
// Fleet fault plans: deterministic, bounded, survivable.
// ---------------------------------------------------------------------------------------

TEST(FleetFaultsTest, PlansAreDeterministicAndAlwaysLeaveASurvivor) {
  faultsim::FleetFaultProfile chaos = faultsim::FleetFaultProfile::Named("fleet-chaos");
  for (uint64_t seed : {1ull, 7ull, 4242ull}) {
    for (int32_t workers : {2, 3, 4, 8}) {
      std::vector<faultsim::FleetFaultEvent> a =
          faultsim::PlanFleetFaults(chaos, seed, workers);
      std::vector<faultsim::FleetFaultEvent> b =
          faultsim::PlanFleetFaults(chaos, seed, workers);
      ASSERT_EQ(a.size(), b.size());
      std::vector<bool> victim(static_cast<size_t>(workers), false);
      size_t victims = 0;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].worker, b[i].worker);
        EXPECT_EQ(a[i].at, b[i].at);
        ASSERT_GE(a[i].worker, 0);
        ASSERT_LT(a[i].worker, workers);
        EXPECT_FALSE(victim[static_cast<size_t>(a[i].worker)]) << "victims must be distinct";
        victim[static_cast<size_t>(a[i].worker)] = true;
        ++victims;
        EXPECT_GE(a[i].at, 0.1);
        EXPECT_LE(a[i].at, 0.9);
        if (i > 0) {
          EXPECT_LE(a[i - 1].at, a[i].at) << "plan must be sorted by time";
        }
      }
      EXPECT_LT(victims, static_cast<size_t>(workers)) << "at least one survivor";
    }
  }
  EXPECT_TRUE(faultsim::PlanFleetFaults(chaos, 1, 1).empty())
      << "a single worker is never a victim";
  EXPECT_TRUE(
      faultsim::PlanFleetFaults(faultsim::FleetFaultProfile::Named("none"), 1, 4).empty());
  EXPECT_THROW(faultsim::FleetFaultProfile::Named("no-such-profile"), std::invalid_argument);
}

// ---------------------------------------------------------------------------------------
// Live worker battery: one NetServer in worker mode behind a socketpair.
// ---------------------------------------------------------------------------------------

const workload::Catalog& SharedCatalog() {
  static const workload::Catalog* catalog = new workload::Catalog();
  return *catalog;
}

std::string TempDir() {
  std::filesystem::path dir = std::filesystem::temp_directory_path() /
                              ("hd_fleetd_test_" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);
  return dir.string();
}

struct RecordedFleet {
  workload::FleetSummary oracle;                      // per-job (service = false) results
  std::vector<std::string> logs;                      // recorded HDSL bytes, job order
  std::vector<hangdoctor::SessionLogSlice> sessions;  // id = job index + 1
};

// Records the study fleet once; every topology below replays the same bytes.
const RecordedFleet& Fleet() {
  static const RecordedFleet* fleet = [] {
    auto* f = new RecordedFleet();
    const workload::Catalog& catalog = SharedCatalog();
    std::string dir = TempDir();
    std::vector<workload::FleetJob> jobs;
    for (const droidsim::AppSpec* spec : catalog.study_apps()) {
      workload::FleetJob job;
      job.spec = spec;
      job.profile = droidsim::LgV10();
      job.seed = workload::FleetSeed(4242, jobs.size());
      job.session = simkit::Seconds(30);
      job.device_id = static_cast<int32_t>(jobs.size() % 4);
      job.record_path = dir + "/job_" + std::to_string(jobs.size()) + ".hdsl";
      jobs.push_back(job);
    }
    f->oracle = workload::RunFleet(jobs, {.jobs = 2, .service = false});
    EXPECT_EQ(f->oracle.failed, 0u);
    for (const auto& job : jobs) {
      std::ifstream in(job.record_path, std::ios::binary);
      f->logs.emplace_back(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
      EXPECT_FALSE(f->logs.back().empty()) << job.record_path;
    }
    for (size_t i = 0; i < f->logs.size(); ++i) {
      f->sessions.push_back({telemetry::SessionId{i + 1}, f->logs[i]});
    }
    return f;
  }();
  return *fleet;
}

// One recorded session's wire frames (open + records + close), end-of-container dropped.
std::vector<std::string> SessionFrames(size_t session_index) {
  const RecordedFleet& fleet = Fleet();
  std::string container;
  std::string error;
  std::vector<hangdoctor::SessionLogSlice> one{fleet.sessions[session_index]};
  EXPECT_TRUE(hangdoctor::MuxSessionLogs(one, {}, &container, &error)) << error;
  std::vector<std::string> frames;
  EXPECT_TRUE(netd::ContainerToWireFrames(container, &frames, &error)) << error;
  while (!frames.empty() &&
         static_cast<uint8_t>(frames.back()[0]) !=
             static_cast<uint8_t>(hangdoctor::MuxFrameTag::kCloseSession)) {
    frames.pop_back();
  }
  return frames;
}

netd::ServerOptions WorkerOptions() {
  netd::ServerOptions options;
  options.workers = 1;
  options.rings = 2;
  options.service.shards = 4;
  options.listen = false;
  options.allow_worker_role = true;
  return options;
}

// Adopts one end of a socketpair into `server`, returns a HELLO'd worker-role client on
// the other end.
netd::NetClient WorkerLink(netd::NetServer* server) {
  int sv[2];
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
  server->AdoptConnection(sv[0]);
  netd::NetClient client;
  client.Adopt(sv[1]);
  EXPECT_TRUE(client.SendHello(netd::kWireVersionMax, netd::HelloRole::kWorker));
  netd::Reply reply;
  EXPECT_TRUE(client.ReadReply(&reply)) << client.error();
  EXPECT_EQ(reply.tag, netd::ReplyTag::kHelloOk);
  return client;
}

TEST(WorkerServerTest, WorkerRoleIsRejectedUnlessAllowed) {
  netd::ServerOptions options = WorkerOptions();
  options.allow_worker_role = false;
  netd::NetServer server(options);
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
  server.AdoptConnection(sv[0]);
  netd::NetClient client;
  client.Adopt(sv[1]);
  ASSERT_TRUE(client.SendHello(netd::kWireVersionMax, netd::HelloRole::kWorker));
  netd::Reply reply;
  ASSERT_TRUE(client.ReadReply(&reply)) << client.error();
  EXPECT_EQ(reply.tag, netd::ReplyTag::kError);
  EXPECT_NE(reply.message.find("worker role"), std::string::npos) << reply.message;
  server.Stop();
}

TEST(WorkerServerTest, HeartbeatAcksAndStaleEpochsAreFenced) {
  netd::NetServer server(WorkerOptions());
  netd::NetClient client = WorkerLink(&server);
  ASSERT_TRUE(client.SendFrame(netd::BuildHeartbeat(5)));
  netd::Reply reply;
  ASSERT_TRUE(client.ReadReply(&reply)) << client.error();
  ASSERT_EQ(reply.tag, netd::ReplyTag::kHeartbeatAck);
  EXPECT_EQ(reply.epoch, 5u);
  EXPECT_EQ(reply.live_sessions, 0u);
  EXPECT_FALSE(reply.applier_stuck);
  EXPECT_FALSE(reply.lease_failed);
  EXPECT_EQ(server.lease_epoch(), 5u);

  // An older epoch marks a superseded coordinator: answered kStaleEpoch, not acked.
  ASSERT_TRUE(client.SendFrame(netd::BuildHeartbeat(3)));
  ASSERT_TRUE(client.ReadReply(&reply)) << client.error();
  ASSERT_EQ(reply.tag, netd::ReplyTag::kStaleEpoch);
  EXPECT_EQ(reply.epoch, 5u) << "carries the newest epoch seen";
  EXPECT_EQ(server.stats().stale_epochs.load(), 1);
  EXPECT_EQ(server.lease_epoch(), 5u);

  // A newer epoch is adopted.
  ASSERT_TRUE(client.SendFrame(netd::BuildHeartbeat(9)));
  ASSERT_TRUE(client.ReadReply(&reply)) << client.error();
  ASSERT_EQ(reply.tag, netd::ReplyTag::kHeartbeatAck);
  EXPECT_EQ(server.lease_epoch(), 9u);
  EXPECT_EQ(server.stats().heartbeats.load(), 2);
  server.Stop();
}

TEST(WorkerServerTest, CloseEmitsSessionResultIdenticalToOracle) {
  const RecordedFleet& fleet = Fleet();
  netd::NetServer server(WorkerOptions());
  netd::NetClient client = WorkerLink(&server);
  for (const std::string& frame : SessionFrames(0)) {
    ASSERT_TRUE(client.SendFrame(frame)) << client.error();
  }
  bool saw_result = false;
  bool saw_closed = false;
  netd::Reply reply;
  while ((!saw_result || !saw_closed) && client.ReadReply(&reply)) {
    if (reply.tag == netd::ReplyTag::kSessionResult) {
      saw_result = true;
      EXPECT_EQ(reply.session_id, 1u);
      hangdoctor::SessionResult result;
      std::string error;
      ASSERT_TRUE(netd::DecodeSessionResult(reply.result, &result, &error)) << error;
      EXPECT_TRUE(result.stream_ok) << result.stream_error;
      EXPECT_EQ(result.app_package, fleet.oracle.jobs[0].app_package);
      EXPECT_EQ(result.report.Render(4), fleet.oracle.jobs[0].report.Render(4))
          << "wire-shipped result must be bit-identical to the replay oracle";
    } else if (reply.tag == netd::ReplyTag::kSessionClosed) {
      saw_closed = true;
      EXPECT_EQ(reply.session_id, 1u);
      EXPECT_TRUE(reply.stream_ok);
    }
  }
  EXPECT_TRUE(saw_result) << client.error();
  EXPECT_TRUE(saw_closed) << client.error();
  server.Stop();
}

TEST(WorkerServerTest, ShippedWorkerResultsAreNotRetainedButClientOutcomesAre) {
  netd::NetServer server(WorkerOptions());
  netd::NetClient worker = WorkerLink(&server);
  for (const std::string& frame : SessionFrames(0)) {  // session 1, worker role
    ASSERT_TRUE(worker.SendFrame(frame)) << worker.error();
  }
  netd::Reply reply;
  bool saw_result = false;
  while (!saw_result && worker.ReadReply(&reply)) {
    saw_result = reply.tag == netd::ReplyTag::kSessionResult && reply.session_id == 1;
  }
  ASSERT_TRUE(saw_result) << worker.error();

  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
  server.AdoptConnection(sv[0]);
  netd::NetClient client;
  client.Adopt(sv[1]);
  ASSERT_TRUE(client.SendHello(netd::kWireVersionMax));
  ASSERT_TRUE(client.ReadReply(&reply)) << client.error();
  ASSERT_EQ(reply.tag, netd::ReplyTag::kHelloOk);
  for (const std::string& frame : SessionFrames(1)) {  // session 2, client role
    ASSERT_TRUE(client.SendFrame(frame)) << client.error();
  }
  bool saw_closed = false;
  while (!saw_closed && client.ReadReply(&reply)) {
    saw_closed = reply.tag == netd::ReplyTag::kSessionClosed && reply.session_id == 2;
  }
  ASSERT_TRUE(saw_closed) << client.error();

  server.Stop();
  std::vector<netd::NetSessionOutcome> outcomes = server.TakeResults();
  ASSERT_EQ(outcomes.size(), 1u) << "only the client-role close is retained";
  EXPECT_EQ(outcomes[0].id.value, 2u);
  EXPECT_FALSE(outcomes[0].aborted) << outcomes[0].stream_error;
  EXPECT_EQ(outcomes[0].result.report.Render(4), Fleet().oracle.jobs[1].report.Render(4));
  EXPECT_EQ(server.stats().sessions_closed.load(), 2) << "both closes still count";
}

TEST(WorkerServerTest, HandoffDiscardsLiveSessionsAndAcks) {
  netd::NetServer server(WorkerOptions());
  netd::NetClient client = WorkerLink(&server);

  // A handoff naming no live session acks immediately with nothing discarded.
  ASSERT_TRUE(client.SendFrame(netd::BuildHandoff(2, {99, 100})));
  netd::Reply reply;
  ASSERT_TRUE(client.ReadReply(&reply)) << client.error();
  ASSERT_EQ(reply.tag, netd::ReplyTag::kHandoffAck);
  EXPECT_EQ(reply.epoch, 2u);
  EXPECT_EQ(reply.discarded, 0u);

  // Open session 1 (no close), then hand it off: discarded once the applier has drained
  // everything routed before the discard.
  std::vector<std::string> frames = SessionFrames(0);
  for (size_t i = 0; i + 1 < frames.size(); ++i) {  // all but the close frame
    ASSERT_TRUE(client.SendFrame(frames[i])) << client.error();
  }
  ASSERT_TRUE(client.SendFrame(netd::BuildHandoff(3, {1})));
  ASSERT_TRUE(client.ReadReply(&reply)) << client.error();
  ASSERT_EQ(reply.tag, netd::ReplyTag::kHandoffAck);
  EXPECT_EQ(reply.epoch, 3u);
  EXPECT_EQ(reply.discarded, 1u);
  EXPECT_EQ(server.stats().sessions_migrated.load(), 1);
  EXPECT_EQ(server.live_sessions(), 0u) << "the discarded session must not linger";

  // A stale-epoch handoff is refused outright.
  ASSERT_TRUE(client.SendFrame(netd::BuildHandoff(1, {5})));
  ASSERT_TRUE(client.ReadReply(&reply)) << client.error();
  EXPECT_EQ(reply.tag, netd::ReplyTag::kStaleEpoch);
  server.Stop();
}

TEST(WorkerServerTest, WatchdogFlagsWedgedApplierAndBoundedStopReturnsUndrained) {
  std::atomic<bool> wedged{false};
  std::atomic<bool> release{false};
  std::atomic<int> session2_applies{0};
  netd::ServerOptions options = WorkerOptions();
  options.watchdog_timeout_ms = 50;
  options.watchdog_poll_ms = 10;
  // Wedge on session 2's SECOND apply (its first record): the open must land first so the
  // session is live in the service — that is what the bounded Stop() reports as undrained.
  options.before_apply = [&](uint64_t id) {
    if (id == 2 && session2_applies.fetch_add(1) == 1) {
      wedged.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  netd::NetServer server(options);
  // A failed ASSERT below must still release the wedge before the server's destructor
  // joins the applier, or the whole test binary hangs on the latch.
  struct ReleaseOnExit {
    std::atomic<bool>* flag;
    ~ReleaseOnExit() { flag->store(true); }
  } release_guard{&release};
  netd::NetClient client = WorkerLink(&server);

  // Session 1 travels cleanly first (so its replies cannot queue behind the wedge)...
  for (const std::string& frame : SessionFrames(0)) {
    ASSERT_TRUE(client.SendFrame(frame)) << client.error();
  }
  bool saw_closed = false;
  bool saw_result = false;
  netd::Reply reply;
  while ((!saw_closed || !saw_result) && client.ReadReply(&reply)) {
    saw_closed = saw_closed || reply.tag == netd::ReplyTag::kSessionClosed;
    saw_result = saw_result || reply.tag == netd::ReplyTag::kSessionResult;
  }
  ASSERT_TRUE(saw_closed && saw_result) << client.error();

  // ...then session 2's first apply wedges its applier on the latch. Only a handful of
  // frames travel: the wedged ring drains nothing, so flooding the whole session would
  // fill it, park the connection, and block this thread's sends forever.
  std::vector<std::string> frames = SessionFrames(1);
  for (size_t i = 0; i < std::min<size_t>(frames.size() - 1, 8); ++i) {
    ASSERT_TRUE(client.SendFrame(frames[i])) << client.error();
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((!server.applier_stuck() || !server.lease_failed()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(wedged.load());
  EXPECT_TRUE(server.applier_stuck()) << "watchdog must flag the wedged applier";
  EXPECT_TRUE(server.lease_failed()) << "a wedge past the timeout forfeits the lease";
  EXPECT_GE(server.stats().watchdog_trips.load(), 1);

  // The wedge is visible on the wire: heartbeat health carries both flags.
  ASSERT_TRUE(client.SendFrame(netd::BuildHeartbeat(1)));
  ASSERT_TRUE(client.ReadReply(&reply)) << client.error();
  ASSERT_EQ(reply.tag, netd::ReplyTag::kHeartbeatAck);
  EXPECT_TRUE(reply.applier_stuck);
  EXPECT_TRUE(reply.lease_failed);

  // Bounded Stop cannot drain past the wedge: it reports the stuck session and leaves the
  // machinery joinable for later.
  std::vector<uint64_t> undrained = server.Stop(200);
  ASSERT_EQ(undrained.size(), 1u);
  EXPECT_EQ(undrained[0], 2u);

  release.store(true);
  server.Stop();  // the wedge cleared; full shutdown must now complete
}

// ---------------------------------------------------------------------------------------
// End to end: the study fleet through the shard group, against the RunFleet oracle.
// ---------------------------------------------------------------------------------------

// `result` is a DistributedFleetResult or a fleetd::FleetReport: outcomes plus merged.
template <typename FleetResult>
void ExpectFleetMatchesOracle(const FleetResult& result, const std::string& label) {
  const RecordedFleet& fleet = Fleet();
  ASSERT_EQ(result.outcomes.size(), fleet.oracle.jobs.size()) << label;
  for (size_t i = 0; i < result.outcomes.size(); ++i) {
    const netd::NetSessionOutcome& outcome = result.outcomes[i];
    EXPECT_EQ(outcome.id.value, i + 1) << label << ": outcomes must fold in ascending id";
    EXPECT_FALSE(outcome.aborted) << label << " session " << outcome.id.value << ": "
                                  << outcome.stream_error;
    EXPECT_EQ(outcome.result.report.Render(4),
              fleet.oracle.jobs[outcome.id.value - 1].report.Render(4))
        << label << " session " << outcome.id.value;
  }
  EXPECT_EQ(result.merged.Render(4), fleet.oracle.merged_report.Render(4))
      << label << ": merged fleet report must be bit-identical to the oracle";
}

TEST(DistributedFleetTest, CleanRunsAreOracleIdenticalAtEveryWorkerCount) {
  const RecordedFleet& fleet = Fleet();
  for (int32_t workers : {1, 2, 4}) {
    workload::DistributedFleetOptions options;
    options.workers = workers;
    workload::DistributedFleetResult result =
        workload::RunDistributedFleetFromLogs(fleet.sessions, options);
    ExpectFleetMatchesOracle(result, "workers=" + std::to_string(workers));
    EXPECT_EQ(result.stats.failovers, 0) << "clean run must not fence anyone";
    EXPECT_EQ(result.stats.migrated, 0);
  }
}

TEST(DistributedFleetTest, MidRunDrainMigrationIsInvisibleInTheOutput) {
  const RecordedFleet& fleet = Fleet();
  for (int32_t workers : {2, 4}) {
    workload::DistributedFleetOptions options;
    options.workers = workers;
    options.migrate_at = 0.5;
    workload::DistributedFleetResult result =
        workload::RunDistributedFleetFromLogs(fleet.sessions, options);
    ExpectFleetMatchesOracle(result, "migrate workers=" + std::to_string(workers));
    EXPECT_GT(result.stats.migrated, 0) << "the migration must actually have happened";
    EXPECT_EQ(result.stats.failovers, 0);
  }
}

TEST(DistributedFleetTest, KilledWorkerFailsOverByReplayWithoutPerturbingReports) {
  const RecordedFleet& fleet = Fleet();
  for (int32_t workers : {2, 4}) {
    workload::DistributedFleetOptions options;
    options.workers = workers;
    options.fleet_faults = faultsim::FleetFaultProfile::Named("worker-crash");
    options.fault_seed = 7;
    workload::DistributedFleetResult result =
        workload::RunDistributedFleetFromLogs(fleet.sessions, options);
    ExpectFleetMatchesOracle(result, "crash workers=" + std::to_string(workers));
    EXPECT_GE(result.stats.failovers, 1) << "the crash must actually have fenced someone";
  }
}

TEST(DistributedFleetTest, HeartbeatSilentWorkerIsFencedWithoutPerturbingReports) {
  const RecordedFleet& fleet = Fleet();
  workload::DistributedFleetOptions options;
  options.workers = 2;
  options.fleet_faults = faultsim::FleetFaultProfile::Named("heartbeat-loss");
  options.fault_seed = 7;
  options.lease_timeout_ms = 300;
  workload::DistributedFleetResult result =
      workload::RunDistributedFleetFromLogs(fleet.sessions, options);
  ExpectFleetMatchesOracle(result, "heartbeat-loss workers=2");
  EXPECT_GE(result.stats.failovers, 1) << "lease expiry must fence the silent worker";
}

TEST(DistributedFleetTest, MigrationPlusCrashStillFoldsOracleIdentical) {
  const RecordedFleet& fleet = Fleet();
  workload::DistributedFleetOptions options;
  options.workers = 4;
  options.migrate_at = 0.3;
  options.fleet_faults = faultsim::FleetFaultProfile::Named("worker-crash");
  options.fault_seed = 11;
  workload::DistributedFleetResult result =
      workload::RunDistributedFleetFromLogs(fleet.sessions, options);
  ExpectFleetMatchesOracle(result, "migrate+crash workers=4");
}

// ---------------------------------------------------------------------------------------
// Batched links: the Coordinator driven directly, so the tests choose exactly which frames
// are still buffered when a crash, a migration or a flush happens.
// ---------------------------------------------------------------------------------------

using FleetFrames = std::vector<std::vector<std::string>>;

const FleetFrames& AllSessionFrames() {
  static const FleetFrames* frames = [] {
    auto* f = new FleetFrames();
    for (size_t i = 0; i < Fleet().sessions.size(); ++i) {
      f->push_back(SessionFrames(i));
    }
    return f;
  }();
  return *frames;
}

// `workers` worker daemons behind socketpairs and one Coordinator over them, with the
// recorded fleet's ids partitioned across them.
struct ShardGroup {
  explicit ShardGroup(int32_t workers, fleetd::CoordinatorOptions options = {}) {
    for (int32_t w = 0; w < workers; ++w) {
      servers.push_back(std::make_unique<netd::NetServer>(WorkerOptions()));
      int sv[2];
      EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
      servers.back()->AdoptConnection(sv[0]);
      options.workers.push_back(fleetd::WorkerEndpoint{.port = 0, .fd = sv[1]});
    }
    coordinator = std::make_unique<fleetd::Coordinator>(options);
    coordinator->AssignRange(1, Fleet().sessions.size());
  }
  ~ShardGroup() {
    coordinator.reset();  // Finish + join the readers before the workers go away
    for (auto& server : servers) {
      server->Stop();
    }
  }

  std::vector<std::unique_ptr<netd::NetServer>> servers;
  std::unique_ptr<fleetd::Coordinator> coordinator;
  std::vector<size_t> next = std::vector<size_t>(AllSessionFrames().size(), 0);
};

void Route(ShardGroup& group, size_t session_index) {
  std::string error;
  const std::string& frame = AllSessionFrames()[session_index][group.next[session_index]++];
  ASSERT_TRUE(group.coordinator->RouteFrame(session_index + 1, frame, &error)) << error;
}

// Routes round-robin (the mux interleaving) for up to `rounds` rounds, or until every
// session is exhausted. With `hold_closes` every session stops short of its close, so all
// of them stay live.
void RouteRounds(ShardGroup& group, size_t rounds, bool hold_closes) {
  const FleetFrames& frames = AllSessionFrames();
  bool any = true;
  for (size_t round = 0; round < rounds && any; ++round) {
    any = false;
    for (size_t s = 0; s < frames.size(); ++s) {
      if (group.next[s] + (hold_closes ? 1 : 0) < frames[s].size()) {
        Route(group, s);
        any = true;
      }
    }
  }
}

// Routes more of `session_index`'s frames (never its close) until one lands in its owner's
// buffer without a write: the owner link then holds routed, unwritten bytes.
void LeaveBuffered(ShardGroup& group, size_t session_index) {
  while (true) {
    ASSERT_LT(group.next[session_index] + 1, AllSessionFrames()[session_index].size());
    int64_t writes = group.coordinator->stats().link_writes;
    Route(group, session_index);
    if (group.coordinator->stats().link_writes == writes) {
      return;
    }
  }
}

TEST(CoordinatorBatchTest, EachLinkIsWrittenOncePerBatchNotOncePerFrame) {
  const FleetFrames& frames = AllSessionFrames();
  int64_t framed_bytes = 0;
  int64_t frame_count = 0;
  for (const auto& session : frames) {
    for (const std::string& frame : session) {
      std::string framed;
      netd::AppendFrame(&framed, frame);
      framed_bytes += static_cast<int64_t>(framed.size());
      ++frame_count;
    }
  }
  ShardGroup group(2);
  RouteRounds(group, SIZE_MAX, /*hold_closes=*/false);
  ASSERT_TRUE(group.coordinator->WaitForResults(60'000));
  fleetd::FleetReport report = group.coordinator->Finish();
  ExpectFleetMatchesOracle(report, "batched");
  // Every batch write carries at least kLinkBatchBytes of routed frames; on top of those,
  // each link is written at most once per flush point (WaitForResults, Finish's BYE).
  const int64_t bound = framed_bytes / static_cast<int64_t>(fleetd::kLinkBatchBytes) + 2 * 2;
  EXPECT_LE(report.stats.link_writes, bound)
      << frame_count << " frames, " << framed_bytes << " framed bytes";
  EXPECT_GE(report.stats.link_writes, 2) << "both links carried sessions";
  EXPECT_EQ(report.stats.failovers, 0);
}

TEST(CoordinatorBatchTest, CrashWithFramesBufferedForTheVictimReplaysItsTaps) {
  ShardGroup group(2);
  fleetd::Coordinator& coordinator = *group.coordinator;
  RouteRounds(group, 40, /*hold_closes=*/true);
  const size_t victim_session = AllSessionFrames().size() - 1;  // the last id: worker 1
  ASSERT_EQ(coordinator.OwnerOf(victim_session + 1), 1);
  LeaveBuffered(group, victim_session);
  int64_t victim_live = 0;
  for (size_t s = 0; s < AllSessionFrames().size(); ++s) {
    victim_live += coordinator.OwnerOf(s + 1) == 1 ? 1 : 0;
  }

  coordinator.CrashWorker(1);
  RouteRounds(group, SIZE_MAX, /*hold_closes=*/false);
  ASSERT_TRUE(coordinator.WaitForResults(60'000));
  fleetd::FleetReport report = coordinator.Finish();
  ExpectFleetMatchesOracle(report, "crash with a buffered victim");
  EXPECT_EQ(report.stats.failovers, 1);
  EXPECT_EQ(report.stats.recovered, victim_live)
      << "every live session the victim held, its unwritten frames included";
}

TEST(CoordinatorBatchTest, HandoffLandsBehindFramesBufferedForTheOldOwner) {
  fleetd::CoordinatorOptions options;
  options.handoff_timeout_ms = 5000;  // a lost handoff shows up as a failover, not a hang
  ShardGroup group(2, options);
  fleetd::Coordinator& coordinator = *group.coordinator;
  RouteRounds(group, 40, /*hold_closes=*/true);
  ASSERT_EQ(coordinator.OwnerOf(1), 0);
  LeaveBuffered(group, 0);
  int64_t old_owner_live = 0;
  for (size_t s = 0; s < AllSessionFrames().size(); ++s) {
    old_owner_live += coordinator.OwnerOf(s + 1) == 0 ? 1 : 0;
  }

  std::string error;
  ASSERT_TRUE(coordinator.MigrateWorker(0, 1, &error)) << error;
  fleetd::CoordinatorStats stats = coordinator.stats();
  EXPECT_EQ(stats.discarded, old_owner_live)
      << "the discard must land after the buffered records, on live sessions";
  EXPECT_EQ(stats.migrated, old_owner_live);
  EXPECT_EQ(stats.failovers, 0);

  RouteRounds(group, SIZE_MAX, /*hold_closes=*/false);
  ASSERT_TRUE(coordinator.WaitForResults(60'000));
  fleetd::FleetReport report = coordinator.Finish();
  ExpectFleetMatchesOracle(report, "migration with a buffered old owner");
  EXPECT_EQ(report.stats.failovers, 0);
}

TEST(CoordinatorBatchTest, FlushDeliversARoutedCloseWithoutWaitForResults) {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<uint64_t, bool>> done;
  fleetd::CoordinatorOptions options;
  options.on_session_done = [&](uint64_t id, bool aborted) {
    std::lock_guard<std::mutex> lock(mu);
    done.emplace_back(id, aborted);
    cv.notify_all();
  };
  ShardGroup group(2, options);
  while (group.next[0] < AllSessionFrames()[0].size()) {
    Route(group, 0);
  }
  group.coordinator->Flush();
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(20), [&] { return !done.empty(); }))
      << "the close stayed buffered: a front end waiting on on_session_done would hang";
  EXPECT_EQ(done[0].first, 1u);
  EXPECT_FALSE(done[0].second);
}

}  // namespace
