// End-to-end wire determinism (DESIGN.md section 3.9): the 16-app study fleet is recorded
// once, replayed through a live hangdoctord NetServer by the loadgen over every
// {connections} x {workers} topology, and each session's harvested report must be
// bit-identical (Render string equality) to the RunFleet per-job oracle — the same contract
// service_test enforces in-process, extended across real sockets, framing, and epoll
// workers applying in place to shared shards. With chaos on, the plan-chosen disconnected
// connections abort their in-flight sessions while every session on a calm connection still
// matches the oracle exactly: a torn neighbor never perturbs anyone else's report. Sessions
// whose symbol tables are byte-identical share one parsed table across connections, and a
// neighbour whose table differs by one bit still gets its own. A retained outcome owns its
// table: its execution log renders after the server is gone.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/hangdoctor/detector_service.h"
#include "src/hosts/mux_log.h"
#include "src/hosts/replay_host.h"
#include "src/hosts/session_log.h"
#include "src/netd/client.h"
#include "src/netd/loadgen.h"
#include "src/netd/record_codec.h"
#include "src/netd/server.h"
#include "src/netd/wire.h"
#include "src/workload/catalog.h"
#include "src/workload/fleet.h"

namespace {

const workload::Catalog& SharedCatalog() {
  static const workload::Catalog* catalog = new workload::Catalog();
  return *catalog;
}

std::string TempDir() {
  // Per-process: ctest runs each case as its own process, in parallel — a shared directory
  // would race one case's record against another's read.
  std::filesystem::path dir = std::filesystem::temp_directory_path() /
                              ("hd_netd_determinism_" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);
  return dir.string();
}

struct RecordedFleet {
  workload::FleetSummary oracle;                       // per-job (service = false) results
  std::vector<std::string> logs;                       // recorded HDSL bytes, job order
  std::vector<hangdoctor::SessionLogSlice> sessions;   // id = job index + 1, views into logs
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

netd::ServerOptions Topology(int32_t workers) {
  netd::ServerOptions options;
  options.workers = workers;
  options.service.shards = 4;
  return options;
}

// A harvested session must equal its oracle job bit for bit. Render(4) covers entry order,
// counts, scores, and culprit frames; stream health must be clean too.
void ExpectMatchesOracle(const netd::NetSessionOutcome& outcome, const std::string& label) {
  const RecordedFleet& fleet = Fleet();
  ASSERT_GE(outcome.id.value, 1u) << label;
  ASSERT_LE(outcome.id.value, fleet.oracle.jobs.size()) << label;
  const workload::FleetJobResult& oracle = fleet.oracle.jobs[outcome.id.value - 1];
  EXPECT_TRUE(outcome.result.stream_ok) << label << ": " << outcome.result.stream_error;
  EXPECT_EQ(outcome.result.report.Render(4), oracle.report.Render(4))
      << label << " session " << outcome.id.value << " (" << oracle.app_package << ")";
}

TEST(NetdDeterminismTest, WireIngestMatchesOracleAtEveryTopology) {
  const RecordedFleet& fleet = Fleet();
  std::string oracle_merged = fleet.oracle.merged_report.Render(4);
  for (int32_t connections : {1, 8, 64}) {
    for (int32_t workers : {1, 4}) {
      std::string label = "connections=" + std::to_string(connections) +
                          " workers=" + std::to_string(workers);
      netd::NetServer server(Topology(workers));
      netd::LoadGenOptions options;
      options.connections = connections;
      netd::LoadGenResult result = netd::RunLoadGen(server.port(), fleet.sessions, options);
      for (const auto& conn : result.connections) {
        EXPECT_TRUE(conn.completed) << label << ": " << conn.error;
      }
      EXPECT_EQ(result.busy, 0) << label;
      EXPECT_EQ(result.errors, 0) << label;
      server.Stop();

      std::vector<netd::NetSessionOutcome> outcomes = server.TakeResults();
      ASSERT_EQ(outcomes.size(), fleet.sessions.size()) << label;
      std::vector<hangdoctor::SessionResult> closed;
      for (auto& outcome : outcomes) {
        ASSERT_FALSE(outcome.aborted) << label << ": " << outcome.stream_error;
        ExpectMatchesOracle(outcome, label);
        closed.push_back(std::move(outcome.result));
      }
      std::sort(closed.begin(), closed.end(),
                [](const auto& a, const auto& b) { return a.id.value < b.id.value; });
      EXPECT_EQ(hangdoctor::MergeSessionReports(closed).Render(4), oracle_merged) << label;
      EXPECT_EQ(server.live_sessions(), 0u) << label;
      EXPECT_EQ(server.live_session_bytes(), 0) << label;
    }
  }
}

TEST(NetdDeterminismTest, ChaosDisconnectsAbortWithoutPerturbingNeighbors) {
  const RecordedFleet& fleet = Fleet();
  for (uint64_t seed : {7u, 19u}) {
    std::string label = "chaos seed=" + std::to_string(seed);
    netd::NetServer server(Topology(4));
    netd::LoadGenOptions options;
    options.connections = 8;
    options.chaos = true;
    options.seed = seed;
    netd::LoadGenResult result = netd::RunLoadGen(server.port(), fleet.sessions, options);
    server.Stop();

    // Which sessions rode a chaos-dropped connection? Only those may abort.
    std::unordered_set<uint64_t> on_chaos;
    size_t chaos_connections = 0;
    for (const auto& conn : result.connections) {
      if (conn.chaos_disconnect) {
        ++chaos_connections;
        on_chaos.insert(conn.sessions.begin(), conn.sessions.end());
      } else {
        EXPECT_TRUE(conn.completed) << label << ": " << conn.error;
      }
    }

    std::vector<netd::NetSessionOutcome> outcomes = server.TakeResults();
    ASSERT_EQ(outcomes.size(), fleet.sessions.size()) << label;
    size_t aborted = 0;
    for (const auto& outcome : outcomes) {
      if (outcome.aborted) {
        ++aborted;
        EXPECT_TRUE(on_chaos.count(outcome.id.value))
            << label << ": calm session " << outcome.id.value << " aborted: "
            << outcome.stream_error;
        EXPECT_FALSE(outcome.stream_error.empty()) << label;
      } else {
        // Closed cleanly — whether on a calm connection or before its chaos cut — so it
        // must still match the oracle bit for bit.
        ExpectMatchesOracle(outcome, label);
      }
    }
    // The seeds are chosen so both populations exist; if a regression made chaos a no-op
    // (or drop everything), this notices.
    EXPECT_GT(chaos_connections, 0u) << label;
    EXPECT_LT(chaos_connections, result.connections.size()) << label;
    EXPECT_GT(aborted, 0u) << label;
    EXPECT_LT(aborted, outcomes.size()) << label;
    // Nothing leaks: every aborted session was discarded, every budget byte released.
    EXPECT_EQ(server.live_sessions(), 0u) << label;
    EXPECT_EQ(server.live_session_bytes(), 0) << label;
    EXPECT_EQ(server.stats().sessions_aborted.load(), static_cast<int64_t>(aborted)) << label;
  }
}

// The daemon parses each distinct symbol table once and shares it across connections
// (hangdoctor::SymbolTableCache). Sharing must never leak between clients whose tables
// differ: here two connections stream sessions with identical tables, and a neighbour's
// table differs from theirs only in the UI bit of one diagnosed culprit frame — enough to
// flip that frame's diagnosis between a blocking bug and a UI operation. Every session's
// report must stay bit-identical to an uncached replay of its own bytes.

// The session's Hang Bug Report and verdict sequence, replayed offline from its own bytes
// through the uncached parse.
struct ReplayOracle {
  std::string report;
  std::vector<hangdoctor::Verdict> verdicts;
};

ReplayOracle Replay(const std::string& bytes) {
  hangdoctor::SessionLog log;
  std::string error;
  EXPECT_TRUE(hangdoctor::LoadSessionLogBytes(bytes, &log, &error)) << error;
  hangdoctor::ReplaySession replay(std::move(log));
  replay.Run();
  ReplayOracle oracle{replay.core().local_report().Render(4), {}};
  for (const hangdoctor::ExecutionRecord& record : replay.core().log()) {
    oracle.verdicts.push_back(record.verdict);
  }
  return oracle;
}

// `bytes` with the UI bit of `frame` flipped in its symbol table; every other byte is the
// recorded one.
std::string FlipUiBit(const std::string& bytes, telemetry::FrameId frame) {
  hangdoctor::SessionLog log;
  hangdoctor::SessionLogLayout layout;
  std::string error;
  EXPECT_TRUE(hangdoctor::LoadSessionLogBytes(bytes, &log, &error)) << error;
  EXPECT_TRUE(hangdoctor::ScanSessionLog(bytes, &layout, &error)) << error;
  telemetry::SymbolTable flipped;
  for (telemetry::FrameId id = 0; id < log.symbols->size(); ++id) {
    bool is_ui = log.symbols->IsUi(id);
    flipped.Intern(log.symbols->Frame(id), id == frame ? !is_ui : is_ui,
                   log.symbols->IsSelfDeveloped(id));
  }
  hangdoctor::SessionInfo info = log.info;
  info.symbols = &flipped;
  const std::string path = TempDir() + "/flipped_prefix.hdsl";
  {
    hangdoctor::SessionLogWriter writer(path, log.config);
    writer.OnSessionStart(info);
    writer.Finish();
    EXPECT_TRUE(writer.ok());
  }
  std::ifstream in(path, std::ios::binary);
  std::string prefix((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  prefix.pop_back();  // the end marker
  EXPECT_EQ(prefix.size(), layout.header_end);
  return prefix + bytes.substr(layout.header_end);
}

// Wire frames of a container holding `sessions`.
std::vector<std::string> SessionFrames(const std::vector<hangdoctor::SessionLogSlice>& sessions) {
  std::string container;
  std::string error;
  EXPECT_TRUE(hangdoctor::MuxSessionLogs(sessions, {}, &container, &error)) << error;
  std::vector<std::string> frames;
  EXPECT_TRUE(netd::ContainerToWireFrames(container, &frames, &error)) << error;
  return frames;
}

TEST(NetdDeterminismTest, SharedSymbolTablesNeverLeakAcrossClients) {
  // Find a recorded session and a frame whose UI bit decides one of its diagnoses.
  const RecordedFleet& fleet = Fleet();
  std::string base;
  std::string neighbour;
  for (size_t i = 0; i < fleet.logs.size() && neighbour.empty(); ++i) {
    hangdoctor::SessionLog log;
    std::string error;
    ASSERT_TRUE(hangdoctor::LoadSessionLogBytes(fleet.logs[i], &log, &error)) << error;
    hangdoctor::ReplaySession replay(std::move(log));
    replay.Run();
    for (const hangdoctor::ExecutionRecord& record : replay.core().log()) {
      if (record.verdict != hangdoctor::Verdict::kDiagnosedBug) {
        continue;
      }
      std::string flipped = FlipUiBit(fleet.logs[i], record.diagnosis.culprit);
      if (Replay(flipped).report != Replay(fleet.logs[i]).report) {
        base = fleet.logs[i];
        neighbour = std::move(flipped);
        break;
      }
    }
  }
  ASSERT_FALSE(neighbour.empty()) << "no recorded diagnosis turns on one frame's UI bit";
  size_t differing = 0;
  for (size_t b = 0; b < base.size(); ++b) {
    differing += base[b] != neighbour[b] ? 1 : 0;
  }
  ASSERT_EQ(differing, 1u);

  // Connection A carries sessions 1 (base) and 2 (the neighbour); connection B carries
  // session 3 (base again). Each connection first sends everything before its first close,
  // so every session is open at once, and A's opens are decoded before B's: the base table
  // is parsed once (by A) and shared by B, the neighbour's is parsed on its own.
  const std::map<uint64_t, const std::string*> bytes_of{
      {1, &base}, {2, &neighbour}, {3, &base}};
  const std::vector<std::vector<std::string>> frames{
      SessionFrames({{telemetry::SessionId{1}, base}, {telemetry::SessionId{2}, neighbour}}),
      SessionFrames({{telemetry::SessionId{3}, base}})};
  netd::ServerOptions options;
  options.listen = false;
  options.workers = 2;  // round-robin adoption: A and B land on different epoll workers
  options.service.shards = 4;
  netd::NetServer server(options);
  std::vector<netd::NetClient> clients(2);
  std::vector<size_t> sent(2, 0);
  int64_t opens = 0;
  for (size_t c = 0; c < clients.size(); ++c) {
    int sv[2] = {-1, -1};
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    server.AdoptConnection(sv[0]);
    clients[c].Adopt(sv[1]);
    ASSERT_TRUE(clients[c].SendHello(netd::kWireVersionMax));
    for (; sent[c] < frames[c].size(); ++sent[c]) {
      auto tag = static_cast<hangdoctor::MuxFrameTag>(frames[c][sent[c]][0]);
      if (tag == hangdoctor::MuxFrameTag::kCloseSession || tag == hangdoctor::MuxFrameTag::kEnd) {
        break;
      }
      opens += tag == hangdoctor::MuxFrameTag::kOpenSession ? 1 : 0;
      ASSERT_TRUE(clients[c].SendFrame(frames[c][sent[c]])) << clients[c].error();
    }
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.stats().symbol_tables_parsed.load() +
                   server.stats().symbol_tables_shared.load() <
               opens &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(opens, 3) << "every open must precede the first close";
  for (size_t c = 0; c < clients.size(); ++c) {
    for (; sent[c] < frames[c].size(); ++sent[c]) {
      ASSERT_TRUE(clients[c].SendFrame(frames[c][sent[c]])) << clients[c].error();
    }
  }
  for (netd::NetClient& client : clients) {
    netd::Reply reply;
    while (client.ReadReply(&reply)) {
    }
  }
  server.Stop();

  EXPECT_EQ(server.stats().symbol_tables_parsed.load(), 2);
  EXPECT_EQ(server.stats().symbol_tables_shared.load(), 1);
  std::vector<netd::NetSessionOutcome> outcomes = server.TakeResults();
  ASSERT_EQ(outcomes.size(), 3u);
  for (const netd::NetSessionOutcome& outcome : outcomes) {
    const std::string label = "session " + std::to_string(outcome.id.value);
    ASSERT_FALSE(outcome.aborted) << label << ": " << outcome.stream_error;
    EXPECT_TRUE(outcome.result.stream_ok) << label << ": " << outcome.result.stream_error;
    ReplayOracle oracle = Replay(*bytes_of.at(outcome.id.value));
    EXPECT_EQ(outcome.result.report.Render(4), oracle.report) << label;
    std::vector<hangdoctor::Verdict> verdicts;
    for (const hangdoctor::ExecutionRecord& record : outcome.result.log) {
      verdicts.push_back(record.verdict);
    }
    EXPECT_EQ(verdicts, oracle.verdicts) << label;
  }
  EXPECT_EQ(server.live_sessions(), 0u);
  EXPECT_EQ(server.live_session_bytes(), 0);
}

// Recorded sessions of the async study apps, whose diagnoses walk a waiting chain and so
// carry a wait site.
const std::vector<std::string>& AsyncLogs() {
  static const std::vector<std::string>* logs = [] {
    auto* out = new std::vector<std::string>();
    std::string dir = TempDir();
    std::vector<workload::FleetJob> jobs;
    for (const droidsim::AppSpec* spec : SharedCatalog().async_apps()) {
      workload::FleetJob job;
      job.spec = spec;
      job.profile = droidsim::LgV10();
      job.seed = workload::FleetSeed(9400, jobs.size());
      job.session = simkit::Seconds(30);
      job.record_path = dir + "/async_" + std::to_string(jobs.size()) + ".hdsl";
      jobs.push_back(job);
    }
    EXPECT_EQ(workload::RunFleet(jobs, {.jobs = 2, .service = false}).failed, 0u);
    for (const auto& job : jobs) {
      std::ifstream in(job.record_path, std::ios::binary);
      out->emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    return out;
  }();
  return *logs;
}

// "clazz.function@file:line" of `id`.
std::string Site(const telemetry::SymbolTable& symbols, telemetry::FrameId id) {
  const telemetry::StackFrame& frame = symbols.Frame(id);
  return frame.clazz + "." + frame.function + "@" + frame.file + ":" + std::to_string(frame.line);
}

// Every diagnosed record of `log`, rendered through `symbols`: culprit, then wait site.
std::vector<std::string> RenderDiagnoses(const std::vector<hangdoctor::ExecutionRecord>& log,
                                         const telemetry::SymbolTable& symbols) {
  std::vector<std::string> lines;
  for (const hangdoctor::ExecutionRecord& record : log) {
    if (!record.diagnosis.valid) {
      continue;
    }
    std::string line = std::to_string(record.execution_id) + " " +
                       Site(symbols, record.diagnosis.culprit);
    if (record.diagnosis.via_async_wait) {
      line += " via " + Site(symbols, record.diagnosis.wait_frame);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

// The same rendering from an uncached replay of the session's own bytes.
std::vector<std::string> ReplayDiagnoses(const std::string& bytes) {
  hangdoctor::SessionLog log;
  std::string error;
  EXPECT_TRUE(hangdoctor::LoadSessionLogBytes(bytes, &log, &error)) << error;
  hangdoctor::ReplaySession replay(std::move(log));
  replay.Run();
  return RenderDiagnoses(replay.core().log(), *replay.core().session().symbols);
}

TEST(NetdDeterminismTest, RetainedOutcomesOwnTheirSymbolTables) {
  // Part 1: the study fleet plus the async apps over loopback TCP. The server is stopped,
  // harvested and destroyed before anything is rendered, so every table a log's frame ids
  // index must be owned by the outcome itself.
  const RecordedFleet& fleet = Fleet();
  std::vector<hangdoctor::SessionLogSlice> sessions = fleet.sessions;
  for (const std::string& bytes : AsyncLogs()) {
    sessions.push_back({telemetry::SessionId{sessions.size() + 1}, bytes});
  }
  std::map<uint64_t, const std::string*> bytes_of;
  for (const hangdoctor::SessionLogSlice& session : sessions) {
    bytes_of[session.id.value] = &session.bytes;
  }
  std::vector<netd::NetSessionOutcome> outcomes;
  {
    netd::NetServer server(Topology(4));
    netd::LoadGenOptions options;
    options.connections = 8;
    netd::LoadGenResult result = netd::RunLoadGen(server.port(), sessions, options);
    EXPECT_EQ(result.errors, 0);
    server.Stop();
    outcomes = server.TakeResults();
  }
  ASSERT_EQ(outcomes.size(), sessions.size());
  size_t diagnoses = 0;
  size_t wait_sites = 0;
  for (const netd::NetSessionOutcome& outcome : outcomes) {
    const std::string label = "session " + std::to_string(outcome.id.value);
    ASSERT_FALSE(outcome.aborted) << label << ": " << outcome.stream_error;
    ASSERT_NE(outcome.result.symbols, nullptr) << label;
    std::vector<std::string> rendered =
        RenderDiagnoses(outcome.result.log, *outcome.result.symbols);
    EXPECT_EQ(rendered, ReplayDiagnoses(*bytes_of.at(outcome.id.value))) << label;
    diagnoses += rendered.size();
    for (const std::string& line : rendered) {
      wait_sites += line.find(" via ") != std::string::npos ? 1 : 0;
    }
  }
  EXPECT_GT(diagnoses, 0u);
  EXPECT_GT(wait_sites, 0u) << "no async diagnosis walked a waiting chain";

  // Part 2: a retained, un-harvested outcome keeps its table in the daemon's cache. Session
  // 1 runs to its close reply; only then does session 2 open with the same table, which it
  // shares instead of parsing again.
  const std::string& base = fleet.logs[0];
  std::vector<std::string> first = SessionFrames({{telemetry::SessionId{1}, base}});
  std::vector<std::string> second = SessionFrames({{telemetry::SessionId{2}, base}});
  first.pop_back();  // kEnd: the connection goes on with session 2
  netd::ServerOptions options;
  options.listen = false;
  options.workers = 1;
  options.service.shards = 4;
  std::vector<netd::NetSessionOutcome> retained;
  {
    netd::NetServer server(options);
    netd::NetClient client;
    int sv[2] = {-1, -1};
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    server.AdoptConnection(sv[0]);
    client.Adopt(sv[1]);
    ASSERT_TRUE(client.SendHello(netd::kWireVersionMax));
    netd::Reply reply;
    ASSERT_TRUE(client.ReadReply(&reply));
    ASSERT_EQ(reply.tag, netd::ReplyTag::kHelloOk);
    for (const std::string& frame : first) {
      ASSERT_TRUE(client.SendFrame(frame)) << client.error();
    }
    ASSERT_TRUE(client.ReadReply(&reply));
    ASSERT_EQ(reply.tag, netd::ReplyTag::kSessionClosed);
    ASSERT_EQ(reply.session_id, 1u);
    for (const std::string& frame : second) {
      ASSERT_TRUE(client.SendFrame(frame)) << client.error();
    }
    while (client.ReadReply(&reply)) {
    }
    server.Stop();
    EXPECT_EQ(server.stats().symbol_tables_parsed.load(), 1);
    EXPECT_EQ(server.stats().symbol_tables_shared.load(), 1);
    retained = server.TakeResults();
  }
  ASSERT_EQ(retained.size(), 2u);
  const std::vector<std::string> oracle = ReplayDiagnoses(base);
  for (const netd::NetSessionOutcome& outcome : retained) {
    ASSERT_FALSE(outcome.aborted) << outcome.stream_error;
    ASSERT_NE(outcome.result.symbols, nullptr);
    EXPECT_EQ(RenderDiagnoses(outcome.result.log, *outcome.result.symbols), oracle)
        << "session " << outcome.id.value;
  }
  EXPECT_EQ(retained[0].result.symbols, retained[1].result.symbols);
}

}  // namespace
