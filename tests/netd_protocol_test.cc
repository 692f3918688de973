// hangdoctord wire-protocol conformance battery (DESIGN.md section 3.9), over in-process
// socketpairs so the whole stack — FrameSplitter, HELLO negotiation, MuxStreamDecoder,
// admission control, backpressure, drain — runs under the sanitizer legs with no real
// network. Each case is a protocol clause: version negotiation (v3 + v4 accepted, others
// rejected), frame round-trip byte-identity, 1-byte drip and fully-coalesced reads,
// oversized-length and truncated-frame rejection with a sticky per-connection error,
// structured BUSY admission replies, and graceful-drain report flush. One case forks a
// listening daemon out of file descriptors: its acceptor must back off, not spin.
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/hosts/mux_log.h"
#include "src/netd/client.h"
#include "src/netd/loadgen.h"
#include "src/netd/record_codec.h"
#include "src/netd/server.h"
#include "src/netd/wire.h"
#include "src/workload/catalog.h"
#include "src/workload/fleet.h"

namespace {

using netd::Reply;
using netd::ReplyTag;

std::string TempPath(const std::string& leaf) {
  // Per-process: ctest runs each case as its own process, in parallel — a shared directory
  // would race one case's record against another's read.
  std::filesystem::path dir = std::filesystem::temp_directory_path() /
                              ("hd_netd_protocol_" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);
  return (dir / leaf).string();
}

// One small recorded study-app session, shared by every case: realistic header (full symbol
// table), realistic record stream, and a report the oracle path can reproduce.
const std::string& DonorLogBytes() {
  static const std::string* bytes = [] {
    static const workload::Catalog catalog;
    workload::FleetJob job;
    job.spec = catalog.study_apps()[0];
    job.profile = droidsim::LgV10();
    job.seed = workload::FleetSeed(977, 0);
    job.session = simkit::Seconds(10);
    job.record_path = TempPath("donor.hdsl");
    workload::FleetJobResult result = workload::RunFleetJob(job);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.record_ok) << result.record_error;
    std::ifstream in(job.record_path, std::ios::binary);
    auto* data = new std::string(std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>());
    EXPECT_FALSE(data->empty());
    return data;
  }();
  return *bytes;
}

// A v3 container holding `ids` copies of the donor log, split into wire frames.
std::vector<std::string> WireFrames(const std::vector<uint64_t>& ids) {
  std::vector<hangdoctor::SessionLogSlice> sessions;
  for (uint64_t id : ids) {
    sessions.push_back({telemetry::SessionId{id}, DonorLogBytes()});
  }
  std::string container, error;
  EXPECT_TRUE(hangdoctor::MuxSessionLogs(sessions, {}, &container, &error)) << error;
  std::vector<std::string> frames;
  EXPECT_TRUE(netd::ContainerToWireFrames(container, &frames, &error)) << error;
  return frames;
}

netd::ServerOptions SocketpairOptions() {
  netd::ServerOptions options;
  options.listen = false;
  options.workers = 1;
  options.rings = 1;
  options.service.shards = 2;
  return options;
}

// Adopts one end of a socketpair into the server, hands the other to a client.
netd::NetClient ConnectPair(netd::NetServer& server) {
  int sv[2] = {-1, -1};
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  server.AdoptConnection(sv[0]);
  netd::NetClient client;
  client.Adopt(sv[1]);
  return client;
}

// Reads replies until EOF (server closed the connection), appending to `replies`.
void ReadUntilEof(netd::NetClient& client, std::vector<Reply>* replies) {
  Reply reply;
  while (client.ReadReply(&reply)) {
    replies->push_back(reply);
  }
}

TEST(NetdWireTest, FrameRoundTripIsByteIdentical) {
  // Payload sizes straddling every varint-length boundary the framing layer can hit.
  std::vector<size_t> sizes = {1, 2, 127, 128, 129, 16383, 16384, 16385, 100000};
  std::string stream;
  std::vector<std::string> payloads;
  for (size_t i = 0; i < sizes.size(); ++i) {
    std::string payload(sizes[i], static_cast<char>('a' + (i % 26)));
    payload[0] = static_cast<char>(i);
    payloads.push_back(payload);
    netd::AppendFrame(&stream, payload);
  }
  netd::FrameSplitter splitter;
  splitter.Feed(stream.data(), stream.size());
  for (const std::string& expected : payloads) {
    std::string got;
    ASSERT_TRUE(splitter.Next(&got));
    EXPECT_EQ(got, expected);
  }
  std::string leftover;
  EXPECT_FALSE(splitter.Next(&leftover));
  EXPECT_TRUE(splitter.ok());
}

TEST(NetdWireTest, LengthPrefixFedByteByByteWaitsThenOverflowFailsSticky) {
  // A three-byte length prefix arriving one byte at a time is "wait", never an error; the
  // frame pops once its last payload byte lands.
  const std::string payload(20000, 'p');
  std::string stream;
  netd::AppendFrame(&stream, payload);
  ASSERT_EQ(stream.size(), payload.size() + 3);
  netd::FrameSplitter splitter;
  std::string got;
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(splitter.Feed(&stream[i], 1));
    EXPECT_FALSE(splitter.Next(&got)) << "prefix byte " << i;
    EXPECT_TRUE(splitter.ok()) << "prefix byte " << i;
  }
  ASSERT_TRUE(splitter.Feed(stream.data() + 3, payload.size() - 1));
  EXPECT_FALSE(splitter.Next(&got));
  ASSERT_TRUE(splitter.Feed(stream.data() + stream.size() - 1, 1));
  ASSERT_TRUE(splitter.Next(&got));
  EXPECT_EQ(got, payload);
  EXPECT_TRUE(splitter.ok());

  // Nine continuation bytes could still be a valid length; the tenth makes it an overflow,
  // and the splitter stays failed whatever follows.
  const char continuation = '\xff';
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(splitter.Feed(&continuation, 1));
    EXPECT_FALSE(splitter.Next(&got));
    EXPECT_TRUE(splitter.ok()) << "continuation byte " << i;
  }
  ASSERT_TRUE(splitter.Feed(&continuation, 1));
  EXPECT_FALSE(splitter.Next(&got));
  EXPECT_FALSE(splitter.ok());
  EXPECT_EQ(splitter.error(), "frame length varint overflow");
  EXPECT_FALSE(splitter.Feed(stream.data(), stream.size()));
  EXPECT_FALSE(splitter.Next(&got));
  EXPECT_EQ(splitter.error(), "frame length varint overflow");
}

TEST(NetdWireTest, ContainerSplitsLosslesslyIntoWireFrames) {
  std::vector<hangdoctor::SessionLogSlice> sessions = {
      {telemetry::SessionId{1}, DonorLogBytes()}, {telemetry::SessionId{2}, DonorLogBytes()}};
  std::string container, error;
  ASSERT_TRUE(hangdoctor::MuxSessionLogs(sessions, {}, &container, &error)) << error;
  std::vector<std::string> frames;
  ASSERT_TRUE(netd::ContainerToWireFrames(container, &frames, &error)) << error;
  // The HELLO prefix plus the concatenated frame payloads reproduce the container exactly —
  // the invariant that makes wire ingest the same grammar as on-disk replay.
  hangdoctor::SessionLogLayout layout;
  ASSERT_TRUE(hangdoctor::ScanMuxLog(container, &layout, &error)) << error;
  std::string reassembled = container.substr(0, layout.header_end);
  for (const std::string& frame : frames) {
    reassembled += frame;
  }
  EXPECT_EQ(reassembled, container);
}

TEST(NetdProtocolTest, HelloNegotiatesV3AndV4) {
  for (uint32_t version : {3u, 4u}) {
    netd::NetServer server(SocketpairOptions());
    netd::NetClient client = ConnectPair(server);
    ASSERT_TRUE(client.SendHello(version));
    Reply reply;
    ASSERT_TRUE(client.ReadReply(&reply)) << client.error();
    EXPECT_EQ(reply.tag, ReplyTag::kHelloOk);
    EXPECT_EQ(reply.version, version);

    // The negotiated connection actually works end to end.
    for (const std::string& frame : WireFrames({7})) {
      ASSERT_TRUE(client.SendFrame(frame));
    }
    std::vector<Reply> replies;
    ReadUntilEof(client, &replies);
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(replies[0].tag, ReplyTag::kSessionClosed);
    EXPECT_EQ(replies[0].session_id, 7u);
    EXPECT_TRUE(replies[0].stream_ok);
    EXPECT_EQ(replies[1].tag, ReplyTag::kBye);
    EXPECT_EQ(replies[1].sessions_closed, 1u);
    server.Stop();
    auto outcomes = server.TakeResults();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].aborted);
    EXPECT_EQ(outcomes[0].id.value, 7u);
  }
}

TEST(NetdProtocolTest, UnknownHelloVersionIsRejected) {
  for (uint32_t version : {0u, 2u, 5u, 99u}) {
    netd::NetServer server(SocketpairOptions());
    netd::NetClient client = ConnectPair(server);
    ASSERT_TRUE(client.SendHello(version));
    Reply reply;
    ASSERT_TRUE(client.ReadReply(&reply));
    EXPECT_EQ(reply.tag, ReplyTag::kError);
    EXPECT_NE(reply.message.find("unsupported wire version"), std::string::npos)
        << reply.message;
    // Sticky: the server closes; no further replies.
    std::vector<Reply> rest;
    ReadUntilEof(client, &rest);
    EXPECT_TRUE(rest.empty());
    EXPECT_EQ(server.stats().protocol_errors.load(), 1);
  }
}

TEST(NetdProtocolTest, BadHelloMagicIsRejected) {
  netd::NetServer server(SocketpairOptions());
  netd::NetClient client = ConnectPair(server);
  ASSERT_TRUE(client.SendFrame("XXXX\x04"));
  Reply reply;
  ASSERT_TRUE(client.ReadReply(&reply));
  EXPECT_EQ(reply.tag, ReplyTag::kError);
  EXPECT_NE(reply.message.find("bad magic"), std::string::npos);
}

TEST(NetdProtocolTest, OneByteDripAndCoalescedWritesDecodeIdentically) {
  std::vector<std::string> frames = WireFrames({11, 12});
  std::string stream;
  netd::AppendFrame(&stream, netd::BuildHello(4));
  for (const std::string& frame : frames) {
    netd::AppendFrame(&stream, frame);
  }
  for (size_t chunk : {size_t{1}, stream.size()}) {
    netd::NetServer server(SocketpairOptions());
    netd::NetClient client = ConnectPair(server);
    ASSERT_TRUE(client.SendRaw(stream, chunk));
    std::vector<Reply> replies;
    ReadUntilEof(client, &replies);
    ASSERT_EQ(replies.size(), 4u) << "chunk=" << chunk;  // hello-ok, 2 closes, bye
    EXPECT_EQ(replies[0].tag, ReplyTag::kHelloOk);
    EXPECT_EQ(replies[1].tag, ReplyTag::kSessionClosed);
    EXPECT_EQ(replies[2].tag, ReplyTag::kSessionClosed);
    EXPECT_EQ(replies[3].tag, ReplyTag::kBye);
    EXPECT_EQ(replies[3].sessions_closed, 2u);
    server.Stop();
    EXPECT_EQ(server.TakeResults().size(), 2u);
  }
}

TEST(NetdProtocolTest, OversizedFrameLengthIsStickyReject) {
  netd::ServerOptions options = SocketpairOptions();
  options.max_frame_bytes = 4096;
  netd::NetServer server(options);
  netd::NetClient client = ConnectPair(server);
  ASSERT_TRUE(client.SendHello(4));
  Reply reply;
  ASSERT_TRUE(client.ReadReply(&reply));
  ASSERT_EQ(reply.tag, ReplyTag::kHelloOk);
  // A frame announcing 1 MiB against a 4 KiB cap: rejected on the length alone, before any
  // payload arrives.
  std::string prefix;
  netd::PutVarint(&prefix, 1u << 20);
  ASSERT_TRUE(client.SendRaw(prefix));
  ASSERT_TRUE(client.ReadReply(&reply));
  EXPECT_EQ(reply.tag, ReplyTag::kError);
  EXPECT_NE(reply.message.find("exceeds cap"), std::string::npos) << reply.message;
  // Sticky: a perfectly valid follow-up frame elicits nothing; the connection just closes.
  client.SendFrame(netd::BuildHello(4));
  std::vector<Reply> rest;
  ReadUntilEof(client, &rest);
  EXPECT_TRUE(rest.empty());
}

TEST(NetdProtocolTest, TruncatedFrameAbortsLiveSessionsWithoutCollateral) {
  netd::NetServer server(SocketpairOptions());

  // Neighbor connection: same shape, no fault — must be untouched by the torn one.
  netd::NetClient calm = ConnectPair(server);
  ASSERT_TRUE(calm.SendHello(4));

  netd::NetClient torn = ConnectPair(server);
  ASSERT_TRUE(torn.SendHello(4));
  std::vector<std::string> frames = WireFrames({21});
  // Open the session, push a few records, then tear a frame in half and vanish.
  for (size_t i = 0; i + 2 < frames.size() && i < 4; ++i) {
    ASSERT_TRUE(torn.SendFrame(frames[i]));
  }
  ASSERT_TRUE(torn.SendTornFrame(frames[4], frames[4].size() / 2));

  for (const std::string& frame : WireFrames({22})) {
    ASSERT_TRUE(calm.SendFrame(frame));
  }
  std::vector<Reply> calm_replies;
  ReadUntilEof(calm, &calm_replies);

  server.Stop();
  auto outcomes = server.TakeResults();
  ASSERT_EQ(outcomes.size(), 2u);
  bool saw_abort = false, saw_close = false;
  for (const auto& outcome : outcomes) {
    if (outcome.id.value == 21) {
      EXPECT_TRUE(outcome.aborted);
      EXPECT_NE(outcome.stream_error.find("closed mid-session"), std::string::npos)
          << outcome.stream_error;
      saw_abort = true;
    } else {
      EXPECT_EQ(outcome.id.value, 22u);
      EXPECT_FALSE(outcome.aborted);
      EXPECT_TRUE(outcome.result.stream_ok);
      saw_close = true;
    }
  }
  EXPECT_TRUE(saw_abort);
  EXPECT_TRUE(saw_close);
  ASSERT_GE(calm_replies.size(), 2u);
  EXPECT_EQ(calm_replies[1].tag, ReplyTag::kSessionClosed);
  EXPECT_EQ(server.live_sessions(), 0u);
  EXPECT_EQ(server.live_session_bytes(), 0);
}

TEST(NetdProtocolTest, RecordForUnopenedSessionIsStickyProtocolError) {
  netd::NetServer server(SocketpairOptions());
  netd::NetClient client = ConnectPair(server);
  ASSERT_TRUE(client.SendHello(4));
  std::vector<std::string> frames = WireFrames({31});
  // Skip the open frame; send the first record frame directly.
  ASSERT_TRUE(client.SendFrame(frames[1]));
  std::vector<Reply> replies;
  ReadUntilEof(client, &replies);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].tag, ReplyTag::kHelloOk);
  EXPECT_EQ(replies[1].tag, ReplyTag::kError);
  EXPECT_NE(replies[1].message.find("unopened session"), std::string::npos)
      << replies[1].message;
}

TEST(NetdProtocolTest, BusyAdmissionReplyIsStructuredAndScopedToOneSession) {
  netd::ServerOptions options = SocketpairOptions();
  // Budget: exactly one donor-sized open fits.
  options.session_overhead_bytes = 1024;
  options.session_budget_bytes =
      static_cast<int64_t>(WireFrames({1})[0].size()) + options.session_overhead_bytes + 512;
  netd::NetServer server(options);
  netd::NetClient client = ConnectPair(server);
  ASSERT_TRUE(client.SendHello(4));
  for (const std::string& frame : WireFrames({41, 42})) {
    ASSERT_TRUE(client.SendFrame(frame));
  }
  std::vector<Reply> replies;
  ReadUntilEof(client, &replies);
  // hello-ok, one busy (for whichever open came second), one close, bye.
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[0].tag, ReplyTag::kHelloOk);
  EXPECT_EQ(replies[1].tag, ReplyTag::kBusy);
  EXPECT_GT(replies[1].session_id, 0u);
  EXPECT_EQ(replies[1].budget_bytes, static_cast<uint64_t>(options.session_budget_bytes));
  EXPECT_GT(replies[1].live_bytes, 0u);
  EXPECT_EQ(replies[2].tag, ReplyTag::kSessionClosed);
  EXPECT_EQ(replies[3].tag, ReplyTag::kBye);
  EXPECT_EQ(replies[3].sessions_closed, 1u);
  server.Stop();
  auto outcomes = server.TakeResults();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].aborted);
  EXPECT_EQ(server.stats().sessions_refused.load(), 1);
  // The refused session's budget was never charged; the closed one's was released.
  EXPECT_EQ(server.live_session_bytes(), 0);
}

TEST(NetdProtocolTest, DuplicateSessionAcrossConnectionsIsRejected) {
  netd::NetServer server(SocketpairOptions());
  netd::NetClient first = ConnectPair(server);
  netd::NetClient second = ConnectPair(server);
  ASSERT_TRUE(first.SendHello(4));
  ASSERT_TRUE(second.SendHello(4));
  std::vector<std::string> frames = WireFrames({51});
  // Both connections open session 51; the first (applied before the second is even sent,
  // hence the poll) wins, the other goes sticky-error.
  ASSERT_TRUE(first.SendFrame(frames[0]));
  Reply reply;
  ASSERT_TRUE(first.ReadReply(&reply));
  ASSERT_EQ(reply.tag, ReplyTag::kHelloOk);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.live_sessions() != 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.live_sessions(), 1u);
  ASSERT_TRUE(second.SendFrame(frames[0]));
  std::vector<Reply> second_replies;
  ReadUntilEof(second, &second_replies);
  ASSERT_GE(second_replies.size(), 2u);
  EXPECT_EQ(second_replies.back().tag, ReplyTag::kError);
  // The winner still closes cleanly.
  for (size_t i = 1; i < frames.size(); ++i) {
    ASSERT_TRUE(first.SendFrame(frames[i]));
  }
  std::vector<Reply> first_replies;
  ReadUntilEof(first, &first_replies);
  ASSERT_GE(first_replies.size(), 2u);
  EXPECT_EQ(first_replies[first_replies.size() - 2].tag, ReplyTag::kSessionClosed);
  EXPECT_EQ(first_replies.back().tag, ReplyTag::kBye);
}

TEST(NetdProtocolTest, BackpressureOnTinyRingStillAppliesEverythingInOrder) {
  netd::ServerOptions options = SocketpairOptions();
  options.ring_capacity = 1;  // rounds up to the ring's minimum; maximal pushback
  netd::NetServer server(options);
  netd::NetClient client = ConnectPair(server);
  ASSERT_TRUE(client.SendHello(4));
  for (const std::string& frame : WireFrames({61, 62, 63, 64})) {
    ASSERT_TRUE(client.SendFrame(frame));
  }
  std::vector<Reply> replies;
  ReadUntilEof(client, &replies);
  ASSERT_EQ(replies.size(), 6u);  // hello-ok + 4 closes + bye
  EXPECT_EQ(replies.back().tag, ReplyTag::kBye);
  EXPECT_EQ(replies.back().sessions_closed, 4u);
  server.Stop();
  auto outcomes = server.TakeResults();
  ASSERT_EQ(outcomes.size(), 4u);
  for (const auto& outcome : outcomes) {
    EXPECT_FALSE(outcome.aborted);
    EXPECT_TRUE(outcome.result.stream_ok);
  }
}

TEST(NetdProtocolTest, GracefulDrainFlushesInFlightSessionReports) {
  netd::NetServer server(SocketpairOptions());
  netd::NetClient client = ConnectPair(server);
  ASSERT_TRUE(client.SendHello(4));
  Reply reply;
  ASSERT_TRUE(client.ReadReply(&reply));
  ASSERT_EQ(reply.tag, ReplyTag::kHelloOk);
  std::vector<std::string> frames = WireFrames({71});
  // Open + a prefix of the records; the session is in flight, no close frame ever sent.
  size_t sent = frames.size() / 2;
  for (size_t i = 0; i < sent; ++i) {
    ASSERT_TRUE(client.SendFrame(frames[i]));
  }
  // WaitIdle wants zero live connections; here the client stays connected on purpose, so
  // poll until the open frame has been routed and applied before pulling the drain lever.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.live_sessions() != 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.live_sessions(), 1u);

  server.BeginDrain();
  std::vector<Reply> replies;
  ReadUntilEof(client, &replies);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].tag, ReplyTag::kSessionClosed);
  EXPECT_EQ(replies[0].session_id, 71u);
  EXPECT_EQ(replies[1].tag, ReplyTag::kBye);
  server.Stop();
  auto outcomes = server.TakeResults();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].aborted);  // drained, not discarded: the report was flushed
  EXPECT_EQ(outcomes[0].id.value, 71u);
  EXPECT_EQ(server.live_sessions(), 0u);
}

// The drain takes in what a peer had already sent before it stops reading. A peer that sent
// half a session and hung up before the drain began is gone: its session aborts instead of
// being harvested as if it were complete (a truncated stream would yield a wrong report).
TEST(NetdProtocolTest, DrainAbortsSessionsOfAPeerThatHungUpFirst) {
  netd::NetServer server(SocketpairOptions());
  server.BeginDrain();  // before the server has read a single byte
  int sv[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::vector<std::string> frames = WireFrames({81});
  {
    netd::NetClient client;
    client.Adopt(sv[1]);
    ASSERT_TRUE(client.SendHello(4));
    for (size_t i = 0; i < frames.size() / 2; ++i) {
      ASSERT_TRUE(client.SendFrame(frames[i]));
    }
  }  // hangs up
  server.AdoptConnection(sv[0]);
  ASSERT_TRUE(server.WaitIdle(30000));
  server.Stop();
  std::vector<netd::NetSessionOutcome> outcomes = server.TakeResults();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].id.value, 81u);
  EXPECT_TRUE(outcomes[0].aborted);
  EXPECT_EQ(server.stats().sessions_aborted.load(), 1);
  EXPECT_EQ(server.live_sessions(), 0u);
  EXPECT_EQ(server.live_session_bytes(), 0);
}

// ... while a peer that is still connected has what it already sent applied, and its
// in-flight session is force-closed and harvested.
TEST(NetdProtocolTest, DrainAppliesWhatAConnectedPeerAlreadySent) {
  netd::NetServer server(SocketpairOptions());
  server.BeginDrain();
  int sv[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  netd::NetClient client;
  client.Adopt(sv[1]);
  ASSERT_TRUE(client.SendHello(4));
  std::vector<std::string> frames = WireFrames({82});
  for (size_t i = 0; i < frames.size() / 2; ++i) {
    ASSERT_TRUE(client.SendFrame(frames[i]));
  }
  server.AdoptConnection(sv[0]);
  std::vector<Reply> replies;
  ReadUntilEof(client, &replies);
  ASSERT_EQ(replies.size(), 3u);  // hello-ok + the forced close + bye
  EXPECT_EQ(replies[1].tag, ReplyTag::kSessionClosed);
  EXPECT_EQ(replies[1].session_id, 82u);
  EXPECT_EQ(replies[2].tag, ReplyTag::kBye);
  server.Stop();
  std::vector<netd::NetSessionOutcome> outcomes = server.TakeResults();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].aborted);
  EXPECT_EQ(server.live_session_bytes(), 0);
}

// ---------------------------------------------------------------------------
// Acceptor under fd exhaustion. accept4 failing with EMFILE leaves the connection queued, so
// the listener polls readable again at once; an acceptor that simply retried would spin a
// core for as long as the process is out of fds. The daemon runs in a forked child (the
// lowered RLIMIT_NOFILE and the exhausted fd table stay out of the test process) and reports
// what it measured over a pipe.

constexpr int64_t kQueuedClients = 4;

struct AcceptorProbe {
  int32_t setup_failed = 0;
  double cpu_ms = 0;   // daemon process CPU over the exhausted window
  double wall_ms = 0;  // length of that window
  int64_t accepted_while_exhausted = 0;
  int64_t accepted_after = 0;  // once the fds were freed again
};

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

bool ReadFull(int fd, void* data, size_t size) {
  auto* out = static_cast<char*>(data);
  while (size > 0) {
    ssize_t n = read(fd, out, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    out += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool WriteFull(int fd, const void* data, size_t size) {
  const auto* in = static_cast<const char*>(data);
  while (size > 0) {
    ssize_t n = write(fd, in, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    in += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// The forked daemon: listens, uses up every fd its lowered limit allows, sends its port,
// then waits for the test's go (clients queued) and measures.
[[noreturn]] void RunExhaustedDaemon(int commands, int reports) {
  AcceptorProbe probe;
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) != 0) {
    probe.setup_failed = 1;
  }
  limit.rlim_cur = std::min<rlim_t>(limit.rlim_cur, 256);  // keeps the fill loop short
  if (probe.setup_failed != 0 || setrlimit(RLIMIT_NOFILE, &limit) != 0) {
    probe.setup_failed = 1;
    uint16_t no_port = 0;
    WriteFull(reports, &no_port, sizeof(no_port));
    WriteFull(reports, &probe, sizeof(probe));
    _exit(1);
  }
  {
    netd::ServerOptions options;
    options.workers = 1;
    options.rings = 1;
    options.service.shards = 1;
    netd::NetServer server(options);
    std::vector<int> filler;
    for (int fd = dup(reports); fd >= 0; fd = dup(reports)) {
      filler.push_back(fd);
    }
    const uint16_t port = server.port();
    char go = 0;
    if (errno != EMFILE || !WriteFull(reports, &port, sizeof(port)) ||
        !ReadFull(commands, &go, 1)) {
      probe.setup_failed = 2;
    }
    const double cpu0 = ProcessCpuMs();
    const auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    probe.cpu_ms = ProcessCpuMs() - cpu0;
    probe.wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    probe.accepted_while_exhausted = server.stats().connections_accepted.load();
    for (int fd : filler) {
      close(fd);
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.stats().connections_accepted.load() < kQueuedClients &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    probe.accepted_after = server.stats().connections_accepted.load();
    WriteFull(reports, &probe, sizeof(probe));
    server.Stop();
  }
  _exit(0);
}

TEST(NetdAcceptorTest, FdExhaustionBacksOffInsteadOfSpinningAndRecovers) {
  int commands[2] = {-1, -1};
  int reports[2] = {-1, -1};
  ASSERT_EQ(pipe(commands), 0);
  ASSERT_EQ(pipe(reports), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(commands[1]);
    close(reports[0]);
    RunExhaustedDaemon(commands[0], reports[1]);
  }
  close(commands[0]);
  close(reports[1]);
  // Whatever happens below, the child is not left behind: closing the command pipe unblocks
  // a child still waiting for its go, and the kill covers a child that never reads it.
  struct Reap {
    pid_t pid;
    int commands;
    int reports;
    int status = -1;
    ~Reap() {
      close(commands);
      close(reports);
      if (status == -1) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
      }
    }
  } reap{pid, commands[1], reports[0]};

  uint16_t port = 0;
  ASSERT_TRUE(ReadFull(reports[0], &port, sizeof(port)));
  ASSERT_NE(port, 0) << "the daemon could not lower its fd limit";
  std::vector<netd::NetClient> clients(kQueuedClients);
  for (netd::NetClient& client : clients) {
    ASSERT_TRUE(client.Connect(port)) << client.error();  // completes in the backlog
  }
  const char go = 'g';
  ASSERT_TRUE(WriteFull(commands[1], &go, 1));
  AcceptorProbe probe;
  ASSERT_TRUE(ReadFull(reports[0], &probe, sizeof(probe)));
  ASSERT_EQ(waitpid(pid, &reap.status, 0), pid);
  EXPECT_TRUE(WIFEXITED(reap.status) && WEXITSTATUS(reap.status) == 0);

  ASSERT_EQ(probe.setup_failed, 0);
  EXPECT_EQ(probe.accepted_while_exhausted, 0) << "the fd table was meant to be full";
  EXPECT_LT(probe.cpu_ms, 0.1 * probe.wall_ms)
      << "an acceptor out of fds must back off, not spin (" << probe.cpu_ms << " ms CPU in "
      << probe.wall_ms << " ms)";
  EXPECT_EQ(probe.accepted_after, kQueuedClients) << "queued clients must be accepted once "
                                                     "fds free up";
}

}  // namespace
