// hangdoctord wire-protocol conformance battery (DESIGN.md section 3.9), over in-process
// socketpairs so the whole stack — FrameSplitter, HELLO negotiation, MuxStreamDecoder,
// admission control, the reply cap, drain — runs under the sanitizer legs with no real
// network. Each case is a protocol clause: version negotiation (v3 + v4 accepted, others
// rejected), frame round-trip byte-identity, 1-byte drip and fully-coalesced reads,
// oversized-length and truncated-frame rejection with a sticky per-connection error,
// structured BUSY admission replies, and graceful-drain report flush. One case forks a
// listening daemon out of file descriptors: its acceptor must back off, not spin.
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/hosts/mux_log.h"
#include "src/netd/client.h"
#include "src/netd/loadgen.h"
#include "src/netd/record_codec.h"
#include "src/netd/result_codec.h"
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

// One recorded study-app session of `seconds`: realistic header (full symbol table),
// realistic record stream, and a report the oracle path can reproduce.
std::string* RecordDonor(int64_t seconds, const std::string& leaf) {
  static const workload::Catalog catalog;
  workload::FleetJob job;
  job.spec = catalog.study_apps()[0];
  job.profile = droidsim::LgV10();
  job.seed = workload::FleetSeed(977, 0);
  job.session = simkit::Seconds(seconds);
  job.record_path = TempPath(leaf);
  workload::FleetJobResult result = workload::RunFleetJob(job);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.record_ok) << result.record_error;
  std::ifstream in(job.record_path, std::ios::binary);
  auto* data = new std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  EXPECT_FALSE(data->empty());
  return data;
}

// The small donor shared by most cases.
const std::string& DonorLogBytes() {
  static const std::string* bytes = RecordDonor(10, "donor.hdsl");
  return *bytes;
}

// A donor with a few hundred records, for cases that cut sessions to a record count.
const std::string& LongDonorLogBytes() {
  static const std::string* bytes = RecordDonor(120, "long_donor.hdsl");
  return *bytes;
}

// A v3 container holding `ids` copies of `donor`, split into wire frames.
std::vector<std::string> WireFrames(const std::vector<uint64_t>& ids, const std::string& donor) {
  std::vector<hangdoctor::SessionLogSlice> sessions;
  for (uint64_t id : ids) {
    sessions.push_back({telemetry::SessionId{id}, donor});
  }
  std::string container, error;
  EXPECT_TRUE(hangdoctor::MuxSessionLogs(sessions, {}, &container, &error)) << error;
  std::vector<std::string> frames;
  EXPECT_TRUE(netd::ContainerToWireFrames(container, &frames, &error)) << error;
  return frames;
}

// A v3 container holding `ids` copies of the donor log, split into wire frames.
std::vector<std::string> WireFrames(const std::vector<uint64_t>& ids) {
  return WireFrames(ids, DonorLogBytes());
}

netd::ServerOptions SocketpairOptions() {
  netd::ServerOptions options;
  options.listen = false;
  options.workers = 1;
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

// A client whose socket has a receive timeout gets false from ReadReply once it expires with
// no reply, instead of blocking forever. If the read is still blocked after a few seconds,
// the test hangs up the peer, so a client that never times out fails this case instead of
// hanging the battery.
TEST(NetdClientTest, ReadReplyReturnsFalseWhenTheReceiveTimeoutExpires) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  timeval timeout{};
  timeout.tv_usec = 100 * 1000;
  ASSERT_EQ(setsockopt(sv[1], SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  netd::NetClient client;
  client.Adopt(sv[1]);
  std::atomic<bool> returned{false};
  bool got_reply = true;
  std::chrono::steady_clock::duration waited{};
  std::thread reader([&] {
    const auto start = std::chrono::steady_clock::now();
    Reply reply;
    got_reply = client.ReadReply(&reply);
    waited = std::chrono::steady_clock::now() - start;
    returned.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (!returned.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  close(sv[0]);  // unblocks a reader that is still waiting: it then reads EOF
  reader.join();
  EXPECT_FALSE(got_reply);
  EXPECT_LT(waited, std::chrono::seconds(1)) << "ReadReply outlived its receive timeout";
  EXPECT_EQ(client.error(), "recv: timed out");
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
  // The last HELLO declares 2^32 + 3, which a uint32 cast would read as version 3.
  std::string wide = "HDSL";
  netd::PutVarint(&wide, (uint64_t{1} << 32) + 3);
  const std::pair<std::string, const char*> hellos[] = {
      {netd::BuildHello(0), "unsupported wire version"},
      {netd::BuildHello(2), "unsupported wire version"},
      {netd::BuildHello(5), "unsupported wire version"},
      {netd::BuildHello(99), "unsupported wire version"},
      {wide, "value out of range"},
  };
  for (const auto& [hello, want] : hellos) {
    netd::NetServer server(SocketpairOptions());
    netd::NetClient client = ConnectPair(server);
    ASSERT_TRUE(client.SendFrame(hello));
    Reply reply;
    ASSERT_TRUE(client.ReadReply(&reply));
    ASSERT_EQ(reply.tag, ReplyTag::kError);
    EXPECT_NE(reply.message.find(want), std::string::npos) << reply.message;
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

// Encoded results of the clean closes on one client connection that sends `frames` after its
// HELLO, in close order.
std::vector<std::string> ClientResults(const std::vector<std::string>& frames) {
  netd::NetServer server(SocketpairOptions());
  netd::NetClient client = ConnectPair(server);
  EXPECT_TRUE(client.SendHello(4));
  for (const std::string& frame : frames) {
    EXPECT_TRUE(client.SendFrame(frame));
  }
  std::vector<Reply> replies;
  ReadUntilEof(client, &replies);
  EXPECT_FALSE(replies.empty());
  if (!replies.empty()) {
    EXPECT_EQ(replies.back().tag, ReplyTag::kBye);
  }
  server.Stop();
  std::vector<std::string> results;
  for (netd::NetSessionOutcome& outcome : server.TakeResults()) {
    EXPECT_FALSE(outcome.aborted) << outcome.stream_error;
    results.push_back(netd::EncodeSessionResult(outcome.result));
  }
  return results;
}

// A session id reopened on the connection that closed it starts in a fresh arena: the
// decoder's entry, and the arena handle in it, died with the close. Each run of the session
// yields the result a fresh daemon gives it.
TEST(NetdProtocolTest, SessionReopenedOnItsConnectionAfterCloseGetsAFreshArena) {
  std::vector<std::string> session = WireFrames({61});
  const std::string end = session.back();  // the container end: BYE
  session.pop_back();
  std::vector<std::string> once = session;
  once.push_back(end);
  const std::vector<std::string> fresh = ClientResults(once);
  ASSERT_EQ(fresh.size(), 1u);
  std::vector<std::string> thrice;
  for (int run = 0; run < 3; ++run) {
    thrice.insert(thrice.end(), session.begin(), session.end());
  }
  thrice.push_back(end);
  const std::vector<std::string> reopened = ClientResults(thrice);
  ASSERT_EQ(reopened.size(), 3u);
  for (const std::string& result : reopened) {
    EXPECT_EQ(result, fresh[0]);
  }
}

// The replies of one worker link (a fleetd coordinator's connection) that sends `frames`
// after its HELLO, until the daemon closes it.
std::vector<Reply> WorkerLinkReplies(const std::vector<std::string>& frames) {
  netd::ServerOptions options = SocketpairOptions();
  options.allow_worker_role = true;
  netd::NetServer server(options);
  netd::NetClient link = ConnectPair(server);
  EXPECT_TRUE(link.SendHello(4, netd::HelloRole::kWorker));
  for (const std::string& frame : frames) {
    EXPECT_TRUE(link.SendFrame(frame));
  }
  std::vector<Reply> replies;
  ReadUntilEof(link, &replies);
  server.Stop();
  return replies;
}

std::vector<std::string> ShippedResults(const std::vector<Reply>& replies) {
  std::vector<std::string> results;
  for (const Reply& reply : replies) {
    if (reply.tag == ReplyTag::kSessionResult) {
      results.push_back(reply.result);
    }
  }
  return results;
}

// A kCtrlHandoff discard ends the session in the service and in the link's decoder at once,
// so when the coordinator sends the session back on the same link it opens in a fresh arena
// and ships the result a fresh daemon ships.
TEST(NetdProtocolTest, SessionReopenedOnAWorkerLinkAfterAHandoffGetsAFreshArena) {
  const std::vector<std::string> frames = WireFrames({62});
  const std::vector<std::string> fresh = ShippedResults(WorkerLinkReplies(frames));
  ASSERT_EQ(fresh.size(), 1u);
  // The open and the first half of the records, the handoff, then the whole session again.
  ASSERT_GT(frames.size(), 4u);
  std::vector<std::string> migrated(frames.begin(), frames.begin() + frames.size() / 2);
  migrated.push_back(netd::BuildHandoff(/*epoch=*/1, {62}));
  migrated.insert(migrated.end(), frames.begin(), frames.end());
  const std::vector<Reply> replies = WorkerLinkReplies(migrated);
  const auto ack = std::find_if(replies.begin(), replies.end(), [](const Reply& reply) {
    return reply.tag == ReplyTag::kHandoffAck;
  });
  ASSERT_NE(ack, replies.end());
  EXPECT_EQ(ack->discarded, 1u);
  EXPECT_EQ(ShippedResults(replies), fresh);
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

// One donor session `id` cut to its first `records` record frames, then closed: the open,
// the records and the close, without the container's end frame.
std::vector<std::string> TruncatedSessionFrames(uint64_t id, size_t records) {
  std::vector<std::string> frames = WireFrames({id}, LongDonorLogBytes());
  // open + records + close + end
  if (frames.size() < records + 3) {
    ADD_FAILURE() << "donor has " << frames.size() - 3 << " records, want " << records;
    return {};
  }
  std::vector<std::string> out(frames.begin(), frames.begin() + 1 + records);
  out.push_back(frames[frames.size() - 2]);
  return out;
}

// A connection dies mid-session (its peer resets it, or it commits a protocol error) while a
// calm neighbour on the same epoll worker is mid-stream: every session ends in exactly one
// outcome, the victim's aborted, and the neighbour's results are byte-identical to a run
// without the fault (under ASan: with no use after free).
struct KillRun {
  std::vector<std::pair<uint64_t, std::string>> calm;  // id -> encoded result
  std::vector<netd::NetSessionOutcome> victims;
};

enum class Kill { kNone, kPeerReset, kProtocolError };

KillRun RunKill(Kill kill) {
  netd::NetServer server(SocketpairOptions());
  netd::NetClient calm = ConnectPair(server);
  netd::NetClient victim = ConnectPair(server);
  EXPECT_TRUE(calm.SendHello(4));
  EXPECT_TRUE(victim.SendHello(4));

  // The calm sessions' first half: both open, neither closed.
  const std::vector<std::string> calm_frames = WireFrames({92, 93});
  const size_t half = calm_frames.size() / 2;
  int64_t frames_sent = 2;  // the HELLOs
  for (size_t i = 0; i < half; ++i) {
    EXPECT_TRUE(calm.SendFrame(calm_frames[i]));
    ++frames_sent;
  }
  if (kill != Kill::kNone) {
    // Two open sessions with a few dozen records each, no close.
    std::vector<std::string> frames = WireFrames({94, 95});
    for (size_t i = 0; i < 60; ++i) {
      EXPECT_TRUE(victim.SendFrame(frames[i]));
      ++frames_sent;
    }
  }
  // Every frame so far read and applied: all of both connections' sessions are live.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().frames_in.load() < frames_sent &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().frames_in.load(), frames_sent);
  EXPECT_EQ(server.live_sessions(), kill == Kill::kNone ? 2u : 4u);
  if (kill == Kill::kProtocolError) {
    EXPECT_TRUE(victim.SendFrame(WireFrames({96})[1]));  // a record for an unopened session
    std::vector<Reply> replies;
    while (replies.empty() || replies.back().tag != ReplyTag::kError) {
      Reply reply;
      if (!victim.ReadReply(&reply)) {
        break;
      }
      replies.push_back(reply);
    }
    EXPECT_EQ(replies.back().tag, ReplyTag::kError);
  }
  // Closing a socket with unread replies (hello-ok) resets the daemon's end.
  victim.Close();
  for (size_t i = half; i < calm_frames.size(); ++i) {
    EXPECT_TRUE(calm.SendFrame(calm_frames[i]));
  }

  std::vector<Reply> calm_replies;
  ReadUntilEof(calm, &calm_replies);
  EXPECT_TRUE(server.WaitIdle(30000));
  server.Stop();
  EXPECT_EQ(server.live_sessions(), 0u);
  EXPECT_EQ(server.live_session_bytes(), 0);
  EXPECT_EQ(calm_replies.back().tag, ReplyTag::kBye);
  EXPECT_EQ(calm_replies.back().sessions_closed, 2u);

  KillRun run;
  for (netd::NetSessionOutcome& outcome : server.TakeResults()) {
    if (outcome.id.value == 92 || outcome.id.value == 93) {
      EXPECT_FALSE(outcome.aborted) << outcome.stream_error;
      run.calm.emplace_back(outcome.id.value, netd::EncodeSessionResult(outcome.result));
    } else {
      run.victims.push_back(std::move(outcome));
    }
  }
  std::sort(run.calm.begin(), run.calm.end());
  return run;
}

TEST(NetdProtocolTest, ConnectionKilledMidSessionAbortsOnlyItsOwnSessions) {
  KillRun reference = RunKill(Kill::kNone);
  ASSERT_EQ(reference.calm.size(), 2u);
  EXPECT_TRUE(reference.victims.empty());
  for (Kill kill : {Kill::kPeerReset, Kill::kProtocolError}) {
    SCOPED_TRACE(kill == Kill::kPeerReset ? "peer reset" : "protocol error");
    KillRun run = RunKill(kill);
    EXPECT_EQ(run.calm, reference.calm);
    // Each of the victim's sessions ends exactly once, aborted.
    ASSERT_EQ(run.victims.size(), 2u);
    std::sort(run.victims.begin(), run.victims.end(),
              [](const auto& a, const auto& b) { return a.id.value < b.id.value; });
    EXPECT_EQ(run.victims[0].id.value, 94u);
    EXPECT_EQ(run.victims[1].id.value, 95u);
    const char* why = kill == Kill::kPeerReset ? "closed mid-session" : "protocol error";
    for (const netd::NetSessionOutcome& outcome : run.victims) {
      EXPECT_TRUE(outcome.aborted);
      EXPECT_NE(outcome.stream_error.find(why), std::string::npos) << outcome.stream_error;
    }
  }
}

// Replies are queued as records apply and sent once per read chunk. Sessions whose record
// counts straddle the 64-record boundaries must still each get their kSessionClosed before
// the BYE that counts them.
TEST(NetdProtocolTest, EveryCloseArrivesAheadOfByeAtAnySessionLength) {
  const std::vector<size_t> lengths = {63, 64, 65, 127, 128, 129};
  // Every record, plus each session's open and close.
  const size_t records = std::accumulate(lengths.begin(), lengths.end(), 2 * lengths.size());
  netd::NetServer server(SocketpairOptions());
  netd::NetClient client = ConnectPair(server);
  ASSERT_TRUE(client.SendHello(4));
  for (size_t i = 0; i < lengths.size(); ++i) {
    for (const std::string& frame : TruncatedSessionFrames(100 + i, lengths[i])) {
      ASSERT_TRUE(client.SendFrame(frame));
    }
  }
  ASSERT_TRUE(client.SendFrame(WireFrames({1}).back()));  // the container end: BYE
  std::vector<Reply> replies;
  ReadUntilEof(client, &replies);
  ASSERT_EQ(replies.size(), lengths.size() + 2);  // hello-ok + closes + bye
  EXPECT_EQ(replies.front().tag, ReplyTag::kHelloOk);
  for (size_t i = 1; i + 1 < replies.size(); ++i) {
    EXPECT_EQ(replies[i].tag, ReplyTag::kSessionClosed);
  }
  EXPECT_EQ(replies.back().tag, ReplyTag::kBye);
  EXPECT_EQ(replies.back().sessions_closed, lengths.size());
  EXPECT_TRUE(server.WaitIdle(30000));
  EXPECT_EQ(server.stats().records_applied.load(), static_cast<int64_t>(records));
}

// Replies until the BYE, giving up at `deadline` rather than blocking past it.
bool ReadUntilByeBefore(netd::NetClient& client, std::chrono::steady_clock::time_point deadline,
                        std::vector<Reply>* replies) {
  while (std::chrono::steady_clock::now() < deadline) {
    if (!client.DrainReplies(replies)) {
      return false;
    }
    if (!replies->empty() && replies->back().tag == ReplyTag::kBye) {
      return true;
    }
    pollfd pfd{client.fd(), POLLIN, 0};
    poll(&pfd, 1, 10);
  }
  return false;
}

// Session id -> encoded result of a run where connection A (sessions 111, 112) and connection
// B (121, 122) sit on different epoll workers and share the service's one shard. With
// `wedge`, A's first apply wedges its epoll worker: B must still close both sessions and get
// its BYE meanwhile, and A completes once released.
std::map<uint64_t, std::string> RunWedgeOnOneWorker(bool wedge) {
  auto release = std::make_shared<std::atomic<bool>>(!wedge);
  auto wedged = std::make_shared<std::atomic<bool>>(false);
  netd::ServerOptions options = SocketpairOptions();
  options.workers = 2;  // round-robin adoption: A on the first, B on the second
  options.service.shards = 1;
  options.before_apply = [release, wedged](uint64_t id) {
    if (id == 111 && !release->load()) {
      wedged->store(true);
      while (!release->load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  std::map<uint64_t, std::string> results;
  {
    netd::NetServer server(options);
    // A failed expectation below must still release the wedge before the server's
    // destructor joins the wedged worker.
    struct ReleaseOnExit {
      std::shared_ptr<std::atomic<bool>> flag;
      ~ReleaseOnExit() { flag->store(true); }
    } release_guard{release};
    netd::NetClient a = ConnectPair(server);
    netd::NetClient b = ConnectPair(server);
    EXPECT_TRUE(a.SendHello(4));
    for (const std::string& frame : WireFrames({111, 112})) {
      EXPECT_TRUE(a.SendFrame(frame));
    }
    if (wedge) {
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!wedged->load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_TRUE(wedged->load());
    }
    EXPECT_TRUE(b.SendHello(4));
    for (const std::string& frame : WireFrames({121, 122})) {
      EXPECT_TRUE(b.SendFrame(frame));
    }
    std::vector<Reply> b_replies;
    EXPECT_TRUE(ReadUntilByeBefore(
        b, std::chrono::steady_clock::now() + std::chrono::seconds(20), &b_replies))
        << "the other epoll worker's connection stalled behind the wedge";
    EXPECT_EQ(release->load(), !wedge) << "B finished while A's worker was still wedged";
    if (!b_replies.empty()) {
      EXPECT_EQ(b_replies.back().tag, ReplyTag::kBye);
      EXPECT_EQ(b_replies.back().sessions_closed, 2u);
    }
    release->store(true);
    std::vector<Reply> a_replies;
    ReadUntilEof(a, &a_replies);
    EXPECT_FALSE(a_replies.empty());
    if (!a_replies.empty()) {
      EXPECT_EQ(a_replies.back().tag, ReplyTag::kBye);
      EXPECT_EQ(a_replies.back().sessions_closed, 2u);
    }
    EXPECT_TRUE(server.WaitIdle(30000));
    server.Stop();
    for (netd::NetSessionOutcome& outcome : server.TakeResults()) {
      EXPECT_FALSE(outcome.aborted) << outcome.stream_error;
      results[outcome.id.value] = netd::EncodeSessionResult(outcome.result);
    }
  }
  return results;
}

TEST(NetdProtocolTest, WedgedApplyStallsOnlyItsOwnEpollWorker) {
  std::map<uint64_t, std::string> reference = RunWedgeOnOneWorker(false);
  ASSERT_EQ(reference.size(), 4u);
  std::map<uint64_t, std::string> wedged = RunWedgeOnOneWorker(true);
  EXPECT_EQ(wedged, reference);
}

// A client that streams sessions and never reads its replies must not grow the daemon's
// memory without bound: past kMaxUnsentReplyBytes of unsent replies the daemon stops reading
// it, and once it reads, everything completes.
TEST(NetdProtocolTest, ReplyCapPausesAClientThatDoesNotReadUntilItDoes) {
  netd::ServerOptions options = SocketpairOptions();
  options.allow_worker_role = true;  // kSessionResult replies: the largest there are
  netd::NetServer server(options);
  int sv[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // Small socket buffers: the daemon's unsent replies pile up in the daemon, and the client's
  // sends block soon after the daemon stops reading.
  int sndbuf = 4096;
  ASSERT_EQ(setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)), 0);
  ASSERT_EQ(setsockopt(sv[1], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)), 0);
  server.AdoptConnection(sv[0]);
  netd::NetClient client;
  client.Adopt(sv[1]);
  // About 360 reply bytes per session: the cap is reached within a few hundred of them.
  constexpr size_t kSessions = 500;
  std::vector<std::string> frames;
  for (uint64_t id = 1; id <= kSessions; ++id) {
    std::vector<std::string> session = WireFrames({id});
    frames.insert(frames.end(), session.begin(), session.end() - 1);
  }
  frames.push_back(WireFrames({1}).back());

  std::atomic<bool> sent{false};
  std::thread sender([&] {
    EXPECT_TRUE(client.SendHello(4, netd::HelloRole::kWorker));
    for (const std::string& frame : frames) {
      if (!client.SendFrame(frame)) {
        return;
      }
    }
    sent.store(true);
  });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.stats().reply_pauses.load() == 0 && !sent.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Paused with the client's sends still blocked: the daemon stopped reading it.
  EXPECT_EQ(server.stats().reply_pauses.load(), 1);
  EXPECT_FALSE(sent.load());
  EXPECT_LT(server.stats().sessions_closed.load(), static_cast<int64_t>(kSessions));

  std::vector<Reply> replies;
  ReadUntilEof(client, &replies);
  sender.join();
  EXPECT_TRUE(sent.load());
  size_t closed = 0, results = 0;
  for (const Reply& reply : replies) {
    closed += reply.tag == ReplyTag::kSessionClosed ? 1 : 0;
    results += reply.tag == ReplyTag::kSessionResult ? 1 : 0;
  }
  EXPECT_EQ(closed, kSessions);
  EXPECT_EQ(results, kSessions);
  ASSERT_FALSE(replies.empty());
  EXPECT_EQ(replies.back().tag, ReplyTag::kBye);
  EXPECT_EQ(replies.back().sessions_closed, kSessions);
  EXPECT_GE(server.stats().reply_pauses.load(), 1);
  EXPECT_EQ(server.stats().sessions_aborted.load(), 0);
  EXPECT_TRUE(server.WaitIdle(30000));
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
