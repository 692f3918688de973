#include "src/netd/loadgen.h"

#include <chrono>
#include <thread>
#include <utility>

#include "src/netd/client.h"
#include "src/netd/record_codec.h"
#include "src/simkit/rng.h"

namespace netd {

namespace {

void CountReplies(const std::vector<Reply>& replies, ConnectionOutcome* outcome,
                  int64_t* closed, int64_t* busy, int64_t* errors) {
  for (const Reply& reply : replies) {
    switch (reply.tag) {
      case ReplyTag::kSessionClosed:
        ++*closed;
        break;
      case ReplyTag::kBusy:
        ++*busy;
        break;
      case ReplyTag::kError:
        ++*errors;
        break;
      default:
        break;
    }
    outcome->replies.push_back(reply);
  }
}

void RunConnection(uint16_t port, const std::vector<hangdoctor::SessionLogSlice>& sessions,
                   const LoadGenOptions& options, uint64_t index, ConnectionOutcome* outcome,
                   int64_t* closed, int64_t* busy, int64_t* errors) {
  // The chaos plan for connection c is a pure function of (seed, c): same topology, same
  // faults, regardless of thread scheduling.
  simkit::Rng rng(options.seed, /*stream=*/index + 1);
  size_t cut_frame = 0;
  bool torn = false;
  if (options.chaos && rng.Bernoulli(0.5)) {  // odds: LoadGenOptions::chaos
    outcome->chaos_disconnect = true;
    torn = rng.Bernoulli(0.5);
  }

  std::string container;
  std::string error;
  if (!hangdoctor::MuxSessionLogs(sessions, {}, &container, &error)) {
    outcome->error = "mux: " + error;
    return;
  }
  std::vector<std::string> frames;
  if (!ContainerToWireFrames(container, &frames, &error)) {
    outcome->error = "split: " + error;
    return;
  }
  if (outcome->chaos_disconnect) {
    // Drop somewhere strictly inside the stream: after HELLO, before the container end.
    cut_frame = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(frames.size()) - 1));
    outcome->chaos_torn = torn;
  }

  NetClient client;
  if (!client.Connect(port)) {
    outcome->error = client.error();
    return;
  }
  if (!client.SendHello(kWireVersionMax)) {
    outcome->error = client.error();
    return;
  }
  Reply hello;
  if (!client.ReadReply(&hello) || hello.tag != ReplyTag::kHelloOk) {
    outcome->error = "hello rejected: " + client.error();
    return;
  }

  auto frame_interval =
      options.rate > 0.0
          ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::duration<double>(1.0 / options.rate))
          : std::chrono::nanoseconds(0);
  std::vector<Reply> drained;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (outcome->chaos_disconnect && i == cut_frame) {
      if (torn && !frames[i].empty()) {
        client.SendTornFrame(frames[i], frames[i].size() / 2);
      } else {
        client.Close();
      }
      return;  // replies die with the socket; the daemon aborts our live sessions
    }
    if (!client.SendFrame(frames[i], options.chunk)) {
      outcome->error = client.error();
      return;
    }
    ++outcome->frames_sent;
    if (frame_interval.count() > 0) {
      std::this_thread::sleep_for(frame_interval);
    }
    if ((i & 63u) == 63u) {
      // Keep the reply stream drained so neither side's socket buffer becomes the bottleneck.
      drained.clear();
      client.DrainReplies(&drained);
      CountReplies(drained, outcome, closed, busy, errors);
    }
  }

  // BYE went out with the last container frame; wait for the daemon's kBye.
  while (true) {
    Reply reply;
    if (!client.ReadReply(&reply)) {
      outcome->error = client.error();
      return;
    }
    CountReplies({reply}, outcome, closed, busy, errors);
    if (reply.tag == ReplyTag::kBye) {
      outcome->completed = true;
      return;
    }
    if (reply.tag == ReplyTag::kError) {
      return;  // sticky reject: the daemon will close on us
    }
  }
}

}  // namespace

LoadGenResult RunLoadGen(uint16_t port, std::span<const hangdoctor::SessionLogSlice> sessions,
                         const LoadGenOptions& options) {
  int32_t connections = options.connections < 1 ? 1 : options.connections;
  LoadGenResult result;
  result.connections.resize(static_cast<size_t>(connections));

  // Round-robin assignment: session i rides connection i % connections.
  std::vector<std::vector<hangdoctor::SessionLogSlice>> per_conn(
      static_cast<size_t>(connections));
  for (size_t i = 0; i < sessions.size(); ++i) {
    size_t c = i % static_cast<size_t>(connections);
    per_conn[c].push_back(sessions[i]);
    result.connections[c].sessions.push_back(sessions[i].id.value);
  }

  std::vector<int64_t> closed(per_conn.size(), 0), busy(per_conn.size(), 0),
      errors(per_conn.size(), 0);
  std::vector<std::thread> threads;
  threads.reserve(per_conn.size());
  for (size_t c = 0; c < per_conn.size(); ++c) {
    threads.emplace_back([&, c] {
      RunConnection(port, per_conn[c], options, c, &result.connections[c], &closed[c],
                    &busy[c], &errors[c]);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (size_t c = 0; c < per_conn.size(); ++c) {
    result.sessions_closed += closed[c];
    result.busy += busy[c];
    result.errors += errors[c];
  }
  return result;
}

}  // namespace netd
