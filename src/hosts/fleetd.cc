// fleetd: the distributed-fleet coordinator daemon. Links to N hangdoctord workers
// (started with --worker), accepts plain hangdoctor wire-protocol clients on its own port,
// and routes every client session's frames to the worker owning that session-id range —
// the clients speak to fleetd exactly as they would to a single hangdoctord, while the
// shard group behind it migrates, fences, and fails over (src/fleetd/coordinator.h).
// fleetd validates at its edge: each client frame goes through the client's own
// MuxStreamDecoder (src/hosts/mux_log.h) before it is routed, so a frame that breaks the
// stream contract answers kError and closes that client, and never reaches a worker link.
//
// Usage:
//   fleetd --worker-port=N [--worker-port=N ...] [--port=N] [--max-sessions=N]
//          [--lease-ms=N] [--heartbeat-ms=N]
//
// --port=0 (default) binds an ephemeral port; the banner "fleetd listening on port N" names
// it (scripts/fleetd_smoke.sh parses this). Session ids 1..max-sessions are partitioned
// into contiguous per-worker ranges up front. On SIGTERM/SIGINT fleetd stops reading from
// every client still connected, folds the fleet report — bit-identical to a single
// hangdoctord ingesting the same sessions — prints it, and exits 0 with the same
// "drained clean: N sessions, M aborted" line hangdoctord emits.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/fleetd/coordinator.h"
#include "src/hosts/mux_log.h"
#include "src/netd/wire.h"
#include "src/simkit/flags.h"

namespace {

// One client connection: reads frames on its own thread, routes them, and answers with the
// per-session kSessionClosed replies (pushed by the coordinator's done callback) plus the
// final kBye. Writes are serialized by `write_mu` — the done callback lands on coordinator
// threads while the conn thread answers HELLO/BYE — and so is closing `fd`, so a late done
// callback finds fd == -1 instead of sending on a closed (or reused) descriptor number.
struct ClientConn {
  int fd = -1;
  std::mutex write_mu;
  std::mutex mu;
  std::condition_variable cv;
  std::unordered_set<uint64_t> pending;  // sessions opened here, not yet concluded
  uint64_t closed = 0;                   // sessions concluded clean
  std::atomic<bool> finished{false};     // ServeClient returned: its thread can be joined

  bool Send(const std::string& payload) {
    std::string frame;
    netd::AppendFrame(&frame, payload);
    std::lock_guard<std::mutex> lock(write_mu);
    if (fd < 0) {
      return false;
    }
    size_t off = 0;
    while (off < frame.size()) {
      ssize_t n = send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }
};

struct FrontEnd {
  fleetd::Coordinator* coordinator = nullptr;
  // Every client's decoder parses symbol tables through this one pool.
  std::shared_ptr<hangdoctor::SymbolTableCache> symbol_tables =
      std::make_shared<hangdoctor::SymbolTableCache>();
  std::mutex mu;
  std::unordered_map<uint64_t, std::shared_ptr<ClientConn>> session_conns;

  void OnSessionDone(uint64_t id, bool aborted) {
    std::shared_ptr<ClientConn> conn;
    {
      std::lock_guard<std::mutex> lock(mu);
      auto it = session_conns.find(id);
      if (it == session_conns.end()) {
        return;
      }
      conn = it->second;
      session_conns.erase(it);
    }
    if (!aborted) {
      conn->Send(netd::BuildSessionClosed(id, /*stream_ok=*/true, 0, ""));
    }
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->pending.erase(id);
    if (!aborted) {
      ++conn->closed;
    }
    conn->cv.notify_all();
  }

  // True when `conn` may open `id` (no other live connection holds it).
  bool ClaimSession(uint64_t id, const std::shared_ptr<ClientConn>& conn) {
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = session_conns.emplace(id, conn);
    return inserted || it->second == conn;
  }
};

void ServeClient(FrontEnd* front, std::shared_ptr<ClientConn> conn) {
  netd::FrameSplitter splitter;
  hangdoctor::MuxStreamDecoder decoder(front->symbol_tables);
  hangdoctor::DecodedFrame decoded;  // reused for every frame
  bool hello_done = false;
  bool bye = false;
  std::string payload;
  char buf[16 * 1024];
  while (!bye) {
    while (!bye && splitter.Next(&payload)) {
      if (!hello_done) {
        uint32_t version = 0;
        netd::HelloRole role = netd::HelloRole::kClient;
        std::string error;
        if (!netd::ParseHello(payload, &version, &role, &error) ||
            version < netd::kWireVersionMin || version > netd::kWireVersionMax ||
            role != netd::HelloRole::kClient) {
          conn->Send(netd::BuildError("hello rejected"));
          goto done;
        }
        conn->Send(netd::BuildHelloOk(version));
        hello_done = true;
        continue;
      }
      if (!decoder.Decode(payload, &decoded)) {
        conn->Send(netd::BuildError(decoder.error()));
        goto done;
      }
      if (decoded.kind == hangdoctor::DecodedFrame::Kind::kBye) {
        bye = true;
        break;
      }
      if (decoded.kind == hangdoctor::DecodedFrame::Kind::kEpochPublish) {
        continue;  // no session bytes; the workers replay their own publish schedules
      }
      uint64_t id = decoded.id.value;
      if (decoded.kind == hangdoctor::DecodedFrame::Kind::kOpen) {
        if (!front->ClaimSession(id, conn)) {
          conn->Send(netd::BuildError("session id already owned by another connection"));
          goto done;
        }
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->pending.insert(id);
      }
      std::string error;
      if (!front->coordinator->RouteFrame(id, payload, &error)) {
        conn->Send(netd::BuildError("route: " + error));
        goto done;
      }
    }
    // The coordinator batches worker writes; this chunk's frames (a close among them, or
    // the last frames before BYE) must not wait for another client's bytes to fill a batch.
    front->coordinator->Flush();
    if (bye || !splitter.ok()) {
      break;
    }
    ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      goto done;
    }
    splitter.Feed(buf, static_cast<size_t>(n));
  }
  if (bye) {
    // Every routed close produces a done callback (result or abort); wait, then BYE.
    std::unique_lock<std::mutex> lock(conn->mu);
    conn->cv.wait_for(lock, std::chrono::minutes(5), [&] { return conn->pending.empty(); });
    uint64_t closed = conn->closed;
    lock.unlock();
    conn->Send(netd::BuildBye(closed));
  }
done:
  std::lock_guard<std::mutex> lock(conn->write_mu);
  close(conn->fd);
  conn->fd = -1;
  conn->finished.store(true);
}

}  // namespace

int main(int argc, char** argv) {
  using simkit::FlagInt;
  std::vector<uint16_t> worker_ports;
  uint16_t listen_port = 0;
  uint64_t max_sessions = 0;
  int64_t lease_ms = 0;
  int64_t heartbeat_ms = 0;
  try {
    for (std::string_view port : simkit::FlagStrings(argc, argv, "--worker-port=")) {
      worker_ports.push_back(simkit::ParseFlag<uint16_t>("--worker-port=", port));
    }
    listen_port = static_cast<uint16_t>(FlagInt(argc, argv, "--port=", 0));
    max_sessions = static_cast<uint64_t>(FlagInt(argc, argv, "--max-sessions=", 1 << 20));
    lease_ms = FlagInt(argc, argv, "--lease-ms=", 2000);
    heartbeat_ms = FlagInt(argc, argv, "--heartbeat-ms=", 200);
  } catch (const simkit::FlagError& e) {
    std::fprintf(stderr, "fleetd: %s\n", e.what());
    return 2;
  }
  if (worker_ports.empty()) {
    std::fprintf(stderr, "fleetd: at least one --worker-port=N required\n");
    return 1;
  }

  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  try {
    FrontEnd front;
    fleetd::CoordinatorOptions options;
    for (uint16_t port : worker_ports) {
      options.workers.push_back(fleetd::WorkerEndpoint{.port = port, .fd = -1});
    }
    options.lease_timeout_ms = lease_ms;
    options.on_session_done = [&front](uint64_t id, bool aborted) {
      // Runs under the coordinator lock: hand the socket work to the front end, which never
      // re-enters the coordinator from here.
      front.OnSessionDone(id, aborted);
    };
    fleetd::Coordinator coordinator(options);
    front.coordinator = &coordinator;
    coordinator.AssignRange(1, max_sessions);

    // Liveness beats on real time (the in-process drivers inject a virtual clock instead).
    std::atomic<bool> stop{false};
    std::thread heartbeat([&] {
      auto start = std::chrono::steady_clock::now();
      while (!stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(heartbeat_ms));
        auto now = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
        coordinator.Pulse(now);
      }
    });

    int listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    int one = 1;
    setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(listen_port);
    if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        listen(listen_fd, 128) != 0) {
      std::fprintf(stderr, "fleetd: bind/listen failed: %s\n", std::strerror(errno));
      return 1;
    }
    socklen_t addr_len = sizeof(addr);
    getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
    std::printf("fleetd listening on port %u (%zu workers, sessions 1..%llu)\n",
                ntohs(addr.sin_port), worker_ports.size(),
                static_cast<unsigned long long>(max_sessions));
    std::fflush(stdout);

    // A finished thread keeps its stack until it is joined, so each accept first reaps the
    // clients that are done: retained stacks stay bounded by the live clients.
    std::vector<std::pair<std::thread, std::shared_ptr<ClientConn>>> clients;
    std::thread acceptor([&] {
      while (true) {
        int fd = accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) {
          if (errno == EINTR) {
            continue;
          }
          return;  // listener closed: shutting down
        }
        std::erase_if(clients, [](auto& client) {
          if (!client.second->finished.load()) {
            return false;
          }
          client.first.join();
          return true;
        });
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_shared<ClientConn>();
        conn->fd = fd;
        clients.emplace_back(std::thread(ServeClient, &front, conn), conn);
      }
    });

    int sig = 0;
    sigwait(&mask, &sig);
    std::printf("fleetd: signal %d, draining\n", sig);
    std::fflush(stdout);

    // close() alone does not wake a thread blocked in accept4 on Linux; shutdown() does
    // (the accept returns EINVAL and the acceptor exits).
    shutdown(listen_fd, SHUT_RDWR);
    close(listen_fd);
    acceptor.join();
    // A connected but silent client keeps its thread blocked in recv, and the join below
    // would wait for it forever: shut down the read side of every connection still open, so
    // the recv returns and the thread ends. ServeClient closes its fd under `write_mu`, so
    // a connection already closed reads fd == -1 here and is skipped.
    for (auto& client : clients) {
      std::lock_guard<std::mutex> lock(client.second->write_mu);
      if (client.second->fd >= 0) {
        shutdown(client.second->fd, SHUT_RD);
      }
    }
    for (auto& client : clients) {
      client.first.join();
    }
    coordinator.WaitForResults(10000);
    fleetd::FleetReport report = coordinator.Finish();
    stop.store(true);
    heartbeat.join();

    size_t aborted = 0;
    std::vector<hangdoctor::SessionResult> clean;
    for (auto& outcome : report.outcomes) {
      if (outcome.aborted) {
        ++aborted;
      } else {
        clean.push_back(std::move(outcome.result));
      }
    }
    int32_t devices = static_cast<int32_t>(clean.size());
    std::printf("%s", report.merged.Render(devices > 0 ? devices : 1).c_str());
    if (report.stats.failovers > 0 || report.stats.migrated > 0) {
      std::printf("fleet: %lld migrated, %lld recovered, %lld failovers, epoch %llu\n",
                  static_cast<long long>(report.stats.migrated),
                  static_cast<long long>(report.stats.recovered),
                  static_cast<long long>(report.stats.failovers),
                  static_cast<unsigned long long>(coordinator.epoch()));
    }
    std::printf("drained clean: %zu sessions, %zu aborted\n", clean.size(), aborted);
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetd: %s\n", e.what());
    return 1;
  }
  return 0;
}
