#include "src/netd/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/netd/record_codec.h"
#include "src/netd/result_codec.h"
#include "src/netd/wire.h"
#include "src/telemetry/session.h"

namespace netd {

namespace hd = hangdoctor;

namespace {

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

void SignalEventFd(int fd) {
  uint64_t one = 1;
  ssize_t rc = write(fd, &one, sizeof(one));
  (void)rc;  // a full eventfd counter still wakes the reader
}

}  // namespace

struct Connection;

// One in-flight HANDOFF order: `remaining` discards still traveling the rings; the last
// one to land acks the coordinator with the tally.
struct HandoffState {
  uint64_t epoch = 0;
  std::atomic<int64_t> remaining{0};
  std::atomic<uint64_t> discarded{0};
};

// A decoded record on its way through the service's shard rings: the SPI payload the shard
// worker applies, plus what it needs to answer for it. Records are pooled per epoll worker:
// the epoll worker takes one per routed record, the shard worker hands it back after the
// batch that carried it has been applied.
struct NetRecord : hd::SpiPayload {
  telemetry::SessionId id{0};
  std::shared_ptr<Connection> conn;
  std::shared_ptr<hd::SessionLog> log;    // open/close: keeps the symbol table alive
  int64_t estimate = 0;                   // open/close/abort/handoff: the budget charge
  std::shared_ptr<HandoffState> handoff;  // kSessionHandoff
  std::string reason;                     // kSessionAbort
  NetRecord* next = nullptr;              // pool link
};

struct Connection {
  int fd = -1;
  int worker = 0;
  FrameSplitter splitter;
  MuxStreamDecoder decoder;
  DecodedFrame frame;  // reused for every decoded frame
  bool hello_done = false;
  // Set at HELLO, before any record is routed from this connection; the ring push/pop pair
  // publishes it to the shard workers.
  HelloRole role = HelloRole::kClient;

  // Worker-thread-only state.
  std::unordered_map<uint64_t, int64_t> live;  // admitted sessions → budget charge
  std::unordered_set<uint64_t> refused;        // kBusy'd sessions: records dropped
  std::string out;                             // write buffer (worker-owned)
  bool reading = true;
  bool want_write = false;
  bool want_bye = false;
  bool bye_sent = false;
  bool dead = false;       // sticky protocol error: no further reads/decodes
  bool peer_gone = false;  // EOF/reset: no further writes either
  bool closing = false;    // close once out is flushed and records have landed
  NetRecord* parked = nullptr;  // decoded, waiting for ring space (EPOLLIN off meanwhile)

  // Cross-thread state (shard workers touch these).
  std::mutex reply_mu;
  std::string replies;          // shard-encoded reply frames, drained into `out`
  std::string apply_error_msg;  // guarded by reply_mu
  std::atomic<bool> apply_error{false};
  std::atomic<bool> wake_queued{false};  // on its worker's ready list
  std::atomic<int64_t> pending{0};       // records routed but not yet applied
  std::atomic<uint64_t> closed_count{0};
  std::atomic<bool> closed{false};  // fd gone: shard workers stop enqueueing replies

  Connection(size_t max_frame, std::shared_ptr<hd::SymbolTableCache> symbol_tables)
      : splitter(max_frame), decoder(std::move(symbol_tables)) {}
};

struct WorkerState {
  int index = 0;
  int epfd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::mutex inbox_mu;
  std::vector<int> inbox;                          // adopted fds (guarded by inbox_mu)
  std::vector<std::shared_ptr<Connection>> ready;  // shard-worker news (guarded by inbox_mu)
  std::unordered_map<int, std::shared_ptr<Connection>> conns;  // worker-thread only
  std::vector<std::shared_ptr<Connection>> parked;  // worker-thread only: awaiting ring space
  std::atomic<bool> wants_space{false};
  std::unique_ptr<hd::DetectorService::Ingestor> ingestor;
  // Record pool: `records` owns every record this worker ever allocated; `free_records` is
  // the worker's own free list and `returned` the stack shard workers push spent records on.
  std::vector<std::unique_ptr<NetRecord>> records;
  NetRecord* free_records = nullptr;
  std::atomic<NetRecord*> returned{nullptr};
  bool drain_started = false;
};

struct NetServer::Impl {
  ServerOptions opt;
  NetServer* self = nullptr;
  // One pool for every connection's decoder: byte-identical symbol tables are parsed once
  // and shared by all live sessions that carry them, whichever connection sent them.
  std::shared_ptr<hd::SymbolTableCache> symbol_tables = std::make_shared<hd::SymbolTableCache>();

  std::vector<std::unique_ptr<WorkerState>> workers;
  // Per service shard: records routed (Ingestor push) but not yet applied. A record is only
  // routed while its shard is under opt.ring_capacity, which is what bounds records in
  // flight per ring; control records (abort, handoff, drain closes) may overshoot.
  std::unique_ptr<std::atomic<int64_t>[]> inflight;
  size_t shards = 1;

  // Per-shard scratch of the shard worker applying that shard's batch (one at a time).
  struct BatchScratch {
    std::vector<std::pair<std::shared_ptr<Connection>, int64_t>> touched;  // + records
    std::vector<const Connection*> replied;
    std::vector<bool> signal;  // per epoll worker
  };
  std::vector<BatchScratch> scratch;

  std::mutex results_mu;
  std::vector<NetSessionOutcome> results;

  std::atomic<bool> draining{false};
  std::atomic<bool> stopping{false};
  std::atomic<uint32_t> next_worker{0};
  bool stopped = false;

  // Lease / fencing state (worker-role control frames). lease_epoch is the newest epoch any
  // control frame carried; an older epoch marks its sender as a fenced, superseded
  // coordinator. applier_stuck / lease_failed are the watchdog's verdicts.
  std::atomic<uint64_t> lease_epoch{0};
  std::atomic<bool> applier_stuck{false};
  std::atomic<bool> lease_failed{false};
  std::atomic<bool> watchdog_stop{false};
  std::thread watchdog;

  int listen_fd = -1;
  int accept_stop_fd = -1;
  std::thread acceptor;

  // ---- routing (epoll worker side) ----

  size_t ShardOf(telemetry::SessionId id) const { return telemetry::ShardOf(id, shards); }

  NetRecord* NewRecord(WorkerState& wk, const std::shared_ptr<Connection>& conn,
                       telemetry::SessionId id, hd::SpiPayload::Kind kind) {
    if (wk.free_records == nullptr) {
      wk.free_records = wk.returned.exchange(nullptr, std::memory_order_acquire);
    }
    NetRecord* rec = wk.free_records;
    if (rec == nullptr) {
      wk.records.push_back(std::make_unique<NetRecord>());
      rec = wk.records.back().get();
    } else {
      wk.free_records = rec->next;
    }
    rec->kind = kind;
    rec->id = id;
    rec->conn = conn;
    rec->estimate = 0;
    return rec;
  }

  // Hands a record to the worker's Ingestor, behind everything this connection routed
  // before it; the end-of-round flush ships it.
  void Push(WorkerState& wk, NetRecord* rec) {
    inflight[ShardOf(rec->id)].fetch_add(1, std::memory_order_relaxed);
    rec->conn->pending.fetch_add(1, std::memory_order_relaxed);
    wk.ingestor->Push(hd::ServiceRecordRef{rec->id, rec, rec->conn.get()});
  }

  // Session records respect the per-ring cap: at the cap the record parks on its connection,
  // whose reads pause (TCP backpressure) until a shard worker frees ring space. A drain
  // waives the cap: it takes in only what already arrived, and must take all of it.
  void Route(WorkerState& wk, const std::shared_ptr<Connection>& conn, NetRecord* rec) {
    if (!draining.load(std::memory_order_relaxed) &&
        inflight[ShardOf(rec->id)].load(std::memory_order_relaxed) >= opt.ring_capacity) {
      self->stats_.backpressure_pauses.fetch_add(1, std::memory_order_relaxed);
      conn->parked = rec;
      wk.parked.push_back(conn);
      return;
    }
    Push(wk, rec);
  }

  // Control records must land behind the parked record, so it goes first, cap or not.
  void Unpark(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    if (conn->parked != nullptr) {
      Push(wk, std::exchange(conn->parked, nullptr));
    }
  }

  void RetryParked(WorkerState& wk) {
    if (wk.parked.empty()) {
      return;
    }
    // Register for a ring-space wake before rechecking: seq_cst pairs with AfterBatch's
    // decrement-then-check, so either the shard worker sees the registration or the
    // recheck below sees the space.
    wk.wants_space.store(true, std::memory_order_seq_cst);
    std::vector<std::shared_ptr<Connection>> parked;
    parked.swap(wk.parked);
    for (const std::shared_ptr<Connection>& conn : parked) {
      if (conn->parked == nullptr) {
        continue;  // pushed meanwhile ahead of a control record
      }
      if (inflight[ShardOf(conn->parked->id)].load(std::memory_order_seq_cst) >=
          opt.ring_capacity) {
        wk.parked.push_back(conn);
        continue;
      }
      Push(wk, std::exchange(conn->parked, nullptr));
      UpdateEvents(wk, conn);
      ProcessFrames(wk, conn);  // keep decoding what was already buffered
      MaybeFinish(wk, conn);
    }
  }

  // ---- worker side ----

  void UpdateEvents(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    if (conn->closed.load()) {
      return;
    }
    epoll_event ev{};
    ev.data.fd = conn->fd;
    ev.events = 0;
    if (conn->reading && !conn->dead && conn->parked == nullptr && !conn->closing) {
      ev.events |= EPOLLIN;
    }
    if (conn->want_write) {
      ev.events |= EPOLLOUT;
    }
    epoll_ctl(wk.epfd, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  void CloseConn(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    if (conn->closed.exchange(true)) {
      return;
    }
    epoll_ctl(wk.epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
    close(conn->fd);
    wk.conns.erase(conn->fd);
    self->live_connections_.fetch_sub(1, std::memory_order_relaxed);
  }

  void FlushWrites(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    if (conn->closed.load() || conn->peer_gone) {
      conn->out.clear();
      return;
    }
    size_t off = 0;
    while (off < conn->out.size()) {
      // MSG_NOSIGNAL: a peer that reset mid-reply must surface as EPIPE, not kill the
      // daemon with SIGPIPE.
      ssize_t n = send(conn->fd, conn->out.data() + off, conn->out.size() - off,
                       MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      // Peer reset under us: replies are undeliverable, stop producing them.
      conn->peer_gone = true;
      conn->out.clear();
      return;
    }
    conn->out.erase(0, off);
    bool want = !conn->out.empty();
    if (want != conn->want_write) {
      conn->want_write = want;
      UpdateEvents(wk, conn);
    }
  }

  void SendReply(WorkerState& wk, const std::shared_ptr<Connection>& conn,
                 const std::string& payload) {
    AppendFrame(&conn->out, payload);
    FlushWrites(wk, conn);
  }

  void AbortLiveSessions(WorkerState& wk, const std::shared_ptr<Connection>& conn,
                         const std::string& reason) {
    Unpark(wk, conn);
    for (const auto& [id, est] : conn->live) {
      NetRecord* rec = NewRecord(wk, conn, telemetry::SessionId{id},
                                 hd::SpiPayload::Kind::kSessionAbort);
      rec->estimate = est;
      rec->reason = reason;
      Push(wk, rec);
    }
    conn->live.clear();
    conn->refused.clear();
  }

  void ProtocolError(WorkerState& wk, const std::shared_ptr<Connection>& conn,
                     const std::string& message) {
    if (conn->dead) {
      return;
    }
    self->stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    conn->dead = true;
    conn->reading = false;
    SendReply(wk, conn, BuildError(message));
    AbortLiveSessions(wk, conn, "protocol error: " + message);
    conn->closing = true;
    UpdateEvents(wk, conn);
    MaybeFinish(wk, conn);
  }

  void PeerGone(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    conn->peer_gone = true;
    conn->reading = false;
    conn->out.clear();
    AbortLiveSessions(wk, conn, "connection closed mid-session");
    conn->closing = true;
    MaybeFinish(wk, conn);
  }

  void MaybeFinish(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    if (conn->closed.load()) {
      return;
    }
    bool idle = conn->pending.load(std::memory_order_acquire) == 0 && conn->parked == nullptr;
    if (!idle) {
      return;
    }
    // pending == 0 guarantees every shard-worker reply for this connection has been
    // enqueued (replies are enqueued before the batch's pending decrement). Drain them into
    // the write buffer NOW — the bye/close decision below must never outrun a
    // kSessionClosed still sitting in `replies`, or the peer loses replies already earned.
    TakeReplies(conn);
    if (conn->want_bye && !conn->bye_sent && !conn->peer_gone && !conn->dead) {
      conn->bye_sent = true;
      SendReply(wk, conn, BuildBye(conn->closed_count.load()));
      conn->closing = true;
    }
    if (!conn->out.empty()) {
      FlushWrites(wk, conn);
    }
    if (conn->closing && (conn->out.empty() || conn->peer_gone)) {
      CloseConn(wk, conn);
    }
  }

  void TakeReplies(const std::shared_ptr<Connection>& conn) {
    std::lock_guard<std::mutex> lock(conn->reply_mu);
    if (!conn->replies.empty()) {
      conn->out.append(conn->replies);
      conn->replies.clear();
    }
  }

  void HandleFrame(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    DecodedFrame& dec = conn->frame;
    switch (dec.kind) {
      case DecodedFrame::Kind::kOpen: {
        (dec.shared_symbols ? self->stats_.symbol_tables_shared : self->stats_.symbol_tables_parsed)
            .fetch_add(1, std::memory_order_relaxed);
        int64_t est = static_cast<int64_t>(dec.open_bytes) + opt.session_overhead_bytes;
        int64_t live_now = self->live_session_bytes_.load(std::memory_order_relaxed);
        if (live_now + est > opt.session_budget_bytes) {
          self->stats_.sessions_refused.fetch_add(1, std::memory_order_relaxed);
          conn->refused.insert(dec.id.value);
          SendReply(wk, conn,
                    BuildBusy(dec.id.value, static_cast<uint64_t>(live_now),
                              static_cast<uint64_t>(opt.session_budget_bytes)));
          return;
        }
        self->live_session_bytes_.fetch_add(est, std::memory_order_relaxed);
        conn->live[dec.id.value] = est;
        NetRecord* rec = NewRecord(wk, conn, dec.id, hd::SpiPayload::Kind::kSessionOpen);
        rec->info = std::move(dec.record.record.info);
        rec->config = std::move(dec.record.record.config);
        rec->log = dec.log;
        rec->estimate = est;
        Route(wk, conn, rec);
        return;
      }
      case DecodedFrame::Kind::kRecord: {
        if (dec.skip || conn->refused.count(dec.id.value) != 0) {
          return;
        }
        NetRecord* rec = NewRecord(wk, conn, dec.id, dec.record.record.kind);
        static_cast<hd::SpiPayload&>(*rec) = std::move(dec.record.record);
        Route(wk, conn, rec);
        return;
      }
      case DecodedFrame::Kind::kClose: {
        if (conn->refused.erase(dec.id.value) != 0) {
          return;  // the open was kBusy'd; nothing to close
        }
        int64_t est = 0;
        if (auto it = conn->live.find(dec.id.value); it != conn->live.end()) {
          est = it->second;
          conn->live.erase(it);
        }
        NetRecord* rec = NewRecord(wk, conn, dec.id, hd::SpiPayload::Kind::kSessionClose);
        rec->log = dec.log;  // the decoder let go of it: the close keeps it until harvest
        rec->estimate = est;
        Route(wk, conn, rec);
        return;
      }
      case DecodedFrame::Kind::kEpochPublish:
        // Recorded KB epoch boundary. The daemon runs without an attached knowledge base,
        // so the schedule is acknowledged but carries no work.
        return;
      case DecodedFrame::Kind::kBye:
        conn->want_bye = true;
        conn->reading = false;
        UpdateEvents(wk, conn);
        MaybeFinish(wk, conn);
        return;
    }
  }

  // Fencing gate shared by every control frame: a frame carrying an epoch older than the
  // newest seen marks its sender as a superseded coordinator — answer kStaleEpoch, do not
  // act. Newer epochs are adopted (monotonic max).
  bool AdmitEpoch(WorkerState& wk, const std::shared_ptr<Connection>& conn, uint64_t epoch) {
    uint64_t seen = lease_epoch.load(std::memory_order_relaxed);
    while (epoch > seen &&
           !lease_epoch.compare_exchange_weak(seen, epoch, std::memory_order_relaxed)) {
    }
    if (epoch < lease_epoch.load(std::memory_order_relaxed)) {
      self->stats_.stale_epochs.fetch_add(1, std::memory_order_relaxed);
      SendReply(wk, conn, BuildStaleEpoch(lease_epoch.load(std::memory_order_relaxed)));
      return false;
    }
    return true;
  }

  void HandleControl(WorkerState& wk, const std::shared_ptr<Connection>& conn,
                     std::string_view payload) {
    uint8_t tag = static_cast<uint8_t>(payload[0]);
    std::string error;
    if (tag == kCtrlHeartbeat) {
      uint64_t epoch = 0;
      if (!ParseHeartbeat(payload, &epoch, &error)) {
        ProtocolError(wk, conn, error);
        return;
      }
      if (!AdmitEpoch(wk, conn, epoch)) {
        return;
      }
      self->stats_.heartbeats.fetch_add(1, std::memory_order_relaxed);
      SendReply(wk, conn,
                BuildHeartbeatAck(
                    lease_epoch.load(std::memory_order_relaxed),
                    self->service_->live_sessions(),
                    static_cast<uint64_t>(
                        self->stats_.records_applied.load(std::memory_order_relaxed)),
                    applier_stuck.load(std::memory_order_relaxed),
                    lease_failed.load(std::memory_order_relaxed)));
      return;
    }
    if (tag == kCtrlHandoff) {
      uint64_t epoch = 0;
      std::vector<uint64_t> sessions;
      if (!ParseHandoff(payload, &epoch, &sessions, &error)) {
        ProtocolError(wk, conn, error);
        return;
      }
      if (!AdmitEpoch(wk, conn, epoch)) {
        return;
      }
      auto handoff = std::make_shared<HandoffState>();
      handoff->epoch = epoch;
      // The discards travel the session rings like records, so each lands strictly after
      // everything this connection already routed for that session. Sessions the connection
      // does not hold live (already closed, refused, never opened here) have nothing to
      // discard and do not travel.
      std::vector<std::pair<uint64_t, int64_t>> orders;
      for (uint64_t id : sessions) {
        conn->refused.erase(id);
        auto it = conn->live.find(id);
        if (it != conn->live.end()) {
          orders.emplace_back(id, it->second);
          conn->live.erase(it);
        }
      }
      if (orders.empty()) {
        SendReply(wk, conn, BuildHandoffAck(epoch, 0));
        return;
      }
      // `remaining` must cover every order before the first lands, or an early discard
      // could see remaining == 0 and ack a half-applied handoff.
      handoff->remaining.store(static_cast<int64_t>(orders.size()), std::memory_order_release);
      for (const auto& [id, est] : orders) {
        NetRecord* rec = NewRecord(wk, conn, telemetry::SessionId{id},
                                   hd::SpiPayload::Kind::kSessionHandoff);
        rec->estimate = est;
        rec->handoff = handoff;
        Push(wk, rec);
      }
      return;
    }
    ProtocolError(wk, conn, "unknown control frame tag " + std::to_string(tag));
  }

  // Decodes every complete buffered frame, stopping early on a parked record or a dead
  // connection.
  void ProcessFrames(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    int64_t frames = 0;
    std::string_view payload;
    while (conn->parked == nullptr && !conn->dead && !conn->closing && conn->reading) {
      if (!conn->splitter.Next(&payload)) {
        if (!conn->splitter.ok()) {
          ProtocolError(wk, conn, conn->splitter.error());
        }
        break;
      }
      ++frames;
      if (!conn->hello_done) {
        uint32_t version = 0;
        HelloRole role = HelloRole::kClient;
        std::string error;
        if (!ParseHello(payload, &version, &role, &error)) {
          ProtocolError(wk, conn, error);
          break;
        }
        if (version < kWireVersionMin || version > kWireVersionMax) {
          ProtocolError(wk, conn, "unsupported wire version " + std::to_string(version));
          break;
        }
        if (role == HelloRole::kWorker && !opt.allow_worker_role) {
          ProtocolError(wk, conn, "worker role not allowed on this daemon");
          break;
        }
        conn->hello_done = true;
        conn->role = role;
        SendReply(wk, conn, BuildHelloOk(version));
        continue;
      }
      if (conn->role == HelloRole::kWorker && !payload.empty() &&
          static_cast<uint8_t>(payload[0]) >= kCtrlBase) {
        HandleControl(wk, conn, payload);
        continue;
      }
      if (!conn->decoder.Decode(payload, &conn->frame)) {
        ProtocolError(wk, conn, conn->decoder.error());
        break;
      }
      HandleFrame(wk, conn);
    }
    self->stats_.frames_in.fetch_add(frames, std::memory_order_relaxed);
    if (conn->parked != nullptr) {
      UpdateEvents(wk, conn);  // EPOLLIN off until the ring drains
    }
  }

  // One read into the splitter. Returns the read(2) result.
  ssize_t ReadInto(const std::shared_ptr<Connection>& conn, size_t limit) {
    char buf[64 * 1024];
    ssize_t n = read(conn->fd, buf, std::min(sizeof(buf), limit));
    if (n > 0) {
      self->stats_.bytes_in.fetch_add(n, std::memory_order_relaxed);
      conn->splitter.Feed(buf, static_cast<size_t>(n));
    }
    return n;
  }

  void HandleReadable(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    if (conn->dead || conn->closing || !conn->reading || conn->parked != nullptr) {
      return;
    }
    ssize_t n = ReadInto(conn, SIZE_MAX);
    if (n > 0) {
      ProcessFrames(wk, conn);
      return;  // level-triggered epoll re-fires if more bytes are queued
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return;
    }
    // EOF or reset. A clean BYE already paused reading, so reaching here with live
    // sessions means the peer died mid-stream.
    PeerGone(wk, conn);
  }

  void AdoptIntoWorker(WorkerState& wk, int fd) {
    SetNonBlocking(fd);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));  // no-op for socketpairs
    auto conn = std::make_shared<Connection>(opt.max_frame_bytes, symbol_tables);
    conn->fd = fd;
    conn->worker = wk.index;
    wk.conns[fd] = conn;
    epoll_event ev{};
    ev.data.fd = fd;
    ev.events = EPOLLIN;
    epoll_ctl(wk.epfd, EPOLL_CTL_ADD, fd, &ev);
    if (draining.load()) {
      StartDrain(wk, conn);
    }
  }

  // Takes in what the peer had already sent when the drain began, so a peer that hung up
  // before it is seen as gone: its torn sessions abort instead of being harvested as if
  // complete. Bounded by the bytes queued on the socket at this moment. Returns true when
  // the peer is gone.
  bool ReadArrived(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    int queued = 0;  // stays 0 if the ioctl fails
    ioctl(conn->fd, FIONREAD, &queued);
    while (queued > 0 && !conn->dead && !conn->closing && conn->reading) {
      ssize_t n = ReadInto(conn, static_cast<size_t>(queued));
      if (n <= 0) {
        break;
      }
      queued -= static_cast<int>(n);
      ProcessFrames(wk, conn);
    }
    pollfd pfd{conn->fd, POLLIN | POLLRDHUP, 0};
    return poll(&pfd, 1, 0) > 0 && (pfd.revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0;
  }

  void StartDrain(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    if (conn->closed.load() || conn->closing) {
      return;
    }
    if (!conn->dead && conn->reading && ReadArrived(wk, conn) && !conn->closing) {
      PeerGone(wk, conn);
      return;
    }
    if (conn->closed.load() || conn->closing) {
      return;
    }
    conn->reading = false;
    // Order: the parked record precedes the forced closes of its session.
    Unpark(wk, conn);
    // Flush in-flight sessions: force a close through the rings so their results are
    // harvested and reported before the connection goes away.
    for (const auto& [id, est] : conn->live) {
      NetRecord* rec = NewRecord(wk, conn, telemetry::SessionId{id},
                                 hd::SpiPayload::Kind::kSessionClose);
      rec->log = conn->decoder.OpenLog(id);  // like a close frame's: keeps the table alive
      rec->estimate = est;
      Push(wk, rec);
    }
    conn->live.clear();
    conn->refused.clear();
    conn->want_bye = true;
    UpdateEvents(wk, conn);
    MaybeFinish(wk, conn);
  }

  void HandleWake(WorkerState& wk) {
    uint64_t counter = 0;
    ssize_t rc = read(wk.wake_fd, &counter, sizeof(counter));
    (void)rc;
    std::vector<int> adopted;
    std::vector<std::shared_ptr<Connection>> ready;
    {
      std::lock_guard<std::mutex> lock(wk.inbox_mu);
      adopted.swap(wk.inbox);
      ready.swap(wk.ready);
    }
    for (int fd : adopted) {
      AdoptIntoWorker(wk, fd);
    }
    if (draining.load() && !wk.drain_started) {
      wk.drain_started = true;
      auto conns = wk.conns;  // StartDrain may close (erase) connections
      for (auto& [fd, conn] : conns) {
        StartDrain(wk, conn);
      }
    }
    // Only the connections a shard worker had news for: replies, errors, or pending
    // emptied.
    for (const std::shared_ptr<Connection>& conn : ready) {
      // Clear before reading, so news queued after this point queues the connection again.
      conn->wake_queued.store(false, std::memory_order_seq_cst);
      if (conn->closed.load()) {
        continue;
      }
      if (conn->apply_error.load(std::memory_order_acquire) && !conn->dead) {
        std::string message;
        {
          std::lock_guard<std::mutex> lock(conn->reply_mu);
          message = conn->apply_error_msg;
        }
        ProtocolError(wk, conn, message);
      }
      TakeReplies(conn);
      FlushWrites(wk, conn);
      MaybeFinish(wk, conn);
    }
  }

  void WorkerLoop(size_t index) {
    WorkerState& wk = *workers[index];
    epoll_event events[64];
    while (true) {
      int n = epoll_wait(wk.epfd, events, 64, 100);
      for (int i = 0; i < n; ++i) {
        int fd = events[i].data.fd;
        if (fd == wk.wake_fd) {
          HandleWake(wk);
          continue;
        }
        auto it = wk.conns.find(fd);
        if (it == wk.conns.end()) {
          continue;
        }
        auto conn = it->second;
        uint32_t mask = events[i].events;
        if ((mask & (EPOLLHUP | EPOLLERR)) != 0 && (mask & EPOLLIN) == 0) {
          PeerGone(wk, conn);
          continue;
        }
        if ((mask & EPOLLOUT) != 0) {
          FlushWrites(wk, conn);
          MaybeFinish(wk, conn);
        }
        if ((mask & EPOLLIN) != 0) {
          HandleReadable(wk, conn);
          MaybeFinish(wk, conn);
        }
      }
      RetryParked(wk);
      // End of the read batch: one ring push per shard for everything decoded this round.
      wk.ingestor->Flush();
      if (stopping.load()) {
        // Hard stop: abort what remains and leave.
        auto conns = wk.conns;
        for (auto& [fd, conn] : conns) {
          AbortLiveSessions(wk, conn, "server stopped");
          CloseConn(wk, conn);
        }
        if (wk.conns.empty()) {
          break;
        }
      }
    }
  }

  // ---- shard worker side (DetectorService hooks) ----

  void EnqueueReply(size_t shard, Connection& conn, const std::string& payload) {
    if (conn.closed.load(std::memory_order_acquire)) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(conn.reply_mu);
      AppendFrame(&conn.replies, payload);
    }
    scratch[shard].replied.push_back(&conn);
  }

  void MarkApplyError(size_t shard, Connection& conn, const std::string& message) {
    {
      std::lock_guard<std::mutex> lock(conn.reply_mu);
      if (conn.apply_error_msg.empty()) {
        conn.apply_error_msg = message;
      }
    }
    conn.apply_error.store(true, std::memory_order_release);
    scratch[shard].replied.push_back(&conn);
  }

  void Retain(NetSessionOutcome outcome) {
    std::lock_guard<std::mutex> lock(results_mu);
    results.push_back(std::move(outcome));
  }

  void ReleaseBudget(const NetRecord& rec) {
    self->live_session_bytes_.fetch_sub(rec.estimate, std::memory_order_relaxed);
  }

  // The last discard of a HANDOFF to land acks it.
  void HandoffLanded(size_t shard, const NetRecord& rec) {
    if (rec.handoff->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      EnqueueReply(shard, *rec.conn,
                   BuildHandoffAck(rec.handoff->epoch,
                                   rec.handoff->discarded.load(std::memory_order_relaxed)));
    }
  }

  // Every session end and every refused record, on the shard worker that applied it. The
  // service refuses a record whose session was not opened by the same connection, so a
  // losing duplicate open (cross-connection) never feeds, harvests or discards the winner.
  void OnComplete(hd::IngestCompletion& done) {
    const NetRecord& rec = *static_cast<const NetRecord*>(done.ref.record);
    Connection& conn = *rec.conn;
    const size_t shard = ShardOf(rec.id);
    switch (done.kind) {
      case hd::IngestCompletion::Kind::kClosed: {
        ReleaseBudget(rec);
        self->stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
        EnqueueReply(shard, conn,
                     BuildSessionClosed(rec.id.value, done.result.stream_ok,
                                        done.result.report.NumBugs(), done.result.stream_error));
        conn.closed_count.fetch_add(1, std::memory_order_relaxed);
        if (conn.role == HelloRole::kWorker) {
          // The coordinator folds full worker results into the fleet report and owns them
          // from here: the shipped result is not retained (the compact kSessionClosed above
          // stays for symmetry with plain clients).
          EnqueueReply(shard, conn,
                       BuildSessionResult(rec.id.value, EncodeSessionResult(done.result)));
          return;
        }
        // The retained log's frame ids index the session's table: the outcome owns it, so
        // it renders after the close record, the decoder and the server are gone.
        done.result.symbols = rec.log != nullptr ? rec.log->symbols : nullptr;
        Retain(NetSessionOutcome{rec.id, false, {}, std::move(done.result)});
        return;
      }
      case hd::IngestCompletion::Kind::kAborted:
        ReleaseBudget(rec);
        self->stats_.sessions_aborted.fetch_add(1, std::memory_order_relaxed);
        Retain(NetSessionOutcome{rec.id, true, rec.reason, {}});
        return;
      case hd::IngestCompletion::Kind::kHandedOff:
        // Migrate-away: no outcome — the session is not torn, its complete stream replays
        // on the new owner, which is where its one result will come from.
        ReleaseBudget(rec);
        rec.handoff->discarded.fetch_add(1, std::memory_order_relaxed);
        self->stats_.sessions_migrated.fetch_add(1, std::memory_order_relaxed);
        HandoffLanded(shard, rec);
        return;
      case hd::IngestCompletion::Kind::kError:
        break;
    }
    switch (rec.kind) {
      case hd::SpiPayload::Kind::kSessionAbort:
        return;  // the open failed on this connection: nothing live, budget already freed
      case hd::SpiPayload::Kind::kSessionHandoff:
        HandoffLanded(shard, rec);  // an unacked handoff would wedge the migration
        return;
      case hd::SpiPayload::Kind::kSessionOpen:
        // A duplicate id (cross-connection) or malformed info: the session never existed.
        ReleaseBudget(rec);
        self->stats_.sessions_aborted.fetch_add(1, std::memory_order_relaxed);
        Retain(NetSessionOutcome{rec.id, true, done.error, {}});
        break;
      default:
        break;  // a close's charge went with its failed open
    }
    // The connection learns through the sticky error path.
    MarkApplyError(shard, conn, "session " + std::to_string(rec.id.value) + ": " + done.error);
  }

  // Once per applied batch: hand the records back to their pools, settle each connection's
  // pending count once, and wake each epoll worker at most once — only for connections
  // that got a reply or an error, or whose pending count reached zero.
  void AfterBatch(size_t shard, std::span<const hd::ServiceRecordRef> batch) {
    BatchScratch& sc = scratch[shard];
    for (const hd::ServiceRecordRef& ref : batch) {
      auto* rec = const_cast<NetRecord*>(static_cast<const NetRecord*>(ref.record));
      if (sc.touched.empty() || sc.touched.back().first.get() != rec->conn.get()) {
        auto it = std::find_if(sc.touched.begin(), sc.touched.end(),
                               [&](const auto& entry) { return entry.first == rec->conn; });
        if (it == sc.touched.end()) {
          sc.touched.emplace_back(std::move(rec->conn), 0);
        } else {
          std::iter_swap(it, sc.touched.end() - 1);
        }
      }
      ++sc.touched.back().second;
      rec->conn.reset();
      rec->log.reset();
      rec->handoff.reset();
      rec->samples = {};
      // Back onto its epoll worker's pool.
      std::atomic<NetRecord*>& pool =
          workers[static_cast<size_t>(sc.touched.back().first->worker)]->returned;
      rec->next = pool.load(std::memory_order_relaxed);
      while (!pool.compare_exchange_weak(rec->next, rec, std::memory_order_release,
                                         std::memory_order_relaxed)) {
      }
    }
    self->stats_.records_applied.fetch_add(static_cast<int64_t>(batch.size()),
                                           std::memory_order_relaxed);
    const int64_t left_in_ring =
        inflight[shard].fetch_sub(static_cast<int64_t>(batch.size()), std::memory_order_seq_cst) -
        static_cast<int64_t>(batch.size());
    for (auto& [conn, count] : sc.touched) {
      int64_t left = conn->pending.fetch_sub(count, std::memory_order_acq_rel) - count;
      bool replied = std::find(sc.replied.begin(), sc.replied.end(), conn.get()) !=
                     sc.replied.end();
      if ((left == 0 || replied) && !conn->wake_queued.exchange(true, std::memory_order_seq_cst)) {
        WorkerState& wk = *workers[static_cast<size_t>(conn->worker)];
        {
          std::lock_guard<std::mutex> lock(wk.inbox_mu);
          wk.ready.push_back(conn);
        }
        sc.signal[static_cast<size_t>(conn->worker)] = true;
      }
    }
    for (size_t w = 0; w < workers.size(); ++w) {
      if (left_in_ring < opt.ring_capacity &&
          workers[w]->wants_space.load(std::memory_order_seq_cst) &&
          workers[w]->wants_space.exchange(false, std::memory_order_seq_cst)) {
        sc.signal[w] = true;
      }
      if (sc.signal[w]) {
        sc.signal[w] = false;
        SignalEventFd(workers[w]->wake_fd);
      }
    }
    sc.touched.clear();
    sc.replied.clear();
  }

  // ---- acceptor ----

  // An accept refused for want of fds or kernel memory leaves the connection in the backlog,
  // so the listener polls readable again at once; retrying straight away would spin a core
  // until something frees up. The acceptor instead sleeps, doubling from the first bound to
  // the second, and still wakes on accept_stop_fd meanwhile.
  static constexpr int kAcceptBackoffMinMs = 1;
  static constexpr int kAcceptBackoffMaxMs = 100;

  void AcceptorLoop() {
    pollfd fds[2];
    fds[0] = {listen_fd, POLLIN, 0};
    fds[1] = {accept_stop_fd, POLLIN, 0};
    int backoff_ms = 0;
    while (true) {
      int rc = backoff_ms > 0 ? poll(&fds[1], 1, backoff_ms) : poll(fds, 2, -1);
      if (rc < 0 && errno == EINTR) {
        continue;
      }
      if ((fds[1].revents & POLLIN) != 0) {
        return;
      }
      if (backoff_ms == 0 && (fds[0].revents & POLLIN) == 0) {
        continue;
      }
      while (true) {
        int fd = accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          bool exhausted = errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
                           errno == ENOMEM;
          backoff_ms = !exhausted ? 0
                       : backoff_ms == 0 ? kAcceptBackoffMinMs
                                         : std::min(backoff_ms * 2, kAcceptBackoffMaxMs);
          break;
        }
        backoff_ms = 0;
        if (draining.load() ||
            self->live_connections_.load() >= opt.max_connections) {
          self->stats_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
          std::string frame;
          AppendFrame(&frame, BuildBusy(0, static_cast<uint64_t>(self->live_connections_.load()),
                                        static_cast<uint64_t>(opt.max_connections)));
          ssize_t wrc = write(fd, frame.data(), frame.size());  // best-effort
          (void)wrc;
          close(fd);
          continue;
        }
        self->stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
        self->AdoptConnection(fd);
      }
    }
  }

  // ---- self-watchdog ----

  // The LCI hang_detector idiom turned on the detector fleet itself: sample each shard
  // worker's progress counter; busy with the counter frozen past the timeout means one
  // record has wedged the worker. The verdict is surfaced as heartbeat health, and the lease
  // is force-failed (sticky) so the coordinator migrates this worker's sessions. The stuck
  // flag itself clears if the worker ever resumes — health reports the present, the lease
  // remembers the past.
  void WatchdogLoop() {
    const size_t count = static_cast<size_t>(self->service_->ingest_threads());
    std::vector<uint64_t> last(count, 0);
    std::vector<std::chrono::steady_clock::time_point> since(count,
                                                             std::chrono::steady_clock::now());
    while (!watchdog_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(opt.watchdog_poll_ms));
      auto now = std::chrono::steady_clock::now();
      bool any_stuck = false;
      for (size_t w = 0; w < count; ++w) {
        hd::DetectorService::WorkerHealth health =
            self->service_->worker_health(static_cast<int32_t>(w));
        if (!health.busy || health.progress != last[w]) {
          last[w] = health.progress;
          since[w] = now;
          continue;
        }
        auto stalled =
            std::chrono::duration_cast<std::chrono::milliseconds>(now - since[w]).count();
        if (stalled >= opt.watchdog_timeout_ms) {
          any_stuck = true;
        }
      }
      if (any_stuck) {
        if (!applier_stuck.exchange(true, std::memory_order_relaxed)) {
          self->stats_.watchdog_trips.fetch_add(1, std::memory_order_relaxed);
        }
        lease_failed.store(true, std::memory_order_relaxed);
      } else {
        applier_stuck.store(false, std::memory_order_relaxed);
      }
    }
  }

  // The join half of shutdown (shared by Stop() and the deadline overload once the drain
  // has quiesced). Must not be entered with a wedged shard worker: the waits are
  // unconditional.
  void FinishStop() {
    if (stopped) {
      return;
    }
    stopped = true;
    watchdog_stop.store(true);
    if (watchdog.joinable()) {
      watchdog.join();
    }
    stopping.store(true);
    for (auto& wk : workers) {
      SignalEventFd(wk->wake_fd);
    }
    for (auto& wk : workers) {
      if (wk->thread.joinable()) {
        wk->thread.join();
      }
    }
    // The epoll workers are gone: ship what their Ingestors still hold and let the shard
    // workers land it while the reply eventfds are still open.
    for (auto& wk : workers) {
      wk->ingestor.reset();
    }
    self->service_->WaitIngestIdle();
    for (auto& wk : workers) {
      close(wk->epfd);
      close(wk->wake_fd);
    }
  }
};

NetServer::NetServer(const ServerOptions& options) : impl_(new Impl) {
  ServerOptions opt = options;
  if (opt.workers < 1) {
    throw std::invalid_argument("NetServer: workers must be >= 1");
  }
  if (opt.service.threads != 0) {
    throw std::invalid_argument(
        "NetServer: service.threads must be 0 (`rings` sets the shard workers)");
  }
  if (opt.rings == 0) {
    opt.rings = opt.workers;
  }
  if (opt.rings < 1 || opt.ring_capacity < 1) {
    throw std::invalid_argument("NetServer: rings and ring_capacity must be >= 1");
  }
  if (opt.watchdog_timeout_ms > 0 && opt.watchdog_poll_ms < 1) {
    throw std::invalid_argument("NetServer: watchdog_poll_ms must be >= 1");
  }
  impl_->opt = opt;
  impl_->self = this;

  // The daemon's pipeline: `rings` shard workers, at least one shard each. The record cap
  // (Impl::Route) parks connections before a ring can fill, so the rings are sized for the
  // smallest batches and never block an epoll worker on session records.
  hd::ServiceOptions service = opt.service;
  service.threads = opt.rings;
  service.shards = std::max(service.shards, opt.rings);
  service.ring_capacity = static_cast<int32_t>(
      std::min<int64_t>(int64_t{opt.ring_capacity} * opt.workers, int64_t{1} << 20));
  service.batch_size = std::min(opt.ring_capacity, 64);
  hd::IngestHooks hooks;
  if (opt.before_apply) {
    hooks.before_apply = [hook = opt.before_apply](const hd::ServiceRecordRef& ref) {
      hook(ref.session.value);
    };
  }
  Impl* impl = impl_.get();
  hooks.on_complete = [impl](hd::IngestCompletion& done) { impl->OnComplete(done); };
  hooks.after_batch = [impl](size_t shard, std::span<const hd::ServiceRecordRef> batch) {
    impl->AfterBatch(shard, batch);
  };
  impl_->shards = static_cast<size_t>(service.shards);
  impl_->inflight = std::make_unique<std::atomic<int64_t>[]>(impl_->shards);
  impl_->scratch.resize(impl_->shards);
  for (Impl::BatchScratch& sc : impl_->scratch) {
    sc.signal.assign(static_cast<size_t>(opt.workers), false);
  }

  for (int32_t w = 0; w < opt.workers; ++w) {
    auto wk = std::make_unique<WorkerState>();
    wk->index = w;
    wk->epfd = epoll_create1(EPOLL_CLOEXEC);
    wk->wake_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wk->epfd < 0 || wk->wake_fd < 0) {
      throw std::runtime_error("NetServer: epoll/eventfd creation failed");
    }
    epoll_event ev{};
    ev.data.fd = wk->wake_fd;
    ev.events = EPOLLIN;
    epoll_ctl(wk->epfd, EPOLL_CTL_ADD, wk->wake_fd, &ev);
    impl_->workers.push_back(std::move(wk));
  }
  service_ = std::make_unique<hd::DetectorService>(service, std::move(hooks));
  for (auto& wk : impl_->workers) {
    wk->ingestor = std::make_unique<hd::DetectorService::Ingestor>(service_.get());
  }

  if (opt.listen) {
    impl_->listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (impl_->listen_fd < 0) {
      throw std::runtime_error("NetServer: socket() failed");
    }
    int one = 1;
    setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opt.port);
    if (bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(impl_->listen_fd, 1024) != 0) {
      close(impl_->listen_fd);
      throw std::runtime_error("NetServer: bind/listen failed: " +
                               std::string(std::strerror(errno)));
    }
    socklen_t len = sizeof(addr);
    getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    impl_->accept_stop_fd = eventfd(0, EFD_CLOEXEC);
  }

  for (size_t w = 0; w < impl_->workers.size(); ++w) {
    impl_->workers[w]->thread = std::thread([this, w] { impl_->WorkerLoop(w); });
  }
  if (opt.listen) {
    impl_->acceptor = std::thread([this] { impl_->AcceptorLoop(); });
  }
  if (opt.watchdog_timeout_ms > 0) {
    impl_->watchdog = std::thread([this] { impl_->WatchdogLoop(); });
  }
}

NetServer::~NetServer() { Stop(); }

void NetServer::AdoptConnection(int fd) {
  live_connections_.fetch_add(1, std::memory_order_relaxed);
  size_t w = impl_->next_worker.fetch_add(1) % impl_->workers.size();
  {
    std::lock_guard<std::mutex> lock(impl_->workers[w]->inbox_mu);
    impl_->workers[w]->inbox.push_back(fd);
  }
  SignalEventFd(impl_->workers[w]->wake_fd);
}

void NetServer::BeginDrain() {
  bool was = impl_->draining.exchange(true);
  if (!was && impl_->acceptor.joinable()) {
    SignalEventFd(impl_->accept_stop_fd);
    impl_->acceptor.join();
    close(impl_->listen_fd);
    close(impl_->accept_stop_fd);
    impl_->listen_fd = -1;
  }
  for (auto& wk : impl_->workers) {
    SignalEventFd(wk->wake_fd);
  }
}

bool NetServer::WaitIdle(int64_t timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  // A connection closes only once its pending count is zero, so no live connection means
  // every routed record has been applied.
  while (live_connections_.load() > 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void NetServer::Stop() {
  if (impl_->stopped) {
    return;
  }
  BeginDrain();
  WaitIdle(10000);
  impl_->FinishStop();
}

std::vector<uint64_t> NetServer::Stop(int64_t drain_timeout_ms) {
  if (impl_->stopped) {
    return {};
  }
  BeginDrain();
  if (!WaitIdle(drain_timeout_ms)) {
    // The drain did not quiesce in time (classically: a shard worker wedged on one record
    // — exactly what the self-watchdog flags). Joining now could block forever, so report
    // what is still held instead: these sessions' complete streams live in the
    // coordinator's tap, and HDSL replay on another worker recovers every one of them.
    // Everything stays running; a later Stop()/destructor completes shutdown once the
    // wedge clears.
    std::vector<uint64_t> undrained;
    for (telemetry::SessionId id : service_->LiveSessionIds()) {
      undrained.push_back(id.value);
    }
    return undrained;
  }
  impl_->FinishStop();
  return {};
}

bool NetServer::applier_stuck() const {
  return impl_->applier_stuck.load(std::memory_order_relaxed);
}

bool NetServer::lease_failed() const {
  return impl_->lease_failed.load(std::memory_order_relaxed);
}

uint64_t NetServer::lease_epoch() const {
  return impl_->lease_epoch.load(std::memory_order_relaxed);
}

std::vector<NetSessionOutcome> NetServer::TakeResults() {
  std::lock_guard<std::mutex> lock(impl_->results_mu);
  std::vector<NetSessionOutcome> out;
  out.swap(impl_->results);
  return out;
}

}  // namespace netd
