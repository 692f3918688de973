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
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>
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

// One connection, owned whole by its epoll worker: only that thread touches it.
struct Connection {
  int fd = -1;
  FrameSplitter splitter;
  MuxStreamDecoder decoder;
  DecodedFrame frame;  // reused for every decoded frame; its payload is applied in place
  bool hello_done = false;
  HelloRole role = HelloRole::kClient;
  // Admitted sessions → budget charge, each with an entry in `decoder`. Consulted at open,
  // close, handoff, abort and drain only: a record finds its session through the decoder's
  // entry, whose arena handle is null for a session refused at admission (kBusy; its
  // records are dropped).
  std::unordered_map<uint64_t, int64_t> live;
  std::string out;                             // unsent reply bytes
  uint64_t closed_count = 0;                   // sessions closed: the BYE's tally
  bool reading = true;
  bool want_write = false;
  bool want_bye = false;
  bool bye_sent = false;
  bool dead = false;          // sticky protocol error: no further reads/decodes
  bool peer_gone = false;     // EOF/reset: no further writes either
  bool closing = false;       // close once out is flushed
  bool reply_paused = false;  // out past kMaxUnsentReplyBytes (EPOLLIN off meanwhile)
  bool closed = false;        // fd gone

  Connection(size_t max_frame, std::shared_ptr<hd::SymbolTableCache> symbol_tables)
      : splitter(max_frame), decoder(std::move(symbol_tables)) {}
};

// Cache-line aligned: `progress` and `busy` are the watchdog's view of this worker, written
// only by its own thread, and neighbouring workers must not false-share them.
struct alignas(64) WorkerState {
  // Records taken up, and held while one is applied. Busy with progress frozen means one
  // record has wedged this worker.
  std::atomic<uint64_t> progress{0};
  std::atomic<bool> busy{false};
  int64_t applied = 0;  // records applied and not yet added to ServerStats::records_applied
  int epfd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::mutex inbox_mu;
  std::vector<int> inbox;  // adopted fds (guarded by inbox_mu)
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
  // Reply pause just ended; decode what they buffered meanwhile.
  std::vector<std::shared_ptr<Connection>> resumed;
  bool drain_started = false;
};

struct NetServer::Impl {
  ServerOptions opt;
  NetServer* self = nullptr;
  // One pool for every connection's decoder: byte-identical symbol tables are parsed once
  // and shared by all live sessions that carry them, whichever connection sent them.
  std::shared_ptr<hd::SymbolTableCache> symbol_tables = std::make_shared<hd::SymbolTableCache>();
  // The records the daemon applies on a connection's behalf: a drain's forced close, an
  // abort, a handoff's discard.
  hd::SpiPayload close_record, abort_record, handoff_record;

  std::vector<std::unique_ptr<WorkerState>> workers;

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

  // ---- applying ----

  void Retain(NetSessionOutcome outcome) {
    std::lock_guard<std::mutex> lock(results_mu);
    results.push_back(std::move(outcome));
  }

  void ReleaseBudget(int64_t estimate) {
    self->live_session_bytes_.fetch_sub(estimate, std::memory_order_relaxed);
  }

  void PublishApplied(WorkerState& wk) {
    if (wk.applied != 0) {
      self->stats_.records_applied.fetch_add(std::exchange(wk.applied, 0),
                                             std::memory_order_relaxed);
    }
  }

  // Applies one record of `conn`'s session `id` on this epoll worker and answers for it at
  // once: a close's replies go to `conn->out`, an outcome is retained, the budget charge
  // `estimate` is released when the session ends. `arena` is the session's handle in the
  // connection's decoder entry (null once the close frame has dropped the entry): the open
  // fills it, a record goes straight to it, and whatever ends the session clears it. A
  // close's `log` gives its retained result an owning pointer to the session's table; an
  // abort's outcome carries `reason`. Returns true when the record ended its session
  // cleanly (closed, aborted or handed off).
  bool Apply(WorkerState& wk, const std::shared_ptr<Connection>& conn, telemetry::SessionId id,
             const hd::SpiPayload& record, hd::SessionSlot** arena, int64_t estimate = 0,
             const hd::SessionLog* log = nullptr, std::string_view reason = {}) {
    // Single writer: plain stores, no locked read-modify-write per record.
    wk.busy.store(true, std::memory_order_relaxed);
    wk.progress.store(wk.progress.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    if (opt.before_apply) {
      opt.before_apply(id.value);
    }
    std::optional<hd::IngestCompletion> done =
        self->service_->Apply(hd::ServiceRecordRef{id, &record, conn.get(), arena});
    wk.busy.store(false, std::memory_order_relaxed);
    ++wk.applied;
    if (!done) {
      return false;
    }
    switch (done->kind) {
      case hd::IngestCompletion::Kind::kClosed: {
        ReleaseBudget(estimate);
        self->stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
        ++conn->closed_count;
        AppendFrame(&conn->out, BuildSessionClosed(id.value, done->result.stream_ok,
                                                   done->result.report.NumBugs(),
                                                   done->result.stream_error));
        if (conn->role == HelloRole::kWorker) {
          // The coordinator folds full worker results into the fleet report and owns them
          // from here: the shipped result is not retained (the compact kSessionClosed above
          // stays for symmetry with plain clients).
          AppendFrame(&conn->out,
                      BuildSessionResult(id.value, EncodeSessionResult(done->result)));
          return true;
        }
        // The retained log's frame ids index the session's table: the outcome owns it, so
        // it renders after the decoder and the server are gone.
        done->result.symbols = log != nullptr ? log->symbols : nullptr;
        Retain(NetSessionOutcome{id, false, {}, std::move(done->result)});
        return true;
      }
      case hd::IngestCompletion::Kind::kAborted:
        ReleaseBudget(estimate);
        self->stats_.sessions_aborted.fetch_add(1, std::memory_order_relaxed);
        Retain(NetSessionOutcome{id, true, std::string(reason), {}});
        return true;
      case hd::IngestCompletion::Kind::kHandedOff:
        // Migrate-away: no outcome. The session is not torn: its complete stream replays on
        // the new owner, which is where its one result will come from.
        ReleaseBudget(estimate);
        self->stats_.sessions_migrated.fetch_add(1, std::memory_order_relaxed);
        return true;
      case hd::IngestCompletion::Kind::kError:
        break;
    }
    // The service refuses a record whose session this connection did not open, so a losing
    // duplicate open (cross-connection) never feeds, harvests or discards the winner.
    if (record.kind == hd::SpiPayload::Kind::kSessionAbort ||
        record.kind == hd::SpiPayload::Kind::kSessionHandoff) {
      return false;  // nothing live here to end
    }
    if (record.kind == hd::SpiPayload::Kind::kSessionOpen) {
      // A duplicate id (cross-connection) or malformed info: the session never existed.
      ReleaseBudget(estimate);
      conn->live.erase(id.value);
      self->stats_.sessions_aborted.fetch_add(1, std::memory_order_relaxed);
      Retain(NetSessionOutcome{id, true, done->error, {}});
    }
    ProtocolError(wk, conn, "session " + std::to_string(id.value) + ": " + done->error);
    return false;
  }

  // ---- connections ----

  void UpdateEvents(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    if (conn->closed) {
      return;
    }
    epoll_event ev{};
    ev.data.fd = conn->fd;
    ev.events = 0;
    if (conn->reading && !conn->dead && !conn->reply_paused && !conn->closing) {
      ev.events |= EPOLLIN;
    }
    if (conn->want_write) {
      ev.events |= EPOLLOUT;
    }
    epoll_ctl(wk.epfd, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  void CloseConn(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    if (conn->closed) {
      return;
    }
    conn->closed = true;
    epoll_ctl(wk.epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
    close(conn->fd);
    wk.conns.erase(conn->fd);
    // Before the connection stops counting as live: WaitIdle's callers read the total.
    PublishApplied(wk);
    self->live_connections_.fetch_sub(1, std::memory_order_relaxed);
  }

  void FlushWrites(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    if (conn->closed || conn->peer_gone) {
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
    // The reply cap: a peer that sends without reading stops being read once its unsent
    // replies pass the cap, and resumes below half of it. A drain waives it.
    bool pause = false;
    bool resume = false;
    if (conn->reply_paused) {
      resume = conn->out.size() < kMaxUnsentReplyBytes / 2;
    } else if (conn->out.size() > kMaxUnsentReplyBytes) {
      pause = !draining.load(std::memory_order_relaxed);
    }
    if (pause) {
      self->stats_.reply_pauses.fetch_add(1, std::memory_order_relaxed);
      conn->reply_paused = true;
    } else if (resume) {
      conn->reply_paused = false;
      wk.resumed.push_back(conn);
    }
    if (want != conn->want_write || pause || resume) {
      conn->want_write = want;
      UpdateEvents(wk, conn);
    }
  }

  void AbortLiveSessions(WorkerState& wk, const std::shared_ptr<Connection>& conn,
                         const std::string& reason) {
    // Taken out first, so no apply can change the map under this loop.
    std::unordered_map<uint64_t, int64_t> live = std::exchange(conn->live, {});
    for (const auto& [id, est] : live) {
      hd::MuxSession* session = conn->decoder.FindSession(id);
      Apply(wk, conn, telemetry::SessionId{id}, abort_record, &session->arena, est, nullptr,
            reason);
    }
  }

  void ProtocolError(WorkerState& wk, const std::shared_ptr<Connection>& conn,
                     const std::string& message) {
    if (conn->dead) {
      return;
    }
    self->stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    conn->dead = true;
    conn->reading = false;
    AppendFrame(&conn->out, BuildError(message));
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

  // Sends the BYE once it is owed, flushes queued replies, and closes a closing connection
  // once they are out. Every record the connection sent has been applied by now: replies
  // are queued as their records apply, so the BYE follows every kSessionClosed it counts.
  void MaybeFinish(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    if (conn->closed) {
      return;
    }
    if (conn->want_bye && !conn->bye_sent && !conn->peer_gone && !conn->dead) {
      conn->bye_sent = true;
      AppendFrame(&conn->out, BuildBye(conn->closed_count));
      conn->closing = true;
    }
    if (!conn->out.empty()) {
      FlushWrites(wk, conn);
    }
    if (conn->closing && (conn->out.empty() || conn->peer_gone)) {
      CloseConn(wk, conn);
    }
  }

  // Admits and applies the frame the decoder just wrote into conn->frame.
  void HandleFrame(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    DecodedFrame& dec = conn->frame;
    switch (dec.kind) {
      case DecodedFrame::Kind::kOpen: {
        (dec.shared_symbols ? self->stats_.symbol_tables_shared : self->stats_.symbol_tables_parsed)
            .fetch_add(1, std::memory_order_relaxed);
        int64_t est = static_cast<int64_t>(dec.open_bytes) + opt.session_overhead_bytes;
        int64_t live_now = self->live_session_bytes_.load(std::memory_order_relaxed);
        if (live_now + est > opt.session_budget_bytes) {
          // The entry's handle stays null: the session's records are dropped.
          self->stats_.sessions_refused.fetch_add(1, std::memory_order_relaxed);
          AppendFrame(&conn->out, BuildBusy(dec.id.value, static_cast<uint64_t>(live_now),
                                            static_cast<uint64_t>(opt.session_budget_bytes)));
          return;
        }
        self->live_session_bytes_.fetch_add(est, std::memory_order_relaxed);
        conn->live[dec.id.value] = est;
        Apply(wk, conn, dec.id, dec.record.record, &dec.session->arena, est);
        return;
      }
      case DecodedFrame::Kind::kRecord:
        // One probe per record, the decoder's: a null handle is a session refused at
        // admission (an open the service refused ended the connection).
        if (dec.skip || dec.session->arena == nullptr) {
          return;
        }
        Apply(wk, conn, dec.id, dec.record.record, &dec.session->arena);
        return;
      case DecodedFrame::Kind::kClose: {
        auto it = conn->live.find(dec.id.value);
        if (it == conn->live.end()) {
          return;  // the open was kBusy'd; nothing to close
        }
        const int64_t est = it->second;
        conn->live.erase(it);
        // The decoder dropped the entry, and its handle with it; the close goes through the
        // shard map.
        Apply(wk, conn, dec.id, dec.record.record, nullptr, est, dec.log.get());
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
        return;
    }
  }

  // Fencing gate shared by every control frame: a frame carrying an epoch older than the
  // newest seen marks its sender as a superseded coordinator — answer kStaleEpoch, do not
  // act. Newer epochs are adopted (monotonic max).
  bool AdmitEpoch(const std::shared_ptr<Connection>& conn, uint64_t epoch) {
    uint64_t seen = lease_epoch.load(std::memory_order_relaxed);
    while (epoch > seen &&
           !lease_epoch.compare_exchange_weak(seen, epoch, std::memory_order_relaxed)) {
    }
    if (epoch < lease_epoch.load(std::memory_order_relaxed)) {
      self->stats_.stale_epochs.fetch_add(1, std::memory_order_relaxed);
      AppendFrame(&conn->out, BuildStaleEpoch(lease_epoch.load(std::memory_order_relaxed)));
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
      if (!AdmitEpoch(conn, epoch)) {
        return;
      }
      self->stats_.heartbeats.fetch_add(1, std::memory_order_relaxed);
      PublishApplied(wk);
      const auto applied =
          static_cast<uint64_t>(self->stats_.records_applied.load(std::memory_order_relaxed));
      AppendFrame(&conn->out, BuildHeartbeatAck(lease_epoch.load(std::memory_order_relaxed),
                                                self->service_->live_sessions(), applied,
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
      if (!AdmitEpoch(conn, epoch)) {
        return;
      }
      // Each discard applies here, after everything this connection sent earlier for its
      // session, and the ack follows them all. Sessions the connection does not hold live
      // (already closed, refused, never opened here) have nothing to discard.
      uint64_t discarded = 0;
      for (uint64_t id : sessions) {
        // The session leaves this stream without a close frame: end it in the decoder too, or
        // its return to this worker would be refused as a duplicate open. The parsed prefix
        // (the symbol table) stays alive until the discard has applied, and the discard
        // clears the entry's handle.
        hd::MuxSession ended = conn->decoder.EndSession(id);
        auto it = conn->live.find(id);
        if (it == conn->live.end()) {
          continue;
        }
        const int64_t est = it->second;
        conn->live.erase(it);
        discarded +=
            Apply(wk, conn, telemetry::SessionId{id}, handoff_record, &ended.arena, est) ? 1 : 0;
      }
      AppendFrame(&conn->out, BuildHandoffAck(epoch, discarded));
      return;
    }
    ProtocolError(wk, conn, "unknown control frame tag " + std::to_string(tag));
  }

  // Decodes and applies every complete buffered frame, stopping early on a dead connection
  // or a reply pause.
  void ProcessFrames(WorkerState& wk, const std::shared_ptr<Connection>& conn) {
    int64_t frames = 0;
    std::string_view payload;
    while (!conn->reply_paused && !conn->dead && !conn->closing && conn->reading) {
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
        AppendFrame(&conn->out, BuildHelloOk(version));
        continue;
      }
      if (conn->role == HelloRole::kWorker && !payload.empty() &&
          static_cast<uint8_t>(payload[0]) >= kCtrlBase) {
        HandleControl(wk, conn, payload);
      } else if (conn->decoder.Decode(payload, &conn->frame)) {
        HandleFrame(wk, conn);
      } else {
        ProtocolError(wk, conn, conn->decoder.error());
        break;
      }
      if (conn->out.size() > kMaxUnsentReplyBytes) {
        FlushWrites(wk, conn);  // may pause reading: the reply cap
      }
    }
    self->stats_.frames_in.fetch_add(frames, std::memory_order_relaxed);
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
    if (conn->dead || conn->closing || !conn->reading || conn->reply_paused) {
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
    if (conn->closed || conn->closing) {
      return;
    }
    conn->reply_paused = false;  // the drain takes in everything that already arrived
    if (!conn->dead && conn->reading && ReadArrived(wk, conn) && !conn->closing) {
      PeerGone(wk, conn);
      return;
    }
    if (conn->closed || conn->closing) {
      return;
    }
    conn->reading = false;
    // Flush in-flight sessions: force a close so their results are harvested and reported
    // before the connection goes away. Taken out first: a close that fails ends in a
    // protocol error, which aborts what is still live.
    std::unordered_map<uint64_t, int64_t> live = std::exchange(conn->live, {});
    for (const auto& [id, est] : live) {
      // Like a close frame's log: the retained result takes an owning pointer to its table.
      hd::MuxSession* session = conn->decoder.FindSession(id);
      Apply(wk, conn, telemetry::SessionId{id}, close_record, &session->arena, est,
            session->log.get());
    }
    conn->want_bye = true;
    UpdateEvents(wk, conn);
    MaybeFinish(wk, conn);
  }

  void HandleWake(WorkerState& wk) {
    uint64_t counter = 0;
    ssize_t rc = read(wk.wake_fd, &counter, sizeof(counter));
    (void)rc;
    std::vector<int> adopted;
    {
      std::lock_guard<std::mutex> lock(wk.inbox_mu);
      adopted.swap(wk.inbox);
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
  }

  // Connections whose reply pause ended: decode what they buffered meanwhile (their socket
  // may hold nothing more, so EPOLLIN alone would not get to it).
  void ResumeReading(WorkerState& wk) {
    if (wk.resumed.empty()) {
      return;
    }
    std::vector<std::shared_ptr<Connection>> resumed;
    resumed.swap(wk.resumed);
    for (const std::shared_ptr<Connection>& conn : resumed) {
      if (!conn->closed && !conn->reply_paused) {
        ProcessFrames(wk, conn);
        MaybeFinish(wk, conn);
      }
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
      ResumeReading(wk);
      PublishApplied(wk);
      if (stopping.load()) {
        // Hard stop: abort what remains and leave.
        auto conns = wk.conns;
        for (auto& [fd, conn] : conns) {
          AbortLiveSessions(wk, conn, "server stopped");
          CloseConn(wk, conn);
        }
        break;
      }
    }
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

  // The LCI hang_detector idiom turned on the detector fleet itself: sample each epoll
  // worker's progress counter; busy with the counter frozen past the timeout means one
  // record has wedged the worker. The verdict is surfaced as heartbeat health (on links the
  // other epoll workers serve: the wedged one answers nothing), and the lease is
  // force-failed (sticky) so the coordinator migrates this daemon's sessions. The stuck
  // flag itself clears if the worker ever resumes — health reports the present, the lease
  // remembers the past.
  void WatchdogLoop() {
    const size_t count = workers.size();
    std::vector<uint64_t> last(count, 0);
    std::vector<std::chrono::steady_clock::time_point> since(count,
                                                             std::chrono::steady_clock::now());
    while (!watchdog_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(opt.watchdog_poll_ms));
      auto now = std::chrono::steady_clock::now();
      bool any_stuck = false;
      for (size_t w = 0; w < count; ++w) {
        const uint64_t progress = workers[w]->progress.load(std::memory_order_relaxed);
        if (!workers[w]->busy.load(std::memory_order_relaxed) || progress != last[w]) {
          last[w] = progress;
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
  // has quiesced). Must not be entered with a wedged epoll worker: the joins are
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
      close(wk->epfd);
      close(wk->wake_fd);
    }
  }
};

NetServer::NetServer(const ServerOptions& options) : impl_(new Impl) {
  if (options.workers < 1) {
    throw std::invalid_argument("NetServer: workers must be >= 1");
  }
  if (options.watchdog_timeout_ms > 0 && options.watchdog_poll_ms < 1) {
    throw std::invalid_argument("NetServer: watchdog_poll_ms must be >= 1");
  }
  impl_->opt = options;
  impl_->self = this;
  impl_->close_record.kind = hd::SpiPayload::Kind::kSessionClose;
  impl_->abort_record.kind = hd::SpiPayload::Kind::kSessionAbort;
  impl_->handoff_record.kind = hd::SpiPayload::Kind::kSessionHandoff;

  for (int32_t w = 0; w < options.workers; ++w) {
    auto wk = std::make_unique<WorkerState>();
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
  service_ = std::make_unique<hd::DetectorService>(options.service);

  if (options.listen) {
    impl_->listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (impl_->listen_fd < 0) {
      throw std::runtime_error("NetServer: socket() failed");
    }
    int one = 1;
    setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options.port);
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
  if (options.listen) {
    impl_->acceptor = std::thread([this] { impl_->AcceptorLoop(); });
  }
  if (options.watchdog_timeout_ms > 0) {
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
  // Records apply as they are read, so no live connection means every record has been
  // applied.
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
    // The drain did not quiesce in time (classically: an epoll worker wedged on one record
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
