#include "src/fleetd/coordinator.h"

#include <sys/socket.h>

#include <chrono>
#include <stdexcept>
#include <utility>

#include "src/hosts/mux_log.h"
#include "src/netd/result_codec.h"
#include "src/netd/wire.h"

namespace fleetd {

namespace {

int32_t CheckedWorkerCount(const CoordinatorOptions& options) {
  if (options.workers.empty()) {
    throw std::invalid_argument("Coordinator: at least one worker endpoint required");
  }
  return static_cast<int32_t>(options.workers.size());
}

// The container kEnd frame — the BYE a worker link sends once the fleet run is folded.
std::string ByeFrame() {
  return std::string(1, static_cast<char>(hangdoctor::MuxFrameTag::kEnd));
}

}  // namespace

Coordinator::Coordinator(const CoordinatorOptions& options)
    : options_(options),
      topology_(CheckedWorkerCount(options),
                TopologyOptions{.lease_timeout_ms = options.lease_timeout_ms}) {
  links_.reserve(options_.workers.size());
  for (size_t w = 0; w < options_.workers.size(); ++w) {
    const WorkerEndpoint& endpoint = options_.workers[w];
    auto link = std::make_unique<Link>();
    if (endpoint.fd >= 0) {
      link->client.Adopt(endpoint.fd);
    } else if (!link->client.Connect(endpoint.port)) {
      throw std::runtime_error("fleetd: worker " + std::to_string(w) +
                               " connect failed: " + link->client.error());
    }
    if (!link->client.SendHello(netd::kWireVersionMax, netd::HelloRole::kWorker)) {
      throw std::runtime_error("fleetd: worker " + std::to_string(w) +
                               " hello send failed: " + link->client.error());
    }
    netd::Reply hello;
    if (!link->client.ReadReply(&hello) || hello.tag != netd::ReplyTag::kHelloOk) {
      throw std::runtime_error("fleetd: worker " + std::to_string(w) +
                               " rejected the worker-role hello" +
                               (hello.message.empty() ? "" : ": " + hello.message));
    }
    link->alive = true;
    topology_.Register(static_cast<int32_t>(w), /*now_ms=*/0);
    links_.push_back(std::move(link));
  }
  for (size_t w = 0; w < links_.size(); ++w) {
    links_[w]->reader = std::thread(&Coordinator::ReaderLoop, this, static_cast<int32_t>(w));
  }
}

Coordinator::~Coordinator() {
  bool need_finish = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    need_finish = !finished_;
  }
  if (need_finish) {
    Finish();
  }
  for (auto& link : links_) {
    if (link->reader.joinable()) {
      link->reader.join();
    }
  }
}

void Coordinator::AssignRange(uint64_t first, uint64_t last) {
  std::lock_guard<std::mutex> lock(mu_);
  topology_.AssignRange(first, last);
}

bool Coordinator::RouteFrame(uint64_t session, const std::string& frame, std::string* error) {
  std::unique_lock<std::mutex> lock(mu_);
  if (frame.empty()) {
    if (error) *error = "route: empty frame";
    return false;
  }
  auto tag = static_cast<hangdoctor::MuxFrameTag>(static_cast<uint8_t>(frame[0]));
  if (tag != hangdoctor::MuxFrameTag::kOpenSession &&
      tag != hangdoctor::MuxFrameTag::kRecord &&
      tag != hangdoctor::MuxFrameTag::kCloseSession) {
    if (error) *error = "route: frame is not a session frame";
    return false;
  }
  uint64_t framed_id = 0;
  size_t pos = 1;
  if (!netd::GetVarint(frame, &pos, &framed_id) || framed_id != session) {
    if (error) *error = "route: frame session id mismatch";
    return false;
  }

  SessionState& state = sessions_[session];
  state.outcome.id = telemetry::SessionId{session};
  // Framed once: the same bytes are the tap's replay prefix and the owner link's batch.
  const size_t framed_at = state.tap.size();
  netd::AppendFrame(&state.tap, frame);
  if (tag == hangdoctor::MuxFrameTag::kCloseSession && !state.close_routed) {
    state.close_routed = true;
    closes_pending_ += state.done ? 0 : 1;
  }

  while (true) {
    int32_t owner = topology_.OwnerOf(session);
    if (owner < 0) {
      if (error) *error = "route: no live owner for session " + std::to_string(session);
      return false;
    }
    Link& link = *links_[static_cast<size_t>(owner)];
    if (link.alive) {
      state.last_owner = owner;
      link.out.append(state.tap, framed_at);
      if (link.out.size() < kLinkBatchBytes || FlushLinkLocked(owner)) {
        return true;
      }
    }
    // The owner's link is gone. Fencing it replays every unfinished session it held — the
    // tap already contains this frame, so the replay delivers it to the new owner.
    CascadeFenceLocked(owner, link.alive ? "send failed: " + link.client.error()
                                         : "link down");
    if (total_outage_) {
      if (error) *error = "route: total outage — no live worker remains";
      return false;
    }
    if (state.done) {
      return true;  // replay landed it (or aborted it); either way it is final
    }
    if (state.last_owner >= 0 && !topology_.fenced(state.last_owner)) {
      return true;  // delivered via replay onto the failover target
    }
  }
}

void Coordinator::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushAllLocked();
}

bool Coordinator::MigrateWorker(int32_t from, int32_t to, std::string* error) {
  std::unique_lock<std::mutex> lock(mu_);
  if (from < 0 || to < 0 || from >= topology_.workers() || to >= topology_.workers() ||
      from == to) {
    if (error) *error = "migrate: invalid worker pair";
    return false;
  }
  if (topology_.fenced(from) || topology_.fenced(to)) {
    if (error) *error = "migrate: fenced worker";
    return false;
  }
  if (!links_[static_cast<size_t>(from)]->alive || !links_[static_cast<size_t>(to)]->alive) {
    if (error) *error = "migrate: dead link";
    return false;
  }

  std::vector<uint64_t> ids;
  for (auto& [id, state] : sessions_) {
    if (!state.done && state.last_owner == from) {
      ids.push_back(id);
    }
  }
  uint64_t epoch = topology_.MoveRanges(from, to);  // routing to `from` stops here
  if (ids.empty()) {
    return true;  // ranges moved; nothing live to hand off
  }

  // The handoff goes out behind every frame still buffered for the old owner, in the same
  // write, so the worker's discard lands after each record routed to it.
  Link& old_owner = *links_[static_cast<size_t>(from)];
  netd::AppendFrame(&old_owner.out, netd::BuildHandoff(epoch, ids));
  if (!FlushLinkLocked(from)) {
    CascadeFenceLocked(from, "handoff send failed");
    return true;  // recovered by replay instead of drained
  }
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.handoff_timeout_ms);
  bool acked = cv_.wait_until(lock, deadline, [&] {
    return old_owner.handoff_ack_epoch >= epoch || !old_owner.alive || total_outage_;
  });
  if (total_outage_) {
    return true;
  }
  if (!acked || !old_owner.alive) {
    if (old_owner.alive) {
      CascadeFenceLocked(from, "handoff timed out");
    }
    return true;  // the reader's failover already replayed the sessions
  }

  // The old owner discarded every named session strictly after its last routed record.
  // Replay each retained prefix on the new owner and resume routing there.
  for (uint64_t id : ids) {
    SessionState& state = sessions_[id];
    if (!state.done) {  // else its result landed before the ranges moved
      state.last_owner = to;
    }
  }
  stats_.migrated += static_cast<int64_t>(ids.size());
  if (!ReplayLocked(to, ids)) {
    CascadeFenceLocked(to, "migration replay failed");
  }
  return true;
}

void Coordinator::CrashWorker(int32_t worker) {
  std::lock_guard<std::mutex> lock(mu_);
  if (worker < 0 || worker >= topology_.workers()) {
    return;
  }
  Link& link = *links_[static_cast<size_t>(worker)];
  if (link.client.connected()) {
    ::shutdown(link.client.fd(), SHUT_RDWR);
  }
  link.alive = false;
  CascadeFenceLocked(worker, "crash injected");
}

void Coordinator::Pulse(int64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int32_t w = 0; w < topology_.workers(); ++w) {
    Link& link = *links_[static_cast<size_t>(w)];
    if (topology_.fenced(w)) {
      link.ack_pending = false;
      continue;
    }
    if (link.heartbeat_lost) {
      link.ack_pending = false;  // a lost network loses the acks too
      continue;
    }
    if (link.ack_pending) {
      topology_.OnHeartbeatAck(w, now_ms, link.ack_health);
      link.ack_pending = false;
    }
  }
  for (const FailoverDecision& decision : topology_.Tick(now_ms)) {
    ++stats_.failovers;
    FailoverLocked(decision.victim, decision.target, decision.reason);
  }
  // Each heartbeat rides behind its link's buffered frames, in the same write.
  const std::string heartbeat = netd::BuildHeartbeat(topology_.epoch());
  for (int32_t w = 0; w < topology_.workers(); ++w) {
    Link& link = *links_[static_cast<size_t>(w)];
    if (!topology_.fenced(w) && link.alive && !link.heartbeat_lost) {
      netd::AppendFrame(&link.out, heartbeat);
    }
  }
  FlushAllLocked();
}

void Coordinator::SetHeartbeatLoss(int32_t worker, bool lost) {
  std::lock_guard<std::mutex> lock(mu_);
  if (worker < 0 || worker >= topology_.workers()) {
    return;
  }
  links_[static_cast<size_t>(worker)]->heartbeat_lost = lost;
}

bool Coordinator::WaitForResults(int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  FlushAllLocked();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  return cv_.wait_until(lock, deadline, [&] { return closes_pending_ == 0; });
}

FleetReport Coordinator::Finish() {
  FleetReport report;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) {
      return report;
    }
    finished_ = true;
    report.outcomes.reserve(sessions_.size());
    for (auto& [id, state] : sessions_) {
      if (!state.done) {
        state.outcome.aborted = true;
        state.outcome.stream_error = "no result before Finish";
        FinishSessionLocked(id, &state);
      }
      report.outcomes.push_back(std::move(state.outcome));
    }
    std::vector<const hangdoctor::SessionResult*> clean;
    for (const netd::NetSessionOutcome& outcome : report.outcomes) {
      if (!outcome.aborted) {
        clean.push_back(&outcome.result);
      }
    }
    report.merged = hangdoctor::MergeSessionReports(clean);
    for (int32_t w = 0; w < topology_.workers(); ++w) {
      Link& link = *links_[static_cast<size_t>(w)];
      if (link.alive && !topology_.fenced(w)) {
        netd::AppendFrame(&link.out, ByeFrame());  // behind the last buffered frames
        FlushLinkLocked(w);
      }
      if (link.client.connected()) {
        ::shutdown(link.client.fd(), SHUT_RDWR);  // wake the reader
      }
      link.alive = false;
    }
    report.stats = stats_;
  }
  for (auto& link : links_) {
    if (link->reader.joinable()) {
      link->reader.join();
    }
    link->client.Close();
  }
  return report;
}

int32_t Coordinator::OwnerOf(uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  return topology_.OwnerOf(session);
}

uint64_t Coordinator::epoch() {
  std::lock_guard<std::mutex> lock(mu_);
  return topology_.epoch();
}

bool Coordinator::fenced(int32_t worker) {
  std::lock_guard<std::mutex> lock(mu_);
  return topology_.fenced(worker);
}

WorkerHealth Coordinator::LastHealth(int32_t worker) {
  std::lock_guard<std::mutex> lock(mu_);
  return topology_.health(worker);
}

CoordinatorStats Coordinator::stats() {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Coordinator::ReaderLoop(int32_t worker) {
  Link& link = *links_[static_cast<size_t>(worker)];
  netd::Reply reply;
  while (link.client.ReadReply(&reply)) {
    // A result is decoded into its outcome before the lock is taken, so routing never
    // waits on a decode.
    netd::NetSessionOutcome decoded;
    std::string error;
    if (reply.tag == netd::ReplyTag::kSessionResult &&
        !netd::DecodeSessionResult(reply.result, &decoded.result, &error)) {
      decoded.aborted = true;
      decoded.stream_error = "result decode failed: " + error;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) {
      return;
    }
    OnReplyLocked(worker, reply, &decoded);
  }
  std::lock_guard<std::mutex> lock(mu_);
  link.alive = false;
  if (!finished_) {
    CascadeFenceLocked(worker, "link closed");
  }
}

void Coordinator::OnReplyLocked(int32_t worker, const netd::Reply& reply,
                                netd::NetSessionOutcome* decoded) {
  Link& link = *links_[static_cast<size_t>(worker)];
  switch (reply.tag) {
    case netd::ReplyTag::kSessionResult: {
      auto it = sessions_.find(reply.session_id);
      if (it == sessions_.end() || it->second.done) {
        return;
      }
      // Owner gate: only the session's current owner may conclude it. A result from a
      // worker the session migrated away from (or a fenced worker) is a stale duplicate —
      // the live owner replays the same prefix and produces the identical result.
      if (topology_.fenced(worker) || topology_.OwnerOf(reply.session_id) != worker) {
        return;
      }
      decoded->id = it->second.outcome.id;
      stats_.results += decoded->aborted ? 0 : 1;
      it->second.outcome = std::move(*decoded);
      FinishSessionLocked(it->first, &it->second);
      return;
    }
    case netd::ReplyTag::kBusy: {
      auto it = sessions_.find(reply.session_id);
      if (it == sessions_.end() || it->second.done) {
        return;
      }
      if (topology_.OwnerOf(reply.session_id) != worker) {
        return;
      }
      it->second.outcome.aborted = true;
      it->second.outcome.stream_error = "refused: worker admission (busy)";
      FinishSessionLocked(it->first, &it->second);
      return;
    }
    case netd::ReplyTag::kHeartbeatAck:
      link.ack_pending = true;
      link.ack_health.live_sessions = reply.live_sessions;
      link.ack_health.records_applied = reply.records_applied;
      link.ack_health.applier_stuck = reply.applier_stuck;
      link.ack_health.lease_failed = reply.lease_failed;
      return;
    case netd::ReplyTag::kStaleEpoch:
      ++stats_.stale_epochs;
      return;
    case netd::ReplyTag::kHandoffAck:
      link.handoff_ack_epoch = reply.epoch;
      stats_.discarded += static_cast<int64_t>(reply.discarded);
      cv_.notify_all();
      return;
    case netd::ReplyTag::kSessionClosed:
    case netd::ReplyTag::kBye:
    case netd::ReplyTag::kHelloOk:
      return;  // kSessionResult carries everything the fold needs
    case netd::ReplyTag::kError:
      // Sticky protocol error: the worker closes next, and the reader's EOF path fences it.
      return;
  }
}

void Coordinator::CascadeFenceLocked(int32_t worker, const std::string& reason) {
  Link& link = *links_[static_cast<size_t>(worker)];
  if (link.client.connected()) {
    ::shutdown(link.client.fd(), SHUT_RDWR);
  }
  link.alive = false;
  if (topology_.fenced(worker)) {
    return;
  }
  int32_t target = topology_.Fence(worker, reason);
  ++stats_.failovers;
  FailoverLocked(worker, target, reason);
}

void Coordinator::FailoverLocked(int32_t victim, int32_t target, const std::string& reason) {
  Link& victim_link = *links_[static_cast<size_t>(victim)];
  if (victim_link.client.connected()) {
    ::shutdown(victim_link.client.fd(), SHUT_RDWR);
  }
  victim_link.alive = false;
  victim_link.out.clear();  // every unwritten byte is in a tap; the replay below delivers it
  if (target < 0) {
    total_outage_ = true;
    AbortUnfinishedLocked("total outage: " + reason);
    cv_.notify_all();
    return;
  }
  // Retarget every unfinished session the victim held *before* replaying any, so a cascade
  // (the target dying mid-replay) re-collects all of them under the next target.
  std::vector<uint64_t> ids;
  for (auto& [id, state] : sessions_) {
    if (!state.done && state.last_owner == victim) {
      state.last_owner = target;
      ids.push_back(id);
    }
  }
  stats_.recovered += static_cast<int64_t>(ids.size());
  if (!ReplayLocked(target, ids)) {
    CascadeFenceLocked(target, "failover replay failed");
  }
}

bool Coordinator::ReplayLocked(int32_t target, const std::vector<uint64_t>& ids) {
  Link& link = *links_[static_cast<size_t>(target)];
  for (uint64_t id : ids) {
    const SessionState& state = sessions_[id];
    if (state.done || state.last_owner != target) {
      continue;  // concluded meanwhile, or re-collected by a cascade onto another target
    }
    link.out.append(state.tap);
    if (link.out.size() >= kLinkBatchBytes && !FlushLinkLocked(target)) {
      return false;
    }
  }
  return FlushLinkLocked(target);
}

bool Coordinator::FlushLinkLocked(int32_t worker) {
  Link& link = *links_[static_cast<size_t>(worker)];
  if (!link.alive) {
    link.out.clear();
    return false;
  }
  if (link.out.empty()) {
    return true;
  }
  ++stats_.link_writes;
  bool ok = link.client.SendRaw(link.out);
  link.out.clear();
  if (link.out.capacity() > 4 * kLinkBatchBytes) {
    link.out.shrink_to_fit();  // a large replay does not pin its buffer for the whole run
  }
  return ok;
}

void Coordinator::FlushAllLocked() {
  for (int32_t w = 0; w < topology_.workers(); ++w) {
    Link& link = *links_[static_cast<size_t>(w)];
    if (link.out.empty() || topology_.fenced(w)) {
      continue;
    }
    // A failed write fences the link; the failover replays (and writes) its sessions' taps
    // on the target, so a target already passed in this sweep is not left buffered.
    if (!FlushLinkLocked(w)) {
      CascadeFenceLocked(w, link.alive ? "send failed: " + link.client.error() : "link down");
    }
  }
}

void Coordinator::FinishSessionLocked(uint64_t id, SessionState* state) {
  state->done = true;
  closes_pending_ -= state->close_routed ? 1 : 0;
  state->tap.clear();
  state->tap.shrink_to_fit();
  if (options_.on_session_done) {
    options_.on_session_done(id, state->outcome.aborted);
  }
  cv_.notify_all();
}

void Coordinator::AbortUnfinishedLocked(const std::string& reason) {
  for (auto& [id, state] : sessions_) {
    if (!state.done) {
      state.outcome.aborted = true;
      state.outcome.stream_error = reason;
      FinishSessionLocked(id, &state);
    }
  }
}

}  // namespace fleetd
