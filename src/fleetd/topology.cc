#include "src/fleetd/topology.h"

#include <stdexcept>

namespace fleetd {

std::vector<SessionRange> PartitionSessions(uint64_t first, uint64_t last, int32_t workers) {
  if (workers < 1) {
    throw std::invalid_argument("PartitionSessions: workers must be >= 1");
  }
  std::vector<SessionRange> ranges(static_cast<size_t>(workers));
  if (first > last) {
    return ranges;  // all empty
  }
  uint64_t total = last - first + 1;
  uint64_t base = total / static_cast<uint64_t>(workers);
  uint64_t extra = total % static_cast<uint64_t>(workers);
  uint64_t lo = first;
  for (size_t w = 0; w < ranges.size(); ++w) {
    uint64_t size = base + (static_cast<uint64_t>(w) < extra ? 1 : 0);
    if (size == 0) {
      ranges[w] = SessionRange{1, 0};
      continue;
    }
    ranges[w] = SessionRange{lo, lo + size - 1};
    lo += size;
  }
  return ranges;
}

Topology::Topology(int32_t workers, const TopologyOptions& options) : options_(options) {
  if (workers < 1) {
    throw std::invalid_argument("Topology: workers must be >= 1");
  }
  if (options_.lease_timeout_ms < 1) {
    throw std::invalid_argument("Topology: lease_timeout_ms must be >= 1");
  }
  slots_.resize(static_cast<size_t>(workers));
}

void Topology::CheckWorker(int32_t worker) const {
  if (worker < 0 || worker >= workers()) {
    throw std::invalid_argument("Topology: worker index out of range");
  }
}

int32_t Topology::LowestLive() const {
  for (int32_t w = 0; w < workers(); ++w) {
    if (!slots_[static_cast<size_t>(w)].fenced) {
      return w;
    }
  }
  return -1;
}

void Topology::AssignRange(uint64_t first, uint64_t last) {
  std::vector<SessionRange> ranges = PartitionSessions(first, last, workers());
  for (size_t w = 0; w < ranges.size(); ++w) {
    if (ranges[w].empty()) {
      continue;
    }
    int32_t owner = static_cast<int32_t>(w);
    if (slots_[w].fenced) {
      owner = LowestLive();  // a dead worker's share lands on the failover target
    }
    if (owner < 0) {
      continue;  // total outage: the range stays unowned
    }
    assignments_.push_back(Assignment{ranges[w], owner});
  }
}

int32_t Topology::OwnerOf(uint64_t id) const {
  // A fenced owner is no owner: on total outage the last Fence() has no live target to
  // retarget assignments to, so they keep naming their dead worker.
  auto live_or_none = [this](int32_t owner) {
    return owner >= 0 && !slots_[static_cast<size_t>(owner)].fenced ? owner : -1;
  };
  for (const Assignment& a : assignments_) {
    if (a.range.Contains(id)) {
      return live_or_none(a.owner);
    }
  }
  return -1;
}

void Topology::Register(int32_t worker, int64_t now_ms) {
  CheckWorker(worker);
  Slot& slot = slots_[static_cast<size_t>(worker)];
  slot.registered = true;
  slot.lease_expires_ms = now_ms + options_.lease_timeout_ms;
}

bool Topology::OnHeartbeatAck(int32_t worker, int64_t now_ms, const WorkerHealth& health) {
  CheckWorker(worker);
  Slot& slot = slots_[static_cast<size_t>(worker)];
  if (slot.fenced || !slot.registered) {
    return false;
  }
  slot.health = health;
  slot.lease_expires_ms = now_ms + options_.lease_timeout_ms;
  return true;
}

std::vector<FailoverDecision> Topology::Tick(int64_t now_ms) {
  std::vector<FailoverDecision> decisions;
  for (int32_t w = 0; w < workers(); ++w) {
    const Slot& slot = slots_[static_cast<size_t>(w)];
    if (!slot.registered || slot.fenced) {
      continue;
    }
    std::string reason;
    if (slot.health.lease_failed) {
      reason = "lease forfeited by self-watchdog";
    } else if (now_ms >= slot.lease_expires_ms) {
      reason = "lease expired";
    } else {
      continue;
    }
    FailoverDecision decision;
    decision.victim = w;
    decision.reason = reason;
    decision.target = Fence(w, reason);
    decision.epoch = epoch_;
    decisions.push_back(std::move(decision));
  }
  return decisions;
}

int32_t Topology::Fence(int32_t worker, const std::string& reason) {
  CheckWorker(worker);
  Slot& slot = slots_[static_cast<size_t>(worker)];
  if (slot.fenced) {
    return -1;
  }
  slot.fenced = true;
  slot.fence_reason = reason;
  ++epoch_;
  int32_t target = LowestLive();
  if (target < 0) {
    return -1;
  }
  for (Assignment& a : assignments_) {
    if (a.owner == worker) {
      a.owner = target;
    }
  }
  return target;
}

uint64_t Topology::MoveRanges(int32_t from, int32_t to) {
  CheckWorker(from);
  CheckWorker(to);
  if (from == to) {
    throw std::invalid_argument("Topology::MoveRanges: from == to");
  }
  if (slots_[static_cast<size_t>(from)].fenced || slots_[static_cast<size_t>(to)].fenced) {
    throw std::invalid_argument("Topology::MoveRanges: fenced worker");
  }
  ++epoch_;
  for (Assignment& a : assignments_) {
    if (a.owner == from) {
      a.owner = to;
    }
  }
  return epoch_;
}

bool Topology::fenced(int32_t worker) const {
  CheckWorker(worker);
  return slots_[static_cast<size_t>(worker)].fenced;
}

const std::string& Topology::fence_reason(int32_t worker) const {
  CheckWorker(worker);
  return slots_[static_cast<size_t>(worker)].fence_reason;
}

int64_t Topology::lease_expires_ms(int32_t worker) const {
  CheckWorker(worker);
  return slots_[static_cast<size_t>(worker)].lease_expires_ms;
}

int32_t Topology::live_workers() const {
  int32_t live = 0;
  for (const Slot& slot : slots_) {
    live += slot.fenced ? 0 : 1;
  }
  return live;
}

}  // namespace fleetd
