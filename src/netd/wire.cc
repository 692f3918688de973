#include "src/netd/wire.h"

#include <cstring>

namespace netd {

namespace {
constexpr char kMagic[4] = {'H', 'D', 'S', 'L'};
}  // namespace

std::string BuildHello(uint32_t version, HelloRole role) {
  std::string payload(kMagic, sizeof(kMagic));
  PutVarint(&payload, version);
  if (role != HelloRole::kClient) {
    PutVarint(&payload, static_cast<uint64_t>(role));
  }
  return payload;
}

bool ParseHello(std::string_view payload, uint32_t* version, HelloRole* role,
                std::string* error) {
  if (payload.size() < sizeof(kMagic) ||
      std::memcmp(payload.data(), kMagic, sizeof(kMagic)) != 0) {
    *error = "hello: bad magic";
    return false;
  }
  size_t pos = sizeof(kMagic);
  uint64_t value = 0;
  if (!GetVarint(payload, &pos, &value)) {
    *error = "hello: malformed version";
    return false;
  }
  *version = static_cast<uint32_t>(value);
  *role = HelloRole::kClient;
  if (pos < payload.size()) {
    uint64_t raw_role = 0;
    if (!GetVarint(payload, &pos, &raw_role) || pos != payload.size()) {
      *error = "hello: malformed role";
      return false;
    }
    if (raw_role > static_cast<uint64_t>(HelloRole::kWorker)) {
      *error = "hello: unknown role " + std::to_string(raw_role);
      return false;
    }
    *role = static_cast<HelloRole>(raw_role);
  }
  return true;
}

std::string BuildHeartbeat(uint64_t epoch) {
  std::string payload(1, static_cast<char>(kCtrlHeartbeat));
  PutVarint(&payload, epoch);
  return payload;
}

bool ParseHeartbeat(std::string_view payload, uint64_t* epoch, std::string* error) {
  if (payload.empty() || static_cast<uint8_t>(payload[0]) != kCtrlHeartbeat) {
    *error = "heartbeat: bad tag";
    return false;
  }
  size_t pos = 1;
  if (!GetVarint(payload, &pos, epoch) || pos != payload.size()) {
    *error = "heartbeat: malformed payload";
    return false;
  }
  return true;
}

std::string BuildHandoff(uint64_t epoch, const std::vector<uint64_t>& sessions) {
  std::string payload(1, static_cast<char>(kCtrlHandoff));
  PutVarint(&payload, epoch);
  PutVarint(&payload, sessions.size());
  for (uint64_t id : sessions) {
    PutVarint(&payload, id);
  }
  return payload;
}

bool ParseHandoff(std::string_view payload, uint64_t* epoch,
                  std::vector<uint64_t>* sessions, std::string* error) {
  if (payload.empty() || static_cast<uint8_t>(payload[0]) != kCtrlHandoff) {
    *error = "handoff: bad tag";
    return false;
  }
  size_t pos = 1;
  uint64_t count = 0;
  if (!GetVarint(payload, &pos, epoch) || !GetVarint(payload, &pos, &count)) {
    *error = "handoff: malformed payload";
    return false;
  }
  // Each id costs at least one byte, so `count` is bounded by the remaining payload — a
  // hostile count cannot reserve unbounded memory.
  if (count > payload.size() - pos) {
    *error = "handoff: session count exceeds payload";
    return false;
  }
  sessions->clear();
  sessions->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    if (!GetVarint(payload, &pos, &id)) {
      *error = "handoff: truncated session list";
      return false;
    }
    sessions->push_back(id);
  }
  if (pos != payload.size()) {
    *error = "handoff: trailing bytes";
    return false;
  }
  return true;
}

std::string BuildHelloOk(uint32_t version) {
  std::string payload(1, static_cast<char>(ReplyTag::kHelloOk));
  PutVarint(&payload, version);
  return payload;
}

std::string BuildBusy(uint64_t session_id, uint64_t live_bytes, uint64_t budget_bytes) {
  std::string payload(1, static_cast<char>(ReplyTag::kBusy));
  PutVarint(&payload, session_id);
  PutVarint(&payload, live_bytes);
  PutVarint(&payload, budget_bytes);
  return payload;
}

std::string BuildSessionClosed(uint64_t session_id, bool stream_ok, uint64_t report_entries,
                               const std::string& stream_error) {
  std::string payload(1, static_cast<char>(ReplyTag::kSessionClosed));
  PutVarint(&payload, session_id);
  payload.push_back(stream_ok ? '\1' : '\0');
  PutVarint(&payload, report_entries);
  PutString(&payload, stream_error);
  return payload;
}

std::string BuildError(const std::string& message) {
  std::string payload(1, static_cast<char>(ReplyTag::kError));
  PutString(&payload, message);
  return payload;
}

std::string BuildBye(uint64_t sessions_closed) {
  std::string payload(1, static_cast<char>(ReplyTag::kBye));
  PutVarint(&payload, sessions_closed);
  return payload;
}

std::string BuildHeartbeatAck(uint64_t epoch, uint64_t live_sessions,
                              uint64_t records_applied, bool applier_stuck,
                              bool lease_failed) {
  std::string payload(1, static_cast<char>(ReplyTag::kHeartbeatAck));
  PutVarint(&payload, epoch);
  PutVarint(&payload, live_sessions);
  PutVarint(&payload, records_applied);
  payload.push_back(applier_stuck ? '\1' : '\0');
  payload.push_back(lease_failed ? '\1' : '\0');
  return payload;
}

std::string BuildStaleEpoch(uint64_t lease_epoch) {
  std::string payload(1, static_cast<char>(ReplyTag::kStaleEpoch));
  PutVarint(&payload, lease_epoch);
  return payload;
}

std::string BuildHandoffAck(uint64_t epoch, uint64_t discarded) {
  std::string payload(1, static_cast<char>(ReplyTag::kHandoffAck));
  PutVarint(&payload, epoch);
  PutVarint(&payload, discarded);
  return payload;
}

std::string BuildSessionResult(uint64_t session_id, const std::string& result_bytes) {
  std::string payload(1, static_cast<char>(ReplyTag::kSessionResult));
  PutVarint(&payload, session_id);
  PutString(&payload, result_bytes);
  return payload;
}

bool ParseReply(const std::string& payload, Reply* reply, std::string* error) {
  if (payload.empty()) {
    *error = "reply: empty payload";
    return false;
  }
  *reply = Reply{};
  reply->tag = static_cast<ReplyTag>(static_cast<uint8_t>(payload[0]));
  size_t pos = 1;
  uint64_t value = 0;
  bool ok = true;
  switch (reply->tag) {
    case ReplyTag::kHelloOk:
      ok = GetVarint(payload, &pos, &value);
      reply->version = static_cast<uint32_t>(value);
      break;
    case ReplyTag::kBusy:
      ok = GetVarint(payload, &pos, &reply->session_id) &&
           GetVarint(payload, &pos, &reply->live_bytes) &&
           GetVarint(payload, &pos, &reply->budget_bytes);
      break;
    case ReplyTag::kSessionClosed:
      ok = GetVarint(payload, &pos, &reply->session_id);
      if (ok && pos < payload.size()) {
        reply->stream_ok = payload[pos++] != '\0';
      } else {
        ok = false;
      }
      ok = ok && GetVarint(payload, &pos, &reply->report_entries) &&
           GetString(payload, &pos, &reply->message);
      break;
    case ReplyTag::kError:
      ok = GetString(payload, &pos, &reply->message);
      break;
    case ReplyTag::kBye:
      ok = GetVarint(payload, &pos, &reply->sessions_closed);
      break;
    case ReplyTag::kHeartbeatAck:
      ok = GetVarint(payload, &pos, &reply->epoch) &&
           GetVarint(payload, &pos, &reply->live_sessions) &&
           GetVarint(payload, &pos, &reply->records_applied) &&
           payload.size() - pos == 2;
      if (ok) {
        reply->applier_stuck = payload[pos++] != '\0';
        reply->lease_failed = payload[pos++] != '\0';
      }
      break;
    case ReplyTag::kStaleEpoch:
      ok = GetVarint(payload, &pos, &reply->epoch);
      break;
    case ReplyTag::kHandoffAck:
      ok = GetVarint(payload, &pos, &reply->epoch) &&
           GetVarint(payload, &pos, &reply->discarded);
      break;
    case ReplyTag::kSessionResult:
      ok = GetVarint(payload, &pos, &reply->session_id) &&
           GetString(payload, &pos, &reply->result);
      break;
    default:
      *error = "reply: unknown tag " + std::to_string(static_cast<int>(reply->tag));
      return false;
  }
  if (!ok || pos != payload.size()) {
    *error = "reply: malformed payload";
    return false;
  }
  return true;
}

bool FrameSplitter::Fail(const std::string& message) {
  if (ok_) {
    ok_ = false;
    error_ = message;
  }
  return false;
}

bool FrameSplitter::Feed(const char* data, size_t size) {
  if (!ok_) {
    return false;
  }
  // Reclaim the consumed prefix before it grows without bound (steady state keeps the
  // buffer under one frame + one read chunk).
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > (64u << 10)) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
  return true;
}

bool FrameSplitter::Next(std::string* payload) {
  std::string_view view;
  if (!Next(&view)) {
    return false;
  }
  payload->assign(view);
  return true;
}

bool FrameSplitter::Next(std::string_view* payload) {
  if (!ok_) {
    return false;
  }
  size_t pos = consumed_;
  uint64_t length = 0;
  if (!GetVarint(buffer_, &pos, &length)) {
    if (telemetry::VarintTruncated(buffer_, pos)) {
      return false;  // length prefix still arriving
    }
    return Fail("frame length varint overflow");
  }
  if (length == 0) {
    return Fail("zero-length frame");
  }
  if (length > max_frame_bytes_) {
    return Fail("frame length " + std::to_string(length) + " exceeds cap " +
                std::to_string(max_frame_bytes_));
  }
  if (length > buffer_.size() - pos) {
    return false;  // payload still arriving
  }
  *payload = std::string_view(buffer_).substr(pos, static_cast<size_t>(length));
  consumed_ = pos + static_cast<size_t>(length);
  return true;
}

}  // namespace netd
