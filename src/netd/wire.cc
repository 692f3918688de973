#include "src/netd/wire.h"

#include <string>
#include <utility>

namespace netd {

namespace {

using telemetry::FieldRef;

constexpr char kMagic[4] = {'H', 'D', 'S', 'L'};

struct Hello {
  uint32_t version = 0;
  HelloRole role = HelloRole::kClient;
};

template <typename IO>
void HelloFields(IO& io, FieldRef<IO, Hello> hello) {
  io.Magic({kMagic, sizeof(kMagic)});
  io.Varint(hello.version);
  // The role is optional: a client's HELLO omits it, which keeps it the two-field payload.
  bool has_role = false;
  if constexpr (IO::kReading) {
    has_role = !io.AtEnd();
  } else {
    has_role = hello.role != HelloRole::kClient;
  }
  if (has_role) {
    auto role = static_cast<uint64_t>(hello.role);
    io.Varint(role);
    if constexpr (IO::kReading) {
      if (io.ok() && role > static_cast<uint64_t>(HelloRole::kWorker)) {
        io.Fail("unknown role " + std::to_string(role));
      }
      hello.role = static_cast<HelloRole>(role);
    }
  }
}

// A control frame: its lead byte, the sender's epoch, and for a handoff the session ids.
template <typename IO>
void HeartbeatFields(IO& io, FieldRef<IO, uint64_t> epoch) {
  io.Magic({reinterpret_cast<const char*>(&kCtrlHeartbeat), 1});
  io.Varint(epoch);
}

template <typename IO>
void HandoffFields(IO& io, FieldRef<IO, uint64_t> epoch,
                   FieldRef<IO, std::vector<uint64_t>> sessions) {
  io.Magic({reinterpret_cast<const char*>(&kCtrlHandoff), 1});
  io.Varint(epoch);
  io.Sequence(sessions, [&io](FieldRef<IO, uint64_t> id) { io.Varint(id); });
}

// A server reply: the tag byte, then the fields that tag carries.
template <typename IO>
void ReplyFields(IO& io, FieldRef<IO, Reply> reply) {
  auto tag = static_cast<uint8_t>(reply.tag);
  io.Byte(tag);
  if constexpr (IO::kReading) {
    reply.tag = static_cast<ReplyTag>(tag);
  }
  switch (static_cast<ReplyTag>(tag)) {
    case ReplyTag::kHelloOk:
      io.Varint(reply.version);
      break;
    case ReplyTag::kBusy:
      io.Varint(reply.session_id);
      io.Varint(reply.live_bytes);
      io.Varint(reply.budget_bytes);
      break;
    case ReplyTag::kSessionClosed:
      io.Varint(reply.session_id);
      io.Bool(reply.stream_ok);
      io.Varint(reply.report_entries);
      io.String(reply.message);
      break;
    case ReplyTag::kError:
      io.String(reply.message);
      break;
    case ReplyTag::kBye:
      io.Varint(reply.sessions_closed);
      break;
    case ReplyTag::kHeartbeatAck:
      io.Varint(reply.epoch);
      io.Varint(reply.live_sessions);
      io.Varint(reply.records_applied);
      io.Bool(reply.applier_stuck);
      io.Bool(reply.lease_failed);
      break;
    case ReplyTag::kStaleEpoch:
      io.Varint(reply.epoch);
      break;
    case ReplyTag::kHandoffAck:
      io.Varint(reply.epoch);
      io.Varint(reply.discarded);
      break;
    case ReplyTag::kSessionResult:
      io.Varint(reply.session_id);
      io.String(reply.result);
      break;
    default:
      if constexpr (IO::kReading) {
        io.Fail("unknown tag " + std::to_string(tag));
      }
      break;
  }
}

// Decodes a whole payload with `fields`, prefixing any failure with `what`.
template <typename Fields>
bool Decode(std::string_view payload, const char* what, std::string* error, Fields&& fields) {
  std::string reason;
  telemetry::ByteReader io(payload, &reason, "payload");
  fields(io);
  if (io.ok() && !io.AtEnd()) {
    io.Fail("trailing bytes");
  }
  if (!io.ok()) {
    *error = std::string(what) + ": " + reason;
    return false;
  }
  return true;
}

// Encodes a reply of `tag` whose fields `set` fills in.
template <typename Set>
std::string EncodeReply(ReplyTag tag, Set&& set) {
  Reply reply;
  reply.tag = tag;
  set(reply);
  std::string payload;
  telemetry::ByteWriter io(&payload);
  ReplyFields(io, reply);
  return payload;
}

}  // namespace

std::string BuildHello(uint32_t version, HelloRole role) {
  std::string payload;
  telemetry::ByteWriter io(&payload);
  HelloFields(io, Hello{version, role});
  return payload;
}

bool ParseHello(std::string_view payload, uint32_t* version, HelloRole* role,
                std::string* error) {
  Hello hello;
  if (!Decode(payload, "hello", error, [&](auto& io) { HelloFields(io, hello); })) {
    return false;
  }
  *version = hello.version;
  *role = hello.role;
  return true;
}

std::string BuildHeartbeat(uint64_t epoch) {
  std::string payload;
  telemetry::ByteWriter io(&payload);
  HeartbeatFields(io, epoch);
  return payload;
}

bool ParseHeartbeat(std::string_view payload, uint64_t* epoch, std::string* error) {
  return Decode(payload, "heartbeat", error, [&](auto& io) { HeartbeatFields(io, *epoch); });
}

std::string BuildHandoff(uint64_t epoch, const std::vector<uint64_t>& sessions) {
  std::string payload;
  telemetry::ByteWriter io(&payload);
  HandoffFields(io, epoch, sessions);
  return payload;
}

bool ParseHandoff(std::string_view payload, uint64_t* epoch,
                  std::vector<uint64_t>* sessions, std::string* error) {
  return Decode(payload, "handoff", error,
                [&](auto& io) { HandoffFields(io, *epoch, *sessions); });
}

std::string BuildHelloOk(uint32_t version) {
  return EncodeReply(ReplyTag::kHelloOk, [&](Reply& r) { r.version = version; });
}

std::string BuildBusy(uint64_t session_id, uint64_t live_bytes, uint64_t budget_bytes) {
  return EncodeReply(ReplyTag::kBusy, [&](Reply& r) {
    r.session_id = session_id;
    r.live_bytes = live_bytes;
    r.budget_bytes = budget_bytes;
  });
}

std::string BuildSessionClosed(uint64_t session_id, bool stream_ok, uint64_t report_entries,
                               const std::string& stream_error) {
  return EncodeReply(ReplyTag::kSessionClosed, [&](Reply& r) {
    r.session_id = session_id;
    r.stream_ok = stream_ok;
    r.report_entries = report_entries;
    r.message = stream_error;
  });
}

std::string BuildError(const std::string& message) {
  return EncodeReply(ReplyTag::kError, [&](Reply& r) { r.message = message; });
}

std::string BuildBye(uint64_t sessions_closed) {
  return EncodeReply(ReplyTag::kBye, [&](Reply& r) { r.sessions_closed = sessions_closed; });
}

std::string BuildHeartbeatAck(uint64_t epoch, uint64_t live_sessions,
                              uint64_t records_applied, bool applier_stuck,
                              bool lease_failed) {
  return EncodeReply(ReplyTag::kHeartbeatAck, [&](Reply& r) {
    r.epoch = epoch;
    r.live_sessions = live_sessions;
    r.records_applied = records_applied;
    r.applier_stuck = applier_stuck;
    r.lease_failed = lease_failed;
  });
}

std::string BuildStaleEpoch(uint64_t lease_epoch) {
  return EncodeReply(ReplyTag::kStaleEpoch, [&](Reply& r) { r.epoch = lease_epoch; });
}

std::string BuildHandoffAck(uint64_t epoch, uint64_t discarded) {
  return EncodeReply(ReplyTag::kHandoffAck, [&](Reply& r) {
    r.epoch = epoch;
    r.discarded = discarded;
  });
}

std::string BuildSessionResult(uint64_t session_id, const std::string& result_bytes) {
  return EncodeReply(ReplyTag::kSessionResult, [&](Reply& r) {
    r.session_id = session_id;
    r.result = result_bytes;
  });
}

bool ParseReply(const std::string& payload, Reply* reply, std::string* error) {
  *reply = Reply{};
  return Decode(payload, "reply", error, [&](auto& io) { ReplyFields(io, *reply); });
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
