#include "src/hosts/mux_log.h"

#include <cstring>
#include <unordered_map>
#include <utility>

#include "src/telemetry/bytes.h"

namespace hangdoctor {

namespace {

using telemetry::GetVarint;
using telemetry::PutVarint;

// Validates one v2 log for muxing: well-formed, and its end marker is the final byte (the
// demuxer regenerates the marker at the close frame, so trailing bytes would be lost).
bool ScanForMux(const std::string& bytes, SessionLogLayout* layout, std::string* error) {
  if (!ScanSessionLog(bytes, layout, error)) {
    return false;
  }
  // ScanSessionLog guarantees at least the end-marker offset.
  if (layout->record_offsets.back() + 1 != bytes.size()) {
    *error = "trailing bytes after session log end marker";
    return false;
  }
  return true;
}

struct Frame {
  MuxFrameHeader header;
  size_t frame_offset = 0;  // offset of the tag byte in the stream
  size_t payload_offset = 0;
};

bool ParseMuxFrames(const std::string& data, std::vector<Frame>* frames, std::string* error) {
  if (data.size() < sizeof(kSessionLogMagic) ||
      std::memcmp(data.data(), kSessionLogMagic, sizeof(kSessionLogMagic)) != 0) {
    *error = "not a multiplexed log (bad magic)";
    return false;
  }
  size_t pos = sizeof(kSessionLogMagic);
  uint64_t version = 0;
  if (!GetVarint(data, &pos, &version)) {
    *error = "truncated multiplexed log version";
    return false;
  }
  if (version != kMuxLogVersion) {
    *error = "unsupported multiplexed log version " + std::to_string(version);
    return false;
  }
  while (pos < data.size()) {
    Frame frame;
    frame.frame_offset = pos;
    const MuxFrameHeader& header = frame.header;
    switch (ReadMuxFrameHeader(data, &pos, &frame.header)) {
      case MuxHeaderRead::kOk:
        break;
      case MuxHeaderRead::kBadId:
        *error = "truncated frame session id";
        return false;
      case MuxHeaderRead::kBadSize:
        *error = "truncated frame size";
        return false;
      default:  // kUnknownTag; the loop condition rules out kEmpty
        *error = "unknown frame tag " + std::to_string(static_cast<int>(header.tag));
        return false;
    }
    if (header.tag == MuxFrameTag::kEnd) {
      if (pos != data.size()) {
        *error = "trailing bytes after multiplexed log end marker";
        return false;
      }
      frames->push_back(frame);
      return true;
    }
    if (header.tag == MuxFrameTag::kOpenSession || header.tag == MuxFrameTag::kRecord) {
      // Compare against the remaining bytes, never `pos + size`: a fuzzed size near 2^64
      // would wrap that sum and pass the check.
      if (header.size > data.size() - pos) {
        *error = "frame payload overruns the stream";
        return false;
      }
      frame.payload_offset = pos;
      pos += static_cast<size_t>(header.size);
    }
    frames->push_back(frame);
  }
  *error = "missing multiplexed log end marker";
  return false;
}

// The one offline reader: ParseMuxFrames finds the frame boundaries and a decoder handles
// each frame, so the container is held to exactly the rules a wire connection is. On top of
// them the container rule: each session id opens once. `visit(frame, decoded, session)` sees
// every decoded frame in stream order; `session` is the ordinal of the frame's session among
// the opens (meaningful for kOpen, kRecord and kClose).
template <typename Visit>
bool DecodeMuxLog(const std::string& bytes, std::string* error, Visit&& visit) {
  std::vector<Frame> frames;
  if (!ParseMuxFrames(bytes, &frames, error)) {
    return false;
  }
  MuxStreamDecoder decoder;
  DecodedFrame decoded;
  std::unordered_map<uint64_t, size_t> opened;  // session id -> open ordinal
  for (size_t i = 0; i < frames.size(); ++i) {
    const Frame& frame = frames[i];
    if (frame.header.tag == MuxFrameTag::kOpenSession &&
        !opened.try_emplace(frame.header.id, opened.size()).second) {
      *error = "session " + std::to_string(frame.header.id) + " opened twice";
      return false;
    }
    size_t end = i + 1 < frames.size() ? frames[i + 1].frame_offset : bytes.size();
    std::string_view payload(bytes.data() + frame.frame_offset, end - frame.frame_offset);
    if (!decoder.Decode(payload, &decoded)) {
      *error = decoder.error();
      return false;
    }
    bool has_session = decoded.kind != DecodedFrame::Kind::kEpochPublish &&
                       decoded.kind != DecodedFrame::Kind::kBye;
    visit(frame, decoded, has_session ? opened.at(decoded.id.value) : 0);
  }
  return true;
}

}  // namespace

MuxHeaderRead ReadMuxFrameHeader(std::string_view bytes, size_t* pos, MuxFrameHeader* header) {
  if (*pos >= bytes.size()) {
    return MuxHeaderRead::kEmpty;
  }
  header->tag = static_cast<MuxFrameTag>(static_cast<uint8_t>(bytes[(*pos)++]));
  header->id = 0;
  header->size = 0;
  switch (header->tag) {
    case MuxFrameTag::kEnd:
      return MuxHeaderRead::kOk;
    case MuxFrameTag::kCloseSession:
    case MuxFrameTag::kEpochPublish:
      return GetVarint(bytes, pos, &header->id) ? MuxHeaderRead::kOk : MuxHeaderRead::kBadId;
    case MuxFrameTag::kOpenSession:
    case MuxFrameTag::kRecord:
      if (!GetVarint(bytes, pos, &header->id)) {
        return MuxHeaderRead::kBadId;
      }
      return GetVarint(bytes, pos, &header->size) ? MuxHeaderRead::kOk : MuxHeaderRead::kBadSize;
    default:
      return MuxHeaderRead::kUnknownTag;
  }
}

bool MuxStreamDecoder::Fail(const std::string& message) {
  if (ok_) {
    ok_ = false;
    error_ = message;
  }
  return false;
}

bool MuxStreamDecoder::Decode(std::string_view payload, DecodedFrame* out,
                              SpiPayload* record) {
  if (!ok_) {
    return false;
  }
  if (saw_bye_) {
    return Fail("frame after container end");
  }
  if (payload.empty()) {
    return Fail("empty container frame");
  }
  // Reset only what every frame sets: a reused frame keeps its buffers (and its 800-byte
  // payload is not rebuilt from defaults per frame).
  out->id = telemetry::SessionId{0};
  out->open_bytes = 0;
  out->session = nullptr;
  out->skip = false;
  out->record.session = out->id;
  size_t pos = 0;
  MuxFrameHeader header;
  const MuxHeaderRead read = ReadMuxFrameHeader(payload, &pos, &header);
  const uint64_t id = header.id;
  switch (header.tag) {
    case MuxFrameTag::kOpenSession: {
      if (read != MuxHeaderRead::kOk) {
        return Fail("malformed open frame");
      }
      if (header.size != payload.size() - pos) {
        return Fail("open frame size mismatch");
      }
      auto [session, inserted] = live_.Insert(telemetry::SessionId{id}, MuxSession{});
      if (!inserted) {
        return Fail("duplicate open for session " + std::to_string(id));
      }
      // A failed parse leaves the entry behind, but a failed decoder decodes nothing more.
      auto log = std::make_shared<SessionLog>();
      std::string error;
      if (!ParseSessionLogPrefix(payload.substr(pos), *symbols_, log.get(), &error,
                                 &out->shared_symbols)) {
        return Fail("session " + std::to_string(id) + ": " + error);
      }
      session->log = log;
      out->kind = DecodedFrame::Kind::kOpen;
      out->id = telemetry::SessionId{id};
      out->open_bytes = payload.size();
      out->log = std::move(log);
      out->session = session;
      out->record.session = out->id;
      record->kind = SpiPayload::Kind::kSessionOpen;
      record->info = out->log->info;
      record->config = out->log->config;
      return true;
    }
    case MuxFrameTag::kRecord: {
      if (read != MuxHeaderRead::kOk) {
        return Fail("malformed record frame");
      }
      if (header.size != payload.size() - pos) {
        return Fail("record frame size mismatch");
      }
      MuxSession* session = live_.Find(telemetry::SessionId{id});
      if (session == nullptr) {
        return Fail("record for unopened session " + std::to_string(id));
      }
      std::string error;
      if (!ParseSessionRecordBytes(payload.substr(pos), *session->log->symbols, &parsed_,
                                   &error)) {
        return Fail("session " + std::to_string(id) + ": " + error);
      }
      out->kind = DecodedFrame::Kind::kRecord;
      out->id = telemetry::SessionId{id};
      if (out->log != nullptr) {
        out->log.reset();  // once, after an open or a close: later records find it null
      }
      out->session = session;
      out->record.session = out->id;
      if (!ToSpiPayload(std::move(parsed_), record)) {
        // kTraceUsage overhead footer (the parser rejects bare end markers): structurally a
        // record, but no SPI traffic to apply.
        out->skip = true;
      }
      return true;
    }
    case MuxFrameTag::kCloseSession: {
      if (read != MuxHeaderRead::kOk || pos != payload.size()) {
        return Fail("malformed close frame");
      }
      MuxSession ended;
      if (!live_.Erase(telemetry::SessionId{id}, &ended)) {
        return Fail("close for unopened session " + std::to_string(id));
      }
      out->kind = DecodedFrame::Kind::kClose;
      out->id = telemetry::SessionId{id};
      out->log = std::move(ended.log);
      out->record.session = out->id;
      record->kind = SpiPayload::Kind::kSessionClose;
      return true;
    }
    case MuxFrameTag::kEpochPublish: {
      if (read != MuxHeaderRead::kOk || pos != payload.size()) {
        return Fail("malformed epoch-publish frame");
      }
      out->kind = DecodedFrame::Kind::kEpochPublish;
      out->log.reset();
      return true;
    }
    case MuxFrameTag::kEnd: {
      if (pos != payload.size()) {
        return Fail("trailing bytes in end frame");
      }
      if (!live_.empty()) {
        return Fail("container end with " + std::to_string(live_.size()) +
                    " session(s) still open");
      }
      saw_bye_ = true;
      out->kind = DecodedFrame::Kind::kBye;
      out->log.reset();
      return true;
    }
    default:
      return Fail("unknown container frame tag " +
                  std::to_string(static_cast<int>(payload[0])));
  }
}

bool MuxFrameCount(const std::string& bytes, size_t* count, std::string* error) {
  SessionLogLayout layout;
  if (!ScanForMux(bytes, &layout, error)) {
    return false;
  }
  // open + one frame per record (the trailing v2 end marker is not a frame) + close.
  *count = layout.record_offsets.size() + 1;
  return true;
}

bool MuxSessionLogs(std::span<const SessionLogSlice> sessions, std::span<const size_t> schedule,
                    std::string* out, std::string* error) {
  std::vector<SessionLogLayout> layouts(sessions.size());
  std::vector<size_t> total_frames(sessions.size());
  std::unordered_map<uint64_t, size_t> seen_ids;
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (!seen_ids.try_emplace(sessions[i].id.value, i).second) {
      *error = "duplicate session id " + std::to_string(sessions[i].id.value);
      return false;
    }
    if (!ScanForMux(sessions[i].bytes, &layouts[i], error)) {
      *error = "session " + std::to_string(sessions[i].id.value) + ": " + *error;
      return false;
    }
    total_frames[i] = layouts[i].record_offsets.size() + 1;
  }

  std::vector<size_t> order;
  if (schedule.empty()) {
    // Round-robin: one frame from each still-pending session, in index order, until done.
    std::vector<size_t> left = total_frames;
    size_t pending = 0;
    for (size_t frames : total_frames) {
      pending += frames;
    }
    while (pending > 0) {
      for (size_t i = 0; i < sessions.size(); ++i) {
        if (left[i] > 0) {
          order.push_back(i);
          --left[i];
          --pending;
        }
      }
    }
    schedule = order;
  }

  std::vector<size_t> cursor(sessions.size(), 0);
  out->clear();
  out->append(kSessionLogMagic, sizeof(kSessionLogMagic));
  PutVarint(out, kMuxLogVersion);
  uint64_t publish_seq = 0;
  for (size_t index : schedule) {
    if (index == kMuxEpochPublish) {
      out->push_back(static_cast<char>(MuxFrameTag::kEpochPublish));
      PutVarint(out, ++publish_seq);
      continue;
    }
    if (index >= sessions.size()) {
      *error = "schedule entry " + std::to_string(index) + " out of range";
      return false;
    }
    const SessionLogSlice& session = sessions[index];
    const SessionLogLayout& layout = layouts[index];
    size_t frame = cursor[index]++;
    if (frame >= total_frames[index]) {
      *error = "schedule overruns session " + std::to_string(session.id.value);
      return false;
    }
    if (frame == 0) {
      out->push_back(static_cast<char>(MuxFrameTag::kOpenSession));
      PutVarint(out, session.id.value);
      PutVarint(out, layout.header_end);
      out->append(session.bytes, 0, layout.header_end);
    } else if (frame + 1 == total_frames[index]) {
      out->push_back(static_cast<char>(MuxFrameTag::kCloseSession));
      PutVarint(out, session.id.value);
    } else {
      size_t offset = layout.record_offsets[frame - 1];
      size_t size = layout.record_offsets[frame] - offset;
      out->push_back(static_cast<char>(MuxFrameTag::kRecord));
      PutVarint(out, session.id.value);
      PutVarint(out, size);
      out->append(session.bytes, offset, size);
    }
  }
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (cursor[i] != total_frames[i]) {
      *error = "schedule does not exhaust session " + std::to_string(sessions[i].id.value);
      return false;
    }
  }
  out->push_back(static_cast<char>(MuxFrameTag::kEnd));
  return true;
}

bool ScanMuxLog(const std::string& bytes, SessionLogLayout* layout, std::string* error) {
  std::vector<Frame> frames;
  if (!ParseMuxFrames(bytes, &frames, error)) {
    return false;
  }
  *layout = SessionLogLayout{};
  // ParseMuxFrames guarantees at least the kEnd frame, so record_offsets is never empty and
  // — matching ScanSessionLog's contract — its back() is the end marker's offset.
  layout->header_end = frames.front().frame_offset;
  layout->symtab_begin = layout->header_end;
  layout->record_offsets.reserve(frames.size());
  for (const Frame& frame : frames) {
    layout->record_offsets.push_back(frame.frame_offset);
  }
  return true;
}

bool DemuxSessionLog(const std::string& bytes, std::vector<SessionLogSlice>* sessions,
                     std::string* error) {
  sessions->clear();
  return DecodeMuxLog(bytes, error, [&](const Frame& frame, const DecodedFrame& decoded,
                                        size_t session) {
    switch (decoded.kind) {
      case DecodedFrame::Kind::kOpen:
        sessions->push_back(
            {decoded.id, bytes.substr(frame.payload_offset, frame.header.size)});
        break;
      case DecodedFrame::Kind::kRecord:
        (*sessions)[session].bytes.append(bytes, frame.payload_offset, frame.header.size);
        break;
      case DecodedFrame::Kind::kClose:
        // Regenerate the v2 end marker the mux stripped.
        (*sessions)[session].bytes.push_back(static_cast<char>(SessionRecordTag::kEnd));
        break;
      case DecodedFrame::Kind::kEpochPublish:  // no session bytes: replay-only
      case DecodedFrame::Kind::kBye:
        break;
    }
  });
}

bool ReplayMultiplexedLog(const std::string& bytes, const ServiceOptions& options,
                          std::vector<SessionResult>* results, std::string* error) {
  // The frame sequence as the interleaved SPI stream the service consumes live, plus each
  // session's symbol table: the stream's records point into it, and its result owns it.
  std::vector<ServiceRecord> stream;
  std::unordered_map<uint64_t, std::shared_ptr<const telemetry::SymbolTable>> tables;
  bool ok = DecodeMuxLog(bytes, error, [&](const Frame&, DecodedFrame& decoded, size_t) {
    if (decoded.kind == DecodedFrame::Kind::kOpen) {
      tables[decoded.id.value] = decoded.log->symbols;
    } else if (decoded.kind == DecodedFrame::Kind::kEpochPublish) {
      // A recorded epoch boundary replays as the service-wide publish record, so the replay
      // sees the exact snapshot schedule the live run did.
      decoded.record.record.kind = SpiPayload::Kind::kKbPublish;
    } else if (decoded.kind == DecodedFrame::Kind::kBye || decoded.skip) {
      return;  // the end, or an overhead footer: no SPI traffic
    }
    stream.push_back(std::move(decoded.record));
  });
  if (!ok) {
    return false;
  }
  DetectorService service(options);
  *results = service.Consume(stream);
  for (SessionResult& result : *results) {
    result.symbols = tables.at(result.id.value);
  }
  return true;
}

}  // namespace hangdoctor
