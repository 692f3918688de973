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
  MuxFrameTag tag = MuxFrameTag::kEnd;
  telemetry::SessionId id{0};  // publish ordinal for kEpochPublish frames
  size_t frame_offset = 0;     // offset of the tag byte in the stream
  size_t payload_offset = 0;
  size_t payload_size = 0;
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
    frame.tag = static_cast<MuxFrameTag>(static_cast<uint8_t>(data[pos++]));
    if (frame.tag == MuxFrameTag::kEnd) {
      if (pos != data.size()) {
        *error = "trailing bytes after multiplexed log end marker";
        return false;
      }
      frames->push_back(frame);
      return true;
    }
    uint64_t id = 0;
    if (!GetVarint(data, &pos, &id)) {
      *error = "truncated frame session id";
      return false;
    }
    frame.id = telemetry::SessionId{id};
    switch (frame.tag) {
      case MuxFrameTag::kOpenSession:
      case MuxFrameTag::kRecord: {
        uint64_t size = 0;
        if (!GetVarint(data, &pos, &size)) {
          *error = "truncated frame size";
          return false;
        }
        // Compare against the remaining bytes, never `pos + size`: a fuzzed size near 2^64
        // would wrap that sum and pass the check.
        if (size > data.size() - pos) {
          *error = "frame payload overruns the stream";
          return false;
        }
        frame.payload_offset = pos;
        frame.payload_size = static_cast<size_t>(size);
        pos += frame.payload_size;
        break;
      }
      case MuxFrameTag::kCloseSession:
      case MuxFrameTag::kEpochPublish:  // the varint read above is the publish ordinal
        break;
      default:
        *error = "unknown frame tag " + std::to_string(static_cast<int>(frame.tag));
        return false;
    }
    frames->push_back(frame);
  }
  *error = "missing multiplexed log end marker";
  return false;
}

// Rebuilds per-session v2 byte strings from a parsed frame sequence, enforcing the
// open-before-record / close-exactly-once protocol. Output order = open-frame order.
bool AssembleSessions(const std::string& data, const std::vector<Frame>& frames,
                      std::vector<SessionLogSlice>* sessions, std::string* error) {
  struct State {
    size_t index = 0;
    bool closed = false;
  };
  std::unordered_map<uint64_t, State> states;
  for (const Frame& frame : frames) {
    switch (frame.tag) {
      case MuxFrameTag::kOpenSession: {
        auto [it, inserted] = states.try_emplace(frame.id.value);
        if (!inserted) {
          *error = "session " + std::to_string(frame.id.value) + " opened twice";
          return false;
        }
        it->second.index = sessions->size();
        sessions->push_back(
            {frame.id, data.substr(frame.payload_offset, frame.payload_size)});
        break;
      }
      case MuxFrameTag::kRecord: {
        auto it = states.find(frame.id.value);
        if (it == states.end() || it->second.closed) {
          *error = "record for session " + std::to_string(frame.id.value) +
                   " outside its open/close window";
          return false;
        }
        (*sessions)[it->second.index].bytes.append(data, frame.payload_offset,
                                                   frame.payload_size);
        break;
      }
      case MuxFrameTag::kCloseSession: {
        auto it = states.find(frame.id.value);
        if (it == states.end() || it->second.closed) {
          *error = "close for session " + std::to_string(frame.id.value) +
                   " outside its open/close window";
          return false;
        }
        it->second.closed = true;
        // Regenerate the v2 end marker the mux stripped.
        (*sessions)[it->second.index].bytes.push_back(
            static_cast<char>(SessionRecordTag::kEnd));
        break;
      }
      case MuxFrameTag::kEpochPublish:
        break;  // no session bytes: a knowledge-base epoch boundary, replay-only
      case MuxFrameTag::kEnd:
        for (const auto& [id, state] : states) {
          if (!state.closed) {
            *error = "session " + std::to_string(id) + " never closed";
            return false;
          }
        }
        return true;
    }
  }
  *error = "missing multiplexed log end marker";
  return false;
}

}  // namespace

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
  std::vector<Frame> frames;
  if (!ParseMuxFrames(bytes, &frames, error)) {
    return false;
  }
  sessions->clear();
  if (!AssembleSessions(bytes, frames, sessions, error)) {
    return false;
  }
  // A corrupt container must fail here, not downstream: every reconstructed log re-parses.
  for (const SessionLogSlice& session : *sessions) {
    SessionLogLayout layout;
    if (!ScanForMux(session.bytes, &layout, error)) {
      *error = "demuxed session " + std::to_string(session.id.value) + " invalid: " + *error;
      return false;
    }
  }
  return true;
}

bool ReplayMultiplexedLog(const std::string& bytes, const ServiceOptions& options,
                          std::vector<SessionResult>* results, std::string* error) {
  std::vector<Frame> frames;
  if (!ParseMuxFrames(bytes, &frames, error)) {
    return false;
  }
  std::vector<SessionLogSlice> sessions;
  if (!AssembleSessions(bytes, frames, &sessions, error)) {
    return false;
  }

  // Parse each reconstructed log; the parsed logs own the symbol tables every ServiceRecord
  // of their session references, so they must outlive Consume below.
  std::vector<SessionLog> logs(sessions.size());
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (!LoadSessionLogBytes(sessions[i].bytes, &logs[i], error)) {
      *error = "session " + std::to_string(sessions[i].id.value) + ": " + *error;
      return false;
    }
    index_of[sessions[i].id.value] = i;
  }

  // Re-express the frame sequence as the interleaved SPI stream the service consumes live.
  std::vector<ServiceRecord> stream;
  stream.reserve(frames.size());
  std::vector<size_t> next_record(sessions.size(), 0);
  for (const Frame& frame : frames) {
    if (frame.tag == MuxFrameTag::kEnd) {
      break;
    }
    if (frame.tag == MuxFrameTag::kEpochPublish) {
      // Recorded epoch boundary: replay it as the service-wide publish record so the
      // replayed run sees the exact snapshot schedule the live run did.
      ServiceRecord publish;
      publish.session = telemetry::SessionId{0};
      publish.record.kind = SpiPayload::Kind::kKbPublish;
      stream.push_back(std::move(publish));
      continue;
    }
    size_t index = index_of.at(frame.id.value);
    ServiceRecord out;
    out.session = frame.id;
    switch (frame.tag) {
      case MuxFrameTag::kOpenSession:
        out.record.kind = SpiPayload::Kind::kSessionOpen;
        out.record.info = logs[index].info;
        out.record.config = logs[index].config;
        break;
      case MuxFrameTag::kCloseSession:
        out.record.kind = SpiPayload::Kind::kSessionClose;
        break;
      case MuxFrameTag::kRecord: {
        auto tag = static_cast<SessionRecordTag>(
            static_cast<uint8_t>(bytes[frame.payload_offset]));
        if (tag == SessionRecordTag::kTraceUsage) {
          continue;  // overhead footer: no SPI traffic to replay
        }
        // Each record is replayed exactly once, so its samples can move into the stream.
        if (!ToSpiPayload(std::move(logs[index].records[next_record[index]++]), &out.record)) {
          *error = "unexpected record tag in frame stream";
          return false;
        }
        break;
      }
      case MuxFrameTag::kEnd:
      case MuxFrameTag::kEpochPublish:  // both handled before the switch
        break;
    }
    stream.push_back(std::move(out));
  }

  DetectorService service(options);
  *results = service.Consume(stream);
  // The parsed logs die with this frame: each result takes its own owning table pointer.
  for (SessionResult& result : *results) {
    result.symbols = logs[index_of.at(result.id.value)].symbols;
  }
  return true;
}

}  // namespace hangdoctor
