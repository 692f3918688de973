#include "src/netd/record_codec.h"

#include <utility>

#include "src/netd/wire.h"

namespace netd {

namespace hd = hangdoctor;

bool MuxStreamDecoder::Fail(const std::string& message) {
  if (ok_) {
    ok_ = false;
    error_ = message;
  }
  return false;
}

bool MuxStreamDecoder::Decode(std::string_view payload, DecodedFrame* out) {
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
  out->skip = false;
  out->record.session = out->id;
  auto tag = static_cast<hd::MuxFrameTag>(static_cast<uint8_t>(payload[0]));
  size_t pos = 1;
  uint64_t id = 0;
  switch (tag) {
    case hd::MuxFrameTag::kOpenSession: {
      uint64_t size = 0;
      if (!GetVarint(payload, &pos, &id) || !GetVarint(payload, &pos, &size)) {
        return Fail("malformed open frame");
      }
      if (size != payload.size() - pos) {
        return Fail("open frame size mismatch");
      }
      if (live_.count(id) != 0) {
        return Fail("duplicate open for session " + std::to_string(id));
      }
      auto log = std::make_shared<hd::SessionLog>();
      std::string error;
      if (!hd::ParseSessionLogPrefix(payload.substr(pos), *symbols_, log.get(), &error,
                                     &out->shared_symbols)) {
        return Fail("session " + std::to_string(id) + ": " + error);
      }
      live_[id] = log;
      out->kind = DecodedFrame::Kind::kOpen;
      out->id = telemetry::SessionId{id};
      out->open_bytes = payload.size();
      out->log = log;
      out->record.session = out->id;
      out->record.record.kind = hd::SpiPayload::Kind::kSessionOpen;
      out->record.record.info = log->info;
      out->record.record.config = log->config;
      return true;
    }
    case hd::MuxFrameTag::kRecord: {
      uint64_t size = 0;
      if (!GetVarint(payload, &pos, &id) || !GetVarint(payload, &pos, &size)) {
        return Fail("malformed record frame");
      }
      if (size != payload.size() - pos) {
        return Fail("record frame size mismatch");
      }
      auto it = live_.find(id);
      if (it == live_.end()) {
        return Fail("record for unopened session " + std::to_string(id));
      }
      hd::SessionRecord record;
      std::string error;
      if (!hd::ParseSessionRecordBytes(payload.substr(pos), *it->second->symbols, &record,
                                       &error)) {
        return Fail("session " + std::to_string(id) + ": " + error);
      }
      out->kind = DecodedFrame::Kind::kRecord;
      out->id = telemetry::SessionId{id};
      out->log = it->second;
      out->record.session = out->id;
      if (!hd::ToSpiPayload(std::move(record), &out->record.record)) {
        // kTraceUsage overhead footer (the parser rejects bare end markers): structurally a
        // record, but no SPI traffic to apply.
        out->skip = true;
      }
      return true;
    }
    case hd::MuxFrameTag::kCloseSession: {
      if (!GetVarint(payload, &pos, &id) || pos != payload.size()) {
        return Fail("malformed close frame");
      }
      auto it = live_.find(id);
      if (it == live_.end()) {
        return Fail("close for unopened session " + std::to_string(id));
      }
      out->kind = DecodedFrame::Kind::kClose;
      out->id = telemetry::SessionId{id};
      out->log = it->second;
      out->record.session = out->id;
      out->record.record.kind = hd::SpiPayload::Kind::kSessionClose;
      live_.erase(it);
      return true;
    }
    case hd::MuxFrameTag::kEpochPublish: {
      uint64_t seq = 0;
      if (!GetVarint(payload, &pos, &seq) || pos != payload.size()) {
        return Fail("malformed epoch-publish frame");
      }
      out->kind = DecodedFrame::Kind::kEpochPublish;
      out->log.reset();
      return true;
    }
    case hd::MuxFrameTag::kEnd: {
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

bool ContainerToWireFrames(const std::string& container, std::vector<std::string>* frames,
                           std::string* error) {
  hd::SessionLogLayout layout;
  if (!hd::ScanMuxLog(container, &layout, error)) {
    return false;
  }
  frames->clear();
  frames->reserve(layout.record_offsets.size());
  for (size_t i = 0; i < layout.record_offsets.size(); ++i) {
    size_t begin = layout.record_offsets[i];
    size_t end =
        i + 1 < layout.record_offsets.size() ? layout.record_offsets[i + 1] : container.size();
    frames->push_back(container.substr(begin, end - begin));
  }
  return true;
}

}  // namespace netd
