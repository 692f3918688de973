// HDSL v3: the multiplexed session log. One byte stream carrying many v2 session logs
// (session_log.h) arbitrarily interleaved — the on-disk shape of what a DetectorService
// ingests live, and frame for frame what a wire client sends (src/netd/wire.h). The
// container adds framing only; every payload byte is a byte of some v2 log, so mux → demux
// reproduces each input log byte-identically.
//
// Framing (after the shared magic "HDSL" and varint version = 3), one frame per step:
//   kOpenSession  = 1 : varint session_id, varint size, payload = the session's complete log
//                       prefix (magic "HDSL", varint version = 4, and the whole header —
//                       SessionInfo, config, symbol table).
//   kRecord       = 2 : varint session_id, varint size, payload = exactly one v2 record
//                       (tag byte + body), in that session's recorded order.
//   kCloseSession = 3 : varint session_id. Demux appends the v2 end marker (kEnd = 5) here,
//                       which is why mux refuses a log whose end marker is not its final
//                       byte — the reconstruction must be able to regenerate it exactly.
//   kEnd          = 4 : last byte of the stream; every opened session must be closed.
//   kEpochPublish = 5 : varint seq (1-based publish ordinal). Not tied to any session: it
//                       records that the ingesting service published a knowledge-base epoch
//                       here (ServiceOptions.knowledge_base), so replay reproduces the exact
//                       snapshot schedule the live run saw. Demux ignores these frames (the
//                       per-session v2 bytes are unchanged); replay turns each one into a
//                       SpiPayload::Kind::kKbPublish service record.
//
// A session's frames appear in its v2 order; frames of different sessions interleave freely.
//
// One reader: MuxStreamDecoder is the only code that decides whether a frame is valid, and
// Demux, Replay, every hangdoctord connection and fleetd's front end decode through it.
// Offline, a container also opens each session id once (MuxSessionLogs writes them so); a
// wire connection may reopen an id whose session has ended.
#ifndef SRC_HOSTS_MUX_LOG_H_
#define SRC_HOSTS_MUX_LOG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/hangdoctor/detector_service.h"
#include "src/hangdoctor/session_stream.h"
#include "src/hosts/session_log.h"
#include "src/simkit/shard_map.h"
#include "src/telemetry/session.h"
namespace hangdoctor {

inline constexpr uint32_t kMuxLogVersion = 3;

enum class MuxFrameTag : uint8_t {
  kOpenSession = 1,
  kRecord = 2,
  kCloseSession = 3,
  kEnd = 4,
  kEpochPublish = 5,
};

// The head of one container frame: the tag byte, then the session id varint (the publish
// ordinal for kEpochPublish; absent for kEnd), then the payload size varint (kOpenSession and
// kRecord only). The payload follows.
struct MuxFrameHeader {
  MuxFrameTag tag = MuxFrameTag::kEnd;
  uint64_t id = 0;
  uint64_t size = 0;
};

// The one frame-header writer, ReadMuxFrameHeader's twin: the tag byte, then only the fields
// the tag carries. The payload, if any, follows.
void AppendMuxFrameHeader(std::string* out, const MuxFrameHeader& header);

// How far ReadMuxFrameHeader got; each reader words its own error from it.
enum class MuxHeaderRead : uint8_t { kOk, kEmpty, kUnknownTag, kBadId, kBadSize };

// The one frame-header reader: reads the header of the frame at `*pos` in `bytes` — only the
// fields its tag carries — and leaves `*pos` just past them (at the payload, if any). A
// failed read still sets `header->tag` when there was a byte to read it from. The payload
// size is not checked against the bytes left: a stream reader and a one-frame reader check it
// differently.
MuxHeaderRead ReadMuxFrameHeader(std::string_view bytes, size_t* pos, MuxFrameHeader* header);

// Schedule sentinel for MuxSessionLogs: an entry equal to this emits a kEpochPublish frame
// (sequence numbers assigned 1, 2, ... in schedule order) instead of a session frame.
inline constexpr size_t kMuxEpochPublish = static_cast<size_t>(-1);

// One v2 session log traveling under a stream id.
struct SessionLogSlice {
  telemetry::SessionId id;
  std::string bytes;
};

// Frames a well-formed v2 log contributes to a v3 stream: open + one per record (kTraceUsage
// included, the trailing v2 end marker excluded) + close. Returns false (with `error`) when
// `bytes` is not a well-formed v2 log.
bool MuxFrameCount(const std::string& bytes, size_t* count, std::string* error);

// Multiplexes v2 logs into one v3 stream. `schedule` dictates the interleaving: its k-th
// entry is an index into `sessions`, and that session emits its next pending frame (open
// first, then records in order, then close); each index must appear exactly its
// MuxFrameCount times. An empty schedule means round-robin. Fails on a malformed input log,
// a duplicate session id, trailing bytes after a log's end marker, or a schedule that does
// not exhaust every session.
bool MuxSessionLogs(std::span<const SessionLogSlice> sessions, std::span<const size_t> schedule,
                    std::string* out, std::string* error);

// One open session's state in a MuxStreamDecoder: its parsed prefix, plus the arena handle
// a caller that applies into a DetectorService keeps beside it (ServiceRecordRef::arena).
// The decoder never reads the handle; it only makes sure it dies with the session's entry.
struct MuxSession {
  std::shared_ptr<SessionLog> log;  // holds the symbol table
  SessionSlot* arena = nullptr;
};

// One decoded container frame.
struct DecodedFrame {
  enum class Kind : uint8_t {
    kOpen,          // session open: log + record (kSessionOpen) are set
    kRecord,        // one SPI record: record is set (skip == true for usage footers)
    kClose,         // session close: record (kSessionClose) is set
    kEpochPublish,  // recorded knowledge-base epoch boundary (no session)
    kBye,           // container kEnd: the client is done
  };
  Kind kind = Kind::kBye;
  telemetry::SessionId id{0};
  // kOpen: bytes of the open payload — the admission estimate's variable part.
  size_t open_bytes = 0;
  // kOpen / kClose: the session's parsed prefix, an owning reference (it holds the symbol
  // table, so a frame kept past its close keeps the table alive). Null after a kRecord:
  // a record hands out no reference, so a run of records copies no shared_ptr.
  std::shared_ptr<SessionLog> log;
  // kOpen / kRecord: the decoder's entry for the session. Valid until the decoder's next
  // Decode or EndSession; null for the other kinds (a close has already dropped the entry).
  MuxSession* session = nullptr;
  // kOpen: the symbol table came from the cache, shared with a live session, not parsed.
  bool shared_symbols = false;
  ServiceRecord record;
  // kRecord of a kTraceUsage footer: structurally valid, but carries no SPI traffic.
  bool skip = false;
};

// The stream decoder: turns container frames (one tag byte + fields each, exactly a wire
// frame's payload) into the ServiceRecords a DetectorService consumes. Sans-IO. It enforces
// open-before-record, no double open, close exactly once, kEnd only with every session
// closed and nothing after it, and parses every payload by the v2 grammar. Violations are
// sticky: a broken stream is beyond repair, so a torn frame cannot corrupt a neighbour.
//
// Ownership: an open payload (a complete v4 log prefix) parses into a shared SessionLog that
// the session's entry holds until its close, and that the open and close frames hand out, so
// the symbol table outlives every record of the session. A record frame costs one probe of
// the decoder's flat session table and touches no reference count. The table is parsed
// through a SymbolTableCache (session_log.h), private unless one is given; hangdoctord and
// fleetd hand every connection's decoder the same one.
class MuxStreamDecoder {
 public:
  // Parses open-frame symbol tables through a private cache.
  MuxStreamDecoder() = default;
  // Parses them through `symbols`, which may be shared with other decoders on any thread.
  explicit MuxStreamDecoder(std::shared_ptr<SymbolTableCache> symbols)
      : symbols_(std::move(symbols)) {}

  // Decodes one container frame, parsing it in place. Returns false and goes sticky on any
  // grammar or framing violation; `out` is meaningful only on success. `out` may be reused
  // across calls: of its payload, only the members the decoded kind selects are rewritten.
  bool Decode(std::string_view payload, DecodedFrame* out) {
    return Decode(payload, out, &out->record.record);
  }

  // The same, but an open's, a record's or a close's SPI payload goes to `*record` rather
  // than to `out->record.record`: a caller that keeps payloads past the next decode (a
  // producer that collects a stream before applying it) gets each one written once, in
  // place. As above, only the members the decoded kind selects are written; a usage footer
  // (`out->skip`) leaves `*record` untouched.
  bool Decode(std::string_view payload, DecodedFrame* out, SpiPayload* record);

  // Ends open session `id` without a close frame, so a later open of the id starts it
  // afresh (the session left by a fleetd handoff). Returns its entry moved out, or an empty
  // one when it was not open: records already decoded may still need its symbol table.
  MuxSession EndSession(uint64_t id) {
    MuxSession ended;
    live_.Erase(telemetry::SessionId{id}, &ended);
    return ended;
  }

  const std::string& error() const { return error_; }
  bool saw_bye() const { return saw_bye_; }
  // The entry of open session `id`, or null when it is not open. Valid until the next
  // Decode or EndSession.
  MuxSession* FindSession(uint64_t id) { return live_.Find(telemetry::SessionId{id}); }

 private:
  bool Fail(const std::string& message);

  std::shared_ptr<SymbolTableCache> symbols_ = std::make_shared<SymbolTableCache>();
  simkit::OpenHashMap<telemetry::SessionId, MuxSession, telemetry::SessionIdHasher> live_;
  SessionRecord parsed_;  // every record frame parses here, then moves its kind's member out
  bool saw_bye_ = false;
  bool ok_ = true;
  std::string error_;
};

// Demultiplexes a v3 stream back into the per-session v2 logs, byte-identical to what was
// muxed, ordered by each session's open frame. Epoch-publish frames are ignored (they carry
// no session bytes). Every frame is decoded as it is read, so a corrupt container fails here
// rather than downstream — and exactly when ReplayMultiplexedLog fails on it.
bool DemuxSessionLog(const std::string& bytes, std::vector<SessionLogSlice>* sessions,
                     std::string* error);

// Structural scan of a v3 stream, the mux analogue of ScanSessionLog: `header_end` is the
// offset just past the version varint, `record_offsets` holds the byte offset of every
// frame's tag byte (the final kEnd frame included). Lets offset-based tooling — notably the
// fuzzer's record-level mutations — treat v3 containers like v2 logs.
bool ScanMuxLog(const std::string& bytes, SessionLogLayout* layout, std::string* error);

// Replays a v3 stream through a DetectorService: each open frame opens a session, each
// record frame pushes the decoded SPI record (usage footers carry no SPI traffic and are
// skipped), each close frame harvests. `results` comes back in ascending-SessionId order and
// is bit-identical to replaying each demuxed v2 log alone — at any options.shards. Accepts
// and rejects exactly the containers DemuxSessionLog does.
bool ReplayMultiplexedLog(const std::string& bytes, const ServiceOptions& options,
                          std::vector<SessionResult>* results, std::string* error);

}  // namespace hangdoctor

#endif  // SRC_HOSTS_MUX_LOG_H_
