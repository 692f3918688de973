// The interleaved multi-session SPI stream: every record a Telemetry Host can push into a
// DetectorCore, as one session-tagged value type. A DetectorService consumes a flat sequence
// of these — records of thousands of sessions arbitrarily interleaved, the shape a fleet
// ingestion backend actually sees — and routes each one to the per-session core that owns it.
//
// Ownership: a ServiceRecord owns its stack samples (DispatchEnd::samples is a span and would
// dangle inside a stored stream), but NOT the symbol table — `open.info.symbols` must outlive
// every record of that session, exactly as SessionInfo demands of a single core. The HDSL v3
// replayer (src/hosts/mux_log.h) keeps each session's parsed table alive until its close
// record has been consumed.
#ifndef SRC_HANGDOCTOR_SESSION_STREAM_H_
#define SRC_HANGDOCTOR_SESSION_STREAM_H_

#include <vector>

#include "src/hangdoctor/detector_core.h"
#include "src/hangdoctor/host_spi.h"
#include "src/telemetry/session.h"
#include "src/telemetry/stack.h"

namespace hangdoctor {

// The union of SPI traffic plus the open/close framing a multiplexed stream needs. `kind`
// selects which member is meaningful; the others stay default-constructed.
struct SpiPayload {
  enum class Kind : uint8_t {
    kSessionOpen = 0,    // info + config: create the per-session core
    kDispatchStart = 1,  // start
    kDispatchEnd = 2,    // end (+ owned samples when end.trace_stopped)
    kActionQuiesce = 3,  // quiesce
    kCounterFault = 4,   // fault
    kSessionClose = 5,   // finalize the session and harvest its result
    // Knowledge-base epoch boundary: publish pending discoveries/memos (no-op without a KB).
    // Not tied to any session — carries no payload fields; the HDSL v3 replayer synthesizes
    // these from recorded kEpochPublish frames so replay reproduces the snapshot schedule.
    kKbPublish = 6,
    // Cross-thread causal telemetry (host_spi.h record kind (d)).
    kAsyncPost = 7,
    kAsyncRun = 8,
    kAsyncWaitStart = 9,
    kAsyncWaitEnd = 10,
    // Control records: drop the session without harvesting it. They follow the session's
    // records like any record, so each lands after every record pushed before it.
    // kSessionAbort ends a torn session (its producer died mid-stream); kSessionHandoff
    // ends one that is being replayed on another owner.
    kSessionAbort = 11,
    kSessionHandoff = 12,
  };

  Kind kind = Kind::kSessionClose;
  SessionInfo info;          // kSessionOpen; info.symbols is non-owning
  HangDoctorConfig config;   // kSessionOpen
  DispatchStart start;       // kDispatchStart
  DispatchEnd end;           // kDispatchEnd; end.samples is repointed at `samples` on push
  std::vector<telemetry::StackTrace> samples;  // owned storage for end.samples
  ActionQuiesce quiesce;     // kActionQuiesce
  CounterFault fault;        // kCounterFault
  AsyncPost async_post;      // kAsyncPost
  AsyncRun async_run;        // kAsyncRun
  AsyncWaitStart wait_start; // kAsyncWaitStart
  AsyncWaitEnd wait_end;     // kAsyncWaitEnd
};

// One element of the interleaved stream: an SPI payload stamped with its session.
using ServiceRecord = telemetry::SessionStamped<SpiPayload>;

// One live session's arena inside a DetectorService (detector_service.cc). Opaque to
// producers: they hold a pointer to one only as the handle ServiceRecordRef::arena names.
struct SessionSlot;

// A non-owning view of one stream element — what DetectorService::Apply takes: 32 bytes, so
// N sessions replaying one shared donor stream cost N refs, not N copies. The payload must
// stay alive until Apply returns. `source` names the producer-side owner
// (hangdoctord: the connection): a session belongs to the source of its open, and a record,
// close, abort or handoff from another source is refused, so a losing duplicate open can
// never feed, harvest or discard the winner's session. Null for single-source producers.
//
// `arena` is the producer's handle for the session, or null. An applied kSessionOpen writes
// the session's arena into *arena (null when the open fails). A later record whose filled
// handle it carries goes straight to that arena: no shard lock, no map probe and no source
// check, because the handle exists only in the table of the producer that opened the
// session. A close, abort or handoff removes the session through the shard map, with the
// source check, and writes null. Producers that pass no handle get the locked probe.
struct ServiceRecordRef {
  telemetry::SessionId session;
  const SpiPayload* record = nullptr;
  const void* source = nullptr;
  SessionSlot** arena = nullptr;
};

// Pushes one telemetry record into `backend` — the one SPI dispatch switch every ingestion
// surface shares (the span in end.samples is repointed at `samples`). Throws
// std::invalid_argument for the session framing and control kinds, which are not telemetry.
void PushSpiPayload(SpiBackend& backend, const SpiPayload& payload);

// The inverse: one telemetry record as an owned SpiPayload. A DispatchEnd's samples are
// copied into `samples` (the host's span dies with its buffer) and its span is left empty.
SpiPayload MakeSpiPayload(const DispatchStart& start);
SpiPayload MakeSpiPayload(const DispatchEnd& end);
SpiPayload MakeSpiPayload(const ActionQuiesce& quiesce);
SpiPayload MakeSpiPayload(const CounterFault& fault);
SpiPayload MakeSpiPayload(const AsyncPost& post);
SpiPayload MakeSpiPayload(const AsyncRun& run);
SpiPayload MakeSpiPayload(const AsyncWaitStart& wait);
SpiPayload MakeSpiPayload(const AsyncWaitEnd& wait);

// In-memory recording tap: captures a session's post-injection SPI stream as owned
// SpiPayloads, ready to be stamped with a SessionId and fed to a DetectorService. Because a
// tap is passive and sits downstream of the fault injector, a core fed the captured stream
// behaves bit-identically to the core that ran live — faults included — which is what lets
// a benchmark or test capture one donor session and replay it as many.
class SpiStreamRecorder final : public SpiBackend {
 public:
  void OnSessionStart(const SessionInfo& info) override { info_ = info; }
  MonitorDirectives OnDispatchStart(const DispatchStart& start) override {
    records_.push_back(MakeSpiPayload(start));
    return {};
  }
  void OnDispatchEnd(const DispatchEnd& end) override { records_.push_back(MakeSpiPayload(end)); }
  void OnActionQuiesce(const ActionQuiesce& quiesce) override {
    records_.push_back(MakeSpiPayload(quiesce));
  }
  void OnCounterFault(const CounterFault& fault) override {
    records_.push_back(MakeSpiPayload(fault));
  }
  void OnAsyncPost(const AsyncPost& post) override { records_.push_back(MakeSpiPayload(post)); }
  void OnAsyncRun(const AsyncRun& run) override { records_.push_back(MakeSpiPayload(run)); }
  void OnAsyncWaitStart(const AsyncWaitStart& wait) override {
    records_.push_back(MakeSpiPayload(wait));
  }
  void OnAsyncWaitEnd(const AsyncWaitEnd& wait) override {
    records_.push_back(MakeSpiPayload(wait));
  }

  const SessionInfo& info() const { return info_; }
  const std::vector<SpiPayload>& records() const { return records_; }

 private:
  SessionInfo info_;
  std::vector<SpiPayload> records_;
};

}  // namespace hangdoctor

#endif  // SRC_HANGDOCTOR_SESSION_STREAM_H_
