// The session-multiplexed detector service: one process, thousands of concurrent sessions,
// fed from as many threads as the machine has cores.
//
// The paper's deployment is fleet-scale — many users' devices each streaming S-Checker /
// Diagnoser telemetry that merges into one Hang Bug Report. A DetectorService is the backend
// end of that pipe: it owns many live DetectorCores keyed by telemetry::SessionId, consumes
// interleaved record streams (every SPI record carries a session tag — see session_stream.h),
// and finds each record's per-session core through a sharded map
// (shard = ShardOf(session_id, shards) = hash(id) % shards).
//
// Two ingestion surfaces share that map, and both run on the caller's thread:
//
//  - Synchronous push (SessionHandle / the per-record entry points): a live host drives its
//    session record-by-record and receives MonitorDirectives back inline.
//
//  - In-place apply (Apply, and Ingestor / Consume on top of it): a producer hands over one
//    recorded SPI record — an open, a telemetry record, a close, an abort or a handoff —
//    and the service applies it before returning. hangdoctord's epoll workers apply every
//    record they decode this way, on the thread that read its bytes; mux replay and the
//    fleet runner do it on the caller's thread.
//
// Concurrency and determinism contract:
//  - Many threads may drive disjoint sessions at once, through either surface. Each
//    session's records come from one thread, in session order (the natural shape: a
//    device's telemetry arrives in order), and a session is driven through one surface only.
//  - The only shared state on the record path is the shard's session map, guarded by a spin
//    lock held for the probe alone; the core call itself runs unlocked, because a session has
//    exactly one producer. Sessions of different producers share shards freely.
//  - Detection is per-session pure: a session's result depends only on its own (info, config,
//    stream), never on shard placement, thread interleaving, or which other sessions are
//    live — so per-session results are bit-identical at any shard count and any number of
//    producer threads, and merged outputs folded in ascending-SessionId order
//    (MergeSessionReports, DrainClosed) are too.
//  - Memory is bounded by *live* sessions: a close harvests a compact SessionResult and
//    destroys the per-session arena (core, action table, private blocking-API database)
//    immediately.
//  - Ingestor and Consume keep what they cannot hand back — closed results and records that
//    could not be applied — in one mutex-guarded list for the whole service. It is touched
//    once per session end or refused record, never once per applied record.
//
// Hosts attach through a SessionHandle, which implements SpiBackend — so the droidsim
// adapter and the fault injector drive a service session with exactly the code that drives a
// private core; faults are injected per-session, upstream of the mux, and recorded sessions
// still replay bit-identically.
#ifndef SRC_HANGDOCTOR_DETECTOR_SERVICE_H_
#define SRC_HANGDOCTOR_DETECTOR_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/hangdoctor/blocking_api_db.h"
#include "src/hangdoctor/detector_core.h"
#include "src/hangdoctor/host_spi.h"
#include "src/hangdoctor/knowledge_base.h"
#include "src/hangdoctor/report.h"
#include "src/hangdoctor/session_stream.h"
#include "src/hangdoctor/stream_guard.h"
#include "src/simkit/shard_map.h"
#include "src/simkit/spinlock.h"
#include "src/telemetry/session.h"

namespace hangdoctor {

struct ServiceOptions {
  // Shard count; must be >= 1 (std::invalid_argument otherwise). More shards spread the
  // session map's spin locks when many producers feed disjoint sessions; results are
  // bit-identical at any value.
  int32_t shards = 1;
  // Ignored: every record is applied on its producer's thread. Kept only because the ladder
  // benchmark sets it; its next change deletes it.
  int32_t threads = 0;
  // Seed blocking-API catalog shared by every session. Copied once at construction (no
  // caller-lifetime footgun); per-session databases overlay the copy instead of duplicating
  // the std::set per session — bit-equivalent, O(1) per open. Mutually exclusive with
  // `knowledge_base` (whose own seed wins). May be null: sessions start empty.
  const BlockingApiDatabase* seed_db = nullptr;
  // Fleet-shared knowledge base (knowledge_base.h). When set, every session opens with the
  // current published snapshot (one atomic load), overlays the KB's seed, and feeds its
  // confirmations/diagnosis memos back at close. Epochs end at kKbPublish records, every
  // `kb_epoch_sessions` closes, and the caller's own KnowledgeBase::Publish(). Must outlive
  // the service. Verdicts and results stay bit-identical to running without it.
  KnowledgeBase* knowledge_base = nullptr;
  // Automatic epoch length: publish the knowledge base every N closed sessions (0 = only at
  // kKbPublish records and the caller's publishes). Ignored without `knowledge_base`.
  int64_t kb_epoch_sessions = 0;
};

// Everything a closed session leaves behind. Compact: the heavy live state (core, action
// table, symbol-table references) is gone by the time the caller holds this.
struct SessionResult {
  telemetry::SessionId id;
  std::string app_package;
  int32_t device_id = 0;
  std::vector<ExecutionRecord> log;  // the core's execution log (moved out, not copied)
  // The table the log's frame ids index, so a retained log can still be rendered. Harvest
  // sets a non-owning alias of SessionInfo::symbols (valid as long as the caller keeps that
  // table alive, as for the live session); a host that owns the table — hangdoctord, whose
  // tables come from the SymbolTableCache — replaces it with an owning pointer.
  std::shared_ptr<const telemetry::SymbolTable> symbols;
  HangBugReport report;              // the session's local Hang Bug Report
  OverheadMeter overhead;
  DegradationStats degradation;
  bool stream_ok = true;
  std::string stream_error;
  int64_t stack_samples = 0;
  std::vector<std::string> discovered;  // blocking APIs this session newly learned
  KbSessionStats kb;                    // knowledge-base savings (zeros without a KB)
};

// A record an Ingestor could not apply (open of a duplicate id, record for a session that
// was never opened, malformed info), kept in push order until TakeIngestErrors.
struct IngestError {
  telemetry::SessionId session;
  std::string message;
};

// How a record ended its session, or why it could not be applied. Returned by Apply.
struct IngestCompletion {
  enum class Kind : uint8_t {
    kClosed,     // a kSessionClose harvested the session into `result`
    kAborted,    // a kSessionAbort dropped it
    kHandedOff,  // a kSessionHandoff dropped it
    kError,      // the record could not be applied; `error` says why
  };
  Kind kind = Kind::kError;
  ServiceRecordRef ref;
  SessionResult result;  // kClosed; the caller may move it out
  std::string error;     // kError
};

class DetectorService {
 public:
  explicit DetectorService(const ServiceOptions& options = {});
  DetectorService(const DetectorService&) = delete;
  DetectorService& operator=(const DetectorService&) = delete;

  // One session's view of the service, as an SpiBackend: hosts and fault injectors push
  // through this exactly as they would into a private DetectorCore.
  class SessionHandle final : public SpiBackend {
   public:
    SessionHandle(DetectorService* service, telemetry::SessionId id)
        : service_(service), id_(id) {}
    MonitorDirectives OnDispatchStart(const DispatchStart& start) override {
      return service_->OnDispatchStart(id_, start);
    }
    void OnDispatchEnd(const DispatchEnd& end) override { service_->OnDispatchEnd(id_, end); }
    void OnActionQuiesce(const ActionQuiesce& quiesce) override {
      service_->OnActionQuiesced(id_, quiesce);
    }
    void OnCounterFault(const CounterFault& fault) override {
      service_->OnCounterFault(id_, fault);
    }
    void OnAsyncPost(const AsyncPost& post) override { service_->OnAsyncPost(id_, post); }
    void OnAsyncRun(const AsyncRun& run) override { service_->OnAsyncRun(id_, run); }
    void OnAsyncWaitStart(const AsyncWaitStart& wait) override {
      service_->OnAsyncWaitStart(id_, wait);
    }
    void OnAsyncWaitEnd(const AsyncWaitEnd& wait) override {
      service_->OnAsyncWaitEnd(id_, wait);
    }
    telemetry::SessionId id() const { return id_; }

   private:
    DetectorService* service_;
    telemetry::SessionId id_;
  };

  // One producer thread's front end to in-place apply: Push applies the record on the calling
  // thread before it returns, and keeps its session's closed result, or its error, for
  // DrainClosed / TakeIngestErrors. Flush has nothing to do.
  class Ingestor {
   public:
    explicit Ingestor(DetectorService* service) : service_(service) {}

    void Push(ServiceRecordRef ref) { service_->ApplyAndKeep(ref); }
    void Push(const ServiceRecord& record) { Push({record.session, &record.record}); }
    void Flush() {}

   private:
    DetectorService* service_;
  };

  // Opens a session: allocates its arena (an overlay database over the service seed — or
  // the knowledge base's seed — plus the DetectorCore holding the current KB snapshot) on
  // the shard the id hashes to. `info.symbols` must outlive the session. Throws
  // std::invalid_argument on a duplicate id or malformed info (the core constructor's
  // validation).
  void Open(telemetry::SessionId id, const SessionInfo& info, const HangDoctorConfig& config);

  // Per-record entry points; route to the owning shard. Throw std::invalid_argument for a
  // session that was never opened (or already closed) — an unroutable record is a client
  // bug, not telemetry the service can degrade on.
  MonitorDirectives OnDispatchStart(telemetry::SessionId id, const DispatchStart& start) {
    return Core(id).OnDispatchStart(start);
  }
  void OnDispatchEnd(telemetry::SessionId id, const DispatchEnd& end) {
    Core(id).OnDispatchEnd(end);
  }
  void OnActionQuiesced(telemetry::SessionId id, const ActionQuiesce& quiesce) {
    Core(id).OnActionQuiesce(quiesce);
  }
  void OnCounterFault(telemetry::SessionId id, const CounterFault& fault) {
    Core(id).OnCounterFault(fault);
  }
  void OnAsyncPost(telemetry::SessionId id, const AsyncPost& post) { Core(id).OnAsyncPost(post); }
  void OnAsyncRun(telemetry::SessionId id, const AsyncRun& run) { Core(id).OnAsyncRun(run); }
  void OnAsyncWaitStart(telemetry::SessionId id, const AsyncWaitStart& wait) {
    Core(id).OnAsyncWaitStart(wait);
  }
  void OnAsyncWaitEnd(telemetry::SessionId id, const AsyncWaitEnd& wait) {
    Core(id).OnAsyncWaitEnd(wait);
  }

  // Finalizes the session: harvests its result and frees its arena. The returned log is
  // moved, not copied, so closing is O(result), independent of how many sessions ever ran.
  SessionResult Close(telemetry::SessionId id);

  // Drops a session without harvesting (client error path: the producer died mid-stream).
  void Discard(telemetry::SessionId id);

  // Applies one record on the calling thread: an open, a record, a close, an abort or a
  // handoff. A session belongs to the `source` of its open, and a record from another source
  // is refused. Returns the session's completion when the record ended it (closed, aborted,
  // handed off) or could not be applied (kError; nothing is thrown), and nothing otherwise.
  // Calls for distinct sessions may run concurrently: the shard spin lock guards every map
  // probe. One session's records must come from one thread, in order.
  std::optional<IngestCompletion> Apply(ServiceRecordRef ref);

  // The sessions currently live, ascending. Callers must quiesce their producers first
  // (the snapshot is not a barrier).
  std::vector<telemetry::SessionId> LiveSessionIds() const;

  SessionHandle Handle(telemetry::SessionId id) { return SessionHandle(this, id); }

  // Batch entry: applies one interleaved stream in order on the calling thread —
  // open/record/close framing per session_stream.h — and returns the results of every session
  // closed by the stream, in ascending-SessionId order. Opened sessions seed from the
  // service-wide seed_db / knowledge base, like Open(). Once the whole stream is applied, the
  // first record that could not be applied is thrown as std::invalid_argument.
  std::vector<SessionResult> Consume(std::span<const ServiceRecord> stream);

  // The results of every session an Ingestor closed since the last drain, in
  // ascending-SessionId order. Callers must quiesce their producers first.
  std::vector<SessionResult> DrainClosed();

  // The records Ingestors could not apply since the last take, in the order they were
  // refused.
  std::vector<IngestError> TakeIngestErrors();

  size_t live_sessions() const;
  int64_t sessions_opened() const { return opened_.load(std::memory_order_relaxed); }
  int32_t shards() const { return static_cast<int32_t>(shards_.size()); }

 private:
  // One session's arena: everything that exists only while the session is live. `database`
  // overlays the service seed (seed_view_), so a slot holds only what this session learned.
  struct SessionSlot {
    BlockingApiDatabase database;
    std::unique_ptr<DetectorCore> core;
    const void* source = nullptr;  // the ServiceRecordRef::source of the applied open
  };

  struct Shard {
    // Guards `live` probes, and only the probes; the core calls run unlocked.
    simkit::SpinLock lock;
    simkit::OpenHashMap<telemetry::SessionId, std::unique_ptr<SessionSlot>,
                        telemetry::SessionIdHasher>
        live;
  };

  Shard& ShardFor(telemetry::SessionId id) {
    return *shards_[telemetry::ShardOf(id, shards_.size())];
  }
  DetectorCore& Core(telemetry::SessionId id) { return *FindSlot(ShardFor(id), id)->core; }

  // Arena lifecycle shared by both ingestion surfaces. Find/Remove throw
  // std::invalid_argument for a session that is not live from `source` (the synchronous
  // path's sessions all have a null source); Insert throws on a duplicate.
  std::unique_ptr<SessionSlot> BuildSlot(const SessionInfo& info,
                                         const HangDoctorConfig& config);
  void InsertSlot(Shard& shard, telemetry::SessionId id, std::unique_ptr<SessionSlot> slot);
  SessionSlot* FindSlot(Shard& shard, telemetry::SessionId id, const void* source = nullptr);
  std::unique_ptr<SessionSlot> RemoveSlot(Shard& shard, telemetry::SessionId id,
                                          const void* source = nullptr);
  SessionResult Harvest(telemetry::SessionId id, std::unique_ptr<SessionSlot> slot);

  // Apply, keeping a closed result or an error for DrainClosed / TakeIngestErrors.
  void ApplyAndKeep(ServiceRecordRef ref);
  // Session-close side of the KB protocol: absorb + count toward the automatic epoch.
  void AbsorbIntoKb(telemetry::SessionId id, SessionResult& result, DetectorCore& core);

  ServiceOptions options_;
  // The one seed every session overlays: the KB's seed, the copied options.seed_db, or null.
  BlockingApiDatabase own_seed_;
  const BlockingApiDatabase* seed_view_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::mutex kept_mu_;  // guards closed_ and errors_
  std::vector<SessionResult> closed_;
  std::vector<IngestError> errors_;
  std::atomic<int64_t> opened_{0};
  std::atomic<int64_t> live_{0};
  std::atomic<int64_t> kb_closed_{0};
};

// Folds session-local Hang Bug Reports into one fleet report in ascending-SessionId order —
// the deterministic merge the service's bit-identity contract names.
HangBugReport MergeSessionReports(std::span<const SessionResult> results);
// The same fold over results held elsewhere (inside per-session outcomes), without copies.
HangBugReport MergeSessionReports(std::span<const SessionResult* const> results);

}  // namespace hangdoctor

#endif  // SRC_HANGDOCTOR_DETECTOR_SERVICE_H_
