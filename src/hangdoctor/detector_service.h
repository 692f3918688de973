// The session-multiplexed detector service: one process, thousands of concurrent sessions,
// ingesting from as many threads as the machine has cores.
//
// The paper's deployment is fleet-scale — many users' devices each streaming S-Checker /
// Diagnoser telemetry that merges into one Hang Bug Report. A DetectorService is the backend
// end of that pipe: it owns many live DetectorCores keyed by telemetry::SessionId, consumes
// interleaved record streams (every SPI record carries a session tag — see session_stream.h),
// and routes each record to the per-session core via deterministic shard assignment
// (shard = ShardOf(session_id, shards) = hash(id) % shards).
//
// Two ingestion surfaces share one shard table:
//
//  - Synchronous push (SessionHandle / the per-record entry points): a live host drives its
//    session record-by-record and receives MonitorDirectives back inline. Many producer
//    threads may push disjoint sessions concurrently; the only shared state is the shard's
//    session map, guarded by a spin lock held for the probe alone — the core call itself runs
//    lock-free, because a session has exactly one producer.
//
//  - Pipelined ingest (threads >= 1 in ServiceOptions): per-shard bounded MPMC ring buffers
//    feed dedicated shard-worker threads. Producers own a DetectorService::Ingestor each,
//    which batches record refs by shard (one ring push per batch, not per record — see
//    simkit::BatchRouter) and blocks on a full ring (bounded backpressure, never unbounded
//    queuing). Every shard is drained by exactly one worker, so the worker applies records —
//    including session open/close — to its shards' arenas with no per-session locking at all.
//    An idle worker parks on a futex-backed wake counter that producers bump once per
//    pushed batch: no polling while idle, no sleep-granularity latency when work arrives.
//    Directives cannot flow back through a ring, so the pipeline is for telemetry that is
//    already recorded or streamed (mux-log replay, hangdoctord's wire ingest); a live
//    co-simulated host, such as the fleet runner's, keeps using synchronous push.
//    A producer that answers for its records (hangdoctord) installs IngestHooks: session
//    ends and refused records reach on_complete, each applied batch comes back through
//    after_batch, so the producer is woken once per batch rather than once per record.
//
// Concurrency and determinism contract:
//  - Each session's records are pushed in session order by one producer (the natural shape:
//    a device's telemetry arrives in order). A session is driven either synchronously or
//    through the pipeline, never both.
//  - Detection is per-session pure: a session's result depends only on its own (info, config,
//    stream), never on shard placement, worker interleaving, ring batch boundaries, or which
//    other sessions are live. All records of a session land on one shard's ring in push
//    order (MPMC rings preserve per-producer FIFO) and are applied by that shard's single
//    worker in that order — so per-session results are bit-identical at any {threads, shards}
//    pair, and merged outputs folded in ascending-SessionId order (MergeSessionReports,
//    DrainClosed) are too.
//  - Memory is bounded by *live* sessions plus the bounded rings: Close() harvests a compact
//    SessionResult and destroys the per-session arena (core, action table, private
//    blocking-API database) immediately; rings reject/block when full instead of queuing
//    without bound.
//  - Destruction drains gracefully: in-flight batches are flushed (applied) deterministically
//    before the workers join; producers must be quiesced first (no Ingestor may outlive the
//    service).
//
// Hosts attach through a SessionHandle, which implements SpiBackend — so the droidsim
// adapter and the fault injector drive a service session with exactly the code that drives a
// private core; faults are injected per-session, upstream of the mux, and recorded sessions
// still replay bit-identically.
#ifndef SRC_HANGDOCTOR_DETECTOR_SERVICE_H_
#define SRC_HANGDOCTOR_DETECTOR_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/hangdoctor/blocking_api_db.h"
#include "src/hangdoctor/detector_core.h"
#include "src/hangdoctor/host_spi.h"
#include "src/hangdoctor/knowledge_base.h"
#include "src/hangdoctor/report.h"
#include "src/hangdoctor/session_stream.h"
#include "src/hangdoctor/stream_guard.h"
#include "src/simkit/batch_router.h"
#include "src/simkit/mpmc_ring.h"
#include "src/simkit/shard_map.h"
#include "src/simkit/spinlock.h"
#include "src/telemetry/session.h"

namespace hangdoctor {

struct ServiceOptions {
  // Shard count; must be >= 1 (std::invalid_argument otherwise). More shards reduce
  // contention when many producers feed disjoint sessions and set the pipeline's parallelism
  // ceiling; results are bit-identical at any value.
  int32_t shards = 1;
  // Dedicated shard-worker threads for pipelined ingest. 0 (the default) spawns none —
  // synchronous push only. >= 1 spawns workers (shard s is owned by worker s % threads) and
  // enables Ingestor/Ingest/DrainClosed. Negative throws std::invalid_argument.
  int32_t threads = 0;
  // Per-shard ring capacity in *batches* (rounded up to a power of two). With the default
  // batch size this bounds queued-but-unapplied telemetry per shard; producers block when a
  // ring is full.
  int32_t ring_capacity = 256;
  // Records per routed batch: the amortization factor for the hash + ring-dispatch cost.
  int32_t batch_size = 256;
  // Seed blocking-API catalog shared by every session. Copied once at construction (no
  // caller-lifetime footgun); per-session databases overlay the copy instead of duplicating
  // the std::set per session — bit-equivalent, O(1) per open. Mutually exclusive with
  // `knowledge_base` (whose own seed wins). May be null: sessions start empty.
  const BlockingApiDatabase* seed_db = nullptr;
  // Fleet-shared knowledge base (knowledge_base.h). When set, every session opens with the
  // current published snapshot (one atomic load), overlays the KB's seed, and feeds its
  // confirmations/diagnosis memos back at close; WaitIngestIdle() publishes as an epoch
  // boundary. Must outlive the service. Verdicts and results stay bit-identical to running
  // without it.
  KnowledgeBase* knowledge_base = nullptr;
  // Automatic epoch length: publish the knowledge base every N closed sessions (0 = only at
  // barriers and explicit kKbPublish records). Ignored without `knowledge_base`.
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

// A record the pipeline could not apply (open of a duplicate id, record for a session that
// was never opened, malformed info). The pipeline cannot throw into its producer, so errors
// are collected per shard and surfaced at the barrier.
struct IngestError {
  telemetry::SessionId session;
  std::string message;
};

// How a pipelined record ended its session, or why it could not be applied. Reported to
// IngestHooks::on_complete on the worker that owns the session's shard.
struct IngestCompletion {
  enum class Kind : uint8_t {
    kClosed,     // a kSessionClose harvested the session into `result`
    kAborted,    // a kSessionAbort dropped it
    kHandedOff,  // a kSessionHandoff dropped it
    kError,      // the record could not be applied; `error` says why
  };
  Kind kind = Kind::kError;
  ServiceRecordRef ref;
  SessionResult result;  // kClosed; the hook may move it out
  std::string error;     // kError
};

// Shard-worker callbacks for a pipeline producer that answers for its records. Each runs on
// the worker that owns the record's shard; any may be left empty.
struct IngestHooks {
  // Immediately before each record is applied.
  std::function<void(const ServiceRecordRef&)> before_apply;
  // Once per session end (close, abort, handoff) and once per record the pipeline could not
  // apply. When set, closed results and errors come here instead of being kept for
  // DrainClosed / TakeIngestErrors.
  std::function<void(IngestCompletion&)> on_complete;
  // After every record of a batch has been applied: from here on the pipeline no longer
  // references the batch's payloads.
  std::function<void(size_t shard, std::span<const ServiceRecordRef> batch)> after_batch;
};

class DetectorService {
 public:
  explicit DetectorService(const ServiceOptions& options = {});
  DetectorService(const ServiceOptions& options, IngestHooks hooks);
  ~DetectorService();
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
    void OnActionQuiesced(const ActionQuiesce& quiesce) override {
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

  // One producer thread's batching front-end to the pipeline (threads >= 1 only; the
  // constructor throws std::logic_error on a service without workers). Push order per
  // session is preserved end-to-end. The payloads behind pushed refs must stay alive until
  // WaitIngestIdle()/DrainClosed() returns; an Ingestor must be flushed (or destroyed)
  // before the barrier and must not outlive the service.
  class Ingestor {
   public:
    explicit Ingestor(DetectorService* service);
    Ingestor(const Ingestor&) = delete;
    Ingestor& operator=(const Ingestor&) = delete;
    ~Ingestor() { router_.Flush(); }

    void Push(ServiceRecordRef ref) { router_.Push(ref); }
    void Push(const ServiceRecord& record) { router_.Push({record.session, &record.record}); }
    // Hands every partial batch to the rings (blocking on full rings).
    void Flush() { router_.Flush(); }

   private:
    simkit::BatchRouter<ServiceRecordRef> router_;
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
    Core(id).OnActionQuiesced(quiesce);
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

  // The sessions currently live, ascending. Callers must quiesce their producers first
  // (the snapshot is not a barrier).
  std::vector<telemetry::SessionId> LiveSessionIds() const;

  SessionHandle Handle(telemetry::SessionId id) { return SessionHandle(this, id); }

  // Batch entry: consumes one interleaved stream in order — open/record/close framing per
  // session_stream.h — and returns the results of every session closed by the stream, in
  // ascending-SessionId order. Opened sessions seed from the service-wide seed_db /
  // knowledge base, like Open(). Without workers the calling thread applies the records,
  // with workers the pipeline does; either way the first record that could not be applied
  // is thrown as std::invalid_argument once the whole stream has been applied.
  std::vector<SessionResult> Consume(std::span<const ServiceRecord> stream);

  // Pipeline barrier: blocks until every batch routed so far has been applied by the shard
  // workers. Callers must have flushed (and stopped) their Ingestors first. No-op without
  // workers. When a knowledge base is attached, the barrier is an epoch boundary: pending
  // discoveries publish before it returns.
  void WaitIngestIdle();

  // Barrier + harvest: the results of every session closed through the pipeline since the
  // last drain, in ascending-SessionId order.
  std::vector<SessionResult> DrainClosed();

  // Barrier + the records the pipeline could not apply since the last take (stream order
  // within a shard; shards concatenated in index order).
  std::vector<IngestError> TakeIngestErrors();

  size_t live_sessions() const;
  int64_t sessions_opened() const { return opened_.load(std::memory_order_relaxed); }
  int32_t shards() const { return static_cast<int32_t>(shards_.size()); }
  int32_t ingest_threads() const { return static_cast<int32_t>(workers_.size()); }

  // A shard worker's watchdog view: `progress` counts the records it has taken up, `busy`
  // is held while it applies a batch. Busy with progress frozen means one record wedged it.
  struct WorkerHealth {
    uint64_t progress = 0;
    bool busy = false;
  };
  WorkerHealth worker_health(int32_t worker) const;

 private:
  // One session's arena: everything that exists only while the session is live. `database`
  // overlays the service seed (seed_view_), so a slot holds only what this session learned.
  struct SessionSlot {
    BlockingApiDatabase database;
    std::unique_ptr<DetectorCore> core;
    const void* source = nullptr;  // the ServiceRecordRef::source of the pipelined open
  };

  // One routed unit: up to batch_size record refs.
  struct IngestBatch {
    std::vector<ServiceRecordRef> refs;
  };

  struct Shard {
    // Guards `live` probes (and only the probes) on the synchronous path; a pipeline worker
    // takes it too, so synchronous sessions and pipelined sessions can share a shard.
    simkit::SpinLock lock;
    simkit::OpenHashMap<telemetry::SessionId, std::unique_ptr<SessionSlot>,
                        telemetry::SessionIdHasher>
        live;
    // Pipeline state. `enqueued` is bumped by producers as they push to the ring;
    // `processed` by the owning worker after applying a batch (release) — the barrier
    // acquires it, which also publishes `closed`/`errors` to the draining thread.
    std::unique_ptr<simkit::MpmcRing<IngestBatch>> ring;
    std::atomic<int64_t> enqueued{0};
    std::atomic<int64_t> processed{0};
    std::vector<SessionResult> closed;  // worker-written; read only after the barrier
    std::vector<IngestError> errors;    // worker-written; read only after the barrier
  };

  // One shard worker's shared counters: watchdog health, and the wake counter it parks on.
  // Cache-line aligned so neighbouring workers do not false-share.
  struct alignas(64) Worker {
    std::atomic<uint64_t> progress{0};
    std::atomic<bool> busy{false};
    std::atomic<uint32_t> wake{0};  // bumped by producers after every pushed batch
    std::atomic<bool> parked{false};
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

  // Pipeline internals.
  void EnqueueBatch(size_t shard_index, IngestBatch&& batch);
  void ApplyRecord(Shard& shard, ServiceRecordRef ref);
  void Complete(Shard& shard, IngestCompletion& completion);
  // Barrier, then moves every shard's `pending` items out, shards in index order.
  template <typename T>
  std::vector<T> TakeAll(std::vector<T> Shard::*pending);
  void WorkerLoop(size_t worker_index);
  // Session-close side of the KB protocol: absorb + count toward the automatic epoch.
  void AbsorbIntoKb(telemetry::SessionId id, SessionResult& result, DetectorCore& core);

  ServiceOptions options_;
  // The one seed every session overlays: the KB's seed, the copied options.seed_db, or null.
  BlockingApiDatabase own_seed_;
  const BlockingApiDatabase* seed_view_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  IngestHooks hooks_;
  std::unique_ptr<Worker[]> worker_state_;  // one per thread in workers_
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
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
