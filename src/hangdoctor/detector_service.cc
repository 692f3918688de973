#include "src/hangdoctor/detector_service.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace hangdoctor {
namespace {

void ValidateOptions(const ServiceOptions& options) {
  if (options.shards < 1) {
    throw std::invalid_argument("ServiceOptions: shards must be >= 1, got " +
                                std::to_string(options.shards));
  }
  if (options.threads < 0) {
    throw std::invalid_argument("ServiceOptions: threads must be >= 0, got " +
                                std::to_string(options.threads));
  }
  if (options.ring_capacity < 1) {
    throw std::invalid_argument("ServiceOptions: ring_capacity must be >= 1, got " +
                                std::to_string(options.ring_capacity));
  }
  if (options.batch_size < 1) {
    throw std::invalid_argument("ServiceOptions: batch_size must be >= 1, got " +
                                std::to_string(options.batch_size));
  }
  if (options.kb_epoch_sessions < 0) {
    throw std::invalid_argument("ServiceOptions: kb_epoch_sessions must be >= 0, got " +
                                std::to_string(options.kb_epoch_sessions));
  }
  if (options.knowledge_base != nullptr && options.seed_db != nullptr) {
    throw std::invalid_argument(
        "ServiceOptions: seed_db and knowledge_base are mutually exclusive (the knowledge "
        "base carries its own seed)");
  }
}

// One futex wait on `word` while it holds `expected`. Unlike std::atomic::wait it returns
// on any wake, so a wake meant to make the caller re-check other state is never slept through.
void FutexWait(std::atomic<uint32_t>& word, uint32_t expected) {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(&word), FUTEX_WAIT_PRIVATE, expected,
          nullptr, nullptr, 0);
}

void FutexWake(std::atomic<uint32_t>& word) {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(&word), FUTEX_WAKE_PRIVATE, 1, nullptr,
          nullptr, 0);
}

void SortById(std::vector<SessionResult>& results) {
  std::sort(results.begin(), results.end(),
            [](const SessionResult& a, const SessionResult& b) { return a.id < b.id; });
}

}  // namespace

DetectorService::DetectorService(const ServiceOptions& options)
    : DetectorService(options, IngestHooks{}) {}

DetectorService::DetectorService(const ServiceOptions& options, IngestHooks hooks)
    : options_(options), hooks_(std::move(hooks)) {
  ValidateOptions(options);
  if (options.knowledge_base != nullptr) {
    seed_view_ = &options.knowledge_base->seed();
  } else if (options.seed_db != nullptr) {
    // Copy once: the service owns its seed, so the caller's catalog may die the moment the
    // constructor returns — no dangling-pointer lifetime to document away.
    own_seed_ = *options.seed_db;
    seed_view_ = &own_seed_;
  }
  shards_.reserve(static_cast<size_t>(options.shards));
  for (int32_t i = 0; i < options.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    if (options.threads > 0) {
      shard->ring = std::make_unique<simkit::MpmcRing<IngestBatch>>(
          static_cast<size_t>(options.ring_capacity));
    }
    shards_.push_back(std::move(shard));
  }
  if (options.threads > 0) {
    worker_state_ = std::make_unique<Worker[]>(static_cast<size_t>(options.threads));
    workers_.reserve(static_cast<size_t>(options.threads));
    for (int32_t w = 0; w < options.threads; ++w) {
      workers_.emplace_back([this, w] { WorkerLoop(static_cast<size_t>(w)); });
    }
  }
}

DetectorService::~DetectorService() {
  if (!workers_.empty()) {
    // Graceful drain: workers observe stop_ only after emptying their rings and catching
    // processed up to enqueued, so every batch routed before destruction is applied. Any
    // results or errors not drained by the caller die with the shards — harvesting them
    // here would hand them to nobody.
    stop_.store(true, std::memory_order_seq_cst);
    for (size_t w = 0; w < workers_.size(); ++w) {
      worker_state_[w].wake.fetch_add(1, std::memory_order_seq_cst);
      FutexWake(worker_state_[w].wake);
    }
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }
}

// ---------------------------------------------------------------------------
// Arena lifecycle (shared by the synchronous path and the shard workers).

std::unique_ptr<DetectorService::SessionSlot> DetectorService::BuildSlot(
    const SessionInfo& info, const HangDoctorConfig& config) {
  auto slot = std::make_unique<SessionSlot>();
  slot->database.SetBase(seed_view_);
  KnowledgeBase::Snapshot snapshot;
  if (options_.knowledge_base != nullptr) {
    snapshot = options_.knowledge_base->Acquire();
  }
  slot->core = std::make_unique<DetectorCore>(info, config, &slot->database,
                                              /*fleet_report=*/nullptr, snapshot);
  return slot;
}

void DetectorService::InsertSlot(Shard& shard, telemetry::SessionId id,
                                 std::unique_ptr<SessionSlot> slot) {
  bool inserted = false;
  {
    std::lock_guard<simkit::SpinLock> lock(shard.lock);
    inserted = shard.live.Insert(id, std::move(slot)).second;
  }
  if (!inserted) {
    throw std::invalid_argument("DetectorService: session " + std::to_string(id.value) +
                                " is already open");
  }
  opened_.fetch_add(1, std::memory_order_relaxed);
  live_.fetch_add(1, std::memory_order_relaxed);
}

namespace {

[[noreturn]] void ThrowNotOpen(telemetry::SessionId id, const void* source) {
  throw std::invalid_argument("DetectorService: session " + std::to_string(id.value) +
                              (source == nullptr ? " is not open"
                                                 : " is not open from this source"));
}

}  // namespace

DetectorService::SessionSlot* DetectorService::FindSlot(Shard& shard, telemetry::SessionId id,
                                                        const void* source) {
  SessionSlot* slot = nullptr;
  {
    std::lock_guard<simkit::SpinLock> lock(shard.lock);
    // Copy the arena pointer out under the lock: the map slot itself may move on rehash, the
    // SessionSlot never does. Safe to use unlocked because a session has one producer — no
    // other thread can close it while its producer is still pushing. The source is checked
    // under the lock too: another source's record may race the owner's close.
    std::unique_ptr<SessionSlot>* found = shard.live.Find(id);
    if (found != nullptr && (*found)->source == source) {
      slot = found->get();
    }
  }
  if (slot == nullptr) {
    ThrowNotOpen(id, source);
  }
  return slot;
}

std::unique_ptr<DetectorService::SessionSlot> DetectorService::RemoveSlot(
    Shard& shard, telemetry::SessionId id, const void* source) {
  std::unique_ptr<SessionSlot> slot;
  {
    std::lock_guard<simkit::SpinLock> lock(shard.lock);
    std::unique_ptr<SessionSlot>* found = shard.live.Find(id);
    if (found != nullptr && (*found)->source == source) {
      shard.live.Erase(id, &slot);
    }
  }
  if (slot == nullptr) {
    ThrowNotOpen(id, source);
  }
  live_.fetch_sub(1, std::memory_order_relaxed);
  return slot;
}

SessionResult DetectorService::Harvest(telemetry::SessionId id,
                                       std::unique_ptr<SessionSlot> slot) {
  DetectorCore& core = *slot->core;
  SessionResult result;
  result.id = id;
  result.app_package = core.session().app_package;
  result.device_id = core.session().device_id;
  result.report = core.local_report();
  result.overhead = core.overhead();
  result.degradation = core.degradation();
  result.stream_ok = core.stream().ok();
  result.stream_error = core.stream().error();
  result.stack_samples = core.stack_samples_taken();
  result.discovered = slot->database.discovered();
  result.kb = core.kb_stats();
  if (options_.knowledge_base != nullptr) {
    AbsorbIntoKb(id, result, core);
  }
  result.log = core.TakeLog();
  result.log.shrink_to_fit();  // a retained log keeps no growth slack
  result.symbols = std::shared_ptr<const telemetry::SymbolTable>(
      std::shared_ptr<const telemetry::SymbolTable>(), core.session().symbols);
  return result;  // `slot` dies here: the session's arena is gone, only the result remains
}

void DetectorService::AbsorbIntoKb(telemetry::SessionId id, SessionResult& result,
                                   DetectorCore& core) {
  // The session's overlay holds exactly its own confirmations (base-known APIs never enter
  // discovered()), in local discovery order — the (session id, order) merge key the KB's
  // deterministic publish sorts by. Confirmations and memos the *currently published*
  // snapshot already carries are dropped before they reach the pending stripes: the epoch
  // fold would deduplicate them anyway (AddDiscovered is idempotent, memo merge is
  // first-wins over a pure function), so the published state is bit-identical whichever
  // snapshot this races with — and the steady-state session, everything it saw already
  // fleet-known, absorbs nothing but its counters.
  KnowledgeBase::Snapshot snapshot = options_.knowledge_base->Acquire();
  const std::vector<std::string>* discovered = &result.discovered;
  std::vector<std::string> fresh;
  if (snapshot.discovered_size() > 0 &&
      std::any_of(result.discovered.begin(), result.discovered.end(),
                  [&](const std::string& api) { return snapshot.IsKnown(api); })) {
    for (const std::string& api : result.discovered) {
      if (!snapshot.IsKnown(api)) {
        fresh.push_back(api);
      }
    }
    discovered = &fresh;
  }
  std::vector<DiagnosisMemoEntry> memos = core.TakeKbMemos();
  if (snapshot.memo_size() > 0) {
    std::erase_if(memos, [&](const DiagnosisMemoEntry& entry) {
      return snapshot.FindMemo(entry.key) != nullptr;
    });
  }
  options_.knowledge_base->AbsorbSession(id, *discovered, std::move(memos), result.kb);
  if (options_.kb_epoch_sessions > 0) {
    int64_t closed = kb_closed_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (closed % options_.kb_epoch_sessions == 0) {
      options_.knowledge_base->Publish();
    }
  }
}

// ---------------------------------------------------------------------------
// Synchronous per-record path. The spin lock covers only the map probe; the core call runs
// unlocked (one producer per session), so producers on disjoint sessions never serialize on
// detection work — only on the few-nanosecond probe.

void DetectorService::Open(telemetry::SessionId id, const SessionInfo& info,
                           const HangDoctorConfig& config) {
  // Build the arena outside the shard lock: core construction validates info and grabs the
  // knowledge-base snapshot, and neither needs the shard.
  InsertSlot(ShardFor(id), id, BuildSlot(info, config));
}

SessionResult DetectorService::Close(telemetry::SessionId id) {
  Shard& shard = ShardFor(id);
  return Harvest(id, RemoveSlot(shard, id));
}

void DetectorService::Discard(telemetry::SessionId id) {
  Shard& shard = ShardFor(id);
  std::unique_ptr<SessionSlot> slot;
  {
    std::lock_guard<simkit::SpinLock> lock(shard.lock);
    shard.live.Erase(id, &slot);
  }
  if (slot != nullptr) {
    live_.fetch_sub(1, std::memory_order_relaxed);
  }
  // Absent is fine: discarding is idempotent.
}

// ---------------------------------------------------------------------------
// Pipelined ingest.

DetectorService::Ingestor::Ingestor(DetectorService* service)
    : router_(
          static_cast<size_t>(service->shards()),
          static_cast<size_t>(service->options_.batch_size),
          [shards = service->shards_.size()](const ServiceRecordRef& ref) {
            return telemetry::ShardOf(ref.session, shards);
          },
          [service](size_t shard_index, std::vector<ServiceRecordRef>&& refs) {
            service->EnqueueBatch(shard_index, IngestBatch{std::move(refs)});
          }) {
  if (service->workers_.empty()) {
    throw std::logic_error("DetectorService::Ingestor requires ServiceOptions.threads >= 1");
  }
}

void DetectorService::EnqueueBatch(size_t shard_index, IngestBatch&& batch) {
  Shard& shard = *shards_[shard_index];
  // Count before pushing: the barrier must never observe processed == enqueued while a
  // counted batch is still outside the ring, and a pushed-but-uncounted batch would let the
  // barrier pass with work in flight.
  shard.enqueued.fetch_add(1, std::memory_order_relaxed);
  shard.ring->Push(std::move(batch));  // blocks on a full ring: bounded backpressure
  // One wake per batch, bumped after the push is published, so a worker that read the old
  // count before scanning its rings sees it move and does not sleep. Only the producer that
  // claims the parked flag pays the futex call — a woken worker may wait for a core, and the
  // others must not pay a syscall meanwhile (seq_cst pairs with the worker's park).
  Worker& worker = worker_state_[shard_index % workers_.size()];
  worker.wake.fetch_add(1, std::memory_order_seq_cst);
  if (worker.parked.load(std::memory_order_seq_cst) &&
      worker.parked.exchange(false, std::memory_order_seq_cst)) {
    FutexWake(worker.wake);
  }
}

std::optional<IngestCompletion> DetectorService::Apply(ServiceRecordRef ref) {
  Shard& shard = ShardFor(ref.session);
  IngestCompletion::Kind ended;
  std::unique_ptr<SessionSlot> removed;
  try {
    const SpiPayload& payload = *ref.record;
    switch (payload.kind) {
      case SpiPayload::Kind::kSessionOpen: {
        std::unique_ptr<SessionSlot> slot = BuildSlot(payload.info, payload.config);
        slot->source = ref.source;
        InsertSlot(shard, ref.session, std::move(slot));
        return std::nullopt;
      }
      case SpiPayload::Kind::kKbPublish:
        // A replayed epoch boundary. Publish() is internally serialized, so concurrent
        // workers replaying interleaved schedules stay safe (the exact snapshot sequence is
        // reproduced when the stream is consumed synchronously, as the replayer documents).
        if (options_.knowledge_base != nullptr) {
          options_.knowledge_base->Publish();
        }
        return std::nullopt;
      case SpiPayload::Kind::kSessionClose:
        ended = IngestCompletion::Kind::kClosed;
        break;
      case SpiPayload::Kind::kSessionAbort:
        ended = IngestCompletion::Kind::kAborted;
        break;
      case SpiPayload::Kind::kSessionHandoff:
        ended = IngestCompletion::Kind::kHandedOff;
        break;
      default:
        PushSpiPayload(*FindSlot(shard, ref.session, ref.source)->core, payload);
        return std::nullopt;
    }
    removed = RemoveSlot(shard, ref.session, ref.source);
  } catch (const std::exception& e) {
    // Reported, not thrown: one bad session must not poison the other sessions sharing its
    // shard, and a shard worker has no caller to throw to.
    std::optional<IngestCompletion> failed(std::in_place);
    failed->ref = ref;
    failed->error = e.what();
    return failed;
  }
  std::optional<IngestCompletion> done(std::in_place);
  done->kind = ended;
  done->ref = ref;
  if (ended == IngestCompletion::Kind::kClosed) {
    done->result = Harvest(ref.session, std::move(removed));
  }
  return done;  // an aborted or handed-off session's arena dies here, unharvested
}

void DetectorService::Complete(Shard& shard, IngestCompletion& completion) {
  if (hooks_.on_complete) {
    hooks_.on_complete(completion);
  } else if (completion.kind == IngestCompletion::Kind::kClosed) {
    shard.closed.push_back(std::move(completion.result));
  } else if (completion.kind == IngestCompletion::Kind::kError) {
    shard.errors.push_back(IngestError{completion.ref.session, std::move(completion.error)});
  }
}

void DetectorService::WorkerLoop(size_t worker_index) {
  // options_.threads, not workers_.size(): the first workers start while the constructor is
  // still appending to workers_.
  const size_t stride = static_cast<size_t>(options_.threads);
  Worker& self = worker_state_[worker_index];
  IngestBatch batch;
  for (;;) {
    // Read the wake count before scanning. A batch published after this load bumps the
    // count, so the wait below returns at once; a batch published before it is found by the
    // scan. A pop that fails on a claimed-but-unpublished ticket is covered the same way:
    // its producer bumps the count once it publishes.
    const uint32_t seen = self.wake.load(std::memory_order_seq_cst);
    bool did_work = false;
    // Shard s is owned by worker s % threads: every shard has exactly one consumer, so
    // per-shard session state needs no locking beyond the map-probe spin lock it already
    // shares with the synchronous path.
    for (size_t s = worker_index; s < shards_.size(); s += stride) {
      Shard& shard = *shards_[s];
      while (shard.ring->TryPop(batch)) {
        did_work = true;
        self.busy.store(true, std::memory_order_relaxed);
        for (const ServiceRecordRef& ref : batch.refs) {
          // Single writer: a plain store, no locked read-modify-write per record.
          self.progress.store(self.progress.load(std::memory_order_relaxed) + 1,
                              std::memory_order_relaxed);
          if (hooks_.before_apply) {
            hooks_.before_apply(ref);
          }
          if (std::optional<IngestCompletion> done = Apply(ref)) {
            Complete(shard, *done);
          }
        }
        self.busy.store(false, std::memory_order_relaxed);
        // Release pairs with the barrier's acquire: it publishes `closed`, `errors` and
        // everything the hooks did along with the count.
        shard.processed.fetch_add(1, std::memory_order_release);
      }
    }
    if (did_work) {
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // Drain before exiting: a batch pushed before the destructor's store may have landed
      // after this round's scan, so leave only once every counted batch is applied.
      bool drained = true;
      for (size_t s = worker_index; s < shards_.size(); s += stride) {
        const Shard& shard = *shards_[s];
        drained = drained && shard.processed.load(std::memory_order_relaxed) >=
                                 shard.enqueued.load(std::memory_order_acquire);
      }
      if (drained) {
        return;
      }
      continue;
    }
    // One futex wait per park, then back to the scan: a wake whose producer cleared
    // `parked` is never slept through, because each park sets the flag afresh.
    self.parked.store(true, std::memory_order_seq_cst);
    FutexWait(self.wake, seen);
  }
}

void DetectorService::WaitIngestIdle() {
  if (workers_.empty()) {
    return;
  }
  for (const auto& shard : shards_) {
    // enqueued is monotone and the caller has quiesced all producers, so one converged read
    // per shard suffices. The acquire on processed publishes the worker's writes (closed,
    // errors, session arenas) to this thread.
    int64_t target = shard->enqueued.load(std::memory_order_relaxed);
    while (shard->processed.load(std::memory_order_acquire) < target) {
      std::this_thread::yield();
    }
  }
  // The barrier is an epoch boundary: everything absorbed by the drained sessions becomes
  // visible to sessions opened after it. A no-op when nothing is pending.
  if (options_.knowledge_base != nullptr) {
    options_.knowledge_base->Publish();
  }
}

template <typename T>
std::vector<T> DetectorService::TakeAll(std::vector<T> Shard::*pending) {
  WaitIngestIdle();
  std::vector<T> all;
  for (const auto& shard : shards_) {
    std::vector<T>& items = (*shard).*pending;
    std::move(items.begin(), items.end(), std::back_inserter(all));
    items.clear();
  }
  return all;
}

std::vector<SessionResult> DetectorService::DrainClosed() {
  std::vector<SessionResult> results = TakeAll(&Shard::closed);
  SortById(results);
  return results;
}

std::vector<IngestError> DetectorService::TakeIngestErrors() {
  return TakeAll(&Shard::errors);
}

std::vector<SessionResult> DetectorService::Consume(std::span<const ServiceRecord> stream) {
  if (workers_.empty()) {
    // Without workers the caller's thread applies each record exactly as a worker would.
    for (const ServiceRecord& record : stream) {
      if (std::optional<IngestCompletion> done = Apply({record.session, &record.record})) {
        Complete(ShardFor(record.session), *done);
      }
    }
  } else {
    Ingestor ingestor(this);  // flushes as it goes out of scope
    for (const ServiceRecord& record : stream) {
      ingestor.Push(record);
    }
  }
  std::vector<SessionResult> results = DrainClosed();
  std::vector<IngestError> errors = TakeIngestErrors();
  if (!errors.empty()) {
    throw std::invalid_argument(errors.front().message);
  }
  return results;
}

DetectorService::WorkerHealth DetectorService::worker_health(int32_t worker) const {
  const Worker& state = worker_state_[static_cast<size_t>(worker)];
  return {state.progress.load(std::memory_order_relaxed),
          state.busy.load(std::memory_order_relaxed)};
}

size_t DetectorService::live_sessions() const {
  int64_t live = live_.load(std::memory_order_relaxed);
  return live < 0 ? 0 : static_cast<size_t>(live);
}

std::vector<telemetry::SessionId> DetectorService::LiveSessionIds() const {
  std::vector<telemetry::SessionId> ids;
  for (const auto& shard : shards_) {
    std::lock_guard<simkit::SpinLock> lock(shard->lock);
    shard->live.ForEach(
        [&ids](const telemetry::SessionId& id, const std::unique_ptr<SessionSlot>&) {
          ids.push_back(id);
        });
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

HangBugReport MergeSessionReports(std::span<const SessionResult> results) {
  std::vector<const SessionResult*> pointers;
  pointers.reserve(results.size());
  for (const SessionResult& result : results) {
    pointers.push_back(&result);
  }
  return MergeSessionReports(pointers);
}

HangBugReport MergeSessionReports(std::span<const SessionResult* const> results) {
  std::vector<const SessionResult*> ordered(results.begin(), results.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const SessionResult* a, const SessionResult* b) { return a->id < b->id; });
  HangBugReport merged;
  for (const SessionResult* result : ordered) {
    merged.Merge(result->report);
  }
  return merged;
}

}  // namespace hangdoctor
