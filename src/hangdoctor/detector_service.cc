#include "src/hangdoctor/detector_service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hangdoctor {

// One session's arena: everything that exists only while the session is live. `database`
// overlays the service seed (seed_view_), so a slot holds only what this session learned.
struct SessionSlot {
  BlockingApiDatabase database;
  std::unique_ptr<DetectorCore> core;
  const void* source = nullptr;  // the ServiceRecordRef::source of the applied open
};

namespace {

void ValidateOptions(const ServiceOptions& options) {
  if (options.shards < 1) {
    throw std::invalid_argument("ServiceOptions: shards must be >= 1, got " +
                                std::to_string(options.shards));
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

void SortById(std::vector<SessionResult>& results) {
  std::sort(results.begin(), results.end(),
            [](const SessionResult& a, const SessionResult& b) { return a.id < b.id; });
}

}  // namespace

DetectorService::DetectorService(const ServiceOptions& options) : options_(options) {
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
    shards_.push_back(std::make_unique<Shard>());
  }
}

DetectorService::~DetectorService() = default;

// ---------------------------------------------------------------------------
// Arena lifecycle (shared by both ingestion surfaces).

std::unique_ptr<SessionSlot> DetectorService::BuildSlot(const SessionInfo& info,
                                                      const HangDoctorConfig& config) {
  auto slot = std::make_unique<SessionSlot>();
  slot->database.SetBase(seed_view_);
  KnowledgeBase::Snapshot snapshot;
  if (options_.knowledge_base != nullptr) {
    snapshot = options_.knowledge_base->Acquire();
  }
  slot->core = std::make_unique<DetectorCore>(info, config, &slot->database, snapshot);
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

SessionSlot* DetectorService::FindSlot(Shard& shard, telemetry::SessionId id,
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

DetectorCore& DetectorService::Core(telemetry::SessionId id) {
  return *FindSlot(ShardFor(id), id)->core;
}

std::unique_ptr<SessionSlot> DetectorService::RemoveSlot(Shard& shard, telemetry::SessionId id,
                                                       const void* source) {
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
// In-place apply.

std::optional<IngestCompletion> DetectorService::Apply(ServiceRecordRef ref) {
  IngestCompletion::Kind ended;
  std::unique_ptr<SessionSlot> removed;
  try {
    const SpiPayload& payload = *ref.record;
    switch (payload.kind) {
      case SpiPayload::Kind::kSessionOpen: {
        if (ref.arena != nullptr) {
          *ref.arena = nullptr;  // stays null if the open is refused
        }
        std::unique_ptr<SessionSlot> slot = BuildSlot(payload.info, payload.config);
        slot->source = ref.source;
        SessionSlot* arena = slot.get();
        InsertSlot(ShardFor(ref.session), ref.session, std::move(slot));
        if (ref.arena != nullptr) {
          *ref.arena = arena;
        }
        return std::nullopt;
      }
      case SpiPayload::Kind::kKbPublish:
        // A replayed epoch boundary. Publish() is internally serialized, so concurrent
        // producers replaying interleaved schedules stay safe (the exact snapshot sequence is
        // reproduced when one thread consumes the stream, as the replayer documents).
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
      default: {
        // The handle is the arena itself: only the producer that opened the session holds
        // it, so the record needs neither the shard lock nor the source check.
        SessionSlot* slot = ref.arena != nullptr && *ref.arena != nullptr
                                ? *ref.arena
                                : FindSlot(ShardFor(ref.session), ref.session, ref.source);
        PushSpiPayload(*slot->core, payload);
        return std::nullopt;
      }
    }
    if (ref.arena != nullptr) {
      *ref.arena = nullptr;  // the session is ending: its handle must not outlive it
    }
    removed = RemoveSlot(ShardFor(ref.session), ref.session, ref.source);
  } catch (const std::exception& e) {
    // Reported, not thrown: one bad session must not poison the other sessions its
    // producer (a daemon connection, a replayed stream) is still feeding.
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

void DetectorService::ApplyAndKeep(ServiceRecordRef ref) {
  std::optional<IngestCompletion> done = Apply(ref);
  if (!done || done->kind == IngestCompletion::Kind::kAborted ||
      done->kind == IngestCompletion::Kind::kHandedOff) {
    return;
  }
  std::lock_guard<std::mutex> lock(kept_mu_);
  if (done->kind == IngestCompletion::Kind::kClosed) {
    closed_.push_back(std::move(done->result));
  } else {
    errors_.push_back(IngestError{ref.session, std::move(done->error)});
  }
}

std::vector<SessionResult> DetectorService::DrainClosed() {
  std::vector<SessionResult> results;
  {
    std::lock_guard<std::mutex> lock(kept_mu_);
    results.swap(closed_);
  }
  SortById(results);
  return results;
}

std::vector<IngestError> DetectorService::TakeIngestErrors() {
  std::lock_guard<std::mutex> lock(kept_mu_);
  return std::exchange(errors_, {});
}

std::vector<SessionResult> DetectorService::Consume(std::span<const ServiceRecord> stream) {
  for (const ServiceRecord& record : stream) {
    ApplyAndKeep({record.session, &record.record});
  }
  std::vector<SessionResult> results = DrainClosed();
  std::vector<IngestError> errors = TakeIngestErrors();
  if (!errors.empty()) {
    throw std::invalid_argument(errors.front().message);
  }
  return results;
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
