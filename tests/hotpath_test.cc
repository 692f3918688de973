// Hot-path regression suite for the zero-allocation work: the slab event queue is stressed
// against a naive reference model, its memory is shown to be bounded by live events rather
// than cancellation volume, symbol interning is shown to assign identical ids across
// independent runs (the fleet-sharding determinism contract), the steady-state sampling
// path is shown to perform zero heap allocations, and a sampled record parses with one
// allocation per sample.
//
// This suite lives in its own binary because it replaces the global operator new/delete with
// counting versions; keeping that out of the other test binaries avoids any interference.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/droidsim/app.h"
#include "src/droidsim/phone.h"
#include "src/droidsim/stack_sampler.h"
#include "src/droidsim/symbols.h"
#include "src/hosts/session_log.h"
#include "src/kernelsim/kernel.h"
#include "src/kernelsim/uarch.h"
#include "src/perfsim/counter_hub.h"
#include "src/simkit/event_queue.h"
#include "src/simkit/rng.h"
#include "src/telemetry/bytes.h"
#include "src/workload/catalog.h"

namespace {

// ---------------------------------------------------------------------------
// Counting allocator: every global new/delete goes through malloc/free plus an
// atomic counter, so a test can assert a region of code allocated nothing.
std::atomic<int64_t> g_allocations{0};

int64_t AllocationCount() { return g_allocations.load(std::memory_order_relaxed); }

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

// ---------------------------------------------------------------------------
// EventQueue stress: a million random schedule/cancel/pop operations, checked
// against a trivially correct reference model (ordered map over (when, seq)).
TEST(EventQueueStressTest, MatchesReferenceModelOverMillionOps) {
  simkit::EventQueue queue;
  // Reference: (when, seq) -> (payload, id), plus id -> (when, seq) for cancels.
  std::map<std::pair<simkit::SimTime, uint64_t>, std::pair<uint64_t, simkit::EventId>>
      reference;
  std::unordered_map<simkit::EventId, std::pair<simkit::SimTime, uint64_t>> pending;
  std::vector<simkit::EventId> issued_ids;  // includes dead ids, to test stale cancels

  std::vector<uint64_t> popped;
  simkit::Rng rng(0xC0FFEE);
  uint64_t next_payload = 0;
  uint64_t next_seq = 0;

  constexpr int kOps = 1'000'000;
  for (int op = 0; op < kOps; ++op) {
    int64_t dice = rng.UniformInt(0, 99);
    if (dice < 50) {
      // Schedule. A narrow time range forces heavy (when, seq) FIFO tie-breaking.
      simkit::SimTime when = rng.UniformInt(0, 1023);
      uint64_t payload = next_payload++;
      simkit::EventId id =
          queue.ScheduleAt(when, [payload, &popped]() { popped.push_back(payload); });
      reference.emplace(std::make_pair(when, next_seq), std::make_pair(payload, id));
      pending.emplace(id, std::make_pair(when, next_seq));
      ++next_seq;
      issued_ids.push_back(id);
    } else if (dice < 80 && !issued_ids.empty()) {
      // Cancel a random id, possibly one that already ran or was already cancelled.
      simkit::EventId id =
          issued_ids[static_cast<size_t>(rng.UniformInt(0, issued_ids.size() - 1))];
      auto it = pending.find(id);
      bool expect_cancel = it != pending.end();
      EXPECT_EQ(queue.Cancel(id), expect_cancel);
      if (expect_cancel) {
        reference.erase(it->second);
        pending.erase(it);
      }
    } else {
      simkit::SimTime when = 0;
      simkit::EventCallback cb;
      bool got = queue.PopNext(&when, &cb);
      ASSERT_EQ(got, !reference.empty());
      if (!got) {
        continue;
      }
      auto front = reference.begin();
      ASSERT_EQ(when, front->first.first);
      size_t before = popped.size();
      cb();
      ASSERT_EQ(popped.size(), before + 1);
      // The popped payload identifies exactly which event ran: it must be the
      // earliest (when, seq) the reference holds — FIFO among ties.
      ASSERT_EQ(popped.back(), front->second.first);
      pending.erase(front->second.second);
      reference.erase(front);
    }
    ASSERT_EQ(queue.Size(), reference.size());
  }

  // Drain what is left and confirm the full remaining order.
  while (!reference.empty()) {
    simkit::SimTime when = 0;
    simkit::EventCallback cb;
    ASSERT_TRUE(queue.PopNext(&when, &cb));
    auto front = reference.begin();
    EXPECT_EQ(when, front->first.first);
    cb();
    EXPECT_EQ(popped.back(), front->second.first);
    reference.erase(front);
  }
  EXPECT_TRUE(queue.Empty());
  simkit::SimTime when = 0;
  simkit::EventCallback cb;
  EXPECT_FALSE(queue.PopNext(&when, &cb));
}

// Memory must be bounded by the high-water mark of *concurrently pending* events, not by
// how many events were ever scheduled or cancelled. The old implementation kept a growing
// cancelled-id set; the slab + generation design recycles slots, and heap compaction keeps
// stale entries from accumulating even when nothing is ever popped.
TEST(EventQueueStressTest, CancellationMemoryIsBounded) {
  simkit::EventQueue queue;
  constexpr int kLive = 8;
  constexpr int kRounds = 100'000;
  simkit::EventId ids[kLive];
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kLive; ++i) {
      ids[i] = queue.ScheduleAt(round, []() {});
    }
    for (int i = 0; i < kLive; ++i) {
      EXPECT_TRUE(queue.Cancel(ids[i]));
    }
  }
  EXPECT_TRUE(queue.Empty());
  EXPECT_EQ(queue.Size(), 0u);
  // 800k schedules and 800k cancellations later: the slot pool never grew past the
  // concurrent high-water mark, and the heap was compacted down to O(live).
  EXPECT_LE(queue.SlabCapacity(), static_cast<size_t>(kLive));
  EXPECT_LE(queue.HeapSize(), 4u * kLive + 64u);
}

// Interleave schedules, cancels and pops, tracking the high-water mark of concurrently
// live events: the slab must never grow past it.
TEST(EventQueueStressTest, SlabTracksHighWaterMarkUnderChurn) {
  simkit::EventQueue queue;
  simkit::Rng rng(42);
  // payload -> id for every still-live event; callbacks report which payload ran.
  std::unordered_map<uint64_t, simkit::EventId> live;
  uint64_t last_popped = 0;
  uint64_t next_payload = 0;
  size_t high_water = 0;
  for (int op = 0; op < 200'000; ++op) {
    int64_t dice = rng.UniformInt(0, 2);
    if (dice == 0 || live.empty()) {
      uint64_t payload = next_payload++;
      live.emplace(payload, queue.ScheduleAt(rng.UniformInt(0, 1000),
                                             [payload, &last_popped]() {
                                               last_popped = payload;
                                             }));
      high_water = std::max(high_water, live.size());
    } else if (dice == 1) {
      auto pick = live.begin();
      EXPECT_TRUE(queue.Cancel(pick->second));
      live.erase(pick);
    } else {
      simkit::SimTime when = 0;
      simkit::EventCallback cb;
      ASSERT_TRUE(queue.PopNext(&when, &cb));
      cb();
      ASSERT_EQ(live.erase(last_popped), 1u);
    }
    ASSERT_EQ(queue.Size(), live.size());
  }
  EXPECT_LE(queue.SlabCapacity(), high_water);
}

// ---------------------------------------------------------------------------
// Symbol interning determinism: the id assignment walks the AppSpec in declaration order,
// so two independently constructed phones/apps — different seeds, different runs, different
// fleet shards — produce byte-identical id -> frame tables. This is what keeps fleet
// aggregation with --jobs=N bit-identical to --jobs=1.
TEST(SymbolTableDeterminismTest, SameSpecYieldsSameIdsAcrossPhones) {
  workload::Catalog catalog;
  for (const droidsim::AppSpec* spec : catalog.study_apps()) {
    droidsim::Phone phone_a(droidsim::LgV10(), /*seed=*/1);
    droidsim::Phone phone_b(droidsim::LgV10(), /*seed=*/987654321);
    droidsim::App* app_a = phone_a.InstallApp(spec);
    droidsim::App* app_b = phone_b.InstallApp(spec);

    const droidsim::SymbolTable& sym_a = app_a->symbols();
    const droidsim::SymbolTable& sym_b = app_b->symbols();
    ASSERT_GT(sym_a.size(), 0u) << spec->package;
    ASSERT_EQ(sym_a.size(), sym_b.size()) << spec->package;
    for (telemetry::FrameId id = 0; id < sym_a.size(); ++id) {
      const telemetry::StackFrame& fa = sym_a.Frame(id);
      const telemetry::StackFrame& fb = sym_b.Frame(id);
      ASSERT_EQ(fa.function, fb.function) << spec->package << " id " << id;
      ASSERT_EQ(fa.clazz, fb.clazz) << spec->package << " id " << id;
      ASSERT_EQ(fa.file, fb.file) << spec->package << " id " << id;
      ASSERT_EQ(fa.line, fb.line) << spec->package << " id " << id;
      ASSERT_EQ(sym_a.IsUi(id), sym_b.IsUi(id)) << spec->package << " id " << id;
    }
  }
}

TEST(SymbolTableDeterminismTest, InternDeduplicatesByContent) {
  droidsim::SymbolTable symbols;
  telemetry::StackFrame frame{"clean", "org.htmlcleaner.HtmlCleaner", "HtmlSanitizer.java", 25};
  telemetry::FrameId id = symbols.Intern(frame);
  EXPECT_EQ(symbols.Intern(frame), id);
  telemetry::StackFrame other = frame;
  other.line = 26;
  EXPECT_NE(symbols.Intern(other), id);
  EXPECT_EQ(symbols.size(), 2u);
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state. After warm-up, one full sampler arm cycle
// (TakeSample + slab reschedule) and a burst of CounterHub kernel events must not
// touch the heap at all.
class ZeroAllocationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_unique<workload::Catalog>();
    phone_ = std::make_unique<droidsim::Phone>(droidsim::LgV10(), /*seed=*/7);
    app_ = phone_->InstallApp(catalog_->FindApp("K9-Mail"));
    // Run the phone for a while so every pool in the hot path reaches steady state:
    // the event-queue slab and heap, the counter hub's dense thread states and noise
    // rings, and the kernel's bookkeeping.
    phone_->RunFor(simkit::Seconds(2));
  }

  std::unique_ptr<workload::Catalog> catalog_;
  std::unique_ptr<droidsim::Phone> phone_;
  droidsim::App* app_ = nullptr;
};

TEST_F(ZeroAllocationTest, WarmSamplerCollectionCycleDoesNotAllocate) {
  droidsim::StackSampler sampler(&phone_->sim(), &app_->main_looper());
  // Warm-up cycle: allocates the sample slot and warms the queue's free list.
  sampler.StartCollection();
  sampler.StopCollection();
  sampler.StartCollection();
  sampler.StopCollection();

  int64_t before = AllocationCount();
  sampler.StartCollection();  // one TakeSample + one slab ScheduleAfter
  std::span<const telemetry::StackTrace> traces = sampler.StopCollection();  // O(1) Cancel
  int64_t after = AllocationCount();
  EXPECT_EQ(after - before, 0) << "steady-state sampler cycle must not allocate";
  EXPECT_EQ(traces.size(), 1u);
}

TEST_F(ZeroAllocationTest, WarmCounterHubEventsDoNotAllocate) {
  perfsim::CounterHub& hub = phone_->counter_hub();
  const kernelsim::Thread& main_thread = phone_->kernel().GetThread(app_->main_tid());
  kernelsim::MicroArchProfile uarch;  // an arbitrary profile; any charge takes the same path

  // Warm-up: the thread already has dense state from the 2 s run, but charge once more
  // explicitly so the first measured iteration cannot be the one that grows the vector.
  hub.OnCpuCharge(main_thread, simkit::Microseconds(50), uarch);
  hub.OnContextSwitch(main_thread, /*voluntary=*/true, 1);
  hub.OnPageFault(main_thread, /*major=*/false, 1);

  int64_t before = AllocationCount();
  for (int i = 0; i < 1000; ++i) {
    hub.OnCpuCharge(main_thread, simkit::Microseconds(50), uarch);
    hub.OnContextSwitch(main_thread, /*voluntary=*/true, 1);
    hub.OnPageFault(main_thread, /*major=*/false, 1);
    hub.OnCpuMigration(main_thread);
  }
  int64_t after = AllocationCount();
  EXPECT_EQ(after - before, 0) << "warm counter-hub events must not allocate";
}

TEST_F(ZeroAllocationTest, WarmEventQueueCycleDoesNotAllocate) {
  simkit::EventQueue queue;
  int sink = 0;
  // Warm-up: a few cycles so the slab and the heap vector reach their steady-state
  // capacity (cancelled entries linger as stale heap entries until a pop drains them,
  // so the working set is a couple of entries, not one).
  for (int i = 0; i < 8; ++i) {
    simkit::EventId warm = queue.ScheduleAt(10 + i, [&sink]() { ++sink; });
    EXPECT_TRUE(queue.Cancel(warm));
  }
  {
    simkit::EventId warm = queue.ScheduleAt(100, [&sink]() { ++sink; });
    simkit::SimTime when = 0;
    simkit::EventCallback cb;
    EXPECT_TRUE(queue.PopNext(&when, &cb));
    (void)warm;
    cb();
  }
  sink = 0;

  int64_t before = AllocationCount();
  for (int i = 0; i < 1000; ++i) {
    simkit::EventId id = queue.ScheduleAt(i, [&sink]() { ++sink; });
    if ((i & 1) == 0) {
      EXPECT_TRUE(queue.Cancel(id));
    } else {
      simkit::SimTime when = 0;
      simkit::EventCallback cb;
      EXPECT_TRUE(queue.PopNext(&when, &cb));
      cb();
    }
  }
  int64_t after = AllocationCount();
  EXPECT_EQ(after - before, 0) << "warm schedule/cancel/pop cycles must not allocate";
  EXPECT_EQ(sink, 500);
}

// A kDispatchEnd of 25 samples of depth 35 (a deep app's hang) parsed into a warm, reused
// SessionRecord: the sample vector is reserved once and each sample's frame vector once, so
// the parse allocates one frame buffer per sample, never a regrowth.
TEST(RecordParseAllocationTest, SampledRecordAllocatesOncePerSample) {
  constexpr int kSamples = 25;
  constexpr int kDepth = 35;
  telemetry::SymbolTable symbols;
  for (int i = 0; i < kDepth; ++i) {
    symbols.Intern({"f", "C", "C.java", i + 1}, false);  // distinct by line
  }
  std::string bytes(1, static_cast<char>(hangdoctor::SessionRecordTag::kDispatchEnd));
  for (int64_t field : {1000, 7, 0, 250}) {  // now, execution id, event index, response
    telemetry::PutSigned(&bytes, field);
  }
  bytes.push_back('\1');  // trace_stopped
  telemetry::PutVarint(&bytes, kSamples);
  for (int s = 0; s < kSamples; ++s) {
    telemetry::PutSigned(&bytes, 100 + s);
    telemetry::PutVarint(&bytes, 0);
    telemetry::PutVarint(&bytes, kDepth);
    for (int f = 0; f < kDepth; ++f) {
      telemetry::PutVarint(&bytes, static_cast<uint64_t>(f));
    }
  }

  hangdoctor::SessionRecord record;
  std::string error;
  ASSERT_TRUE(hangdoctor::ParseSessionRecordBytes(bytes, symbols, &record, &error)) << error;
  int64_t before = AllocationCount();
  bool parsed = hangdoctor::ParseSessionRecordBytes(bytes, symbols, &record, &error);
  int64_t allocations = AllocationCount() - before;
  ASSERT_TRUE(parsed) << error;
  ASSERT_EQ(record.samples.size(), static_cast<size_t>(kSamples));
  EXPECT_EQ(record.samples.back().frames.size(), static_cast<size_t>(kDepth));
  EXPECT_LE(allocations, kSamples + 1);
}

}  // namespace
