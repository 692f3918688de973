// KnowledgeBase concurrency: snapshot churn under TSan (writers absorbing + publishing while
// readers acquire and query — the RCU-style publication protocol must be race-free), and the
// bit-identity matrix of a recorded fleet pushed through the pipeline with a shared knowledge
// base, over {threads} x {shards} x {epoch length} (recorded_fleet.h).
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/hangdoctor/blocking_api_db.h"
#include "src/hangdoctor/knowledge_base.h"
#include "src/workload/catalog.h"
#include "src/workload/experiment.h"
#include "src/workload/fleet.h"
#include "tests/recorded_fleet.h"

namespace {

const workload::Catalog& SharedCatalog() {
  static const workload::Catalog* catalog = new workload::Catalog();
  return *catalog;
}

// A smaller fleet than the integration suite's — the matrix below pushes it 11 times and
// TSan slows that by ~10x — but still covering half the study apps on four devices.
std::vector<workload::FleetJob> SmallFleet(const hangdoctor::BlockingApiDatabase* known_db) {
  const workload::Catalog& catalog = SharedCatalog();
  std::vector<workload::FleetJob> jobs;
  for (size_t i = 0; i < 8; ++i) {
    workload::FleetJob job;
    job.spec = catalog.study_apps()[i];
    job.profile = droidsim::LgV10();
    job.seed = workload::FleetSeed(99, i);
    job.session = simkit::Seconds(20);
    job.device_id = static_cast<int32_t>(i % 4);
    job.known_db = known_db;
    jobs.push_back(job);
  }
  return jobs;
}

TEST(KbConcurrencyTest, SnapshotChurnStress) {
  hangdoctor::BlockingApiDatabase seed;
  seed.SeedKnown("android.hardware.Camera.open");
  hangdoctor::KnowledgeBase kb(seed);

  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kSessionsPerWriter = 200;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&kb, w] {
      for (int s = 0; s < kSessionsPerWriter; ++s) {
        uint64_t session = static_cast<uint64_t>(w) * kSessionsPerWriter + s;
        hangdoctor::DiagnosisMemoEntry memo;
        memo.key.app_package = "com.example.app" + std::to_string(session % 7);
        memo.key.symbols_fingerprint = session % 13;
        memo.key.shape = {1, static_cast<uint32_t>(session % 5)};
        memo.diagnosis.valid = true;
        memo.diagnosis.culprit = static_cast<telemetry::FrameId>(session % 11);
        kb.AbsorbSession(telemetry::SessionId{session},
                         {"com.example.Api" + std::to_string(session % 11) + ".block"},
                         {memo}, {});
        if (s % 10 == 9) {
          kb.Publish();
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&kb, &done] {
      hangdoctor::DiagnosisMemoKey probe;
      probe.app_package = "com.example.app3";
      probe.symbols_fingerprint = 3;
      probe.shape = {1, 3};
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        hangdoctor::KnowledgeBase::Snapshot snap = kb.Acquire();
        ASSERT_TRUE(snap.valid());
        // Epochs only move forward for a reader re-acquiring.
        ASSERT_GE(snap.epoch(), last_epoch);
        last_epoch = snap.epoch();
        ASSERT_TRUE(snap.IsKnown("android.hardware.Camera.open"));  // seed never vanishes
        const hangdoctor::Diagnosis* memo = snap.FindMemo(probe);
        if (memo != nullptr) {
          ASSERT_TRUE(memo->valid);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads[static_cast<size_t>(w)].join();
  }
  done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) {
    threads[t].join();
  }

  kb.Publish();
  hangdoctor::KnowledgeBase::Stats stats = kb.TotalStats();
  EXPECT_EQ(stats.sessions_absorbed, kWriters * kSessionsPerWriter);
  EXPECT_EQ(stats.discovered, 11u);  // session % 11 distinct APIs, deduplicated on merge
}

TEST(KbConcurrencyTest, PipelinedFleetBitIdenticalAcrossThreadsShardsAndEpochs) {
  hangdoctor::BlockingApiDatabase known_db = SharedCatalog().MakeKnownDatabase();
  recorded_fleet::Fleet fleet = recorded_fleet::RecordFleet(SmallFleet(&known_db), "kb");

  // One knowledge base per run, pushed from `threads` producers; returns its totals after
  // the final publish.
  auto run = [&](int32_t threads, int32_t shards, int64_t epoch, const std::string& label) {
    hangdoctor::KnowledgeBase kb(known_db);
    hangdoctor::ServiceOptions options{.shards = shards, .threads = threads,
                                       .knowledge_base = &kb, .kb_epoch_sessions = epoch};
    recorded_fleet::ExpectMatchesOracle(fleet, recorded_fleet::IngestFleet(fleet, options),
                                        label);
    kb.Publish();
    return kb.TotalStats();
  };
  for (int32_t threads : {1, 4, 8}) {
    for (int32_t shards : {1, 4, 7}) {
      run(threads, shards, 16,
          "threads=" + std::to_string(threads) + " shards=" + std::to_string(shards));
    }
  }
  // Epoch-length axis at one {threads, shards} point: every-session publish and
  // barriers-only publish both stay on the oracle's bits.
  for (int64_t epoch : {int64_t{1}, int64_t{0}}) {
    hangdoctor::KnowledgeBase::Stats stats = run(4, 4, epoch, "epoch=" + std::to_string(epoch));
    EXPECT_EQ(stats.sessions_absorbed, 8) << epoch;
  }
}

}  // namespace
