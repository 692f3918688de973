// DetectorService's in-place apply from many threads — the race surface of hangdoctord's
// epoll workers, which apply disjoint sessions into one shared service. From below: the
// open-addressed session map against a reference model. From above: the determinism
// contract — t producer threads, each applying its own sessions through Apply or an
// Ingestor while the sessions share shards, produce results bit-identical to one thread
// consuming the stream and, over recorded fleets, to the per-job fleet oracle, fault-injected
// and async sessions included; completions, source ownership and the error order of Consume.
// These run on the TSan CI leg, so every shared access is machine-checked, not argued.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/faultsim/fault_plan.h"
#include "src/hangdoctor/detector_service.h"
#include "src/hangdoctor/session_stream.h"
#include "src/hosts/hang_doctor.h"
#include "src/hosts/mux_log.h"
#include "src/hosts/session_log.h"
#include "src/simkit/rng.h"
#include "src/simkit/shard_map.h"
#include "src/workload/catalog.h"
#include "src/workload/experiment.h"
#include "src/workload/fleet.h"
#include "tests/recorded_fleet.h"

namespace {

// ---------------------------------------------------------------------------
// OpenHashMap: insert/find/erase churn against the standard map.

TEST(OpenHashMapTest, ChurnMatchesUnorderedMapModel) {
  struct Hasher {
    size_t operator()(uint64_t key) const { return static_cast<size_t>(key * 0x9E3779B9ULL); }
  };
  simkit::OpenHashMap<uint64_t, int, Hasher> map;
  std::unordered_map<uint64_t, int> model;
  uint64_t state = 12345;
  for (int step = 0; step < 20000; ++step) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    uint64_t key = (state >> 40) % 512;  // small key space => heavy churn + tombstone reuse
    switch ((state >> 20) % 3) {
      case 0: {  // insert
        auto [slot, inserted] = map.Insert(key, static_cast<int>(step));
        auto [it, model_inserted] = model.try_emplace(key, static_cast<int>(step));
        ASSERT_EQ(inserted, model_inserted);
        ASSERT_EQ(*slot, it->second);
        break;
      }
      case 1: {  // find
        int* found = map.Find(key);
        auto it = model.find(key);
        ASSERT_EQ(found != nullptr, it != model.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        break;
      }
      case 2: {  // erase
        int out = -1;
        bool erased = map.Erase(key, &out);
        auto it = model.find(key);
        ASSERT_EQ(erased, it != model.end());
        if (erased) {
          ASSERT_EQ(out, it->second);
          model.erase(it);
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), model.size());
  }
  // Full-content check via ForEach.
  size_t visited = 0;
  map.ForEach([&model, &visited](const uint64_t& key, int& value) {
    ++visited;
    auto it = model.find(key);
    ASSERT_NE(it, model.end());
    ASSERT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, model.size());
}

// ---------------------------------------------------------------------------
// DetectorService basics: options validation, error surfacing, destruction.

TEST(IngestPipelineTest, OptionValidationThrows) {
  EXPECT_THROW(hangdoctor::DetectorService(hangdoctor::ServiceOptions{0}),
               std::invalid_argument);
  EXPECT_THROW(hangdoctor::DetectorService(hangdoctor::ServiceOptions{-3}),
               std::invalid_argument);
}

TEST(IngestPipelineTest, UnroutableRecordSurfacesAsIngestError) {
  hangdoctor::DetectorService service(hangdoctor::ServiceOptions{3});
  hangdoctor::SpiPayload orphan;
  orphan.kind = hangdoctor::SpiPayload::Kind::kDispatchStart;
  orphan.start.execution_id = 1;
  hangdoctor::DetectorService::Ingestor ingestor(&service);
  ingestor.Push({telemetry::SessionId{77}, &orphan});
  std::vector<hangdoctor::IngestError> errors = service.TakeIngestErrors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].session.value, 77u);
  EXPECT_NE(errors[0].message.find("not open"), std::string::npos) << errors[0].message;
  // The error was consumed; the service is clean again.
  EXPECT_TRUE(service.TakeIngestErrors().empty());
  EXPECT_EQ(service.live_sessions(), 0u);
}

TEST(IngestPipelineTest, DestructionFreesLiveSessions) {
  telemetry::SymbolTable symbols;
  hangdoctor::SessionInfo info;
  info.app_package = "com.example.drain";
  info.num_actions = 2;
  info.symbols = &symbols;
  hangdoctor::SpiPayload open_payload;
  open_payload.kind = hangdoctor::SpiPayload::Kind::kSessionOpen;
  open_payload.info = info;

  // The service dies with every session still live: its destructor must free each arena
  // (LeakSanitizer-checked on the ASan leg).
  hangdoctor::DetectorService service(hangdoctor::ServiceOptions{5});
  hangdoctor::DetectorService::Ingestor ingestor(&service);
  for (uint64_t s = 0; s < 200; ++s) {
    ingestor.Push({telemetry::SessionId{s}, &open_payload});
  }
  EXPECT_TRUE(service.TakeIngestErrors().empty());
  EXPECT_EQ(service.sessions_opened(), 200);
  EXPECT_EQ(service.live_sessions(), 200u);
}

// ---------------------------------------------------------------------------
// Determinism from above: t producer threads ≡ one thread ≡ per-job oracle.

const workload::Catalog& SharedCatalog() {
  static const workload::Catalog* catalog = new workload::Catalog();
  return *catalog;
}

// A donor SPI stream from one recorded droidsim session.
struct DonorStream {
  // The harness owns the symbol table the captured stream references, so it must live as
  // long as the donor payloads. The DonorStream itself is immortal (function-local static
  // pointer in Donor()), which also keeps this reachable for LeakSanitizer.
  workload::SingleAppHarness* harness;
  hangdoctor::SessionInfo info;
  hangdoctor::HangDoctorConfig config;
  std::vector<hangdoctor::SpiPayload> records;
};

const DonorStream& Donor() {
  static const DonorStream* donor = []() {
    auto* made = new DonorStream();
    hangdoctor::SpiStreamRecorder recorder;
    auto* harness = new workload::SingleAppHarness(
        droidsim::LgV10(), SharedCatalog().FindApp("K9-Mail"), /*seed=*/0x5E55);
    made->harness = harness;
    {
      hangdoctor::HangDoctor doctor(&harness->phone(), &harness->app(), made->config,
                                    /*database=*/nullptr, /*device_id=*/0, &recorder);
      harness->RunUserSession(simkit::Seconds(20), {});
    }
    made->info = recorder.info();
    made->records = recorder.records();
    return made;
  }();
  return *donor;
}

// Builds an interleaved multi-session stream: `sessions` copies of the donor session with
// records round-robined (record r of every session lands before record r+1 of any).
std::vector<hangdoctor::ServiceRecord> InterleavedStream(size_t sessions) {
  const DonorStream& donor = Donor();
  std::vector<hangdoctor::ServiceRecord> stream;
  stream.reserve(sessions * (donor.records.size() + 2));
  for (uint64_t s = 0; s < sessions; ++s) {
    hangdoctor::SpiPayload open_payload;
    open_payload.kind = hangdoctor::SpiPayload::Kind::kSessionOpen;
    open_payload.info = donor.info;
    open_payload.config = donor.config;
    stream.push_back({telemetry::SessionId{s}, std::move(open_payload)});
  }
  for (const hangdoctor::SpiPayload& payload : donor.records) {
    for (uint64_t s = 0; s < sessions; ++s) {
      stream.push_back({telemetry::SessionId{s}, payload});
    }
  }
  for (uint64_t s = 0; s < sessions; ++s) {
    hangdoctor::SpiPayload close_payload;
    close_payload.kind = hangdoctor::SpiPayload::Kind::kSessionClose;
    stream.push_back({telemetry::SessionId{s}, std::move(close_payload)});
  }
  return stream;
}

void ExpectSessionResultsEqual(const std::vector<hangdoctor::SessionResult>& a,
                               const std::vector<hangdoctor::SessionResult>& b,
                               const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string session_label = label + " session " + std::to_string(i);
    EXPECT_EQ(a[i].id.value, b[i].id.value) << session_label;
    EXPECT_EQ(a[i].app_package, b[i].app_package) << session_label;
    EXPECT_EQ(a[i].log.size(), b[i].log.size()) << session_label;
    EXPECT_EQ(a[i].report.Render(1), b[i].report.Render(1)) << session_label;
    EXPECT_EQ(a[i].stack_samples, b[i].stack_samples) << session_label;
    EXPECT_EQ(a[i].stream_ok, b[i].stream_ok) << session_label;
    EXPECT_EQ(a[i].discovered, b[i].discovered) << session_label;
    EXPECT_DOUBLE_EQ(a[i].overhead.OverheadPercent(1e9, 1e9),
                     b[i].overhead.OverheadPercent(1e9, 1e9))
        << session_label;
  }
}

// Applies `stream` from `producers` threads, each owning an Ingestor and pushing, in stream
// order, the records of the sessions whose id % producers is its index. Sessions of every
// producer share the service's shards. Returns the drained results; a refused record fails
// the test.
std::vector<hangdoctor::SessionResult> ApplyFromProducers(
    hangdoctor::DetectorService& service, const std::vector<hangdoctor::ServiceRecord>& stream,
    size_t producers) {
  std::vector<std::thread> threads;
  for (size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      hangdoctor::DetectorService::Ingestor ingestor(&service);
      for (const hangdoctor::ServiceRecord& record : stream) {
        if (record.session.value % producers == p) {
          ingestor.Push(record);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const hangdoctor::IngestError& error : service.TakeIngestErrors()) {
    ADD_FAILURE() << "session " << error.session.value << ": " << error.message;
  }
  return service.DrainClosed();
}

TEST(IngestPipelineTest, PipelinedConsumeMatchesSynchronousAtEveryTopology) {
  constexpr size_t kSessions = 12;
  std::vector<hangdoctor::ServiceRecord> stream = InterleavedStream(kSessions);

  hangdoctor::DetectorService reference(hangdoctor::ServiceOptions{3});
  std::vector<hangdoctor::SessionResult> expected = reference.Consume(stream);
  ASSERT_EQ(expected.size(), kSessions);

  for (int32_t threads : {1, 4, 8}) {
    for (int32_t shards : {1, 4, 7}) {
      hangdoctor::DetectorService service(hangdoctor::ServiceOptions{shards});
      std::vector<hangdoctor::SessionResult> got = ApplyFromProducers(service, stream, threads);
      ExpectSessionResultsEqual(
          expected, got,
          "threads=" + std::to_string(threads) + " shards=" + std::to_string(shards));
      hangdoctor::HangBugReport merged = hangdoctor::MergeSessionReports(got);
      EXPECT_EQ(merged.Render(1), hangdoctor::MergeSessionReports(expected).Render(1));
    }
  }
}

// Consume applies the whole stream, then throws the first record it could not apply — first
// in stream order, whichever shards the refused sessions hash to.
TEST(IngestPipelineTest, ConsumeThrowsTheFirstRefusedRecordInStreamOrder) {
  const telemetry::SessionId first{1};
  const telemetry::SessionId second{2};
  // Session 1 hashes to a higher shard than session 2, so a per-shard error list joined in
  // shard order would report session 2 first.
  ASSERT_GT(telemetry::ShardOf(first, 2), telemetry::ShardOf(second, 2));
  hangdoctor::SpiPayload close;
  close.kind = hangdoctor::SpiPayload::Kind::kSessionClose;
  const std::vector<hangdoctor::ServiceRecord> stream = {{first, close}, {second, close}};
  hangdoctor::DetectorService service(hangdoctor::ServiceOptions{2});
  try {
    service.Consume(stream);
    ADD_FAILURE() << "a close of an unopened session must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "DetectorService: session 1 is not open");
  }
  EXPECT_TRUE(service.TakeIngestErrors().empty()) << "Consume takes the errors it throws";
}

// The fleet-level contract: a fleet recorded on the per-job oracle and applied from `threads`
// producers is bit-identical to the oracle at every {threads, shards} pair
// (recorded_fleet.h).
std::vector<workload::FleetJob> SmallStudyFleet(
    const hangdoctor::BlockingApiDatabase* known_db, const faultsim::FaultProfile& faults) {
  const workload::Catalog& catalog = SharedCatalog();
  std::vector<workload::FleetJob> jobs;
  for (const droidsim::AppSpec* spec : catalog.study_apps()) {
    if (jobs.size() == 8) {
      break;
    }
    workload::FleetJob job;
    job.spec = spec;
    job.profile = droidsim::LgV10();
    job.seed = workload::FleetSeed(777, jobs.size());
    job.session = simkit::Seconds(20);
    job.device_id = static_cast<int32_t>(jobs.size() % 4);
    job.known_db = known_db;
    job.faults = faults;
    jobs.push_back(job);
  }
  return jobs;
}

std::string Topology(int32_t threads, int32_t shards) {
  return "threads=" + std::to_string(threads) + " shards=" + std::to_string(shards);
}

TEST(IngestPipelineTest, PipelinedFleetMatchesOracleAcrossTopologies) {
  hangdoctor::BlockingApiDatabase known_db = SharedCatalog().MakeKnownDatabase();
  recorded_fleet::Fleet fleet =
      recorded_fleet::RecordFleet(SmallStudyFleet(&known_db, {}), "topologies");

  for (int32_t threads : {1, 4, 8}) {
    for (int32_t shards : {1, 4, 7}) {
      hangdoctor::ServiceOptions options{.shards = shards, .seed_db = &known_db};
      std::vector<hangdoctor::SessionResult> results =
          recorded_fleet::IngestFleet(fleet, options, threads);
      recorded_fleet::ExpectMatchesOracle(fleet, results, Topology(threads, shards));
    }
  }
}

TEST(IngestPipelineTest, PipelinedFleetMatchesOracleUnderFaultInjection) {
  hangdoctor::BlockingApiDatabase known_db = SharedCatalog().MakeKnownDatabase();
  // The recorder sits downstream of the fault injector, so the service must reproduce the
  // *faulty* sessions bit-identically — degradation counters and all.
  recorded_fleet::Fleet fleet = recorded_fleet::RecordFleet(
      SmallStudyFleet(&known_db, faultsim::FaultProfile::Named("chaos")), "chaos");

  for (int32_t threads : {1, 4}) {
    hangdoctor::ServiceOptions options{.shards = 7, .seed_db = &known_db};
    std::vector<hangdoctor::SessionResult> results =
        recorded_fleet::IngestFleet(fleet, options, threads);
    recorded_fleet::ExpectMatchesOracle(fleet, results, "chaos " + Topology(threads, 7));
  }
}

// The waiting-chain diagnoses of the async study apps (DESIGN.md section 3.8) applied in
// place: one device per async app, recorded once, then applied at every {threads, shards}
// pair, and through the shared knowledge base at two epoch lengths.
TEST(IngestPipelineTest, RecordedAsyncFleetMatchesOracleAcrossThreadsShardsAndEpochs) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();
  std::vector<workload::FleetJob> jobs;
  for (const droidsim::AppSpec* spec : catalog.async_apps()) {
    workload::FleetJob job;
    job.spec = spec;
    job.profile = droidsim::LgV10();
    job.seed = 5000 + static_cast<uint64_t>(spec->downloads % 97);
    job.session = simkit::Seconds(60);
    job.known_db = &known_db;
    jobs.push_back(job);
  }
  recorded_fleet::Fleet fleet = recorded_fleet::RecordFleet(jobs, "async");

  for (int32_t threads : {1, 4}) {
    for (int32_t shards : {1, 4, 7}) {
      hangdoctor::ServiceOptions options{.shards = shards, .seed_db = &known_db};
      std::vector<hangdoctor::SessionResult> results =
          recorded_fleet::IngestFleet(fleet, options, threads);
      recorded_fleet::ExpectMatchesOracle(fleet, results, "async " + Topology(threads, shards));
    }
  }
  for (int64_t epoch : {int64_t{1}, int64_t{16}}) {
    hangdoctor::KnowledgeBase kb(known_db);
    hangdoctor::ServiceOptions options{
        .shards = 7, .knowledge_base = &kb, .kb_epoch_sessions = epoch};
    recorded_fleet::ExpectMatchesOracle(fleet, recorded_fleet::IngestFleet(fleet, options, 4),
                                        "async shared_kb epoch=" + std::to_string(epoch));
  }
}

// ---------------------------------------------------------------------------
// In-place apply from several threads: completions, control records and source ownership.

hangdoctor::SpiPayload ControlPayload(hangdoctor::SpiPayload::Kind kind) {
  hangdoctor::SpiPayload payload;
  payload.kind = kind;
  return payload;
}

hangdoctor::SpiPayload DonorOpen() {
  hangdoctor::SpiPayload open = ControlPayload(hangdoctor::SpiPayload::Kind::kSessionOpen);
  open.info = Donor().info;
  open.config = Donor().config;
  return open;
}

// The one closed session the donor stream yields, on one thread, as session `id`.
hangdoctor::SessionResult DonorReference(telemetry::SessionId id) {
  hangdoctor::DetectorService reference(hangdoctor::ServiceOptions{1});
  std::vector<hangdoctor::SessionResult> expected = reference.Consume(InterleavedStream(1));
  EXPECT_EQ(expected.size(), 1u);
  expected[0].id = id;
  return std::move(expected[0]);
}

// Sessions end three ways: id % 3 == 0 closes, 1 aborts, 2 is handed off. Two producer
// threads own alternate sessions and round-robin their records, so both threads end
// sessions of every kind on shards they share.
TEST(InPlaceApplyTest, CompletionRunsOncePerSessionOnItsProducerThread) {
  constexpr uint64_t kSessions = 18;
  constexpr uint64_t kProducers = 2;
  const DonorStream& donor = Donor();
  const hangdoctor::SpiPayload open = DonorOpen();
  const hangdoctor::SpiPayload ends[3] = {
      ControlPayload(hangdoctor::SpiPayload::Kind::kSessionClose),
      ControlPayload(hangdoctor::SpiPayload::Kind::kSessionAbort),
      ControlPayload(hangdoctor::SpiPayload::Kind::kSessionHandoff)};
  // Per session, written only by its producer thread: every completion Apply returned, and
  // the closed result.
  std::vector<std::vector<hangdoctor::IngestCompletion::Kind>> completions(kSessions);
  std::vector<std::thread::id> completed_on(kSessions);
  std::vector<hangdoctor::SessionResult> closed(kSessions);
  std::vector<std::thread::id> producer_ids(kProducers);
  hangdoctor::DetectorService service(hangdoctor::ServiceOptions{5});
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      producer_ids[p] = std::this_thread::get_id();
      auto apply = [&](uint64_t s, const hangdoctor::SpiPayload& payload) {
        std::optional<hangdoctor::IngestCompletion> done =
            service.Apply({telemetry::SessionId{s}, &payload});
        if (done) {
          completions[s].push_back(done->kind);
          completed_on[s] = std::this_thread::get_id();
          if (done->kind == hangdoctor::IngestCompletion::Kind::kClosed) {
            closed[s] = std::move(done->result);
          }
        }
      };
      for (uint64_t s = p; s < kSessions; s += kProducers) {
        apply(s, open);
      }
      for (const hangdoctor::SpiPayload& record : donor.records) {
        for (uint64_t s = p; s < kSessions; s += kProducers) {
          apply(s, record);
        }
      }
      for (uint64_t s = p; s < kSessions; s += kProducers) {
        apply(s, ends[s % 3]);
      }
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  EXPECT_EQ(service.live_sessions(), 0u);
  EXPECT_TRUE(service.DrainClosed().empty()) << "Apply hands every result back to its caller";

  hangdoctor::SessionResult expected = DonorReference({});
  const hangdoctor::IngestCompletion::Kind kinds[3] = {
      hangdoctor::IngestCompletion::Kind::kClosed, hangdoctor::IngestCompletion::Kind::kAborted,
      hangdoctor::IngestCompletion::Kind::kHandedOff};
  for (uint64_t s = 0; s < kSessions; ++s) {
    const std::string label = "session " + std::to_string(s);
    // Exactly one completion — no error, no second end — on the session's own producer.
    ASSERT_EQ(completions[s].size(), 1u) << label;
    EXPECT_EQ(completions[s][0], kinds[s % 3]) << label;
    EXPECT_EQ(completed_on[s], producer_ids[s % kProducers]) << label;
    if (s % 3 == 0) {
      expected.id = telemetry::SessionId{s};
      ExpectSessionResultsEqual({expected}, {closed[s]}, label);
    }
  }
}

// Two producers, each owning half of the sessions on shared shards; every session stops at a
// different point of the donor stream and its abort or handoff follows at once. Each earlier
// record finds the session live, the end record drops it, and a record after it is refused.
TEST(InPlaceApplyTest, AbortAndHandoffLandAfterEveryEarlierRecordOfTheirSession) {
  constexpr uint64_t kSessions = 8;
  const DonorStream& donor = Donor();
  const hangdoctor::SpiPayload open = DonorOpen();
  const hangdoctor::SpiPayload abort =
      ControlPayload(hangdoctor::SpiPayload::Kind::kSessionAbort);
  const hangdoctor::SpiPayload handoff =
      ControlPayload(hangdoctor::SpiPayload::Kind::kSessionHandoff);
  for (int32_t shards : {1, 3}) {
    // Per session, written only by its producer: what each Apply returned, in order.
    std::vector<std::vector<std::optional<hangdoctor::IngestCompletion::Kind>>> returned(kSessions);
    hangdoctor::DetectorService service(hangdoctor::ServiceOptions{shards});
    std::vector<std::thread> producers;
    for (uint64_t half = 0; half < 2; ++half) {
      producers.emplace_back([&, half] {
        auto apply = [&](uint64_t s, const hangdoctor::SpiPayload& payload) {
          std::optional<hangdoctor::IngestCompletion> done =
              service.Apply({telemetry::SessionId{s}, &payload});
          returned[s].push_back(done ? std::optional(done->kind) : std::nullopt);
        };
        for (uint64_t s = half; s < kSessions; s += 2) {
          apply(s, open);
        }
        for (size_t r = 0; r < donor.records.size(); ++r) {
          for (uint64_t s = half; s < kSessions; s += 2) {
            const size_t stop = donor.records.size() * (s + 1) / (kSessions + 1);
            if (r < stop) {
              apply(s, donor.records[r]);
            } else if (r == stop) {
              apply(s, s % 2 == 0 ? abort : handoff);
            } else if (r == stop + 1) {
              apply(s, donor.records[r]);
            }
          }
        }
      });
    }
    for (std::thread& producer : producers) {
      producer.join();
    }
    EXPECT_EQ(service.live_sessions(), 0u);
    for (uint64_t s = 0; s < kSessions; ++s) {
      const std::string label =
          "shards=" + std::to_string(shards) + " session " + std::to_string(s);
      const size_t stop = donor.records.size() * (s + 1) / (kSessions + 1);
      // The open and every earlier record applied silently; then the end; then a refusal.
      std::vector<std::optional<hangdoctor::IngestCompletion::Kind>> want(stop + 1);
      want.push_back(s % 2 == 0 ? hangdoctor::IngestCompletion::Kind::kAborted
                                : hangdoctor::IngestCompletion::Kind::kHandedOff);
      want.push_back(hangdoctor::IngestCompletion::Kind::kError);
      EXPECT_EQ(returned[s], want) << label;
    }
  }
}

// A second source opening a live id loses, and nothing it sends — records, close, abort,
// handoff — touches the winner's session, which still closes bit-identically. The loser's
// thread keeps sending while the winner's thread applies the rest of the session.
TEST(InPlaceApplyTest, CrossSourceDuplicateOpenNeverTouchesTheWinnersSession) {
  constexpr int kLoserRounds = 20;
  const DonorStream& donor = Donor();
  const hangdoctor::SpiPayload open = DonorOpen();
  const hangdoctor::SpiPayload close =
      ControlPayload(hangdoctor::SpiPayload::Kind::kSessionClose);
  const hangdoctor::SpiPayload abort =
      ControlPayload(hangdoctor::SpiPayload::Kind::kSessionAbort);
  const hangdoctor::SpiPayload handoff =
      ControlPayload(hangdoctor::SpiPayload::Kind::kSessionHandoff);
  const int winner = 1;
  const int loser = 2;
  const telemetry::SessionId id{42};
  hangdoctor::DetectorService service(hangdoctor::ServiceOptions{2});
  const size_t half = donor.records.size() / 2;
  ASSERT_FALSE(service.Apply({id, &open, &winner}));
  for (size_t r = 0; r < half; ++r) {
    ASSERT_FALSE(service.Apply({id, &donor.records[r], &winner}));
  }
  int refused = 0;
  std::thread loser_thread([&] {
    const hangdoctor::SpiPayload* sends[] = {&open, &donor.records[half], &abort, &handoff, &close};
    for (int round = 0; round < kLoserRounds; ++round) {
      for (const hangdoctor::SpiPayload* payload : sends) {
        std::optional<hangdoctor::IngestCompletion> done = service.Apply({id, payload, &loser});
        if (done && done->kind == hangdoctor::IngestCompletion::Kind::kError &&
            done->ref.source == &loser) {
          ++refused;
        }
      }
    }
  });
  for (size_t r = half; r < donor.records.size(); ++r) {
    EXPECT_FALSE(service.Apply({id, &donor.records[r], &winner}));
  }
  loser_thread.join();  // the winner closes only once the loser has stopped
  EXPECT_EQ(refused, 5 * kLoserRounds) << "every loser record is refused";
  std::optional<hangdoctor::IngestCompletion> closed = service.Apply({id, &close, &winner});
  ASSERT_TRUE(closed);
  ASSERT_EQ(closed->kind, hangdoctor::IngestCompletion::Kind::kClosed);
  EXPECT_EQ(service.live_sessions(), 0u);
  ExpectSessionResultsEqual({DonorReference(id)}, {closed->result}, "winner");
}

// DetectorService::Apply on the caller's thread: nothing comes back until a record ends its
// session, the close returns the same result the synchronous stream yields, and a record
// from a source that did not open the session is refused without touching it.
TEST(InPlaceApplyTest, ReturnsEachSessionsCompletion) {
  const DonorStream& donor = Donor();
  const hangdoctor::SpiPayload open = DonorOpen();
  const hangdoctor::SpiPayload close =
      ControlPayload(hangdoctor::SpiPayload::Kind::kSessionClose);
  const hangdoctor::SpiPayload abort =
      ControlPayload(hangdoctor::SpiPayload::Kind::kSessionAbort);
  const int owner = 1;
  const int stranger = 2;
  const telemetry::SessionId kept{7};
  const telemetry::SessionId dropped{8};
  hangdoctor::DetectorService service(hangdoctor::ServiceOptions{2});
  EXPECT_FALSE(service.Apply({kept, &open, &owner}));
  EXPECT_FALSE(service.Apply({dropped, &open, &owner}));
  for (const hangdoctor::SpiPayload& record : donor.records) {
    EXPECT_FALSE(service.Apply({kept, &record, &owner}));
  }
  std::optional<hangdoctor::IngestCompletion> refused = service.Apply({kept, &close, &stranger});
  ASSERT_TRUE(refused);
  EXPECT_EQ(refused->kind, hangdoctor::IngestCompletion::Kind::kError);
  EXPECT_EQ(refused->ref.source, &stranger);

  std::optional<hangdoctor::IngestCompletion> aborted = service.Apply({dropped, &abort, &owner});
  ASSERT_TRUE(aborted);
  EXPECT_EQ(aborted->kind, hangdoctor::IngestCompletion::Kind::kAborted);
  std::optional<hangdoctor::IngestCompletion> closed = service.Apply({kept, &close, &owner});
  ASSERT_TRUE(closed);
  EXPECT_EQ(closed->kind, hangdoctor::IngestCompletion::Kind::kClosed);
  EXPECT_EQ(service.live_sessions(), 0u);

  ExpectSessionResultsEqual({DonorReference(kept)}, {closed->result}, "in place");
}

// ---------------------------------------------------------------------------
// SymbolTableCache: byte-identical symbol-table sections share one immutable table; any
// other bytes get their own; tables live exactly as long as a SessionLog holds them.

// One frame of a synthetic table, with the two host classification bits.
struct TableFrame {
  telemetry::StackFrame frame;
  bool is_ui = false;
  bool is_self = false;
};

std::vector<TableFrame> SyntheticTable(size_t frames) {
  std::vector<TableFrame> table;
  for (size_t i = 0; i < frames; ++i) {
    TableFrame entry;
    entry.frame = {"method" + std::to_string(i), "com.example.Class" + std::to_string(i % 7),
                   "Class" + std::to_string(i % 7) + ".java", static_cast<int32_t>(10 + i),
                   i % 11 == 0};
    entry.is_ui = i % 5 == 0;
    entry.is_self = i % 3 == 0;
    table.push_back(entry);
  }
  return table;
}

// The open prefix (header + symbol table, no records) the writer emits for `table`.
std::string PrefixBytes(const std::vector<TableFrame>& table,
                        const std::string& app_package = "com.example.cache") {
  telemetry::SymbolTable symbols;
  for (const TableFrame& entry : table) {
    symbols.Intern(entry.frame, entry.is_ui, entry.is_self);
  }
  hangdoctor::SessionInfo info;
  info.app_package = app_package;
  info.num_actions = 3;
  info.symbols = &symbols;
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("hd_symbol_cache_" + std::to_string(getpid()) + ".hdsl");
  {
    hangdoctor::SessionLogWriter writer(path.string(), hangdoctor::HangDoctorConfig{});
    writer.OnSessionStart(info);
    writer.Finish();
    EXPECT_TRUE(writer.ok());
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  EXPECT_FALSE(bytes.empty());
  bytes.pop_back();  // the end marker: what remains is exactly the open prefix
  return bytes;
}

// [symtab_begin, end) of an open prefix.
std::string_view SectionOf(const std::string& prefix) {
  hangdoctor::SessionLogLayout layout;
  std::string error;
  EXPECT_TRUE(hangdoctor::ScanSessionLog(
      prefix + static_cast<char>(hangdoctor::SessionRecordTag::kEnd), &layout, &error))
      << error;
  return std::string_view(prefix).substr(layout.symtab_begin);
}

void ExpectSameTableContent(const telemetry::SymbolTable& got,
                            const telemetry::SymbolTable& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  EXPECT_EQ(got.content_hash(), want.content_hash()) << label;
  for (telemetry::FrameId id = 0; id < want.size(); ++id) {
    EXPECT_EQ(got.Frame(id), want.Frame(id)) << label << " frame " << id;
    EXPECT_EQ(got.Frame(id).in_closed_library, want.Frame(id).in_closed_library) << label;
    EXPECT_EQ(got.IsUi(id), want.IsUi(id)) << label << " frame " << id;
    EXPECT_EQ(got.IsSelfDeveloped(id), want.IsSelfDeveloped(id)) << label << " frame " << id;
  }
}

// Parses through `cache`, asserting success; reports whether the table was shared.
std::shared_ptr<hangdoctor::SessionLog> CachedParse(hangdoctor::SymbolTableCache& cache,
                                                    const std::string& prefix,
                                                    bool* shared = nullptr) {
  auto log = std::make_shared<hangdoctor::SessionLog>();
  std::string error;
  EXPECT_TRUE(hangdoctor::ParseSessionLogPrefix(prefix, cache, log.get(), &error, shared))
      << error;
  EXPECT_EQ(log->info.symbols, log->symbols.get());
  return log;
}

hangdoctor::SessionLog UncachedParse(const std::string& prefix) {
  hangdoctor::SessionLog log;
  std::string error;
  EXPECT_TRUE(hangdoctor::ParseSessionLogPrefix(prefix, &log, &error)) << error;
  return log;
}

TEST(SymbolTableCacheTest, EqualSectionsShareOneTable) {
  const std::vector<TableFrame> table = SyntheticTable(200);
  const std::string prefix = PrefixBytes(table);
  hangdoctor::SymbolTableCache cache;
  bool shared = true;
  auto first = CachedParse(cache, prefix, &shared);
  EXPECT_FALSE(shared) << "an empty cache must parse";
  auto second = CachedParse(cache, prefix, &shared);
  EXPECT_TRUE(shared);
  EXPECT_EQ(first->symbols.get(), second->symbols.get());
  // The key is the symbol-table section, not the whole prefix: another device of the same
  // app build (different header bytes, same table bytes) shares it too.
  auto other_header = CachedParse(cache, PrefixBytes(table, "com.example.other"), &shared);
  EXPECT_TRUE(shared);
  EXPECT_EQ(other_header->symbols.get(), first->symbols.get());
  EXPECT_EQ(other_header->info.app_package, "com.example.other");
  EXPECT_EQ(cache.size(), 1u);
  ExpectSameTableContent(*first->symbols, *UncachedParse(prefix).symbols, "shared");
}

TEST(SymbolTableCacheTest, OneByteDifferenceGetsItsOwnTable) {
  const std::vector<TableFrame> table = SyntheticTable(200);
  const std::string prefix = PrefixBytes(table);
  hangdoctor::SymbolTableCache cache;
  auto warm = CachedParse(cache, prefix);

  struct Variant {
    const char* name;
    std::vector<TableFrame> table;
  };
  std::vector<Variant> variants;
  variants.push_back({"line", table});
  variants.back().table[42].frame.line += 1;
  variants.push_back({"ui bit", table});
  variants.back().table[42].is_ui = !variants.back().table[42].is_ui;
  variants.push_back({"self-developed bit", table});
  variants.back().table[42].is_self = !variants.back().table[42].is_self;

  std::set<uint64_t> hashes{warm->symbols->content_hash()};
  for (const Variant& variant : variants) {
    const std::string bytes = PrefixBytes(variant.table);
    ASSERT_EQ(bytes.size(), prefix.size()) << variant.name;
    size_t differing = 0;
    for (size_t i = 0; i < bytes.size(); ++i) {
      differing += bytes[i] != prefix[i] ? 1 : 0;
    }
    EXPECT_EQ(differing, 1u) << variant.name;
    bool shared = true;
    auto log = CachedParse(cache, bytes, &shared);
    EXPECT_FALSE(shared) << variant.name;
    EXPECT_NE(log->symbols.get(), warm->symbols.get()) << variant.name;
    EXPECT_TRUE(hashes.insert(log->symbols->content_hash()).second)
        << variant.name << ": content_hash must tell the tables apart";
    ExpectSameTableContent(*log->symbols, *UncachedParse(bytes).symbols, variant.name);
    EXPECT_EQ(CachedParse(cache, bytes, &shared)->symbols.get(), log->symbols.get());
    EXPECT_TRUE(shared) << variant.name;
  }
  // The clean table is untouched by its neighbours.
  ExpectSameTableContent(*warm->symbols, *UncachedParse(prefix).symbols, "clean");
}

// The bucket hash samples a few words of the section, so a 6,000-frame table and its
// one-field neighbours nearly all land in one bucket: only the byte compare tells them
// apart. The last few neighbours stay alive, so each lookup probes a crowded bucket.
TEST(SymbolTableCacheTest, ByteCompareSeparatesSectionsTheHashCannot) {
  std::vector<TableFrame> table = SyntheticTable(6000);
  const std::string prefix = PrefixBytes(table);
  const size_t symtab_begin = prefix.size() - SectionOf(prefix).size();
  auto bucket_hash = [symtab_begin](const std::string& bytes) {
    return hangdoctor::SymbolTableCache::Hash(std::string_view(bytes).substr(symtab_begin));
  };
  hangdoctor::SymbolTableCache cache;
  auto original = CachedParse(cache, prefix);

  // 200 distinct seeded frame positions, so every variant is a distinct table.
  simkit::Rng rng(0x5EC7);
  std::set<size_t> positions;
  while (positions.size() < 200) {
    positions.insert(static_cast<size_t>(rng.UniformInt(0, table.size() - 1)));
  }
  constexpr size_t kHeld = 8;  // older variants expire and are pruned as the test goes
  std::deque<std::pair<std::string, std::shared_ptr<hangdoctor::SessionLog>>> held;
  std::set<uint64_t> hashes{original->symbols->content_hash()};
  int same_bucket = 0;
  int v = 0;
  for (const size_t k : positions) {
    // One field per variant; each keeps the section's length, so only bytes differ.
    const TableFrame saved = table[k];
    std::string name;
    switch (v++ % 4) {
      case 0:
        table[k].is_ui = !table[k].is_ui;
        name = "ui bit";
        break;
      case 1:
        table[k].is_self = !table[k].is_self;
        name = "self-developed bit";
        break;
      case 2:
        table[k].frame.function.back() = 'x';
        name = "function name";
        break;
      default:
        table[k].frame.line ^= 1;
        name = "line";
        break;
    }
    const std::string bytes = PrefixBytes(table);
    table[k] = saved;
    const std::string label = name + " of frame " + std::to_string(k);
    ASSERT_EQ(bytes.size(), prefix.size()) << label;
    same_bucket += bucket_hash(bytes) == bucket_hash(prefix);
    bool shared = true;
    auto log = CachedParse(cache, bytes, &shared);
    EXPECT_FALSE(shared) << label;
    EXPECT_NE(log->symbols.get(), original->symbols.get()) << label;
    EXPECT_TRUE(hashes.insert(log->symbols->content_hash()).second) << label;
    // Content equal to the uncached parse: by (size, content_hash) for every variant, and
    // frame by frame for every 25th (the full walk is slow under the sanitizers).
    const hangdoctor::SessionLog reference = UncachedParse(bytes);
    EXPECT_EQ(log->symbols->size(), reference.symbols->size()) << label;
    EXPECT_EQ(log->symbols->content_hash(), reference.symbols->content_hash()) << label;
    if (v % 25 == 0) {
      ExpectSameTableContent(*log->symbols, *reference.symbols, label);
    }
    held.emplace_back(bytes, std::move(log));
    if (held.size() > kHeld) {
      held.pop_front();
    }
  }
  EXPECT_GE(same_bucket, 150) << "most variants must differ only in unsampled bytes";
  for (const auto& [bytes, log] : held) {
    bool shared = false;
    EXPECT_EQ(CachedParse(cache, bytes, &shared)->symbols.get(), log->symbols.get());
    EXPECT_TRUE(shared) << "a held variant shares its own table";
  }
  bool shared = false;
  EXPECT_EQ(CachedParse(cache, prefix, &shared)->symbols.get(), original->symbols.get());
  EXPECT_TRUE(shared) << "the original still shares among its neighbours";
  ExpectSameTableContent(*original->symbols, *UncachedParse(prefix).symbols, "original");
}

// Sections shorter than the words the hash samples: an empty table (one count byte, less
// than a word) and a one-frame table (its sampled words overlap) share and separate exactly
// like long ones.
TEST(SymbolTableCacheTest, SectionsShorterThanTheSampleStride) {
  hangdoctor::SymbolTableCache cache;
  std::vector<std::shared_ptr<hangdoctor::SessionLog>> held;
  const std::vector<TableFrame> one = SyntheticTable(1);
  std::vector<TableFrame> one_flipped = one;
  one_flipped[0].is_ui = !one_flipped[0].is_ui;
  const std::vector<std::string> prefixes = {PrefixBytes(SyntheticTable(0)), PrefixBytes(one),
                                             PrefixBytes(one_flipped)};
  EXPECT_EQ(SectionOf(prefixes[0]).size(), 1u);
  EXPECT_LT(SectionOf(prefixes[1]).size(),
            sizeof(uint64_t) * hangdoctor::SymbolTableCache::kHashWords);
  for (const std::string& prefix : prefixes) {
    bool shared = true;
    held.push_back(CachedParse(cache, prefix, &shared));
    EXPECT_FALSE(shared);
    ExpectSameTableContent(*held.back()->symbols, *UncachedParse(prefix).symbols, "short");
  }
  EXPECT_EQ(held[0]->symbols->size(), 0u);
  EXPECT_EQ(held[1]->symbols->size(), 1u);
  EXPECT_NE(held[1]->symbols.get(), held[2]->symbols.get());
  for (size_t i = 0; i < prefixes.size(); ++i) {
    bool shared = false;
    EXPECT_EQ(CachedParse(cache, prefixes[i], &shared)->symbols.get(), held[i]->symbols.get());
    EXPECT_TRUE(shared) << i;
  }
  EXPECT_EQ(cache.size(), 3u);
}

TEST(SymbolTableCacheTest, EntryExpiresWithItsLastSessionLog) {
  const std::string prefix = PrefixBytes(SyntheticTable(64));
  const std::string_view section = SectionOf(prefix);
  hangdoctor::SymbolTableCache cache;
  auto first = CachedParse(cache, prefix);
  auto second = CachedParse(cache, prefix);
  std::weak_ptr<const telemetry::SymbolTable> table = first->symbols;
  first.reset();
  EXPECT_EQ(cache.Find(section).get(), second->symbols.get()) << "one holder keeps it";
  second.reset();
  EXPECT_TRUE(table.expired()) << "the cache must not keep a table alive";
  EXPECT_EQ(cache.Find(section), nullptr);
  EXPECT_EQ(cache.size(), 1u) << "expired entries wait for the next insert";

  // A fresh parse of the same bytes parses again, and the insert prunes the dead entry.
  bool shared = true;
  auto again = CachedParse(cache, prefix, &shared);
  EXPECT_FALSE(shared);
  EXPECT_EQ(cache.size(), 1u);
  again.reset();
  auto other = CachedParse(cache, PrefixBytes(SyntheticTable(65)), &shared);
  EXPECT_FALSE(shared);
  EXPECT_EQ(cache.size(), 1u) << "inserting another table prunes the expired one";
  EXPECT_EQ(cache.Find(section), nullptr);
}

TEST(SymbolTableCacheTest, FailedOrTrailingBytePrefixIsNeverInserted) {
  const std::string prefix = PrefixBytes(SyntheticTable(64));
  const size_t symtab_begin = prefix.size() - SectionOf(prefix).size();
  std::vector<std::pair<std::string, std::string>> bad = {
      {"trailing byte", prefix + "x"},
      {"truncated table", prefix.substr(0, prefix.size() - 3)},
      {"truncated header", prefix.substr(0, symtab_begin - 1)},
      {"frame count one high", prefix},
      {"frame count one low", prefix},
  };
  // The 64-frame count is the section's first byte, a one-byte varint.
  ASSERT_EQ(static_cast<uint8_t>(prefix[symtab_begin]), 64u);
  bad[3].second[symtab_begin] = 65;
  bad[4].second[symtab_begin] = 63;
  for (const bool warmed : {false, true}) {
    hangdoctor::SymbolTableCache cache;
    std::shared_ptr<hangdoctor::SessionLog> holder;
    if (warmed) {
      holder = CachedParse(cache, prefix);
    }
    for (const auto& [name, bytes] : bad) {
      std::string label = std::string(name) + (warmed ? " (warm cache)" : " (cold cache)");
      hangdoctor::SessionLog cached;
      hangdoctor::SessionLog reference;
      std::string cached_error;
      std::string reference_error;
      bool shared = true;
      EXPECT_FALSE(
          hangdoctor::ParseSessionLogPrefix(bytes, cache, &cached, &cached_error, &shared))
          << label;
      EXPECT_FALSE(shared) << label;
      EXPECT_FALSE(hangdoctor::ParseSessionLogPrefix(bytes, &reference, &reference_error))
          << label;
      EXPECT_EQ(cached_error, reference_error) << label;
      EXPECT_FALSE(cached_error.empty()) << label;
    }
    EXPECT_EQ(cache.size(), warmed ? 1u : 0u);
  }
}

// Four threads parse a clean prefix and its one-byte neighbours through one cache. Phase
// one holds a table per prefix, so every parse must share it; phase two holds nothing, so
// tables expire and are re-published concurrently. Every table must match the uncached
// reference either way (and the TSan leg checks the pool's locking).
TEST(SymbolTableCacheTest, ConcurrentParsesStayRaceFree) {
  const std::vector<TableFrame> table = SyntheticTable(300);
  std::vector<std::string> prefixes{PrefixBytes(table)};
  for (size_t k : {7u, 123u, 299u}) {
    std::vector<TableFrame> variant = table;
    variant[k].is_ui = !variant[k].is_ui;
    prefixes.push_back(PrefixBytes(variant));
  }
  std::vector<uint64_t> want_hash;
  for (const std::string& prefix : prefixes) {
    want_hash.push_back(UncachedParse(prefix).symbols->content_hash());
  }
  std::set<uint64_t> distinct(want_hash.begin(), want_hash.end());
  ASSERT_EQ(distinct.size(), prefixes.size());

  hangdoctor::SymbolTableCache cache;
  std::vector<std::shared_ptr<hangdoctor::SessionLog>> held;
  for (const std::string& prefix : prefixes) {
    held.push_back(CachedParse(cache, prefix));
  }
  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> unshared_while_held{0};
  auto run = [&](bool holding) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<std::shared_ptr<hangdoctor::SessionLog>> mine;
        for (int i = 0; i < kIters; ++i) {
          const size_t which = static_cast<size_t>(t + i * 3) % prefixes.size();
          auto log = std::make_shared<hangdoctor::SessionLog>();
          std::string error;
          bool shared = false;
          if (!hangdoctor::ParseSessionLogPrefix(prefixes[which], cache, log.get(), &error,
                                                 &shared) ||
              log->symbols->content_hash() != want_hash[which] ||
              log->symbols->size() != table.size()) {
            mismatches.fetch_add(1);
          }
          if (holding && (!shared || log->symbols != held[which]->symbols)) {
            unshared_while_held.fetch_add(1);
          }
          if (i % 4 == 0) {
            mine.push_back(std::move(log));  // keep some alive, drop the rest at once
          }
          if (mine.size() > 8) {
            mine.erase(mine.begin());
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  };
  run(true);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(unshared_while_held.load(), 0);
  held.clear();
  run(false);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(cache.size(), prefixes.size());
}

}  // namespace
