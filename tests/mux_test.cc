// HDSL v3 multiplexed-log tests (src/hosts/mux_log.h). The load-bearing property: ANY
// interleaving of N recorded v2 session logs muxes into one v3 stream and demuxes back to
// the original logs byte-identically — the container adds framing, never touches payload
// bytes. On top of that: replaying a v3 stream through a DetectorService reproduces the
// per-log ReplaySession results bit-for-bit at any shard count, and malformed containers are
// rejected with an error instead of feeding garbage downstream.
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/hangdoctor/detector_service.h"
#include "src/hosts/hang_doctor.h"
#include "src/hosts/mux_log.h"
#include "src/hosts/replay_host.h"
#include "src/hosts/session_log.h"
#include "src/workload/catalog.h"
#include "src/workload/experiment.h"

namespace {

const workload::Catalog& SharedCatalog() {
  static const workload::Catalog* catalog = new workload::Catalog();
  return *catalog;
}

// A scratch directory private to this process and removed at exit: ctest runs every TEST as
// its own process, in parallel, so a shared directory would let one case overwrite the
// donor log another is reading.
std::string TempPath(const std::string& leaf) {
  struct ScratchDir {
    std::filesystem::path path = std::filesystem::temp_directory_path() /
                                 ("hd_mux_" + std::to_string(getpid()));
    ScratchDir() { std::filesystem::create_directories(path); }
    ~ScratchDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const ScratchDir dir;
  return (dir.path / leaf).string();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Records one short live session for study app `app_index` and returns its v2 log bytes.
std::string RecordSessionLog(size_t app_index, uint64_t seed) {
  const workload::Catalog& catalog = SharedCatalog();
  const droidsim::AppSpec* spec =
      catalog.study_apps()[app_index % catalog.study_apps().size()];
  const std::string path =
      TempPath("donor_" + std::to_string(app_index) + "_" + std::to_string(seed) + ".hdsl");
  workload::SingleAppHarness harness(droidsim::LgV10(), spec, seed);
  hangdoctor::SessionLogWriter writer(path, hangdoctor::HangDoctorConfig{});
  EXPECT_TRUE(writer.ok()) << path;
  {
    hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(),
                                  hangdoctor::HangDoctorConfig{}, /*database=*/nullptr,
                                  /*device_id=*/static_cast<int32_t>(app_index), &writer);
    (void)doctor;
    harness.RunUserSession(simkit::Seconds(15));
  }
  workload::TraceUsage usage = harness.Usage();
  writer.WriteTraceUsage(usage.cpu, usage.bytes);
  writer.Finish();
  return FileBytes(path);
}

// The shared test corpus: three recorded sessions under non-contiguous ids (ids and
// hash-order deliberately unrelated, so shard routing is exercised).
std::vector<hangdoctor::SessionLogSlice> Corpus() {
  static const std::vector<hangdoctor::SessionLogSlice>* corpus = [] {
    auto* slices = new std::vector<hangdoctor::SessionLogSlice>;
    const uint64_t ids[] = {7, 3, 40};
    for (size_t i = 0; i < 3; ++i) {
      slices->push_back({telemetry::SessionId{ids[i]}, RecordSessionLog(i, 9100 + i)});
    }
    return slices;
  }();
  return *corpus;
}

// Builds a schedule where session `pick(pending_sessions)` emits its next frame each step.
template <typename Picker>
std::vector<size_t> BuildSchedule(const std::vector<size_t>& frame_counts, Picker pick) {
  std::vector<size_t> remaining = frame_counts;
  std::vector<size_t> schedule;
  for (bool any = true; any;) {
    std::vector<size_t> pending;
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (remaining[i] > 0) {
        pending.push_back(i);
      }
    }
    any = !pending.empty();
    if (any) {
      size_t chosen = pick(pending);
      --remaining[chosen];
      schedule.push_back(chosen);
    }
  }
  return schedule;
}

std::vector<size_t> FrameCounts(const std::vector<hangdoctor::SessionLogSlice>& sessions) {
  std::vector<size_t> counts;
  for (const hangdoctor::SessionLogSlice& slice : sessions) {
    size_t count = 0;
    std::string error;
    EXPECT_TRUE(hangdoctor::MuxFrameCount(slice.bytes, &count, &error)) << error;
    counts.push_back(count);
  }
  return counts;
}

// Muxes under `schedule`, demuxes, and checks every reconstructed log is byte-identical.
void RoundTrip(const std::vector<hangdoctor::SessionLogSlice>& sessions,
               const std::vector<size_t>& schedule, const std::string& label) {
  std::string stream;
  std::string error;
  ASSERT_TRUE(hangdoctor::MuxSessionLogs(sessions, schedule, &stream, &error))
      << label << ": " << error;
  std::vector<hangdoctor::SessionLogSlice> back;
  ASSERT_TRUE(hangdoctor::DemuxSessionLog(stream, &back, &error)) << label << ": " << error;
  ASSERT_EQ(back.size(), sessions.size()) << label;
  // Demux returns sessions in open-frame order; match by id.
  for (const hangdoctor::SessionLogSlice& original : sessions) {
    bool found = false;
    for (const hangdoctor::SessionLogSlice& rebuilt : back) {
      if (rebuilt.id == original.id) {
        EXPECT_EQ(rebuilt.bytes, original.bytes)
            << label << ": session " << original.id.value << " not byte-identical";
        found = true;
      }
    }
    EXPECT_TRUE(found) << label << ": session " << original.id.value << " lost";
  }
}

TEST(MuxLogTest, AnyInterleavingRoundTripsByteIdentically) {
  std::vector<hangdoctor::SessionLogSlice> sessions = Corpus();
  std::vector<size_t> counts = FrameCounts(sessions);

  // Round-robin (the empty-schedule default).
  RoundTrip(sessions, {}, "round_robin");
  // Fully sequential: all of session 0, then 1, then 2 — degenerate but legal interleaving.
  RoundTrip(sessions, BuildSchedule(counts, [](const std::vector<size_t>& p) { return p[0]; }),
            "sequential");
  // Reverse sequential.
  RoundTrip(sessions,
            BuildSchedule(counts, [](const std::vector<size_t>& p) { return p.back(); }),
            "reverse_sequential");
  // Seeded random interleavings (mt19937 output is specified, so these are reproducible).
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(seed);
    RoundTrip(sessions,
              BuildSchedule(counts,
                            [&rng](const std::vector<size_t>& p) { return p[rng() % p.size()]; }),
              "random_seed_" + std::to_string(seed));
  }
}

TEST(MuxLogTest, SingleSessionAndEmptyStreamRoundTrip) {
  std::vector<hangdoctor::SessionLogSlice> one = {Corpus()[0]};
  RoundTrip(one, {}, "single");

  std::string stream;
  std::string error;
  ASSERT_TRUE(hangdoctor::MuxSessionLogs({}, {}, &stream, &error)) << error;
  std::vector<hangdoctor::SessionLogSlice> back;
  ASSERT_TRUE(hangdoctor::DemuxSessionLog(stream, &back, &error)) << error;
  EXPECT_TRUE(back.empty());
}

TEST(MuxLogTest, MuxRejectsBadInputs) {
  std::vector<hangdoctor::SessionLogSlice> sessions = Corpus();
  std::string stream;
  std::string error;

  // Duplicate session id.
  std::vector<hangdoctor::SessionLogSlice> dup = {sessions[0], sessions[1]};
  dup[1].id = dup[0].id;
  EXPECT_FALSE(hangdoctor::MuxSessionLogs(dup, {}, &stream, &error));
  EXPECT_FALSE(error.empty());

  // Malformed member log.
  std::vector<hangdoctor::SessionLogSlice> bad = {sessions[0]};
  bad[0].bytes = "not a session log";
  error.clear();
  EXPECT_FALSE(hangdoctor::MuxSessionLogs(bad, {}, &stream, &error));
  EXPECT_FALSE(error.empty());

  // Trailing bytes after the v2 end marker: reconstruction could not be byte-identical.
  std::vector<hangdoctor::SessionLogSlice> trailing = {sessions[0]};
  trailing[0].bytes += '\0';
  error.clear();
  EXPECT_FALSE(hangdoctor::MuxSessionLogs(trailing, {}, &stream, &error));
  EXPECT_FALSE(error.empty());

  // Schedules that do not exhaust every session exactly.
  std::vector<size_t> counts = FrameCounts(sessions);
  std::vector<size_t> short_schedule(counts[0], 0);  // only session 0's frames
  error.clear();
  EXPECT_FALSE(hangdoctor::MuxSessionLogs(sessions, short_schedule, &stream, &error));
  EXPECT_FALSE(error.empty());
  std::vector<size_t> overdrawn =
      BuildSchedule(counts, [](const std::vector<size_t>& p) { return p[0]; });
  overdrawn.push_back(0);  // session 0 has no pending frame left
  error.clear();
  EXPECT_FALSE(hangdoctor::MuxSessionLogs(sessions, overdrawn, &stream, &error));
  EXPECT_FALSE(error.empty());
}

TEST(MuxLogTest, DemuxRejectsMalformedContainers) {
  std::vector<hangdoctor::SessionLogSlice> sessions = Corpus();
  std::string stream;
  std::string error;
  ASSERT_TRUE(hangdoctor::MuxSessionLogs(sessions, {}, &stream, &error)) << error;

  std::vector<hangdoctor::SessionLogSlice> back;
  EXPECT_FALSE(hangdoctor::DemuxSessionLog("", &back, &error));
  EXPECT_FALSE(hangdoctor::DemuxSessionLog("garbage", &back, &error));
  // A v2 log is not a v3 container.
  EXPECT_FALSE(hangdoctor::DemuxSessionLog(sessions[0].bytes, &back, &error));
  // Truncation: drop the final kEnd byte, and cut mid-frame.
  EXPECT_FALSE(
      hangdoctor::DemuxSessionLog(stream.substr(0, stream.size() - 1), &back, &error));
  EXPECT_FALSE(hangdoctor::DemuxSessionLog(stream.substr(0, stream.size() / 2), &back, &error));
  // Bytes after kEnd.
  EXPECT_FALSE(hangdoctor::DemuxSessionLog(stream + "x", &back, &error));
}

// `symbols` is the table the record's frame ids index.
std::string FormatRecord(const hangdoctor::ExecutionRecord& record,
                         const telemetry::SymbolTable& symbols) {
  std::ostringstream out;
  out << record.execution_id << " uid=" << record.action_uid << " resp=" << record.response
      << " hang=" << record.hang << " s1=" << record.schecker_ran
      << " s2=" << record.diagnoser_ran << " traced=" << record.traced
      << " verdict=" << hangdoctor::VerdictName(record.verdict);
  if (record.diagnosis.valid) {
    const telemetry::StackFrame& culprit = symbols.Frame(record.diagnosis.culprit);
    out << " culprit=" << culprit.clazz << "." << culprit.function << ":" << culprit.line;
  }
  for (telemetry::PerfEventType event : telemetry::AllPerfEvents()) {
    out << " " << static_cast<int64_t>(record.SCheckerDiff(event));
  }
  return out.str();
}

// Replaying the multiplexed stream must equal replaying each member log alone — and the
// service results must be identical at every shard count.
TEST(MuxLogTest, MultiplexedReplayMatchesPerSessionReplayAtAnyShardCount) {
  std::vector<hangdoctor::SessionLogSlice> sessions = Corpus();
  std::string stream;
  std::string error;
  ASSERT_TRUE(hangdoctor::MuxSessionLogs(sessions, {}, &stream, &error)) << error;

  // Per-session oracle: ReplaySession over each demuxed log (written back to disk, since the
  // replay host reads files).
  std::vector<std::unique_ptr<hangdoctor::ReplaySession>> oracle(sessions.size());
  for (size_t i = 0; i < sessions.size(); ++i) {
    const std::string path = TempPath("oracle_" + std::to_string(i) + ".hdsl");
    std::ofstream out(path, std::ios::binary);
    out.write(sessions[i].bytes.data(),
              static_cast<std::streamsize>(sessions[i].bytes.size()));
    out.close();
    oracle[i] = hangdoctor::ReplaySessionLog(path, &error);
    ASSERT_NE(oracle[i], nullptr) << error;
  }

  for (int32_t shards : {1, 4, 7}) {
    std::vector<hangdoctor::SessionResult> results;
    ASSERT_TRUE(hangdoctor::ReplayMultiplexedLog(stream, {.shards = shards}, &results, &error))
        << "shards=" << shards << ": " << error;
    ASSERT_EQ(results.size(), sessions.size()) << "shards=" << shards;
    // Results come back in ascending-SessionId order.
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_LT(results[i - 1].id.value, results[i].id.value) << "shards=" << shards;
    }
    for (const hangdoctor::SessionResult& result : results) {
      // Find the matching input/oracle by id.
      size_t index = sessions.size();
      for (size_t i = 0; i < sessions.size(); ++i) {
        if (sessions[i].id == result.id) {
          index = i;
        }
      }
      ASSERT_LT(index, sessions.size()) << "unknown session id " << result.id.value;
      const hangdoctor::DetectorCore& core = oracle[index]->core();
      const std::string label =
          "shards=" + std::to_string(shards) + " id=" + std::to_string(result.id.value);
      EXPECT_EQ(result.app_package, oracle[index]->log().info.app_package) << label;
      EXPECT_EQ(result.report.Render(1), core.local_report().Render(1)) << label;
      EXPECT_EQ(result.overhead.cpu(), core.overhead().cpu()) << label;
      EXPECT_EQ(result.overhead.memory_bytes(), core.overhead().memory_bytes()) << label;
      EXPECT_EQ(result.stack_samples, core.stack_samples_taken()) << label;
      EXPECT_EQ(result.discovered, core.database().discovered()) << label;
      EXPECT_EQ(result.stream_ok, true) << label;
      ASSERT_EQ(result.log.size(), core.log().size()) << label;
      for (size_t i = 0; i < result.log.size(); ++i) {
        EXPECT_EQ(FormatRecord(result.log[i], *result.symbols),
                  FormatRecord(core.log()[i], *core.session().symbols))
            << label << " record " << i;
      }
    }
  }
}

// Records one short live session for async study app `app_index`; the log carries HDSL v4
// AsyncPost/AsyncRun/AsyncWaitStart/AsyncWaitEnd records and thread-tagged samples.
std::string RecordAsyncSessionLog(size_t app_index, uint64_t seed) {
  const workload::Catalog& catalog = SharedCatalog();
  const droidsim::AppSpec* spec =
      catalog.async_apps()[app_index % catalog.async_apps().size()];
  const std::string path =
      TempPath("async_donor_" + std::to_string(app_index) + "_" + std::to_string(seed) +
               ".hdsl");
  workload::SingleAppHarness harness(droidsim::LgV10(), spec, seed);
  hangdoctor::SessionLogWriter writer(path, hangdoctor::HangDoctorConfig{});
  EXPECT_TRUE(writer.ok()) << path;
  {
    hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(),
                                  hangdoctor::HangDoctorConfig{}, /*database=*/nullptr,
                                  /*device_id=*/static_cast<int32_t>(app_index), &writer);
    (void)doctor;
    harness.RunUserSession(simkit::Seconds(30));
  }
  workload::TraceUsage usage = harness.Usage();
  writer.WriteTraceUsage(usage.cpu, usage.bytes);
  writer.Finish();
  return FileBytes(path);
}

// HDSL v4 records are opaque payload to the v3 container: async sessions must mux/demux
// byte-identically under any interleaving, and the multiplexed replay must reproduce the
// per-session causal diagnoses at shard counts {1, 4, 7}.
TEST(MuxLogTest, AsyncSessionsMuxAndReplayAtAnyShardCount) {
  const workload::Catalog& catalog = SharedCatalog();
  std::vector<hangdoctor::SessionLogSlice> sessions;
  const uint64_t ids[] = {11, 2, 35};
  for (size_t i = 0; i < catalog.async_apps().size(); ++i) {
    sessions.push_back({telemetry::SessionId{ids[i % 3]}, RecordAsyncSessionLog(i, 9400 + i)});
  }

  // Byte-identical container round trips, round-robin and a seeded random interleaving.
  std::vector<size_t> counts = FrameCounts(sessions);
  RoundTrip(sessions, {}, "async_round_robin");
  std::mt19937 rng(17);
  RoundTrip(sessions,
            BuildSchedule(counts,
                          [&rng](const std::vector<size_t>& p) { return p[rng() % p.size()]; }),
            "async_random");

  // Per-session oracle replays; each must contain async records and a causal diagnosis.
  std::vector<std::unique_ptr<hangdoctor::ReplaySession>> oracle(sessions.size());
  std::string error;
  for (size_t i = 0; i < sessions.size(); ++i) {
    const std::string path = TempPath("async_oracle_" + std::to_string(i) + ".hdsl");
    std::ofstream out(path, std::ios::binary);
    out.write(sessions[i].bytes.data(),
              static_cast<std::streamsize>(sessions[i].bytes.size()));
    out.close();
    oracle[i] = hangdoctor::ReplaySessionLog(path, &error);
    ASSERT_NE(oracle[i], nullptr) << error;
    bool has_async = false;
    for (const hangdoctor::SessionRecord& record : oracle[i]->log().records) {
      if (record.tag == hangdoctor::SessionRecordTag::kAsyncPost) {
        has_async = true;
        break;
      }
    }
    EXPECT_TRUE(has_async) << "async session " << i << " recorded no AsyncPost";
  }

  std::string stream;
  ASSERT_TRUE(hangdoctor::MuxSessionLogs(sessions, {}, &stream, &error)) << error;
  for (int32_t shards : {1, 4, 7}) {
    std::vector<hangdoctor::SessionResult> results;
    ASSERT_TRUE(hangdoctor::ReplayMultiplexedLog(stream, {.shards = shards}, &results, &error))
        << "shards=" << shards << ": " << error;
    ASSERT_EQ(results.size(), sessions.size()) << "shards=" << shards;
    for (const hangdoctor::SessionResult& result : results) {
      size_t index = sessions.size();
      for (size_t i = 0; i < sessions.size(); ++i) {
        if (sessions[i].id == result.id) {
          index = i;
        }
      }
      ASSERT_LT(index, sessions.size()) << "unknown session id " << result.id.value;
      const hangdoctor::DetectorCore& core = oracle[index]->core();
      const std::string label =
          "async shards=" + std::to_string(shards) + " id=" + std::to_string(result.id.value);
      EXPECT_EQ(result.report.Render(1), core.local_report().Render(1)) << label;
      EXPECT_EQ(result.overhead.cpu(), core.overhead().cpu()) << label;
      EXPECT_EQ(result.overhead.memory_bytes(), core.overhead().memory_bytes()) << label;
      EXPECT_EQ(result.stack_samples, core.stack_samples_taken()) << label;
      EXPECT_EQ(result.stream_ok, true) << label;
      ASSERT_EQ(result.log.size(), core.log().size()) << label;
      for (size_t i = 0; i < result.log.size(); ++i) {
        EXPECT_EQ(FormatRecord(result.log[i], *result.symbols),
                  FormatRecord(core.log()[i], *core.session().symbols))
            << label << " record " << i;
      }
    }
  }
}

}  // namespace
