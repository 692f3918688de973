// Record/replay round-trip tests: a live HangDoctor session taped through SessionLogWriter
// and replayed through ReplaySession must reproduce the detector's observable state
// bit-identically — execution log, action-table transitions, Hang Bug Report, overhead
// accounting, and discovered blocking APIs. Also checks that recording is a passive tap
// (recorded fleets equal unrecorded ones at any worker count) and that the written log
// files themselves are byte-identical across parallelism levels.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/hangdoctor/detector_core.h"
#include "src/hosts/hang_doctor.h"
#include "src/hosts/mux_log.h"
#include "src/hosts/replay_host.h"
#include "src/hosts/session_log.h"
#include "src/workload/catalog.h"
#include "src/workload/experiment.h"
#include "src/workload/fleet.h"

namespace {

const workload::Catalog& SharedCatalog() {
  static const workload::Catalog* catalog = new workload::Catalog();
  return *catalog;
}

std::string TempPath(const std::string& leaf) {
  std::filesystem::path dir = std::filesystem::temp_directory_path() / "hd_record_replay";
  std::filesystem::create_directories(dir);
  return (dir / leaf).string();
}

// Every observable output of a DetectorCore, flattened to comparable strings.
struct CoreSnapshot {
  std::vector<std::string> log_lines;
  std::vector<std::string> transitions;
  std::string report;
  int64_t overhead_cpu = 0;
  int64_t overhead_bytes = 0;
  int64_t stack_samples = 0;
};

// `symbols` is the table the record's frame ids index.
std::string FormatRecord(const hangdoctor::ExecutionRecord& record,
                         const telemetry::SymbolTable& symbols) {
  std::ostringstream out;
  out << record.execution_id << " uid=" << record.action_uid << " resp=" << record.response
      << " hang=" << record.hang << " before=" << static_cast<int>(record.state_before)
      << " s1=" << record.schecker_ran << " s2=" << record.diagnoser_ran
      << " traced=" << record.traced << " verdict=" << hangdoctor::VerdictName(record.verdict)
      << " traces=" << record.traces.size();
  if (record.diagnosis.valid) {
    const telemetry::StackFrame& culprit = symbols.Frame(record.diagnosis.culprit);
    out << " culprit=" << culprit.clazz << "." << culprit.function << "@" << culprit.file << ":"
        << culprit.line << " occ=" << record.diagnosis.occurrence_factor
        << " ui=" << record.diagnosis.is_ui << " self=" << record.diagnosis.is_self_developed
        << " n=" << record.diagnosis.samples_used;
  }
  for (telemetry::PerfEventType event : telemetry::AllPerfEvents()) {
    out << " " << static_cast<int64_t>(record.SCheckerDiff(event));
  }
  return out.str();
}

CoreSnapshot Snapshot(const hangdoctor::DetectorCore& core, int32_t total_devices) {
  CoreSnapshot snap;
  for (const hangdoctor::ExecutionRecord& record : core.log()) {
    snap.log_lines.push_back(FormatRecord(record, *core.session().symbols));
  }
  for (const hangdoctor::StateTransition& transition : core.actions().transitions()) {
    std::ostringstream out;
    out << transition.time << " uid=" << transition.action_uid << " "
        << static_cast<int>(transition.from) << "->" << static_cast<int>(transition.to) << " "
        << transition.reason;
    snap.transitions.push_back(out.str());
  }
  snap.report = core.local_report().Render(total_devices);
  snap.overhead_cpu = core.overhead().cpu();
  snap.overhead_bytes = core.overhead().memory_bytes();
  snap.stack_samples = core.stack_samples_taken();
  return snap;
}

void ExpectSnapshotsEqual(const CoreSnapshot& live, const CoreSnapshot& replayed,
                          const std::string& label) {
  EXPECT_EQ(live.log_lines, replayed.log_lines) << label;
  EXPECT_EQ(live.transitions, replayed.transitions) << label;
  EXPECT_EQ(live.report, replayed.report) << label;
  EXPECT_EQ(live.overhead_cpu, replayed.overhead_cpu) << label;
  EXPECT_EQ(live.overhead_bytes, replayed.overhead_bytes) << label;
  EXPECT_EQ(live.stack_samples, replayed.stack_samples) << label;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Records a live session for `spec`, replays it, and checks every observable for equality.
void RoundTrip(const droidsim::AppSpec* spec, uint64_t seed,
               const hangdoctor::HangDoctorConfig& config, const std::string& label) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase live_db = catalog.MakeKnownDatabase();
  hangdoctor::BlockingApiDatabase replay_db = catalog.MakeKnownDatabase();
  const std::string path = TempPath(label + ".hdsl");

  workload::SingleAppHarness harness(droidsim::LgV10(), spec, seed);
  hangdoctor::SessionLogWriter writer(path, config);
  ASSERT_TRUE(writer.ok()) << path;
  hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(), config, &live_db,
                                /*device_id=*/3, &writer);
  harness.RunUserSession(simkit::Seconds(45));
  workload::TraceUsage usage = harness.Usage();
  writer.WriteTraceUsage(usage.cpu, usage.bytes);
  writer.Finish();

  CoreSnapshot live = Snapshot(doctor.core(), 4);
  double live_overhead = doctor.overhead().OverheadPercent(usage.cpu, usage.bytes);

  std::string error;
  std::unique_ptr<hangdoctor::ReplaySession> session =
      hangdoctor::ReplaySessionLog(path, &error, &replay_db);
  ASSERT_NE(session, nullptr) << label << ": " << error;
  CoreSnapshot replayed = Snapshot(session->core(), 4);
  ExpectSnapshotsEqual(live, replayed, label);
  EXPECT_EQ(live_db.discovered(), replay_db.discovered()) << label;
  EXPECT_DOUBLE_EQ(session->OverheadPercent(), live_overhead) << label;

  // The replayed header must carry the live session's identity and configuration.
  EXPECT_EQ(session->log().info.app_package, spec->package) << label;
  EXPECT_EQ(session->log().config.main_only, config.main_only) << label;
  EXPECT_EQ(session->log().config.second_phase_only, config.second_phase_only) << label;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (char c : bytes) {
    hex.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    hex.push_back(kDigits[static_cast<uint8_t>(c) & 0xf]);
  }
  return hex;
}

// The v2 log's bytes: magic, version, SessionInfo, the full HangDoctorConfig and a
// two-frame symbol table, then one record of each tag (DispatchEnd with two thread-tagged
// samples), the TraceUsage footer and the end marker. Every field differs from its default
// and from the other fields, so a dropped, swapped or re-typed field changes these bytes.
constexpr std::string_view kPinnedLogHex =
    "4844534c0412636f6d2e6578616d706c652e70696e6e6564120e0202000000000000f83f090000000000"
    "00024001de01e001e201e401e601d7a3703d0ad7d33f7b14ae47e17ad43f1f85eb51b81ed53f92039403"
    "960398039a039c039e03a003a203a403a603a803aa030101020372756e0c636f6d2e782e576f726b6572"
    "0b576f726b65722e6a6176612203046472617711616e64726f69642e766965772e566965770956696577"
    "2e6a6176612e0401d20fd40fd60fd80fda0f02a21fa41fa61fa81f0102aa1f02020001ac1f03010103f2"
    "2ef42ef62ef82e0102010000000000000c40040000000000001dc006c23ec43e0107924e944e8b270501"
    "984e08e25de45df32e060009b26db46ddb36010a827d847dc33e877d04d28c01d48c0105";

// That log in a v3 container as session 77, one frame of each tag: open, an epoch publish,
// the nine records, close and end.
constexpr std::string_view kPinnedContainerHex =
    "4844534c03014daf014844534c0412636f6d2e6578616d706c652e70696e6e6564120e02020000000000"
    "00f83f09000000000000024001de01e001e201e401e601d7a3703d0ad7d33f7b14ae47e17ad43f1f85eb"
    "51b81ed53f92039403960398039a039c039e03a003a203a403a603a803aa030101020372756e0c636f6d"
    "2e782e576f726b65720b576f726b65722e6a6176612203046472617711616e64726f69642e766965772e"
    "5669657709566965772e6a6176612e040501024d0b01d20fd40fd60fd80fda0f024d1602a21fa41fa61f"
    "a81f0102aa1f02020001ac1f030101024d1d03f22ef42ef62ef82e0102010000000000000c4004000000"
    "0000001dc0024d0606c23ec43e01024d0b07924e944e8b270501984e024d0908e25de45df32e0600024d"
    "0809b26db46ddb3601024d090a827d847dc33e877d024d0704d28c01d48c01034d04";

// Round trips pass for any self-consistent format; this pins the format itself. The
// encodings are compared with hex captured from the encoder, then decoded field by field.
TEST(RecordReplayTest, HdslEncodingsMatchThePinnedBytesFieldByField) {
  telemetry::SymbolTable symbols;
  ASSERT_EQ(symbols.Intern({"run", "com.x.Worker", "Worker.java", 17, true}, true, false), 0u);
  ASSERT_EQ(symbols.Intern({"draw", "android.view.View", "View.java", 23, false}, false, true),
            1u);
  hangdoctor::SessionInfo info{"com.example.pinned", 9, 7, &symbols};
  hangdoctor::HangDoctorConfig config;
  config.filter = hangdoctor::SoftHangFilter(
      {{telemetry::PerfEventType::kPageFaults, 1.5}, {telemetry::PerfEventType::kCpuCycles, 2.25}});
  config.main_only = true;
  config.hang_timeout = 111;
  config.sample_interval = 112;
  config.reset_after_normal = 113;
  config.max_counter_retries = 114;
  config.counter_retry_backoff = 115;
  config.analyzer = {0.31, 0.32, 0.33};
  config.costs = {201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211, 212, 213};
  config.second_phase_only = true;
  config.keep_traces = true;

  std::vector<telemetry::StackTrace> samples = {{2005, 2, {0, 1}}, {2006, 3, {1}}};
  hangdoctor::ActionQuiesce quiesce{3001, 3002, 3003, 3004, true, {}};
  quiesce.counter_diffs[1] = 3.5;
  quiesce.counter_diffs[4] = -7.25;
  const std::string path = TempPath("pinned.hdsl");
  {
    hangdoctor::SessionLogWriter writer(path, config);
    writer.OnSessionStart(info);
    writer.OnDispatchStart({1001, 1002, 1003, 1004, 1005});
    writer.OnDispatchEnd({2001, 2002, 2003, 2004, true, samples});
    writer.OnActionQuiesce(quiesce);
    writer.OnCounterFault({4001, 4002, true});
    writer.OnAsyncPost({5001, 5002, {5003}, 5, 1, 5004});
    writer.OnAsyncRun({6001, 6002, {6003}, 6, false});
    writer.OnAsyncWaitStart({7001, 7002, {7003}, 1});
    writer.OnAsyncWaitEnd({8001, 8002, {8003}, -8004});
    writer.WriteTraceUsage(9001, 9002);
    writer.Finish();
    ASSERT_TRUE(writer.ok());
  }
  const std::string bytes = FileBytes(path);
  EXPECT_EQ(Hex(bytes), kPinnedLogHex);

  hangdoctor::SessionLog log;
  std::string error;
  ASSERT_TRUE(hangdoctor::LoadSessionLogBytes(bytes, &log, &error)) << error;
  EXPECT_EQ(log.info.app_package, "com.example.pinned");
  EXPECT_EQ(log.info.num_actions, 9);
  EXPECT_EQ(log.info.device_id, 7);
  ASSERT_EQ(log.config.filter.conditions().size(), 2u);
  EXPECT_EQ(log.config.filter.conditions()[0].event, telemetry::PerfEventType::kPageFaults);
  EXPECT_EQ(log.config.filter.conditions()[0].threshold, 1.5);
  EXPECT_EQ(log.config.filter.conditions()[1].event, telemetry::PerfEventType::kCpuCycles);
  EXPECT_EQ(log.config.filter.conditions()[1].threshold, 2.25);
  EXPECT_TRUE(log.config.main_only);
  EXPECT_EQ(log.config.hang_timeout, 111);
  EXPECT_EQ(log.config.sample_interval, 112);
  EXPECT_EQ(log.config.reset_after_normal, 113);
  EXPECT_EQ(log.config.max_counter_retries, 114);
  EXPECT_EQ(log.config.counter_retry_backoff, 115);
  EXPECT_EQ(log.config.analyzer.api_occurrence_threshold, 0.31);
  EXPECT_EQ(log.config.analyzer.caller_occurrence_threshold, 0.32);
  EXPECT_EQ(log.config.analyzer.ui_majority, 0.33);
  const hangdoctor::MonitorCosts& costs = log.config.costs;
  EXPECT_EQ(std::vector<int64_t>({costs.perf_start, costs.perf_stop, costs.perf_read_per_event,
                                  costs.perf_session_bytes, costs.state_lookup,
                                  costs.trace_start, costs.trace_start_bytes,
                                  costs.stack_sample, costs.stack_sample_bytes,
                                  costs.utilization_sample, costs.utilization_sample_bytes,
                                  costs.response_probe, costs.async_record}),
            std::vector<int64_t>({201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211, 212,
                                  213}));
  EXPECT_TRUE(log.config.second_phase_only);
  EXPECT_TRUE(log.config.keep_traces);
  ASSERT_EQ(log.symbols->size(), 2u);
  for (telemetry::FrameId id : {0u, 1u}) {
    EXPECT_EQ(log.symbols->Frame(id), symbols.Frame(id)) << id;
    EXPECT_EQ(log.symbols->Frame(id).in_closed_library, symbols.Frame(id).in_closed_library);
    EXPECT_EQ(log.symbols->IsUi(id), symbols.IsUi(id)) << id;
    EXPECT_EQ(log.symbols->IsSelfDeveloped(id), symbols.IsSelfDeveloped(id)) << id;
  }
  EXPECT_TRUE(log.has_usage);
  EXPECT_EQ(log.usage_cpu, 9001);
  EXPECT_EQ(log.usage_bytes, 9002);

  using Tag = hangdoctor::SessionRecordTag;
  ASSERT_EQ(log.records.size(), 8u);
  const hangdoctor::SessionRecord* r = log.records.data();
  ASSERT_EQ(r[0].tag, Tag::kDispatchStart);
  EXPECT_EQ(r[0].start.now, 1001);
  EXPECT_EQ(r[0].start.execution_id, 1002);
  EXPECT_EQ(r[0].start.action_uid, 1003);
  EXPECT_EQ(r[0].start.event_index, 1004);
  EXPECT_EQ(r[0].start.events_total, 1005);
  ASSERT_EQ(r[1].tag, Tag::kDispatchEnd);
  EXPECT_EQ(r[1].end.now, 2001);
  EXPECT_EQ(r[1].end.execution_id, 2002);
  EXPECT_EQ(r[1].end.event_index, 2003);
  EXPECT_EQ(r[1].end.response, 2004);
  EXPECT_TRUE(r[1].end.trace_stopped);
  ASSERT_EQ(r[1].samples.size(), 2u);
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(r[1].samples[i].timestamp_ns, samples[i].timestamp_ns) << i;
    EXPECT_EQ(r[1].samples[i].thread, samples[i].thread) << i;
    EXPECT_EQ(r[1].samples[i].frames, samples[i].frames) << i;
  }
  ASSERT_EQ(r[2].tag, Tag::kActionQuiesce);
  EXPECT_EQ(r[2].quiesce.now, 3001);
  EXPECT_EQ(r[2].quiesce.execution_id, 3002);
  EXPECT_EQ(r[2].quiesce.action_uid, 3003);
  EXPECT_EQ(r[2].quiesce.max_response, 3004);
  EXPECT_TRUE(r[2].quiesce.counters_valid);
  EXPECT_EQ(r[2].quiesce.counter_diffs, quiesce.counter_diffs);
  ASSERT_EQ(r[3].tag, Tag::kCounterFault);
  EXPECT_EQ(r[3].fault.now, 4001);
  EXPECT_EQ(r[3].fault.execution_id, 4002);
  EXPECT_TRUE(r[3].fault.permanent);
  ASSERT_EQ(r[4].tag, Tag::kAsyncPost);
  EXPECT_EQ(r[4].async_post.now, 5001);
  EXPECT_EQ(r[4].async_post.execution_id, 5002);
  EXPECT_EQ(r[4].async_post.edge.value, 5003u);
  EXPECT_EQ(r[4].async_post.target, 5u);
  EXPECT_EQ(r[4].async_post.post_frame, 1u);
  EXPECT_EQ(r[4].async_post.delay, 5004);
  ASSERT_EQ(r[5].tag, Tag::kAsyncRun);
  EXPECT_EQ(r[5].async_run.now, 6001);
  EXPECT_EQ(r[5].async_run.execution_id, 6002);
  EXPECT_EQ(r[5].async_run.edge.value, 6003u);
  EXPECT_EQ(r[5].async_run.thread, 6u);
  EXPECT_FALSE(r[5].async_run.begin);
  ASSERT_EQ(r[6].tag, Tag::kAsyncWaitStart);
  EXPECT_EQ(r[6].wait_start.now, 7001);
  EXPECT_EQ(r[6].wait_start.execution_id, 7002);
  EXPECT_EQ(r[6].wait_start.edge.value, 7003u);
  EXPECT_EQ(r[6].wait_start.wait_frame, 1u);
  ASSERT_EQ(r[7].tag, Tag::kAsyncWaitEnd);
  EXPECT_EQ(r[7].wait_end.now, 8001);
  EXPECT_EQ(r[7].wait_end.execution_id, 8002);
  EXPECT_EQ(r[7].wait_end.edge.value, 8003u);
  EXPECT_EQ(r[7].wait_end.waited, -8004);

  // The v3 container: its bytes, then every frame header field by field.
  const hangdoctor::SessionLogSlice slice{telemetry::SessionId{77}, bytes};
  std::vector<size_t> schedule(11, 0);
  schedule.insert(schedule.begin() + 1, hangdoctor::kMuxEpochPublish);
  std::string container;
  ASSERT_TRUE(hangdoctor::MuxSessionLogs({&slice, 1}, schedule, &container, &error)) << error;
  EXPECT_EQ(Hex(container), kPinnedContainerHex);
  hangdoctor::SessionLogLayout frames;
  ASSERT_TRUE(hangdoctor::ScanMuxLog(container, &frames, &error)) << error;
  hangdoctor::SessionLogLayout records;
  ASSERT_TRUE(hangdoctor::ScanSessionLog(bytes, &records, &error)) << error;
  ASSERT_EQ(frames.record_offsets.size(), 13u);
  using Mux = hangdoctor::MuxFrameTag;
  for (size_t i = 0; i < frames.record_offsets.size(); ++i) {
    size_t pos = frames.record_offsets[i];
    hangdoctor::MuxFrameHeader header;
    ASSERT_EQ(hangdoctor::ReadMuxFrameHeader(container, &pos, &header),
              hangdoctor::MuxHeaderRead::kOk)
        << i;
    Mux tag = i == 0 ? Mux::kOpenSession
              : i == 1 ? Mux::kEpochPublish
              : i == 11 ? Mux::kCloseSession
              : i == 12 ? Mux::kEnd
                        : Mux::kRecord;
    EXPECT_EQ(header.tag, tag) << i;
    EXPECT_EQ(header.id, tag == Mux::kEpochPublish ? 1u : tag == Mux::kEnd ? 0u : 77u) << i;
    uint64_t size = 0;
    if (tag == Mux::kOpenSession) {
      size = records.header_end;
    } else if (tag == Mux::kRecord) {
      size = records.record_offsets[i - 1] - records.record_offsets[i - 2];
    }
    EXPECT_EQ(header.size, size) << i;
  }
}

TEST(RecordReplayTest, EveryStudyAppRoundTripsBitIdentically) {
  const workload::Catalog& catalog = SharedCatalog();
  ASSERT_FALSE(catalog.study_apps().empty());
  uint64_t seed = 2000;
  for (const droidsim::AppSpec* spec : catalog.study_apps()) {
    RoundTrip(spec, seed++, hangdoctor::HangDoctorConfig{}, "study_" + spec->name);
  }
}

// HDSL v4: sessions of the async study apps carry AsyncPost/AsyncRun/AsyncWaitStart/
// AsyncWaitEnd records and thread-tagged samples; the round trip must reproduce the causal
// diagnosis (async culprit, wait-site provenance) bit-identically.
TEST(RecordReplayTest, AsyncStudyAppsRoundTripBitIdentically) {
  const workload::Catalog& catalog = SharedCatalog();
  ASSERT_FALSE(catalog.async_apps().empty());
  uint64_t seed = 5000;
  for (const droidsim::AppSpec* spec : catalog.async_apps()) {
    RoundTrip(spec, seed++, hangdoctor::HangDoctorConfig{}, "async_" + spec->name);
  }
}

// The recorded async logs must actually contain the v4 causal records (a silent fallback to
// the pre-async encoding would also "round-trip").
TEST(RecordReplayTest, AsyncSessionLogsContainCausalRecords) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase db = catalog.MakeKnownDatabase();
  const std::string path = TempPath("async_records.hdsl");
  {
    workload::SingleAppHarness harness(droidsim::LgV10(), catalog.async_apps()[0], 5001);
    hangdoctor::SessionLogWriter writer(path, hangdoctor::HangDoctorConfig{});
    ASSERT_TRUE(writer.ok());
    hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(),
                                  hangdoctor::HangDoctorConfig{}, &db, /*device_id=*/0,
                                  &writer);
    (void)doctor;
    harness.RunUserSession(simkit::Seconds(45));
    writer.Finish();
  }
  hangdoctor::SessionLog log;
  std::string error;
  ASSERT_TRUE(hangdoctor::LoadSessionLog(path, &log, &error)) << error;
  int64_t posts = 0;
  int64_t runs = 0;
  int64_t wait_starts = 0;
  int64_t wait_ends = 0;
  for (const hangdoctor::SessionRecord& record : log.records) {
    switch (record.tag) {
      case hangdoctor::SessionRecordTag::kAsyncPost:
        ++posts;
        break;
      case hangdoctor::SessionRecordTag::kAsyncRun:
        ++runs;
        break;
      case hangdoctor::SessionRecordTag::kAsyncWaitStart:
        ++wait_starts;
        break;
      case hangdoctor::SessionRecordTag::kAsyncWaitEnd:
        ++wait_ends;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(posts, 0);
  EXPECT_EQ(runs, posts * 2);  // every task logs a begin and an end
  EXPECT_GT(wait_starts, 0);
  EXPECT_EQ(wait_starts, wait_ends);
}

TEST(RecordReplayTest, KeepTracesConfigRoundTrips) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::HangDoctorConfig config;
  config.keep_traces = true;
  RoundTrip(catalog.study_apps()[0], 77, config, "keep_traces");
}

TEST(RecordReplayTest, SecondPhaseOnlyConfigRoundTrips) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::HangDoctorConfig config;
  config.second_phase_only = true;
  RoundTrip(catalog.study_apps()[1], 78, config, "second_phase_only");
}

TEST(RecordReplayTest, MainOnlyConfigRoundTrips) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::HangDoctorConfig config;
  config.main_only = true;
  RoundTrip(catalog.study_apps()[2], 79, config, "main_only");
}

// Builds the small fleet used by the parallelism tests: two apps x two devices.
std::vector<workload::FleetJob> SmallFleet(const hangdoctor::BlockingApiDatabase* known_db) {
  const workload::Catalog& catalog = SharedCatalog();
  std::vector<workload::FleetJob> jobs;
  for (size_t app = 0; app < 2; ++app) {
    for (int32_t device = 0; device < 2; ++device) {
      workload::FleetJob job;
      job.spec = catalog.study_apps()[app];
      job.profile = droidsim::LgV10();
      job.seed = workload::FleetSeed(42, jobs.size());
      job.session = simkit::Seconds(30);
      job.device_id = device;
      job.known_db = known_db;
      jobs.push_back(job);
    }
  }
  return jobs;
}

void ExpectSummariesEqual(const workload::FleetSummary& a, const workload::FleetSummary& b,
                          const std::string& label) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << label;
  EXPECT_EQ(a.failed, b.failed) << label;
  EXPECT_EQ(a.merged_report.Render(4), b.merged_report.Render(4)) << label;
  EXPECT_EQ(a.discovered, b.discovered) << label;
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].report.Render(4), b.jobs[i].report.Render(4)) << label << " job " << i;
    EXPECT_EQ(a.jobs[i].stack_samples, b.jobs[i].stack_samples) << label << " job " << i;
  }
}

TEST(RecordReplayTest, RecordingIsAPassiveTapAtAnyParallelism) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();

  std::vector<workload::FleetJob> plain = SmallFleet(&known_db);
  std::vector<workload::FleetJob> recorded_serial = SmallFleet(&known_db);
  std::vector<workload::FleetJob> recorded_parallel = SmallFleet(&known_db);
  const std::string dir_serial = TempPath("fleet_serial");
  const std::string dir_parallel = TempPath("fleet_parallel");
  std::filesystem::create_directories(dir_serial);
  std::filesystem::create_directories(dir_parallel);
  for (size_t i = 0; i < plain.size(); ++i) {
    recorded_serial[i].record_path = dir_serial + "/job_" + std::to_string(i) + ".hdsl";
    recorded_parallel[i].record_path = dir_parallel + "/job_" + std::to_string(i) + ".hdsl";
  }

  workload::FleetSummary baseline = workload::RunFleet(plain, {.jobs = 1});
  workload::FleetSummary serial = workload::RunFleet(recorded_serial, {.jobs = 1});
  workload::FleetSummary parallel = workload::RunFleet(recorded_parallel, {.jobs = 4});
  ASSERT_EQ(baseline.failed, 0u);

  ExpectSummariesEqual(baseline, serial, "recorded serial vs plain");
  ExpectSummariesEqual(baseline, parallel, "recorded parallel vs plain");

  // The session logs themselves are byte-identical regardless of the worker count.
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(FileBytes(recorded_serial[i].record_path),
              FileBytes(recorded_parallel[i].record_path))
        << "job " << i;
  }

  // Replaying the recorded fleet reproduces reports, discoveries, and overhead.
  std::vector<std::string> paths;
  for (const workload::FleetJob& job : recorded_serial) {
    paths.push_back(job.record_path);
  }
  workload::FleetSummary replayed = workload::ReplayFleet(paths, {.jobs = 2}, &known_db);
  ExpectSummariesEqual(baseline, replayed, "replayed vs plain");
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_DOUBLE_EQ(replayed.jobs[i].overhead_pct, baseline.jobs[i].overhead_pct)
        << "job " << i;
  }
}

TEST(RecordReplayTest, ReplayOfMissingLogFailsThatJobOnly) {
  std::vector<std::string> paths = {TempPath("does_not_exist.hdsl")};
  workload::FleetSummary summary = workload::ReplayFleet(paths, {.jobs = 1});
  ASSERT_EQ(summary.jobs.size(), 1u);
  EXPECT_FALSE(summary.jobs[0].ok);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_NE(summary.jobs[0].error.find("does_not_exist"), std::string::npos);
}

TEST(RecordReplayTest, TruncatedLogIsRejectedWithError) {
  const workload::Catalog& catalog = SharedCatalog();
  hangdoctor::BlockingApiDatabase db = catalog.MakeKnownDatabase();
  const std::string path = TempPath("truncate_me.hdsl");
  {
    workload::SingleAppHarness harness(droidsim::LgV10(), catalog.study_apps()[0], 5);
    hangdoctor::SessionLogWriter writer(path, hangdoctor::HangDoctorConfig{});
    ASSERT_TRUE(writer.ok());
    hangdoctor::HangDoctor doctor(&harness.phone(), &harness.app(),
                                  hangdoctor::HangDoctorConfig{}, &db, /*device_id=*/0,
                                  &writer);
    (void)doctor;
    harness.RunUserSession(simkit::Seconds(10));
    writer.Finish();
  }
  std::string bytes = FileBytes(path);
  ASSERT_GT(bytes.size(), 8u);
  const std::string cut = TempPath("truncated.hdsl");
  {
    std::ofstream out(cut, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  std::string error;
  EXPECT_EQ(hangdoctor::ReplaySessionLog(cut, &error), nullptr);
  EXPECT_FALSE(error.empty());

  std::string garbage = TempPath("garbage.hdsl");
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "not a session log";
  }
  error.clear();
  EXPECT_EQ(hangdoctor::ReplaySessionLog(garbage, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

}  // namespace
