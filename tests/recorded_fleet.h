// Recorded-fleet equivalence harness for DetectorService's in-place apply. A fleet runs
// once on the per-job oracle (FleetOptions::service = false) with every job recording its
// HDSL session log. Each log is parsed back, and its stream is applied to one service from
// `producers` threads, each owning one Ingestor, over disjoint sessions. Every harvested
// SessionResult must then match its oracle job (report, discovered APIs, stack samples,
// degradation, stream health, Describe(), overhead under the oracle's usage), and its
// execution log must match a ReplaySession of the same log alone. Faults injected while
// recording are ordinary telemetry in the log, so faulty fleets are checked the same way.
#ifndef TESTS_RECORDED_FLEET_H_
#define TESTS_RECORDED_FLEET_H_

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <ios>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/hangdoctor/detector_service.h"
#include "src/hangdoctor/session_stream.h"
#include "src/hosts/replay_host.h"
#include "src/hosts/session_log.h"
#include "src/workload/fleet.h"

namespace recorded_fleet {

// Everything one execution record says, doubles in hex so equal text means equal bits.
// `symbols` is the table the record's frame ids index.
inline std::string FormatRecord(const hangdoctor::ExecutionRecord& record,
                                const telemetry::SymbolTable& symbols) {
  std::ostringstream out;
  out << std::hexfloat << record.execution_id << " uid=" << record.action_uid
      << " before=" << static_cast<int>(record.state_before)
      << " verdict=" << hangdoctor::VerdictName(record.verdict) << " hang=" << record.hang
      << " s1=" << record.schecker_ran << " s2=" << record.diagnoser_ran
      << " traced=" << record.traced << " degraded=" << record.degraded
      << " resp=" << record.response << " traces=" << record.traces.size();
  const hangdoctor::Diagnosis& diagnosis = record.diagnosis;
  if (diagnosis.valid) {
    out << " culprit=" << symbols.Frame(diagnosis.culprit).function
        << " occ=" << diagnosis.occurrence_factor << " n=" << diagnosis.samples_used
        << " ui=" << diagnosis.is_ui << " self=" << diagnosis.is_self_developed
        << " async=" << diagnosis.via_async_wait;
    if (diagnosis.wait_frame != telemetry::kNoFrame) {
      out << " wait=" << symbols.Frame(diagnosis.wait_frame).function;
    }
  }
  for (const hangdoctor::SCheckerReading& reading : record.schecker_diffs) {
    out << " " << static_cast<int>(reading.event) << ":" << reading.diff;
  }
  return out.str();
}

inline std::vector<std::string> FormatLog(const std::vector<hangdoctor::ExecutionRecord>& log,
                                          const telemetry::SymbolTable& symbols) {
  std::vector<std::string> lines;
  lines.reserve(log.size());
  for (const hangdoctor::ExecutionRecord& record : log) {
    lines.push_back(FormatRecord(record, symbols));
  }
  return lines;
}

inline std::string FormatDegradation(const hangdoctor::DegradationStats& d) {
  return std::to_string(d.counter_open_failures) + "/" + std::to_string(d.counter_retries) +
         "/" + std::to_string(d.invalid_counter_windows) + "/" +
         std::to_string(d.degraded_checks) + "/" + std::to_string(d.empty_trace_windows) + "/" +
         std::to_string(d.dropped_records) + "/" + std::to_string(d.counters_unavailable);
}

// One recorded session: its parsed log, which owns the symbol table every payload's frame ids
// index; its stream framed for service ingest; and its execution log replayed alone.
struct Session {
  hangdoctor::SessionLog log;
  hangdoctor::SpiPayload open;
  std::vector<hangdoctor::SpiPayload> records;
  hangdoctor::SpiPayload close;
  std::vector<std::string> replayed_log;
};

struct Fleet {
  workload::FleetSummary oracle;
  std::vector<std::unique_ptr<Session>> sessions;  // index-aligned with oracle.jobs
  const hangdoctor::BlockingApiDatabase* known_db = nullptr;
};

// A per-process scratch directory for one fleet's logs, removed when the fleet is recorded.
inline std::filesystem::path ScratchDir(const std::string& name) {
  std::filesystem::path dir = std::filesystem::temp_directory_path() /
                              ("hd_recorded_fleet_" + std::to_string(::getpid())) / name;
  std::filesystem::create_directories(dir);
  return dir;
}

// Runs `jobs` on the per-job oracle, recording job i to job_<i>.hdsl, and loads every log
// back. Every job must share one known_db (the service under test holds one seed).
inline Fleet RecordFleet(std::vector<workload::FleetJob> jobs, const std::string& name) {
  Fleet fleet;
  const std::filesystem::path dir = ScratchDir(name);
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].record_path = (dir / ("job_" + std::to_string(i) + ".hdsl")).string();
  }
  fleet.known_db = jobs.empty() ? nullptr : jobs.front().known_db;
  workload::FleetOptions oracle_options;
  oracle_options.jobs = 2;
  oracle_options.service = false;
  fleet.oracle = workload::RunFleet(jobs, oracle_options);
  EXPECT_EQ(fleet.oracle.failed, 0u) << name;

  for (const workload::FleetJob& job : jobs) {
    auto session = std::make_unique<Session>();
    std::string error;
    EXPECT_TRUE(hangdoctor::LoadSessionLog(job.record_path, &session->log, &error))
        << job.record_path << ": " << error;
    session->open.kind = hangdoctor::SpiPayload::Kind::kSessionOpen;
    session->open.info = session->log.info;
    session->open.config = session->log.config;
    for (const hangdoctor::SessionRecord& record : session->log.records) {
      hangdoctor::SpiPayload payload;
      if (hangdoctor::ToSpiPayload(hangdoctor::SessionRecord(record), &payload)) {
        session->records.push_back(std::move(payload));
      }
    }
    session->close.kind = hangdoctor::SpiPayload::Kind::kSessionClose;

    hangdoctor::BlockingApiDatabase database;
    database.SetBase(fleet.known_db);
    hangdoctor::ReplaySession replay(session->log, &database);
    replay.Run();
    session->replayed_log = FormatLog(replay.core().log(), *session->log.symbols);
    fleet.sessions.push_back(std::move(session));
  }
  std::filesystem::remove_all(dir.parent_path());
  return fleet;
}

// Applies every session to a service built from `options`, from `producers` (>= 1) threads:
// session i goes from producer i % producers, in record order, so each session has exactly
// one producer while sessions of different producers share shards. Returns the results
// drained once every producer has finished, in ascending session id; a record the service
// refused fails the test.
inline std::vector<hangdoctor::SessionResult> IngestFleet(
    const Fleet& fleet, const hangdoctor::ServiceOptions& options, size_t producers) {
  hangdoctor::DetectorService service(options);
  std::vector<std::thread> pushers;
  pushers.reserve(producers);
  for (size_t p = 0; p < producers; ++p) {
    pushers.emplace_back([p, producers, &fleet, &service]() {
      hangdoctor::DetectorService::Ingestor ingestor(&service);
      for (size_t i = p; i < fleet.sessions.size(); i += producers) {
        const Session& session = *fleet.sessions[i];
        telemetry::SessionId id{static_cast<uint64_t>(i)};
        ingestor.Push({id, &session.open});
        for (const hangdoctor::SpiPayload& payload : session.records) {
          ingestor.Push({id, &payload});
        }
        ingestor.Push({id, &session.close});
      }
    });
  }
  for (std::thread& pusher : pushers) {
    pusher.join();
  }
  std::vector<hangdoctor::SessionResult> results = service.DrainClosed();
  for (const hangdoctor::IngestError& error : service.TakeIngestErrors()) {
    ADD_FAILURE() << "session " << error.session.value << ": " << error.message;
  }
  return results;
}

// Checks every applied result against its oracle job and its single-log replay.
inline void ExpectMatchesOracle(const Fleet& fleet,
                                const std::vector<hangdoctor::SessionResult>& results,
                                const std::string& label) {
  ASSERT_EQ(results.size(), fleet.sessions.size()) << label;
  EXPECT_EQ(hangdoctor::MergeSessionReports(results).Render(4),
            fleet.oracle.merged_report.Render(4))
      << label;
  for (size_t i = 0; i < results.size(); ++i) {
    const std::string job_label = label + " job " + std::to_string(i);
    const hangdoctor::SessionResult& got = results[i];
    const workload::FleetJobResult& want = fleet.oracle.jobs[i];
    ASSERT_EQ(got.id.value, i) << job_label;
    EXPECT_EQ(got.report.Render(4), want.report.Render(4)) << job_label;
    EXPECT_EQ(got.discovered, want.discovered) << job_label;
    EXPECT_EQ(got.stack_samples, want.stack_samples) << job_label;
    EXPECT_EQ(FormatDegradation(got.degradation), FormatDegradation(want.degradation))
        << job_label;
    EXPECT_EQ(got.stream_ok, want.stream_ok) << job_label;
    EXPECT_EQ(got.stream_error, want.stream_error) << job_label;
    EXPECT_DOUBLE_EQ(got.overhead.OverheadPercent(want.usage.cpu, want.usage.bytes),
                     want.overhead_pct)
        << job_label;
    // The one-line health summary, rebuilt from the applied result.
    workload::FleetJobResult as_job;
    as_job.ok = true;
    as_job.app_package = got.app_package;
    as_job.device_id = got.device_id;
    as_job.seed = want.seed;
    as_job.degradation = got.degradation;
    as_job.stream_ok = got.stream_ok;
    as_job.stream_error = got.stream_error;
    as_job.record_ok = want.record_ok;
    EXPECT_EQ(as_job.Describe(), want.Describe()) << job_label;
    EXPECT_EQ(FormatLog(got.log, *fleet.sessions[i]->log.symbols),
              fleet.sessions[i]->replayed_log)
        << job_label;
  }
}

}  // namespace recorded_fleet

#endif  // TESTS_RECORDED_FLEET_H_
