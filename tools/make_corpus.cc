// Regenerates the committed HDSL fuzz corpus (tests/corpus/). Each corpus file is one small
// recorded session chosen to cover a distinct slice of the log grammar: the default config,
// main_only (single-thread counter windows), second_phase_only + keep_traces (trace-heavy
// records), a fault-injected session (kCounterFault records, NaN counter diffs), and an
// async study-app session (the HDSL v4 kAsyncPost/kAsyncRun/kAsyncWaitStart/kAsyncWaitEnd
// records plus thread-tagged samples). A final entry, fleet_kb.hdsl3, interleaves the
// single-session logs into one HDSL v3 container with epoch-publish frames — the on-disk
// shape of a --shared-kb service run — so the fuzzer exercises the mux grammar too. All
// seeds are fixed, so the corpus is reproducible byte-for-byte; after regenerating, refresh
// tests/corpus/MANIFEST.sha256 (see scripts/check_corpus.sh).
//
// Usage: make_corpus <output-dir>
// Any argument that starts with '-' (--help included) prints the usage, creates nothing and
// exits 2.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/faultsim/fault_plan.h"
#include "src/hosts/mux_log.h"
#include "src/workload/catalog.h"
#include "src/workload/fleet.h"

namespace {

struct CorpusEntry {
  const char* file;
  size_t app_index;
  uint64_t seed;
  bool main_only = false;
  bool second_phase_only = false;
  bool keep_traces = false;
  const char* fault_profile = nullptr;
  bool async = false;  // app_index picks from async_apps() instead of study_apps()
};

constexpr CorpusEntry kCorpus[] = {
    {"default.hdsl", 0, 101},
    {"main_only.hdsl", 1, 102, /*main_only=*/true},
    {"second_phase.hdsl", 2, 103, false, /*second_phase_only=*/true, /*keep_traces=*/true},
    {"faulty.hdsl", 3, 104, false, false, false, /*fault_profile=*/"flaky-counters"},
    {"async_session.hdsl", 0, 105, false, false, false, nullptr, /*async=*/true},
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 || argv[1][0] == '-') {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  std::filesystem::create_directories(dir);

  workload::Catalog catalog;
  hangdoctor::BlockingApiDatabase known_db = catalog.MakeKnownDatabase();
  for (const CorpusEntry& entry : kCorpus) {
    workload::FleetJob job;
    job.spec = entry.async ? catalog.async_apps()[entry.app_index]
                           : catalog.study_apps()[entry.app_index];
    job.profile = droidsim::LgV10();
    job.seed = entry.seed;
    job.session = simkit::Seconds(10);
    job.known_db = &known_db;
    job.doctor.main_only = entry.main_only;
    job.doctor.second_phase_only = entry.second_phase_only;
    job.doctor.keep_traces = entry.keep_traces;
    if (entry.fault_profile != nullptr) {
      job.faults = faultsim::FaultProfile::Named(entry.fault_profile);
    }
    job.record_path = dir + "/" + entry.file;
    workload::FleetJobResult result = workload::RunFleetJob(job);
    if (!result.ok || !result.record_ok) {
      std::fprintf(stderr, "recording %s failed: %s%s\n", entry.file, result.error.c_str(),
                   result.record_error.c_str());
      return 1;
    }
    std::printf("%s: %s, %ju bytes\n", entry.file, job.spec->name.c_str(),
                static_cast<uintmax_t>(std::filesystem::file_size(job.record_path)));
  }

  // Final entry: the single-session logs above, interleaved round-robin into one v3 container
  // with a kEpochPublish frame after every 7th session frame — the on-disk shape of a
  // --shared-kb DetectorService run. Deterministic because the inputs and the schedule are.
  std::vector<hangdoctor::SessionLogSlice> slices;
  std::vector<size_t> remaining;
  for (size_t i = 0; i < std::size(kCorpus); ++i) {
    hangdoctor::SessionLogSlice slice;
    slice.id = telemetry::SessionId{static_cast<uint64_t>(i + 1)};
    slice.bytes = ReadFile(dir + "/" + kCorpus[i].file);
    size_t frames = 0;
    std::string error;
    if (!hangdoctor::MuxFrameCount(slice.bytes, &frames, &error)) {
      std::fprintf(stderr, "framing %s failed: %s\n", kCorpus[i].file, error.c_str());
      return 1;
    }
    slices.push_back(std::move(slice));
    remaining.push_back(frames);
  }
  std::vector<size_t> schedule;
  size_t emitted = 0;
  for (bool pending = true; pending;) {
    pending = false;
    for (size_t s = 0; s < remaining.size(); ++s) {
      if (remaining[s] == 0) {
        continue;
      }
      --remaining[s];
      pending = pending || remaining[s] > 0;
      schedule.push_back(s);
      if (++emitted % 7 == 0) {
        schedule.push_back(hangdoctor::kMuxEpochPublish);
      }
    }
  }
  std::string mux;
  std::string error;
  if (!hangdoctor::MuxSessionLogs(slices, schedule, &mux, &error)) {
    std::fprintf(stderr, "muxing fleet_kb.hdsl3 failed: %s\n", error.c_str());
    return 1;
  }
  const std::string mux_path = dir + "/fleet_kb.hdsl3";
  std::ofstream out(mux_path, std::ios::binary | std::ios::trunc);
  out.write(mux.data(), static_cast<std::streamsize>(mux.size()));
  out.close();
  if (!out) {
    std::fprintf(stderr, "writing %s failed\n", mux_path.c_str());
    return 1;
  }
  std::printf("fleet_kb.hdsl3: %zu sessions multiplexed, %zu bytes\n", slices.size(),
              mux.size());
  return 0;
}
