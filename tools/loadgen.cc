// loadgen: replays recorded HDSL session logs against a running hangdoctord.
//
// Usage:
//   loadgen --port=N [--dir=PATH | --file=LOG ...] [--connections=N] [--sessions=N]
//           [--rate=F] [--chunk=N] [--chaos] [--seed=N]
//
// --dir collects every *.hdsl file under PATH (sorted by name, session ids 1..N in that
// order); --file names logs explicitly. --sessions repeats the collected logs round-robin
// until N sessions exist (fresh ids), which is how a handful of recorded logs load-tests a
// thousand-session fleet. --chaos enables the seeded disconnect/torn-frame plan.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/hosts/mux_log.h"
#include "src/netd/loadgen.h"
#include "src/simkit/flags.h"

namespace {

bool ReadFile(const std::string& path, std::string* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  bytes->assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

int Run(int argc, char** argv) {
  using simkit::FlagInt;
  auto port = static_cast<uint16_t>(FlagInt(argc, argv, "--port=", 0));
  if (port == 0) {
    std::fprintf(stderr, "loadgen: --port=N is required\n");
    return 2;
  }

  std::vector<std::string> paths;
  for (std::string_view file : simkit::FlagStrings(argc, argv, "--file=")) {
    paths.emplace_back(file);
  }
  for (std::string_view dir : simkit::FlagStrings(argc, argv, "--dir=")) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".hdsl") {
        paths.push_back(entry.path().string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::fprintf(stderr, "loadgen: no session logs (--dir=PATH or --file=LOG)\n");
    return 2;
  }

  std::vector<std::string> logs(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    if (!ReadFile(paths[i], &logs[i])) {
      std::fprintf(stderr, "loadgen: cannot read %s\n", paths[i].c_str());
      return 2;
    }
  }

  auto want = static_cast<size_t>(
      FlagInt(argc, argv, "--sessions=", static_cast<int64_t>(logs.size())));
  std::vector<hangdoctor::SessionLogSlice> sessions;
  sessions.reserve(want);
  for (size_t i = 0; i < want; ++i) {
    sessions.push_back({telemetry::SessionId{i + 1}, logs[i % logs.size()]});
  }

  netd::LoadGenOptions options;
  options.connections = static_cast<int32_t>(FlagInt(argc, argv, "--connections=", 1));
  options.rate = simkit::FlagDouble(argc, argv, "--rate=", 0.0);
  options.chunk = static_cast<size_t>(FlagInt(argc, argv, "--chunk=", 0));
  options.seed = static_cast<uint64_t>(FlagInt(argc, argv, "--seed=", 1));
  options.chaos = simkit::HasFlag(argc, argv, "--chaos");

  netd::LoadGenResult result = netd::RunLoadGen(port, sessions, options);
  size_t completed = 0, chaos_dropped = 0, failed = 0;
  for (const auto& conn : result.connections) {
    if (conn.completed) {
      ++completed;
    } else if (conn.chaos_disconnect) {
      ++chaos_dropped;
    } else if (!conn.error.empty()) {
      ++failed;
      std::fprintf(stderr, "loadgen: connection error: %s\n", conn.error.c_str());
    }
  }
  std::printf(
      "loadgen: %zu sessions over %zu connections: %zu completed, %zu chaos-dropped, "
      "%zu failed; %lld closed, %lld busy, %lld errors\n",
      sessions.size(), result.connections.size(), completed, chaos_dropped, failed,
      static_cast<long long>(result.sessions_closed), static_cast<long long>(result.busy),
      static_cast<long long>(result.errors));
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const simkit::FlagError& e) {
    std::fprintf(stderr, "loadgen: %s\n", e.what());
    return 2;
  }
}
