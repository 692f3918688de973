// hdsl_rollup: fleet-scale rollups ("which app hangs, on which API?") over a directory of
// recorded HDSL v2 session logs.
//
//   hdsl_rollup <log-dir> [out-dir]   # per-app + per-API CSV (stdout, or two files)
//
// Every *.hdsl in <log-dir> is parsed in sorted file-name order. The per-app CSV is an
// activity census, one row per app package, sorted by package. The per-API CSV counts the
// innermost frame of every recorded stack sample, sorted by descending sample count, then by
// name. Neither carries a timestamp, so the output is a pure function of the logs' bytes.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/hosts/session_log.h"

namespace {

namespace hd = hangdoctor;

bool ReadFile(const std::filesystem::path& path, std::string* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path.string();
    return false;
  }
  out->assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

bool WriteFile(const std::filesystem::path& path, const std::string& bytes,
               std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    *error = "cannot write " + path.string();
    return false;
  }
  return true;
}

// Per-app activity, one row per distinct app package.
struct AppRow {
  int64_t logs = 0;
  int64_t records = 0;     // SPI records across the app's logs
  int64_t dispatches = 0;  // DispatchStart records
  int64_t quiesces = 0;    // ActionQuiesce records
  int64_t samples = 0;     // stack samples captured in DispatchEnd records
};

// Innermost-frame census, keyed on "clazz.function".
struct ApiRow {
  int64_t samples = 0;
  int64_t logs = 0;            // distinct logs the API appeared in
  size_t last_log = SIZE_MAX;  // logs arrive in order, so a new index is a new log
};

// std::map keys both censuses, so the app rows come out sorted by package.
struct Rollup {
  std::map<std::string, AppRow> apps;
  std::map<std::string, ApiRow> apis;
};

void Add(const hd::SessionLog& log, size_t log_index, Rollup* rollup) {
  AppRow& app = rollup->apps[log.info.app_package];
  ++app.logs;
  app.records += static_cast<int64_t>(log.records.size());
  for (const hd::SessionRecord& record : log.records) {
    switch (record.tag) {
      case hd::SessionRecordTag::kDispatchStart:
        ++app.dispatches;
        break;
      case hd::SessionRecordTag::kActionQuiesce:
        ++app.quiesces;
        break;
      case hd::SessionRecordTag::kDispatchEnd:
        app.samples += static_cast<int64_t>(record.samples.size());
        for (const telemetry::StackTrace& sample : record.samples) {
          if (sample.frames.empty()) {
            continue;
          }
          // Frames are outermost-first (telemetry/stack.h): the innermost frame, the API
          // actually blocking, is the last one, the frame the Trace Analyzer's occurrence
          // census counts.
          const telemetry::StackFrame& frame = log.symbols->Frame(sample.frames.back());
          ApiRow& api = rollup->apis[frame.clazz + "." + frame.function];
          ++api.samples;
          api.logs += api.last_log != log_index ? 1 : 0;
          api.last_log = log_index;
        }
        break;
      default:
        break;
    }
  }
}

std::string AppCsv(const Rollup& rollup) {
  std::string out = "app,logs,records,dispatches,quiesces,stack_samples\n";
  for (const auto& [package, row] : rollup.apps) {
    out += package + "," + std::to_string(row.logs) + "," + std::to_string(row.records) +
           "," + std::to_string(row.dispatches) + "," + std::to_string(row.quiesces) + "," +
           std::to_string(row.samples) + "\n";
  }
  return out;
}

std::string ApiCsv(const Rollup& rollup) {
  std::vector<std::pair<std::string, ApiRow>> rows(rollup.apis.begin(), rollup.apis.end());
  // Stable over the map's name order, so equal counts stay sorted by name.
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.samples > b.second.samples;
  });
  std::string out = "api,stack_samples,logs\n";
  for (const auto& [api, row] : rows) {
    out += api + "," + std::to_string(row.samples) + "," + std::to_string(row.logs) + "\n";
  }
  return out;
}

int Run(const std::string& log_dir, const std::string& out_dir) {
  std::error_code ec;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(log_dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".hdsl") {
      paths.push_back(entry.path());
    }
  }
  if (ec) {
    std::fprintf(stderr, "hdsl_rollup: %s: %s\n", log_dir.c_str(), ec.message().c_str());
    return 1;
  }
  std::sort(paths.begin(), paths.end());

  Rollup rollup;
  std::string error;
  for (size_t i = 0; i < paths.size(); ++i) {
    std::string bytes;
    hd::SessionLog log;
    if (!ReadFile(paths[i], &bytes, &error) || !hd::LoadSessionLogBytes(bytes, &log, &error)) {
      std::fprintf(stderr, "hdsl_rollup: %s: %s\n", paths[i].filename().c_str(),
                   error.c_str());
      return 1;
    }
    Add(log, i, &rollup);
  }

  std::string app_csv = AppCsv(rollup);
  std::string api_csv = ApiCsv(rollup);
  if (out_dir.empty()) {
    std::fputs(app_csv.c_str(), stdout);
    std::fputs("\n", stdout);
    std::fputs(api_csv.c_str(), stdout);
    return 0;
  }
  std::filesystem::create_directories(out_dir);
  if (!WriteFile(std::filesystem::path(out_dir) / "apps.csv", app_csv, &error) ||
      !WriteFile(std::filesystem::path(out_dir) / "apis.csv", api_csv, &error)) {
    std::fprintf(stderr, "hdsl_rollup: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s/apps.csv (%zu rows) and %s/apis.csv (%zu rows)\n", out_dir.c_str(),
              rollup.apps.size(), out_dir.c_str(), rollup.apis.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 && argc != 3) {
    std::fprintf(stderr, "usage: hdsl_rollup <log-dir> [out-dir]\n");
    return 2;
  }
  return Run(argv[1], argc == 3 ? argv[2] : "");
}
