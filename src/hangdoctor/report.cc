#include "src/hangdoctor/report.h"

#include <algorithm>
#include <sstream>

namespace hangdoctor {

namespace {

// The identity key: app|clazz.function|file:line. Absorb rebuilds the same string from an
// entry's own fields.
std::string Key(const std::string& app_package, const std::string& api, const std::string& file,
                int32_t line) {
  return app_package + "|" + api + "|" + file + ":" + std::to_string(line);
}

}  // namespace

void HangBugReport::Record(const std::string& app_package, const Diagnosis& diagnosis,
                           const telemetry::SymbolTable& symbols,
                           simkit::SimDuration hang_duration, int32_t device_id, bool degraded) {
  const telemetry::StackFrame& culprit = symbols.Frame(diagnosis.culprit);
  std::string api = culprit.clazz + "." + culprit.function;
  BugReportEntry& entry = entries_[Key(app_package, api, culprit.file, culprit.line)];
  if (entry.occurrences == 0) {
    entry.app_package = app_package;
    entry.api = std::move(api);
    entry.file = culprit.file;
    entry.line = culprit.line;
    entry.self_developed = diagnosis.is_self_developed;
    if (diagnosis.via_async_wait) {
      const telemetry::StackFrame& wait = symbols.Frame(diagnosis.wait_frame);
      entry.wait_site =
          wait.clazz + "." + wait.function + "@" + wait.file + ":" + std::to_string(wait.line);
    }
  }
  entry.degraded = entry.degraded || degraded;
  ++entry.occurrences;
  entry.devices.insert(device_id);
  entry.total_hang += hang_duration;
  entry.max_hang = std::max(entry.max_hang, hang_duration);
}

void HangBugReport::Merge(const HangBugReport& other) {
  for (const auto& [key, entry] : other.entries_) {
    BugReportEntry& mine = entries_[key];
    if (mine.occurrences == 0) {
      mine = entry;
      continue;
    }
    mine.degraded = mine.degraded || entry.degraded;
    if (mine.wait_site.empty()) {
      mine.wait_site = entry.wait_site;
    }
    mine.occurrences += entry.occurrences;
    mine.devices.insert(entry.devices.begin(), entry.devices.end());
    mine.total_hang += entry.total_hang;
    mine.max_hang = std::max(mine.max_hang, entry.max_hang);
  }
}

void HangBugReport::Absorb(const BugReportEntry& entry) {
  BugReportEntry& mine = entries_[Key(entry.app_package, entry.api, entry.file, entry.line)];
  if (mine.occurrences == 0) {
    mine = entry;
    return;
  }
  mine.degraded = mine.degraded || entry.degraded;
  if (mine.wait_site.empty()) {
    mine.wait_site = entry.wait_site;
  }
  mine.occurrences += entry.occurrences;
  mine.devices.insert(entry.devices.begin(), entry.devices.end());
  mine.total_hang += entry.total_hang;
  mine.max_hang = std::max(mine.max_hang, entry.max_hang);
}

std::vector<BugReportEntry> HangBugReport::Entries() const {
  std::vector<BugReportEntry> entries;
  entries.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    entries.push_back(entry);
  }
  return entries;
}

std::vector<BugReportEntry> HangBugReport::SortedEntries() const {
  std::vector<BugReportEntry> sorted;
  sorted.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    sorted.push_back(entry);
  }
  std::sort(sorted.begin(), sorted.end(), [](const BugReportEntry& a, const BugReportEntry& b) {
    if (a.devices.size() != b.devices.size()) {
      return a.devices.size() > b.devices.size();
    }
    if (a.occurrences != b.occurrences) {
      return a.occurrences > b.occurrences;
    }
    return a.api < b.api;
  });
  return sorted;
}

std::string HangBugReport::Render(int32_t total_devices) const {
  std::ostringstream out;
  out << "Hang Bug Report\n";
  out << "  app | blocking operation | call site | mean hang (ms) | occurrences | devices %\n";
  for (const BugReportEntry& entry : SortedEntries()) {
    double device_pct = total_devices > 0 ? 100.0 * static_cast<double>(entry.devices.size()) /
                                                static_cast<double>(total_devices)
                                          : 0.0;
    out << "  " << entry.app_package << " | " << entry.api
        << (entry.self_developed ? " [self-developed]" : "")
        << (entry.degraded ? " [degraded]" : "")
        << (entry.wait_site.empty() ? "" : " [via-wait " + entry.wait_site + "]") << " | "
        << entry.file << ":" << entry.line << " | "
        << static_cast<int64_t>(entry.MeanHangMs()) << " | " << entry.occurrences << " | "
        << static_cast<int64_t>(device_pct) << "%\n";
  }
  return out.str();
}

}  // namespace hangdoctor
