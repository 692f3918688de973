// The Hang Bug Report (Figure 2(b)): the developer-facing table of diagnosed soft hang bugs,
// ordered by the percentage of user devices that observed each bug. Reports from many devices
// merge into one fleet-wide report, which is how the "in the wild" study of Section 4.2 is
// aggregated.
#ifndef SRC_HANGDOCTOR_REPORT_H_
#define SRC_HANGDOCTOR_REPORT_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/hangdoctor/trace_analyzer.h"
#include "src/simkit/time.h"

namespace hangdoctor {

struct BugReportEntry {
  std::string app_package;
  std::string api;    // "clazz.function" of the culprit
  std::string file;   // call site
  int32_t line = 0;
  bool self_developed = false;
  // At least one occurrence was diagnosed while S-Checker ran degraded (timeout-only, no
  // counter vetting); consumers should weigh such entries accordingly.
  bool degraded = false;
  // Waiting-chain provenance: when the bug was attributed across an async wait, the
  // main-thread wait site ("clazz.function@File:line") the diagnosis walked through. Empty
  // for main-thread bugs, so pre-async reports render unchanged.
  std::string wait_site;
  int64_t occurrences = 0;  // soft hangs diagnosed to this bug
  std::set<int32_t> devices;
  simkit::SimDuration total_hang = 0;
  simkit::SimDuration max_hang = 0;

  double MeanHangMs() const {
    return occurrences == 0 ? 0.0 : simkit::ToMilliseconds(total_hang / occurrences);
  }
};

class HangBugReport {
 public:
  // Records one diagnosed soft hang bug occurrence observed on `device_id`. `symbols` is the
  // session's table, which resolves the diagnosis's frame ids; the entry keeps strings, so
  // the report outlives the table. `degraded` marks an occurrence diagnosed without counter
  // vetting (see BugReportEntry::degraded).
  void Record(const std::string& app_package, const Diagnosis& diagnosis,
              const telemetry::SymbolTable& symbols, simkit::SimDuration hang_duration,
              int32_t device_id, bool degraded = false);

  // Folds another device's (or fleet's) report into this one.
  void Merge(const HangBugReport& other);

  // Folds one exported entry back in — the wire-transport half of Merge(). The entry's
  // identity key is reconstructed from its own fields (api is exactly "clazz.function", so
  // app|api|file:line is the same string Record() keys a diagnosis by), which is what lets
  // a worker daemon ship its per-session reports to a fleetd coordinator and the folded
  // result stay bit-identical to an in-process Merge.
  void Absorb(const BugReportEntry& entry);

  // Every entry in identity-key order (deterministic; the wire serialization order).
  std::vector<BugReportEntry> Entries() const;

  // Entries sorted by device coverage (descending), then occurrences.
  std::vector<BugReportEntry> SortedEntries() const;

  size_t NumBugs() const { return entries_.size(); }

  // Renders the Figure 2(b)-style table. `total_devices` scales the device percentage.
  std::string Render(int32_t total_devices) const;

 private:
  // Folds `entry` into entries_ under its identity key, the one body Merge and Absorb share.
  // The first-folded wait_site wins.
  void Fold(const std::string& key, const BugReportEntry& entry);

  std::map<std::string, BugReportEntry> entries_;
};

}  // namespace hangdoctor

#endif  // SRC_HANGDOCTOR_REPORT_H_
