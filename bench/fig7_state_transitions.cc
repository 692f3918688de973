// Reproduces Figure 7 of the paper: how action states prune the cost of UI false positives.
// The user alternates K9-mail's Folders and Inbox actions. Folders hangs on ordinary layout
// work and S-Checker sends it straight to Normal (no stack traces, ever). Inbox hangs on an
// image-grid bind whose page-fault difference exceeds the threshold — an S-Checker false
// positive — so it goes to Suspicious; on its next hang the Diagnoser collects traces, sees
// only UI frames, and sends it to Normal too (path B). Subsequent executions of both actions
// cost nothing.
#include <cstdio>

#include "src/hosts/hang_doctor.h"
#include "src/workload/catalog.h"
#include "src/workload/user_model.h"

int main() {
  workload::Catalog catalog;
  const droidsim::AppSpec* spec = catalog.FindApp("K9-Mail");
  droidsim::Phone phone(droidsim::LgV10(), /*seed=*/33);
  droidsim::App* app = phone.InstallApp(spec);
  hangdoctor::HangDoctor doctor(&phone, app, hangdoctor::HangDoctorConfig{});

  int32_t folders = -1;
  int32_t inbox = -1;
  for (int32_t i = 0; i < app->num_actions(); ++i) {
    if (app->action(i).name == "Folders") {
      folders = i;
    }
    if (app->action(i).name == "Inbox") {
      inbox = i;
    }
  }
  std::vector<int32_t> script = {folders, inbox, folders, inbox, folders, inbox,
                                 inbox,   folders, inbox, folders};
  workload::UserSessionConfig user_config;
  user_config.mean_think = simkit::Seconds(2);
  user_config.min_think = simkit::Seconds(2);
  workload::UserSession user(&phone, app, script, user_config);
  phone.RunFor(simkit::Seconds(40));

  std::printf("=== Figure 7: action-state transitions pruning UI false positives ===\n\n");
  std::printf("  %-5s %-8s %9s  %-13s %-17s %s\n", "exec", "action", "resp(ms)", "state",
              "verdict", "page-fault diff (thr. 500)");
  for (const hangdoctor::ExecutionRecord& record : doctor.log()) {
    if (record.action_uid != folders && record.action_uid != inbox) {
      continue;
    }
    const char* name = record.action_uid == folders ? "Folders" : "Inbox";
    double page_diff = record.SCheckerDiff(telemetry::PerfEventType::kPageFaults);
    std::printf("  %-5ld %-8s %9.0f  %-13s %-17s %s\n",
                static_cast<long>(record.execution_id), name,
                simkit::ToMilliseconds(record.response),
                hangdoctor::ActionStateName(record.state_before),
                hangdoctor::VerdictName(record.verdict),
                record.schecker_ran ? (page_diff > 500 ? "above" : "below") : "-");
  }
  std::printf("\nstate transitions:\n");
  for (const hangdoctor::StateTransition& transition : doctor.actions().transitions()) {
    std::printf("  t=%5.1fs %-8s %s -> %s (%s)\n", simkit::ToSeconds(transition.time),
                app->action(transition.action_uid).name.c_str(),
                hangdoctor::ActionStateName(transition.from),
                hangdoctor::ActionStateName(transition.to), transition.reason.c_str());
  }
  std::printf("\nstack-trace collections paid: %ld (paper: one, for Inbox's single Suspicious "
              "hang; Folders never traced)\n",
              static_cast<long>(doctor.log().size() > 0 ? [&] {
                int64_t traced = 0;
                for (const hangdoctor::ExecutionRecord& record : doctor.log()) {
                  traced += record.traced ? 1 : 0;
                }
                return traced;
              }() : 0));
  return 0;
}
