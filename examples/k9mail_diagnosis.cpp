// Walkthrough of a single diagnosis, mirroring the paper's Section 4.3 narrative: a user
// opens heavy HTML emails in K9-mail; Hang Doctor first filters the UI actions, marks
// Open-Email Suspicious, then collects stack traces during the next hang and pins the blame
// on HtmlCleaner.clean — an API nobody knew was blocking.
#include <cstdio>

#include "src/hosts/hang_doctor.h"
#include "src/workload/catalog.h"
#include "src/workload/user_model.h"

int main() {
  workload::Catalog catalog;
  const droidsim::AppSpec* k9 = catalog.FindApp("K9-Mail");
  droidsim::Phone phone(droidsim::LgV10(), /*seed=*/2026);
  droidsim::App* app = phone.InstallApp(k9);

  hangdoctor::HangDoctorConfig config;
  config.keep_traces = true;
  hangdoctor::BlockingApiDatabase database = catalog.MakeKnownDatabase();
  hangdoctor::HangDoctor doctor(&phone, app, config, &database);

  std::printf("Simulating 3 minutes of a K9-mail user on a %s...\n\n",
              phone.profile().model.c_str());
  workload::UserSession user(&phone, app, phone.ForkRng(9));
  phone.RunFor(simkit::Seconds(180));

  std::printf("Action states after the session:\n");
  for (int32_t uid = 0; uid < app->num_actions(); ++uid) {
    const hangdoctor::ActionInfo* info = doctor.actions().Find(uid);
    std::printf("  %-10s %-13s (%ld executions, %ld hangs, traced %ld times)\n",
                app->action(uid).name.c_str(), hangdoctor::ActionStateName(info->state),
                static_cast<long>(info->executions), static_cast<long>(info->hangs_observed),
                static_cast<long>(info->times_traced));
  }

  std::printf("\nDiagnosed soft hang bugs:\n%s\n",
              doctor.local_report().Render(/*total_devices=*/1).c_str());
  std::printf("APIs newly learned as blocking (now visible to offline detectors):\n");
  for (const std::string& api : database.discovered()) {
    std::printf("  %s\n", api.c_str());
  }

  // Show one captured stack trace for the star of the show.
  for (const hangdoctor::ExecutionRecord& record : doctor.log()) {
    if (record.verdict != hangdoctor::Verdict::kDiagnosedBug || record.traces.empty()) {
      continue;
    }
    if (app->symbols().Frame(record.diagnosis.culprit).function != "clean") {
      continue;
    }
    std::printf("\nA stack trace from the diagnosing hang (%zu collected, occurrence %.0f%%):\n",
                record.traces.size(), 100.0 * record.diagnosis.occurrence_factor);
    const telemetry::StackTrace& trace = record.traces[record.traces.size() / 2];
    for (size_t i = trace.frames.size(); i > 0; --i) {
      const telemetry::StackFrame& frame = app->symbols().Frame(trace.frames[i - 1]);
      std::printf("    at %s %s\n", frame.clazz.c_str(), telemetry::FormatFrame(frame).c_str());
    }
    break;
  }
  return 0;
}
