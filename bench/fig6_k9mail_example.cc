// Reproduces Figure 6 of the paper: the end-to-end K9-mail walkthrough. The user opens heavy
// HTML emails; (a) S-Checker observes a >100 ms input event and a positive context-switch
// difference at action end, marking Open-Email Suspicious; (b) at a later soft hang the
// Diagnoser collects stack traces, finds `clean(HtmlSanitizer.java:25)` with a ~96% occurrence
// factor, and confirms the soft hang bug (paper's hang: 1.3 s, 62 traces).
#include <cstdio>
#include <map>

#include "src/hosts/hang_doctor.h"
#include "src/workload/catalog.h"
#include "src/workload/user_model.h"

int main() {
  workload::Catalog catalog;
  const droidsim::AppSpec* spec = catalog.FindApp("K9-Mail");
  droidsim::Phone phone(droidsim::LgV10(), /*seed=*/21);
  droidsim::App* app = phone.InstallApp(spec);
  hangdoctor::HangDoctorConfig config;
  config.keep_traces = true;
  hangdoctor::HangDoctor doctor(&phone, app, config);

  int32_t open_email = -1;
  for (int32_t i = 0; i < app->num_actions(); ++i) {
    if (app->action(i).name == "OpenEmail") {
      open_email = i;
    }
  }
  // The user keeps opening emails until the bug is diagnosed.
  workload::UserSessionConfig user_config;
  user_config.mean_think = simkit::Seconds(2);
  user_config.min_think = simkit::Seconds(2);
  workload::UserSession user(&phone, app, std::vector<int32_t>(30, open_email), user_config);
  phone.RunFor(simkit::Seconds(90));

  std::printf("=== Figure 6: runtime detection walkthrough on K9-Mail ===\n\n");
  std::printf("(a) per-execution trail of the Open-Email action:\n");
  const hangdoctor::ExecutionRecord* diagnosed = nullptr;
  for (const hangdoctor::ExecutionRecord& record : doctor.log()) {
    if (record.action_uid != open_email) {
      continue;
    }
    std::printf("  exec %2ld: response %6.0f ms, state=%-13s -> %-17s ctx-diff=%+.0f\n",
                static_cast<long>(record.execution_id),
                simkit::ToMilliseconds(record.response),
                hangdoctor::ActionStateName(record.state_before),
                hangdoctor::VerdictName(record.verdict),
                record.SCheckerDiff(telemetry::PerfEventType::kContextSwitches));
    if (record.verdict == hangdoctor::Verdict::kDiagnosedBug && diagnosed == nullptr) {
      diagnosed = &record;
    }
  }
  if (diagnosed == nullptr) {
    std::printf("  !! the bug was never diagnosed (unexpected)\n");
    return 1;
  }

  std::printf("\n(b) stack traces collected during the diagnosing soft hang "
              "(%zu traces, response %.0f ms):\n",
              diagnosed->traces.size(), simkit::ToMilliseconds(diagnosed->response));
  size_t shown = 0;
  for (size_t i = 0; i < diagnosed->traces.size(); ++i) {
    if (i > 2 && i + 3 < diagnosed->traces.size()) {
      if (shown == 3) {
        std::printf("  ....\n");
        ++shown;
      }
      continue;
    }
    const telemetry::StackTrace& trace = diagnosed->traces[i];
    std::printf("  [ST %2zu] ", i + 1);
    for (size_t f = trace.frames.size(); f > 0; --f) {
      std::printf("%s%s",
                  telemetry::FormatFrame(app->symbols().Frame(trace.frames[f - 1])).c_str(),
                  f > 1 ? " -> " : "");
    }
    std::printf("\n");
    ++shown;
  }
  const telemetry::StackFrame& culprit = app->symbols().Frame(diagnosed->diagnosis.culprit);
  std::printf("\nDiagnosis: culprit %s.%s (%s:%d), occurrence factor %.0f%%%s\n",
              culprit.clazz.c_str(), culprit.function.c_str(), culprit.file.c_str(),
              culprit.line, 100.0 * diagnosed->diagnosis.occurrence_factor,
              diagnosed->diagnosis.is_ui ? " [UI]" : " [soft hang bug]");
  std::printf("paper: clean(HtmlSanitizer.java:25), occurrence factor 96%%, hang 1.3 s\n");
  return 0;
}
