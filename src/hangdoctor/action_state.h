// The per-action state machine of Figure 3. Every user action starts Uncategorized; S-Checker
// moves it to Normal (no symptoms) or Suspicious (symptoms); Diagnoser moves Suspicious
// actions to Normal (path B, UI operation) or Hang Bug (path C). Normal actions are
// periodically reset to Uncategorized so late-manifesting bugs get re-examined.
#ifndef SRC_HANGDOCTOR_ACTION_STATE_H_
#define SRC_HANGDOCTOR_ACTION_STATE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/simkit/time.h"

namespace hangdoctor {

enum class ActionState : uint8_t {
  kUncategorized,
  kNormal,
  kSuspicious,
  kHangBug,
};

inline const char* ActionStateName(ActionState state) {
  switch (state) {
    case ActionState::kUncategorized:
      return "Uncategorized";
    case ActionState::kNormal:
      return "Normal";
    case ActionState::kSuspicious:
      return "Suspicious";
    case ActionState::kHangBug:
      return "HangBug";
  }
  return "?";
}

struct ActionInfo {
  ActionState state = ActionState::kUncategorized;
  int64_t executions = 0;
  // Executions observed since the action became Normal (drives the periodic reset).
  int64_t normal_streak = 0;
  int64_t hangs_observed = 0;
  int64_t times_traced = 0;
};

struct StateTransition {
  simkit::SimTime time = 0;
  int32_t action_uid = -1;
  ActionState from = ActionState::kUncategorized;
  ActionState to = ActionState::kUncategorized;
  std::string reason;
};

// The runtime look-up table the App Injector seeds with one entry per action UID.
class ActionTable {
 public:
  explicit ActionTable(int32_t reset_after_normal_executions = 20)
      : reset_after_(reset_after_normal_executions) {}

  ActionInfo& Lookup(int32_t uid) { return infos_.try_emplace(uid).first->second; }
  const ActionInfo* Find(int32_t uid) const {
    auto it = infos_.find(uid);
    return it == infos_.end() ? nullptr : &it->second;
  }

  void Transition(simkit::SimTime now, int32_t uid, ActionState to, const std::string& reason) {
    ActionInfo& info = Lookup(uid);
    if (info.state == to) {
      return;
    }
    transitions_.push_back(StateTransition{now, uid, info.state, to, reason});
    info.state = to;
    if (to == ActionState::kNormal) {
      info.normal_streak = 0;
    }
  }

  // Counts an execution of a Normal action; resets to Uncategorized after the streak limit.
  void CountNormalExecution(simkit::SimTime now, int32_t uid) {
    ActionInfo& info = Lookup(uid);
    if (info.state != ActionState::kNormal) {
      return;
    }
    if (++info.normal_streak >= reset_after_) {
      Transition(now, uid, ActionState::kUncategorized, "periodic reset");
    }
  }

  const std::vector<StateTransition>& transitions() const { return transitions_; }
  size_t size() const { return infos_.size(); }

 private:
  int32_t reset_after_;
  std::unordered_map<int32_t, ActionInfo> infos_;
  std::vector<StateTransition> transitions_;
};

}  // namespace hangdoctor

#endif  // SRC_HANGDOCTOR_ACTION_STATE_H_
