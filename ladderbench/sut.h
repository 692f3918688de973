// The system-under-test side of the layer-ladder benchmark, and the load that drives it.
//
// The benchmark forks one helper process before it generates any input, so the helper's
// CPU time and peak RSS are the system's own: they exclude input generation, the load
// generator and the output checks. The parent talks to it over a pair of pipes (Channel)
// and the helper hosts, on command:
//   - daemon lifetimes of a hangdoctord-shaped NetServer (2 epoll workers, rings = shards =
//     workers): the parent's wire load generator (RunWireLoad) streams a fixed number of
//     sessions into it over loopback TCP; then the helper drains it as hangdoctord does
//     (Stop, one TakeResults), so it retains every outcome until then, and checks every
//     pass against the oracle;
//   - fleetd passes: a Coordinator plus 2 in-process worker daemons routing the recorded
//     frames, with one planned drain-migration at half the frames;
//   - simulate passes: workload::RunFleet over the seeded study fleet.
#ifndef LADDERBENCH_SUT_H_
#define LADDERBENCH_SUT_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "trace.h"

namespace ladder {

// One end of a bidirectional, length-prefixed message pipe.
class Channel {
 public:
  Channel(int read_fd, int write_fd) : read_fd_(read_fd), write_fd_(write_fd) {}
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  bool Send(const std::string& message);
  bool Receive(std::string* message);

 private:
  int read_fd_;
  int write_fd_;
};

// A forked process running `body` with its end of a channel; the parent keeps the other.
struct Child {
  pid_t pid = -1;
  std::unique_ptr<Channel> channel;
};
Child ForkChild(const std::function<int(Channel&)>& body);
// Waits for the child and returns its exit status (-1 when it did not exit normally).
int WaitChild(pid_t pid);

// The helper's command loop (see the file comment). Returns its exit code.
int SutMain(Channel& channel, const std::string& trace_dir);

// Sends one command and returns the helper's reply as metrics; throws on a broken channel.
Metrics Call(Channel& channel, const std::string& command, const std::string& payload = "");

// Serializes a session set's frames (and the oracle render) for the fleetd command.
std::string EncodeFrames(const SessionSet& set, const std::string& oracle);

struct WireResult {
  int64_t closed = 0;    // kSessionClosed with stream_ok
  int64_t refused = 0;   // kBusy
  int64_t errors = 0;    // kError, !stream_ok, broken connections
  double wall_s = 0.0;   // first byte sent .. last verdict received
  double send_s = 0.0;   // summed sender thread time
  double send_blocked_s = 0.0;  // of which inside NetClient writes
  int64_t frames = 0;
  int64_t bytes = 0;
  double steal_s = 0.0;   // StealSeconds() that passed while the load ran
  std::vector<double> verdict_ms;  // close frame sent -> kSessionClosed
};

// Closed-loop wire load: streams `sessions` sessions (whole passes over `set`, fresh session
// ids 1..sessions, 8 in flight per connection), then says BYE on every connection. It opens
// min(2, nproc / 2) connections (at least 1), each with a sender and a reader thread, so it
// never runs more threads than nproc.
WireResult RunWireLoad(uint16_t port, const SessionSet& set, int64_t sessions,
                       SpanRecorder* spans);

}  // namespace ladder

#endif  // LADDERBENCH_SUT_H_
