// Fleet load generator: replays recorded HDSL session logs against a hangdoctord endpoint
// over N concurrent connections — the client half of the wire determinism contract, and the
// chaos driver for the disconnect/slow-write/torn-frame fault families.
//
// Sessions are assigned to connections round-robin by index; each connection multiplexes its
// sessions into one v3 container (src/hosts/mux_log.h round-robin schedule, the same
// interleaving a live device pool produces) and streams it frame by frame. The chaos plan is
// a pure function of (seed, connection index) via simkit::Rng forking, so a failing topology
// reproduces exactly.
#ifndef SRC_NETD_LOADGEN_H_
#define SRC_NETD_LOADGEN_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/hosts/mux_log.h"
#include "src/netd/wire.h"

namespace netd {

struct LoadGenOptions {
  int32_t connections = 1;
  // Frames per second per connection; 0 = as fast as the socket accepts.
  double rate = 0.0;
  // Bytes per write syscall (slow-write shape); 0 = whole frames.
  size_t chunk = 0;
  // Chaos: each connection drops mid-stream with probability 1/2, at a plan-chosen frame —
  // torn mid-frame (half of those) or cleanly between frames. Chaos never touches
  // connections the plan spares, which is what lets the determinism battery demand
  // bit-identity for every session on a calm connection.
  bool chaos = false;
  uint64_t seed = 1;
};

struct ConnectionOutcome {
  std::vector<uint64_t> sessions;  // session ids assigned to this connection
  bool chaos_disconnect = false;   // the plan dropped this connection mid-stream
  bool chaos_torn = false;         // ... tearing a frame in half on the way out
  size_t frames_sent = 0;
  bool completed = false;  // sent BYE and saw kBye
  std::vector<Reply> replies;
  std::string error;
};

struct LoadGenResult {
  std::vector<ConnectionOutcome> connections;
  int64_t sessions_closed = 0;  // kSessionClosed replies observed fleet-wide
  int64_t busy = 0;             // kBusy replies (admission refusals)
  int64_t errors = 0;           // kError replies (sticky protocol rejections)
};

// Runs the full replay against 127.0.0.1:port; blocks until every connection finished (or
// chaos-dropped). One thread per connection.
LoadGenResult RunLoadGen(uint16_t port, std::span<const hangdoctor::SessionLogSlice> sessions,
                         const LoadGenOptions& options);

}  // namespace netd

#endif  // SRC_NETD_LOADGEN_H_
