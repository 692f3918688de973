// Wire serialization for a harvested hangdoctor::SessionResult — the payload of the
// kSessionResult reply a worker-role daemon sends its fleetd coordinator at session close.
//
// The codec carries everything the coordinator needs to fold worker results into the fleet
// output bit-identically to the in-process oracle: identity (id, app, device), stream
// health, the full Hang Bug Report (entries with device sets and hang durations — Absorb()
// rebuilds the keyed map exactly), degradation counters, overhead, discovered blocking
// APIs, and knowledge-base stats. It deliberately does NOT carry the session's execution
// log: the log is the heavyweight per-session artifact, the coordinator already holds the
// authoritative HDSL byte stream it routed (its migration tap), and no fleet-level fold
// reads the log — shipping it would make every close O(session length) on the wire.
//
// Encoding: the HDSL byte codec (src/telemetry/bytes.h varints and length-prefixed strings),
// with zigzag for the int64 duration/counter fields so the codec never depends on a field
// staying non-negative. Decode is total: any truncation or trailing garbage fails with a
// one-line reason and no partial mutation of the output.
#ifndef SRC_NETD_RESULT_CODEC_H_
#define SRC_NETD_RESULT_CODEC_H_

#include <string>

#include "src/hangdoctor/detector_service.h"

namespace netd {

std::string EncodeSessionResult(const hangdoctor::SessionResult& result);
bool DecodeSessionResult(const std::string& bytes, hangdoctor::SessionResult* result,
                         std::string* error);

}  // namespace netd

#endif  // SRC_NETD_RESULT_CODEC_H_
