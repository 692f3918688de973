// netd's side of the HDSL v3 stream. Each wire frame payload is exactly one mux-container
// frame, so a connection decodes with the container's own reader: MuxStreamDecoder and
// DecodedFrame live with the container grammar in src/hosts/mux_log.h, the one module that
// decides what a valid stream is, and are re-exported here under their netd names. What
// stays netd's own is the client-side inverse, ContainerToWireFrames.
#ifndef SRC_NETD_RECORD_CODEC_H_
#define SRC_NETD_RECORD_CODEC_H_

#include <string>
#include <vector>

#include "src/hosts/mux_log.h"

namespace netd {

using DecodedFrame = hangdoctor::DecodedFrame;
using MuxStreamDecoder = hangdoctor::MuxStreamDecoder;

// Splits a v3 container (magic + version + frames) into the per-frame wire payloads, in
// stream order, the final kEnd frame included. `frames[i]` starts at the frame's tag byte —
// exactly what a conforming client sends as wire frame i+1.
bool ContainerToWireFrames(const std::string& container, std::vector<std::string>* frames,
                           std::string* error);

}  // namespace netd

#endif  // SRC_NETD_RECORD_CODEC_H_
