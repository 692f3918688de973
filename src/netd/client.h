// Blocking client for the hangdoctord wire protocol: connect (or wrap an fd), HELLO, send
// container frames, collect replies. The chaos knobs exist for the loadgen and the
// determinism/fuzz batteries — a client that tears a frame mid-payload, writes one byte at a
// time, or drops the connection mid-session, so the daemon's sticky-reject and
// abort-without-collateral paths are exercised from a real socket.
#ifndef SRC_NETD_CLIENT_H_
#define SRC_NETD_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/netd/wire.h"

namespace netd {

class NetClient {
 public:
  NetClient() = default;
  ~NetClient();
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;
  NetClient(NetClient&& other) noexcept;
  NetClient& operator=(NetClient&& other) noexcept;

  // Connects to 127.0.0.1:port. Returns false (with error()) on failure.
  bool Connect(uint16_t port);
  // Wraps an already-connected fd (socketpair tests). Takes ownership.
  void Adopt(int fd);

  bool connected() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }
  int fd() const { return fd_; }

  // Sends the HELLO frame for `version`. The worker role is the fleetd coordinator link
  // (control frames + per-close kSessionResult replies); plain ingest keeps the default.
  bool SendHello(uint32_t version, HelloRole role = HelloRole::kClient);

  // Frames `payload` and writes it. chunk > 0 writes at most `chunk` bytes per syscall (the
  // 1-byte drip shape is chunk = 1).
  bool SendFrame(const std::string& payload, size_t chunk = 0);

  // Torn frame: writes the frame's length prefix plus only `keep_bytes` of the payload,
  // then hard-closes. The stream ends mid-frame, by construction.
  bool SendTornFrame(const std::string& payload, size_t keep_bytes);

  // Writes raw bytes with no framing (protocol-violation tests).
  bool SendRaw(const std::string& bytes, size_t chunk = 0);

  // Blocks until one complete reply frame arrives and decodes it. False on EOF, on a parse
  // error, and when the socket's SO_RCVTIMEO expires first (error() says "recv: timed out").
  bool ReadReply(Reply* reply);

  // Non-blocking sweep: decodes every reply currently queued in the socket.
  bool DrainReplies(std::vector<Reply>* replies);

  // Half-close the write side (the daemon sees EOF after the buffered bytes).
  void ShutdownWrite();
  void Close();

 private:
  bool WriteAll(const char* data, size_t size, size_t chunk);
  // One blocking recv into the splitter, retried on EINTR.
  bool FillBuffer();

  int fd_ = -1;
  std::string error_;
  FrameSplitter splitter_;
};

}  // namespace netd

#endif  // SRC_NETD_CLIENT_H_
