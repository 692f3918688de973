#include "src/netd/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace netd {

NetClient::~NetClient() { Close(); }

NetClient::NetClient(NetClient&& other) noexcept
    : fd_(other.fd_), error_(std::move(other.error_)), splitter_(std::move(other.splitter_)) {
  other.fd_ = -1;
}

NetClient& NetClient::operator=(NetClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    error_ = std::move(other.error_);
    splitter_ = std::move(other.splitter_);
    other.fd_ = -1;
  }
  return *this;
}

bool NetClient::Connect(uint16_t port) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    error_ = "socket: " + std::string(std::strerror(errno));
    return false;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    error_ = "connect: " + std::string(std::strerror(errno));
    Close();
    return false;
  }
  return true;
}

void NetClient::Adopt(int fd) {
  Close();
  fd_ = fd;
}

bool NetClient::WriteAll(const char* data, size_t size, size_t chunk) {
  size_t off = 0;
  while (off < size) {
    size_t want = size - off;
    if (chunk > 0 && want > chunk) {
      want = chunk;
    }
    // MSG_NOSIGNAL: the server closing first (sticky reject, admission) must read as an
    // EPIPE error, not a SIGPIPE to the whole process.
    ssize_t n = send(fd_, data + off, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      error_ = "write: " + std::string(std::strerror(errno));
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool NetClient::SendHello(uint32_t version, HelloRole role) {
  std::string frame;
  AppendFrame(&frame, BuildHello(version, role));
  return WriteAll(frame.data(), frame.size(), 0);
}

bool NetClient::SendFrame(const std::string& payload, size_t chunk) {
  std::string frame;
  AppendFrame(&frame, payload);
  return WriteAll(frame.data(), frame.size(), chunk);
}

bool NetClient::SendTornFrame(const std::string& payload, size_t keep_bytes) {
  std::string frame;
  AppendFrame(&frame, payload);
  size_t prefix = frame.size() - payload.size();
  size_t keep = prefix + (keep_bytes < payload.size() ? keep_bytes : payload.size());
  if (!WriteAll(frame.data(), keep, 0)) {
    return false;
  }
  Close();
  return true;
}

bool NetClient::SendRaw(const std::string& bytes, size_t chunk) {
  return WriteAll(bytes.data(), bytes.size(), chunk);
}

bool NetClient::FillBuffer() {
  char buf[16 * 1024];
  for (;;) {
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      splitter_.Feed(buf, static_cast<size_t>(n));
      return true;
    }
    if (n == 0) {
      error_ = "connection closed";
      return false;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // A blocking recv reports EAGAIN only when SO_RCVTIMEO expired with nothing to read.
      error_ = "recv: timed out";
    } else {
      error_ = "recv: " + std::string(std::strerror(errno));
    }
    return false;
  }
}

bool NetClient::ReadReply(Reply* reply) {
  std::string payload;
  while (!splitter_.Next(&payload)) {
    if (!splitter_.ok()) {
      error_ = "reply stream: " + splitter_.error();
      return false;
    }
    if (fd_ < 0 || !FillBuffer()) {
      return false;
    }
  }
  return ParseReply(payload, reply, &error_);
}

bool NetClient::DrainReplies(std::vector<Reply>* replies) {
  if (fd_ >= 0) {
    while (true) {
      char buf[16 * 1024];
      ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n <= 0) {
        break;
      }
      splitter_.Feed(buf, static_cast<size_t>(n));
    }
  }
  std::string payload;
  while (splitter_.Next(&payload)) {
    Reply reply;
    if (!ParseReply(payload, &reply, &error_)) {
      return false;
    }
    replies->push_back(reply);
  }
  return splitter_.ok();
}

void NetClient::ShutdownWrite() {
  if (fd_ >= 0) {
    shutdown(fd_, SHUT_WR);
  }
}

void NetClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

}  // namespace netd
