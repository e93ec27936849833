#include "svc/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace droplens::svc {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("svc transport: " + what + ": " +
                           std::strerror(errno));
}

// Retries short writes and EINTR; MSG_NOSIGNAL keeps a dead peer from
// raising SIGPIPE. Returns false when the peer is gone.
bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

TraceBinding::TraceBinding(const std::string& name) {
  recorder = obs::installed_flight_recorder();
  if (recorder) {
    op = recorder->op_class(name.empty() ? "server" : name);
  }
}

AcceptAction accept_errno_action(int err) {
  switch (err) {
    case EINTR:
    case ECONNABORTED:  // peer gave up during the handshake
    case EPROTO:
      return AcceptAction::kRetry;
    case EAGAIN:  // nonblocking listener drained (also EWOULDBLOCK)
      return AcceptAction::kRetry;
    case EMFILE:  // fd exhaustion: retrying instantly would spin; back off
    case ENFILE:
    case ENOBUFS:
    case ENOMEM:
      return AcceptAction::kRetryBackoff;
    default:
      // EBADF / EINVAL / ENOTSOCK: the listening socket itself is gone.
      return AcceptAction::kFatal;
  }
}

TcpClientConnection::TcpClientConnection(const std::string& host,
                                         uint16_t port, Framer framer)
    : framer_(std::move(framer)) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    throw std::runtime_error("svc transport: bad address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    int saved = errno;
    ::close(fd_);
    errno = saved;
    fail("connect");
  }
}

TcpClientConnection::~TcpClientConnection() {
  if (fd_ >= 0) ::close(fd_);
}

std::string TcpClientConnection::roundtrip(std::string_view message) {
  if (!write_all(fd_, message)) fail("send");
  char chunk[kReadChunk];
  while (true) {
    size_t n = framer_(buffer_);  // ParseError here means a broken server
    if (n > 0) {
      std::string response = buffer_.substr(0, n);
      buffer_.erase(0, n);
      return response;
    }
    ssize_t got = ::read(fd_, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      throw std::runtime_error("svc transport: connection closed mid-response");
    }
    buffer_.append(chunk, static_cast<size_t>(got));
  }
}

}  // namespace droplens::svc
