#include "transport/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>

namespace jamm::transport {
namespace {

std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Wait for readability/writability with a µs timeout. Returns false on
/// timeout.
bool PollFd(int fd, short events, Duration timeout) {
  pollfd pfd{fd, events, 0};
  const int ms = timeout < 0 ? -1
                             : static_cast<int>((timeout + kMillisecond - 1) /
                                                kMillisecond);
  const int rc = ::poll(&pfd, 1, ms);
  return rc > 0;
}

class TcpChannel final : public Channel {
 public:
  TcpChannel(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpChannel() override { Close(); }

  Status Send(const Message& msg) override {
    const std::string frame = EncodeFrame(msg);
    std::lock_guard lock(send_mu_);
    if (fd_ < 0) return Status::Unavailable("channel closed: " + peer_);
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n =
          ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Unavailable(ErrnoMessage("send"));
      }
      sent += static_cast<std::size_t>(n);
    }
    return Status::Ok();
  }

  Result<Message> Receive(Duration timeout) override {
    // Repeatedly: try decoding from the buffer; otherwise read more.
    while (true) {
      auto msg = TakeFrame();
      if (msg.status().code() != StatusCode::kNotFound) return msg;
      if (fd_ < 0) return Status::Unavailable("channel closed: " + peer_);
      if (!PollFd(fd_, POLLIN, timeout)) {
        return Status::Timeout("no data within timeout from " + peer_);
      }
      const ssize_t n = RecvChunk(0);
      if (n == 0) {
        return Status::Unavailable("peer closed: " + peer_);
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Unavailable(ErrnoMessage("recv"));
      }
    }
  }

  std::optional<Message> TryReceive() override {
    // Frames already buffered cost no syscall; otherwise read what the
    // socket holds. An empty poll is one recv that answers EAGAIN.
    while (true) {
      auto msg = TakeFrame();
      if (msg.ok()) return std::move(*msg);
      if (msg.status().code() != StatusCode::kNotFound || fd_ < 0 ||
          RecvChunk(MSG_DONTWAIT) <= 0) {
        return std::nullopt;
      }
    }
  }

  void Close() override {
    std::lock_guard lock(send_mu_);
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool IsOpen() const override { return fd_ >= 0; }

  std::string peer() const override { return peer_; }

 private:
  /// One recv into recv_buf_; returns its result.
  ssize_t RecvChunk(int flags) {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), flags);
    if (n > 0) recv_buf_.append(chunk, static_cast<std::size_t>(n));
    return n;
  }

  /// Decodes the next buffered frame, dropping its bytes; NotFound until
  /// a whole frame has arrived.
  Result<Message> TakeFrame() {
    std::size_t offset = 0;
    auto msg = DecodeFrame(recv_buf_, &offset);
    if (msg.ok()) recv_buf_.erase(0, offset);
    return msg;
  }

  int fd_;
  std::string peer_;
  std::string recv_buf_;
  std::mutex send_mu_;
};

std::string PeerName(const sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = "?";
  ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

Result<std::unique_ptr<TcpListener>> TcpListener::Create(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable(ErrnoMessage("socket"));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::Unavailable(ErrnoMessage("bind"));
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    return Status::Unavailable(ErrnoMessage("listen"));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    return Status::Unavailable(ErrnoMessage("getsockname"));
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(addr.sin_port)));
}

TcpListener::~TcpListener() { Close(); }

Result<std::unique_ptr<Channel>> TcpListener::Accept(Duration timeout) {
  while (true) {
    if (fd_ < 0) return Status::Unavailable("listener closed");
    // A poll skips poll(2): the listening socket is non-blocking (Create),
    // so an empty accept answers EAGAIN at once. The accepted socket does
    // not inherit that.
    if (timeout != 0 && !PollFd(fd_, POLLIN, timeout)) {
      return Status::Timeout("no inbound connection on port " +
                             std::to_string(port_));
    }
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    const int client = ::accept(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    if (client >= 0) {
      return std::unique_ptr<Channel>(new TcpChannel(client, PeerName(addr)));
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != ECONNABORTED) {
      return Status::Unavailable(ErrnoMessage("accept"));
    }
    // Short enough for the string's inline buffer: an empty poll does not
    // allocate.
    if (timeout == 0) return Status::Timeout("no connection");
    // The connection poll saw was reset before it was taken; a blocking
    // accept waits for the next one.
    if (timeout > 0) {
      return Status::Timeout("inbound connection aborted on port " +
                             std::to_string(port_));
    }
  }
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string TcpListener::address() const {
  return "127.0.0.1:" + std::to_string(port_);
}

Result<std::unique_ptr<Channel>> TcpDial(const std::string& host,
                                         std::uint16_t port,
                                         Duration timeout) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string ip = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable(ErrnoMessage("socket"));
  // Non-blocking connect with poll so dial honors the timeout.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    return Status::Unavailable(ErrnoMessage("connect"));
  }
  if (rc < 0) {
    if (!PollFd(fd, POLLOUT, timeout)) {
      ::close(fd);
      return Status::Timeout("connect timeout to " + host + ":" +
                             std::to_string(port));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      return Status::Unavailable("connect failed: " +
                                 std::string(std::strerror(err)));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking
  return std::unique_ptr<Channel>(
      new TcpChannel(fd, ip + ":" + std::to_string(port)));
}

}  // namespace jamm::transport
