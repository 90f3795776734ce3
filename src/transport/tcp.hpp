// POSIX TCP transport: the real plumbing for cross-host deployments. The
// channel frames Messages (see message.hpp) on a blocking socket; timed
// receives and accepts wait in poll(2); an empty Accept(0) or TryReceive
// is one non-blocking accept/recv. Single-threaded use per side matches the
// rest of the system; Send is additionally mutex-guarded so a logger on
// another thread can share a channel safely.
#pragma once

#include <memory>
#include <string>

#include "transport/message.hpp"

namespace jamm::transport {

class TcpListener final : public Listener {
 public:
  /// Bind and listen on 127.0.0.1:`port`; port 0 picks a free port.
  static Result<std::unique_ptr<TcpListener>> Create(std::uint16_t port = 0);

  ~TcpListener() override;

  Result<std::unique_ptr<Channel>> Accept(Duration timeout) override;
  void Close() override;
  std::string address() const override;

  std::uint16_t port() const { return port_; }

 private:
  TcpListener(int fd, std::uint16_t port) : fd_(fd), port_(port) {}

  int fd_;
  std::uint16_t port_;
};

/// Connect to host:port (numeric IPv4 or "localhost").
Result<std::unique_ptr<Channel>> TcpDial(const std::string& host,
                                         std::uint16_t port,
                                         Duration timeout = 5 * kSecond);

}  // namespace jamm::transport
