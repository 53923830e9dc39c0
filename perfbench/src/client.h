// The benchmark's loopback HTTP client.
//
// It performs webapp::FetchOverLoopback's exchange — one connection per
// request, the request from webapp::SerializeRequest, the reply read to EOF
// and decoded by webapp::ParseResponse — but connects from a rotating set
// of 127/8 source addresses. The server closes every connection first, so
// each request leaves a TIME_WAIT socket on the server side for a minute;
// from the single address 127.0.0.1, a few thousand requests per second
// run through the ~28k ephemeral ports within that minute, a new
// connection then reuses the 4-tuple of a TIME_WAIT socket, and its SYN is
// retransmitted after a second. Those one-second stalls measure the
// kernel's port reuse, not Dash, so each client spreads its connections
// over 64 source addresses of its own, as distinct users would arrive.
#pragma once

#include <arpa/inet.h>
#include <cerrno>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "webapp/http.h"

#ifndef IP_BIND_ADDRESS_NO_PORT
#define IP_BIND_ADDRESS_NO_PORT 24  // linux/in.h
#endif

namespace perfbench {

class LoopbackClient {
 public:
  // `id` selects the client's own block of source addresses (0-255).
  LoopbackClient(int port, std::uint32_t id) : port_(port), id_(id & 0xff) {}

  std::optional<dash::webapp::HttpResponse> Fetch(std::string_view target) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return std::nullopt;
    std::optional<dash::webapp::HttpResponse> response = Exchange(fd, target);
    ::close(fd);
    return response;
  }

 private:
  std::optional<dash::webapp::HttpResponse> Exchange(int fd,
                                                     std::string_view target) {
    // Source 127.1.<id>.<1..64>; the port is chosen at connect time, where
    // the kernel checks the whole 4-tuple.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_IP, IP_BIND_ADDRESS_NO_PORT, &one, sizeof one);
    sockaddr_in source{};
    source.sin_family = AF_INET;
    source.sin_addr.s_addr =
        htonl((127u << 24) | (1u << 16) | (id_ << 8) | (1 + next_++ % 64));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&source), sizeof source) != 0) {
      return std::nullopt;
    }
    sockaddr_in server{};
    server.sin_family = AF_INET;
    server.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    server.sin_port = htons(static_cast<std::uint16_t>(port_));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&server), sizeof server) != 0) {
      return std::nullopt;
    }
    const std::string request =
        dash::webapp::SerializeRequest(dash::webapp::ParseUrl(target));
    for (std::size_t sent = 0; sent < request.size();) {
      ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                         MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      sent += static_cast<std::size_t>(n);
    }
    std::string reply;
    char chunk[4096];
    for (;;) {
      ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      reply.append(chunk, static_cast<std::size_t>(n));
    }
    return dash::webapp::ParseResponse(reply);
  }

  int port_;
  std::uint32_t id_;
  std::uint32_t next_ = 0;
};

}  // namespace perfbench
