#include "xbs/net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

namespace xbs::net {

using namespace std::chrono_literals;

void NetClient::connect(const std::string& host, u16 port,
                        std::chrono::milliseconds retry_for) {
  disconnect();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::invalid_argument("NetClient: bad host address: " + host);
  }
  const auto deadline = std::chrono::steady_clock::now() + retry_for;
  while (true) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("NetClient: socket failed");
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) break;
    ::close(fd_);
    fd_ = -1;
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error("NetClient: connect timed out");
    }
    std::this_thread::sleep_for(5ms);  // the server may still be starting
  }
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // A dead server must not hang a blocking wait forever.
  timeval tv{};
  tv.tv_sec = 10;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  dec_ = FrameDecoder{};
  pending_.clear();
  std::vector<u8> buf;
  encode_hello(buf);
  send_all(buf);
  (void)wait_stats();  // ack = Hello
}

void NetClient::disconnect() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void NetClient::send_all(const std::vector<u8>& bytes) {
  if (fd_ < 0) throw std::runtime_error("NetClient: not connected");
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    disconnect();
    throw std::runtime_error("NetClient: send failed (connection lost)");
  }
}

bool NetClient::dispatch(const FrameHeader& hdr, const std::vector<u8>& payload,
                         StatsFrame& stats) {
  switch (hdr.type) {
    case FrameType::Event: {
      if (decode_events(payload, pending_) != WireError::None) {
        throw std::runtime_error("NetClient: malformed EVENT frame");
      }
      return false;
    }
    case FrameType::Stats: {
      if (decode_stats(payload, stats) != WireError::None) {
        throw std::runtime_error("NetClient: malformed STATS frame");
      }
      return true;
    }
    case FrameType::Error: {
      ErrorFrame e;
      if (decode_error(payload, e) != WireError::None) {
        throw std::runtime_error("NetClient: malformed ERROR frame");
      }
      if (is_fatal(e.code)) disconnect();  // the server hung up after this
      throw RemoteError(e.code, std::string(to_string(e.code)) + ": " + e.message);
    }
    default:
      throw std::runtime_error("NetClient: unexpected server frame");
  }
}

void NetClient::poll_socket() {
  u8 buf[16384];
  while (fd_ >= 0) {
    const ssize_t r = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (r > 0) {
      dec_.feed(std::span<const u8>(buf, static_cast<std::size_t>(r)));
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (r < 0 && errno == EINTR) continue;
    disconnect();  // EOF or hard error
    return;
  }
}

StatsFrame NetClient::wait_stats() {
  FrameHeader hdr;
  std::vector<u8> payload;
  WireError err = WireError::None;
  u8 buf[16384];
  while (true) {
    while (true) {
      const FrameDecoder::Next nx = dec_.next(hdr, payload, err);
      if (nx == FrameDecoder::Next::NeedMore) break;
      if (nx == FrameDecoder::Next::Error) {
        disconnect();
        throw std::runtime_error(std::string("NetClient: framing error: ") +
                                 to_string(err));
      }
      StatsFrame stats;
      if (dispatch(hdr, payload, stats)) return stats;
    }
    if (fd_ < 0) throw std::runtime_error("NetClient: connection closed");
    const ssize_t r = ::recv(fd_, buf, sizeof buf, 0);
    if (r > 0) {
      dec_.feed(std::span<const u8>(buf, static_cast<std::size_t>(r)));
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    disconnect();
    throw std::runtime_error(r == 0 ? "NetClient: connection closed"
                                    : "NetClient: receive failed/timed out");
  }
}

StatsFrame NetClient::open(const OpenFrame& frame, std::chrono::milliseconds busy_retry_for) {
  const auto deadline = std::chrono::steady_clock::now() + busy_retry_for;
  while (true) {
    std::vector<u8> buf;
    encode_open(buf, frame);
    send_all(buf);
    try {
      return wait_stats();
    } catch (const RemoteError& e) {
      // The reconnect race: the previous connection's park has not landed
      // yet. Non-fatal — retry on the same healthy connection.
      if (e.code() != WireError::SessionBusy ||
          std::chrono::steady_clock::now() >= deadline) {
        throw;
      }
      std::this_thread::sleep_for(5ms);
    }
  }
}

void NetClient::send_chunk(std::span<const i32> samples) {
  std::vector<u8> buf;
  encode_chunk(buf, samples);
  send_all(buf);
}

StatsFrame NetClient::drain(u32 timeout_ms) {
  std::vector<u8> buf;
  encode_drain(buf, timeout_ms);
  send_all(buf);
  return wait_stats();
}

StatsFrame NetClient::close_session() {
  std::vector<u8> buf;
  encode_close(buf);
  send_all(buf);
  return wait_stats();
}

std::size_t NetClient::take_events(std::vector<stream::Event>& out) {
  poll_socket();
  FrameHeader hdr;
  std::vector<u8> payload;
  WireError err = WireError::None;
  while (true) {
    const FrameDecoder::Next nx = dec_.next(hdr, payload, err);
    if (nx == FrameDecoder::Next::NeedMore) break;
    if (nx == FrameDecoder::Next::Error) {
      disconnect();
      throw std::runtime_error(std::string("NetClient: framing error: ") +
                               to_string(err));
    }
    StatsFrame stats;
    (void)dispatch(hdr, payload, stats);  // unsolicited STATS is dropped
  }
  const std::size_t n = pending_.size();
  out.insert(out.end(), pending_.begin(), pending_.end());
  pending_.clear();
  return n;
}

}  // namespace xbs::net
