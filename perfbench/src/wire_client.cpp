#include "wire_client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

#include "trace.hpp"

namespace perfbench {

using namespace xbs;

WireConn::WireConn(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("WireConn: socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  (void)::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw std::runtime_error("WireConn: connect failed");
  }
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  (void)::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  net::encode_hello(out_);
  (void)wait_stats();
}

WireConn::~WireConn() {
  if (fd_ >= 0) ::close(fd_);
}

void WireConn::queue_chunk(std::span<const i32> samples) { net::encode_chunk(out_, samples); }

void WireConn::send_some() {
  while (out_off_ < out_.size()) {
    const ssize_t w = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      out_off_ += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (w < 0 && errno == EINTR) continue;
    error_ = "send failed";
    break;
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  } else if (out_off_ > (1u << 20)) {
    out_.erase(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(out_off_));
    out_off_ = 0;
  }
}

void WireConn::read_some() {
  u8 buf[65536];
  while (true) {
    const ssize_t r = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (r > 0) {
      const std::int64_t t = now_ns();
      dec_.feed(std::span<const u8>(buf, static_cast<std::size_t>(r)));
      net::FrameHeader hdr;
      net::WireError err = net::WireError::None;
      while (true) {
        const auto nx = dec_.next(hdr, payload_, err);
        if (nx == net::FrameDecoder::Next::NeedMore) break;
        if (nx == net::FrameDecoder::Next::Error) {
          error_ = std::string("framing error: ") + net::to_string(err);
          return;
        }
        if (hdr.type == net::FrameType::Event) {
          scratch_.clear();
          if (net::decode_events(payload_, scratch_) != net::WireError::None) {
            error_ = "malformed EVENT frame";
            return;
          }
          for (const stream::Event& e : scratch_) {
            digest.add(e);
            if (keep_arrivals_) arrival_ns.push_back(t);
          }
        } else if (hdr.type == net::FrameType::Stats) {
          if (net::decode_stats(payload_, last_stats_) != net::WireError::None) {
            error_ = "malformed STATS frame";
            return;
          }
          ++stats_seen_;
        } else if (hdr.type == net::FrameType::Error) {
          net::ErrorFrame e;
          (void)net::decode_error(payload_, e);
          error_ = std::string("ERROR ") + net::to_string(e.code) + ": " + e.message;
        } else {
          error_ = "unexpected frame type";
        }
      }
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (r < 0 && errno == EINTR) continue;
    error_ = r == 0 ? "connection closed by server" : "recv failed";
    return;
  }
}

void WireConn::pump(std::int64_t deadline_ns) {
  if (!error_.empty()) throw std::runtime_error("WireConn: " + error_);
  send_some();
  pollfd p{};
  p.fd = fd_;
  p.events = static_cast<short>(POLLIN | (out_pending() > 0 ? POLLOUT : 0));
  const std::int64_t wait = std::max<std::int64_t>(0, deadline_ns - now_ns());
  timespec ts{static_cast<time_t>(wait / 1000000000), static_cast<long>(wait % 1000000000)};
  const int rc = ::ppoll(&p, 1, &ts, nullptr);
  if (rc > 0) {
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) read_some();
    if ((p.revents & POLLOUT) != 0) send_some();
  }
  if (!error_.empty()) throw std::runtime_error("WireConn: " + error_);
}

net::StatsFrame WireConn::wait_stats() {
  const std::uint64_t want = stats_seen_ + 1;
  const std::int64_t give_up = now_ns() + 20'000'000'000;
  while (stats_seen_ < want) {
    if (now_ns() > give_up) throw std::runtime_error("WireConn: no STATS ack within 20 s");
    pump(now_ns() + 100'000'000);
  }
  return last_stats_;
}

net::StatsFrame WireConn::open(const net::OpenFrame& f) {
  net::encode_open(out_, f);
  return wait_stats();
}

net::StatsFrame WireConn::drain(std::uint32_t timeout_ms) {
  net::encode_drain(out_, timeout_ms);
  return wait_stats();
}

net::StatsFrame WireConn::close_session() {
  net::encode_close(out_);
  return wait_stats();
}

}  // namespace perfbench
