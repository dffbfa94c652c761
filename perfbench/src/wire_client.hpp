/// \file wire_client.hpp
/// \brief The load generator's XBSP connection: one non-blocking socket
/// driven from one load thread, with arrival timestamps on every event.
///
/// net::NetClient blocks and hides its socket, so an open-loop sender could
/// neither wait for "next chunk due or bytes arrived, whichever is first"
/// nor stamp an EVENT when it lands. This client owns its fd, waits with
/// ppoll (ns timeout) and stamps each decoded EVENT with the time its bytes
/// were read. Framing is the library's own codec (net::encode_*,
/// net::FrameDecoder).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "xbs/net/protocol.hpp"

namespace perfbench {

class WireConn {
 public:
  /// Connect to 127.0.0.1:\p port and complete the HELLO handshake.
  explicit WireConn(std::uint16_t port);
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  /// Blocking control calls: send, then pump until the STATS ack lands.
  /// Throw on an ERROR reply, a dead connection or a 20 s timeout.
  xbs::net::StatsFrame open(const xbs::net::OpenFrame& f);
  xbs::net::StatsFrame drain(std::uint32_t timeout_ms);
  xbs::net::StatsFrame close_session();

  /// Append one CHUNK frame to the send buffer (sent by pump()).
  void queue_chunk(std::span<const xbs::i32> samples);
  [[nodiscard]] std::size_t out_pending() const noexcept { return out_.size() - out_off_; }

  /// Send what the socket takes, then wait until bytes arrive, the socket
  /// can take more (when output is pending) or \p deadline_ns passes; read
  /// and decode everything that arrived.
  void pump(std::int64_t deadline_ns);

  /// Start a fresh record's bookkeeping: clear the digest and arrival
  /// times, and choose whether arrival times are kept.
  void reset_events(bool keep_arrivals) {
    keep_arrivals_ = keep_arrivals;
    digest = EventDigest{};
    arrival_ns.clear();
  }

  /// Digest of every event received since reset_events().
  EventDigest digest;
  /// When each of those events was read off the socket (when kept).
  std::vector<std::int64_t> arrival_ns;

 private:
  void send_some();
  void read_some();
  xbs::net::StatsFrame wait_stats();

  int fd_ = -1;
  bool keep_arrivals_ = true;
  std::vector<xbs::u8> out_;
  std::size_t out_off_ = 0;
  xbs::net::FrameDecoder dec_{};
  std::vector<xbs::u8> payload_;
  std::vector<xbs::stream::Event> scratch_;
  std::uint64_t stats_seen_ = 0;
  xbs::net::StatsFrame last_stats_{};
  std::string error_;  ///< set by an ERROR frame or a dead socket
};

}  // namespace perfbench
