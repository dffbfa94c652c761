/// \file client.hpp
/// \brief A small blocking XBSP client: the counterpart tests, benches and
/// examples use to drive a NetServer over TCP.
///
/// NetClient is deliberately simple — one blocking socket, synchronous
/// request/ack control calls, and a pull API for the EVENT frames the server
/// streams unprompted. It is a reference protocol implementation and a test
/// harness, not a production SDK: no reconnect automation beyond
/// open()'s SessionBusy retry window, no internal threads.
///
/// EVENT frames can arrive at any time between control acks; every blocking
/// wait collects them into an internal queue that poll_events()/
/// take_events() expose. An ERROR frame surfaces as a thrown RemoteError
/// carrying the wire code; fatal codes also mean the server hung up.
#pragma once

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "xbs/net/protocol.hpp"

namespace xbs::net {

/// An ERROR frame from the server, rethrown locally.
class RemoteError : public std::runtime_error {
 public:
  RemoteError(WireError code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  [[nodiscard]] WireError code() const noexcept { return code_; }

 private:
  WireError code_;
};

class NetClient {
 public:
  NetClient() = default;
  ~NetClient() { disconnect(); }

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connect to \p host:\p port and complete the HELLO handshake. Retries
  /// refused connections (the server may still be binding — the bench's
  /// forked clients race its startup) until \p retry_for elapses.
  void connect(const std::string& host, u16 port,
               std::chrono::milliseconds retry_for = std::chrono::milliseconds(5000));

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// OPEN a session. Throws RemoteError on refusal; SessionBusy (a parked
  /// token whose previous connection has not finished parking — the
  /// reconnect race) is retried until \p busy_retry_for elapses.
  StatsFrame open(const OpenFrame& frame,
                  std::chrono::milliseconds busy_retry_for = std::chrono::milliseconds(0));

  /// Send one CHUNK of samples (fire-and-forget; the server replies only on
  /// refusal, surfaced by the next blocking call or poll_events()).
  void send_chunk(std::span<const i32> samples);

  /// DRAIN: ask the server to flush finalized events now (waiting up to
  /// \p timeout_ms server-side for the first one) and ack with stats.
  StatsFrame drain(u32 timeout_ms = 0);

  /// CLOSE: end of record — flushes the detector tail (arriving as EVENT
  /// frames before the ack) and leaves the record inspectable server-side.
  StatsFrame close_session();

  /// Non-blocking: pull any EVENT frames sitting in the socket, then move
  /// every collected event into \p out. Returns how many were appended.
  std::size_t take_events(std::vector<stream::Event>& out);

  /// Events collected so far (blocking calls and take_events feed this).
  [[nodiscard]] const std::vector<stream::Event>& events() const noexcept {
    return pending_;
  }

  void disconnect() noexcept;

 private:
  void send_all(const std::vector<u8>& bytes);
  void poll_socket();           ///< non-blocking read into the decoder
  StatsFrame wait_stats();      ///< blocking read until a STATS frame lands
  bool dispatch(const FrameHeader& hdr, const std::vector<u8>& payload,
                StatsFrame& stats);  ///< true when \p stats was filled

  int fd_ = -1;
  FrameDecoder dec_{};
  std::vector<stream::Event> pending_;
};

}  // namespace xbs::net
