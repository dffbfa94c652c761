/// \file server.hpp
/// \brief The network ingest plane: an epoll-based non-blocking TCP front
/// door over the StreamServer, speaking the XBSP framing protocol.
///
/// NetServer turns the in-process serving layer into a deployable service
/// without giving up its zero-copy contract: a CHUNK frame's samples are
/// read off the socket *directly into* a StreamServer buffer loan
/// (socket -> loan.data() -> commit — no intermediate copy anywhere), and
/// finalized detector events stream back to the client as EVENT frames.
///
/// Threading model: NetServer runs exactly one thread of its own, the
/// *event loop*, whatever the connection count. It owns the listening
/// socket, every connection fd, all epoll state, the token registry and all
/// socket reads and writes:
///   - ingest uses try_acquire_buffer; a session at its high-water mark
///     parks the connection (EPOLLIN off — TCP backpressure reaches the
///     client) and retries on a millisecond tick;
///   - egress is loop-owned: the stream layer's EgressNotifier writes the
///     loop's eventfd when a worker batch appends events or a session lands
///     Closed/Faulted, and the loop drains the attached sessions with the
///     non-blocking drain_events(), encodes EVENT frames and flushes them;
///   - DRAIN, CLOSE, RESET and the park on disconnect run on the loop as
///     short steps. A DRAIN with nothing to send keeps a per-connection
///     deadline; a CLOSE starts the drain and parks the connection's reads
///     until the landing, when the loop sends the tail, marks the record
///     closed and only then acks. A RESET or park waits at most one
///     in-flight worker batch (StreamServer::reset()); the remaining waits
///     on the loop are an OPEN's first table build for a new config and an
///     eviction's release().
///
/// The front door owns serving policy, not the stream layer:
///   - *admission with LRU eviction*: where StreamServer::open() throws at
///     max_sessions, NetServer instead evicts the least-recently-used
///     evictable slot — Closed-but-unreleased record first, then parked
///     (disconnected) sessions — and retries; ERROR SessionLimit only when
///     nothing is evictable;
///   - *warm re-pair*: a client disconnect parks its session via
///     reset(WarmStart::KeepThresholds); a later OPEN bearing the same token
///     re-attaches to the trained detector (STATS ack = Resumed);
///   - *slow-reader shedding*: each connection's egress buffer is bounded;
///     EVENT frames that would overflow it are dropped whole and counted
///     (events_shed) instead of wedging the loop or growing without bound.
///     Control replies (STATS/ERROR) are never shed — a connection that
///     cannot even absorb those is broken and gets closed.
///
/// Error isolation mirrors the stream layer: a malformed or hostile frame
/// quarantines only its own connection (fatal ERROR reply, then close); the
/// session it carried parks warm like any other disconnect, and every other
/// connection streams on undisturbed.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "xbs/net/protocol.hpp"
#include "xbs/stream/server.hpp"

namespace xbs::net {

class NetServer {
 public:
  struct Options {
    /// Address to bind (ignored when listen_fd is given).
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 = ephemeral (read the outcome back with port()).
    u16 port = 0;
    /// Adopt an already-listening socket instead of binding one. The server
    /// takes ownership (closes it on stop). This is how the multi-process
    /// bench binds before forking clients.
    int listen_fd = -1;
    /// Ceiling on one frame's payload; a header advertising more is a fatal
    /// Oversize before anything is read or allocated.
    std::size_t max_frame_bytes = kDefaultMaxPayload;
    /// Per-connection bound on buffered egress bytes. EVENT frames that
    /// would overflow it are shed (counted); control frames that would
    /// overflow 2x the bound kill the connection.
    std::size_t egress_buffer_bytes = 256 * 1024;
    /// The embedded stream layer's configuration.
    stream::StreamServer::Options stream{};
  };

  /// Server-lifetime counters (relaxed atomics; read with stats()).
  struct Stats {
    u64 connections_accepted = 0;
    u64 connections_closed = 0;
    u64 protocol_errors = 0;    ///< fatal framing/payload violations
    u64 sessions_opened = 0;    ///< OPEN acks (fresh provisions)
    u64 sessions_resumed = 0;   ///< OPEN acks re-attaching a parked token
    u64 sessions_parked = 0;    ///< disconnects that parked a session warm
    u64 sessions_evicted = 0;   ///< slots reclaimed by LRU admission
    u64 events_sent = 0;        ///< events delivered in EVENT frames
    u64 events_shed = 0;        ///< events dropped by slow-reader shedding
    u64 bytes_in = 0;
    u64 bytes_out = 0;
  };

  explicit NetServer(Options opts);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound TCP port (resolved when Options::port was 0).
  [[nodiscard]] u16 port() const noexcept { return port_; }

  /// The embedded stream layer (for in-process inspection in tests/benches;
  /// all StreamServer methods are thread-safe).
  [[nodiscard]] stream::StreamServer& stream() noexcept { return stream_; }

  [[nodiscard]] Stats stats() const noexcept;

  /// Stop accepting, close every connection (their sessions park warm), join
  /// the loop thread. Idempotent; the destructor calls it.
  void stop();

 private:
  struct Conn;
  struct StatsAtomics;

  /// The loop's wakeup eventfd, written by the stream layer's notifier and
  /// by stop(). Declared before stream_ so it outlives the stream workers,
  /// which may still fire the notifier while stream_ shuts down.
  struct WakeFd {
    WakeFd();
    ~WakeFd();
    WakeFd(const WakeFd&) = delete;
    WakeFd& operator=(const WakeFd&) = delete;
    int fd = -1;
  };

  void loop();
  [[nodiscard]] int wait_ms() const;
  void service(bool egress_due);
  void accept_ready();
  void read_ready(Conn& c);
  void count_in(Conn& c, std::size_t n);
  bool on_header(Conn& c);
  bool handle_frame(Conn& c);
  bool begin_chunk(Conn& c);
  bool try_start_chunk(Conn& c);
  bool start_discard(Conn& c);
  void finish_chunk(Conn& c);
  bool protocol_fatal(Conn& c, WireError code, std::string_view message);
  void park_reads(Conn& c, bool parked);
  void flush_out(Conn& c);
  void update_epoll(Conn& c);
  void kill_conn(Conn& c, bool flush_first);
  void park(Conn& c);

  // Egress: everything below appends to the connection's out-buffer.
  std::size_t send_events(Conn& c);
  void finish_drain(Conn& c);
  void poll_drain(Conn& c);
  void finish_close(Conn& c);
  void send_frame(Conn& c, const std::vector<u8>& bytes, std::size_t n_events);
  void send_stats(Conn& c, StatsAck ack);
  void send_error(Conn& c, WireError code, std::string_view message);
  void wake_loop() noexcept;

  // Token registry (loop thread only).
  enum class TokenState { Attached, Parked, ClosedKept };
  struct TokenEntry {
    stream::SessionId sid{};
    TokenState st = TokenState::Attached;
    u64 lru_seq = 0;
  };
  WireError admit(const OpenFrame& f, stream::SessionId& sid, StatsAck& ack);
  bool evict_one();

  Options opts_;
  WakeFd wake_;
  stream::StreamServer stream_;
  u16 port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread loop_thread_;

  // Loop thread only.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::unordered_map<u64, TokenEntry> registry_;
  u64 lru_counter_ = 0;
  std::vector<stream::Event> evs_;  ///< drain scratch
  std::vector<u8> frame_;           ///< encode scratch

  std::unique_ptr<StatsAtomics> stats_;
};

}  // namespace xbs::net
