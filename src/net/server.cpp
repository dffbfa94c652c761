#include "xbs/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace xbs::net {

namespace {

/// Control (non-CHUNK) payloads are all tiny fixed layouts; anything bigger
/// than this is hostile even when it fits the frame bound.
constexpr std::size_t kMaxControlPayload = 4096;
/// Events per EVENT frame, so one drain burst never overflows the peer's
/// frame bound (1024 * 72B + 8B header comfortably under 1 MiB).
constexpr std::size_t kMaxEventsPerFrame = 1024;
/// Upper bound the server enforces on DRAIN waits, so a hostile timeout
/// cannot hold a reply back for minutes.
constexpr u32 kMaxDrainTimeoutMs = 5000;

void set_nonblocking(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl >= 0) (void)::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

}  // namespace

struct NetServer::StatsAtomics {
  std::atomic<u64> accepted{0};
  std::atomic<u64> closed{0};
  std::atomic<u64> protocol_errors{0};
  std::atomic<u64> opened{0};
  std::atomic<u64> resumed{0};
  std::atomic<u64> parked{0};
  std::atomic<u64> evicted{0};
  std::atomic<u64> events_sent{0};
  std::atomic<u64> events_shed{0};
  std::atomic<u64> bytes_in{0};
  std::atomic<u64> bytes_out{0};
};

/// One client connection. Touched by the event-loop thread only, so no
/// field needs a lock or an atomic.
struct NetServer::Conn {
  int fd = -1;

  // Receive state machine.
  enum class Rx { Header, Payload, Chunk, Discard };
  Rx rx = Rx::Header;
  std::array<u8, kHeaderBytes> hdr_raw{};
  std::size_t hdr_fill = 0;
  FrameHeader hdr{};
  std::vector<u8> payload;
  std::size_t fill = 0;
  std::size_t discard_left = 0;
  std::size_t chunk_samples = 0;
  stream::ChunkLoan loan;  ///< armed while a CHUNK payload lands in place
  bool hello_done = false;
  bool has_session = false;
  u64 token = 0;
  stream::SessionId sid{};
  /// Reads parked (EPOLLIN off): a chunk waits at the high-water mark, or a
  /// CLOSE waits for its landing.
  bool stalled = false;
  bool closing = false;        ///< CLOSE accepted, its ack waits for the landing
  bool drain_pending = false;  ///< DRAIN waiting for its first event
  std::chrono::steady_clock::time_point drain_deadline{};
  bool dead = false;  ///< killed; reaped once any pending CLOSE has landed
  bool epoll_out = false;

  // Egress buffer: bytes queued for the socket.
  std::vector<u8> out;
  std::size_t out_off = 0;

  // Per-connection counters (surfaced in STATS frames).
  u64 n_events_sent = 0;
  u64 n_events_shed = 0;
  u64 n_bytes_in = 0;
  u64 n_bytes_out = 0;
};

NetServer::WakeFd::WakeFd() : fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (fd < 0) {
    throw std::runtime_error(std::string("NetServer: eventfd: ") + std::strerror(errno));
  }
}

NetServer::WakeFd::~WakeFd() { ::close(fd); }

// ------------------------------------------------------------- construction

NetServer::NetServer(Options opts)
    : opts_(std::move(opts)), stream_(opts_.stream, [this] { wake_loop(); }) {
  stats_ = std::make_unique<StatsAtomics>();
  auto fail = [&](const char* what) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    throw std::runtime_error(std::string("NetServer: ") + what + ": " +
                             std::strerror(errno));
  };
  if (opts_.listen_fd >= 0) {
    listen_fd_ = opts_.listen_fd;  // adopted: the bench binds before forking
    set_nonblocking(listen_fd_);
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) fail("socket");
    const int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts_.port);
    if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
      errno = EINVAL;
      fail("bind address");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      fail("bind");
    }
    if (::listen(listen_fd_, 64) != 0) fail("listen");
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) != 0) {
    fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) fail("epoll_create1");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) fail("epoll add");
  ev.data.fd = wake_.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_.fd, &ev) != 0) fail("epoll add");

  loop_thread_ = std::thread([this] { loop(); });
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  // Owner-thread lifecycle call (the destructor path); not for concurrent use.
  if (!stop_.exchange(true)) wake_loop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The wake eventfd stays open: stream workers may still fire the notifier
  // until stream_ is destroyed (WakeFd closes it after that).
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = epoll_fd_ = -1;
}

void NetServer::wake_loop() noexcept {
  // The EgressNotifier contract: no lock, never blocks (the eventfd is
  // non-blocking, and a saturated counter already means "wake up").
  const u64 one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_.fd, &one, sizeof one);
}

NetServer::Stats NetServer::stats() const noexcept {
  Stats s;
  s.connections_accepted = stats_->accepted.load(std::memory_order_relaxed);
  s.connections_closed = stats_->closed.load(std::memory_order_relaxed);
  s.protocol_errors = stats_->protocol_errors.load(std::memory_order_relaxed);
  s.sessions_opened = stats_->opened.load(std::memory_order_relaxed);
  s.sessions_resumed = stats_->resumed.load(std::memory_order_relaxed);
  s.sessions_parked = stats_->parked.load(std::memory_order_relaxed);
  s.sessions_evicted = stats_->evicted.load(std::memory_order_relaxed);
  s.events_sent = stats_->events_sent.load(std::memory_order_relaxed);
  s.events_shed = stats_->events_shed.load(std::memory_order_relaxed);
  s.bytes_in = stats_->bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = stats_->bytes_out.load(std::memory_order_relaxed);
  return s;
}

// ------------------------------------------------------------------ registry

WireError NetServer::admit(const OpenFrame& f, stream::SessionId& sid, StatsAck& ack) {
  auto it = registry_.find(f.token);
  if (it != registry_.end()) {
    TokenEntry& e = it->second;
    if (e.st == TokenState::Attached) {
      // Attached to a live connection — typically one whose disconnect the
      // loop has not read yet (it parks on EOF): the client retries shortly.
      return WireError::SessionBusy;
    }
    if (e.st == TokenState::Parked) {
      // Warm re-pair: the OPEN's pipeline config is ignored, the parked
      // session keeps its trained detector thresholds.
      e.st = TokenState::Attached;
      e.lru_seq = ++lru_counter_;
      sid = e.sid;
      ack = StatsAck::Resumed;
      stats_->resumed.fetch_add(1, std::memory_order_relaxed);
      return WireError::None;
    }
    // ClosedKept: the finished record is discarded and the token starts a
    // fresh session with the OPEN's configuration.
    (void)stream_.release(e.sid);
    registry_.erase(it);
  }
  stream::SessionSpec spec;
  try {
    spec.config = f.config();
  } catch (const std::exception&) {
    return WireError::Internal;
  }
  spec.keep_detection = false;  // unbounded serving stream: O(window) state
  while (true) {
    try {
      sid = stream_.open(spec);
      break;
    } catch (const std::exception&) {
      // At the stream layer's ceiling the front door evicts instead of
      // refusing: stalest Closed-but-unreleased record first, then the
      // stalest parked session.
      if (!evict_one()) return WireError::SessionLimit;
    }
  }
  registry_[f.token] = TokenEntry{sid, TokenState::Attached, ++lru_counter_};
  ack = StatsAck::Open;
  stats_->opened.fetch_add(1, std::memory_order_relaxed);
  return WireError::None;
}

bool NetServer::evict_one() {
  auto pick = [&](TokenState st) {
    auto best = registry_.end();
    for (auto it = registry_.begin(); it != registry_.end(); ++it) {
      if (it->second.st != st) continue;
      if (best == registry_.end() || it->second.lru_seq < best->second.lru_seq) {
        best = it;
      }
    }
    return best;
  };
  auto victim = pick(TokenState::ClosedKept);
  if (victim == registry_.end()) victim = pick(TokenState::Parked);
  if (victim == registry_.end()) return false;  // only live connections remain
  (void)stream_.release(victim->second.sid);
  registry_.erase(victim);
  stats_->evicted.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// -------------------------------------------------------------------- egress

void NetServer::send_frame(Conn& c, const std::vector<u8>& bytes, std::size_t n_events) {
  if (c.dead) return;
  // Events are shed past the bound; control replies only past twice it.
  const std::size_t bound = (n_events > 0 ? 1 : 2) * opts_.egress_buffer_bytes;
  if (c.out.size() - c.out_off + bytes.size() > bound) {
    flush_out(c);  // the socket may take the backlog right now
    if (c.dead) return;
  }
  if (c.out.size() - c.out_off + bytes.size() > bound) {
    if (n_events == 0) {
      kill_conn(c, false);  // cannot even absorb control replies: broken reader
      return;
    }
    // Slow-reader shedding: whole EVENT frames drop (frames must never
    // tear), counted instead of growing the buffer without bound.
    c.n_events_shed += n_events;
    stats_->events_shed.fetch_add(n_events, std::memory_order_relaxed);
    return;
  }
  c.out.insert(c.out.end(), bytes.begin(), bytes.end());
  if (n_events > 0) {
    c.n_events_sent += n_events;
    stats_->events_sent.fetch_add(n_events, std::memory_order_relaxed);
  }
}

void NetServer::send_error(Conn& c, WireError code, std::string_view message) {
  frame_.clear();
  encode_error(frame_, code, message);
  send_frame(c, frame_, 0);
}

void NetServer::send_stats(Conn& c, StatsAck ack) {
  StatsFrame f;
  f.ack = ack;
  // Empty defaults when no session is attached (a stale id finds nothing).
  const auto ss = stream_.session_stats(c.has_session ? c.sid : stream::SessionId{});
  f.session_state = static_cast<u8>(ss.state);
  f.chunks_in = ss.chunks_in;
  f.chunks_processed = ss.chunks_processed;
  f.rejected_chunks = ss.rejected_chunks;
  f.dropped_chunks = ss.dropped_chunks;
  f.samples = ss.samples;
  f.events = ss.events;
  f.beats = ss.beats;
  f.events_queued = ss.events_queued;
  f.events_dropped = ss.events_dropped;
  f.resets = ss.resets;
  f.net_events_sent = c.n_events_sent;
  f.net_events_shed = c.n_events_shed;
  f.net_bytes_in = c.n_bytes_in;
  f.net_bytes_out = c.n_bytes_out;
  frame_.clear();
  encode_stats(frame_, f);
  send_frame(c, frame_, 0);
}

std::size_t NetServer::send_events(Conn& c) {
  evs_.clear();
  const std::size_t n = stream_.drain_events(c.sid, evs_);
  for (std::size_t i = 0; i < n; i += kMaxEventsPerFrame) {
    const std::size_t k = std::min(kMaxEventsPerFrame, n - i);
    frame_.clear();
    encode_events(frame_, std::span<const stream::Event>(evs_).subspan(i, k));
    send_frame(c, frame_, k);
  }
  return n;
}

void NetServer::finish_drain(Conn& c) {
  c.drain_pending = false;
  (void)send_events(c);
  send_stats(c, StatsAck::Drain);
}

void NetServer::poll_drain(Conn& c) {
  // The DRAIN ack waits for the first event, the session going terminal, or
  // the (capped) deadline — whichever comes first.
  const bool sent = send_events(c) > 0;
  if (sent || std::chrono::steady_clock::now() >= c.drain_deadline ||
      stream_.session_stats(c.sid).state != stream::SessionState::Open) {
    finish_drain(c);
  }
}

void NetServer::finish_close(Conn& c) {
  // The state is read before the drain: events are appended before the
  // landing is published, so once it has landed this drain takes the tail.
  const bool landed = stream_.session_stats(c.sid).state != stream::SessionState::Draining;
  (void)send_events(c);
  if (!landed) return;
  // The tail is out; the registry records the closed record, and only then
  // is the ack queued: a client holding the ack can OPEN anywhere and find
  // this slot evictable.
  auto it = registry_.find(c.token);
  if (it != registry_.end() && it->second.st == TokenState::Attached &&
      it->second.sid == c.sid) {
    // Closed-but-unreleased: inspectable/evictable until an OPEN reuses the
    // token or LRU admission reclaims the slot.
    it->second.st = TokenState::ClosedKept;
    it->second.lru_seq = ++lru_counter_;
  }
  c.closing = false;
  if (c.dead) return;  // the peer left mid-close: nobody to ack
  send_stats(c, StatsAck::Close);  // still attached: the ack carries the final ledger
  c.has_session = false;
  park_reads(c, false);  // a following OPEN is read, and answered, after the ack
}

void NetServer::park(Conn& c) {
  // Disconnect -> warm park: the detector's trained thresholds survive for
  // the client's reconnect (OPEN with the same token resumes them).
  c.has_session = false;
  const bool ok = stream_.reset(c.sid, pantompkins::WarmStart::KeepThresholds);
  auto it = registry_.find(c.token);
  if (it == registry_.end() || it->second.st != TokenState::Attached ||
      !(it->second.sid == c.sid)) {
    return;
  }
  if (ok) {
    it->second.st = TokenState::Parked;
    it->second.lru_seq = ++lru_counter_;
    stats_->parked.fetch_add(1, std::memory_order_relaxed);
  } else {
    registry_.erase(it);  // released under us: nothing left to resume
  }
}

// ----------------------------------------------------------- event-loop thread

void NetServer::loop() {
  std::array<epoll_event, 64> events{};
  while (!stop_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), wait_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    bool egress_due = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const u32 flags = events[i].events;
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      if (fd == wake_.fd) {
        // Reset the counter before draining: a notifier firing after this
        // read re-arms the eventfd, so no appended event is ever missed.
        u64 v = 0;
        while (::read(wake_.fd, &v, sizeof v) > 0) {
        }
        egress_due = true;
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end() || it->second->dead) continue;  // killed earlier in this batch
      Conn& c = *it->second;
      if ((flags & EPOLLIN) != 0) read_ready(c);
      if (!c.dead && (flags & EPOLLOUT) != 0) flush_out(c);
      if (!c.dead && (flags & (EPOLLHUP | EPOLLERR)) != 0) kill_conn(c, false);
    }
    service(egress_due);
  }
  // Shutdown: every connection closes (sessions park warm) before the
  // embedded StreamServer is torn down.
  for (auto& [fd, c] : conns_) {
    kill_conn(*c, false);
    ::close(fd);
  }
  conns_.clear();
}

int NetServer::wait_ms() const {
  // A chunk at the high-water mark retries on a millisecond tick, a pending
  // DRAIN wakes at its deadline; otherwise sleep until a socket or the
  // eventfd (stream egress, stop()) has something.
  auto next = std::chrono::steady_clock::time_point::max();
  for (const auto& [fd, c] : conns_) {
    if (c->stalled && !c->closing) return 1;
    if (c->drain_pending) next = std::min(next, c->drain_deadline);
  }
  if (next == std::chrono::steady_clock::time_point::max()) return -1;
  const auto now = std::chrono::steady_clock::now();
  const auto left = std::chrono::ceil<std::chrono::milliseconds>(next - now);
  return static_cast<int>(std::max<std::chrono::milliseconds::rep>(0, left.count()));
}

void NetServer::service(bool egress_due) {
  // Connection counts are small; one pass over all of them is cheaper than
  // tracking which session each notifier call was about.
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& c = *it->second;
    if (c.closing) {
      finish_close(c);
    } else if (!c.dead) {
      if (c.stalled) (void)try_start_chunk(c);
      if (!c.dead && c.has_session) {
        if (c.drain_pending) {
          poll_drain(c);
        } else if (egress_due) {
          (void)send_events(c);
        }
      }
    }
    if (!c.dead && !c.epoll_out) flush_out(c);
    if (c.dead && !c.closing) {
      ::close(c.fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void NetServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (or a transient error): nothing more to take
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Conn>();
    Conn& c = *conn;
    c.fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    stats_->accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void NetServer::update_epoll(Conn& c) {
  if (c.dead) return;
  epoll_event ev{};
  ev.events = (c.stalled ? 0u : EPOLLIN) | (c.epoll_out ? EPOLLOUT : 0u);
  ev.data.fd = c.fd;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void NetServer::read_ready(Conn& c) {
  // Budgeted so one flooding connection cannot starve the others; the
  // level-triggered EPOLLIN re-fires for the remainder.
  std::size_t budget = 256 * 1024;
  u8 scratch[4096];
  while (!c.dead && !c.stalled && budget > 0) {
    ssize_t r = 0;
    switch (c.rx) {
      case Conn::Rx::Header:
        r = ::recv(c.fd, c.hdr_raw.data() + c.hdr_fill, kHeaderBytes - c.hdr_fill, 0);
        if (r > 0) {
          c.hdr_fill += static_cast<std::size_t>(r);
          if (c.hdr_fill == kHeaderBytes) {
            c.hdr_fill = 0;
            count_in(c, static_cast<std::size_t>(r));
            if (!on_header(c)) return;
            budget -= std::min(budget, static_cast<std::size_t>(r));
            continue;
          }
        }
        break;
      case Conn::Rx::Payload:
        r = ::recv(c.fd, c.payload.data() + c.fill, c.payload.size() - c.fill, 0);
        if (r > 0) {
          c.fill += static_cast<std::size_t>(r);
          if (c.fill == c.payload.size()) {
            c.rx = Conn::Rx::Header;
            count_in(c, static_cast<std::size_t>(r));
            if (!handle_frame(c)) return;
            budget -= std::min(budget, static_cast<std::size_t>(r));
            continue;
          }
        }
        break;
      case Conn::Rx::Chunk: {
        // The zero-copy contract: CHUNK payload bytes land directly in the
        // StreamServer buffer loan; commit() hands them to a worker with no
        // intermediate copy anywhere.
        u8* base = reinterpret_cast<u8*>(c.loan.data().data());
        r = ::recv(c.fd, base + c.fill, c.hdr.payload_len - c.fill, 0);
        if (r > 0) {
          c.fill += static_cast<std::size_t>(r);
          if (c.fill == c.hdr.payload_len) {
            count_in(c, static_cast<std::size_t>(r));
            finish_chunk(c);
            if (c.dead) return;
            budget -= std::min(budget, static_cast<std::size_t>(r));
            continue;
          }
        }
        break;
      }
      case Conn::Rx::Discard:
        r = ::recv(c.fd, scratch, std::min(sizeof scratch, c.discard_left), 0);
        if (r > 0) {
          c.discard_left -= static_cast<std::size_t>(r);
          if (c.discard_left == 0) c.rx = Conn::Rx::Header;
        }
        break;
    }
    if (r > 0) {
      count_in(c, static_cast<std::size_t>(r));
      budget -= std::min(budget, static_cast<std::size_t>(r));
      continue;
    }
    if (r == 0) {  // EOF: the client hung up; its session parks warm
      kill_conn(c, false);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    kill_conn(c, false);
    return;
  }
}

void NetServer::count_in(Conn& c, std::size_t n) {
  c.n_bytes_in += n;
  stats_->bytes_in.fetch_add(n, std::memory_order_relaxed);
}

bool NetServer::protocol_fatal(Conn& c, WireError code, std::string_view message) {
  stats_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
  send_error(c, code, message);
  kill_conn(c, true);  // best-effort flush so the peer sees the ERROR first
  return false;
}

bool NetServer::on_header(Conn& c) {
  const WireError e =
      decode_header(std::span<const u8>(c.hdr_raw), c.hdr, opts_.max_frame_bytes);
  if (e != WireError::None) return protocol_fatal(c, e, "invalid frame header");
  switch (c.hdr.type) {
    case FrameType::Event:
    case FrameType::Stats:
    case FrameType::Error:
      return protocol_fatal(c, WireError::Malformed, "client-bound frame type");
    default:
      break;
  }
  if (!c.hello_done && c.hdr.type != FrameType::Hello) {
    return protocol_fatal(c, WireError::HelloRequired, "first frame must be HELLO");
  }
  if (c.hdr.type == FrameType::Chunk) return begin_chunk(c);
  if (c.hdr.payload_len > kMaxControlPayload) {
    return protocol_fatal(c, WireError::Malformed, "oversized control payload");
  }
  if (c.hdr.payload_len == 0) {
    c.payload.clear();
    return handle_frame(c);
  }
  c.payload.resize(c.hdr.payload_len);
  c.fill = 0;
  c.rx = Conn::Rx::Payload;
  return true;
}

bool NetServer::begin_chunk(Conn& c) {
  if (!c.has_session) {
    send_error(c, WireError::NoSession, "CHUNK without an open session");
    return start_discard(c);
  }
  if (c.hdr.payload_len % 4 != 0) {
    return protocol_fatal(c, WireError::Malformed, "CHUNK payload not a sample multiple");
  }
  const std::size_t n = c.hdr.payload_len / 4;
  if (opts_.stream.max_chunk_samples != 0 && n > opts_.stream.max_chunk_samples) {
    // Protocol bound enforced at the front door: the connection dies but the
    // session is NOT faulted — it parks warm like any other disconnect (the
    // stream layer's oversize quarantine is for in-process producers).
    return protocol_fatal(c, WireError::Oversize, "CHUNK exceeds max_chunk_samples");
  }
  c.chunk_samples = n;
  return try_start_chunk(c);
}

bool NetServer::try_start_chunk(Conn& c) {
  stream::ChunkLoan loan;
  const stream::PushResult r = stream_.try_acquire_buffer(c.sid, c.chunk_samples, loan);
  if (r == stream::PushResult::QueueFull) {
    // High-water mark: park the connection (EPOLLIN off, so TCP backpressure
    // reaches the client) and retry on the loop's millisecond tick. Each
    // failed attempt counts in the session's rejected_chunks — documented.
    park_reads(c, true);
    return true;
  }
  park_reads(c, false);
  if (r == stream::PushResult::Ok) {
    c.loan = std::move(loan);
    if (c.hdr.payload_len == 0) {
      finish_chunk(c);
      return !c.dead;
    }
    c.fill = 0;
    c.rx = Conn::Rx::Chunk;
    return true;
  }
  send_error(c, WireError::Refused,
             std::string("chunk refused: ") + stream::to_string(r));
  return start_discard(c);
}

bool NetServer::start_discard(Conn& c) {
  if (c.hdr.payload_len == 0) {
    c.rx = Conn::Rx::Header;
    return true;
  }
  c.discard_left = c.hdr.payload_len;
  c.rx = Conn::Rx::Discard;
  return true;
}

void NetServer::finish_chunk(Conn& c) {
  chunk_payload_to_samples(c.loan.data());  // no-op on little-endian hosts
  const stream::PushResult r = stream_.commit(c.loan);
  if (r != stream::PushResult::Ok) {
    // The session closed/faulted/reset between acquire and commit: the
    // samples were discarded by the stream layer; tell the client once.
    send_error(c, WireError::Refused,
               std::string("chunk discarded: ") + stream::to_string(r));
  }
  c.rx = Conn::Rx::Header;
}

void NetServer::park_reads(Conn& c, bool parked) {
  if (c.stalled == parked) return;
  c.stalled = parked;
  update_epoll(c);
}

bool NetServer::handle_frame(Conn& c) {
  // Replies go out in request order: a DRAIN still waiting for events is
  // answered before whatever control frame follows it.
  if (c.drain_pending) finish_drain(c);
  const std::span<const u8> p(c.payload);
  switch (c.hdr.type) {
    case FrameType::Hello: {
      HelloFrame h;
      const WireError e = decode_hello(p, h);
      if (e != WireError::None) return protocol_fatal(c, e, "bad HELLO");
      c.hello_done = true;
      send_stats(c, StatsAck::Hello);
      return true;
    }
    case FrameType::Open: {
      OpenFrame f;
      const WireError e = decode_open(p, f);
      if (e != WireError::None) return protocol_fatal(c, e, "bad OPEN");
      if (c.has_session) {
        send_error(c, WireError::SessionExists, "connection already has a session");
        return true;
      }
      stream::SessionId sid{};
      StatsAck ack = StatsAck::Open;
      const WireError ae = admit(f, sid, ack);
      if (ae != WireError::None) {
        send_error(c, ae, "OPEN refused");
        return true;
      }
      c.has_session = true;
      c.token = f.token;
      c.sid = sid;
      send_stats(c, ack);
      return true;
    }
    case FrameType::Drain: {
      DrainFrame f;
      const WireError e = decode_drain(p, f);
      if (e != WireError::None) return protocol_fatal(c, e, "bad DRAIN");
      if (!c.has_session) {
        send_error(c, WireError::NoSession, "DRAIN without an open session");
        return true;
      }
      const std::chrono::milliseconds wait(std::min(f.timeout_ms, kMaxDrainTimeoutMs));
      c.drain_pending = true;
      c.drain_deadline = std::chrono::steady_clock::now() + wait;
      poll_drain(c);  // a poll (timeout 0) is answered right here
      return true;
    }
    case FrameType::Close: {
      if (!p.empty()) return protocol_fatal(c, WireError::Malformed, "bad CLOSE");
      if (!c.has_session) {
        send_error(c, WireError::NoSession, "CLOSE without an open session");
        return true;
      }
      // Start the drain and park reads until it lands (finish_close, from
      // the loop's service pass or right here if it already has).
      c.closing = true;
      park_reads(c, true);
      stream_.begin_close(c.sid);
      finish_close(c);
      return true;
    }
    case FrameType::Reset: {
      ResetFrame f;
      const WireError e = decode_reset(p, f);
      if (e != WireError::None) return protocol_fatal(c, e, "bad RESET");
      if (!c.has_session) {
        send_error(c, WireError::NoSession, "RESET without an open session");
        return true;
      }
      (void)send_events(c);  // what the abandoned episode finalized so far
      if (stream_.reset(c.sid, f.warm ? pantompkins::WarmStart::KeepThresholds
                                      : pantompkins::WarmStart::Cold)) {
        send_stats(c, StatsAck::Reset);
      } else {
        send_error(c, WireError::Refused, "RESET: session no longer exists");
      }
      return true;
    }
    default:
      return protocol_fatal(c, WireError::UnknownType, "unexpected frame");
  }
}

void NetServer::flush_out(Conn& c) {
  if (c.dead) return;
  bool failed = false;
  while (c.out_off < c.out.size()) {
    const ssize_t w =
        ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (w > 0) {
      c.out_off += static_cast<std::size_t>(w);
      c.n_bytes_out += static_cast<u64>(w);
      stats_->bytes_out.fetch_add(static_cast<u64>(w), std::memory_order_relaxed);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    failed = true;
    break;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  } else if (c.out_off > (1u << 16)) {
    c.out.erase(c.out.begin(), c.out.begin() + static_cast<std::ptrdiff_t>(c.out_off));
    c.out_off = 0;
  }
  if (failed) {
    kill_conn(c, false);
    return;
  }
  const bool want_write = c.out_off < c.out.size();
  if (want_write != c.epoll_out) {
    c.epoll_out = want_write;
    update_epoll(c);
  }
}

void NetServer::kill_conn(Conn& c, bool flush_first) {
  // Best-effort: push the pending bytes (typically the fatal ERROR reply)
  // out before the reset, so the peer learns why it was dropped. A failed
  // send kills the connection from inside flush_out.
  if (flush_first) flush_out(c);
  if (c.dead) return;
  c.dead = true;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  (void)::shutdown(c.fd, SHUT_RDWR);
  c.stalled = false;
  c.drain_pending = false;
  c.loan = stream::ChunkLoan{};  // abandon: the reserved queue slot returns
  // A session mid-CLOSE keeps draining; the loop reaps this connection once
  // it lands (finish_close). Any other session parks warm right here.
  if (c.has_session && !c.closing) park(c);
  stats_->closed.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace xbs::net
