#include "net/reactor.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>
#ifndef VINE_DISABLE_SENDFILE
#include <sys/sendfile.h>
#endif

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace vine {

namespace {

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Raw-descriptor close/shutdown with names no class method shares: the
/// lock-graph analyzer resolves bare calls by name, and `close(fd)` inside
/// a ReactorConn method would otherwise resolve to ReactorConn::close.
void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

void shutdown_fd(int fd) { ::shutdown(fd, SHUT_RDWR); }

/// Backpressure cap on queued-but-unwritten bytes per connection. A single
/// frame larger than the cap still enqueues (the cap gates *additional*
/// frames), so 512 MB blobs are never rejected — later senders just wait.
constexpr std::size_t kSendBufCap = 64u * 1024 * 1024;

/// recv() chunk per read; level-triggered epoll re-reports leftovers, so a
/// bounded drain per wakeup keeps one fast peer from starving the rest.
constexpr std::size_t kReadChunk = 256u * 1024;

/// Per-call byte budget for sendfile (the kernel copies nothing; this only
/// bounds time spent on one connection per wakeup).
constexpr std::size_t kSendfileChunk = 1u * 1024 * 1024;

/// Head buffers larger than this are not recycled (a huge JSON message
/// should not pin its capacity on the connection forever).
constexpr std::size_t kSpareHeadCap = 64u * 1024;
constexpr std::size_t kSpareHeads = 8;

std::atomic<bool> g_sendfile_enabled{
#ifdef VINE_DISABLE_SENDFILE
    false
#else
    true
#endif
};

}  // namespace

bool sendfile_enabled() {
  return g_sendfile_enabled.load(std::memory_order_relaxed);
}

void set_sendfile_enabled(bool on) {
#ifdef VINE_DISABLE_SENDFILE
  (void)on;  // the sendfile call is compiled out; the fallback is the path
#else
  g_sendfile_enabled.store(on, std::memory_order_relaxed);
#endif
}

// ---------------------------------------------------------------------------
// Reactor

/// One epoll shard: the event loop thread plus the op queue app threads use
/// to reach it. All reads, writes, accepts, registration, and teardown of
/// its sockets happen on the loop thread; everything reactor-thread-confined
/// in ReactorConn belongs to this thread.
class Reactor {
 public:
  struct Op {
    enum class Kind { add_conn, del_conn, flush, add_listener, del_listener, stop };
    Kind kind;
    ConnPtr conn;
    ReactorListener* listener = nullptr;
  };

  Reactor() {
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wakefd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wakefd_;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakefd_, &ev);
    thread_ = std::thread([this] { run(); });
  }

  ~Reactor() {
    enqueue(Op{Op::Kind::stop, nullptr, nullptr});
    thread_.join();
    ::close(wakefd_);
    ::close(epfd_);
  }

  /// Queue an op for the loop thread and wake it. Safe from any thread.
  void enqueue(Op op) {
    {
      MutexLock lock(ops_mu_);
      ops_.push_back(std::move(op));
    }
    // One eventfd write per wakeup, not per op: the loop clears kicked_
    // before draining, so a racing enqueue either lands in this drain or
    // re-arms the eventfd itself.
    if (!kicked_.exchange(true, std::memory_order_acq_rel)) {
      ::eventfd_write(wakefd_, 1);
    }
  }

  bool on_this_thread() const { return t_current == this; }

  ReactorStats snapshot() const {
    ReactorStats s;
    s.wakeups = wakeups_.load(std::memory_order_relaxed);
    s.frames_in = frames_in_.load(std::memory_order_relaxed);
    s.frames_out = frames_out_.load(std::memory_order_relaxed);
    s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
    s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
    s.sendfile_bytes = sendfile_bytes_.load(std::memory_order_relaxed);
    s.writev_calls = writev_calls_.load(std::memory_order_relaxed);
    s.accepts = accepts_.load(std::memory_order_relaxed);
    s.conns_open = conns_open_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  friend class ReactorConn;
  friend class ReactorListener;
  friend class ReactorPool;

  using Clock = std::chrono::steady_clock;

  static thread_local Reactor* t_current;

  void run();
  void drain_ops(bool* stopping);
  void do_add_conn(ConnPtr c);
  void remove_now(const ConnPtr& c);
  void do_add_listener(ReactorListener* l);
  void remove_listener_now(ReactorListener* l);
  void do_accept(ReactorListener* l);
  void do_read(ReactorConn* c);
  void finish_connect(ReactorConn* c);
  void flush_writes(ReactorConn* c);
  void teardown(ReactorConn* c, Error err);
  void update_events(ReactorConn* c);
  void set_deadline(ReactorConn* c, Clock::time_point tp);
  void scan_deadlines();

  int epfd_ = -1;
  int wakefd_ = -1;
  std::thread thread_;

  // Guards ops_, the cross-thread mailbox into the loop: app threads push
  // registration/flush/teardown ops under it, the loop thread swaps the
  // vector out. Never held across a syscall or another lock.
  Mutex ops_mu_{lock_rank::Rank::net_reactor};
  std::vector<Op> ops_ VINE_GUARDED_BY(ops_mu_);
  std::atomic<bool> kicked_{false};

  // Loop-thread-confined socket registries (epoll events carry fds, so a
  // teardown earlier in a batch simply makes later lookups miss).
  std::unordered_map<int, ConnPtr> conns_;
  std::unordered_map<int, ReactorListener*> listeners_;
  int armed_deadlines_ = 0;  ///< conns with an active deadline_
  std::string read_scratch_;  ///< recv landing block, reused across conns
  std::vector<Frame> decode_batch_;  ///< per-drain frame batch, reused

  // Data-plane counters; written on the loop thread, sampled from anywhere.
  std::atomic<std::int64_t> wakeups_{0}, frames_in_{0}, frames_out_{0},
      bytes_in_{0}, bytes_out_{0}, sendfile_bytes_{0}, writev_calls_{0},
      accepts_{0}, conns_open_{0};
};

thread_local Reactor* Reactor::t_current = nullptr;

void Reactor::run() {
  t_current = this;
  // Block SIGPIPE on this thread: writev/sendfile to a reset peer then
  // fails with EPIPE (handled as a normal teardown) instead of killing the
  // process. The signal stays blocked-and-pending, which is harmless.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGPIPE);
  ::pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  std::vector<epoll_event> events(64);
  bool stopping = false;
  while (!stopping) {
    // 20 ms tick while any deadline is armed keeps mid-frame stall and
    // connect timeouts prompt; otherwise sleep long (ops kick via eventfd).
    int timeout_ms = armed_deadlines_ > 0 ? 20 : 500;
    int n = ::epoll_wait(epfd_, events.data(), static_cast<int>(events.size()),
                         timeout_ms);
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — process is tearing down
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      std::uint32_t ev = events[i].events;
      if (fd == wakefd_) {
        eventfd_t v;
        ::eventfd_read(wakefd_, &v);
        continue;
      }
      auto lit = listeners_.find(fd);
      if (lit != listeners_.end()) {
        do_accept(lit->second);
        continue;
      }
      auto cit = conns_.find(fd);
      if (cit == conns_.end()) continue;  // torn down earlier in this batch
      ConnPtr c = cit->second;            // keep alive across teardown
      if (c->connecting_) {
        if (ev & (EPOLLOUT | EPOLLERR | EPOLLHUP)) finish_connect(c.get());
        continue;
      }
      if (ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        do_read(c.get());
        if (!c->registered_) continue;
      }
      if (ev & EPOLLOUT) flush_writes(c.get());
    }
    drain_ops(&stopping);
    if (armed_deadlines_ > 0) scan_deadlines();
  }
  // Defensive: anything still registered at stop (there should be nothing —
  // conns hold the Reactor alive) gets a terminal error.
  for (auto& [fd, c] : conns_) {
    c->die(Error{Errc::unavailable, "reactor stopped"});
  }
  conns_.clear();
  listeners_.clear();
  t_current = nullptr;
}

void Reactor::drain_ops(bool* stopping) {
  // Clear the kick flag *before* swapping the queue: an enqueue that lands
  // after the swap sees kicked_ == false and re-arms the eventfd.
  kicked_.store(false, std::memory_order_release);
  std::vector<Op> ops;
  {
    MutexLock lock(ops_mu_);
    ops.swap(ops_);
  }
  for (auto& op : ops) {
    switch (op.kind) {
      case Op::Kind::add_conn:
        do_add_conn(std::move(op.conn));
        break;
      case Op::Kind::del_conn:
        remove_now(op.conn);
        break;
      case Op::Kind::flush:
        op.conn->flush_queued_.store(false, std::memory_order_release);
        if (op.conn->registered_) flush_writes(op.conn.get());
        break;
      case Op::Kind::add_listener:
        do_add_listener(op.listener);
        break;
      case Op::Kind::del_listener:
        remove_listener_now(op.listener);
        break;
      case Op::Kind::stop:
        *stopping = true;
        break;
    }
  }
}

void Reactor::do_add_conn(ConnPtr c) {
  epoll_event ev{};
  ev.data.fd = c->fd_;
  ev.events =
      EPOLLIN | (c->connecting_ ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, c->fd_, &ev) < 0) {
    c->die(Error{Errc::io_error, errno_text("epoll_ctl add " + c->peer_)});
    MutexLock lock(c->mu_);
    c->released_ = true;
    c->cv_.notify_all();
    return;
  }
  c->registered_ = true;
  if (c->connecting_) {
    set_deadline(c.get(), Clock::now() + c->connect_timeout_);
  }
  conns_open_.fetch_add(1, std::memory_order_relaxed);
  int fd = c->fd_;
  conns_.emplace(fd, std::move(c));
}

void Reactor::remove_now(const ConnPtr& c) {
  if (c->registered_) {
    set_deadline(c.get(), Clock::time_point::max());
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c->fd_, nullptr);
    c->registered_ = false;
    conns_open_.fetch_sub(1, std::memory_order_relaxed);
    conns_.erase(c->fd_);
  }
  MutexLock lock(c->mu_);
  c->released_ = true;
  c->cv_.notify_all();
}

void Reactor::do_add_listener(ReactorListener* l) {
  epoll_event ev{};
  ev.data.fd = l->fd_;
  ev.events = EPOLLIN;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, l->fd_, &ev) == 0) {
    l->registered_ = true;
    listeners_.emplace(l->fd_, l);
  }
}

void Reactor::remove_listener_now(ReactorListener* l) {
  if (l->registered_) {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, l->fd_, nullptr);
    l->registered_ = false;
    listeners_.erase(l->fd_);
  }
  MutexLock lock(l->mu_);
  l->released_ = true;
  l->cv_.notify_all();
}

void Reactor::do_accept(ReactorListener* l) {
  for (;;) {
    sockaddr_in addr{};
    socklen_t len = sizeof addr;
    int cfd = ::accept4(l->fd_, reinterpret_cast<sockaddr*>(&addr), &len,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Listener closed or broken: stop watching so level-triggered epoll
      // does not spin; the owner's release handshake still completes.
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, l->fd_, nullptr);
      l->registered_ = false;
      listeners_.erase(l->fd_);
      return;
    }
    accepts_.fetch_add(1, std::memory_order_relaxed);
    int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    char ip[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof ip);
    std::string peer = std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
    // Accepted connections round-robin across shards for read/write-side
    // parallelism; this listener only performs the accept.
    auto shard = ReactorPool::instance().next_shard();
    auto c = std::shared_ptr<ReactorConn>(new ReactorConn(
        shard, cfd, std::move(peer), /*connecting=*/false));
    shard->enqueue(Op{Op::Kind::add_conn, c, nullptr});
    l->on_accept_(std::move(c));
  }
}

void Reactor::finish_connect(ReactorConn* c) {
  int err = 0;
  socklen_t elen = sizeof err;
  ::getsockopt(c->fd_, SOL_SOCKET, SO_ERROR, &err, &elen);
  if (err != 0) {
    teardown(c, Error{Errc::unavailable,
                      "connect " + c->peer_ + ": " + std::strerror(err)});
    return;
  }
  c->connecting_ = false;
  set_deadline(c, Clock::time_point::max());
  update_events(c);
  {
    MutexLock lock(c->mu_);
    c->connected_flag_ = true;
    c->cv_.notify_all();
  }
  flush_writes(c);
}

void Reactor::do_read(ReactorConn* c) {
  // recv into the loop's one scratch block, then append exactly the bytes
  // that arrived. Resizing rbuf_ by kReadChunk before each recv would
  // zero-fill 256 KB per read event — a memset that dwarfs a small frame
  // and saturates memory bandwidth at high connection counts.
  if (read_scratch_.size() < kReadChunk) read_scratch_.resize(kReadChunk);
  bool progress = false;
  for (int round = 0; round < 4; ++round) {
    ssize_t n = ::recv(c->fd_, read_scratch_.data(), kReadChunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      teardown(c, Error{Errc::unavailable, errno_text("recv from " + c->peer_)});
      return;
    }
    if (n == 0) {
      teardown(c, Error{Errc::unavailable, "peer closed: " + c->peer_});
      return;
    }
    c->rbuf_.append(read_scratch_.data(), static_cast<std::size_t>(n));
    bytes_in_.fetch_add(n, std::memory_order_relaxed);
    progress = true;
    if (static_cast<std::size_t>(n) < kReadChunk) break;
  }
  if (!progress) return;

  // Batched decode: every complete frame buffered so far in one pass,
  // then one lock acquisition to deliver them all.
  bool bad_frame = false;
  Error frame_err;
  for (;;) {
    std::size_t avail = c->rbuf_.size() - c->rbuf_off_;
    if (avail < 5) break;
    const char* p = c->rbuf_.data() + c->rbuf_off_;
    std::uint32_t len = read_u32(p);
    char kind = p[4];
    if (len > kMaxFramePayload) {
      bad_frame = true;
      frame_err = Error{Errc::protocol_error, "oversized frame from " + c->peer_};
      break;
    }
    if (avail < 5u + len) {
      c->rbuf_.reserve(c->rbuf_off_ + 5u + len);
      break;
    }
    c->rbuf_off_ += 5u + len;
    auto fr = decode_frame_view(kind, std::string_view(p + 5, len));
    if (!fr.ok()) {
      bad_frame = true;
      frame_err = Error{Errc::protocol_error,
                        "bad frame from " + c->peer_ + ": " + fr.error().message};
      break;
    }
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    decode_batch_.push_back(std::move(fr).value());
  }
  c->deliver_batch(decode_batch_);  // frames before a bad one still count
  if (bad_frame) {
    teardown(c, std::move(frame_err));
    return;
  }

  // Compact the consumed prefix (cheap clear when fully drained). A buffer
  // a blob frame grew past one read chunk is released once drained, so an
  // idle connection does not keep a blob-sized allocation alive.
  if (c->rbuf_off_ == c->rbuf_.size()) {
    if (c->rbuf_.capacity() > kReadChunk) {
      std::string().swap(c->rbuf_);
    } else {
      c->rbuf_.clear();
    }
    c->rbuf_off_ = 0;
  } else if (c->rbuf_off_ >= 64u * 1024) {
    c->rbuf_.erase(0, c->rbuf_off_);
    c->rbuf_off_ = 0;
  }

  // Progress deadline: a partially received frame must keep moving within
  // the io-timeout window or the peer is declared stalled.
  bool partial = c->rbuf_.size() > c->rbuf_off_;
  set_deadline(c, partial
                      ? Clock::now() + std::chrono::milliseconds(c->io_timeout_ms_.load(
                            std::memory_order_relaxed))
                      : Clock::time_point::max());
}

void Reactor::flush_writes(ReactorConn* c) {
  bool fatal = false;
  Error err;
  bool want_write = false;
  {
    UniqueLock lock(c->mu_);
    while (!c->out_.empty()) {
      auto& front = c->out_.front();
      bool head_done = front.head_off >= front.head.size();
      bool body_done = front.body_off >= front.body.size();
      if (front.file_fd >= 0 && head_done && body_done && front.file_left > 0) {
        if (sendfile_enabled()) {
#ifndef VINE_DISABLE_SENDFILE
          std::size_t want = front.file_left < kSendfileChunk
                                 ? static_cast<std::size_t>(front.file_left)
                                 : kSendfileChunk;
          off_t off = static_cast<off_t>(front.file_off);
          ssize_t n = ::sendfile(c->fd_, front.file_fd, &off, want);
          if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
              want_write = true;
              break;
            }
            fatal = true;
            err = Error{Errc::unavailable, errno_text("sendfile to " + c->peer_)};
            break;
          }
          if (n == 0) {
            fatal = true;
            err = Error{Errc::io_error, "blob file truncated serving " + c->peer_};
            break;
          }
          front.file_off += static_cast<std::uint64_t>(n);
          front.file_left -= static_cast<std::uint64_t>(n);
          c->out_bytes_ -= static_cast<std::size_t>(n);
          bytes_out_.fetch_add(n, std::memory_order_relaxed);
          sendfile_bytes_.fetch_add(n, std::memory_order_relaxed);
          if (front.file_left > 0) continue;
#endif
        } else {
          // Fallback (VINE_DISABLE_SENDFILE / runtime toggle): stage the
          // next file chunk into the body buffer and let writev move it.
          std::size_t want = front.file_left < kReadChunk
                                 ? static_cast<std::size_t>(front.file_left)
                                 : kReadChunk;
          front.body.resize(want);
          front.body_off = 0;
          ssize_t n = ::pread(front.file_fd, front.body.data(), want,
                              static_cast<off_t>(front.file_off));
          if (n < 0 && errno == EINTR) {
            front.body.clear();
            continue;
          }
          if (n <= 0) {
            fatal = true;
            err = Error{Errc::io_error, "blob file read failed serving " + c->peer_};
            break;
          }
          front.body.resize(static_cast<std::size_t>(n));
          front.file_off += static_cast<std::uint64_t>(n);
          front.file_left -= static_cast<std::uint64_t>(n);
          continue;  // writev path below ships the staged body
        }
        // sendfile finished this chunk (file_left == 0): fall through to
        // completion handling via the advance loop's done-check by writing
        // zero buffered bytes — simpler to just complete inline:
        if (front.file_fd >= 0) ::close(front.file_fd);
        front.file_fd = -1;
        if (c->spare_heads_.size() < kSpareHeads &&
            front.head.capacity() <= kSpareHeadCap) {
          front.head.clear();
          c->spare_heads_.push_back(std::move(front.head));
        }
        frames_out_.fetch_add(1, std::memory_order_relaxed);
        c->out_.pop_front();
        continue;
      }

      // Gather buffered spans (heads + bodies) across queued frames into
      // one vectored write. Stop at the first frame that still needs file
      // bytes: those must go out in order via the branch above.
      iovec iov[64];
      int cnt = 0;
      std::size_t batch = 0;
      for (auto& ch : c->out_) {
        if (ch.head_off < ch.head.size() && cnt < 64) {
          iov[cnt].iov_base = const_cast<char*>(ch.head.data()) + ch.head_off;
          iov[cnt].iov_len = ch.head.size() - ch.head_off;
          batch += iov[cnt].iov_len;
          ++cnt;
        }
        if (ch.body_off < ch.body.size() && cnt < 64) {
          iov[cnt].iov_base = const_cast<char*>(ch.body.data()) + ch.body_off;
          iov[cnt].iov_len = ch.body.size() - ch.body_off;
          batch += iov[cnt].iov_len;
          ++cnt;
        }
        if (ch.file_fd >= 0 && ch.file_left > 0) break;
        if (cnt >= 63 || batch >= 4u * 1024 * 1024) break;
      }
      if (cnt == 0) break;  // nothing buffered (front is mid-file)
      ssize_t n = ::writev(c->fd_, iov, cnt);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          want_write = true;
          break;
        }
        fatal = true;
        err = Error{Errc::unavailable, errno_text("write to " + c->peer_)};
        break;
      }
      writev_calls_.fetch_add(1, std::memory_order_relaxed);
      bytes_out_.fetch_add(n, std::memory_order_relaxed);
      c->out_bytes_ -= static_cast<std::size_t>(n);
      // Advance chunk offsets through the written bytes; recycle and pop
      // fully shipped frames.
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0 && !c->out_.empty()) {
        auto& ch = c->out_.front();
        std::size_t hrem = ch.head.size() - ch.head_off;
        std::size_t take = left < hrem ? left : hrem;
        ch.head_off += take;
        left -= take;
        std::size_t brem = ch.body.size() - ch.body_off;
        take = left < brem ? left : brem;
        ch.body_off += take;
        left -= take;
        bool shipped = ch.head_off >= ch.head.size() &&
                       ch.body_off >= ch.body.size();
        if (!shipped) break;
        if (ch.file_fd >= 0 && ch.file_left > 0) {
          // Fallback staging consumed: free the staged body for the next
          // pread round.
          ch.body.clear();
          ch.body_off = 0;
          break;
        }
        if (ch.file_fd >= 0) ::close(ch.file_fd);
        if (c->spare_heads_.size() < kSpareHeads &&
            ch.head.capacity() <= kSpareHeadCap) {
          ch.head.clear();
          c->spare_heads_.push_back(std::move(ch.head));
        }
        frames_out_.fetch_add(1, std::memory_order_relaxed);
        c->out_.pop_front();
      }
    }
    if (!fatal) {
      // Wake backpressured senders (and drain-waiters on empty).
      if (c->out_bytes_ <= kSendBufCap || c->out_.empty()) c->cv_.notify_all();
    }
  }
  if (fatal) {
    teardown(c, std::move(err));
    return;
  }
  if (want_write != c->want_write_) {
    c->want_write_ = want_write;
    update_events(c);
  }
}

void Reactor::teardown(ReactorConn* c, Error err) {
  if (!c->registered_) {
    c->die(std::move(err));
    return;
  }
  set_deadline(c, Clock::time_point::max());
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c->fd_, nullptr);
  c->registered_ = false;
  c->die(std::move(err));
  conns_open_.fetch_sub(1, std::memory_order_relaxed);
  conns_.erase(c->fd_);  // may drop the last reference; c is dead after this
}

void Reactor::update_events(ReactorConn* c) {
  epoll_event ev{};
  ev.data.fd = c->fd_;
  ev.events = EPOLLIN | ((c->want_write_ || c->connecting_)
                             ? static_cast<std::uint32_t>(EPOLLOUT)
                             : 0u);
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c->fd_, &ev);
}

void Reactor::set_deadline(ReactorConn* c, Clock::time_point tp) {
  bool was = c->deadline_ != Clock::time_point::max();
  bool armed = tp != Clock::time_point::max();
  c->deadline_ = tp;
  armed_deadlines_ += (armed ? 1 : 0) - (was ? 1 : 0);
}

void Reactor::scan_deadlines() {
  auto now = Clock::now();
  std::vector<ConnPtr> late;
  for (auto& [fd, c] : conns_) {
    if (c->deadline_ <= now) late.push_back(c);
  }
  for (auto& c : late) {
    teardown(c.get(), c->connecting_
                          ? Error{Errc::timeout, "connect timeout: " + c->peer_}
                          : Error{Errc::timeout,
                                  "mid-frame stall from " + c->peer_});
  }
}

// ---------------------------------------------------------------------------
// ReactorConn

ReactorConn::ReactorConn(std::shared_ptr<Reactor> reactor, int fd,
                         std::string peer, bool connecting)
    : reactor_(std::move(reactor)), fd_(fd), peer_(std::move(peer)) {
  connecting_ = connecting;
  if (!connecting) {
    MutexLock lock(mu_);
    connected_flag_ = true;
  }
}

ReactorConn::~ReactorConn() {
  // Sole owner by now (the reactor's reference is gone): release queued
  // file descriptors and the socket itself.
  {
    MutexLock lock(mu_);
    for (auto& ch : out_) {
      close_fd(ch.file_fd);
    }
    out_.clear();
  }
  close_fd(fd_);
}

Status ReactorConn::send_frame(Frame frame) {
  {
    UniqueLock lock(mu_);
    if (dead_) {
      return Error{Errc::unavailable, "send to " + peer_ + ": " + death_.message};
    }
    // Backpressure: wait for queued bytes to drop under the cap. The
    // reactor thread itself never waits (it is the one draining).
    while (out_bytes_ > kSendBufCap && !dead_ && !reactor_->on_this_thread()) {
      cv_.wait(lock);
    }
    if (dead_) {
      return Error{Errc::unavailable, "send to " + peer_ + ": " + death_.message};
    }
    OutChunk ch;
    if (!spare_heads_.empty()) {
      ch.head = std::move(spare_heads_.back());
      spare_heads_.pop_back();
    }
    if (frame.kind == Frame::Kind::json) {
      // Serialize straight into the recycled head buffer after a 5-byte
      // placeholder, then patch the header in place — no wire copy, no
      // per-frame allocation once the scratch has grown.
      ch.head.assign(5, '\0');
      frame.msg.dump_append(ch.head);
      std::uint32_t plen = static_cast<std::uint32_t>(ch.head.size() - 5);
      ch.head[0] = static_cast<char>(plen);
      ch.head[1] = static_cast<char>(plen >> 8);
      ch.head[2] = static_cast<char>(plen >> 16);
      ch.head[3] = static_cast<char>(plen >> 24);
      ch.head[4] = static_cast<char>(Frame::Kind::json);
    } else {
      std::uint64_t plen64 = 4ull + frame.tag.size() + frame.data.size();
      if (plen64 > kMaxFramePayload) {
        return Error{Errc::invalid_argument, "blob frame exceeds 512 MB"};
      }
      ch.head.clear();
      append_frame_header(ch.head, static_cast<std::uint32_t>(plen64),
                          Frame::Kind::blob);
      append_u32(ch.head, static_cast<std::uint32_t>(frame.tag.size()));
      ch.head += frame.tag;
      ch.body = std::move(frame.data);  // payload ships by reference: no copy
    }
    out_bytes_ += ch.head.size() + ch.body.size();
    out_.push_back(std::move(ch));
  }
  request_flush();
  return Status::success();
}

Status ReactorConn::send_file(const std::string& tag, const std::string& path,
                              std::uint64_t size) {
  std::uint64_t plen64 = 4ull + tag.size() + size;
  if (plen64 > kMaxFramePayload) {
    return Error{Errc::invalid_argument, "blob frame exceeds 512 MB"};
  }
  int ffd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (ffd < 0) return Error{Errc::io_error, errno_text("open " + path)};
  {
    UniqueLock lock(mu_);
    if (dead_) {
      close_fd(ffd);
      return Error{Errc::unavailable, "send to " + peer_ + ": " + death_.message};
    }
    while (out_bytes_ > kSendBufCap && !dead_ && !reactor_->on_this_thread()) {
      cv_.wait(lock);
    }
    if (dead_) {
      close_fd(ffd);
      return Error{Errc::unavailable, "send to " + peer_ + ": " + death_.message};
    }
    OutChunk ch;
    if (!spare_heads_.empty()) {
      ch.head = std::move(spare_heads_.back());
      spare_heads_.pop_back();
      ch.head.clear();
    }
    append_frame_header(ch.head, static_cast<std::uint32_t>(plen64),
                        Frame::Kind::blob);
    append_u32(ch.head, static_cast<std::uint32_t>(tag.size()));
    ch.head += tag;
    ch.file_fd = ffd;
    ch.file_off = 0;
    ch.file_left = size;
    out_bytes_ += ch.head.size() + static_cast<std::size_t>(size);
    out_.push_back(std::move(ch));
  }
  request_flush();
  return Status::success();
}

void ReactorConn::set_receiver(std::function<void(Result<Frame>)> fn) {
  MutexLock lock(mu_);
  while (!rx_.empty()) {
    fn(std::move(rx_.front()));
    rx_.pop_front();
  }
  if (dead_ && !death_notified_) {
    death_notified_ = true;
    fn(death_);
  }
  receiver_ = std::move(fn);
}

void ReactorConn::set_io_timeout(std::chrono::milliseconds t) {
  io_timeout_ms_.store(t.count() > 0 ? t.count() : 60000,
                       std::memory_order_relaxed);
}

void ReactorConn::deliver_batch(std::vector<Frame>& frames) {
  if (frames.empty()) return;
  {
    MutexLock lock(mu_);
    if (!dead_) {
      if (receiver_) {
        for (Frame& f : frames) receiver_(std::move(f));
      } else {
        for (Frame& f : frames) rx_.push_back(std::move(f));
      }
    }
  }
  frames.clear();
}

void ReactorConn::die(Error err) {
  MutexLock lock(mu_);
  if (!dead_) {
    dead_ = true;
    death_ = std::move(err);
  }
  for (auto& ch : out_) {
    close_fd(ch.file_fd);
  }
  out_.clear();
  out_bytes_ = 0;
  if (receiver_ && !death_notified_) {
    death_notified_ = true;
    receiver_(death_);
  }
  cv_.notify_all();
}

void ReactorConn::close() {
  die(Error{Errc::unavailable, "closed: " + peer_});
  // Wake the reactor's read side: it observes EOF/reset and deregisters.
  // The fd itself stays open until destruction so no in-flight reactor
  // operation can race a recycled descriptor number.
  shutdown_fd(fd_);
}

Status ReactorConn::await_connected(std::chrono::milliseconds timeout) {
  // The reactor enforces the real deadline (teardown with Errc::timeout);
  // the extra slack here is only a backstop against a wedged loop thread.
  const auto deadline = std::chrono::steady_clock::now() + timeout +
                        std::chrono::milliseconds(2000);
  UniqueLock lock(mu_);
  while (!connected_flag_ && !dead_) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
  }
  if (connected_flag_) return Status::success();
  if (dead_) return death_;
  return Error{Errc::timeout, "connect timeout: " + peer_};
}

void ReactorConn::release() {
  {
    MutexLock lock(mu_);
    if (released_) return;
  }
  ConnPtr self = shared_from_this();
  if (reactor_->on_this_thread()) {
    reactor_->remove_now(self);
    return;
  }
  reactor_->enqueue(Reactor::Op{Reactor::Op::Kind::del_conn, self, nullptr});
  UniqueLock lock(mu_);
  while (!released_) cv_.wait(lock);
}

void ReactorConn::request_flush() {
  if (flush_queued_.exchange(true, std::memory_order_acq_rel)) return;
  reactor_->enqueue(
      Reactor::Op{Reactor::Op::Kind::flush, shared_from_this(), nullptr});
}

// ---------------------------------------------------------------------------
// ReactorListener

ReactorListener::ReactorListener(std::shared_ptr<Reactor> reactor, int fd,
                                 std::string address, AcceptFn on_accept)
    : reactor_(std::move(reactor)),
      fd_(fd),
      address_(std::move(address)),
      on_accept_(std::move(on_accept)) {}

ReactorListener::~ReactorListener() {
  close();
  ::close(fd_);
}

void ReactorListener::close() {
  if (closed_.exchange(true)) return;
  shutdown_fd(fd_);
  // Deregister synchronously: do_accept runs only on the loop thread, so
  // once the loop has dropped the listener no accept callback can follow.
  if (reactor_->on_this_thread()) {
    reactor_->remove_listener_now(this);
    return;
  }
  reactor_->enqueue(Reactor::Op{Reactor::Op::Kind::del_listener, nullptr, this});
  UniqueLock lock(mu_);
  while (!released_) cv_.wait(lock);
}

// ---------------------------------------------------------------------------
// ReactorPool

ReactorPool& ReactorPool::instance() {
  static ReactorPool pool;
  return pool;
}

ReactorPool::ReactorPool() {
  int shards = 1;
  if (const char* env = std::getenv("VINE_REACTOR_SHARDS")) {
    shards = std::atoi(env);
    if (shards < 1) shards = 1;
    if (shards > 16) shards = 16;
  }
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_shared<Reactor>());
  }
}

std::shared_ptr<Reactor> ReactorPool::next_shard() {
  std::uint32_t i = rr_.fetch_add(1, std::memory_order_relaxed);
  return shards_[i % shards_.size()];
}

ConnPtr ReactorPool::adopt(int fd, std::string peer) {
  auto shard = next_shard();
  auto c = std::shared_ptr<ReactorConn>(new ReactorConn(
      shard, fd, std::move(peer), /*connecting=*/false));
  shard->enqueue(Reactor::Op{Reactor::Op::Kind::add_conn, c, nullptr});
  return c;
}

ConnPtr ReactorPool::adopt_connecting(int fd, std::string peer,
                                      std::chrono::milliseconds timeout) {
  auto shard = next_shard();
  auto c = std::shared_ptr<ReactorConn>(new ReactorConn(
      shard, fd, std::move(peer), /*connecting=*/true));
  c->connect_timeout_ = timeout;
  shard->enqueue(Reactor::Op{Reactor::Op::Kind::add_conn, c, nullptr});
  return c;
}

std::shared_ptr<ReactorListener> ReactorPool::listen(
    int fd, std::string address, ReactorListener::AcceptFn on_accept) {
  auto shard = next_shard();
  std::shared_ptr<ReactorListener> l(new ReactorListener(
      shard, fd, std::move(address), std::move(on_accept)));
  shard->enqueue(
      Reactor::Op{Reactor::Op::Kind::add_listener, nullptr, l.get()});
  return l;
}

ReactorStats ReactorPool::stats() const {
  ReactorStats total;
  for (const auto& shard : shards_) {
    ReactorStats s = shard->snapshot();
    total.wakeups += s.wakeups;
    total.frames_in += s.frames_in;
    total.frames_out += s.frames_out;
    total.bytes_in += s.bytes_in;
    total.bytes_out += s.bytes_out;
    total.sendfile_bytes += s.sendfile_bytes;
    total.writev_calls += s.writev_calls;
    total.accepts += s.accepts;
    total.conns_open += s.conns_open;
  }
  return total;
}

}  // namespace vine
