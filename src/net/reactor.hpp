// The epoll reactor: one thread (optionally N sharded) owning every TCP
// socket in the process — manager worker-port connections, worker control
// links, and worker↔worker peer-transfer streams.
//
// Architecture (see DESIGN.md "Data plane"):
//
//   * Read side. Each connection's inbound state (byte buffer, frame parse
//     offsets, progress deadline) is confined to the reactor thread — no
//     lock. Per wakeup the reactor drains the socket into the buffer and
//     decodes every complete frame it holds (batched decode), delivering
//     them to the installed receiver callback (frames that beat
//     set_receiver wait in a small backlog and are drained first).
//
//   * Write side. send_frame() never touches the socket: it encodes the
//     5-byte header (+ blob tag prefix) into a recycled per-connection
//     scratch buffer, enqueues header/payload as separate spans, and kicks
//     the reactor via eventfd. The reactor coalesces queued spans across
//     frames into one writev — the old per-frame contiguous `wire` copy and
//     its per-frame allocation are gone. File-backed spans are streamed
//     with sendfile (pread+writev fallback behind VINE_DISABLE_SENDFILE),
//     so a cached blob served to a peer never passes through userspace.
//
//   * Liveness. A connection with a partially received frame carries a
//     progress deadline (set_io_timeout window): a peer that stalls
//     mid-frame is killed with Errc::timeout instead of wedging anything.
//     Connect timeouts ride the same deadline scan.
//
// Lock order: Reactor::ops_mu_ (rank net_reactor) < ReactorConn::mu_ (rank
// endpoint_send) < MsgQueue internals (rank msg_queue). Senders lock the
// two former sequentially, never nested. Frame delivery runs under the
// connection mutex and may push into a MsgQueue (ascending ranks). Accept
// callbacks run on the reactor thread with no reactor lock held.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "net/frame.hpp"

namespace vine {

class Reactor;
class ReactorConn;
class ReactorListener;
using ConnPtr = std::shared_ptr<ReactorConn>;

/// Aggregate data-plane counters, summed across shards by
/// ReactorPool::stats(). Monotone; sampled by the manager's metrics gauges
/// and by bench/micro_net.
struct ReactorStats {
  std::int64_t wakeups = 0;        ///< epoll_wait returns
  std::int64_t frames_in = 0;      ///< complete frames decoded
  std::int64_t frames_out = 0;     ///< frames fully written
  std::int64_t bytes_in = 0;       ///< payload+header bytes read
  std::int64_t bytes_out = 0;      ///< bytes written (writev + sendfile)
  std::int64_t sendfile_bytes = 0; ///< bytes_out moved by sendfile
  std::int64_t writev_calls = 0;   ///< writev syscalls issued
  std::int64_t accepts = 0;        ///< connections accepted
  std::int64_t conns_open = 0;     ///< currently registered connections
};

/// Whether blob-file sends use sendfile. Compiled to false under
/// VINE_DISABLE_SENDFILE; togglable at runtime so tests exercise the
/// pread+writev fallback on any build. The wire bytes are identical.
bool sendfile_enabled();
void set_sendfile_enabled(bool on);

/// One TCP connection owned by a Reactor. App threads send and install the
/// receiver; the reactor thread runs the read state machine and all socket
/// I/O. Obtain via ReactorPool (adopt/connect/listener), never directly.
class ReactorConn : public std::enable_shared_from_this<ReactorConn> {
 public:
  ~ReactorConn();
  ReactorConn(const ReactorConn&) = delete;
  ReactorConn& operator=(const ReactorConn&) = delete;

  /// Enqueue a frame for transmission; returns once queued (bounded by the
  /// backpressure cap), not once written. Errc::unavailable after death.
  Status send_frame(Frame frame);

  /// Enqueue a blob frame streaming `size` bytes from `path` via sendfile.
  Status send_file(const std::string& tag, const std::string& path,
                   std::uint64_t size);

  /// Install the delivery callback (see Endpoint::set_receiver).
  void set_receiver(std::function<void(Result<Frame>)> fn);

  /// Mid-frame progress window (see Endpoint::set_io_timeout).
  void set_io_timeout(std::chrono::milliseconds t);

  /// Poison the connection: local waiters unblock with Errc::unavailable
  /// and the reactor tears the socket down. Idempotent.
  void close();

  /// Block until the non-blocking connect completes (or the connection
  /// dies: refused / timeout). Only meaningful for connect()ed conns.
  Status await_connected(std::chrono::milliseconds timeout);

  /// Synchronously deregister from the reactor: after return the reactor
  /// holds no reference and will touch neither the object nor the fd.
  /// Must be called by the owner before releasing its ConnPtr.
  void release();

  const std::string& peer_name() const { return peer_; }

 private:
  friend class Reactor;
  friend class ReactorListener;
  friend class ReactorPool;
  ReactorConn(std::shared_ptr<Reactor> reactor, int fd, std::string peer,
              bool connecting);

  /// Deliver a batch of decoded frames under one lock acquisition
  /// (reactor thread); consumes and clears `frames`.
  void deliver_batch(std::vector<Frame>& frames);

  /// Record the terminal error and wake/notify everyone. Idempotent; called
  /// by the reactor on teardown and by close() locally.
  void die(Error err);

  /// Ask the reactor to flush this conn's write queue (any thread).
  void request_flush();

  // --- immutable after construction ---
  const std::shared_ptr<Reactor> reactor_;
  const int fd_;
  const std::string peer_;

  // --- reactor-thread-confined read/connect state (no lock) ---
  std::string rbuf_;            ///< unparsed inbound bytes
  std::size_t rbuf_off_ = 0;    ///< consumed prefix of rbuf_
  bool connecting_ = false;     ///< connect() still in flight
  bool want_write_ = false;     ///< EPOLLOUT currently armed
  bool registered_ = false;     ///< present in Reactor::conns_
  /// Deadline for mid-frame progress / connect completion; time_point::max()
  /// when inactive. Scanned by the reactor tick (armed-count gated).
  std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::time_point::max();
  /// Initial connect window, consumed when the reactor registers the conn.
  std::chrono::milliseconds connect_timeout_{0};

  // --- cross-thread state ---
  /// Mid-frame idle window; read by the reactor thread when arming
  /// deadline_, written by set_io_timeout from any thread.
  std::atomic<std::int64_t> io_timeout_ms_{60000};
  /// Set once this conn is queued on the reactor's flush list, cleared when
  /// the reactor picks it up; collapses N sends into one list entry.
  std::atomic<bool> flush_queued_{false};

  /// One span of outbound bytes: an owned head buffer (header + json text,
  /// or header + tag prefix), an owned body (blob bytes), and/or a file
  /// range streamed by sendfile. Offsets track partial writes.
  struct OutChunk {
    std::string head;
    std::size_t head_off = 0;
    std::string body;
    std::size_t body_off = 0;
    int file_fd = -1;
    std::uint64_t file_off = 0;
    std::uint64_t file_left = 0;
  };

  // Guards the cross-thread half of the connection: the write queue,
  // receiver backlog, receiver callback, and lifecycle flags below.
  // Senders hold it to enqueue; the reactor thread holds it in
  // flush_writes and while delivering frames. cv_ signals backpressure
  // headroom, connect completion, and release.
  mutable Mutex mu_{lock_rank::Rank::endpoint_send};
  CondVar cv_;
  std::deque<OutChunk> out_ VINE_GUARDED_BY(mu_);
  std::size_t out_bytes_ VINE_GUARDED_BY(mu_) = 0;
  /// Recycled head buffers (capacity reuse kills the per-frame allocation).
  std::vector<std::string> spare_heads_ VINE_GUARDED_BY(mu_);
  /// Frames decoded before a receiver was installed.
  std::deque<Frame> rx_ VINE_GUARDED_BY(mu_);
  std::function<void(Result<Frame>)> receiver_ VINE_GUARDED_BY(mu_);
  bool connected_flag_ VINE_GUARDED_BY(mu_) = false;
  bool dead_ VINE_GUARDED_BY(mu_) = false;   ///< terminal error recorded
  Error death_ VINE_GUARDED_BY(mu_);         ///< valid once dead_
  bool death_notified_ VINE_GUARDED_BY(mu_) = false; ///< receiver_ told
  bool released_ VINE_GUARDED_BY(mu_) = false; ///< reactor dropped its ref
};

/// A non-blocking listening socket owned by a Reactor. Accepted connections
/// are registered (round-robin across shards) and handed to the accept
/// callback on this listener's reactor thread.
class ReactorListener {
 public:
  using AcceptFn = std::function<void(ConnPtr)>;

  ~ReactorListener();
  ReactorListener(const ReactorListener&) = delete;
  ReactorListener& operator=(const ReactorListener&) = delete;

  /// Stop accepting and deregister from the reactor: once this returns the
  /// accept callback never runs again. Idempotent.
  void close();

  const std::string& address() const { return address_; }

 private:
  friend class Reactor;
  friend class ReactorPool;
  ReactorListener(std::shared_ptr<Reactor> reactor, int fd,
                  std::string address, AcceptFn on_accept);

  const std::shared_ptr<Reactor> reactor_;
  const int fd_;
  const std::string address_;
  const AcceptFn on_accept_;  ///< reactor thread only
  bool registered_ = false;  ///< reactor-thread-confined
  std::atomic<bool> closed_{false};
  // Guards released_ only: close()'s deregistration handshake with the
  // reactor thread (cv_ signals when the loop has dropped the listener).
  Mutex mu_{lock_rank::Rank::endpoint_send};
  CondVar cv_;
  bool released_ VINE_GUARDED_BY(mu_) = false;
};

/// The process-wide shard set. Shard count comes from VINE_REACTOR_SHARDS
/// (default 1, clamped to [1,16]) read once at first use; connections are
/// placed round-robin.
class ReactorPool {
 public:
  static ReactorPool& instance();

  /// Adopt an already-connected non-blocking socket (accept or immediate
  /// connect success).
  ConnPtr adopt(int fd, std::string peer);

  /// Adopt a socket with connect() in flight; the reactor completes or
  /// times out the handshake (await_connected to observe).
  ConnPtr adopt_connecting(int fd, std::string peer,
                           std::chrono::milliseconds timeout);

  /// Own a listening socket (made non-blocking by the caller); accepted
  /// connections go to `on_accept` on the reactor thread.
  std::shared_ptr<ReactorListener> listen(int fd, std::string address,
                                          ReactorListener::AcceptFn on_accept);

  ReactorStats stats() const;

 private:
  friend class Reactor;
  ReactorPool();
  std::shared_ptr<Reactor> next_shard();

  std::vector<std::shared_ptr<Reactor>> shards_;
  std::atomic<std::uint32_t> rr_{0};
};

}  // namespace vine
