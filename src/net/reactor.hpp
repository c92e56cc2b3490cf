// The epoll reactor: one thread owning every TCP socket in the process —
// manager worker-port connections, worker control links, and worker↔worker
// peer-transfer streams.
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
//   * Write side. send_frame() never touches the socket: it serializes the
//     5-byte header and the JSON message (plus, for a blob frame, the
//     message length) into a recycled per-connection head buffer, enqueues
//     the head and the blob bytes as separate spans, and kicks the reactor
//     via eventfd. The reactor coalesces queued spans across frames into
//     one writev — no per-frame contiguous wire copy, no per-frame
//     allocation. File-backed blobs are streamed with sendfile, so a
//     cached object served to a peer never passes through userspace.
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
#include <thread>
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

/// Data-plane counters, read by Reactor::stats(). Monotone; sampled by the
/// manager's metrics gauges.
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

/// One TCP connection owned by a Reactor. App threads send and install the
/// receiver; the reactor thread runs the read state machine and all socket
/// I/O. Obtain via Reactor (adopt/adopt_connecting), never directly.
class ReactorConn : public std::enable_shared_from_this<ReactorConn> {
 public:
  ~ReactorConn();
  ReactorConn(const ReactorConn&) = delete;
  ReactorConn& operator=(const ReactorConn&) = delete;

  /// Enqueue a frame for transmission; returns once queued (bounded by the
  /// backpressure cap), not once written. Errc::unavailable after death.
  Status send_frame(Frame frame);

  /// Enqueue a blob frame carrying `msg` and streaming `size` bytes from
  /// `path` via sendfile.
  Status send_file(const json::Value& msg, const std::string& path,
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

  /// One outbound frame: an owned head buffer (header + JSON message), an
  /// owned body (blob bytes) or a file range streamed by sendfile. Offsets
  /// track partial writes.
  struct OutChunk {
    std::string head;
    std::size_t head_off = 0;
    std::string body;
    std::size_t body_off = 0;
    int file_fd = -1;
    std::uint64_t file_off = 0;
    std::uint64_t file_left = 0;
  };

  /// Serialize `msg` into `ch`'s head (a recycled buffer) and queue the
  /// frame, whose body or file adds `body_len` bytes; closes `ch`'s file
  /// when the frame cannot be queued.
  Status enqueue_frame(Frame::Kind kind, const json::Value& msg, OutChunk ch,
                       std::uint64_t body_len);

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

/// A non-blocking listening socket owned by the Reactor. Accepted
/// connections are registered and handed to the accept callback on the
/// reactor thread.
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

/// The process-wide reactor, started at first use: one epoll loop thread
/// plus the op queue app threads use to reach it. All reads, writes,
/// accepts, registration, and teardown of its sockets happen on the loop
/// thread; everything reactor-thread-confined in ReactorConn belongs to it.
/// Connections and listeners hold it alive, so it outlives every socket.
class Reactor {
 public:
  static Reactor& instance();

  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

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
  friend class ReactorConn;
  friend class ReactorListener;

  using Clock = std::chrono::steady_clock;

  struct Op {
    enum class Kind { add_conn, del_conn, flush, add_listener, del_listener, stop };
    Kind kind;
    ConnPtr conn;
    ReactorListener* listener = nullptr;
  };

  Reactor();
  /// The instance, shared with every connection and listener it owns.
  static const std::shared_ptr<Reactor>& shared();

  /// Queue an op for the loop thread and wake it. Safe from any thread.
  void enqueue(Op op);
  bool on_this_thread() const { return t_current == this; }

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

}  // namespace vine
