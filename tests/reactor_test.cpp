// Edge-case tests for the epoll reactor data plane (src/net/reactor.cpp):
// zero-copy blob serves, mid-serve half-close,
// EPOLLOUT backpressure against a slow reader, and connect timeouts.
// Protocol-level behaviour shared with the channel transport lives in
// net_test.cpp; everything here is specific to the reactor's socket I/O.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "accept_queue.hpp"
#include "common/uuid.hpp"
#include "frame_queue.hpp"
#include "net/frame.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"

namespace vine {
namespace {

using namespace std::chrono_literals;

// Deterministic but non-trivial payload: catches off-by-one splices in the
// writev/sendfile span bookkeeping that constant fills would hide.
std::string pattern_bytes(std::size_t n) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>((i * 131 + (i >> 9)) & 0xff);
  }
  return out;
}

class TempBlobFile {
 public:
  explicit TempBlobFile(const std::string& bytes) {
    path_ = std::filesystem::temp_directory_path() /
            ("vine-reactor-test-" + generate_token(8));
    std::ofstream out(path_, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    size_ = bytes.size();
  }
  ~TempBlobFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path() const { return path_.string(); }
  std::uint64_t size() const { return size_; }

 private:
  std::filesystem::path path_;
  std::uint64_t size_ = 0;
};

int open_fd_count() {
  int n = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (!d) return -1;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}

json::Value named(const std::string& name) {
  return json::Value(json::Object{{"name", json::Value(name)}});
}

struct Pair {
  AcceptQueue accepted;
  std::unique_ptr<Listener> listener;
  std::unique_ptr<Endpoint> client;
  std::unique_ptr<Endpoint> server;
};

Pair make_pair() {
  Pair p;
  auto l = tcp_listen(0, p.accepted.acceptor());
  EXPECT_TRUE(l.ok());
  if (!l.ok()) return p;
  p.listener = std::move(*l);
  auto c = tcp_connect(p.listener->address(), 1000ms);
  EXPECT_TRUE(c.ok());
  if (!c.ok()) return p;
  p.client = std::move(*c);
  p.server = p.accepted.next(1000ms);
  EXPECT_TRUE(p.server);
  return p;
}

void blob_file_roundtrip(std::size_t bytes) {
  const std::string payload = pattern_bytes(bytes);
  TempBlobFile file(payload);
  Pair p = make_pair();
  ASSERT_TRUE(p.server && p.client);

  FrameQueue rx;
  p.client->set_receiver(rx.receiver());
  ASSERT_TRUE(p.server->send_blob_file(named("blob-a"), file.path(), file.size()).ok());
  auto got = rx.next(5000ms);
  ASSERT_TRUE(got.ok()) << got.error().message;
  EXPECT_EQ(got->kind, Frame::Kind::blob);
  EXPECT_EQ(got->msg.get_string("name"), "blob-a");
  ASSERT_EQ(got->data.size(), payload.size());
  EXPECT_TRUE(got->data == payload);  // EXPECT_EQ would print 8 MB on failure
}

// ---------------------------------------------------------- zero-copy serve

TEST(ReactorEdge, SendBlobFileDeliversExactBytes) {
  // 8 MB spans many sendfile calls and several socket-buffer drains.
  blob_file_roundtrip(8u * 1024 * 1024);
}

TEST(ReactorEdge, SendBlobFileEmptyAndTiny) {
  // Degenerate sizes exercise the header-only writev and the single-span
  // tail of the file state machine.
  blob_file_roundtrip(0);
  blob_file_roundtrip(1);
}

// ----------------------------------------------------- half-close mid-serve

TEST(ReactorEdge, HalfCloseDuringBlobServeTearsDownCleanly) {
  // The requester vanishes while a large file is still streaming. The
  // reactor must tear the server connection down (EPIPE/RST on write),
  // surface Errc::unavailable — not timeout, not a wedge — and close the
  // file descriptor it was streaming from.
  const std::string payload = pattern_bytes(16u * 1024 * 1024);
  TempBlobFile file(payload);

  const int fds_before = open_fd_count();
  for (int round = 0; round < 8; ++round) {
    Pair p = make_pair();
    ASSERT_TRUE(p.server && p.client);
    FrameQueue rx;
    p.server->set_receiver(rx.receiver());
    p.client->close();
    // Depending on when the reactor notices the RST, the send itself may
    // already report death; otherwise it queues and death surfaces via
    // the receiver. Either way: unavailable, promptly, never a wedge.
    Status sent = p.server->send_blob_file(named("gone"), file.path(), file.size());
    if (sent.ok()) {
      auto r = rx.next(5000ms);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.error().code, Errc::unavailable);
    } else {
      EXPECT_EQ(sent.error().code, Errc::unavailable);
    }
  }
  // Each round opened a listener, two conns, and a streamed file fd; all
  // must be gone. Allow slack for unrelated runtime fds.
  const int fds_after = open_fd_count();
  if (fds_before > 0 && fds_after > 0) {
    EXPECT_LE(fds_after, fds_before + 4);
  }
}

TEST(ReactorEdge, ReadShutdownPeerStillDrainsQueuedWrites) {
  // Half-close proper: the client shuts down its *write* side (server sees
  // EOF) but keeps reading. Frames the server queued before noticing the
  // EOF must still be delivered — EOF on read must not kill the write side
  // before the queue drains.
  Pair p = make_pair();
  ASSERT_TRUE(p.server && p.client);

  FrameQueue at_server, at_client;
  p.server->set_receiver(at_server.receiver());
  p.client->set_receiver(at_client.receiver());
  const std::string payload = pattern_bytes(2u * 1024 * 1024);
  ASSERT_TRUE(p.server->send_blob(named("still-coming"), payload).ok());
  // Client half-closes its send direction only.
  ASSERT_TRUE(p.client->send_blob(named("last-word"), "x").ok());
  auto last = at_server.next(2000ms);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->msg.get_string("name"), "last-word");

  auto got = at_client.next(5000ms);
  ASSERT_TRUE(got.ok()) << got.error().message;
  EXPECT_EQ(got->msg.get_string("name"), "still-coming");
  EXPECT_TRUE(got->data == payload);
}

// -------------------------------------------------- EPOLLOUT backpressure

TEST(ReactorEdge, BackpressureSlowReaderDrainsInOrder) {
  // Queue far more than the socket buffer while the reader sleeps: the
  // reactor must park the spans, arm EPOLLOUT, and drain everything in
  // order once the reader catches up. 48 x 1 MB ≫ any loopback buffer.
  constexpr int kFrames = 48;
  constexpr std::size_t kBlob = 1u * 1024 * 1024;
  Pair p = make_pair();
  ASSERT_TRUE(p.server && p.client);
  FrameQueue rx;
  p.client->set_receiver(rx.receiver());

  std::thread sender([&] {
    for (int i = 0; i < kFrames; ++i) {
      std::string data = pattern_bytes(kBlob);
      data[0] = static_cast<char>(i);  // frame identity in byte 0
      ASSERT_TRUE(p.server->send_blob(named("bp-" + std::to_string(i)),
                                      std::move(data)).ok());
    }
  });

  std::this_thread::sleep_for(300ms);  // let the write queue pile up
  for (int i = 0; i < kFrames; ++i) {
    auto got = rx.next(10000ms);
    ASSERT_TRUE(got.ok()) << "frame " << i << ": " << got.error().message;
    EXPECT_EQ(got->msg.get_string("name"), "bp-" + std::to_string(i));
    ASSERT_EQ(got->data.size(), kBlob);
    EXPECT_EQ(got->data[0], static_cast<char>(i));
  }
  sender.join();
}

// --------------------------------------------------------- connect timeout

TEST(ReactorEdge, ConnectTimesOutOnUnresponsiveAddress) {
  // Saturate a raw listener's accept backlog so further SYNs are dropped
  // (tcp_abort_on_overflow=0 default): the non-blocking connect never
  // completes and must surface Errc::timeout in the requested window
  // instead of hanging for the kernel's SYN-retry minutes.
  int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = 0;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&sa), sizeof sa), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t slen = sizeof sa;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&sa), &slen), 0);

  // Fill the (rounded-up) backlog with connections nobody accepts.
  std::vector<int> fillers;
  for (int i = 0; i < 4; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa);
    fillers.push_back(fd);
  }
  std::this_thread::sleep_for(50ms);  // let fillers land in the queues

  const std::string addr =
      "127.0.0.1:" + std::to_string(ntohs(sa.sin_port));
  auto start = std::chrono::steady_clock::now();
  auto r = tcp_connect(addr, 250ms);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::timeout) << r.error().message;
  EXPECT_GE(elapsed, 200ms);
  EXPECT_LT(elapsed, 2000ms);

  for (int fd : fillers) ::close(fd);
  ::close(lfd);
}

TEST(ReactorEdge, ConnectRefusedFailsFast) {
  // A closed port answers RST: the SO_ERROR path must surface an error
  // well before the timeout, not wait the full window.
  int probe = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = 0;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&sa), sizeof sa), 0);
  socklen_t slen = sizeof sa;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&sa), &slen), 0);
  const std::string addr =
      "127.0.0.1:" + std::to_string(ntohs(sa.sin_port));
  ::close(probe);  // port now bound by nobody -> RST on connect

  auto start = std::chrono::steady_clock::now();
  auto r = tcp_connect(addr, 5000ms);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().code, Errc::timeout);
  EXPECT_LT(elapsed, 1000ms);
}

}  // namespace
}  // namespace vine
