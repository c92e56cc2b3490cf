// Real TCP transport, implemented as thin adapters over the epoll reactor
// (net/reactor.*): this file only creates/binds/connects sockets and maps
// the Endpoint/Listener interface onto ReactorConn/ReactorListener. All
// socket I/O — reads, vectored writes, sendfile, accepts, timeouts — runs
// on the reactor thread; nothing here ever blocks in a socket syscall.
#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/strings.hpp"
#include "net/reactor.hpp"

namespace vine {

namespace {

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

class TcpEndpoint final : public Endpoint {
 public:
  explicit TcpEndpoint(ConnPtr conn) : conn_(std::move(conn)) {}

  ~TcpEndpoint() override {
    // Poison, then synchronously deregister: after release() the reactor
    // holds no reference, and dropping conn_ closes the descriptor.
    conn_->close();
    conn_->release();
  }

  Status send(Frame frame) override { return conn_->send_frame(std::move(frame)); }

  void set_receiver(std::function<void(Result<Frame>)> fn) override {
    conn_->set_receiver(std::move(fn));
  }

  Status send_blob_file(const json::Value& msg, const std::string& path,
                        std::uint64_t size) override {
    return conn_->send_file(msg, path, size);
  }

  void set_io_timeout(std::chrono::milliseconds t) override {
    conn_->set_io_timeout(t);
  }

  void close() override { conn_->close(); }

  std::string peer_name() const override { return conn_->peer_name(); }

 private:
  const ConnPtr conn_;
};

class TcpListener final : public Listener {
 public:
  explicit TcpListener(std::shared_ptr<ReactorListener> lst)
      : lst_(std::move(lst)) {}

  ~TcpListener() override { lst_->close(); }

  std::string address() const override { return lst_->address(); }

  void close() override { lst_->close(); }

 private:
  const std::shared_ptr<ReactorListener> lst_;
};

}  // namespace

Result<std::unique_ptr<Listener>> tcp_listen(std::uint16_t port,
                                             Listener::AcceptFn on_accept) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Error{Errc::io_error, errno_text("socket")};
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return Error{Errc::io_error, errno_text("bind")};
  }
  if (::listen(fd, 128) < 0) {
    ::close(fd);
    return Error{Errc::io_error, errno_text("listen")};
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    return Error{Errc::io_error, errno_text("getsockname")};
  }
  std::string address = "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
  auto lst = Reactor::instance().listen(
      fd, address, [fn = std::move(on_accept)](ConnPtr c) {
        fn(std::make_unique<TcpEndpoint>(std::move(c)));
      });
  return std::unique_ptr<Listener>(new TcpListener(std::move(lst)));
}

Result<std::unique_ptr<Endpoint>> tcp_connect(const std::string& address,
                                              std::chrono::milliseconds timeout) {
  auto parts = split(address, ':');
  if (parts.size() != 2) {
    return Error{Errc::invalid_argument, "address must be host:port, got " + address};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, parts[0].c_str(), &addr.sin_addr) != 1) {
    return Error{Errc::invalid_argument, "bad IPv4 address: " + parts[0]};
  }
  int port = std::atoi(parts[1].c_str());
  if (port <= 0 || port > 65535) {
    return Error{Errc::invalid_argument, "bad port in " + address};
  }
  addr.sin_port = htons(static_cast<std::uint16_t>(port));

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Error{Errc::io_error, errno_text("socket")};
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    return Error{Errc::unavailable, errno_text("connect " + address)};
  }
  ConnPtr conn =
      rc == 0 ? Reactor::instance().adopt(fd, address)
              : Reactor::instance().adopt_connecting(fd, address, timeout);
  Status st = conn->await_connected(timeout);
  if (!st.ok()) {
    conn->close();
    conn->release();
    return st.error();
  }
  return std::unique_ptr<Endpoint>(new TcpEndpoint(std::move(conn)));
}

}  // namespace vine
