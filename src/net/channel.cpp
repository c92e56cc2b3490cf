#include "net/channel.hpp"

#include <atomic>
#include <deque>
#include <optional>

namespace vine {

namespace {

/// One direction of an in-process connection: the receiving end's inbox.
/// The sender delivers into it directly, on its own thread.
struct Inbox {
  explicit Inbox(std::string from) : from(std::move(from)) {}

  /// Terminal error for the receiver (once) and refusal of later sends.
  void shut() {
    MutexLock lock(mu);
    if (death) return;
    death = Error{Errc::unavailable, "connection closed: " + from};
    if (receiver) {
      delivered_death = true;
      receiver(*death);
    }
  }

  const std::string from;  ///< the sending end's name, for error text
  // Guards the fields below and serializes delivery: every frame and the
  // terminal error reach the receiver under it, so concurrent senders'
  // frames arrive one at a time and each sender's in send order.
  Mutex mu{lock_rank::Rank::endpoint_send};
  std::deque<Frame> backlog VINE_GUARDED_BY(mu);  ///< sent before set_receiver
  std::function<void(Result<Frame>)> receiver VINE_GUARDED_BY(mu);
  std::optional<Error> death VINE_GUARDED_BY(mu);  ///< set once closed
  bool delivered_death VINE_GUARDED_BY(mu) = false;
};

/// An endpoint sending into the peer's inbox and receiving from its own.
class ChannelEndpoint final : public Endpoint {
 public:
  ChannelEndpoint(std::shared_ptr<Inbox> out, std::shared_ptr<Inbox> in,
                  std::string peer)
      : out_(std::move(out)), in_(std::move(in)), peer_(std::move(peer)) {}

  ~ChannelEndpoint() override { close(); }

  Status send(Frame frame) override {
    MutexLock lock(out_->mu);
    if (out_->death) return Error{Errc::unavailable, "peer closed: " + peer_};
    if (out_->receiver) {
      out_->receiver(std::move(frame));
    } else {
      out_->backlog.push_back(std::move(frame));
    }
    return Status::success();
  }

  void set_receiver(std::function<void(Result<Frame>)> fn) override {
    MutexLock lock(in_->mu);
    for (Frame& f : in_->backlog) fn(std::move(f));
    in_->backlog.clear();
    if (in_->death && !in_->delivered_death) {
      in_->delivered_death = true;
      fn(*in_->death);
    }
    in_->receiver = std::move(fn);
  }

  void close() override {
    // Our receiver hears the close now; the peer's hears it once it has
    // drained whatever we sent before.
    in_->shut();
    out_->shut();
  }

  std::string peer_name() const override { return peer_; }

 private:
  const std::shared_ptr<Inbox> out_;
  const std::shared_ptr<Inbox> in_;
  const std::string peer_;
};

}  // namespace

std::pair<std::unique_ptr<Endpoint>, std::unique_ptr<Endpoint>> make_channel_pair(
    const std::string& a_name, const std::string& b_name) {
  auto to_b = std::make_shared<Inbox>(a_name);
  auto to_a = std::make_shared<Inbox>(b_name);
  auto a = std::make_unique<ChannelEndpoint>(to_b, to_a, b_name);
  auto b = std::make_unique<ChannelEndpoint>(to_a, to_b, a_name);
  return {std::move(a), std::move(b)};
}

/// A listening name: its acceptor plus the close gate that keeps the
/// acceptor from running after ChannelListener::close() returns.
struct ChannelFabric::Port {
  explicit Port(Listener::AcceptFn fn) : on_accept(std::move(fn)) {}

  /// Hand `ep` to the acceptor unless the port is closed.
  bool accept(std::unique_ptr<Endpoint> ep) {
    {
      MutexLock lock(mu);
      if (closed.load()) return false;
      ++accepting;
    }
    on_accept(std::move(ep));
    {
      MutexLock lock(mu);
      --accepting;
    }
    cv.notify_all();
    return true;
  }

  void close() {
    UniqueLock lock(mu);
    closed.store(true);
    while (accepting > 0) cv.wait(lock);
  }

  const Listener::AcceptFn on_accept;
  /// Set under mu; also read lock-free by the fabric's name lookup.
  std::atomic<bool> closed{false};
  // Guards accepting (acceptor calls in flight); cv signals it reaching 0.
  Mutex mu{lock_rank::Rank::channel_fabric};
  CondVar cv;
  int accepting VINE_GUARDED_BY(mu) = 0;
};

namespace {

class ChannelListener final : public Listener {
 public:
  ChannelListener(std::shared_ptr<ChannelFabric::Port> port, std::string address)
      : port_(std::move(port)), address_(std::move(address)) {}

  ~ChannelListener() override { close(); }

  std::string address() const override { return address_; }

  void close() override { port_->close(); }

 private:
  const std::shared_ptr<ChannelFabric::Port> port_;
  const std::string address_;
};

}  // namespace

ChannelFabric& ChannelFabric::instance() {
  static ChannelFabric fabric;
  return fabric;
}

Result<std::unique_ptr<Listener>> ChannelFabric::listen(
    const std::string& name, Listener::AcceptFn on_accept) {
  std::string address = "chan:" + name;
  auto port = std::make_shared<Port>(std::move(on_accept));
  {
    MutexLock lock(mutex_);
    auto it = listeners_.find(address);
    if (it != listeners_.end() && !it->second->closed.load()) {
      return Error{Errc::already_exists, "channel name taken: " + address};
    }
    listeners_[address] = port;
  }
  return std::unique_ptr<Listener>(new ChannelListener(port, address));
}

Result<std::unique_ptr<Endpoint>> ChannelFabric::connect(
    const std::string& address, std::chrono::milliseconds /*timeout*/) {
  std::shared_ptr<Port> port;
  {
    MutexLock lock(mutex_);
    auto it = listeners_.find(address);
    if (it == listeners_.end() || it->second->closed.load()) {
      return Error{Errc::unavailable, "no such channel listener: " + address};
    }
    port = it->second;
  }
  auto [client, server] = make_channel_pair("client-of-" + address, address);
  if (!port->accept(std::move(server))) {
    return Error{Errc::unavailable, "listener closed: " + address};
  }
  return std::move(client);
}

}  // namespace vine
