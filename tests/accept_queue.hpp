// Test helper: a queue-backed listener acceptor, so a test can take the
// connections a listener accepted one at a time, with a timeout.
#pragma once

#include <chrono>
#include <memory>

#include "net/frame.hpp"
#include "net/msg_queue.hpp"

namespace vine {

class AcceptQueue {
 public:
  /// The acceptor to hand to tcp_listen / ChannelFabric::listen. It shares
  /// the queue, so it stays valid even if this helper dies first.
  Listener::AcceptFn acceptor() const {
    return [q = q_](std::unique_ptr<Endpoint> ep) { q->push(std::move(ep)); };
  }

  /// The next accepted connection, or null when none arrived in `timeout`.
  std::unique_ptr<Endpoint> next(std::chrono::milliseconds timeout) {
    auto ep = q_->pop(timeout);
    return ep ? std::move(*ep) : nullptr;
  }

 private:
  std::shared_ptr<MsgQueue<std::unique_ptr<Endpoint>>> q_ =
      std::make_shared<MsgQueue<std::unique_ptr<Endpoint>>>();
};

}  // namespace vine
