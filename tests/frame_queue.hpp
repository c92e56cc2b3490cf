// Test helper: a queue-backed endpoint receiver, so a test can take the
// frames an endpoint delivered one at a time, with a timeout.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>

#include "net/frame.hpp"
#include "net/msg_queue.hpp"

namespace vine {

class FrameQueue {
 public:
  /// The receiver to hand to Endpoint::set_receiver. It shares the queue,
  /// so it stays valid even if this helper dies first.
  std::function<void(Result<Frame>)> receiver() const {
    return [q = q_](Result<Frame> f) { q->push(std::move(f)); };
  }

  /// The next frame, or the connection's terminal error (repeated on every
  /// later call), or Errc::timeout when nothing arrived in `timeout`.
  Result<Frame> next(std::chrono::milliseconds timeout) {
    if (terminal_) return *terminal_;
    auto f = q_->pop(timeout);
    if (!f) return Error{Errc::timeout, "no frame in time"};
    if (!f->ok()) terminal_ = f->error();
    return std::move(*f);
  }

 private:
  std::shared_ptr<MsgQueue<Result<Frame>>> q_ =
      std::make_shared<MsgQueue<Result<Frame>>>();
  std::optional<Error> terminal_;
};

}  // namespace vine
