// Real TCP transport (POSIX sockets). Used by the standalone worker binary
// and by the TCP integration tests; identical framing and semantics to the
// in-process channel transport.
#pragma once

#include <memory>
#include <string>

#include "net/frame.hpp"

namespace vine {

/// Listen on 127.0.0.1:`port` (port 0 picks a free port; see address()).
/// Accepted connections go to `on_accept` on the reactor thread.
Result<std::unique_ptr<Listener>> tcp_listen(std::uint16_t port,
                                             Listener::AcceptFn on_accept);

/// Connect to "host:port".
Result<std::unique_ptr<Endpoint>> tcp_connect(const std::string& address,
                                              std::chrono::milliseconds timeout);

}  // namespace vine
