// Wire frames and the Endpoint/Listener transport abstraction.
//
// A frame is a JSON message, alone or followed by the bytes it describes (a
// blob frame: one cache object and its header travel together). On TCP the
// encoding is:
//   u32  payload length (LE)      -- excludes this 5-byte header
//   u8   kind: 'J' json | 'B' blob
//   for 'J': payload = UTF-8 JSON text
//   for 'B': payload = u32 message length, JSON message, blob bytes
// In-process channels pass Frame objects directly (no serialization).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "json/json.hpp"

namespace vine {

/// One unit of communication between manager, workers, and peers.
struct Frame {
  enum class Kind : char { json = 'J', blob = 'B' };
  Kind kind = Kind::json;
  json::Value msg;   ///< the message; valid for both kinds
  std::string data;  ///< the bytes it describes; valid when kind == blob

  static Frame make_json(json::Value v) {
    Frame f;
    f.kind = Kind::json;
    f.msg = std::move(v);
    return f;
  }
  static Frame make_blob(json::Value msg, std::string data) {
    Frame f;
    f.kind = Kind::blob;
    f.msg = std::move(msg);
    f.data = std::move(data);
    return f;
  }
};

/// Serialize a frame to the TCP wire format (header + payload).
std::string encode_frame(const Frame& frame);

/// Decode one frame from a complete payload (header already stripped),
/// directly out of the caller's buffer (the reactor's batched inbound
/// buffer). Blob bytes are copied exactly once, into the returned Frame.
Result<Frame> decode_frame_view(char kind, std::string_view payload);

/// Store `v` little-endian in the 4 bytes at `p` (the wire integer
/// encoding).
void write_u32(char* p, std::uint32_t v);

/// Read a little-endian u32 from `p` (must have 4 readable bytes).
std::uint32_t read_u32(const char* p);

/// Frame payloads above this are rejected as corrupt/hostile (512 MB covers
/// the largest assets in the paper's workloads).
inline constexpr std::uint32_t kMaxFramePayload = 512u * 1024 * 1024;

/// A bidirectional, message-oriented connection. Thread contract: send()
/// is fully thread safe (frames from concurrent senders interleave at
/// frame granularity, never within one); every inbound frame goes to the
/// one receiver installed with set_receiver().
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Send a frame; blocks until handed to the transport.
  virtual Status send(Frame frame) = 0;

  /// Install the delivery callback. Every inbound frame is pushed to `fn`
  /// in arrival order — per sender, in send order — followed by exactly one
  /// terminal error (Errc::unavailable on close by either end, Errc::timeout
  /// on a mid-frame stall) after which `fn` is never called again. Frames
  /// that arrived before the call are drained to `fn` first, in order,
  /// before set_receiver returns. Install at most once.
  ///
  /// `fn` runs on the transport's delivery thread — the reactor thread on
  /// TCP, the sending thread on in-process channels — under the endpoint's
  /// delivery lock, so it must not block and must not call back into this
  /// endpoint. It is never invoked after close() returns.
  virtual void set_receiver(std::function<void(Result<Frame>)> fn) = 0;

  /// Close the connection. Both ends' receivers get their terminal error;
  /// no receiver callback runs on this endpoint after close() returns.
  virtual void close() = 0;

  /// Stable printable identity of the remote end (address or channel name).
  virtual std::string peer_name() const = 0;

  /// Bound on how long a transport may wait for the *remainder* of a frame
  /// once its first bytes arrived. A peer that goes dead-silent mid-frame
  /// then surfaces Errc::timeout within this window instead of wedging the
  /// receiving thread. Transports without a mid-frame window (in-process
  /// channels deliver whole frames) ignore it.
  virtual void set_io_timeout(std::chrono::milliseconds) {}

  /// Send a blob frame carrying `msg` and the contents of `path` (`size`
  /// bytes). The TCP transport streams the file zero-copy via sendfile;
  /// the base implementation reads the file and falls back to send_blob.
  /// The on-wire bytes are identical either way.
  virtual Status send_blob_file(const json::Value& msg, const std::string& path,
                                std::uint64_t size);

  // Convenience wrappers.
  Status send_json(json::Value v) { return send(Frame::make_json(std::move(v))); }
  Status send_blob(json::Value msg, std::string data) {
    return send(Frame::make_blob(std::move(msg), std::move(data)));
  }
};

/// Accepts incoming connections (the manager's worker port and each
/// worker's peer-transfer port). The acceptor is fixed when the listener is
/// created (tcp_listen, ChannelFabric::listen), so no connection can arrive
/// before there is someone to take it.
class Listener {
 public:
  /// Receives each accepted connection. Runs on the reactor thread (TCP) or
  /// on the connecting thread (channels); must not block. Never invoked
  /// after close() returns.
  using AcceptFn = std::function<void(std::unique_ptr<Endpoint>)>;

  virtual ~Listener() = default;

  /// Address peers can connect to ("127.0.0.1:9123" or "chan:worker-3").
  virtual std::string address() const = 0;

  /// Stop accepting. Waits out an acceptor call already in flight.
  virtual void close() = 0;
};

/// Connects to a listener address of either transport: "chan:NAME" routes
/// through the in-process fabric, anything else is host:port TCP.
Result<std::unique_ptr<Endpoint>> connect_to(const std::string& address,
                                             std::chrono::milliseconds timeout);

}  // namespace vine
