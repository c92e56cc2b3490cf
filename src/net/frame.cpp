#include "net/frame.hpp"

#include <fstream>
#include <optional>

#include "net/channel.hpp"
#include "net/msg_queue.hpp"
#include "net/tcp.hpp"

namespace vine {

void append_u32(std::string& out, std::uint32_t v) {
  out += static_cast<char>(v);
  out += static_cast<char>(v >> 8);
  out += static_cast<char>(v >> 16);
  out += static_cast<char>(v >> 24);
}

std::uint32_t read_u32(const char* p) {
  return static_cast<std::uint8_t>(p[0]) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[3])) << 24);
}

void append_frame_header(std::string& out, std::uint32_t payload_len,
                         Frame::Kind kind) {
  append_u32(out, payload_len);
  out += static_cast<char>(kind);
}

std::string encode_frame(const Frame& frame) {
  std::string payload;
  if (frame.kind == Frame::Kind::json) {
    payload = frame.msg.dump();
  } else {
    append_u32(payload, static_cast<std::uint32_t>(frame.tag.size()));
    payload += frame.tag;
    payload += frame.data;
  }
  std::string out;
  out.reserve(payload.size() + 5);
  append_frame_header(out, static_cast<std::uint32_t>(payload.size()),
                      frame.kind);
  out += payload;
  return out;
}

Status Endpoint::send_blob_file(const std::string& tag, const std::string& path,
                                std::uint64_t size) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error{Errc::io_error, "cannot open blob file " + path};
  std::string data(size, '\0');
  in.read(data.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::uint64_t>(in.gcount()) != size) {
    return Error{Errc::io_error, "short read serving " + path};
  }
  return send_blob(tag, std::move(data));
}

/// Frames (and finally the terminal error) pushed by the receiver that
/// the first recv() installs.
struct Endpoint::PullQueue {
  MsgQueue<Result<Frame>> frames;
  std::optional<Error> terminal;  ///< recv()-thread only, once popped
};

Result<Frame> Endpoint::recv(std::chrono::milliseconds timeout) {
  if (!pull_) {
    pull_ = std::make_shared<PullQueue>();
    set_receiver([q = pull_](Result<Frame> f) { q->frames.push(std::move(f)); });
  }
  if (pull_->terminal) return *pull_->terminal;
  auto f = pull_->frames.pop(timeout);
  if (!f) return Error{Errc::timeout, "recv timeout from " + peer_name()};
  if (!f->ok()) pull_->terminal = f->error();
  return std::move(*f);
}

Result<Frame> decode_frame_view(char kind, std::string_view payload) {
  if (kind == 'J') {
    VINE_TRY(json::Value v, json::parse(payload));
    return Frame::make_json(std::move(v));
  }
  if (kind == 'B') {
    if (payload.size() < 4) {
      return Error{Errc::parse_error, "blob frame too short"};
    }
    std::uint32_t tag_len = read_u32(payload.data());
    if (payload.size() < 4 + static_cast<std::size_t>(tag_len)) {
      return Error{Errc::parse_error, "blob tag exceeds frame"};
    }
    // Exactly one copy of the blob bytes, straight out of the caller's
    // receive buffer (the string overload used to copy the payload and
    // then memmove the blob over the erased tag prefix — twice the
    // traffic on a 64 MB transfer).
    return Frame::make_blob(std::string(payload.substr(4, tag_len)),
                            std::string(payload.substr(4 + tag_len)));
  }
  return Error{Errc::parse_error, std::string("unknown frame kind: ") + kind};
}

Result<Frame> decode_frame_payload(char kind, std::string payload) {
  return decode_frame_view(kind, payload);
}

Result<std::unique_ptr<Endpoint>> connect_to(const std::string& address,
                                             std::chrono::milliseconds timeout) {
  if (address.rfind("chan:", 0) == 0) {
    return ChannelFabric::instance().connect(address, timeout);
  }
  return tcp_connect(address, timeout);
}

}  // namespace vine
