#include "net/frame.hpp"

#include <fstream>

#include "net/channel.hpp"
#include "net/tcp.hpp"

namespace vine {

void write_u32(char* p, std::uint32_t v) {
  p[0] = static_cast<char>(v);
  p[1] = static_cast<char>(v >> 8);
  p[2] = static_cast<char>(v >> 16);
  p[3] = static_cast<char>(v >> 24);
}

std::uint32_t read_u32(const char* p) {
  return static_cast<std::uint8_t>(p[0]) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[3])) << 24);
}

std::string encode_frame(const Frame& frame) {
  const bool blob = frame.kind == Frame::Kind::blob;
  const std::string msg = frame.msg.dump();
  std::string out(blob ? 9 : 5, '\0');
  out += msg;
  if (blob) {
    write_u32(out.data() + 5, static_cast<std::uint32_t>(msg.size()));
    out += frame.data;
  }
  write_u32(out.data(), static_cast<std::uint32_t>(out.size() - 5));
  out[4] = static_cast<char>(frame.kind);
  return out;
}

Status Endpoint::send_blob_file(const json::Value& msg, const std::string& path,
                                std::uint64_t size) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error{Errc::io_error, "cannot open blob file " + path};
  std::string data(size, '\0');
  in.read(data.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::uint64_t>(in.gcount()) != size) {
    return Error{Errc::io_error, "short read serving " + path};
  }
  return send_blob(msg, std::move(data));
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
    const std::uint32_t msg_len = read_u32(payload.data());
    if (payload.size() - 4 < msg_len) {
      return Error{Errc::parse_error, "blob message exceeds frame"};
    }
    VINE_TRY(json::Value msg, json::parse(payload.substr(4, msg_len)));
    // Exactly one copy of the blob bytes, straight out of the caller's
    // receive buffer.
    return Frame::make_blob(std::move(msg),
                            std::string(payload.substr(4 + msg_len)));
  }
  return Error{Errc::parse_error, std::string("unknown frame kind: ") + kind};
}

Result<std::unique_ptr<Endpoint>> connect_to(const std::string& address,
                                             std::chrono::milliseconds timeout) {
  if (address.rfind("chan:", 0) == 0) {
    return ChannelFabric::instance().connect(address, timeout);
  }
  return tcp_connect(address, timeout);
}

}  // namespace vine
