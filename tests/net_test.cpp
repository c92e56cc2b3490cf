// Unit tests for src/net: frame codec, msg queue, channel transport, TCP
// transport, and cross-transport behaviour parity.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "accept_queue.hpp"
#include "common/uuid.hpp"
#include "frame_queue.hpp"
#include "net/channel.hpp"
#include "net/frame.hpp"
#include "net/msg_queue.hpp"
#include "net/tcp.hpp"

namespace vine {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- MsgQueue

TEST(MsgQueueTest, PushPopOrder) {
  MsgQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(10ms), 1);
  EXPECT_EQ(q.pop(10ms), 2);
  EXPECT_EQ(q.try_pop(), 3);
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

TEST(MsgQueueTest, PopTimesOutWhenEmpty) {
  MsgQueue<int> q;
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(q.pop(50ms), std::nullopt);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 40ms);
}

TEST(MsgQueueTest, CloseWakesWaiter) {
  MsgQueue<int> q;
  std::thread closer([&] {
    std::this_thread::sleep_for(20ms);
    q.close();
  });
  EXPECT_EQ(q.pop(5000ms), std::nullopt);  // returns promptly on close
  closer.join();
  EXPECT_FALSE(q.push(9));
}

TEST(MsgQueueTest, DrainAfterClose) {
  MsgQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_EQ(q.pop(10ms), 7);
  EXPECT_EQ(q.pop(10ms), std::nullopt);
}

TEST(MsgQueueTest, ConcurrentProducersAllDelivered) {
  MsgQueue<int> q;
  constexpr int kThreads = 8, kPer = 500;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&q, t] {
      for (int i = 0; i < kPer; ++i) q.push(t * kPer + i);
    });
  }
  std::vector<bool> seen(kThreads * kPer, false);
  for (int i = 0; i < kThreads * kPer; ++i) {
    auto v = q.pop(1000ms);
    ASSERT_TRUE(v.has_value());
    seen[static_cast<std::size_t>(*v)] = true;
  }
  for (auto& p : producers) p.join();
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(MsgQueueTest, CloseWhilePoppingReturnsPromptly) {
  // A consumer already blocked in pop() with a long timeout must wake as
  // soon as close() lands, not ride out the timeout.
  MsgQueue<int> q;
  std::optional<int> got = 0;
  std::chrono::steady_clock::duration waited{};
  std::thread popper([&] {
    auto start = std::chrono::steady_clock::now();
    got = q.pop(30000ms);
    waited = std::chrono::steady_clock::now() - start;
  });
  std::this_thread::sleep_for(50ms);  // let the popper block
  q.close();
  popper.join();
  EXPECT_EQ(got, std::nullopt);
  EXPECT_LT(waited, 5000ms);
}

TEST(MsgQueueTest, TimeoutIsAbsoluteAcrossWakeups) {
  // Wakeups that find the queue empty again (another consumer stole the
  // item) must re-arm against the original deadline, not restart the full
  // timeout — otherwise a push/steal storm could block pop() indefinitely.
  MsgQueue<int> q;
  std::thread stealer([&] {
    for (int i = 0; i < 20; ++i) {
      std::this_thread::sleep_for(10ms);
      q.push(i);
      // Steal it back before the victim can grab it (races are fine either
      // way: the victim either gets a value or times out on schedule).
      (void)q.try_pop();
    }
  });
  auto start = std::chrono::steady_clock::now();
  (void)q.pop(100ms);
  auto waited = std::chrono::steady_clock::now() - start;
  stealer.join();
  // 20 spurious-looking wakeups at 10ms apiece would stretch a
  // restart-the-timeout implementation well past 300ms.
  EXPECT_LT(waited, 1000ms);
}

// ---------------------------------------------------------------- frames

TEST(FrameTest, JsonFrameRoundTrip) {
  json::Object o;
  o["type"] = "task_done";
  o["id"] = 42;
  Frame f = Frame::make_json(json::Value(o));
  auto wire = encode_frame(f);
  auto back = decode_frame_view(wire[4], std::string_view(wire).substr(5));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, Frame::Kind::json);
  EXPECT_EQ(back->msg.get_int("id"), 42);
}

json::Value named(const std::string& name) {
  return json::Value(json::Object{{"name", json::Value(name)}});
}

TEST(FrameTest, BlobFrameRoundTrip) {
  std::string data(100000, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i * 13);
  Frame f = Frame::make_blob(named("md5-abc123"), data);
  auto wire = encode_frame(f);
  auto back = decode_frame_view(wire[4], std::string_view(wire).substr(5));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, Frame::Kind::blob);
  EXPECT_EQ(back->msg.get_string("name"), "md5-abc123");
  EXPECT_EQ(back->data, data);
}

TEST(FrameTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(decode_frame_view('J', "not json").ok());
  EXPECT_FALSE(decode_frame_view('B', "abc").ok());  // too short for msg len
  EXPECT_FALSE(decode_frame_view('X', "{}").ok());   // unknown kind
  // message length larger than payload
  std::string bad = std::string("\xff\xff\xff\x7f", 4) + "x";
  EXPECT_FALSE(decode_frame_view('B', bad).ok());
}

TEST(FrameTest, DecodeRejectsBadBlobMessage) {
  auto blob_payload = [](std::uint32_t msg_len, const std::string& rest) {
    std::string p(4, '\0');
    write_u32(p.data(), msg_len);
    return p + rest;
  };
  // The message length runs one byte past the payload.
  const std::string msg = "{\"name\":\"a\"}";
  EXPECT_TRUE(decode_frame_view('B', blob_payload(msg.size(), msg)).ok());
  auto past = decode_frame_view('B', blob_payload(msg.size() + 1, msg));
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.error().code, Errc::parse_error);
  // The message is not JSON, though bytes follow it.
  auto not_json = decode_frame_view('B', blob_payload(7, "garbagebytes"));
  ASSERT_FALSE(not_json.ok());
  EXPECT_EQ(not_json.error().code, Errc::parse_error);
}

TEST(FrameTest, EmptyBlobAllowed) {
  Frame f = Frame::make_blob(named("t"), "");
  auto wire = encode_frame(f);
  auto back = decode_frame_view(wire[4], std::string_view(wire).substr(5));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->msg.get_string("name"), "t");
  EXPECT_EQ(back->data, "");
}

// ------------------------------------------------------- transport parity

// The same behavioural suite runs over both transports.
enum class TransportKind { channel, tcp };

Result<std::unique_ptr<Listener>> listen_on(TransportKind kind,
                                            Listener::AcceptFn on_accept) {
  if (kind == TransportKind::channel) {
    return ChannelFabric::instance().listen("test-" + generate_token(8),
                                            std::move(on_accept));
  }
  return tcp_listen(0, std::move(on_accept));
}

/// Records everything a receiver callback is handed. Declare it before the
/// endpoints it observes: an endpoint's teardown may still deliver the
/// terminal error to it.
struct Collector {
  std::mutex mu;  // guards frames/errors; cv signals each delivery
  std::condition_variable cv;
  std::vector<Frame> frames;
  std::vector<Error> errors;

  std::function<void(Result<Frame>)> receiver() {
    return [this](Result<Frame> r) {
      std::lock_guard<std::mutex> lock(mu);
      if (r.ok()) {
        frames.push_back(std::move(r).value());
      } else {
        errors.push_back(r.error());
      }
      cv.notify_all();
    };
  }

  /// Wait until `frames` and `errors` reach the given sizes.
  bool wait_for(std::size_t n_frames, std::size_t n_errors,
                std::chrono::milliseconds timeout = 5000ms) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, timeout, [&] {
      return frames.size() >= n_frames && errors.size() >= n_errors;
    });
  }

  std::size_t error_count() {
    std::lock_guard<std::mutex> lock(mu);
    return errors.size();
  }
};

Frame numbered(int sender, int seq) {
  return Frame::make_json(json::Value(
      json::Object{{"s", json::Value(sender)}, {"i", json::Value(seq)}}));
}

class TransportTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  void SetUp() override {
    auto lr = listen_on(GetParam(), accepted_.acceptor());
    ASSERT_TRUE(lr.ok());
    listener_ = std::move(*lr);
  }

  std::pair<std::unique_ptr<Endpoint>, std::unique_ptr<Endpoint>> connect_pair() {
    auto c = connect_to(listener_->address(), 2000ms);
    EXPECT_TRUE(c.ok()) << (c.ok() ? "" : c.error().to_string());
    if (!c.ok()) return {};
    return {std::move(*c), accepted_.next(2000ms)};
  }

  AcceptQueue accepted_;
  std::unique_ptr<Listener> listener_;
};

TEST_P(TransportTest, ConnectSendReceive) {
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);

  json::Object o;
  o["type"] = "hello";
  o["cores"] = 4;
  FrameQueue rx;
  server->set_receiver(rx.receiver());
  ASSERT_TRUE(client->send_json(json::Value(o)).ok());

  auto f = rx.next(2000ms);
  ASSERT_TRUE(f.ok()) << f.error().to_string();
  EXPECT_EQ(f->msg.get_string("type"), "hello");
  EXPECT_EQ(f->msg.get_int("cores"), 4);
}

TEST_P(TransportTest, BidirectionalTraffic) {
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  FrameQueue at_server, at_client;
  server->set_receiver(at_server.receiver());
  client->set_receiver(at_client.receiver());
  ASSERT_TRUE(client->send_json(json::Value(json::Object{{"n", json::Value(1)}})).ok());
  ASSERT_TRUE(server->send_json(json::Value(json::Object{{"n", json::Value(2)}})).ok());
  EXPECT_EQ(at_server.next(2000ms)->msg.get_int("n"), 1);
  EXPECT_EQ(at_client.next(2000ms)->msg.get_int("n"), 2);
}

TEST_P(TransportTest, LargeBlobTransfer) {
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  std::string big(5 * 1024 * 1024, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 31);

  FrameQueue rx;
  server->set_receiver(rx.receiver());
  std::thread sender([&] { ASSERT_TRUE(client->send_blob(named("big"), big).ok()); });
  auto f = rx.next(10000ms);
  sender.join();
  ASSERT_TRUE(f.ok()) << f.error().to_string();
  EXPECT_EQ(f->msg.get_string("name"), "big");
  EXPECT_EQ(f->data, big);
}

TEST_P(TransportTest, BlobFrameCarriesMessageAndBytes) {
  // One frame per object: the message and its bytes arrive together,
  // whether the bytes are sent from memory or straight from a file.
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  FrameQueue rx;
  server->set_receiver(rx.receiver());
  const auto path = std::filesystem::temp_directory_path() /
                    ("vine-net-test-" + generate_token(8));
  for (std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{8} << 20}) {
    std::string bytes(size, '\0');
    for (std::size_t i = 0; i < size; ++i) {
      bytes[i] = static_cast<char>(i * 7 + (i >> 11));
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(size));
    }
    const json::Value msg(json::Object{{"name", json::Value("obj")},
                                       {"size", json::Value(size)}});
    ASSERT_TRUE(client->send_blob(msg, bytes).ok());
    ASSERT_TRUE(client->send_blob_file(msg, path.string(), size).ok());
    // Both frames are in before the next size rewrites the file.
    for (const char* how : {"send_blob", "send_blob_file"}) {
      auto f = rx.next(10000ms);
      ASSERT_TRUE(f.ok()) << how << " " << size << ": " << f.error().to_string();
      EXPECT_EQ(f->kind, Frame::Kind::blob) << how;
      EXPECT_EQ(f->msg.get_string("name"), "obj") << how;
      EXPECT_EQ(f->msg.get_int("size"), static_cast<std::int64_t>(size)) << how;
      ASSERT_EQ(f->data.size(), size) << how;
      EXPECT_TRUE(f->data == bytes) << how;  // EXPECT_EQ would print 8 MiB
    }
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST_P(TransportTest, ManyFramesInOrder) {
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  constexpr int kN = 200;
  FrameQueue rx;
  server->set_receiver(rx.receiver());
  std::thread sender([&] {
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(
          client->send_json(json::Value(json::Object{{"i", json::Value(i)}})).ok());
    }
  });
  for (int i = 0; i < kN; ++i) {
    auto f = rx.next(2000ms);
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(f->msg.get_int("i"), i);
  }
  sender.join();
}

TEST_P(TransportTest, RecvTimesOutWhenIdle) {
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  FrameQueue rx;
  server->set_receiver(rx.receiver());
  auto f = rx.next(50ms);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.error().code, Errc::timeout);
}

TEST_P(TransportTest, CloseUnblocksPeer) {
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  FrameQueue rx;
  server->set_receiver(rx.receiver());
  client->close();
  auto f = rx.next(2000ms);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.error().code, Errc::unavailable);
}

TEST_P(TransportTest, SendAfterPeerCloseFails) {
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  server->close();
  // Possibly one buffered send succeeds (TCP); eventually it must fail.
  bool failed = false;
  for (int i = 0; i < 50 && !failed; ++i) {
    auto st = client->send_json(json::Value(json::Object{}));
    failed = !st.ok();
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(failed);
}

TEST_P(TransportTest, MultipleClients) {
  constexpr int kClients = 5;
  std::vector<std::unique_ptr<Endpoint>> clients;
  for (int i = 0; i < kClients; ++i) {
    auto c = connect_to(listener_->address(), 2000ms);
    ASSERT_TRUE(c.ok());
    (*c)->send_json(json::Value(json::Object{{"id", json::Value(i)}}));
    clients.push_back(std::move(*c));
  }
  std::vector<std::unique_ptr<Endpoint>> servers;
  for (int i = 0; i < kClients; ++i) {
    servers.push_back(accepted_.next(2000ms));
    ASSERT_TRUE(servers.back());
  }
  std::vector<bool> seen(kClients, false);
  for (auto& s : servers) {
    FrameQueue rx;
    s->set_receiver(rx.receiver());
    auto f = rx.next(2000ms);
    ASSERT_TRUE(f.ok());
    seen[static_cast<std::size_t>(f->msg.get_int("id"))] = true;
  }
  for (bool b : seen) EXPECT_TRUE(b);
}

// ------------------------------------------------------- push contract

TEST_P(TransportTest, ConcurrentSendersArriveInPerSenderOrder) {
  constexpr int kSenders = 4;
  constexpr int kFrames = 1000;
  Collector col;
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  server->set_receiver(col.receiver());

  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (int i = 0; i < kFrames; ++i) {
        ASSERT_TRUE(client->send(numbered(s, i)).ok());
      }
    });
  }
  for (auto& t : senders) t.join();
  ASSERT_TRUE(col.wait_for(kSenders * kFrames, 0, 10000ms));

  std::lock_guard<std::mutex> lock(col.mu);
  EXPECT_EQ(col.frames.size(), static_cast<std::size_t>(kSenders * kFrames));
  std::vector<int> next(kSenders, 0);
  for (const Frame& f : col.frames) {
    const auto s = static_cast<std::size_t>(f.msg.get_int("s"));
    ASSERT_LT(s, next.size());
    ASSERT_EQ(f.msg.get_int("i"), next[s]) << "sender " << s;
    ++next[s];
  }
  EXPECT_TRUE(col.errors.empty());
}

TEST_P(TransportTest, FramesBeforeReceiverAreDrainedFirstInOrder) {
  constexpr int kEarly = 100;
  Collector col;
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  for (int i = 0; i < kEarly; ++i) ASSERT_TRUE(client->send(numbered(0, i)).ok());
  // Let the TCP reactor read them into the backlog; channels buffer them
  // synchronously.
  std::this_thread::sleep_for(100ms);
  server->set_receiver(col.receiver());
  for (int i = kEarly; i < 2 * kEarly; ++i) {
    ASSERT_TRUE(client->send(numbered(0, i)).ok());
  }
  ASSERT_TRUE(col.wait_for(2 * kEarly, 0));

  std::lock_guard<std::mutex> lock(col.mu);
  ASSERT_EQ(col.frames.size(), static_cast<std::size_t>(2 * kEarly));
  for (int i = 0; i < 2 * kEarly; ++i) {
    EXPECT_EQ(col.frames[static_cast<std::size_t>(i)].msg.get_int("i"), i);
  }
}

TEST_P(TransportTest, TerminalErrorOnceOnLocalClose) {
  Collector col;
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  server->set_receiver(col.receiver());
  ASSERT_TRUE(client->send(numbered(0, 0)).ok());
  ASSERT_TRUE(col.wait_for(1, 0));

  server->close();
  EXPECT_EQ(col.error_count(), 1u);  // delivered before close() returns
  server->close();
  (void)client->send(numbered(0, 1));
  client->close();
  std::this_thread::sleep_for(50ms);
  std::lock_guard<std::mutex> lock(col.mu);
  EXPECT_EQ(col.frames.size(), 1u);
  ASSERT_EQ(col.errors.size(), 1u);
  EXPECT_EQ(col.errors[0].code, Errc::unavailable);
}

TEST_P(TransportTest, TerminalErrorOnceOnPeerClose) {
  Collector col;
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  server->set_receiver(col.receiver());
  ASSERT_TRUE(client->send(numbered(0, 0)).ok());
  // TCP close() discards unwritten frames; let this one land first.
  ASSERT_TRUE(col.wait_for(1, 0));
  client->close();
  ASSERT_TRUE(col.wait_for(1, 1));

  server->close();
  std::this_thread::sleep_for(50ms);
  std::lock_guard<std::mutex> lock(col.mu);
  EXPECT_EQ(col.frames.size(), 1u);
  ASSERT_EQ(col.errors.size(), 1u);
  EXPECT_EQ(col.errors[0].code, Errc::unavailable);
}

TEST_P(TransportTest, NoCallbackAfterCloseReturns) {
  std::atomic<bool> closed{false};
  std::atomic<int> late{0};
  std::atomic<int> delivered{0};
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  server->set_receiver([&](Result<Frame>) {
    if (closed.load()) late.fetch_add(1);
    delivered.fetch_add(1);
  });

  std::atomic<bool> stop{false};
  std::thread sender([&] {
    for (int i = 0; !stop.load() && client->send(numbered(0, i)).ok(); ++i) {
    }
  });
  while (delivered.load() < 100) std::this_thread::sleep_for(1ms);
  server->close();
  closed.store(true);
  std::this_thread::sleep_for(50ms);  // senders keep hammering the closed end
  stop.store(true);
  sender.join();
  EXPECT_EQ(late.load(), 0);
}

TEST_P(TransportTest, AcceptorFiresOncePerConnectAndNeverAfterClose) {
  std::atomic<int> accepts{0};
  AcceptQueue kept;  // holds the accepted ends so they stay open
  auto lr = listen_on(GetParam(), [&accepts, fn = kept.acceptor()](
                                      std::unique_ptr<Endpoint> ep) {
    accepts.fetch_add(1);
    fn(std::move(ep));
  });
  ASSERT_TRUE(lr.ok());
  std::unique_ptr<Listener> listener = std::move(*lr);

  constexpr int kConnects = 3;
  std::vector<std::unique_ptr<Endpoint>> clients;
  for (int i = 0; i < kConnects; ++i) {
    auto c = connect_to(listener->address(), 2000ms);
    ASSERT_TRUE(c.ok());
    clients.push_back(std::move(*c));
  }
  // TCP accepts on the reactor thread, after connect() has returned.
  for (int i = 0; i < 200 && accepts.load() < kConnects; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(accepts.load(), kConnects);

  listener->close();
  const int at_close = accepts.load();
  for (int i = 0; i < kConnects; ++i) {
    auto c = connect_to(listener->address(), 200ms);
    if (c.ok()) clients.push_back(std::move(*c));
  }
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(accepts.load(), at_close);
  EXPECT_EQ(accepts.load(), kConnects);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportTest,
                         ::testing::Values(TransportKind::channel,
                                           TransportKind::tcp),
                         [](const auto& info) {
                           return info.param == TransportKind::channel ? "Channel"
                                                                       : "Tcp";
                         });

// ---------------------------------------------------------------- misc

TEST(ConnectTo, UnknownChannelFails) {
  auto r = connect_to("chan:never-registered", 50ms);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::unavailable);
}

TEST(ConnectTo, BadTcpAddressFails) {
  EXPECT_FALSE(connect_to("not-an-address", 50ms).ok());
  EXPECT_FALSE(connect_to("1.2.3.4.5:99", 50ms).ok());
  EXPECT_FALSE(connect_to("127.0.0.1:notaport", 50ms).ok());
}

// -------------------------------------------------- idle/stall timeouts (S2)

TEST(TcpTimeout, DeadSilentPeerSurfacesTimeout) {
  // A peer that connects and never writes anything must surface
  // Errc::timeout to a waiting reader promptly, not block forever.
  AcceptQueue accepted;
  auto listener = tcp_listen(0, accepted.acceptor());
  ASSERT_TRUE(listener.ok());
  auto client = tcp_connect((*listener)->address(), 1000ms);
  ASSERT_TRUE(client.ok());
  auto server = accepted.next(1000ms);
  ASSERT_TRUE(server);

  FrameQueue rx;
  server->set_receiver(rx.receiver());
  auto start = std::chrono::steady_clock::now();
  auto r = rx.next(200ms);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::timeout);
  EXPECT_GE(elapsed, 150ms);
  EXPECT_LT(elapsed, 2000ms);
}

TEST(TcpTimeout, MidFrameStallSurfacesTimeoutNotWedge) {
  // The nastier case: the peer sends a frame *header* promising 100 bytes,
  // then goes dead silent. Without the io timeout the receiver would sit
  // in the mid-frame continuation loop for the default 60 s. Endpoint
  // sends are frame-atomic, so the torn frame is written through a raw
  // socket (fine in tests; vine_lint bans raw IO in src/ only).
  AcceptQueue accepted;
  auto listener = tcp_listen(0, accepted.acceptor());
  ASSERT_TRUE(listener.ok());
  const std::string addr = (*listener)->address();
  const auto colon = addr.rfind(':');
  ASSERT_NE(colon, std::string::npos);
  const int port = std::stoi(addr.substr(colon + 1));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);

  auto server = accepted.next(1000ms);
  ASSERT_TRUE(server);
  server->set_io_timeout(150ms);
  FrameQueue rx;
  server->set_receiver(rx.receiver());

  // u32 LE payload length (100) + kind 'J' — then silence.
  const char header[5] = {'\x64', '\x00', '\x00', '\x00', 'J'};
  ASSERT_EQ(::send(fd, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));

  auto start = std::chrono::steady_clock::now();
  auto r = rx.next(5000ms);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::timeout);
  EXPECT_LT(elapsed, 3000ms);  // far below the 60 s default window
  ::close(fd);
}

TEST(ChannelFabricTest, DuplicateNameRejected) {
  auto name = "dup-" + generate_token(8);
  AcceptQueue accepted;
  auto l1 = ChannelFabric::instance().listen(name, accepted.acceptor());
  ASSERT_TRUE(l1.ok());
  auto l2 = ChannelFabric::instance().listen(name, accepted.acceptor());
  EXPECT_FALSE(l2.ok());
  // After closing, the name can be reused.
  (*l1)->close();
  auto l3 = ChannelFabric::instance().listen(name, accepted.acceptor());
  EXPECT_TRUE(l3.ok());
}

}  // namespace
}  // namespace vine
