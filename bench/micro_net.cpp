// Micro-benchmarks — the TCP data plane (src/net/reactor.cpp). Two claims
// from DESIGN.md "Data plane" are gated here against the frozen
// thread-per-connection baseline (tools/bench.sh BASELINE_NET):
//
//   * BM_SmallFrames/N — control-message throughput across N concurrent
//     connections, 16 frames pipelined per connection per round. The
//     reactor coalesces queued frames into one writev and batch-decodes
//     the inbound buffer; the baseline paid one blocking write syscall
//     per frame and one parked reader thread per connection.
//   * BM_BlobServe — loopback GB/s streaming a 64 MB cached blob, the
//     worker→worker peer-serve path. sendfile moves the bytes without a
//     userspace copy.
//
// The same source builds against the pre-reactor transport when
// VINE_BENCH_LEGACY_SEND is defined (no send_blob_file, pull-mode recv()
// and accept() instead of receivers): that is how the baseline numbers in
// tools/bench.sh were measured — see the re-baselining note there.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "json/json.hpp"
#include "net/frame.hpp"
#include "net/tcp.hpp"
#ifndef VINE_BENCH_LEGACY_SEND
#include "net/msg_queue.hpp"
#endif

namespace {

using namespace std::chrono_literals;
using vine::Endpoint;
using vine::Frame;
using vine::Listener;

/// Serve a file-backed blob the way the worker does: zero-copy on the
/// reactor transport, read-then-send on the legacy one.
vine::Status send_file_frame(Endpoint& ep, const std::string& name,
                             const std::string& path, std::uint64_t size) {
#ifndef VINE_BENCH_LEGACY_SEND
  return ep.send_blob_file(name, path, size);
#else
  std::ifstream in(path, std::ios::binary);
  std::string data(size, '\0');
  in.read(data.data(), static_cast<std::streamsize>(size));
  return ep.send_blob(name, std::move(data));
#endif
}

/// A loopback listener; connect() returns an established {client, server}
/// pair. Accepted connections arrive through the listener's acceptor on
/// the reactor transport, through pull-mode accept() on the legacy one.
struct Loopback {
#ifndef VINE_BENCH_LEGACY_SEND
  std::shared_ptr<vine::MsgQueue<std::unique_ptr<Endpoint>>> accepted =
      std::make_shared<vine::MsgQueue<std::unique_ptr<Endpoint>>>();
#endif
  std::unique_ptr<Listener> listener;

  Loopback() {
#ifndef VINE_BENCH_LEGACY_SEND
    auto l = vine::tcp_listen(0, [q = accepted](std::unique_ptr<Endpoint> ep) {
      q->push(std::move(ep));
    });
#else
    auto l = vine::tcp_listen(0);
#endif
    if (!l.ok()) std::abort();
    listener = std::move(*l);
  }

  std::pair<std::unique_ptr<Endpoint>, std::unique_ptr<Endpoint>> connect() {
    auto c = vine::tcp_connect(listener->address(), 5000ms);
    if (!c.ok()) std::abort();
#ifndef VINE_BENCH_LEGACY_SEND
    auto s = accepted->pop(5000ms);
    if (!s) std::abort();
#else
    auto s = listener->accept(5000ms);
    if (!s.ok()) std::abort();
#endif
    return {std::move(*c), std::move(*s)};
  }
};

/// N established loopback connection pairs with a frame counter on the
/// serving side: receiver callbacks on the reactor transport, one recv
/// thread per connection on the legacy one (which is precisely the
/// baseline's thread-per-connection model).
struct NetRig {
  Loopback net;
  std::vector<std::unique_ptr<Endpoint>> clients;
  std::vector<std::unique_ptr<Endpoint>> servers;
  std::vector<std::thread> readers;
  std::atomic<std::int64_t> received{0};
  std::atomic<std::int64_t> expected{0};
  std::mutex done_mu;  // pairs with done_cv for the end-of-round handoff
  std::condition_variable done_cv;

  explicit NetRig(int conns) {
    for (int i = 0; i < conns; ++i) {
      auto [client, server] = net.connect();
      clients.push_back(std::move(client));
      servers.push_back(std::move(server));
      Endpoint* ep = servers.back().get();
#ifndef VINE_BENCH_LEGACY_SEND
      ep->set_receiver([this](vine::Result<Frame> f) {
        if (f.ok()) count_one();
      });
#else
      readers.emplace_back([this, ep] {
        while (true) {
          auto f = ep->recv(200ms);
          if (f.ok()) {
            count_one();
          } else if (f.error().code != vine::Errc::timeout) {
            return;
          }
        }
      });
#endif
    }
  }

  ~NetRig() {
    for (auto& c : clients) c->close();
    for (auto& s : servers) s->close();
    for (auto& t : readers) t.join();
  }

  void count_one() {
    const std::int64_t now = received.fetch_add(1, std::memory_order_relaxed) + 1;
    if (now == expected.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lk(done_mu);
      done_cv.notify_one();
    }
  }

  /// Block (not spin) until `target` frames are counted: a yield loop
  /// would fight the transport threads for the CPU and distort the
  /// measurement on small machines.
  void wait_received(std::int64_t target) {
    std::unique_lock<std::mutex> lk(done_mu);
    done_cv.wait(lk, [&] {
      return received.load(std::memory_order_relaxed) >= target;
    });
  }
};

/// Small-message throughput at state.range(0) connections: each round
/// pipelines 16 heartbeat-sized frames per connection, then waits for
/// every frame to be counted on the serving side. The payload is a tiny
/// blob, not JSON: the JSON codec is identical in both builds and would
/// only dilute the transport comparison this gate exists to keep honest.
void BM_SmallFrames(benchmark::State& state) {
  const int conns = static_cast<int>(state.range(0));
  constexpr int kDepth = 16;
  NetRig rig(conns);
  const std::string body(24, 'h');  // heartbeat-sized payload

  std::int64_t sent = 0;
  for (auto _ : state) {
    // The round's target must be published before the first send, or a
    // fast transport could count the final frame against a stale target
    // and skip the wakeup.
    sent += static_cast<std::int64_t>(conns) * kDepth;
    rig.expected.store(sent, std::memory_order_relaxed);
    for (auto& client : rig.clients) {
      for (int k = 0; k < kDepth; ++k) {
        if (!client->send_blob("hb", body).ok()) std::abort();
      }
    }
    rig.wait_received(sent);
  }
  state.SetItemsProcessed(sent);
}
BENCHMARK(BM_SmallFrames)->Arg(8)->Arg(64)->Arg(256)->UseRealTime();

constexpr std::uint64_t kBlobSize = 64ull * 1024 * 1024;

/// One 64 MB file-backed blob per iteration over a single loopback
/// connection — the peer-transfer serve path. Reported as bytes/s.
void BM_BlobServe(benchmark::State& state) {
  const auto path = std::filesystem::temp_directory_path() /
                    "vine-micro-net-blob.bin";
  {
    std::string bytes(kBlobSize, '\0');
    for (std::size_t i = 0; i < bytes.size(); i += 4096) {
      bytes[i] = static_cast<char>(i >> 12);
    }
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  Loopback net;
  auto [client, server] = net.connect();
#ifndef VINE_BENCH_LEGACY_SEND
  auto frames = std::make_shared<vine::MsgQueue<vine::Result<Frame>>>();
  client->set_receiver(
      [frames](vine::Result<Frame> f) { frames->push(std::move(f)); });
#endif

  for (auto _ : state) {
    // Send from a helper thread: the legacy transport's send_blob is a
    // blocking write that outgrows the loopback socket buffer, so sender
    // and receiver must run concurrently (the reactor just enqueues).
    std::thread sender([&] {
      if (!send_file_frame(*server, "blob", path.string(), kBlobSize).ok()) {
        std::abort();
      }
    });
#ifndef VINE_BENCH_LEGACY_SEND
    auto got = frames->pop(30000ms);
    if (!got || !got->ok() || (*got)->data.size() != kBlobSize) std::abort();
#else
    auto got = client->recv(30000ms);
    if (!got.ok() || got->data.size() != kBlobSize) std::abort();
#endif
    sender.join();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBlobSize));
  std::error_code ec;
  std::filesystem::remove(path, ec);
}
BENCHMARK(BM_BlobServe)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
