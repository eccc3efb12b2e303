// Experiment E13 — net micro-costs (google-benchmark).
//
// The wire and transport mechanisms behind distributed skeletons: frame
// encode/decode throughput for task messages at several payload sizes, and
// the one-task round-trip latency a RemoteConduit pays per process() call,
// compared across the shared-memory ring and TCP loopback transports. The
// Shm-vs-Tcp gap is what the shm negotiation buys a colocated worker.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "net/remote_conduit.hpp"
#include "net/shm.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "rt/task.hpp"

namespace {

using namespace bsk;

rt::Task payload_task(std::size_t payload_bytes) {
  return rt::Task::data(
      42, 0.001, std::vector<std::uint8_t>(payload_bytes, std::uint8_t{0xab}));
}

void BM_FrameEncodeTask(benchmark::State& state) {
  const rt::Task t = payload_task(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto wire = net::encode_frame(net::make_task(t));
    bytes += wire.size();
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FrameEncodeTask)->Arg(0)->Arg(256)->Arg(4096)->Arg(65536);

void BM_FrameDecodeTask(benchmark::State& state) {
  const auto wire = net::encode_frame(
      net::make_task(payload_task(static_cast<std::size_t>(state.range(0)))));
  net::FrameDecoder dec;
  std::size_t bytes = 0;
  for (auto _ : state) {
    dec.feed(wire.data(), wire.size());
    auto f = dec.next();
    bytes += wire.size();
    benchmark::DoNotOptimize(f);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FrameDecodeTask)->Arg(0)->Arg(256)->Arg(4096)->Arg(65536);

// One task out, one result back — the steady-state unit of work of a
// RemoteConduit — against an echo peer on its own thread.
void round_trip_loop(benchmark::State& state, net::Transport& near,
                     net::Transport& far) {
  std::jthread echo([&far] {
    net::Frame f;
    while (far.recv(f) == net::RecvStatus::Ok) {
      f.type = net::FrameType::ResultMsg;
      if (!far.send(f)) break;
    }
  });
  const net::Frame req = net::make_task(payload_task(256));
  net::Frame rep;  // hoisted: reuse the payload buffer across iterations
  for (auto _ : state) {
    near.send(req);
    if (near.recv(rep) != net::RecvStatus::Ok) {
      state.SkipWithError("transport closed mid-benchmark");
      break;
    }
    benchmark::DoNotOptimize(rep.payload.data());
  }
  near.close();
  far.close();
}

void BM_TcpLoopbackRoundTrip(benchmark::State& state) {
  net::TcpListener listener(0);
  if (!listener.valid()) {
    state.SkipWithError("cannot bind loopback listener");
    return;
  }
  auto client = net::TcpTransport::connect("127.0.0.1", listener.port());
  auto server = listener.accept_for(2.0);
  if (!client || !server) {
    state.SkipWithError("loopback connect/accept failed");
    return;
  }
  round_trip_loop(state, *client, *server);
}
BENCHMARK(BM_TcpLoopbackRoundTrip)->Unit(benchmark::kMicrosecond);

// The colocated fast path: the same round-trip over the shared-memory ring
// pair. The gap to BM_TcpLoopbackRoundTrip is what the shm negotiation buys
// a WorkerPool whose endpoint resolves to the local machine.
void BM_ShmRoundTrip(benchmark::State& state) {
  auto pair = net::ShmTransport::make_pair();
  if (!pair.a || !pair.b) {
    state.SkipWithError("shm pair setup failed");
    return;
  }
  round_trip_loop(state, *pair.a, *pair.b);
}
BENCHMARK(BM_ShmRoundTrip)->Unit(benchmark::kMicrosecond);

// Remote-worker throughput as a function of the credit window. window=1 is
// the strict round-trip-per-task protocol the dataplane used to pay; larger
// windows keep N tasks in flight so the wire latency is amortized across
// the pipeline. The peer is a serial echo, mirroring bskd's FIFO executor.
void credit_window_loop(benchmark::State& state,
                        std::shared_ptr<net::Transport> near,
                        std::shared_ptr<net::Transport> far) {
  std::jthread echo([far] {
    net::Frame f;
    while (far->recv(f) == net::RecvStatus::Ok) {
      if (f.type != net::FrameType::TaskMsg) continue;
      f.type = net::FrameType::ResultMsg;
      if (!far->send(f)) break;
    }
  });
  net::RemoteNodeOptions opts;
  opts.credit_window = static_cast<std::size_t>(state.range(0));
  opts.liveness_timeout_wall_s = 0.0;  // the echo peer sends no heartbeats
  net::RemoteWorkerNode node(near, opts);
  for (auto _ : state) {
    if (!node.process(payload_task(256)) && node.failed()) {
      state.SkipWithError("remote node failed mid-benchmark");
      break;
    }
    // nullopt without failure = window still priming; the result of this
    // task comes back on a later iteration or in the final flush.
  }
  while (node.flush()) {
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  node.on_stop();
  far->close();
}

void BM_TcpCreditThroughput(benchmark::State& state) {
  net::TcpListener listener(0);
  if (!listener.valid()) {
    state.SkipWithError("cannot bind loopback listener");
    return;
  }
  std::shared_ptr<net::Transport> client =
      net::TcpTransport::connect("127.0.0.1", listener.port());
  std::shared_ptr<net::Transport> server = listener.accept_for(2.0);
  if (!client || !server) {
    state.SkipWithError("loopback connect/accept failed");
    return;
  }
  credit_window_loop(state, std::move(client), std::move(server));
}
BENCHMARK(BM_TcpCreditThroughput)->Arg(1)->Arg(4)->Arg(16);

void BM_ShmCreditThroughput(benchmark::State& state) {
  auto pair = net::ShmTransport::make_pair();
  if (!pair.a || !pair.b) {
    state.SkipWithError("shm pair setup failed");
    return;
  }
  credit_window_loop(state, pair.a, pair.b);
}
BENCHMARK(BM_ShmCreditThroughput)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
