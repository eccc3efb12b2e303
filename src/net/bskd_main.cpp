// bskd — the bsk worker daemon: a net::Daemon behind a command line (see
// net/daemon.hpp for what the daemon serves).
//
//   bskd [--port N] [--port-file PATH] [--session-linger S] [--workers N]
//        [--trace-file PATH] [--cluster] [--join HOST:PORT[,HOST:PORT...]]
//        [--cores N] [--core-speed X] [--fanout K] [--beacon PORT]
//
// --port 0 (the default) binds an ephemeral port; --port-file writes the
// bound port as decimal text once listening — how spawn_bskd() and the
// two-process example learn where to connect.
//
// --join seeds (or bare --cluster for a seed-less first node, optionally
// with a --beacon UDP discovery port) starts the daemon's ClusterNode.
// SIGTERM and SIGINT stop the daemon in order: live sessions get a
// goodbye and cluster peers a Leave. --trace-file then receives this
// process's decision trace.

#include <signal.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>

#include "net/daemon.hpp"
#include "net/shm.hpp"
#include "obs/trace.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--port-file PATH] [--session-linger S]"
               " [--workers N] [--trace-file PATH] [--cluster]"
               " [--join HOST:PORT[,HOST:PORT...]] [--cores N]"
               " [--core-speed X] [--fanout K] [--beacon PORT]"
               " [--gossip-period S] [--gossip-full]\n",
               argv0);
  return 2;
}

/// Raise RLIMIT_NOFILE to the hard cap. A fleet node holds one fd per
/// gossip peer plus worker/stats connections; the common soft default of
/// 1024 strangles a 128-daemon fleet long before memory does. Best-effort —
/// on failure the epoll accept backoff is the safety net.
void raise_nofile_limit() {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  if (rl.rlim_cur >= rl.rlim_max) return;
  rl.rlim_cur = rl.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &rl);
}

constexpr unsigned long kMaxCount = std::numeric_limits<unsigned long>::max();
constexpr unsigned long kMaxPort = 65535;
constexpr double kPositive = std::numeric_limits<double>::denorm_min();
constexpr double kMaxReal = std::numeric_limits<double>::infinity();

/// The whole of `s` as a number in [lo, hi] — strtoul for whole numbers,
/// strtod for reals — or nullopt when it is anything else.
template <typename T>
std::optional<T> number_in(const char* s, T lo, T hi) {
  char* end = nullptr;
  T v;
  if constexpr (std::is_floating_point_v<T>)
    v = std::strtod(s, &end);
  else
    v = std::strtoul(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) return std::nullopt;
  return v;
}

/// Parse "host:port" (host defaults to loopback when omitted: ":7000").
std::optional<bsk::net::Endpoint> parse_endpoint(const std::string& s) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos) return std::nullopt;
  bsk::net::Endpoint ep;
  if (colon > 0) ep.host = s.substr(0, colon);
  const auto port = number_in(s.c_str() + colon + 1, 1ul, kMaxPort);
  if (!port) return std::nullopt;
  ep.port = static_cast<std::uint16_t>(*port);
  return ep;
}

}  // namespace

int main(int argc, char** argv) {
  bsk::net::DaemonOptions opts;
  bsk::cluster::ClusterOptions& copts = opts.cluster_opts;
  std::string port_file;
  std::string trace_file;
  const auto invalid = [&](const char* what, const char* s) {
    std::fprintf(stderr, "bskd: invalid %s '%s'\n", what, s);
    return usage(argv[0]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* s = i + 1 < argc ? argv[i + 1] : "";
    if (arg == "--cluster") {
      opts.clustering = true;
    } else if (arg == "--join" && i + 1 < argc) {
      opts.clustering = true;
      std::stringstream ss(argv[++i]);
      std::string one;
      while (std::getline(ss, one, ',')) {
        const auto ep = parse_endpoint(one);
        if (!ep) return invalid("seed", one.c_str());
        copts.seeds.push_back(*ep);
      }
    } else if (arg == "--cores" && i + 1 < argc) {
      ++i;
      const auto v = number_in(s, 1ul, kMaxCount);
      if (!v) return invalid("cores", s);
      opts.cores = static_cast<std::uint32_t>(*v);
    } else if (arg == "--core-speed" && i + 1 < argc) {
      ++i;
      const auto v = number_in(s, kPositive, kMaxReal);
      if (!v) return invalid("core speed", s);
      opts.core_speed = *v;
    } else if (arg == "--fanout" && i + 1 < argc) {
      ++i;
      const auto v = number_in(s, 1ul, kMaxCount);
      if (!v) return invalid("fanout", s);
      copts.fanout = static_cast<std::size_t>(*v);
    } else if (arg == "--beacon" && i + 1 < argc) {
      ++i;
      const auto v = number_in(s, 1ul, kMaxPort);
      if (!v) return invalid("beacon port", s);
      opts.clustering = true;
      copts.beacon_port = static_cast<std::uint16_t>(*v);
    } else if (arg == "--gossip-period" && i + 1 < argc) {
      ++i;
      const auto v = number_in(s, kPositive, kMaxReal);
      if (!v) return invalid("gossip period", s);
      copts.gossip_period_wall_s = *v;
    } else if (arg == "--gossip-full") {
      // Full-table exchange on every dial (pre-delta behavior); used by the
      // E7c before/after comparison.
      copts.delta_gossip = false;
    } else if (arg == "--port" && i + 1 < argc) {
      ++i;
      const auto v = number_in(s, 0ul, kMaxPort);
      if (!v) return invalid("port", s);
      opts.port = static_cast<std::uint16_t>(*v);
    } else if (arg == "--port-file" && i + 1 < argc) {
      port_file = argv[++i];
    } else if (arg == "--trace-file" && i + 1 < argc) {
      trace_file = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      ++i;
      const auto v = number_in(s, 1ul, kMaxCount);
      if (!v) return invalid("workers", s);
      opts.workers = static_cast<std::size_t>(*v);
    } else if (arg == "--session-linger" && i + 1 < argc) {
      ++i;
      const auto v = number_in(s, 0.0, kMaxReal);
      if (!v) return invalid("linger", s);
      opts.session_linger_s = *v;
    } else {
      return usage(argv[0]);
    }
  }

  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  raise_nofile_limit();
  if (const std::size_t reaped = bsk::net::reap_stale_shm_segments();
      reaped > 0)
    std::fprintf(stderr, "bskd: reaped %zu stale shm segment(s)\n", reaped);

  bsk::net::Daemon daemon(opts);
  if (!daemon.valid()) {
    std::fprintf(stderr, "bskd: cannot listen on port %u\n", opts.port);
    return 1;
  }
  daemon.start();
  std::fprintf(stderr, "bskd: listening on 127.0.0.1:%u\n", daemon.port());
  bsk::obs::TraceLog::global().set_process_tag(
      "bskd:" + std::to_string(daemon.port()));
  if (const auto* node = daemon.cluster_node())
    std::fprintf(stderr, "bskd: cluster node %s (weight %.1f, %zu seeds)\n",
                 node->self_key().c_str(),
                 static_cast<double>(opts.cores) * opts.core_speed,
                 copts.seeds.size());

  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << daemon.port() << '\n';
  }

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    daemon.reap();
  }
  daemon.stop();

  if (!trace_file.empty()) {
    std::ofstream out(trace_file, std::ios::trunc);
    out << bsk::net::stats_text(bsk::net::StatsRequest::What::TraceJsonl);
  }
  return 0;
}
