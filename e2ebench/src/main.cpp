// e2ebench: one end-to-end benchmark run of the managed farm.
//
//   e2ebench --workload <farm-threads|farm-shm|farm-tcp|mape-steps>
//            --seed <n> --seconds <s> --trace <0|1>
//            --bskd <path to bskd> [--trace-dir <dir>]
//
// Prints human-readable notes on stderr and, as the last stdout line, one
// JSON object: correct/attempted/failed, the metrics (end-to-end ones with
// --trace 0, per-layer ones with --trace 1, each with its unit) and the run
// context. run.py builds the binaries and wraps this into the benchmark's
// result line.

#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <set>
#include <thread>

#include "bench.hpp"
#include "benchlib.hpp"
#include "json_out.hpp"
#include "net/wire.hpp"

namespace e2e {

// ------------------------------------------------------- child registry

namespace {
std::mutex g_children_mu;
std::set<int> g_children;
}  // namespace

void register_child(int pid) {
  std::lock_guard<std::mutex> lk(g_children_mu);
  g_children.insert(pid);
}

void unregister_child(int pid) {
  std::lock_guard<std::mutex> lk(g_children_mu);
  g_children.erase(pid);
}

void kill_children() {
  std::lock_guard<std::mutex> lk(g_children_mu);
  for (int pid : g_children) ::kill(pid, SIGKILL);
}

// ---------------------------------------------------------------- codec

CodecCost measure_codec(const bsk::rt::Task& t) {
  using namespace bsk::net;
  constexpr int kBatches = 5, kPerBatch = 4000;
  std::vector<double> enc, dec;
  std::size_t bytes = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<std::vector<std::uint8_t>> frames(kPerBatch);
    double t0 = wall_now();
    for (auto& f : frames) f = encode_frame(make_task(t, FrameType::TaskMsg, 1));
    enc.push_back(1e9 * (wall_now() - t0) / kPerBatch);
    bytes = frames.front().size();
    std::size_t ok = 0;
    t0 = wall_now();
    for (const auto& f : frames) {
      FrameDecoder d;
      d.feed(f.data(), f.size());
      if (auto fr = d.next())
        if (auto task = parse_task(*fr); task && task->id == t.id) ++ok;
    }
    dec.push_back(1e9 * (wall_now() - t0) / kPerBatch);
    if (ok != frames.size()) return {};
  }
  return {median(enc), median(dec), static_cast<double>(bytes)};
}

namespace {

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--bskd") a.bskd = v;
    else if (k == "--trace-dir") a.trace_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

void print_result(const Args& a, const Result& r) {
  std::string m = "{";
  std::vector<std::string> not_applicable;
  auto emit = [&](const MetricDef& d) {
    const auto it = r.values.find(d.name);
    const double v = it == r.values.end() ? 0.0 : it->second;
    if (it == r.values.end()) not_applicable.push_back(d.name);
    if (m.size() > 1) m += ",";
    m += json_str(d.name) + ":{\"value\":" + json_num(v) +
         ",\"unit\":" + json_str(d.unit) + "}";
  };
  if (a.trace)
    for (const MetricDef& d : kPerLayer) emit(d);
  else
    for (const MetricDef& d : kEndToEnd) emit(d);
  m += "}";

  std::string ctx = "{\"workload\":" + json_str(a.workload) +
                    ",\"seed\":" + std::to_string(a.seed) +
                    ",\"seconds\":" + json_num(a.seconds) +
                    ",\"trace\":" + (a.trace ? "1" : "0") +
                    ",\"build_type\":" + json_str(BENCH_BUILD_TYPE) +
                    ",\"compiler\":" + json_str(BENCH_COMPILER);
  for (const auto& [k, v] : r.context) ctx += "," + json_str(k) + ":" + v;
  ctx += ",\"not_applicable\":[";
  for (std::size_t i = 0; i < not_applicable.size(); ++i)
    ctx += (i ? "," : "") + json_str(not_applicable[i]);
  ctx += "]}";

  std::cout << "{\"correct\":" << (r.correct ? "true" : "false")
            << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
            << ",\"metrics\":" << m << ",\"context\":" << ctx << "}"
            << std::endl;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload W --seed N --seconds S "
                 "--trace 0|1 --bskd PATH [--trace-dir DIR]\n");
    return 2;
  }
  const bool farm = a.workload == "farm-threads" ||
                    a.workload == "farm-shm" || a.workload == "farm-tcp";
  if (!farm && a.workload != "mape-steps") {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  if (farm && a.workload != "farm-threads" &&
      ::access(a.bskd.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "bskd not executable at '%s'\n", a.bskd.c_str());
    return 2;
  }

  // Precise open-loop pacing; every thread started from here inherits it.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  // A wedged run must not outlive its budget: abort (and take the spawned
  // daemons down) well before the caller's deadline.
  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lk(wd_mu);
    const auto limit = std::chrono::duration<double>(4.0 * a.seconds + 60.0);
    if (!wd_cv.wait_for(lk, limit, [&] { return done; })) {
      std::fprintf(stderr, "e2ebench: run exceeded %.0f s, aborting\n",
                   limit.count());
      kill_children();
      std::_Exit(3);
    }
  });

  Result r;
  int rc = 0;
  try {
    r = farm ? run_farm_workload(a) : run_mape_workload(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    rc = 1;
  }
  {
    std::lock_guard<std::mutex> lk(wd_mu);
    done = true;
  }
  wd_cv.notify_all();
  watchdog.join();
  kill_children();
  if (rc != 0) return rc;

  for (const std::string& p : r.problems)
    std::fprintf(stderr, "e2ebench: output check failed: %s\n", p.c_str());
  print_result(a, r);
  return 0;
}
