// The three dataplane workloads: a seeded task stream through an rt::Farm of
// 3 workers that are local threads (farm-threads), echo workers in a spawned
// bskd reached over shared memory (farm-shm), or the same over TCP
// (farm-tcp).
//
// A run is several fresh deployments (setup_s is the median of their
// set-ups), each driven through
//   1. a short closed-loop warm-up,
//   2. an open loop at a fixed rate: latency runs from each task's
//      *scheduled* send time to its pop from Farm::output(), and CPU per
//      task covers this process plus the daemon,
//   3. a closed loop with a fixed bound on outstanding tasks: throughput.
// Every task id must come back exactly once with its payload intact (and in
// order on farm-threads); remote runs must have recruited only remote
// workers, over shm exactly when the workload asks for it.

#include <signal.h>
#include <time.h>

#include <any>
#include <atomic>
#include <cstring>
#include <random>
#include <thread>

#include "bench.hpp"
#include "benchlib.hpp"
#include "net/worker_pool.hpp"
#include "obs/metrics.hpp"
#include "rt/farm.hpp"

namespace e2e {
namespace {

using bsk::rt::Task;

enum class Deploy { Threads, Shm, Tcp };

// Open-loop rates leave ~4x headroom below the closed-loop saturation
// measured on a 4-vCPU VM, because neighbours on a shared host can halve
// that saturation for seconds at a time.
struct FarmSpec {
  Deploy deploy = Deploy::Threads;
  std::size_t payload_bytes = 256;
  double open_rate = 25000;         ///< open-loop tasks per wall second
  bool ordered = false;             ///< ordered collection
  std::size_t closed_bound = 256;   ///< outstanding tasks in the closed loop
};

constexpr std::size_t kWorkers = 3;
// A run is this many fresh deployments (each also a setup_s sample); local
// set-ups take ~100 us and jitter, so farm-threads adds more set-up-only
// cycles.
constexpr int kRounds = 5;
constexpr int kExtraLocalSetups = 10;
// Upper bound on closed-loop throughput, for sizing the delivery checker.
constexpr double kMaxRate = 1.5e6;
constexpr std::size_t kProbeTasks = 16;  // > workers x credit window
constexpr std::size_t kPayloadPool = 64;
// Throughput and open-loop percentiles are taken per window of this length
// and reported as the quartile of windows on the good side (the lower one
// for latency, the upper one for throughput). Interference from other
// tenants of a shared host only ever adds latency or removes throughput,
// and it comes in episodes of seconds: the quartile follows the program
// while ignoring up to three quarters of windows a neighbour disturbed. A
// change that slows every window still moves it; intermittent stalls show
// in the pooled p99 and top percentile kept in the run context.
constexpr double kSliceS = 0.25;
constexpr double kGoodQuartileLat = 0.25, kGoodQuartileTput = 0.75;

FarmSpec spec_for(const std::string& w) {
  FarmSpec s;
  if (w == "farm-threads") {
    s.ordered = true;
  } else if (w == "farm-shm") {
    s.deploy = Deploy::Shm;
  } else {  // farm-tcp
    s.deploy = Deploy::Tcp;
    s.payload_bytes = 4096;
    s.open_rate = 5000;
  }
  return s;
}

/// Seeded payloads: task i carries pool[i % P] with its id stamped into the
/// first 8 bytes, so every payload is distinct and checkable on return.
class Payloads {
 public:
  Payloads(std::uint64_t seed, std::size_t bytes) : bytes_(bytes) {
    std::mt19937_64 rng(seed);
    for (std::size_t i = 0; i < kPayloadPool; ++i) {
      std::string s(bytes, '\0');
      for (char& c : s) c = static_cast<char>(rng());
      pool_.push_back(std::move(s));
    }
  }

  Task task(std::uint64_t id) const {
    std::string s = pool_[id % kPayloadPool];
    std::memcpy(s.data(), &id, sizeof id);
    Task t = Task::data(id, 0.0, std::move(s));
    t.size_mb = static_cast<double>(bytes_) / 1e6;
    return t;
  }

  bool check(const Task& t) const {
    const auto* s = std::any_cast<std::string>(&t.payload);
    if (!s || s->size() != bytes_) return false;
    const std::string& ref = pool_[t.id % kPayloadPool];
    return std::memcmp(s->data(), &t.id, sizeof t.id) == 0 &&
           std::memcmp(s->data() + 8, ref.data() + 8, bytes_ - 8) == 0;
  }

 private:
  std::size_t bytes_;
  std::vector<std::string> pool_;
};

/// One deployment of the farm (plus daemon and pool for the remote kinds).
struct Deployment {
  bsk::net::BskdProcess bskd;
  std::unique_ptr<bsk::net::WorkerPool> pool;
  std::unique_ptr<bsk::rt::Farm> farm;
  double setup_s = 0;

  ~Deployment() { stop_daemon(); }

  /// Close the stream and wait for the farm to drain.
  void finish() {
    if (!farm) return;
    farm->input()->close();
    farm->wait();
  }

  void stop_daemon() {
    if (bskd.pid > 0) {
      const int pid = bskd.pid;
      bsk::net::stop_bskd(bskd, SIGTERM);
      unregister_child(pid);
    }
  }
};

bsk::net::WorkerPoolOptions pool_options(const FarmSpec& sp) {
  bsk::net::WorkerPoolOptions o;
  o.node_kind = "echo";
  o.allow_shm = sp.deploy == Deploy::Shm;
  // A silent fallback would measure local workers at local speed; make it
  // impossible to miss (the checks below also count it).
  o.local_fallback = nullptr;
  return o;
}

/// Build and start one deployment; setup_s runs from the first step to the
/// first task accepted by the farm (spawn, handshake and shm attach
/// included). Throws on an unrecoverable set-up failure.
std::unique_ptr<Deployment> deploy(const FarmSpec& sp, const Args& a,
                                   const Payloads& pl, NodeTimings* timings) {
  auto d = std::make_unique<Deployment>();
  const double t0 = wall_now();
  bsk::rt::NodeFactory factory;
  if (sp.deploy == Deploy::Threads) {
    factory = [] {
      return std::make_unique<bsk::rt::LambdaNode>(
          [](Task t) -> std::optional<Task> { return t; });
    };
  } else {
    d->bskd = bsk::net::spawn_bskd(a.bskd);
    if (!d->bskd.valid())
      throw std::runtime_error("cannot spawn bskd at " + a.bskd);
    register_child(d->bskd.pid);
    d->pool = std::make_unique<bsk::net::WorkerPool>(
        std::vector<bsk::net::Endpoint>{{"127.0.0.1", d->bskd.port}},
        pool_options(sp));
    factory = d->pool->factory();
  }
  if (timings) factory = timed_factory(std::move(factory), *timings);
  bsk::rt::FarmConfig cfg;
  cfg.initial_workers = kWorkers;
  cfg.ordered = sp.ordered;
  d->farm = std::make_unique<bsk::rt::Farm>("e2e", cfg, std::move(factory));
  d->farm->start();
  d->farm->input()->push(pl.task(0));
  d->setup_s = wall_now() - t0;
  return d;
}

/// Check the recruitment of a remote deployment.
void check_pool(const FarmSpec& sp, const Deployment& d, Result& r) {
  if (!d.pool) return;
  const auto remote = d.pool->remote_nodes_created();
  const auto fallback = d.pool->fallback_nodes_created();
  const auto shm = d.pool->shm_attached();
  if (remote != kWorkers)
    r.fail("remote workers created " + std::to_string(remote) + ", want " +
           std::to_string(kWorkers));
  if (fallback != 0)
    r.fail("local fallback workers created: " + std::to_string(fallback));
  const std::size_t want_shm = sp.deploy == Deploy::Shm ? kWorkers : 0;
  if (shm != want_shm)
    r.fail("shm attached " + std::to_string(shm) + ", want " +
           std::to_string(want_shm));
}

/// Drains Farm::output() on its own thread: exactly-once and payload
/// checks, open-loop latency, closed-loop completions.
class Collector {
 public:
  Collector(bsk::rt::Farm& farm, const Payloads& pl, SpanRecorder* spans,
            std::size_t expected_ids = 0)
      : farm_(farm), pl_(pl), spans_(spans), check_(expected_ids) {}

  void start() {
    th_ = std::thread([this] { loop(); });
  }
  void join() {
    if (th_.joinable()) th_.join();
  }

  /// Open-loop window: ids [first, first + sched.size()) with their
  /// scheduled send times (wall seconds).
  void set_open_window(std::uint64_t first, const std::vector<double>* sched) {
    lat_us_.assign(sched->size(), -1.0);
    open_first_.store(first);
    sched_.store(sched);
  }
  /// Completions in [begin, end) (wall time) count for the closed loop, in
  /// slices of kSliceS.
  void set_closed_window(double begin, double end) {
    std::fill(slices_.begin(), slices_.end(), 0);
    closed_begin_.store(begin);
    closed_end_.store(end);
  }

  std::uint64_t done() const { return done_.load(); }
  /// Block until at least `n` tasks were delivered.
  void wait_done(std::uint64_t n) {
    wake_at_.store(n);
    for (std::uint64_t cur = done_.load(); cur < n; cur = done_.load())
      done_.wait(cur);
    wake_at_.store(~0ull);
  }

  /// Latency (us) of open-loop task k (-1 if it never came back).
  const std::vector<double>& latencies_us() const { return lat_us_; }
  /// Closed-loop throughput (tasks/s) of each kSliceS slice of a window
  /// `len` seconds long.
  std::vector<double> closed_rates(double len) const {
    std::vector<double> out;
    const auto n = std::min(static_cast<std::size_t>(len / kSliceS), slices_.size());
    for (std::size_t i = 0; i < n; ++i)
      out.push_back(static_cast<double>(slices_[i]) / kSliceS);
    if (n == 0 && len > 0)  // a window shorter than one slice
      out.push_back(static_cast<double>(slices_[0]) / len);
    return out;
  }
  DeliveryCheck& check() { return check_; }
  std::uint64_t bad_payloads() const { return bad_payload_; }

 private:
  void loop() {
    std::vector<Task> batch;
    while (farm_.output()->pop_n(batch, 64) == bsk::support::ChannelStatus::Ok) {
      const double now = wall_now();
      const double closed_begin = closed_begin_.load();
      const double closed_end = closed_end_.load();
      const std::vector<double>* sched = sched_.load();
      const std::uint64_t first = open_first_.load();
      for (const Task& t : batch) {
        if (!pl_.check(t)) ++bad_payload_;
        check_.deliver(t.id);
        if (sched && t.id >= first && t.id - first < sched->size()) {
          const double due = (*sched)[t.id - first];
          lat_us_[t.id - first] = 1e6 * (now - due);
          if (spans_) spans_->record("task", "", t.id, due, now);
        }
        if (now >= closed_begin && now < closed_end) {
          const auto sl = static_cast<std::size_t>((now - closed_begin) / kSliceS);
          if (sl < slices_.size()) ++slices_[sl];
        }
      }
      const std::uint64_t d =
          done_.fetch_add(batch.size()) + batch.size();
      if (d >= wake_at_.load()) done_.notify_all();
      batch.clear();
    }
  }

  bsk::rt::Farm& farm_;
  const Payloads& pl_;
  SpanRecorder* spans_;
  std::thread th_;
  DeliveryCheck check_;
  std::uint64_t bad_payload_ = 0;
  std::atomic<std::uint64_t> open_first_{0};
  std::atomic<const std::vector<double>*> sched_{nullptr};
  std::vector<double> lat_us_;
  std::atomic<double> closed_begin_{0}, closed_end_{0};
  std::vector<std::uint64_t> slices_ = std::vector<std::uint64_t>(4096, 0);
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> wake_at_{~0ull};
};

void sleep_until_wall(double t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t);
  ts.tv_nsec = static_cast<long>((t - static_cast<double>(ts.tv_sec)) * 1e9);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// Drives one deployment's stream: ids are dense from 1 (0 was the set-up
/// task), pushed by the calling thread.
class Driver {
 public:
  Driver(Deployment& d, const Payloads& pl, Collector& c, SpanRecorder* spans)
      : d_(d), pl_(pl), c_(c), spans_(spans) {}

  void push(std::uint64_t id) {
    Task t = pl_.task(id);
    if (!spans_) {
      d_.farm->input()->push(std::move(t));
      return;
    }
    const double t0 = wall_now();
    d_.farm->input()->push(std::move(t));
    spans_->record("rt.farm.push", "task", id, t0, wall_now());
  }

  /// Keep at most `bound` tasks outstanding until wall time `until`.
  void closed_loop(double until, std::size_t bound) {
    while (wall_now() < until) {
      if (next_ - c_.done() >= bound) {
        c_.wait_done(next_ - bound / 2);
        continue;
      }
      push(next_++);
    }
  }

  /// Push `n` tasks at `rate`/s, each stamped with its scheduled time.
  /// Returns how late (us) each push started.
  std::vector<double> open_loop(std::size_t n, double rate,
                                std::vector<double>& sched) {
    sched.assign(n, 0.0);
    std::vector<double> late_us(n);
    const std::uint64_t first = next_;
    c_.set_open_window(first, &sched);
    const double t0 = wall_now() + 0.001;
    for (std::size_t k = 0; k < n; ++k) {
      const double due = t0 + static_cast<double>(k) / rate;
      if (due > wall_now()) sleep_until_wall(due);
      const double now = wall_now();
      late_us[k] = 1e6 * (now - due);
      sched[k] = due;
      push(next_++);
    }
    return late_us;
  }

  std::uint64_t next_id() const { return next_; }
  void set_spans(SpanRecorder* s) { spans_ = s; }

 private:
  Deployment& d_;
  const Payloads& pl_;
  Collector& c_;
  SpanRecorder* spans_;
  std::uint64_t next_ = 1;
};

/// Finish a stream and fold its output checks into `r`.
void close_and_check(const FarmSpec& sp, Deployment& d, Collector& c,
                     std::uint64_t sent, Result& r, const char* phase) {
  d.finish();
  c.join();
  check_pool(sp, d, r);
  DeliveryCheck& chk = c.check();
  chk.finish(sent);
  const std::uint64_t failed = chk.failures(sp.ordered) + c.bad_payloads();
  r.attempted += sent;
  r.failed += failed;
  if (failed > 0)
    r.fail(std::string(phase) + ": lost " + std::to_string(chk.lost()) +
           ", duplicated " + std::to_string(chk.duplicates()) + ", bogus " +
           std::to_string(chk.bogus()) + ", out of order " +
           std::to_string(sp.ordered ? chk.out_of_order() : 0) +
           ", bad payloads " + std::to_string(c.bad_payloads()) + " of " +
           std::to_string(sent));
}

/// Set up and tear down a deployment `reps` times, checking a short probe
/// stream each time. Returns the set-up times.
std::vector<double> setup_cycles(const FarmSpec& sp, const Args& a,
                                 const Payloads& pl, int reps, Result& r) {
  std::vector<double> out;
  for (int i = 0; i < reps; ++i) {
    auto d = deploy(sp, a, pl, nullptr);
    out.push_back(d->setup_s);
    Collector c(*d->farm, pl, nullptr);
    c.start();
    for (std::uint64_t id = 1; id < kProbeTasks; ++id)
      d->farm->input()->push(pl.task(id));
    close_and_check(sp, *d, c, kProbeTasks, r, "setup probe");
  }
  return out;
}

struct CounterSnap {
  double frames = 0, bytes = 0, stalls = 0, retransmits = 0;
};

CounterSnap coordinator_counters() {
  auto v = [](const char* n) {
    return static_cast<double>(bsk::obs::counter(n).value());
  };
  return {v("bsk_net_frames_sent_total") + v("bsk_net_shm_frames_sent_total"),
          v("bsk_net_bytes_sent_total") + v("bsk_net_shm_bytes_sent_total"),
          v("bsk_net_credit_stalls_total"), v("bsk_net_retransmits_total")};
}

/// Sum of Prometheus samples whose metric name is in `names`.
double prom_sum(const std::string& text, std::initializer_list<const char*> names) {
  double sum = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const std::string key = line.substr(0, sp);
    for (const char* n : names)
      if (key == n) sum += std::stod(line.substr(sp + 1));
  }
  return sum;
}

CounterSnap daemon_counters(const Deployment& d) {
  CounterSnap s;
  if (d.bskd.pid <= 0) return s;
  const auto text = bsk::net::pull_bskd_stats(
      {"127.0.0.1", d.bskd.port}, bsk::net::StatsRequest::What::Prometheus);
  if (!text) return s;
  s.frames = prom_sum(*text, {"bsk_net_frames_sent_total",
                              "bsk_net_shm_frames_sent_total"});
  s.bytes = prom_sum(*text, {"bsk_net_bytes_sent_total",
                             "bsk_net_shm_bytes_sent_total"});
  return s;
}

/// Median round trip of single tasks over a fresh connection to the
/// deployment's daemon with the workload's transport and payload (credit
/// window 1: every call waits for its own result).
double transport_rtt_us(const FarmSpec& sp, Deployment& d, const Payloads& pl,
                        std::size_t n) {
  auto opts = pool_options(sp);
  opts.node.credit_window = 1;
  bsk::net::WorkerPool pool({{"127.0.0.1", d.bskd.port}}, opts);
  auto node = pool.make_node();
  if (!node || pool.remote_nodes_created() != 1) return 0.0;
  node->on_start();
  std::vector<double> us;
  us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t0 = wall_now();
    auto res = node->process(pl.task(1000000 + i));
    us.push_back(1e6 * (wall_now() - t0));
    if (!res) return 0.0;
  }
  node->on_stop();
  return summarize(us).p50;
}

struct PhaseTimes {
  double warm, open, closed;
};

PhaseTimes phase_times(double seconds) {
  return {0.05 * seconds, 0.45 * seconds, 0.45 * seconds};
}

}  // namespace

Result run_farm_workload(const Args& a) {
  Result r;
  const FarmSpec sp = spec_for(a.workload);
  const Payloads pl(a.seed, sp.payload_bytes);
  r.note("clock_scale", 1.0);  // dataplane tasks carry no simulated work
  r.note("open_rate_tasks_s", sp.open_rate);
  r.note("closed_bound", static_cast<double>(sp.closed_bound));
  r.note("payload_bytes", static_cast<double>(sp.payload_bytes));
  r.note("workers", static_cast<double>(kWorkers));
  r.note("ordered", sp.ordered ? "yes" : "no");

  const PhaseTimes ph = phase_times(a.seconds);
  if (!a.trace) {
    // The run is kRounds fresh deployments, each driven through all three
    // phases; throughput and latency are pooled over the rounds' windows
    // (see kSliceS), CPU and set-up are medians over rounds, so one unlucky
    // deployment does not decide a figure.
    std::vector<double> setups, tput, p50s, p90s, cpu, lat_all, late_all;
    std::vector<double> round_tput, round_p50, round_p90;
    double rss = 0;
    const double warm = ph.warm / kRounds, open = ph.open / kRounds,
                 closed = ph.closed / kRounds;
    const auto n_open = static_cast<std::size_t>(sp.open_rate * open);
    const auto per_slice = static_cast<std::size_t>(sp.open_rate * kSliceS);
    const auto expected =
        static_cast<std::size_t>(n_open + kMaxRate * (warm + closed));
    for (int round = 0; round < kRounds; ++round) {
      auto d = deploy(sp, a, pl, nullptr);
      setups.push_back(d->setup_s);
      Collector c(*d->farm, pl, nullptr, expected);
      c.start();
      Driver drv(*d, pl, c, nullptr);
      drv.closed_loop(wall_now() + warm, sp.closed_bound);

      const int pid = d->bskd.pid;
      const double cpu0 = self_cpu_s() + (pid > 0 ? proc_cpu_s(pid) : 0.0);
      std::vector<double> sched;
      const std::vector<double> late = drv.open_loop(n_open, sp.open_rate, sched);
      const double cpu1 = self_cpu_s() + (pid > 0 ? proc_cpu_s(pid) : 0.0);

      const double cb = wall_now();
      c.set_closed_window(cb, cb + closed);
      drv.closed_loop(cb + closed, sp.closed_bound);
      rss = std::max(rss, self_peak_rss_mb() +
                              (pid > 0 ? proc_peak_rss_mb(pid) : 0.0));
      close_and_check(sp, *d, c, drv.next_id(), r, "stream");
      d->stop_daemon();

      const std::vector<double> got = recorded(c.latencies_us());
      if (got.size() != n_open)
        r.fail("open-loop latencies recorded for " + std::to_string(got.size()) +
               " of " + std::to_string(n_open) + " tasks");
      const auto rt = c.closed_rates(closed);
      const auto w50 = window_percentiles(c.latencies_us(), per_slice, 50);
      const auto w90 = window_percentiles(c.latencies_us(), per_slice, 90);
      tput.insert(tput.end(), rt.begin(), rt.end());
      p50s.insert(p50s.end(), w50.begin(), w50.end());
      p90s.insert(p90s.end(), w90.begin(), w90.end());
      round_tput.push_back(median(rt));
      round_p50.push_back(median(w50));
      round_p90.push_back(median(w90));
      cpu.push_back(1e6 * (cpu1 - cpu0) / static_cast<double>(n_open));
      lat_all.insert(lat_all.end(), got.begin(), got.end());
      late_all.insert(late_all.end(), late.begin(), late.end());
    }
    // Local set-ups are cheap and jittery: take more of them.
    if (sp.deploy == Deploy::Threads)
      for (double x : setup_cycles(sp, a, pl, kExtraLocalSetups, r))
        setups.push_back(x);

    const Summary lat = summarize(lat_all);
    r.set("tput_tasks_s", quantile(tput, kGoodQuartileTput));
    r.set("lat_p50_us", quantile(p50s, kGoodQuartileLat));
    r.set("lat_p90_us", quantile(p90s, kGoodQuartileLat));
    r.set("cpu_us_per_task", median(cpu));
    r.set("peak_rss_mb", rss);
    r.set("setup_s", median(setups));
    r.note("rounds", static_cast<double>(kRounds));
    r.note("round_tput_tasks_s", round_tput);
    r.note("round_lat_p50_us", round_p50);
    r.note("round_lat_p90_us", round_p90);
    r.note("round_cpu_us_per_task", cpu);
    r.note("lat_window_s", kSliceS);
    r.note("lat_samples", static_cast<double>(lat.n));
    r.note("lat_pooled_p50_us", lat.p50);
    r.note("lat_pooled_p90_us", lat.p90);
    r.note("lat_pooled_p99_us", lat.p99);
    r.note("lat_top_percentile", lat.top_p);
    r.note("lat_top_us", lat.top_value);
    r.note("loadgen_late_p99_us", summarize(late_all).p99);
    r.note("setups", static_cast<double>(setups.size()));
    return r;
  }

  // ------------------------------------------------------------- traced
  // Untraced closed loop first (the overhead baseline), then the same
  // workload with every layer boundary timed.
  double untraced_tput = 0;
  {
    auto d = deploy(sp, a, pl, nullptr);
    Collector c(*d->farm, pl, nullptr);
    c.start();
    Driver drv(*d, pl, c, nullptr);
    drv.closed_loop(wall_now() + 0.5 * ph.warm, sp.closed_bound);
    const double cb = wall_now();
    const double len = 0.5 * ph.closed;
    c.set_closed_window(cb, cb + len);
    drv.closed_loop(cb + len, sp.closed_bound);
    close_and_check(sp, *d, c, drv.next_id(), r, "untraced stream");
    untraced_tput = quantile(c.closed_rates(len), kGoodQuartileTput);
  }

  const auto n_open = static_cast<std::size_t>(sp.open_rate * ph.open * 0.6);
  SpanRecorder spans(3 * n_open + 1024);
  NodeTimings nt;
  nt.spans = &spans;
  nt.span_name = sp.deploy == Deploy::Threads ? "rt.node.process"
                                              : "net.remote.process";
  auto d = deploy(sp, a, pl, &nt);
  Collector c(*d->farm, pl, &spans);
  c.start();
  Driver drv(*d, pl, c, nullptr);
  drv.closed_loop(wall_now() + ph.warm, sp.closed_bound);

  const int pid = d->bskd.pid;
  const std::uint64_t first = drv.next_id();
  const CounterSnap co0 = coordinator_counters(), da0 = daemon_counters(*d);
  const double dcpu0 = pid > 0 ? proc_cpu_s(pid) : 0.0;
  const std::uint64_t calls0 = nt.calls.load(), held0 = nt.held.load();
  drv.set_spans(&spans);
  nt.recording.store(true);
  std::vector<double> sched;
  const std::vector<double> late = drv.open_loop(n_open, sp.open_rate, sched);
  const std::uint64_t calls1 = nt.calls.load(), held1 = nt.held.load();
  const double dcpu1 = pid > 0 ? proc_cpu_s(pid) : 0.0;
  const CounterSnap co1 = coordinator_counters(), da1 = daemon_counters(*d);

  const double cb = wall_now();
  const double len = 0.5 * ph.closed;
  c.set_closed_window(cb, cb + len);
  drv.closed_loop(cb + len, sp.closed_bound);
  const double traced_tput = quantile(c.closed_rates(len), kGoodQuartileTput);
  close_and_check(sp, *d, c, drv.next_id(), r, "traced stream");
  if (pid > 0) {
    r.set("net.transport.rtt_us_p50", transport_rtt_us(sp, *d, pl, 2000));
    r.set("bskd.rss_mb", proc_peak_rss_mb(pid));
    r.set("net.shm_attached", static_cast<double>(d->pool->shm_attached()));
  }
  d->stop_daemon();

  const std::uint64_t last = first + n_open;
  const auto self = spans.self_times_us(first, last);
  const auto self_of = [&](const char* n) {
    const auto it = self.find(n);
    return it == self.end() ? std::vector<double>{} : it->second;
  };
  const Summary lat = summarize(recorded(c.latencies_us()));
  const Summary push = summarize(spans.durations_us("rt.farm.push", first, last));
  const Summary proc = summarize(spans.durations_us(nt.span_name, first, last));
  const auto per_task = [&](double x) {
    return x / static_cast<double>(n_open);
  };
  r.set("loadgen.late_p99_us", summarize(late).p99);
  r.set("rt.farm.push_us_p50", push.p50);
  r.set("rt.farm.push_us_p99", push.p99);
  r.set("rt.farm.residence_us_p50", summarize(self_of("task")).p50);
  r.set("trace.lat_p50_us",
        quantile(window_percentiles(
                     c.latencies_us(),
                     static_cast<std::size_t>(sp.open_rate * kSliceS), 50),
                 kGoodQuartileLat));
  r.set("trace.overhead_frac", untraced_tput > 0
                                   ? (untraced_tput - traced_tput) / untraced_tput
                                   : 0.0);
  const CodecCost codec = measure_codec(pl.task(1));
  r.set("net.wire.encode_ns", codec.encode_ns);
  r.set("net.wire.decode_ns", codec.decode_ns);
  r.set("net.wire.frame_bytes", codec.frame_bytes);
  if (sp.deploy == Deploy::Threads) {
    r.set("rt.node.process_us_p50", proc.p50);
  } else {
    r.set("net.remote.process_us_p50", proc.p50);
    r.set("net.remote.process_us_p99", proc.p99);
    r.set("net.remote.held_frac",
          calls1 > calls0 ? static_cast<double>(held1 - held0) /
                                static_cast<double>(calls1 - calls0)
                          : 0.0);
    r.set("net.remote.flush_results", static_cast<double>(nt.flushed.load()));
    r.set("net.frames_per_task",
          per_task(co1.frames - co0.frames + da1.frames - da0.frames));
    r.set("net.bytes_per_task",
          per_task(co1.bytes - co0.bytes + da1.bytes - da0.bytes));
    r.set("net.credit_stalls_per_task", per_task(co1.stalls - co0.stalls));
    r.set("net.retransmits", co1.retransmits - co0.retransmits);
    r.set("bskd.cpu_us_per_task", 1e6 * per_task(dcpu1 - dcpu0));
  }
  r.note("untraced_tput_tasks_s", untraced_tput);
  r.note("traced_tput_tasks_s", traced_tput);
  r.note("traced_lat_samples", static_cast<double>(lat.n));
  r.note("spans_recorded", static_cast<double>(spans.size()));
  r.note("spans_dropped", static_cast<double>(spans.dropped()));
  if (!a.trace_dir.empty()) {
    const std::string path = a.trace_dir + "/" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".spans.jsonl";
    if (spans.write(path)) r.note("spans_file", path);
  }
  return r;
}

}  // namespace e2e
