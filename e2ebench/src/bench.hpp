#pragma once
// Shared plumbing of the end-to-end benchmark: run arguments and results,
// process resource readings, the in-memory span recorder of the traced run,
// and the timing wrappers placed around rt::Node and am::Abc.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "am/abc.hpp"
#include "rt/node.hpp"

namespace e2e {

// ---------------------------------------------------------- run contract

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bskd;       ///< path of the worker daemon binary
  std::string trace_dir;  ///< where the traced run writes its spans
};

/// A metric the benchmark reports, with its unit.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported with tracing off (every workload reports every one).
inline constexpr MetricDef kEndToEnd[] = {
    {"tput_tasks_s", "tasks/s"}, {"lat_p50_us", "us"},
    {"lat_p90_us", "us"},        {"cpu_us_per_task", "us"},
    {"peak_rss_mb", "MB"},       {"setup_s", "s"},
};

/// Reported by the traced run. A metric whose layer a workload does not
/// reach reads 0 there and is listed as not applicable in the run context.
inline constexpr MetricDef kPerLayer[] = {
    {"loadgen.late_p99_us", "us"},
    {"rt.farm.push_us_p50", "us"},
    {"rt.farm.push_us_p99", "us"},
    {"rt.farm.residence_us_p50", "us"},
    {"rt.node.process_us_p50", "us"},
    {"net.remote.process_us_p50", "us"},
    {"net.remote.process_us_p99", "us"},
    {"net.remote.held_frac", "ratio"},
    {"net.remote.flush_results", "count"},
    {"net.transport.rtt_us_p50", "us"},
    {"net.wire.encode_ns", "ns"},
    {"net.wire.decode_ns", "ns"},
    {"net.wire.frame_bytes", "B"},
    {"net.frames_per_task", "frames/task"},
    {"net.bytes_per_task", "B/task"},
    {"net.credit_stalls_per_task", "stalls/task"},
    {"net.retransmits", "count"},
    {"net.shm_attached", "count"},
    {"bskd.cpu_us_per_task", "us"},
    {"bskd.rss_mb", "MB"},
    {"am.sense_lag_s", "s"},
    {"am.effect_s", "s"},
    {"am.actions_per_step", "count"},
    {"am.cycles", "count"},
    {"am.cycle_us_p50", "us"},
    {"rules.cycle_us_p50", "us"},
    {"am.abc.sense_us_p50", "us"},
    {"am.abc.add_worker_us_p50", "us"},
    {"am.abc.remove_worker_us_p50", "us"},
    {"react_p50_s", "s"},
    {"sla_frac", "ratio"},
    {"worker_s", "s"},
    {"trace.lat_p50_us", "us"},
    {"trace.overhead_frac", "ratio"},
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;  ///< metric name -> value
  /// Run context and supporting figures (not compared between runs).
  std::vector<std::pair<std::string, std::string>> context;  // key -> JSON
  std::vector<std::string> problems;  ///< output-check failures, for stderr

  void set(const std::string& name, double v) { values[name] = v; }
  void note(const std::string& key, double v);
  void note(const std::string& key, const std::string& s);
  void note(const std::string& key, const std::vector<double>& v);
  /// Record a failed output check: the run is no longer correct.
  void fail(const std::string& what);
};

// --------------------------------------------------------- process costs

/// Monotonic wall seconds (CLOCK_MONOTONIC).
double wall_now();
/// CPU seconds (user+sys) consumed so far by this process.
double self_cpu_s();
/// CPU seconds (user+sys) of another process, from /proc/<pid>/stat.
double proc_cpu_s(int pid);
/// Peak resident set (VmHWM) of this process (MB).
double self_peak_rss_mb();
/// Peak resident set (VmHWM) of another process (MB); 0 if unreadable.
double proc_peak_rss_mb(int pid);

// ----------------------------------------------------------------- spans

/// One timed call at a layer boundary. Spans of one task share `task`;
/// `parent` names the enclosing span ("" for a root).
struct Span {
  const char* name = "";
  const char* parent = "";
  std::uint64_t task = 0;
  double t0 = 0, t1 = 0;  ///< wall seconds
};

/// Fixed-capacity, lock-free append-only span buffer. Appends past the
/// capacity are counted and dropped, so a long traced run degrades to
/// sampling the start of the stream instead of growing without bound.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) : buf_(capacity) {}

  void record(const char* name, const char* parent, std::uint64_t task,
              double t0, double t1) {
    const std::size_t i = n_.fetch_add(1, std::memory_order_relaxed);
    if (i < buf_.size()) buf_[i] = Span{name, parent, task, t0, t1};
  }

  std::size_t size() const {
    return std::min(n_.load(std::memory_order_relaxed), buf_.size());
  }
  std::size_t dropped() const {
    const std::size_t n = n_.load(std::memory_order_relaxed);
    return n > buf_.size() ? n - buf_.size() : 0;
  }

  /// Per-layer self time: each span's duration minus the part of it its
  /// child spans (same task, parent == its name) cover. Keyed by span
  /// name; values are self times in microseconds. Only tasks with ids in
  /// [lo, hi) count.
  std::map<std::string, std::vector<double>> self_times_us(
      std::uint64_t lo = 0, std::uint64_t hi = ~0ull) const;

  /// Durations (us) of the spans named `name` on tasks in [lo, hi).
  std::vector<double> durations_us(const char* name, std::uint64_t lo = 0,
                                   std::uint64_t hi = ~0ull) const;

  /// Write the first 100k spans as JSONL, plus a per-layer self-time table
  /// over all of them (`<path>.selftime.txt`). Returns false when a file
  /// cannot be written.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> buf_;
  std::atomic<std::size_t> n_{0};
};

// ------------------------------------------------------- timing wrappers

/// Per-call timings gathered by TimedNode. Calls are always counted;
/// spans go to `spans` only while `recording` is set.
struct NodeTimings {
  SpanRecorder* spans = nullptr;  ///< process spans (task = the input id)
  const char* span_name = "rt.node.process";
  std::atomic<bool> recording{false};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> held{0};     ///< process() returned nothing
  std::atomic<std::uint64_t> flushed{0};  ///< results released by flush()
};

/// rt::Node decorator timing process(). Every other virtual forwards to the
/// wrapped node unchanged, so pipelining, end-of-stream flush and crash
/// recovery behave exactly as without the wrapper.
class TimedNode final : public bsk::rt::Node {
 public:
  TimedNode(std::unique_ptr<bsk::rt::Node> inner, NodeTimings& t)
      : inner_(std::move(inner)), t_(t) {}

  void on_start() override {
    inner_->set_placement(placement());
    inner_->on_start();
  }
  std::optional<bsk::rt::Task> process(bsk::rt::Task t) override;
  void on_stop() override { inner_->on_stop(); }
  bool is_source() const override { return inner_->is_source(); }
  bool failed() const override { return inner_->failed(); }
  std::size_t secure_channels() override { return inner_->secure_channels(); }
  bool owns_recovery() const override { return inner_->owns_recovery(); }
  std::vector<bsk::rt::Task> drain_unacked() override {
    return inner_->drain_unacked();
  }
  std::optional<bsk::rt::Task> flush() override {
    auto r = inner_->flush();
    if (r) t_.flushed.fetch_add(1, std::memory_order_relaxed);
    return r;
  }
  std::optional<bsk::rt::Task> next() override { return inner_->next(); }

 private:
  std::unique_ptr<bsk::rt::Node> inner_;
  NodeTimings& t_;
};

/// Wrap every node a factory makes in a TimedNode.
bsk::rt::NodeFactory timed_factory(bsk::rt::NodeFactory inner,
                                   NodeTimings& t);

/// am::Abc decorator timing sense() and the worker actuators of the ABC it
/// wraps; every actuator delegates unchanged. (Abc::set_commit_gate is not
/// virtual, so a two-phase gate would have to be installed on the wrapped
/// ABC; the benchmark runs a single-concern manager and installs none.)
class TimedAbc final : public bsk::am::Abc {
 public:
  explicit TimedAbc(bsk::am::Abc& inner) : inner_(inner) {}

  bsk::am::Sensors sense() override;
  bool add_worker() override;
  bool remove_worker() override;
  std::size_t rebalance() override { return inner_.rebalance(); }
  bool set_rate(double r) override { return inner_.set_rate(r); }
  std::size_t secure_links() override { return inner_.secure_links(); }

  std::vector<double> sense_us() const;
  std::vector<double> add_worker_us() const;
  std::vector<double> remove_worker_us() const;

 private:
  bsk::am::Abc& inner_;
  mutable std::mutex mu_;
  std::vector<double> sense_us_, add_us_, remove_us_;
};

// ----------------------------------------------------------- workloads

/// Kill-on-exit registry of spawned daemons, so a watchdog abort leaves no
/// process behind.
void register_child(int pid);
void unregister_child(int pid);
void kill_children();

/// Nanoseconds per encode and per decode of `t` through the public wire
/// codec (TaskMsg frame), plus the frame's size in bytes.
struct CodecCost {
  double encode_ns = 0, decode_ns = 0, frame_bytes = 0;
};
CodecCost measure_codec(const bsk::rt::Task& t);

Result run_farm_workload(const Args& a);
Result run_mape_workload(const Args& a);

}  // namespace e2e
