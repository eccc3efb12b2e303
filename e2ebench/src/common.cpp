#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "bench.hpp"
#include "benchlib.hpp"
#include "json_out.hpp"

namespace e2e {

void Result::note(const std::string& key, double v) {
  context.emplace_back(key, json_num(v));
}

void Result::note(const std::string& key, const std::string& s) {
  context.emplace_back(key, json_str(s));
}

void Result::note(const std::string& key, const std::vector<double>& v) {
  std::string a = "[";
  for (std::size_t i = 0; i < v.size(); ++i) a += (i ? "," : "") + json_num(v[i]);
  context.emplace_back(key, a + "]");
}

void Result::fail(const std::string& what) {
  correct = false;
  problems.push_back(what);
}

// --------------------------------------------------------- process costs

double wall_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double self_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double proc_cpu_s(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall (11th and 12th after the name).
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i == 12) utime = std::stod(field);
    if (i == 13) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double self_peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would report the launching process's peak when that was larger.
  return proc_peak_rss_mb(static_cast<int>(::getpid()));
}

double proc_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

// ----------------------------------------------------------------- spans

std::map<std::string, std::vector<double>> SpanRecorder::self_times_us(
    std::uint64_t lo, std::uint64_t hi) const {
  const std::size_t n = size();
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_task;
  by_task.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (buf_[i].task >= lo && buf_[i].task < hi)
      by_task[buf_[i].task].push_back(i);
  std::map<std::string, std::vector<double>> out;
  for (const auto& [task, idx] : by_task) {
    for (std::size_t i : idx) {
      const Span& s = buf_[i];
      double child = 0.0;
      for (std::size_t j : idx) {
        const Span& c = buf_[j];
        if (j == i || std::string_view(c.parent) != s.name) continue;
        // Only the part of the child inside the parent's interval counts.
        const double lo = std::max(c.t0, s.t0), hi = std::min(c.t1, s.t1);
        if (hi > lo) child += hi - lo;
      }
      out[s.name].push_back(1e6 * std::max(0.0, (s.t1 - s.t0) - child));
    }
  }
  return out;
}

std::vector<double> SpanRecorder::durations_us(const char* name,
                                               std::uint64_t lo,
                                               std::uint64_t hi) const {
  std::vector<double> out;
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = buf_[i];
    if (s.task >= lo && s.task < hi && std::string_view(s.name) == name)
      out.push_back(1e6 * (s.t1 - s.t0));
  }
  return out;
}

bool SpanRecorder::write(const std::string& path) const {
  // Enough spans to follow individual tasks; the table covers them all.
  constexpr std::size_t kMaxLines = 100000;
  std::ofstream os(path);
  if (!os) return false;
  const std::size_t n = std::min(size(), kMaxLines);
  const double base = n ? buf_[0].t0 : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = buf_[i];
    os << "{\"name\":" << json_str(s.name) << ",\"parent\":"
       << json_str(s.parent) << ",\"task\":" << s.task
       << ",\"start_us\":" << json_num(1e6 * (s.t0 - base))
       << ",\"end_us\":" << json_num(1e6 * (s.t1 - base)) << "}\n";
  }
  std::ofstream tab(path + ".selftime.txt");
  if (!tab) return false;
  tab << "# per-layer self time (us): span duration minus child spans\n";
  tab << "# layer                      count        p50        p90      total\n";
  for (const auto& [name, v] : self_times_us()) {
    const Summary s = summarize(v);
    double total = 0;
    for (double x : v) total += x;
    char line[160];
    std::snprintf(line, sizeof line, "%-26s %8zu %10.2f %10.2f %10.0f\n",
                  name.c_str(), s.n, s.p50, s.p90, total);
    tab << line;
  }
  if (dropped() > 0) tab << "# spans dropped past capacity: " << dropped() << "\n";
  return static_cast<bool>(tab);
}

// ------------------------------------------------------- timing wrappers

std::optional<bsk::rt::Task> TimedNode::process(bsk::rt::Task t) {
  const std::uint64_t id = t.id;
  const double t0 = wall_now();
  auto r = inner_->process(std::move(t));
  const double t1 = wall_now();
  if (t_.spans && t_.recording.load(std::memory_order_relaxed))
    t_.spans->record(t_.span_name, "task", id, t0, t1);
  t_.calls.fetch_add(1, std::memory_order_relaxed);
  if (!r) t_.held.fetch_add(1, std::memory_order_relaxed);
  return r;
}

bsk::rt::NodeFactory timed_factory(bsk::rt::NodeFactory inner,
                                   NodeTimings& t) {
  return [inner = std::move(inner), &t]() -> std::unique_ptr<bsk::rt::Node> {
    return std::make_unique<TimedNode>(inner(), t);
  };
}

namespace {

template <class F>
auto timed(std::mutex& mu, std::vector<double>& out, F&& f) {
  const double t0 = wall_now();
  auto r = f();
  const double us = 1e6 * (wall_now() - t0);
  std::lock_guard<std::mutex> lk(mu);
  out.push_back(us);
  return r;
}

}  // namespace

bsk::am::Sensors TimedAbc::sense() {
  return timed(mu_, sense_us_, [&] { return inner_.sense(); });
}

bool TimedAbc::add_worker() {
  return timed(mu_, add_us_, [&] { return inner_.add_worker(); });
}

bool TimedAbc::remove_worker() {
  return timed(mu_, remove_us_, [&] { return inner_.remove_worker(); });
}

std::vector<double> TimedAbc::sense_us() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sense_us_;
}

std::vector<double> TimedAbc::add_worker_us() const {
  std::lock_guard<std::mutex> lk(mu_);
  return add_us_;
}

std::vector<double> TimedAbc::remove_worker_us() const {
  std::lock_guard<std::mutex> lk(mu_);
  return remove_us_;
}

}  // namespace e2e
