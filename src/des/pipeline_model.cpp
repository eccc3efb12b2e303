#include "des/pipeline_model.hpp"

#include "am/vocabulary.hpp"

#include <algorithm>
#include <memory>

namespace bsk::des {

std::size_t DesFig4Result::count(const std::string& source,
                                 const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [&](const DesEvent& e) {
        return e.source == source && e.name == name;
      }));
}

DesTime DesFig4Result::first(const std::string& source,
                             const std::string& name) const {
  for (const DesEvent& e : events)
    if (e.source == source && e.name == name) return e.t;
  return -1.0;
}

DesTime DesFig4Result::last(const std::string& source,
                            const std::string& name) const {
  for (auto it = events.rbegin(); it != events.rend(); ++it)
    if (it->source == source && it->name == name) return it->t;
  return -1.0;
}

DesFig4Result run_fig4_model(const DesFig4Params& p) {
  Simulator sim;
  DesFig4Result result;

  DesFarmParams fp;
  fp.service_s = p.work_s;
  fp.initial_workers = p.initial_workers;
  fp.max_workers = p.max_workers;
  fp.window_s = p.window_s;
  DesFarm farm(sim, fp);

  std::uint64_t processed = 0;
  farm.on_departure = [&] {
    ++processed;
    if (processed == p.tasks) result.finished_at = sim.now();
  };

  DesSource producer(sim, p.initial_rate, p.tasks,
                     [&farm] { farm.offer(); });

  DesManagerParams mp;
  mp.period_s = p.am_period_s;
  mp.contract_lo = p.contract_lo;
  mp.contract_hi = p.contract_hi;
  mp.max_workers = p.max_workers;
  mp.add_per_step = p.add_per_step;
  mp.cooldown_s = p.cooldown_s;
  mp.warmup_s = p.warmup_s;
  DesFarmManager am_f(sim, farm, mp);

  // AM_A protocol model: one pending reaction per violation kind, applied
  // after its reaction latency; inert once the stream has ended.
  bool pending_inc = false;
  bool pending_dec = false;
  am_f.on_violation = [&](const std::string& kind) {
    result.events.push_back({sim.now(), "AM_F", "raiseViol", 0.0});
    const bool is_inc = kind == am::payloads::kNotEnoughTasks;
    bool& pending = is_inc ? pending_inc : pending_dec;
    if (pending) return;
    pending = true;
    sim.schedule_in(p.am_a_delay_s, [&, is_inc] {
      (is_inc ? pending_inc : pending_dec) = false;
      if (producer.done()) return;  // endStream: no significant action
      const double nr = producer.rate() *
                        (is_inc ? p.inc_rate_factor : p.dec_rate_factor);
      producer.set_rate(nr);
      result.events.push_back(
          {sim.now(), "AM_A", is_inc ? "incRate" : "decRate", nr});
    });
  };

  // AM_A's monitor: observe endStream once.
  std::function<void()> am_a_cycle = [&] {
    if (result.end_stream_at < 0.0 && producer.done()) {
      result.end_stream_at = sim.now();
      result.events.push_back({sim.now(), "AM_A", "endStream", 0.0});
    }
    if (result.end_stream_at < 0.0)
      sim.schedule_in(p.am_period_s, am_a_cycle);
  };

  producer.start();
  am_f.start();
  sim.schedule_in(p.am_period_s, am_a_cycle);

  const DesTime horizon = 1e6;
  while (processed < p.tasks && sim.now() < horizon) {
    if (!sim.step()) break;
  }
  am_f.stop();

  // Reconstruct addWorker/removeWorker events from the worker history.
  const auto& hist = farm.worker_history();
  for (std::size_t i = 1; i < hist.size(); ++i) {
    const auto [t, w] = hist[i];
    const auto prev = hist[i - 1].second;
    if (w > prev)
      result.events.push_back(
          {t, "AM_F", "addWorker", static_cast<double>(w - prev)});
    else if (w < prev)
      result.events.push_back(
          {t, "AM_F", "removeWorker", static_cast<double>(prev - w)});
  }
  std::stable_sort(result.events.begin(), result.events.end(),
                   [](const DesEvent& a, const DesEvent& b) { return a.t < b.t; });

  result.processed = processed;
  result.converged_at = am_f.converged_at();
  result.final_workers = farm.workers();
  result.final_producer_rate = producer.rate();
  return result;
}

}  // namespace bsk::des
