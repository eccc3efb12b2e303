#include "rt/seq_stage.hpp"

#include "support/thread_name.hpp"

namespace bsk::rt {

SeqStage::SeqStage(std::string name, std::unique_ptr<Node> node,
                   Placement place, support::SimDuration rate_window)
    : Runnable(std::move(name)),
      node_(std::move(node)),
      place_(place),
      metrics_(rate_window) {}

void SeqStage::start() {
  if (started_) return;
  started_ = true;
  thread_ = std::jthread([this] {
    support::set_thread_name("seq-stage");
    run();
  });
}

void SeqStage::wait() {
  if (thread_.joinable()) thread_.join();
}

void SeqStage::request_stop() { stop_requested_.store(true); }

void SeqStage::run() {
  node_->set_placement(place_);
  node_->on_start();

  if (node_->is_source()) {
    while (!stop_requested_.load(std::memory_order_relaxed)) {
      std::optional<Task> t = node_->next();
      if (!t) break;
      metrics_.record_departure();
      if (out_ && !out_->push(std::move(*t))) break;
    }
  } else {
    Task t;
    while (in_ && in_->pop(t) == support::ChannelStatus::Ok) {
      if (!t.is_data()) continue;
      metrics_.record_arrival();
      const auto t0 = support::Clock::now();
      std::optional<Task> r = node_->process(std::move(t));
      metrics_.record_service_time(support::Clock::now() - t0);
      if (r) {
        metrics_.record_departure();
        if (out_) out_->push(std::move(*r));
      }
    }
  }

  node_->on_stop();
  if (out_) out_->close();
  finished_.store(true);
}

}  // namespace bsk::rt
