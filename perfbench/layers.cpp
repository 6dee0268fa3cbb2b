#include <vector>

#include "perfbench.hpp"

namespace perfbench {

using scidock::wf::ActivationContext;
using scidock::wf::Pipeline;
using scidock::wf::Stage;
using scidock::wf::Tuple;

Pipeline StageTimers::wrap(const Pipeline& pipeline) {
  Pipeline wrapped;
  for (const Stage& stage : pipeline.stages()) {
    auto& slot = slots_[stage.tag];
    if (!slot) slot = std::make_shared<Slot>();
    Stage copy = stage;
    copy.impl = [impl = stage.impl, slot = slot](const Tuple& in,
                                                 ActivationContext& ctx) {
      const double t0 = wall_now();
      // A failed activation still occupied its thread: count it either way.
      struct Record {
        Slot& s;
        double t0;
        ~Record() {
          s.busy_ns.fetch_add(static_cast<long long>((wall_now() - t0) * 1e9),
                              std::memory_order_relaxed);
          s.calls.fetch_add(1, std::memory_order_relaxed);
        }
      } record{*slot, t0};
      return impl(in, ctx);
    };
    wrapped.add_stage(std::move(copy));
  }
  return wrapped;
}

double StageTimers::busy_s(const std::string& tag) const {
  const auto it = slots_.find(tag);
  return it == slots_.end() ? 0.0 : it->second->busy_ns.load() * 1e-9;
}

long long StageTimers::calls(const std::string& tag) const {
  const auto it = slots_.find(tag);
  return it == slots_.end() ? 0 : it->second->calls.load();
}

double StageTimers::total_busy_s() const {
  double total = 0.0;
  for (const auto& [tag, slot] : slots_) total += slot->busy_ns.load() * 1e-9;
  return total;
}

double complete_span_seconds(const scidock::obs::TraceRecorder& trace,
                             const std::string& name) {
  double total_us = 0.0;
  for (const scidock::obs::TraceEvent& e : trace.events()) {
    if (e.phase == scidock::obs::TraceEvent::Phase::Complete && e.name == name) {
      total_us += e.dur_us;
    }
  }
  return total_us * 1e-6;
}

double histogram_sum(scidock::obs::MetricsRegistry& metrics,
                     const std::string& name) {
  // histogram() is find-or-create; an absent series reads as an empty one.
  return metrics.histogram(name).sum();
}

}  // namespace perfbench
