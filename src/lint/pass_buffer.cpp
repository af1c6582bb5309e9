// Buffer-bound lint: dataflow::compute_buffer_capacities as a pass.
//
// Sec. III: "it is sufficient to show at design time that a valid
// schedule exists such that the periodic source and sink task can execute
// wait-free". The pass reruns that design-time argument for the target's
// dataflow graph: if no wait-free capacity assignment exists within the
// round budget the period is unsustainable (error); if the target
// supplies capacities that undercut the sufficient ones, the executor
// will block producers (error per edge); otherwise the computed
// capacities are attached as notes so the designer can size memories.
#include "common/strings.hpp"
#include "dataflow/buffers.hpp"
#include "dataflow/deadlock.hpp"
#include "dataflow/executor.hpp"
#include "lint/passes.hpp"

namespace rw::lint {
namespace {

class BufferPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "buffer-bounds";
  }
  [[nodiscard]] std::string_view description() const override {
    return "wait-free buffer capacity sufficiency for the dataflow graph";
  }
  [[nodiscard]] bool applicable(const Target& t) const override {
    return t.dataflow != nullptr;
  }

  void run(const Target& t, std::vector<Diagnostic>& out) const override {
    const auto& g = *t.dataflow;
    // An inconsistent or deadlocked graph has no meaningful sizing; the
    // deadlock pass already reports it.
    if (!g.repetition_vector().ok()) return;
    if (dataflow::detect_deadlock(g).deadlocked) return;
    // Nor has one whose source or sink fires more than once per iteration:
    // the periodic source/sink timers cannot drive it at all.
    if (const auto s = dataflow::check_periodic_boundaries(g); !s.ok()) {
      Diagnostic d;
      d.severity = Severity::kError;
      d.subsystem = "dataflow";
      d.pass = "buffer-bounds";
      d.kind = "no-periodic-schedule";
      d.location = {t.name, ""};
      d.message = s.error().to_string();
      out.push_back(std::move(d));
      return;
    }

    const auto sizing = dataflow::compute_buffer_capacities(
        g, t.dataflow_cfg);
    if (!sizing.wait_free) {
      Diagnostic d;
      d.severity = Severity::kError;
      d.subsystem = "dataflow";
      d.pass = "buffer-bounds";
      d.kind = "unsustainable-period";
      d.location = {t.name, ""};
      d.message = strformat(
          "no wait-free buffer assignment found within %d growth rounds: "
          "the source period is unsustainable under WCETs",
          sizing.rounds);
      d.with_evidence("rounds", strformat("%d", sizing.rounds));
      out.push_back(std::move(d));
      return;
    }

    for (std::size_t e = 0; e < g.edges().size(); ++e) {
      const auto& edge = g.edges()[e];
      const auto name =
          edge.name.empty() ? strformat("edge%zu", e) : edge.name;
      if (e < t.dataflow_cfg.buffer_capacities.size() &&
          t.dataflow_cfg.buffer_capacities[e] < sizing.capacities[e]) {
        Diagnostic d;
        d.severity = Severity::kError;
        d.subsystem = "dataflow";
        d.pass = "buffer-bounds";
        d.kind = "buffer-underprovisioned";
        d.location = {t.name, name};
        d.message = strformat(
            "edge '%s' capacity %zu is below the sufficient wait-free "
            "capacity %zu",
            name.c_str(), t.dataflow_cfg.buffer_capacities[e],
            sizing.capacities[e]);
        d.with_evidence("provided",
                        strformat("%zu",
                                  t.dataflow_cfg.buffer_capacities[e]))
            .with_evidence("sufficient",
                           strformat("%zu", sizing.capacities[e]));
        out.push_back(std::move(d));
      } else {
        Diagnostic d;
        d.severity = Severity::kNote;
        d.subsystem = "dataflow";
        d.pass = "buffer-bounds";
        d.kind = "buffer-capacity";
        d.location = {t.name, name};
        d.message = strformat("edge '%s' needs capacity %zu for wait-free "
                              "execution",
                              name.c_str(), sizing.capacities[e]);
        d.with_evidence("sufficient",
                        strformat("%zu", sizing.capacities[e]));
        out.push_back(std::move(d));
      }
    }
  }
};

}  // namespace

std::unique_ptr<Pass> make_buffer_pass() {
  return std::make_unique<BufferPass>();
}

}  // namespace rw::lint
