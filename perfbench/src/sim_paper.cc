// sim_paper: the DSE-validation use of the simulator (paper Fig. 6,
// Table 4, Sec. 6.2): timing-only cycle simulation of full VGG16 and
// ResNet-18 at 224x224 on the configurations the DSE deploys on VU9P and
// PYNQ-Z1, each through one reused Runtime (Execute(functional=false)).
// No weights are packed and no arithmetic runs; the DRAM image reset and
// the scheduler loop are the host work. Simulated cycles are data
// independent, so they are compared to perfbench/expected.json; the seed
// only permutes the order of the four deployments within each round.
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "common/prng.h"
#include "dse/search.h"
#include "estimator/latency_model.h"
#include "nn/builders.h"
#include "platform/fpga_spec.h"
#include "runtime/runtime.h"

namespace perfbench {

using namespace hdnn;

namespace {

constexpr int kSetups = 3;

struct Deployment {
  std::string label;  // "<model>.<platform>"
  const FpgaSpec* spec = nullptr;
  Model model;
  DseResult dse;
  CompiledModel cm;
  std::unique_ptr<Runtime> runtime;
  RunReport ref;  // first Execute after set-up
};

/// Eq. 12-15 estimate of every conv layer next to its simulated cycles.
/// Returns the mean |error| in percent; prints the per-layer table when
/// asked.
double EstimatorError(const Deployment& d, bool print) {
  const Model& m = d.model;
  const AccelConfig& cfg = d.dse.config;
  if (print) {
    std::printf("\n  %s %s\n", d.label.c_str(), cfg.ToString().c_str());
    std::printf("  %-10s %-4s %-3s %4s %12s %12s %8s %11s %11s %11s %11s\n",
                "layer", "mode", "df", "fuse", "sim_cycles", "est_cycles",
                "err", "est_ldi", "est_ldw", "est_comp", "est_save");
  }
  double sum_abs = 0;
  int convs = 0;
  for (int i = 0; i < m.num_layers(); ++i) {
    const ConvLayer& layer = m.layer(i);
    const LayerMapping& map = d.cm.plans[static_cast<std::size_t>(i)].mapping;
    const LatencyBreakdown est = EstimateLayerLatency(
        layer, m.InputOf(i), map.mode, map.dataflow, cfg, *d.spec,
        FusionContextOf(m, d.dse.mapping, i));
    const double sim = d.ref.layer_cycles[static_cast<std::size_t>(i)];
    const double err = (est.total - sim) / sim;
    if (!layer.is_fc) {
      sum_abs += std::abs(err);
      ++convs;
    }
    if (print) {
      std::printf("  %-10s %-4s %-3s %4s %12.0f %12.0f %+7.2f%% %11.0f "
                  "%11.0f %11.0f %11.0f%s\n",
                  layer.name.c_str(), ToString(map.mode),
                  ToString(map.dataflow), map.fuse_output ? "yes" : "-", sim,
                  est.total, 100 * err, est.t_ldi, est.t_ldw, est.t_cp,
                  est.t_sv, layer.is_fc ? "  (fc)" : "");
    }
  }
  if (print) {
    const SimStats& s = d.ref.stats;
    std::printf("  %-10s simulated %.0f cycles; module busy LDI %.0f, LDW "
                "%.0f, COMP %.0f, SAVE %.0f, DRAM port %.0f\n",
                "total", s.total_cycles, s.ldi_busy, s.ldw_busy, s.comp_busy,
                s.save_busy, s.port_busy);
  }
  return convs > 0 ? 100 * sum_abs / convs : 0;
}

}  // namespace

void RunSimPaper(const Options& opt, Result& res) {
  const std::vector<std::pair<std::string, Model>> models = {
      {"vgg16", BuildVgg16()}, {"resnet18", BuildResNet18()}};
  const std::vector<std::pair<std::string, const FpgaSpec*>> platforms = {
      {"vu9p", &Vu9pSpec()}, {"pynq", &PynqZ1Spec()}};

  // Set-up: DSE, compile, and the first Execute (which allocates the DRAM
  // image) per deployment, repeated.
  std::vector<double> setup_s;
  std::vector<Deployment> deps;
  for (int k = 0; k < kSetups; ++k) {
    deps.clear();
    const double t0 = Now();
    for (const auto& [mname, model] : models) {
      for (const auto& [pname, spec] : platforms) {
        Deployment d;
        d.label = mname + "." + pname;
        d.spec = spec;
        d.model = model;
        d.dse = DseEngine(*spec).ExploreFrontier(model, DseOptions{}).best;
        d.cm = Compiler(d.dse.config, *spec).Compile(model, d.dse.mapping);
        d.runtime = std::make_unique<Runtime>(d.dse.config, *spec);
        d.ref = d.runtime->Execute(model, d.cm, {}, {}, false);
        deps.push_back(std::move(d));
      }
    }
    setup_s.push_back(Now() - t0);
  }

  Prng order_prng = Prng(opt.seed).Fork(6);
  const auto round_order = [&] {
    std::vector<std::size_t> order(deps.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(
                                  order_prng.NextInt(0, i - 1))]);
    }
    return order;
  };

  // Measured rounds. A traced run alternates untraced and traced rounds, so
  // drift in host speed falls on both alike; the traced replay resets and
  // reuses each Runtime's own DRAM image (no second copy of ~0.9 GB).
  std::vector<ReplayState> states(deps.size());
  for (std::size_t i = 0; i < deps.size(); ++i) {
    states[i].dram = deps[i].runtime->dram();
  }
  Tracer tracer;
  std::vector<double> round_ms, traced_ms;
  std::vector<std::vector<double>> exec_ms(deps.size());
  std::int64_t instructions = 0;
  const double t_end = Now() + opt.seconds;
  while (round_ms.empty() || Now() < t_end) {
    double t0 = Now();
    for (const std::size_t i : round_order()) {
      Deployment& d = deps[i];
      const double t_exec = Now();
      const RunReport r = d.runtime->Execute(d.model, d.cm, {}, {}, false);
      exec_ms[i].push_back(1e3 * (Now() - t_exec));
      ++res.attempted;
      if (!SameStats(r.stats, d.ref.stats) ||
          r.layer_cycles != d.ref.layer_cycles) {
        res.Fail("sim " + d.label + ": cycles differ between runs");
      }
    }
    round_ms.push_back(1e3 * (Now() - t0));
    if (!opt.trace) continue;

    t0 = Now();
    for (const std::size_t i : round_order()) {
      Deployment& d = deps[i];
      tracer.set_request(static_cast<std::int64_t>(traced_ms.size() *
                                                   deps.size() + i));
      const ExecOut o = TracedExecute(&tracer, states[i], *d.spec, d.model,
                                      d.cm, {}, {}, false, SimRunSpan(*d.spec));
      instructions += o.stats.instructions;
      ++res.attempted;
      if (!SameStats(o.stats, d.ref.stats)) {
        res.Fail("sim " + d.label + ": traced cycles differ");
      }
    }
    traced_ms.push_back(1e3 * (Now() - t0));
  }

  double log_gops = 0, err_sum = 0;
  Tracer est_tracer;
  for (const Deployment& d : deps) {
    log_gops += std::log(d.ref.effective_gops);
    double err = 0;
    {
      const Tracer::Scope s(&est_tracer, "estimator.estimate");
      err = EstimatorError(d, false);
    }
    err_sum += err;
    res.deterministic.push_back(
        {"sim_paper." + d.label + ".cycles", d.ref.stats.total_cycles});
    res.deterministic.push_back(
        {"sim_paper." + d.label + ".dram_words",
         static_cast<double>(d.ref.stats.dram_words_read +
                             d.ref.stats.dram_words_written)});
    res.deterministic.push_back({"sim_paper." + d.label + ".err_pct", err});
  }
  const double model_gops = std::exp(log_gops / deps.size());
  const double est_err_pct = err_sum / deps.size();
  res.deterministic.push_back({"sim_paper.model_gops", model_gops});
  res.deterministic.push_back({"sim_paper.est_err_pct", est_err_pct});

  double total_ms = 0;
  for (const double ms : round_ms) total_ms += ms;
  std::printf("sim_paper: rounds of %zu timing-only Executes\n", deps.size());
  const double best_ms = BestTime(exec_ms);
  SetOpMetrics(opt, setup_s, round_ms, best_ms, 1e3 * deps.size() / best_ms,
               "round", res);
  std::printf("  sim_runs_per_s  %10.3f 1/s (mean)\n",
              1e3 * deps.size() * round_ms.size() / total_ms);
  std::printf("  est_err_pct     %10.4f %%\n", est_err_pct);
  std::printf("  model_gops      %10.3f GOPS (geomean, modeled)\n", model_gops);
  if (!opt.trace) return;

  std::printf("sim_paper per-DNN-layer table (simulated cycles vs Eq. 12-15 "
              "estimate; conv layers enter est_err_pct):\n");
  for (const Deployment& d : deps) {
    const double err = EstimatorError(d, true);
    res.Set("estimator.err_pct." + d.label, err, "%");
  }
  std::printf("\n");

  const double ops = static_cast<double>(traced_ms.size());
  const auto layers = Summarize(tracer.spans());
  std::printf("sim_paper traced rounds:\n");
  PrintLayerTable(layers, ops, "round");
  SetLayerMetrics(layers, ops, res);
  SetInstrRate(layers, instructions, res);
  std::vector<SimStats> one_round;
  for (const Deployment& d : deps) one_round.push_back(d.ref.stats);
  SetSimCounts(one_round, res);
  const LayerTime est = Summarize(est_tracer.spans()).at("estimator.estimate");
  res.Set("estimator.estimate_ms", 1e3 * est.inclusive, "ms");
  res.Set("model_gops", model_gops, "GOPS");
  res.Set("est_err_pct", est_err_pct, "%");
  SetOverhead(round_ms, traced_ms, "round", res);
  WriteChromeTrace(tracer.spans(), opt.trace_path);
}

}  // namespace perfbench
