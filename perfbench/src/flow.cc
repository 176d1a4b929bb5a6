// flow_zoo: the paper's cold design flow (Fig. 1). One pass runs eight
// deployments, {tiny_cnn, tiny_residual_block, vgg16_style(32,4),
// resnet18_scaled(64,4)} x {PYNQ-Z1, VU9P}, each from model text through
// DesignFlow::RunFromText with one functional Execute. Every deployment
// builds fresh objects (parser output, DSE engine, compiled program,
// runtime) and each pass renames the model, so no object-held cache carries
// over between deployments. Weights and inputs are fixed per run (derived
// from the seed) so that every output can be checked against a golden
// output computed once, outside the timers.
//
// The traced pass calls the stage functions DesignFlow::Run calls, in the
// same order, with a span around each.
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "common/prng.h"
#include "dse/search.h"
#include "frontend/parser.h"
#include "nn/builders.h"
#include "platform/fpga_spec.h"
#include "quant/golden.h"
#include "runtime/design_flow.h"

namespace perfbench {

using namespace hdnn;

namespace {

constexpr int kSetups = 25;

struct Deployment {
  std::string label;      // "<model>.<platform>"
  const FpgaSpec* spec = nullptr;
  std::string body;       // model text without its "model <name>" line
  std::string name;
  std::uint64_t seed = 0; // DesignFlow weight/input seed
  Tensor<std::int16_t> golden;
  SimStats stats;         // from the first untraced pass
  double gops = 0;
};

std::string PassText(const Deployment& d, int pass) {
  return "model " + d.name + "_p" + std::to_string(pass) + "\n" + d.body;
}

/// The synthetic input DesignFlow::Run feeds a functional Execute.
Tensor<std::int16_t> FlowInput(const Model& model, std::uint64_t seed) {
  const FmapShape in = model.InputOf(0);
  Tensor<std::int16_t> input(Shape{in.channels, in.height, in.width});
  Prng prng(seed ^ 0x9e3779b9u);
  input.FillRandomInt(prng, -128, 127);
  return input;
}

struct TracedCounts {
  std::int64_t candidates = 0, instructions = 0, sim_instructions = 0;
  std::int64_t memo_hits = 0, memo_lookups = 0;
};

/// One deployment through DesignFlow::Run's stages, traced.
ExecOut TracedDeploy(Tracer& tracer, const Deployment& d, int pass,
                     TracedCounts& counts) {
  const FpgaSpec& spec = *d.spec;
  const Tracer::Scope deploy(&tracer, "flow.deploy");
  Model model;
  {
    const Tracer::Scope s(&tracer, "frontend.parse");
    model = ParseModelText(PassText(d, pass));
  }
  DseFrontier frontier;
  {
    const Tracer::Scope s(&tracer, "dse.explore");
    const DseEngine dse(spec);
    frontier = dse.ExploreFrontier(model, DseOptions{});
    const auto memo = dse.cache_stats();
    counts.memo_hits += memo.hits;
    counts.memo_lookups += memo.hits + memo.misses;
  }
  counts.candidates += frontier.candidates_evaluated;
  CompiledModel cm;
  {
    const Tracer::Scope s(&tracer, "compiler.compile");
    cm = Compiler(frontier.best.config, spec)
             .Compile(model, frontier.best.mapping);
  }
  counts.instructions += static_cast<std::int64_t>(cm.program.size());
  ModelWeightsQ weights;
  {
    const Tracer::Scope s(&tracer, "compiler.synth_weights");
    weights = SyntheticWeights(model, d.seed);
  }
  const Tensor<std::int16_t> input = FlowInput(model, d.seed);
  ReplayState state;  // a fresh runtime per deployment, as DesignFlow has
  ExecOut out = TracedExecute(&tracer, state, spec, model, cm, weights, input,
                              true, SimRunSpan(spec));
  counts.sim_instructions += out.stats.instructions;
  return out;
}

}  // namespace

void RunFlowZoo(const Options& opt, Result& res) {
  const std::vector<std::pair<std::string, Model>> models = {
      {"tiny_cnn", BuildTinyCnn()},
      {"tiny_residual_block", BuildTinyResidualBlock()},
      {"vgg16_style_32_4", BuildVgg16Style(32, 4)},
      {"resnet18_scaled_64_4", BuildResNet18Scaled(64, 4)},
  };
  const std::vector<std::pair<std::string, const FpgaSpec*>> platforms = {
      {"pynq", &PynqZ1Spec()}, {"vu9p", &Vu9pSpec()}};
  std::vector<Deployment> deps;
  Prng seeds(opt.seed);
  for (const auto& [mname, model] : models) {
    const std::string text = WriteModelText(model);
    for (const auto& [pname, spec] : platforms) {
      Deployment d;
      d.label = mname + "." + pname;
      d.spec = spec;
      d.name = mname;
      d.body = text.substr(text.find('\n') + 1);
      d.seed = seeds.NextU64();
      deps.push_back(std::move(d));
    }
  }

  // Set-up: the parse, DSE and compile each golden output needs, repeated.
  std::vector<double> setup_s;
  std::vector<std::pair<Model, CompiledModel>> compiled;
  for (int k = 0; k < kSetups; ++k) {
    compiled.clear();
    const double t0 = Now();
    for (const Deployment& d : deps) {
      Model model = ParseModelText(PassText(d, 0));
      const DseResult best =
          DseEngine(*d.spec).ExploreFrontier(model, DseOptions{}).best;
      CompiledModel cm =
          Compiler(best.config, *d.spec).Compile(model, best.mapping);
      compiled.push_back({std::move(model), std::move(cm)});
    }
    setup_s.push_back(Now() - t0);
  }

  Tracer golden_tracer;
  for (std::size_t i = 0; i < deps.size(); ++i) {
    const auto& [model, cm] = compiled[i];
    const ModelWeightsQ weights = SyntheticWeights(model, deps[i].seed);
    const Tensor<std::int16_t> input = FlowInput(model, deps[i].seed);
    golden_tracer.set_request(static_cast<std::int64_t>(i));
    const Tracer::Scope s(&golden_tracer, "quant.golden");
    deps[i].golden = QuantGoldenForward(model, cm, weights, input).back();
  }
  compiled.clear();

  // Measured passes through DesignFlow::RunFromText. A traced run alternates
  // them with traced passes, so drift in host speed falls on both alike.
  Tracer tracer;
  TracedCounts counts;
  std::vector<double> pass_ms, traced_ms;
  std::vector<std::vector<double>> deploy_ms(deps.size());
  int pass = 0;
  const double t_end = Now() + opt.seconds;
  while (pass_ms.empty() || Now() < t_end) {
    ++pass;
    double t0 = Now();
    for (std::size_t i = 0; i < deps.size(); ++i) {
      Deployment& d = deps[i];
      const double t_deploy = Now();
      const DesignFlowResult r =
          DesignFlow(*d.spec).RunFromText(PassText(d, pass), true,
                                          DseOptions{}, d.seed);
      deploy_ms[i].push_back(1e3 * (Now() - t_deploy));
      ++res.attempted;
      if (!(r.report.output == d.golden)) {
        res.Fail("flow " + d.label + ": output differs from golden");
      }
      if (pass == 1) {
        d.stats = r.report.stats;
        d.gops = r.report.effective_gops;
      } else if (!SameStats(r.report.stats, d.stats)) {
        res.Fail("flow " + d.label + ": simulated stats differ between passes");
      }
    }
    pass_ms.push_back(1e3 * (Now() - t0));
    if (!opt.trace) continue;

    ++pass;
    t0 = Now();
    for (std::size_t i = 0; i < deps.size(); ++i) {
      tracer.set_request(static_cast<std::int64_t>(traced_ms.size() *
                                                   deps.size() + i));
      const ExecOut o = TracedDeploy(tracer, deps[i], pass, counts);
      ++res.attempted;
      if (!(o.output == deps[i].golden)) {
        res.Fail("flow " + deps[i].label + ": traced output differs");
      } else if (!SameStats(o.stats, deps[i].stats)) {
        res.Fail("flow " + deps[i].label + ": traced cycles differ");
      }
    }
    traced_ms.push_back(1e3 * (Now() - t0));
  }

  double log_gops = 0;
  for (const Deployment& d : deps) {
    log_gops += std::log(d.gops);
    res.deterministic.push_back({"flow_zoo." + d.label + ".cycles",
                                 d.stats.total_cycles});
  }
  const double model_gops = std::exp(log_gops / deps.size());
  res.deterministic.push_back({"flow_zoo.model_gops", model_gops});

  std::printf("flow_zoo: passes of %zu deployments\n", deps.size());
  const double best_ms = BestTime(deploy_ms);
  SetOpMetrics(opt, setup_s, pass_ms, best_ms, 1e3 * deps.size() / best_ms,
               "pass", res);
  std::printf("  flow_pass_s  %10.4f s (median)\n", Median(pass_ms) / 1e3);
  std::printf("  model_gops   %10.4f GOPS (geomean, modeled)\n", model_gops);
  if (!opt.trace) return;

  const double ops = static_cast<double>(traced_ms.size());
  const auto layers = Summarize(tracer.spans());
  std::printf("flow_zoo traced passes:\n");
  PrintLayerTable(layers, ops, "pass");
  SetLayerMetrics(layers, ops, res);
  res.Set("dse.candidates", counts.candidates / ops, "count");
  res.Set("dse.memo_hit_frac",
          counts.memo_lookups > 0
              ? static_cast<double>(counts.memo_hits) / counts.memo_lookups
              : 0.0,
          "fraction");
  res.Set("compiler.instructions", counts.instructions / ops, "count");
  SetInstrRate(layers, counts.sim_instructions, res);
  std::vector<SimStats> one_pass;
  for (const Deployment& d : deps) one_pass.push_back(d.stats);
  SetSimCounts(one_pass, res);
  res.Set("model_gops", model_gops, "GOPS");
  const auto g = Summarize(golden_tracer.spans()).at("quant.golden");
  res.Set("quant.golden_ms", 1e3 * g.inclusive / g.calls, "ms");
  SetOverhead(pass_ms, traced_ms, "pass", res);
  WriteChromeTrace(tracer.spans(), opt.trace_path);
}

}  // namespace perfbench
