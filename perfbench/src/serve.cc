// serve_tiny_pynq: the request path Submit -> admission -> batching ->
// Runtime::Execute -> resolved future, for tiny_cnn in functional mode on the
// configuration the DSE deploys on PYNQ-Z1. Three server workers; the main
// thread is the only load generator.
//
//   * open loop: seeded Poisson arrivals at kOpenRate, each latency timed
//     from the request's scheduled send time (a late generator is charged
//     to the system);
//   * closed loop: a window of 2 x workers requests kept in flight.
//
// The server can only be observed from outside, so the traced run splits
// Execute into stages with a single-thread replay of the same inputs
// through the public stage functions (TracedExecute), next to an untraced
// Runtime::Execute replay that gives the tracing overhead.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <thread>

#include "bench.h"
#include "common/prng.h"
#include "dse/search.h"
#include "nn/builders.h"
#include "platform/fpga_spec.h"
#include "quant/golden.h"
#include "runtime/engine.h"
#include "runtime/runtime.h"
#include "runtime/server.h"

namespace perfbench {

using namespace hdnn;

namespace {

constexpr int kWorkers = 3;
constexpr int kInputs = 32;
constexpr double kOpenRate = 80.0;  // req/s, ~45% of 3-worker capacity
constexpr int kSetups = 25;
/// Open-loop requests due in the first kWarmupSeconds are served and checked
/// but left out of the latency sample, so that every worker's Runtime has
/// made its first-run allocation before latencies count.
constexpr double kWarmupSeconds = 1.0;

struct Served {
  std::vector<double> latency_ms;  // from scheduled send; failed = +inf
  std::vector<double> queue_ms, service_ms, late_ms;
  std::vector<int> input_of;       // input index per open-loop request
  std::vector<SimStats> stats;     // per ok request (first few kept)
  double items_per_s = 0;          // closed loop
  ServerStats server;
};

/// Checks one resolved request against its golden output.
bool CheckReport(const ItemReport& r, const Tensor<std::int16_t>& golden,
                 Result& res) {
  ++res.attempted;
  if (r.outcome != ServeOutcome::kOk) {
    res.Fail("serve: request not ok (outcome " +
             std::to_string(static_cast<int>(r.outcome)) + ")");
    return false;
  }
  if (!(r.run.output == golden)) {
    res.Fail("serve: output differs from QuantGoldenForward");
    return false;
  }
  return true;
}

Served RunServer(InferenceServer& server, ModelHandle handle,
                 const std::vector<Tensor<std::int16_t>>& inputs,
                 const std::vector<Tensor<std::int16_t>>& golden,
                 double open_s, double closed_s, std::uint64_t seed,
                 Result& res) {
  Served out;
  // Open loop.
  Prng arrivals = Prng(seed).Fork(2);
  Prng picks = Prng(seed).Fork(3);
  std::vector<double> sched;
  for (double t = 0;;) {
    t += -std::log(1.0 - arrivals.NextDouble()) / kOpenRate;
    if (t >= kWarmupSeconds + open_s) break;
    sched.push_back(t);
  }
  const std::size_t n = sched.size();
  out.input_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.input_of[i] = static_cast<int>(picks.NextInt(0, kInputs - 1));
  }
  std::vector<std::future<ItemReport>> futures(n);
  std::vector<double> late(n);
  using Clock = std::chrono::steady_clock;
  const Clock::time_point epoch = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n; ++i) {
    const Clock::time_point due =
        epoch + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(sched[i]));
    std::this_thread::sleep_until(due);
    late[i] = std::chrono::duration<double>(Clock::now() - due).count();
    futures[i] = server.Submit(
        handle, inputs[static_cast<std::size_t>(out.input_of[i])]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const ItemReport r = futures[i].get();
    const bool ok =
        CheckReport(r, golden[static_cast<std::size_t>(out.input_of[i])], res);
    if (sched[i] < kWarmupSeconds) continue;
    out.latency_ms.push_back(ok ? 1e3 * (late[i] + r.total_seconds)
                                : INFINITY);
    out.late_ms.push_back(1e3 * late[i]);
    out.queue_ms.push_back(1e3 * r.queue_seconds);
    out.service_ms.push_back(1e3 * r.service_seconds);
    if (ok && out.stats.size() < 4) out.stats.push_back(r.run.stats);
  }
  out.server = server.stats(handle);

  // Closed loop.
  Prng closed_picks = Prng(seed).Fork(4);
  std::deque<std::pair<std::future<ItemReport>, int>> inflight;
  const auto submit = [&] {
    const int idx = static_cast<int>(closed_picks.NextInt(0, kInputs - 1));
    inflight.push_back(
        {server.Submit(handle, inputs[static_cast<std::size_t>(idx)]), idx});
  };
  const double start = Now();
  for (int k = 0; k < 2 * kWorkers; ++k) submit();
  std::int64_t completed = 0;
  double last = start;
  while (true) {
    auto [fut, idx] = std::move(inflight.front());
    inflight.pop_front();
    const ItemReport r = fut.get();
    CheckReport(r, golden[static_cast<std::size_t>(idx)], res);
    ++completed;
    last = Now();
    if (last - start >= closed_s) break;
    submit();
  }
  out.items_per_s = static_cast<double>(completed) / (last - start);
  for (auto& [fut, idx] : inflight) {
    CheckReport(fut.get(), golden[static_cast<std::size_t>(idx)], res);
  }
  return out;
}

}  // namespace

void RunServe(const Options& opt, Result& res) {
  const FpgaSpec& spec = PynqZ1Spec();
  const Model model = BuildTinyCnn();
  const ModelWeightsQ weights = SyntheticWeights(model, opt.seed);
  std::vector<Tensor<std::int16_t>> inputs;
  Prng input_prng = Prng(opt.seed).Fork(1);
  const FmapShape in = model.InputOf(0);
  for (int i = 0; i < kInputs; ++i) {
    Tensor<std::int16_t> t(Shape{in.channels, in.height, in.width});
    t.FillRandomInt(input_prng, -128, 127);
    inputs.push_back(std::move(t));
  }

  // Set-up: DSE, engine, server and model registration (compile + device
  // profile), repeated; the last deployment serves.
  std::vector<double> setup_s;
  DseResult dse;
  std::unique_ptr<InferenceEngine> engine;
  std::unique_ptr<InferenceServer> server;
  ModelHandle handle = -1;
  for (int k = 0; k < kSetups; ++k) {
    server.reset();
    engine.reset();
    const double t0 = Now();
    dse = DseEngine(spec).Explore(model);
    // One engine pool thread (idle: the server drives its own workers).
    engine = std::make_unique<InferenceEngine>(spec, 1);
    ServerOptions so;
    so.num_workers = kWorkers;
    server = std::make_unique<InferenceServer>(*engine, so);
    handle = server->RegisterModel(model, dse.config, dse.mapping, weights);
    setup_s.push_back(Now() - t0);
  }
  std::printf("serve_tiny_pynq: tiny_cnn on %s %s, %d workers\n",
              spec.name.c_str(), dse.config.ToString().c_str(), kWorkers);

  // Golden outputs, outside every timer.
  const CompiledModel cm =
      Compiler(dse.config, spec).Compile(model, dse.mapping);
  Tracer golden_tracer;
  std::vector<Tensor<std::int16_t>> golden;
  for (const auto& x : inputs) {
    golden_tracer.set_request(static_cast<std::int64_t>(golden.size()));
    const Tracer::Scope s(&golden_tracer, "quant.golden");
    golden.push_back(QuantGoldenForward(model, cm, weights, x).back());
  }

  const double serve_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  // Two thirds of the time go to the closed loop: its throughput depends on
  // three host CPUs at once and needs the longer average to be steady.
  Served sv = RunServer(*server, handle, inputs, golden, serve_s / 3,
                        2 * serve_s / 3, opt.seed, res);
  server->Stop();

  for (const SimStats& s : sv.stats) {
    if (!SameStats(s, sv.stats.front())) {
      res.Fail("serve: simulated stats differ between requests");
    }
  }

  std::printf("  open loop at %.0f req/s, latency from scheduled send:\n",
              kOpenRate);
  SetOpMetrics(opt, setup_s, sv.latency_ms, BestTime({sv.latency_ms}),
               sv.items_per_s, "request", res);
  std::printf("  serve_p50_ms       %10.3f ms\n", Quantile(sv.latency_ms, 0.5));
  std::printf("  serve_p99_ms       %10.3f ms\n",
              Quantile(sv.latency_ms, 0.99));
  std::printf("  serve_items_per_s  %10.2f 1/s (closed loop, window %d)\n",
              sv.items_per_s, 2 * kWorkers);
  if (!opt.trace) return;

  // Traced run: server-side splits from ItemReport / ServerStats ...
  res.Set("server.queue_ms_p50", Quantile(sv.queue_ms, 0.50), "ms");
  res.Set("server.queue_ms_p99", Quantile(sv.queue_ms, 0.99), "ms");
  res.Set("server.service_ms_p50", Quantile(sv.service_ms, 0.50), "ms");
  res.Set("server.service_ms_p99", Quantile(sv.service_ms, 0.99), "ms");
  res.Set("server.batch_mean", sv.server.mean_batch_size(), "count");
  res.Set("server.shed_frac", sv.server.shed_rate(), "fraction");
  const double lookups = static_cast<double>(engine->cache_hits() +
                                             engine->cache_misses());
  res.Set("engine.cache_hit_frac",
          lookups > 0 ? static_cast<double>(engine->cache_hits()) / lookups
                      : 0.0,
          "fraction");
  res.Set("loadgen.late_ms_p99", Quantile(sv.late_ms, 0.99), "ms");
  if (!sv.stats.empty()) SetSimCounts({sv.stats.front()}, res);

  // ... and a single-thread replay of the open-loop inputs, alternating an
  // untraced Runtime::Execute with the traced stage-by-stage Execute of the
  // same input (so drift in host speed falls on both alike).
  Runtime runtime(dse.config, spec);
  Tracer tracer;
  ReplayState state;
  TracedExecute(nullptr, state, spec, model, cm, weights, inputs[0], true,
                SimRunSpan(spec));  // first-use allocation, not traced
  std::vector<double> plain_ms, traced_ms;
  std::int64_t instructions = 0;
  const double t_end = Now() + opt.seconds / 2;
  for (std::size_t i = 0; i < sv.input_of.size() && Now() < t_end; ++i) {
    const std::size_t idx = static_cast<std::size_t>(sv.input_of[i]);
    double t0 = Now();
    const RunReport plain =
        runtime.Execute(model, cm, weights, inputs[idx], true);
    plain_ms.push_back(1e3 * (Now() - t0));
    res.Set("model_gops", plain.effective_gops, "GOPS");

    tracer.set_request(static_cast<std::int64_t>(i));
    t0 = Now();
    const ExecOut o = TracedExecute(&tracer, state, spec, model, cm, weights,
                                    inputs[idx], true, SimRunSpan(spec));
    traced_ms.push_back(1e3 * (Now() - t0));
    instructions += o.stats.instructions;
    res.attempted += 2;
    if (!(plain.output == golden[idx]) || !(o.output == golden[idx])) {
      res.Fail("serve replay: output differs from golden");
    } else if (!SameStats(o.stats, plain.stats) ||
               (!sv.stats.empty() && !SameStats(o.stats, sv.stats.front()))) {
      res.Fail("serve replay: traced cycles differ from untraced or served");
    }
  }

  const auto layers = Summarize(tracer.spans());
  const double ops = static_cast<double>(traced_ms.size());
  std::printf("  traced replay (single thread, %zu requests):\n",
              traced_ms.size());
  PrintLayerTable(layers, ops, "request");
  SetLayerMetrics(layers, ops, res);
  SetInstrRate(layers, instructions, res);
  const auto g = Summarize(golden_tracer.spans()).at("quant.golden");
  res.Set("quant.golden_ms", 1e3 * g.inclusive / g.calls, "ms");
  SetOverhead(plain_ms, traced_ms, "request", res);
  WriteChromeTrace(tracer.spans(), opt.trace_path);
}

}  // namespace perfbench
