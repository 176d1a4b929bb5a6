// fleet_soak: the chaos fleet (5 boards of 1000 QPS each, an interactive
// 5 ms class and a bulk class without deadline, 2800 QPS offered) run
// through SimulateFleet on one thread, over a seeded Poisson trace of about
// 1e6 arrivals with a composed FaultPlan: a dispatch stall, a 3x slowdown,
// 25 corrupted results and a board crash, at seed-drawn times and shards.
// It exercises fleet/ and common/deadline_queue.h only — no simulator,
// compiler or runtime code runs. Each simulation is checked for request
// conservation and for an identical replay digest.
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "common/fault.h"
#include "common/prng.h"
#include "fleet/fleet.h"
#include "platform/fpga_spec.h"

namespace perfbench {

using namespace hdnn;

namespace {

constexpr int kBoards = 5;
constexpr double kHorizonSeconds = 357;  // x 2800 QPS ~= 1e6 arrivals
constexpr double kItemSeconds = 0.001;
constexpr int kSetups = 5;

BoardCandidate MakeBoard() {
  BoardCandidate cand;
  cand.spec = PynqZ1Spec();
  cand.spec.name = "soak-board";
  cand.config.ni = 1;
  cand.power_watts = 10.0;
  cand.item_seconds = {kItemSeconds};
  cand.board_qps = {1.0 / kItemSeconds};
  cand.mappings.resize(1);
  return cand;
}

template <typename T>
void Mix(std::uint64_t& h, const T& v) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
}

/// FNV-1a over everything a replay must reproduce.
std::uint64_t Digest(const FleetSimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const int d : r.decisions) Mix(h, d);
  for (const FleetClassStats& c : r.classes) {
    for (const std::int64_t v : {c.submitted, c.ok, c.rejected, c.expired,
                                 c.unroutable, c.failed, c.ok_tail}) {
      Mix(h, v);
    }
    Mix(h, c.p50_ms);
    Mix(h, c.p99_ms);
  }
  for (const FleetShardStats& s : r.shards) {
    Mix(h, s.items);
    Mix(h, s.busy_seconds);
  }
  const FleetChaosStats& c = r.chaos;
  for (const std::int64_t v :
       {c.hedges, c.hedge_wasted, c.retries, c.corrupted_detected,
        c.corrupted_served, c.degraded_shed}) {
    Mix(h, v);
  }
  Mix(h, c.replans);
  Mix(h, c.shards_down);
  Mix(h, r.goodput_qps);
  Mix(h, r.horizon_seconds);
  return h;
}

std::int64_t Sum(const FleetSimResult& r,
                 std::int64_t FleetClassStats::*field) {
  std::int64_t total = 0;
  for (const FleetClassStats& c : r.classes) total += c.*field;
  return total;
}

}  // namespace

void RunFleetSoak(const Options& opt, Result& res) {
  const std::vector<BoardCandidate> candidates{MakeBoard()};
  const std::vector<int> shards(kBoards, 0);
  const std::vector<LatencyClass> classes{
      {"interactive", 0, 800.0, 0.005},
      {"bulk", 0, 2000.0, kNoDeadline},
  };
  const double horizon = kHorizonSeconds;
  FleetOptions fo;
  fo.router.seed = Prng(opt.seed).Fork(7).NextU64();
  fo.class_weights = {2.0, 1.0};
  fo.health.heartbeat_timeout_seconds = 0.02;
  fo.health.down_after_seconds = 0.05;
  fo.health.max_consecutive_misses = 0;
  fo.hedge_slack_fraction = 0.25;
  fo.tail_window_start_seconds = 0.8 * horizon;

  // Set-up: the arrival trace and the fault plan, repeated.
  std::vector<double> setup_s;
  std::vector<FleetTraceArrival> trace;
  std::unique_ptr<FaultPlan> plan;
  for (int k = 0; k < kSetups; ++k) {
    trace.clear();
    const double t0 = Now();
    trace = MakePoissonTrace(classes, horizon, opt.seed);
    Prng f = Prng(opt.seed).Fork(8);
    const auto shard = [&] { return static_cast<int>(f.NextInt(0, kBoards - 1)); };
    plan = std::make_unique<FaultPlan>(opt.seed);
    plan->AddStall(shard(), f.NextDouble(0.05, 0.20) * horizon, 0.030);
    plan->AddSlowdown(shard(), f.NextDouble(0.20, 0.35) * horizon, 0.040, 3.0);
    plan->AddCorruption(shard(), f.NextDouble(0.35, 0.50) * horizon, 25);
    plan->AddCrash(shard(), f.NextDouble(0.55, 0.75) * horizon);
    plan->Materialize();
    setup_s.push_back(Now() - t0);
  }
  const std::vector<std::vector<double>> device_seconds{{kItemSeconds}};

  Tracer tracer;
  std::vector<double> sim_ms, traced_ms;
  FleetSimResult first;
  std::uint64_t first_digest = 0;
  bool have_first = false;
  const auto simulate = [&](Tracer* t) {
    const double t0 = Now();
    FleetSimResult r;
    {
      const Tracer::Scope s(t, "fleet.simulate");
      r = SimulateFleet(candidates, shards, classes, device_seconds, trace,
                        fo, plan.get());
    }
    const double ms = 1e3 * (Now() - t0);
    ++res.attempted;
    const std::int64_t submitted = Sum(r, &FleetClassStats::submitted);
    const std::int64_t settled =
        Sum(r, &FleetClassStats::ok) + Sum(r, &FleetClassStats::rejected) +
        Sum(r, &FleetClassStats::expired) +
        Sum(r, &FleetClassStats::unroutable) + Sum(r, &FleetClassStats::failed);
    const std::uint64_t digest = Digest(r);
    if (submitted != static_cast<std::int64_t>(trace.size()) ||
        submitted != settled) {
      res.Fail("fleet: conservation violated (" + std::to_string(submitted) +
               " submitted, " + std::to_string(settled) + " settled)");
    } else if (!have_first) {
      have_first = true;
      first_digest = digest;
      first = std::move(r);
    } else if (digest != first_digest) {
      res.Fail("fleet: replay digest differs between runs");
    }
    return ms;
  };

  // A traced run alternates untraced and traced simulations, so drift in
  // host speed falls on both alike.
  const double t_end = Now() + opt.seconds;
  while (sim_ms.size() < 2 || Now() < t_end) {
    sim_ms.push_back(simulate(nullptr));
    if (opt.trace) {
      tracer.set_request(static_cast<std::int64_t>(traced_ms.size()));
      traced_ms.push_back(simulate(&tracer));
    }
  }

  const double goodput = first.goodput_qps;
  res.deterministic.push_back({"fleet_soak.goodput_qps", goodput});
  res.deterministic.push_back(
      {"fleet_soak.digest_low32", static_cast<double>(first_digest & 0xffffffffu)});

  double total_ms = 0;
  for (const double ms : sim_ms) total_ms += ms;
  const double arrivals = static_cast<double>(trace.size());
  std::printf("fleet_soak: simulations of %zu arrivals (%.0f s virtual)\n",
              trace.size(), horizon);
  const double best_ms = BestTime({sim_ms});
  SetOpMetrics(opt, setup_s, sim_ms, best_ms, 1e3 * arrivals / best_ms,
               "simulation", res);
  std::printf("  fleet_arrivals_per_s  %14.1f 1/s (mean)\n",
              1e3 * arrivals * sim_ms.size() / total_ms);
  std::printf("  fleet_goodput_qps     %14.4f 1/s (modeled)\n", goodput);
  if (!opt.trace) return;

  const auto layers = Summarize(tracer.spans());
  const double ops = static_cast<double>(traced_ms.size());
  std::printf("fleet_soak traced simulations:\n");
  PrintLayerTable(layers, ops, "simulation");
  SetLayerMetrics(layers, ops, res);
  res.Set("fleet.ok", static_cast<double>(Sum(first, &FleetClassStats::ok)),
          "count");
  res.Set("fleet.shed",
          static_cast<double>(Sum(first, &FleetClassStats::rejected) +
                              Sum(first, &FleetClassStats::expired) +
                              Sum(first, &FleetClassStats::unroutable)),
          "count");
  res.Set("fleet.failed",
          static_cast<double>(Sum(first, &FleetClassStats::failed)), "count");
  res.Set("fleet.retries", static_cast<double>(first.chaos.retries), "count");
  res.Set("fleet.hedges_wasted",
          static_cast<double>(first.chaos.hedge_wasted), "count");
  res.Set("fleet.replans", first.chaos.replans, "count");
  res.Set("fleet_goodput_qps", goodput, "1/s");
  SetOverhead(sim_ms, traced_ms, "simulation", res);
  WriteChromeTrace(tracer.spans(), opt.trace_path);
}

}  // namespace perfbench
