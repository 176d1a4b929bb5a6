#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "platform/fpga_spec.h"
#include "runtime/runtime.h"

namespace perfbench {

using namespace hdnn;

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void PrintNumber(std::FILE* f, double v) {
  if (std::isfinite(v)) {
    std::fprintf(f, "%.17g", v);
  } else {
    std::fprintf(f, "null");
  }
}

}  // namespace

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void Result::Fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

void Result::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"attempted\": %lld, \"failed\": %lld, \"errors\": [",
               static_cast<long long>(attempted),
               static_cast<long long>(failed));
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", JsonEscape(errors[i]).c_str());
  }
  std::fprintf(f, "], \"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\"%s\": {\"value\": ", i ? ", " : "",
                 metrics[i].first.c_str());
    PrintNumber(f, metrics[i].second.first);
    std::fprintf(f, ", \"unit\": \"%s\"}", metrics[i].second.second.c_str());
  }
  std::fprintf(f, "}, \"deterministic\": {");
  for (std::size_t i = 0; i < deterministic.size(); ++i) {
    std::fprintf(f, "%s\"%s\": ", i ? ", " : "",
                 deterministic[i].first.c_str());
    PrintNumber(f, deterministic[i].second);
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double BestTime(const std::vector<std::vector<double>>& ms_by_kind) {
  double total = 0;
  for (const auto& ms : ms_by_kind) {
    if (ms.empty()) return NAN;  // reported as null, which fails the run
    total += *std::min_element(ms.begin(), ms.end());
  }
  return total;
}

void SetOpMetrics(const Options& opt, const std::vector<double>& setup_s,
                  const std::vector<double>& op_ms, double best_op_ms,
                  double items_per_s_value, const char* op_name, Result& res) {
  std::printf("  ms per %s over %zu: best %.3f, p50 %.3f, p99 %.3f\n",
              op_name, op_ms.size(), best_op_ms, Quantile(op_ms, 0.5),
              Quantile(op_ms, 0.99));
  if (opt.trace) {
    res.Set("op_p50_ms", Quantile(op_ms, 0.5), "ms");
    res.Set("op_p99_ms", Quantile(op_ms, 0.99), "ms");
    return;
  }
  res.Set("setup_s", Median(setup_s), "s");
  res.Set("peak_rss_mb", PeakRssMb(), "MB");
  res.Set("op_ms", best_op_ms, "ms");
  res.Set("items_per_s", items_per_s_value, "1/s");
}

// ------------------------------------------------------------- tracing ---

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.request = tracer_->request_;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->open_.push_back(index_);
  span.start = Now();
  tracer_->spans_.push_back(span);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end = Now();
  tracer_->open_.pop_back();
}

std::map<std::string, LayerTime> Summarize(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::map<std::string, LayerTime> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the child intervals, clipped to the parent (children of one
    // thread never overlap, but the union is the definition).
    std::vector<std::pair<double, double>> iv;
    for (const int c : children[i]) {
      const Span& ch = spans[static_cast<std::size_t>(c)];
      iv.push_back({std::max(ch.start, s.start), std::min(ch.end, s.end)});
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;

    LayerTime& lt = layers[s.name];
    const double dur = s.end - s.start;
    const double self = std::max(0.0, dur - covered);
    lt.inclusive += dur;
    lt.self += self;
    ++lt.calls;
    for (int a = static_cast<int>(i); a >= 0;
         a = spans[static_cast<std::size_t>(a)].parent) {
      if (std::string(spans[static_cast<std::size_t>(a)].name) ==
          "runtime.execute") {
        lt.self_in_execute += self;
        break;
      }
    }
  }
  return layers;
}

void PrintLayerTable(const std::map<std::string, LayerTime>& layers,
                     double ops, const char* op_name) {
  std::vector<std::pair<std::string, LayerTime>> rows(layers.begin(),
                                                      layers.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.inclusive > b.second.inclusive;
  });
  double total_self = 0;
  for (const auto& r : rows) total_self += r.second.self;
  std::printf("  %-24s %9s %14s %14s %7s\n", "layer", "calls",
              "incl ms/op", "self ms/op", "self%");
  for (const auto& [name, lt] : rows) {
    std::printf("  %-24s %9lld %14.4f %14.4f %6.1f%%\n", name.c_str(),
                static_cast<long long>(lt.calls), 1e3 * lt.inclusive / ops,
                1e3 * lt.self / ops,
                total_self > 0 ? 100 * lt.self / total_self : 0.0);
  }
  std::printf("  (per %s, over %.0f traced)\n", op_name, ops);
}

void SetLayerMetrics(const std::map<std::string, LayerTime>& layers,
                     double ops, Result& res) {
  static const std::pair<const char*, const char*> kTimed[] = {
      {"frontend.parse", "frontend.parse_ms"},
      {"dse.explore", "dse.explore_ms"},
      {"compiler.compile", "compiler.compile_ms"},
      {"compiler.weight_pack", "compiler.weight_pack_ms"},
      {"mem.reset", "mem.reset_ms"},
      {"runtime.stage", "runtime.stage_ms"},
      {"runtime.collect", "runtime.collect_ms"},
      {"runtime.execute", "runtime.execute_ms"},
      {"sim.run.pynq", "sim.run_ms.pynq"},
      {"sim.run.vu9p", "sim.run_ms.vu9p"},
      {"estimator.estimate", "estimator.estimate_ms"},
      {"fleet.simulate", "fleet.simulate_ms"},
  };
  for (const auto& [span, metric] : kTimed) {
    const auto it = layers.find(span);
    if (it != layers.end()) {
      res.Set(metric, 1e3 * it->second.inclusive / ops, "ms");
    }
  }

  // Self-time shares of the Execute stages (sim.init and the replay's own
  // bookkeeping land in "other").
  const auto in_exec = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_in_execute;
  };
  double total = 0;
  for (const auto& [name, lt] : layers) total += lt.self_in_execute;
  if (total <= 0) return;
  const double pack = in_exec("compiler.weight_pack");
  const double reset = in_exec("mem.reset");
  const double stage = in_exec("runtime.stage");
  const double run = in_exec("sim.run.pynq") + in_exec("sim.run.vu9p");
  const double collect = in_exec("runtime.collect");
  const double other = total - pack - reset - stage - run - collect;
  res.Set("execute_share_pct.compiler.weight_pack", 100 * pack / total, "%");
  res.Set("execute_share_pct.mem.reset", 100 * reset / total, "%");
  res.Set("execute_share_pct.runtime.stage", 100 * stage / total, "%");
  res.Set("execute_share_pct.sim.run", 100 * run / total, "%");
  res.Set("execute_share_pct.runtime.collect", 100 * collect / total, "%");
  res.Set("execute_share_pct.other", 100 * other / total, "%");
}

void SetInstrRate(const std::map<std::string, LayerTime>& layers,
                  std::int64_t instructions, Result& res) {
  double run_s = 0;
  for (const char* span : {"sim.run.pynq", "sim.run.vu9p"}) {
    const auto it = layers.find(span);
    if (it != layers.end()) run_s += it->second.inclusive;
  }
  if (run_s > 0) {
    res.Set("sim.instr_per_host_s", static_cast<double>(instructions) / run_s,
            "1/s");
  }
}

void SetOverhead(const std::vector<double>& untraced_ms,
                 const std::vector<double>& traced_ms, const char* op_name,
                 Result& res) {
  const double plain = Median(untraced_ms);
  const double traced = Median(traced_ms);
  res.Set("trace.overhead_ms", traced - plain, "ms");
  res.Set("trace.overhead_pct", 100 * (traced - plain) / plain, "%");
  std::printf("  ms per %s: untraced %.4f, traced %.4f (tracing overhead "
              "%+.4f ms, %+.2f%%)\n",
              op_name, plain, traced, traced - plain,
              100 * (traced - plain) / plain);
}

void WriteChromeTrace(const std::vector<Span>& spans,
                      const std::string& path) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const double t0 = spans.empty() ? 0 : spans.front().start;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    const std::string module = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"span\": %zu, \"parent\": %d, \"id\": %lld}}",
                 i ? ",\n" : "", name.c_str(), module.c_str(),
                 1e6 * (s.start - t0), 1e6 * (s.end - s.start), i, s.parent,
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// ------------------------------------------------- traced Execute replay ---

ExecOut TracedExecute(Tracer* tracer, ReplayState& state,
                      const FpgaSpec& spec, const Model& model,
                      const CompiledModel& cm, const ModelWeightsQ& weights,
                      const Tensor<std::int16_t>& input, bool functional,
                      const char* sim_span) {
  using Scope = Tracer::Scope;
  const Scope execute(tracer, "runtime.execute");
  // Same DRAM sizing as Runtime::Execute (program image + a 1024-word pad).
  const std::int64_t words = cm.total_dram_words + 1024;
  {
    const Scope s(tracer, "mem.reset");
    if (state.dram == nullptr) {
      state.owned_dram = std::make_unique<DramModel>(words);
      state.dram = state.owned_dram.get();
    } else {
      state.dram->Reset(words);
    }
  }
  const LayerPlan& first = cm.plans.front();
  if (functional) {
    {
      const Scope s(tracer, "compiler.weight_pack");
      WriteWeightImages(cm, model, weights, *state.dram);
    }
    const Scope s(tracer, "runtime.stage");
    StageInputFmap(*state.dram, cm.input_region(0), first.input_layout, input,
                   first.cp_in);
  }
  if (!state.accel) {
    const Scope s(tracer, "sim.init");
    state.accel = std::make_unique<Accelerator>(cm.cfg, spec, *state.dram);
  }
  state.accel->set_functional(functional);
  ExecOut out;
  {
    const Scope s(tracer, sim_span);
    out.stats = state.accel->Run(*cm.decoded);
  }
  if (functional) {
    const Scope s(tracer, "runtime.collect");
    const int last = model.num_layers() - 1;
    const LayerPlan& plan = cm.plans[static_cast<std::size_t>(last)];
    out.output = CollectOutputFmap(*state.dram, cm.output_region(last),
                                   plan.output_layout, plan.out_shape,
                                   plan.cp_out);
  }
  return out;
}

const char* SimRunSpan(const FpgaSpec& spec) {
  return spec.name == Vu9pSpec().name ? "sim.run.vu9p" : "sim.run.pynq";
}

bool SameStats(const SimStats& a, const SimStats& b) {
  return a.total_cycles == b.total_cycles && a.completion == b.completion &&
         a.ldi_busy == b.ldi_busy && a.ldw_busy == b.ldw_busy &&
         a.comp_busy == b.comp_busy && a.save_busy == b.save_busy &&
         a.port_busy == b.port_busy && a.instructions == b.instructions &&
         a.dram_words_read == b.dram_words_read &&
         a.dram_words_written == b.dram_words_written &&
         a.macs_executed == b.macs_executed;
}

void SetSimCounts(const std::vector<SimStats>& per_op, Result& res) {
  SimStats sum;
  for (const SimStats& s : per_op) {
    sum.total_cycles += s.total_cycles;
    sum.ldi_busy += s.ldi_busy;
    sum.ldw_busy += s.ldw_busy;
    sum.comp_busy += s.comp_busy;
    sum.save_busy += s.save_busy;
    sum.port_busy += s.port_busy;
    sum.dram_words_read += s.dram_words_read + s.dram_words_written;
  }
  res.Set("sim.cycles", sum.total_cycles, "cycles");
  res.Set("sim.ldi_busy", sum.ldi_busy, "cycles");
  res.Set("sim.ldw_busy", sum.ldw_busy, "cycles");
  res.Set("sim.comp_busy", sum.comp_busy, "cycles");
  res.Set("sim.save_busy", sum.save_busy, "cycles");
  res.Set("sim.port_busy", sum.port_busy, "cycles");
  res.Set("sim.dram_words", static_cast<double>(sum.dram_words_read),
          "count");
}

}  // namespace perfbench
