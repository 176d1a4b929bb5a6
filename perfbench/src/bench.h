// Shared pieces of the host benchmark: options, the result record, order
// statistics, the in-memory span tracer and the traced Runtime::Execute
// replay. Every timing here is host wall time (std::chrono::steady_clock);
// modeled device time only ever appears as simulated cycles or GOPS.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compiler/compiler.h"
#include "compiler/weight_pack.h"
#include "mem/dram_model.h"
#include "nn/model.h"
#include "sim/accelerator.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string result_path;  ///< where the result JSON is written
  std::string trace_path;   ///< Chrome trace_event output (trace runs)
};

/// What one run reports. `metrics` keeps insertion order for printing.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Modeled values that must repeat exactly at any seed; run.py compares
  /// them to perfbench/expected.json.
  std::vector<std::pair<std::string, double>> deterministic;

  void Set(const std::string& name, double value, const std::string& unit);
  /// Counts one failed operation and records why (first few are printed).
  void Fail(const std::string& why);
  void WriteJson(const std::string& path) const;
};

double Now();  ///< steady-clock seconds

double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double PeakRssMb();

/// Best time of an operation made of several kinds of work (the eight
/// deployments of a flow pass, the four Executes of a sim round): the sum
/// over kinds of each kind's fastest time in the run. Host speed on a shared
/// machine swings by up to 2x for seconds at a time, which moves a run's
/// median or tail by more than any useful regression bound, so the gated
/// timings take each kind of work at its fastest (the work at uncontended
/// host speed); medians and tails are reported by the traced run, ungated.
double BestTime(const std::vector<std::vector<double>>& ms_by_kind);

/// Sets the operation timings of a run. Untraced: the end-to-end metrics
/// setup_s (median of the set-ups), peak_rss_mb, op_ms (`best_op_ms`) and
/// items_per_s (the workload's rate: at the `best_op_ms` pace, or measured
/// over a closed loop).
/// Traced: op_p50_ms and op_p99_ms of the untraced operations `op_ms`.
void SetOpMetrics(const Options& opt, const std::vector<double>& setup_s,
                  const std::vector<double>& op_ms, double best_op_ms,
                  double items_per_s_value, const char* op_name, Result& res);

// ------------------------------------------------------------- tracing ---

struct Span {
  const char* name = "";
  double start = 0, end = 0;  ///< steady-clock seconds
  int parent = -1;            ///< index of the enclosing span, -1 = root
  std::int64_t request = -1;  ///< all spans of one operation share this id
};

/// Records nested spans of one thread in memory; nothing is written until
/// WriteChromeTrace. A null Tracer* disables every Scope.
class Tracer {
 public:
  void set_request(std::int64_t id) { request_ = id; }
  const std::vector<Span>& spans() const { return spans_; }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::int64_t request_ = -1;
};

struct LayerTime {
  double inclusive = 0;  ///< summed span durations, seconds
  double self = 0;       ///< minus the time covered by child spans
  std::int64_t calls = 0;
  /// Self time spent inside an enclosing runtime.execute span.
  double self_in_execute = 0;
};

std::map<std::string, LayerTime> Summarize(const std::vector<Span>& spans);

/// Prints the per-layer table: calls, inclusive and self ms per operation,
/// and each layer's share of all self time.
void PrintLayerTable(const std::map<std::string, LayerTime>& layers,
                     double ops, const char* op_name);

/// Sets the per-layer metrics every workload derives from its spans: each
/// layer's inclusive ms per operation and the self-time shares under
/// runtime.execute.
void SetLayerMetrics(const std::map<std::string, LayerTime>& layers,
                     double ops, Result& res);

/// Sets sim.instr_per_host_s: simulated instructions per host second spent
/// in Accelerator::Run (both platforms' sim.run spans).
void SetInstrRate(const std::map<std::string, LayerTime>& layers,
                  std::int64_t instructions, Result& res);

/// Sets and prints the tracing overhead: median traced minus median
/// untraced time of the same operation, in ms and as a percentage.
void SetOverhead(const std::vector<double>& untraced_ms,
                 const std::vector<double>& traced_ms, const char* op_name,
                 Result& res);

/// Chrome trace_event JSON ("X" complete events, microseconds), written
/// with plain stdio.
void WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

// ------------------------------------------------- traced Execute replay ---

/// Per-runtime simulator state of the replay: the DRAM image and the
/// accelerator bound to it, created on the first replayed Execute and reused
/// afterwards, as Runtime does. `dram` may instead point at a live
/// Runtime's image (Runtime::dram()), which the replay then resets and
/// reuses in place of its own.
struct ReplayState {
  hdnn::DramModel* dram = nullptr;
  std::unique_ptr<hdnn::DramModel> owned_dram;
  std::unique_ptr<hdnn::Accelerator> accel;
};

struct ExecOut {
  hdnn::SimStats stats;
  hdnn::Tensor<std::int16_t> output;  ///< empty for timing-only runs
};

/// Runtime::Execute rebuilt from the public stage functions it calls, in
/// the same order, with one span per stage: mem.reset (DRAM construction on
/// first use, DramModel::Reset after), compiler.weight_pack
/// (WriteWeightImages), runtime.stage (StageInputFmap), sim.init
/// (Accelerator construction on first use), `sim_span` (Accelerator::Run)
/// and runtime.collect (CollectOutputFmap), all under runtime.execute.
ExecOut TracedExecute(Tracer* tracer, ReplayState& state,
                      const hdnn::FpgaSpec& spec, const hdnn::Model& model,
                      const hdnn::CompiledModel& cm,
                      const hdnn::ModelWeightsQ& weights,
                      const hdnn::Tensor<std::int16_t>& input,
                      bool functional, const char* sim_span);

/// Span name of Accelerator::Run for a platform ("sim.run.pynq" or
/// "sim.run.vu9p"), so per-layer metrics split the two COMP kernels.
const char* SimRunSpan(const hdnn::FpgaSpec& spec);

/// True iff two simulations agree on every cycle and traffic statistic.
bool SameStats(const hdnn::SimStats& a, const hdnn::SimStats& b);

/// Sets the deterministic modeled counts (sim.cycles, module busy totals,
/// DRAM words) summed over one operation's simulations.
void SetSimCounts(const std::vector<hdnn::SimStats>& per_op, Result& res);

// ------------------------------------------------------------ workloads ---

void RunServe(const Options& opt, Result& res);
void RunFlowZoo(const Options& opt, Result& res);
void RunSimPaper(const Options& opt, Result& res);
void RunFleetSoak(const Options& opt, Result& res);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
