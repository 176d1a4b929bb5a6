// Batch serving layer over the single-shot runtime (towards the ROADMAP
// north star: amortise compilation and fan inference across accelerator
// instances, the way paper Table 4 reports effective throughput for NI
// parallel instances).
//
// The InferenceEngine owns
//   * a compiled-program cache keyed by (structural model+mapping hash,
//     AccelConfig) — repeated traffic for the same deployment skips the
//     compiler entirely;
//   * a shared RuntimePool. Each batch checks out one Runtime per worker;
//     every Runtime owns its DramModel, so workers are share-nothing and a
//     batch executes concurrently with bit-identical results to sequential
//     Runtime::Execute calls — and concurrent ExecuteBatch callers overlap
//     instead of serializing on an engine-wide lock.
//
// Throughput is reported in two domains:
//   * host wall-clock (items/s) — serving speed of this process;
//   * modeled accelerator time — the batch makespan when the W workers are
//     viewed as W parallel accelerator instances, i.e. aggregate effective
//     GOPS in the sense of paper Table 4. This is deterministic and
//     machine-independent, so tests and benches can rely on it.
#ifndef HDNN_RUNTIME_ENGINE_H_
#define HDNN_RUNTIME_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "compiler/compiler.h"
#include "compiler/weight_pack.h"
#include "nn/model.h"
#include "platform/fpga_spec.h"
#include "runtime/runtime.h"
#include "runtime/runtime_pool.h"

namespace hdnn {

/// Order-independent structural fingerprint of a model plus its per-layer
/// mapping (FNV-1a over geometry; the model name does not participate).
std::uint64_t ModelStructuralHash(const Model& model,
                                  const std::vector<LayerMapping>& mapping);

/// Host serving rate for `items` completed in `wall_seconds`. Sub-tick
/// batches can measure a wall time of exactly zero on coarse steady_clock
/// implementations; rather than reporting an items/s of 0 (which reads as
/// "infinitely slow" in every downstream bench table), the rate falls back
/// to assuming the batch took one clock tick — a lower bound on what the
/// clock can resolve, hence a conservative (under-)estimate of the true
/// rate. Zero items always report 0.
double HostItemsPerSecond(std::size_t items, double wall_seconds);

/// Result of one ExecuteBatch call.
struct BatchReport {
  std::vector<RunReport> items;  ///< one per input, in input order

  int workers_used = 0;
  double wall_seconds = 0;       ///< host wall-clock for the whole batch
  double items_per_second = 0;   ///< host-side serving throughput

  /// Batch makespan in modeled accelerator time: max over workers of the
  /// summed simulated seconds of the items that worker executed.
  double sim_makespan_seconds = 0;
  /// total model ops x batch / sim_makespan_seconds (paper Table 4
  /// "effective" style, with the worker pool as the parallel instances; a
  /// simulated run already models one instance, so NI does not enter —
  /// per-item RunReport.effective_gops still reports the xNI figure).
  double aggregate_effective_gops = 0;

  bool cache_hit = false;        ///< program came from the compiled cache
};

class InferenceEngine {
 public:
  /// Spins up `num_workers` workers; each gets a dedicated Runtime when a
  /// batch executes.
  InferenceEngine(const FpgaSpec& spec, int num_workers);

  int num_workers() const { return pool_.num_threads(); }

  /// Compiles `model` for `cfg` under `mapping`, or returns the cached
  /// program compiled earlier for an identical deployment. When `was_hit`
  /// is non-null it reports whether this call was served from the cache.
  /// `quant` selects the quantisation point (null = legacy hand-assigned
  /// shifts); its scale fingerprint participates in the cache key, so the
  /// same model deployed at two precision points never shares a program.
  std::shared_ptr<const CompiledModel> GetOrCompile(
      const Model& model, const AccelConfig& cfg,
      const std::vector<LayerMapping>& mapping, bool* was_hit = nullptr,
      const QuantConfig* quant = nullptr);

  /// Runs every input through the model, fanning the batch across the
  /// worker pool (item i runs on worker i % W; workers process their items
  /// in order, so results are deterministic and bit-identical to sequential
  /// execution). Concurrent callers are safe and overlap: each call checks
  /// its Runtimes out of the shared pool instead of serializing on an
  /// engine-wide lock. A functional call packs `weights` into one
  /// WeightImage and every item restores it. Throws InvalidArgument for
  /// weights that do not fit the model, else (first failure wins, in item
  /// order) if any item fails.
  BatchReport ExecuteBatch(const Model& model, const AccelConfig& cfg,
                           const std::vector<LayerMapping>& mapping,
                           const ModelWeightsQ& weights,
                           std::span<const Tensor<std::int16_t>> inputs,
                           bool functional = true,
                           const QuantConfig* quant = nullptr);

  // Program-cache observability.
  std::int64_t cache_hits() const;
  std::int64_t cache_misses() const;
  std::size_t cache_size() const;

  /// Shared per-config Runtime pool (the serving layer drains its batches
  /// through the same pool, so engine batches and served requests reuse one
  /// set of simulator arenas).
  RuntimePool& runtime_pool() { return rt_pool_; }

 private:
  struct CacheKey {
    std::uint64_t structural_hash = 0;
    /// QuantConfig::Fingerprint() of the deployment's scales (0 = legacy
    /// hand-assigned point). Same structure at a different precision point
    /// compiles to different QUAN_PARAM fields, so it must key separately.
    std::uint64_t quant_fingerprint = 0;
    AccelConfig cfg;
    friend bool operator==(const CacheKey&, const CacheKey&) = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& key) const;
  };

  FpgaSpec spec_;
  ThreadPool pool_;
  /// Per-config Runtime pool: ExecuteBatch checks out one Runtime per
  /// participating worker for the duration of the batch, so concurrent
  /// batches (and the serving layer) never contend on a shared array.
  RuntimePool rt_pool_;

  mutable std::mutex cache_mu_;
  std::unordered_map<CacheKey, std::shared_ptr<const CompiledModel>,
                     CacheKeyHash>
      cache_;
  std::int64_t cache_hits_ = 0;
  std::int64_t cache_misses_ = 0;
};

}  // namespace hdnn

#endif  // HDNN_RUNTIME_ENGINE_H_
