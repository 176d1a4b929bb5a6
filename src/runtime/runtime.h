// Host runtime (paper Fig. 1 Step 4): prepares the DRAM image (weights,
// biases, input feature map), manages execution of the compiled instruction
// stream on the accelerator (simulator), and collects outputs and
// performance counters.
#ifndef HDNN_RUNTIME_RUNTIME_H_
#define HDNN_RUNTIME_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "compiler/compiler.h"
#include "compiler/weight_pack.h"
#include "mem/dram_model.h"
#include "nn/model.h"
#include "sim/accelerator.h"

namespace hdnn {

/// Execution report for one inference.
struct RunReport {
  SimStats stats;
  double seconds = 0;
  double gops = 0;            ///< model ops / time, one instance
  double effective_gops = 0;  ///< x NI instances (throughput, paper Table 4)
  std::vector<double> layer_cycles;          ///< per-layer latency
  Tensor<std::int16_t> output;               ///< final fmap (functional runs)
  /// CRC32 of the output SAVE slab verified at collection (functional runs
  /// with integrity checking enabled; see Runtime::set_integrity_check).
  std::uint32_t output_crc32 = 0;
  bool integrity_checked = false;
};

class Runtime {
 public:
  Runtime(const AccelConfig& cfg, const FpgaSpec& spec);

  /// Runs one inference. `input` is the (real-channel) CHW input fmap in the
  /// quantised feature domain. When `functional` is false, data preparation
  /// and arithmetic are skipped and only timing is produced.
  RunReport Execute(const Model& model, const CompiledModel& cm,
                    const ModelWeightsQ& weights,
                    const Tensor<std::int16_t>& input, bool functional = true);

  /// Same functional run, with the parameters restored from a prebuilt
  /// WeightImage of this `cm` by one bulk DRAM write instead of packing.
  /// Outputs, SimStats and DRAM word counts are identical to the `weights`
  /// overload (DESIGN.md Sec. 13). Throws InvalidArgument when the image
  /// was packed for another parameter layout (WeightImage::PackedFor).
  /// Timing-only runs read no weights: use the `weights` overload.
  RunReport Execute(const Model& model, const CompiledModel& cm,
                    const WeightImage& image,
                    const Tensor<std::int16_t>& input);

  /// Integrity tagging (DESIGN.md Sec. 12): when enabled, a functional
  /// Execute computes a CRC32 over the final fmap SAVE slab the instant the
  /// accelerator run completes (modeling the device tagging the slab as it
  /// streams out) and re-verifies it after collection reads the slab back.
  /// A mismatch — DRAM corruption in the at-rest window between SAVE and
  /// collection — throws IntegrityError instead of serving the corrupted
  /// fmap. Off by default: a disabled check is bit- and stats-identical to
  /// the pre-tag runtime (the tag reads use ViewRun, which takes no stats).
  void set_integrity_check(bool on) { integrity_check_ = on; }
  bool integrity_check() const { return integrity_check_; }

  DramModel* dram() { return dram_.get(); }

 private:
  /// Shared body of both Execute overloads: a functional run stages the
  /// parameter region from `image` when non-null, else packs `weights`.
  RunReport Run(const Model& model, const CompiledModel& cm,
                const ModelWeightsQ* weights, const WeightImage* image,
                const Tensor<std::int16_t>& input, bool functional);

  AccelConfig cfg_;
  FpgaSpec spec_;
  bool integrity_check_ = false;
  /// Persistent per-Runtime arenas: the DRAM image is Reset (storage
  /// reused) and the Accelerator's buffers and COMP scratch survive across
  /// Execute calls, so steady-state serving performs no per-inference
  /// reallocation of the simulator state. `accel_` holds a reference to
  /// `*dram_`, whose object identity is stable after first construction.
  std::unique_ptr<DramModel> dram_;
  std::unique_ptr<Accelerator> accel_;
};

/// Stores a CHW fmap into a layer's DRAM region with channel padding, in the
/// given layout (host-side input staging).
void StageInputFmap(DramModel& dram, std::int64_t base, ConvMode layout,
                    const Tensor<std::int16_t>& fmap, int padded_channels);

/// Reads the final output fmap back (cropping channel padding).
Tensor<std::int16_t> CollectOutputFmap(const DramModel& dram,
                                       std::int64_t base, ConvMode layout,
                                       const FmapShape& shape,
                                       int padded_channels);

}  // namespace hdnn

#endif  // HDNN_RUNTIME_RUNTIME_H_
