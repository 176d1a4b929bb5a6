// Offline weight preparation (paper Sec. 4.2.3: "Regarding DNN parameters
// for Winograd, we perform an offline transformation from pretrained DNN
// models"): quantisation, Winograd kernel transform, decomposition into 3x3
// slices, and packing into the DRAM image in the exact linear order the
// LOAD_WGT module streams (see sim/accelerator.h slab contract).
#ifndef HDNN_COMPILER_WEIGHT_PACK_H_
#define HDNN_COMPILER_WEIGHT_PACK_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "compiler/compiler.h"
#include "mem/dram_model.h"
#include "tensor/tensor.h"

namespace hdnn {

/// Quantised parameters of one layer.
struct LayerWeightsQ {
  Tensor<std::int8_t> weights;  ///< K x C x R x S
  Tensor<std::int32_t> bias;    ///< K (may be empty)
};

using ModelWeightsQ = std::vector<LayerWeightsQ>;

/// One weight block = the unit one LOAD_WGT instruction moves.
struct WeightBlock {
  int kg = 0, cb = 0, slice = 0;
  int k0 = 0, k_count = 0;  ///< output-channel range
  int c0 = 0, c_count = 0;  ///< input-channel range
  std::int64_t base_words = 0;   ///< offset within the layer's weight image
  std::int64_t block_words = 0;
};

/// Enumerates the blocks of one layer in canonical (kg, cb, slice) order —
/// the order the codegen assumes. Returns total image words.
std::int64_t ForEachWeightBlock(
    const LayerPlan& plan, const ConvLayer& layer, const AccelConfig& cfg,
    const std::function<void(const WeightBlock&)>& fn);

/// Words needed for a layer's weight image.
std::int64_t WeightImageWords(const LayerPlan& plan, const ConvLayer& layer,
                              const AccelConfig& cfg);

/// Words needed for a layer's bias image (2 words per padded K).
std::int64_t BiasImageWords(const ConvLayer& layer, const AccelConfig& cfg);

/// Checks `weights` against `model`: one entry per layer, each a K x C x
/// R x S kernel of the layer's geometry with an empty or K-long bias.
/// Throws InvalidArgument on the first mismatch.
void ValidateModelWeights(const Model& model, const ModelWeightsQ& weights);

/// Writes the weight + bias images of all layers into DRAM at the bases
/// recorded in the compiled model. Winograd layers get transformed (U) and
/// quantised kernels; biases of Winograd layers are pre-shifted by u_shift.
/// The images tile [0, cm.fmap_base), which is written as one DRAM run.
void WriteWeightImages(const CompiledModel& cm, const Model& model,
                       const ModelWeightsQ& weights, DramModel& dram);

/// A deployment's packed parameter region: exactly the words
/// WriteWeightImages writes to DRAM [0, cm.fmap_base), built once so that
/// repeated inferences restore it with one bulk copy instead of re-packing
/// (Runtime::Execute's WeightImage overload). Immutable after construction,
/// so one image may be read by any number of threads.
class WeightImage {
 public:
  WeightImage(const CompiledModel& cm, const Model& model,
              const ModelWeightsQ& weights);

  std::span<const std::int16_t> words() const { return words_; }

  /// True when `cm` has the parameter layout this image was packed for:
  /// the same PE-array geometry and, per layer, the same mode, weight
  /// grouping, channel counts, transform shift and image bases (a copy of
  /// the program qualifies). The weight values themselves are not
  /// identified: pairing an image with the intended weights is the
  /// caller's contract.
  bool PackedFor(const CompiledModel& cm) const;

 private:
  std::vector<std::int16_t> words_;
  std::uint64_t layout_digest_ = 0;
};

/// Deterministic synthetic quantised weights for experiments (paper
/// substitution: pretrained VGG16 -> seeded synthetic parameters).
ModelWeightsQ SyntheticWeights(const Model& model, std::uint64_t seed);

}  // namespace hdnn

#endif  // HDNN_COMPILER_WEIGHT_PACK_H_
