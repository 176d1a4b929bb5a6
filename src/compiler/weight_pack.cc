#include "compiler/weight_pack.h"

#include <algorithm>
#include <array>
#include <span>

#include "common/check.h"
#include "common/math_util.h"
#include "common/prng.h"
#include "estimator/latency_cache.h"
#include "winograd/decompose.h"
#include "winograd/matrices.h"
#include "winograd/transform.h"

namespace hdnn {
namespace {

int PaddedK(const ConvLayer& layer, const AccelConfig& cfg) {
  return static_cast<int>(
      RoundUp<std::int64_t>(layer.out_channels, cfg.po));
}

}  // namespace

std::int64_t ForEachWeightBlock(
    const LayerPlan& plan, const ConvLayer& layer, const AccelConfig& cfg,
    const std::function<void(const WeightBlock&)>& fn) {
  const GroupCounts& g = plan.groups;
  const bool wino = plan.mapping.mode == ConvMode::kWinograd;
  const std::int64_t kk = wino ? static_cast<std::int64_t>(cfg.pt) * cfg.pt
                               : static_cast<std::int64_t>(layer.kernel_h) *
                                     layer.kernel_w;
  const int K = layer.out_channels;
  const int C = plan.in_shape.channels;
  std::int64_t offset = 0;
  for (int kg = 0; kg < g.gk; ++kg) {
    const int k0 = kg * g.k_per_group;
    const int k_count = std::min(g.k_per_group, K - k0);
    for (int cb = 0; cb < g.cb; ++cb) {
      const int c0 = cb * g.c_per_block;
      const int c_count = std::min(g.c_per_block, C - c0);
      for (int slice = 0; slice < g.slices; ++slice) {
        WeightBlock block;
        block.kg = kg;
        block.cb = cb;
        block.slice = slice;
        block.k0 = k0;
        block.k_count = k_count;
        block.c0 = c0;
        block.c_count = c_count;
        block.base_words = offset;
        block.block_words = CeilDiv<std::int64_t>(k_count, cfg.po) *
                            CeilDiv<std::int64_t>(c_count, cfg.pi) * kk *
                            cfg.pi * cfg.po;
        if (fn) fn(block);
        offset += block.block_words;
      }
    }
  }
  return offset;
}

std::int64_t WeightImageWords(const LayerPlan& plan, const ConvLayer& layer,
                              const AccelConfig& cfg) {
  return ForEachWeightBlock(plan, layer, cfg, nullptr);
}

std::int64_t BiasImageWords(const ConvLayer& layer, const AccelConfig& cfg) {
  return 2LL * PaddedK(layer, cfg);
}

void ValidateModelWeights(const Model& model, const ModelWeightsQ& weights) {
  HDNN_CHECK(static_cast<int>(weights.size()) == model.num_layers())
      << "weights for " << weights.size() << " layers, model has "
      << model.num_layers();
  for (int li = 0; li < model.num_layers(); ++li) {
    const ConvLayer& layer = model.layer(li);
    const LayerWeightsQ& lw = weights[static_cast<std::size_t>(li)];
    HDNN_CHECK(lw.weights.shape() == Shape({layer.out_channels,
                                            layer.in_channels, layer.kernel_h,
                                            layer.kernel_w}))
        << layer.name << ": weight shape " << lw.weights.shape().ToString();
    HDNN_CHECK(lw.bias.empty() || lw.bias.elements() == layer.out_channels)
        << layer.name << ": bias of " << lw.bias.elements() << " values for "
        << layer.out_channels << " output channels";
  }
}

namespace {

/// The part [addr, addr + words) of the parameter region, range-checked
/// like a DRAM run (a hand-built plan must not write outside the region).
std::span<std::int16_t> RegionRun(std::span<std::int16_t> region,
                                  std::int64_t addr, std::int64_t words) {
  HDNN_CHECK(words >= 0 && addr >= 0 &&
             addr + words <= static_cast<std::int64_t>(region.size()))
      << "parameter run [" << addr << ", " << addr + words
      << ") outside the " << region.size() << "-word weight region";
  return region.subspan(static_cast<std::size_t>(addr),
                        static_cast<std::size_t>(words));
}

/// The one weight packer: fills `region`, the contiguous weight + bias
/// region [0, cm.fmap_base) of the DRAM map, with every layer's images.
/// Allocates per layer only (the Winograd slice decomposition and one
/// PO x PI tile cache), never per tile or per element.
void PackWeightRegion(const CompiledModel& cm, const Model& model,
                      const ModelWeightsQ& weights,
                      std::span<std::int16_t> region) {
  ValidateModelWeights(model, weights);
  const AccelConfig& cfg = cm.cfg;
  const int pt = cfg.pt;
  for (int li = 0; li < model.num_layers(); ++li) {
    const ConvLayer& layer = model.layer(li);
    const LayerPlan& plan = cm.plans[static_cast<std::size_t>(li)];
    const LayerWeightsQ& lw = weights[static_cast<std::size_t>(li)];
    const int K = layer.out_channels;
    const int C_real = layer.in_channels;  // flattened for FC
    const bool wino = plan.mapping.mode == ConvMode::kWinograd;
    const std::int64_t kk =
        wino ? static_cast<std::int64_t>(pt) * pt
             : static_cast<std::int64_t>(layer.kernel_h) * layer.kernel_w;

    // Winograd layers: 3x3 slices of the kernel, and per (kv, cv) channel
    // block the PO x PI transformed (U) tiles, [co][ci][kk] int16 (zero
    // for padding channels).
    std::vector<KernelSlice<std::int8_t>> slices;
    std::vector<std::int16_t> tiles;
    if (wino) {
      slices = DecomposeKernel(lw.weights);
      tiles.resize(static_cast<std::size_t>(cfg.po * cfg.pi * kk));
    }
    std::array<std::int8_t, 9> g33{};

    ForEachWeightBlock(plan, layer, cfg, [&](const WeightBlock& block) {
      const std::int64_t kv_n = CeilDiv<std::int64_t>(block.k_count, cfg.po);
      const std::int64_t cv_n = CeilDiv<std::int64_t>(block.c_count, cfg.pi);
      // The loop below must emit exactly the run it reserves — a drift
      // between this count and ForEachWeightBlock's block_words formula
      // would otherwise become an unchecked out-of-span write.
      HDNN_CHECK(kv_n * cv_n * kk * cfg.po * cfg.pi == block.block_words)
          << layer.name << ": weight block geometry disagrees with its "
          << "reserved run (" << block.block_words << " words)";
      const auto dst = RegionRun(region, plan.wgt_dram_base + block.base_words,
                                 block.block_words);
      const KernelSlice<std::int8_t>* slice =
          wino ? &slices[static_cast<std::size_t>(block.slice)] : nullptr;
      std::size_t idx = 0;
      // Linear order must match the sim's weight-slab contract:
      // (((kv*cv_n + cv)*kk + rc)*PO + co)*PI + ci.
      for (std::int64_t kv = 0; kv < kv_n; ++kv) {
        for (std::int64_t cv = 0; cv < cv_n; ++cv) {
          const int k_base = block.k0 + static_cast<int>(kv) * cfg.po;
          const int c_base = block.c0 + static_cast<int>(cv) * cfg.pi;
          if (wino) {
            for (int co = 0; co < cfg.po; ++co) {
              for (int ci = 0; ci < cfg.pi; ++ci) {
                const int k = k_base + co;
                const int c = c_base + ci;
                const std::span<std::int16_t> tile(
                    tiles.data() + (co * cfg.pi + ci) * kk,
                    static_cast<std::size_t>(kk));
                if (k >= K || c >= C_real) {
                  std::fill(tile.begin(), tile.end(), 0);
                  continue;
                }
                for (int r = 0; r < 3; ++r) {
                  for (int s = 0; s < 3; ++s) {
                    g33[static_cast<std::size_t>(r * 3 + s)] =
                        slice->kernel.at(k, c, r, s);
                  }
                }
                TransformKernelQInto(g33, pt, plan.u_shift, tile);
              }
            }
          }
          for (std::int64_t rc = 0; rc < kk; ++rc) {
            for (int co = 0; co < cfg.po; ++co) {
              for (int ci = 0; ci < cfg.pi; ++ci) {
                const int k = k_base + co;
                const int c = c_base + ci;
                std::int16_t value = 0;
                if (wino) {
                  value = tiles[static_cast<std::size_t>(
                      (co * cfg.pi + ci) * kk + rc)];
                } else if (k < K && c < C_real) {
                  value = lw.weights.at(k, c, rc / layer.kernel_w,
                                        rc % layer.kernel_w);
                }
                dst[idx++] = value;
              }
            }
          }
        }
      }
    });

    // Bias image: padded K int32 values (little-endian word pairs, one
    // contiguous run), pre-shifted for Winograd layers.
    const int kp = PaddedK(layer, cfg);
    const auto bias_dst = RegionRun(region, plan.bias_dram_base, 2LL * kp);
    for (int k = 0; k < kp; ++k) {
      std::int64_t b = 0;
      if (k < K && !lw.bias.empty()) b = lw.bias.flat(k);
      if (wino) b <<= plan.u_shift;
      const std::uint32_t u =
          static_cast<std::uint32_t>(static_cast<std::int32_t>(b));
      bias_dst[static_cast<std::size_t>(2 * k)] =
          static_cast<std::int16_t>(u & 0xffff);
      bias_dst[static_cast<std::size_t>(2 * k + 1)] =
          static_cast<std::int16_t>(u >> 16);
    }
  }
}

/// Digest of everything in `cm` that places or shapes the packed words
/// (what PackWeightRegion reads from the program).
std::uint64_t ParameterLayoutDigest(const CompiledModel& cm) {
  std::uint64_t h = 0;
  const auto mix = [&h](std::int64_t v) {
    h = HashCombine(h, static_cast<std::uint64_t>(v));
  };
  mix(cm.cfg.pi);
  mix(cm.cfg.po);
  mix(cm.cfg.pt);
  mix(cm.fmap_base);
  mix(static_cast<std::int64_t>(cm.plans.size()));
  for (const LayerPlan& plan : cm.plans) {
    mix(static_cast<std::int64_t>(plan.mapping.mode));
    mix(plan.groups.gk);
    mix(plan.groups.k_per_group);
    mix(plan.groups.cb);
    mix(plan.groups.c_per_block);
    mix(plan.groups.slices);
    mix(plan.in_shape.channels);
    mix(plan.conv_out.channels);
    mix(plan.u_shift);
    mix(plan.wgt_dram_base);
    mix(plan.wgt_dram_words);
    mix(plan.bias_dram_base);
  }
  return h;
}

}  // namespace

void WriteWeightImages(const CompiledModel& cm, const Model& model,
                       const ModelWeightsQ& weights, DramModel& dram) {
  // The whole parameter region is one validated transaction, packed in
  // place: no staging copy, and the same words_written as the per-block
  // runs it replaces, since the blocks and biases tile [0, fmap_base).
  PackWeightRegion(cm, model, weights, dram.WriteRun(0, cm.fmap_base));
}

WeightImage::WeightImage(const CompiledModel& cm, const Model& model,
                         const ModelWeightsQ& weights)
    : words_(static_cast<std::size_t>(cm.fmap_base)),
      layout_digest_(ParameterLayoutDigest(cm)) {
  PackWeightRegion(cm, model, weights, words_);
}

bool WeightImage::PackedFor(const CompiledModel& cm) const {
  return static_cast<std::int64_t>(words_.size()) == cm.fmap_base &&
         layout_digest_ == ParameterLayoutDigest(cm);
}

ModelWeightsQ SyntheticWeights(const Model& model, std::uint64_t seed) {
  Prng prng(seed);
  ModelWeightsQ out;
  for (int i = 0; i < model.num_layers(); ++i) {
    const ConvLayer& layer = model.layer(i);
    LayerWeightsQ lw{
        Tensor<std::int8_t>(Shape{layer.out_channels, layer.in_channels,
                                  layer.kernel_h, layer.kernel_w}),
        Tensor<std::int32_t>(Shape{layer.out_channels})};
    // Small weights keep deep-network activations in the int12 range
    // without per-layer scale tuning.
    lw.weights.FillRandomInt(prng, -16, 16);
    lw.bias.FillRandomInt(prng, -64, 64);
    out.push_back(std::move(lw));
  }
  return out;
}

}  // namespace hdnn
