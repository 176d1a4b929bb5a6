// Tile-level Winograd transforms, in the same arithmetic the PE's load/save
// managers implement (paper Sec. 4.2.3): integer input transform BT d B,
// integer output transform AT M A, and the offline kernel transform
// U = G g GT with power-of-two quantisation.
#ifndef HDNN_WINOGRAD_TRANSFORM_H_
#define HDNN_WINOGRAD_TRANSFORM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "winograd/matrices.h"

namespace hdnn {

/// V = BT d B. d is a pt x pt row-major tile of feature values; the result
/// grows by at most the product of B's row absolute sums (bounded, fits
/// comfortably in int32 for 12-bit features).
std::vector<std::int32_t> TransformInputTile(std::span<const std::int32_t> d,
                                             int pt);

/// Allocation-free variant of TransformInputTile for hot loops: writes the
/// pt*pt result into `out`; `tmp` is pt*pt of int64 caller-provided scratch.
/// `out` and `tmp` may be reused across calls; `d` must not alias them.
void TransformInputTileInto(std::span<const std::int32_t> d, int pt,
                            std::span<std::int32_t> out,
                            std::span<std::int64_t> tmp);

/// Float variant for numeric analysis.
std::vector<double> TransformInputTileF(std::span<const double> d, int pt);

/// Offline kernel transform: U = G g GT (g is 3x3 row-major, real).
std::vector<double> TransformKernelF(std::span<const double> g, int pt);

/// Offline quantised kernel transform: round(U * 2^u_shift) saturated to
/// int16. For pt == 4 and u_shift >= 2 this is exact (G entries are
/// multiples of 1/2).
std::vector<std::int16_t> TransformKernelQ(std::span<const std::int8_t> g,
                                           int pt, int u_shift);

/// Allocation-free variant of TransformKernelQ for the weight packer:
/// writes the pt*pt result into `out` (bit-identical to TransformKernelQ).
void TransformKernelQInto(std::span<const std::int8_t> g, int pt,
                          int u_shift, std::span<std::int16_t> out);

/// Y = AT M A. M is the pt x pt EWMM accumulator tile; Y is m x m.
std::vector<std::int64_t> TransformOutputTile(std::span<const std::int64_t> m_tile,
                                              int pt);

/// Allocation-free variant of TransformOutputTile: writes the m*m result
/// into `out`; `tmp` is m*pt of int64 caller-provided scratch. `m_tile` must
/// not alias `out` or `tmp`.
void TransformOutputTileInto(std::span<const std::int64_t> m_tile, int pt,
                             std::span<std::int64_t> out,
                             std::span<std::int64_t> tmp);

/// Float variant.
std::vector<double> TransformOutputTileF(std::span<const double> m_tile,
                                         int pt);

/// Worst-case growth factor of the integer input transform (product of max
/// absolute row sums of BT applied twice); used to size PE datapaths.
std::int64_t InputTransformGrowth(int pt);

}  // namespace hdnn

#endif  // HDNN_WINOGRAD_TRANSFORM_H_
