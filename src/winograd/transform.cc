#include "winograd/transform.h"

#include <cmath>

#include "common/check.h"
#include "common/fixed_point.h"

namespace hdnn {
namespace {

// out[rows x cols] = mat[rows x inner] * tile[inner x cols], generic over
// the small fixed sizes involved (pt <= 6).
template <typename M, typename T, typename Acc>
std::vector<Acc> MatTile(std::span<const M> mat, std::span<const T> tile,
                         int rows, int inner, int cols) {
  std::vector<Acc> out(static_cast<std::size_t>(rows) * cols, Acc{});
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      Acc acc{};
      for (int k = 0; k < inner; ++k) {
        acc += static_cast<Acc>(mat[static_cast<std::size_t>(i * inner + k)]) *
               static_cast<Acc>(tile[static_cast<std::size_t>(k * cols + j)]);
      }
      out[static_cast<std::size_t>(i * cols + j)] = acc;
    }
  }
  return out;
}

// out[rows x cols] = tile[rows x inner] * matT[cols x inner]^T, i.e. right-
// multiplication by the transpose of a row-major matrix.
template <typename M, typename T, typename Acc>
std::vector<Acc> TileMatT(std::span<const T> tile, std::span<const M> matT,
                          int rows, int inner, int cols) {
  std::vector<Acc> out(static_cast<std::size_t>(rows) * cols, Acc{});
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      Acc acc{};
      for (int k = 0; k < inner; ++k) {
        acc += static_cast<Acc>(tile[static_cast<std::size_t>(i * inner + k)]) *
               static_cast<Acc>(matT[static_cast<std::size_t>(j * inner + k)]);
      }
      out[static_cast<std::size_t>(i * cols + j)] = acc;
    }
  }
  return out;
}

// Allocation-free input transform with compile-time PT, so the small fixed
// loops fully unroll (PT is 4 or 6 only).
template <int PT>
void TransformInputTileIntoT(std::span<const std::int32_t> d,
                             std::span<std::int32_t> out,
                             std::span<std::int64_t> tmp) {
  const auto bt = WinoBT(PT);
  // tmp = BT d.
  for (int i = 0; i < PT; ++i) {
    for (int j = 0; j < PT; ++j) {
      std::int64_t acc = 0;
      for (int k = 0; k < PT; ++k) {
        acc += static_cast<std::int64_t>(
                   bt[static_cast<std::size_t>(i * PT + k)]) *
               static_cast<std::int64_t>(
                   d[static_cast<std::size_t>(k * PT + j)]);
      }
      tmp[static_cast<std::size_t>(i * PT + j)] = acc;
    }
  }
  // out = tmp B = tmp BT^T, narrowing with overflow check.
  for (int i = 0; i < PT; ++i) {
    for (int j = 0; j < PT; ++j) {
      std::int64_t acc = 0;
      for (int k = 0; k < PT; ++k) {
        acc += tmp[static_cast<std::size_t>(i * PT + k)] *
               static_cast<std::int64_t>(
                   bt[static_cast<std::size_t>(j * PT + k)]);
      }
      HDNN_INTERNAL(acc >= INT32_MIN && acc <= INT32_MAX)
          << "input transform overflow";
      out[static_cast<std::size_t>(i * PT + j)] =
          static_cast<std::int32_t>(acc);
    }
  }
}

// Allocation-free output transform with compile-time PT (M = PT - 2).
template <int PT>
void TransformOutputTileIntoT(std::span<const std::int64_t> m_tile,
                              std::span<std::int64_t> out,
                              std::span<std::int64_t> tmp) {
  constexpr int M = PT - WinoParam::kR + 1;
  const auto at = WinoAT(PT);
  // tmp = AT M.
  for (int i = 0; i < M; ++i) {
    for (int j = 0; j < PT; ++j) {
      std::int64_t acc = 0;
      for (int k = 0; k < PT; ++k) {
        acc += static_cast<std::int64_t>(
                   at[static_cast<std::size_t>(i * PT + k)]) *
               m_tile[static_cast<std::size_t>(k * PT + j)];
      }
      tmp[static_cast<std::size_t>(i * PT + j)] = acc;
    }
  }
  // out = tmp A = tmp AT^T.
  for (int i = 0; i < M; ++i) {
    for (int j = 0; j < M; ++j) {
      std::int64_t acc = 0;
      for (int k = 0; k < PT; ++k) {
        acc += tmp[static_cast<std::size_t>(i * PT + k)] *
               static_cast<std::int64_t>(
                   at[static_cast<std::size_t>(j * PT + k)]);
      }
      out[static_cast<std::size_t>(i * M + j)] = acc;
    }
  }
}

// Largest pt*pt tile (PT is 4 or 6).
constexpr int kMaxTile = 36;

// U = G g GT into `u` (pt*pt doubles, row-major) with stack temporaries. The
// accumulation order (G g first, then (G g) GT, k ascending, as MatTile and
// TileMatT sum) fixes the rounded U that the captured vectors pin.
template <typename T>
void TransformKernelInto(std::span<const T> g, int pt, double* u) {
  const auto gm = WinoG(pt);  // pt x 3, rejects PT outside {4, 6}
  constexpr int r = WinoParam::kR;
  double gg[kMaxTile];  // G g: pt x 3
  for (int i = 0; i < pt; ++i) {
    for (int j = 0; j < r; ++j) {
      double acc{};
      for (int k = 0; k < r; ++k) {
        acc += gm[static_cast<std::size_t>(i * r + k)] *
               static_cast<double>(g[static_cast<std::size_t>(k * r + j)]);
      }
      gg[i * r + j] = acc;
    }
  }
  for (int i = 0; i < pt; ++i) {  // (G g) GT: pt x pt
    for (int j = 0; j < pt; ++j) {
      double acc{};
      for (int k = 0; k < r; ++k) {
        acc += gg[i * r + k] * gm[static_cast<std::size_t>(j * r + k)];
      }
      u[i * pt + j] = acc;
    }
  }
}

}  // namespace

std::vector<std::int32_t> TransformInputTile(std::span<const std::int32_t> d,
                                             int pt) {
  std::vector<std::int32_t> out(static_cast<std::size_t>(pt * pt));
  std::vector<std::int64_t> tmp(static_cast<std::size_t>(pt * pt));
  TransformInputTileInto(d, pt, out, tmp);
  return out;
}

void TransformInputTileInto(std::span<const std::int32_t> d, int pt,
                            std::span<std::int32_t> out,
                            std::span<std::int64_t> tmp) {
  HDNN_CHECK(static_cast<int>(d.size()) == pt * pt)
      << "input tile size " << d.size() << " != " << pt * pt;
  HDNN_CHECK(static_cast<int>(out.size()) >= pt * pt &&
             static_cast<int>(tmp.size()) >= pt * pt)
      << "input transform scratch too small";
  // V = BT d B == (BT d) B; B == BT^T so right-multiplying by B is a product
  // against BT's rows (WinoBT rejects PT outside {4, 6}).
  if (pt == 4) {
    TransformInputTileIntoT<4>(d, out, tmp);
  } else {
    TransformInputTileIntoT<6>(d, out, tmp);
  }
}

std::vector<double> TransformInputTileF(std::span<const double> d, int pt) {
  HDNN_CHECK(static_cast<int>(d.size()) == pt * pt) << "bad input tile";
  const auto bt = WinoBT(pt);
  const auto btd = MatTile<int, double, double>(bt, d, pt, pt, pt);
  return TileMatT<int, double, double>(btd, bt, pt, pt, pt);
}

std::vector<double> TransformKernelF(std::span<const double> g, int pt) {
  HDNN_CHECK(g.size() == 9) << "kernel tile must be 3x3";
  std::vector<double> u(static_cast<std::size_t>(pt * pt));
  TransformKernelInto(g, pt, u.data());
  return u;
}

std::vector<std::int16_t> TransformKernelQ(std::span<const std::int8_t> g,
                                           int pt, int u_shift) {
  std::vector<std::int16_t> out(static_cast<std::size_t>(pt * pt));
  TransformKernelQInto(g, pt, u_shift, out);
  return out;
}

void TransformKernelQInto(std::span<const std::int8_t> g, int pt,
                          int u_shift, std::span<std::int16_t> out) {
  HDNN_CHECK(g.size() == 9) << "kernel tile must be 3x3";
  HDNN_CHECK(u_shift >= 0 && u_shift <= 10) << "u_shift=" << u_shift;
  HDNN_CHECK(static_cast<int>(out.size()) >= pt * pt)
      << "kernel transform output too small";
  double u[kMaxTile];
  TransformKernelInto(g, pt, u);
  const double scale = static_cast<double>(std::int64_t{1} << u_shift);
  for (int i = 0; i < pt * pt; ++i) {
    const double scaled = u[i] * scale;
    const double rounded =
        scaled >= 0 ? std::floor(scaled + 0.5) : std::ceil(scaled - 0.5);
    out[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(
        SaturateSigned(static_cast<std::int64_t>(rounded), 16));
  }
}

std::vector<std::int64_t> TransformOutputTile(
    std::span<const std::int64_t> m_tile, int pt) {
  const int m = WinoParamForPt(pt).m;
  std::vector<std::int64_t> out(static_cast<std::size_t>(m * m));
  std::vector<std::int64_t> tmp(static_cast<std::size_t>(m * pt));
  TransformOutputTileInto(m_tile, pt, out, tmp);
  return out;
}

void TransformOutputTileInto(std::span<const std::int64_t> m_tile, int pt,
                             std::span<std::int64_t> out,
                             std::span<std::int64_t> tmp) {
  HDNN_CHECK(static_cast<int>(m_tile.size()) == pt * pt) << "bad M tile";
  const int m = WinoParamForPt(pt).m;
  HDNN_CHECK(static_cast<int>(out.size()) >= m * m &&
             static_cast<int>(tmp.size()) >= m * pt)
      << "output transform scratch too small";
  // Y = AT M A == (AT M) A with A == AT^T.
  if (pt == 4) {
    TransformOutputTileIntoT<4>(m_tile, out, tmp);
  } else {
    TransformOutputTileIntoT<6>(m_tile, out, tmp);
  }
}

std::vector<double> TransformOutputTileF(std::span<const double> m_tile,
                                         int pt) {
  HDNN_CHECK(static_cast<int>(m_tile.size()) == pt * pt) << "bad M tile";
  const auto at = WinoAT(pt);
  const int m = WinoParamForPt(pt).m;
  const auto atm = MatTile<int, double, double>(at, m_tile, m, pt, pt);
  return TileMatT<int, double, double>(atm, at, m, pt, m);
}

std::int64_t InputTransformGrowth(int pt) {
  const auto bt = WinoBT(pt);
  std::int64_t max_row_sum = 0;
  for (int i = 0; i < pt; ++i) {
    std::int64_t sum = 0;
    for (int j = 0; j < pt; ++j) {
      sum += std::abs(bt[static_cast<std::size_t>(i * pt + j)]);
    }
    max_row_sum = std::max(max_row_sum, sum);
  }
  return max_row_sum * max_row_sum;  // applied on both sides
}

}  // namespace hdnn
