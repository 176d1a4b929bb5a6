// Dense row-major tensor.
//
// Feature maps are CHW (channels, height, width); convolution kernels are
// KCRS (out-channels, in-channels, kernel rows, kernel cols); batch is
// handled one image at a time, as the accelerator does.
#ifndef HDNN_TENSOR_TENSOR_H_
#define HDNN_TENSOR_TENSOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/prng.h"
#include "tensor/shape.h"

namespace hdnn {

template <typename T>
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        data_(static_cast<std::size_t>(shape_.elements()), T{}) {}
  Tensor(Shape shape, T fill)
      : shape_(std::move(shape)),
        data_(static_cast<std::size_t>(shape_.elements()), fill) {}
  Tensor(Shape shape, std::vector<T> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    HDNN_CHECK(static_cast<std::int64_t>(data_.size()) == shape_.elements())
        << "data size " << data_.size() << " vs shape " << shape_.ToString();
  }

  const Shape& shape() const { return shape_; }
  std::int64_t elements() const { return shape_.elements(); }

  /// True for a default-constructed (rank-0) or zero-sized tensor — the
  /// convention for "absent" optional tensors such as biases.
  bool empty() const { return shape_.rank() == 0 || shape_.elements() == 0; }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::vector<T>& storage() { return data_; }
  const std::vector<T>& storage() const { return data_; }

  T& flat(std::int64_t i) {
    HDNN_CHECK(i >= 0 && i < elements()) << "flat index " << i;
    return data_[static_cast<std::size_t>(i)];
  }
  const T& flat(std::int64_t i) const {
    HDNN_CHECK(i >= 0 && i < elements()) << "flat index " << i;
    return data_[static_cast<std::size_t>(i)];
  }

  /// 3-D accessor for CHW feature maps.
  T& at(std::int64_t c, std::int64_t h, std::int64_t w) {
    return data_[static_cast<std::size_t>(Index3(c, h, w))];
  }
  const T& at(std::int64_t c, std::int64_t h, std::int64_t w) const {
    return data_[static_cast<std::size_t>(Index3(c, h, w))];
  }

  /// 4-D accessor for KCRS kernels.
  T& at(std::int64_t k, std::int64_t c, std::int64_t r, std::int64_t s) {
    return data_[static_cast<std::size_t>(Index4(k, c, r, s))];
  }
  const T& at(std::int64_t k, std::int64_t c, std::int64_t r,
              std::int64_t s) const {
    return data_[static_cast<std::size_t>(Index4(k, c, r, s))];
  }

  /// 2-D accessor for matrices.
  T& at(std::int64_t r, std::int64_t c) {
    return data_[static_cast<std::size_t>(Index2(r, c))];
  }
  const T& at(std::int64_t r, std::int64_t c) const {
    return data_[static_cast<std::size_t>(Index2(r, c))];
  }

  /// Reads a CHW element treating out-of-bounds H/W as zero padding.
  T PaddedAt(std::int64_t c, std::int64_t h, std::int64_t w) const {
    HDNN_CHECK(shape_.rank() == 3) << "PaddedAt requires CHW";
    if (h < 0 || w < 0 || h >= shape_.dim(1) || w >= shape_.dim(2)) return T{};
    return at(c, h, w);
  }

  void Fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  /// Fills with deterministic pseudo-random integers in [lo, hi].
  void FillRandomInt(Prng& prng, std::int64_t lo, std::int64_t hi) {
    for (auto& v : data_) v = static_cast<T>(prng.NextInt(lo, hi));
  }

  /// Fills with deterministic pseudo-random reals in [lo, hi).
  void FillRandomReal(Prng& prng, double lo, double hi) {
    for (auto& v : data_) v = static_cast<T>(prng.NextDouble(lo, hi));
  }

  friend bool operator==(const Tensor&, const Tensor&) = default;

 private:
  // Row-major flat index computed inline (Horner form): the accessors sit
  // in the weight packer's and the golden references' inner loops, so they
  // must not build a coordinate vector per element. The rank and per-dim
  // bounds checks are the same as Shape::FlatIndex's.
  std::int64_t Index2(std::int64_t r, std::int64_t c) const {
    HDNN_CHECK(shape_.rank() == 2) << "rank-2 access on " << shape_.ToString();
    return Coord(0, r) * shape_.dims()[1] + Coord(1, c);
  }
  std::int64_t Index3(std::int64_t c, std::int64_t h, std::int64_t w) const {
    HDNN_CHECK(shape_.rank() == 3) << "rank-3 access on " << shape_.ToString();
    const auto& d = shape_.dims();
    return (Coord(0, c) * d[1] + Coord(1, h)) * d[2] + Coord(2, w);
  }
  std::int64_t Index4(std::int64_t k, std::int64_t c, std::int64_t r,
                      std::int64_t s) const {
    HDNN_CHECK(shape_.rank() == 4) << "rank-4 access on " << shape_.ToString();
    const auto& d = shape_.dims();
    return ((Coord(0, k) * d[1] + Coord(1, c)) * d[2] + Coord(2, r)) * d[3] +
           Coord(3, s);
  }
  /// Bounds-checks coordinate `v` of dim `i` (rank already checked).
  std::int64_t Coord(std::size_t i, std::int64_t v) const {
    HDNN_CHECK(v >= 0 && v < shape_.dims()[i])
        << "coordinate " << v << " out of bounds for dim " << i << " of "
        << shape_.ToString();
    return v;
  }

  Shape shape_;
  std::vector<T> data_;
};

/// Largest absolute elementwise difference between two same-shape tensors.
template <typename T>
double MaxAbsDiff(const Tensor<T>& a, const Tensor<T>& b) {
  HDNN_CHECK(a.shape() == b.shape())
      << a.shape().ToString() << " vs " << b.shape().ToString();
  double m = 0;
  for (std::int64_t i = 0; i < a.elements(); ++i) {
    const double d = std::abs(static_cast<double>(a.flat(i)) -
                              static_cast<double>(b.flat(i)));
    m = std::max(m, d);
  }
  return m;
}

}  // namespace hdnn

#endif  // HDNN_TENSOR_TENSOR_H_
