#include "vitis/layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "img/score_kernels.h"

// The conv kernel has an SSE2 path only; AArch64 runs the scalar kernel.
#if defined(MSA_ENABLE_SIMD) && (defined(__SSE2__) || defined(_M_X64))
#define MSA_SIMD_SSE2 1
#include <emmintrin.h>
#endif

namespace msa::vitis {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
}

std::uint32_t get_u32(std::span<const std::uint8_t> blob, std::size_t& pos) {
  if (pos + 4 > blob.size()) throw std::invalid_argument("xmodel: truncated u32");
  const std::uint32_t v = static_cast<std::uint32_t>(blob[pos]) |
                          (static_cast<std::uint32_t>(blob[pos + 1]) << 8) |
                          (static_cast<std::uint32_t>(blob[pos + 2]) << 16) |
                          (static_cast<std::uint32_t>(blob[pos + 3]) << 24);
  pos += 4;
  return v;
}

/// Layer parameters as serialized: u32 count + int8 weights, then u32
/// count + little-endian int32 biases.
void put_params(std::vector<std::uint8_t>& out,
                const std::vector<std::int8_t>& weights,
                const std::vector<std::int32_t>& bias) {
  put_u32(out, static_cast<std::uint32_t>(weights.size()));
  const auto* w = reinterpret_cast<const std::uint8_t*>(weights.data());
  out.insert(out.end(), w, w + weights.size());
  put_u32(out, static_cast<std::uint32_t>(bias.size()));
  for (const std::int32_t b : bias) put_u32(out, static_cast<std::uint32_t>(b));
}

/// Inverse of put_params. Both counts are checked against the bytes left
/// BEFORE anything is sized: residue parsing must reject corrupted
/// counts, not ask the allocator for 16 GiB.
void get_params(std::span<const std::uint8_t> blob, std::size_t& pos,
                std::vector<std::int8_t>& weights,
                std::vector<std::int32_t>& bias) {
  const std::uint32_t n_w = get_u32(blob, pos);
  if (n_w > blob.size() - pos) {
    throw std::invalid_argument("xmodel: truncated weights");
  }
  weights.resize(n_w);
  if (n_w != 0) std::memcpy(weights.data(), blob.data() + pos, n_w);
  pos += n_w;
  const std::uint32_t n_b = get_u32(blob, pos);
  if (static_cast<std::uint64_t>(n_b) * 4 > blob.size() - pos) {
    throw std::invalid_argument("xmodel: truncated bias");
  }
  bias.resize(n_b);
  for (std::int32_t& b : bias) b = static_cast<std::int32_t>(get_u32(blob, pos));
}

/// a * b, throwing instead of wrapping when it does not fit in size_t.
std::size_t checked_mul(std::size_t a, std::size_t b) {
  if (a != 0 && b > std::numeric_limits<std::size_t>::max() / a) {
    throw std::invalid_argument("Conv2d: parameter size overflows");
  }
  return a * b;
}

std::int8_t requantize(std::int32_t acc, std::uint32_t shift) {
  const std::int32_t scaled = acc >> shift;
  return static_cast<std::int8_t>(std::clamp(scaled, -128, 127));
}

// Conv2d's GEMM pads every im2col row and packed weight row to a whole
// number of these int16 taps (two SSE2 registers), so the dot-product
// kernels need no tail loop. Padding taps are zero on both sides.
constexpr std::size_t kTapAlign = 16;

/// out[o] = row . weights[o] for o < n_rows, over `taps` int16 taps each
/// (weights row-major, `taps` apart). Sums wrap in uint32: every product
/// of two int8-range values fits in int16 x int16 -> int32, and wrapping
/// int32 addition gives the same bits in any order, so this kernel and
/// the SSE2 one agree exactly whatever the tap order or overflow.
void dot_rows_scalar(const std::int16_t* row, const std::int16_t* weights,
                     std::size_t taps, std::size_t n_rows,
                     std::int32_t* out) noexcept {
  for (std::size_t o = 0; o < n_rows; ++o) {
    const std::int16_t* w = weights + o * taps;
    std::uint32_t sum = 0;
    for (std::size_t t = 0; t < taps; ++t) {
      sum += static_cast<std::uint32_t>(std::int32_t{row[t]} * w[t]);
    }
    out[o] = static_cast<std::int32_t>(sum);
  }
}

#if defined(MSA_SIMD_SSE2)

__m128i load_taps(const std::int16_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// dot_rows_scalar with pmaddwd, four weight rows per pass so each im2col
/// load feeds four multiply-adds.
void dot_rows_sse2(const std::int16_t* row, const std::int16_t* weights,
                   std::size_t taps, std::size_t n_rows,
                   std::int32_t* out) noexcept {
  std::size_t o = 0;
  for (; o + 4 <= n_rows; o += 4) {
    const std::int16_t* w0 = weights + o * taps;
    const std::int16_t* w1 = w0 + taps;
    const std::int16_t* w2 = w1 + taps;
    const std::int16_t* w3 = w2 + taps;
    __m128i a0 = _mm_setzero_si128();
    __m128i a1 = _mm_setzero_si128();
    __m128i a2 = _mm_setzero_si128();
    __m128i a3 = _mm_setzero_si128();
    for (std::size_t t = 0; t < taps; t += 8) {
      const __m128i x = load_taps(row + t);
      a0 = _mm_add_epi32(a0, _mm_madd_epi16(x, load_taps(w0 + t)));
      a1 = _mm_add_epi32(a1, _mm_madd_epi16(x, load_taps(w1 + t)));
      a2 = _mm_add_epi32(a2, _mm_madd_epi16(x, load_taps(w2 + t)));
      a3 = _mm_add_epi32(a3, _mm_madd_epi16(x, load_taps(w3 + t)));
    }
    // Transpose-add the four accumulators into one vector of four sums.
    const __m128i s01 = _mm_add_epi32(_mm_unpacklo_epi32(a0, a1),
                                      _mm_unpackhi_epi32(a0, a1));
    const __m128i s23 = _mm_add_epi32(_mm_unpacklo_epi32(a2, a3),
                                      _mm_unpackhi_epi32(a2, a3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + o),
                     _mm_add_epi32(_mm_unpacklo_epi64(s01, s23),
                                   _mm_unpackhi_epi64(s01, s23)));
  }
  // At most three rows are left; the scalar kernel gives the same bits.
  dot_rows_scalar(row, weights + o * taps, taps, n_rows - o, out + o);
}

#endif

}  // namespace

// ---------------------------------------------------------------- Conv2d ---

Conv2d::Conv2d(std::uint32_t in_c, std::uint32_t out_c, std::uint32_t k,
               std::uint32_t stride, std::uint32_t pad, bool relu,
               std::uint32_t requant_shift, std::vector<std::int8_t> weights,
               std::vector<std::int32_t> bias)
    : in_c_{in_c},
      out_c_{out_c},
      k_{k},
      stride_{stride},
      pad_{pad},
      relu_{relu},
      requant_shift_{requant_shift},
      weights_{std::move(weights)},
      bias_{std::move(bias)} {
  if (stride_ == 0 || k_ == 0) throw std::invalid_argument("Conv2d: bad geometry");
  // Residue can carry any u32 geometry, so no product may wrap: a wrapped
  // in_c*k*k or out_c*taps could match a short weight vector and then
  // size the packing copy below from the unwrapped tap count.
  const std::size_t taps = checked_mul(checked_mul(in_c_, k_), k_);
  if (taps > std::numeric_limits<std::size_t>::max() - (kTapAlign - 1) ||
      weights_.size() != checked_mul(out_c_, taps) || bias_.size() != out_c_) {
    throw std::invalid_argument("Conv2d: parameter size mismatch");
  }
  row_taps_ = (taps + kTapAlign - 1) / kTapAlign * kTapAlign;
  packed_weights_.assign(out_c_ * row_taps_, 0);
  for (std::size_t oc = 0; oc < out_c_; ++oc) {
    std::copy_n(weights_.data() + oc * taps, taps,
                packed_weights_.data() + oc * row_taps_);
  }
}

std::string Conv2d::name() const {
  return "conv" + std::to_string(k_) + "x" + std::to_string(k_) + "_" +
         std::to_string(in_c_) + "->" + std::to_string(out_c_);
}

TensorShape Conv2d::output_shape(const TensorShape& in) const {
  if (in.c != in_c_) throw std::invalid_argument("Conv2d: channel mismatch");
  if (in.h + 2 * pad_ < k_ || in.w + 2 * pad_ < k_) {
    throw std::invalid_argument("Conv2d: input smaller than kernel");
  }
  return TensorShape{out_c_, (in.h + 2 * pad_ - k_) / stride_ + 1,
                     (in.w + 2 * pad_ - k_) / stride_ + 1};
}

Tensor Conv2d::forward(const Tensor& in) const {
  // im2col + GEMM: gather each output pixel's receptive field into one
  // row of int16 taps in weight order [ic][ky][kx] (taps outside the
  // image stay 0), then each output is that row dotted with its out
  // channel's packed weights. Integer sums are order-free, so every
  // output equals the per-pixel gather loop's bit for bit.
  const TensorShape os = output_shape(in.shape());
  const auto& ish = in.shape();
  const std::int8_t* src = in.data().data();
  const std::size_t in_plane = static_cast<std::size_t>(ish.h) * ish.w;
  const std::size_t pixels = static_cast<std::size_t>(os.h) * os.w;
  std::vector<std::int16_t> cols(pixels * row_taps_, 0);
  for (std::uint32_t oy = 0; oy < os.h; ++oy) {
    for (std::uint32_t ox = 0; ox < os.w; ++ox) {
      std::int16_t* tap =
          cols.data() + (static_cast<std::size_t>(oy) * os.w + ox) * row_taps_;
      const std::int64_t y0 = static_cast<std::int64_t>(oy) * stride_ - pad_;
      const std::int64_t x0 = static_cast<std::int64_t>(ox) * stride_ - pad_;
      // The in-image kx range is the same for every (ic, ky).
      const std::int64_t kx0 = std::max<std::int64_t>(0, -x0);
      const std::int64_t kx1 = std::min<std::int64_t>(k_, ish.w - x0);
      for (std::uint32_t ic = 0; ic < in_c_; ++ic) {
        const std::int8_t* plane = src + ic * in_plane;
        for (std::uint32_t ky = 0; ky < k_; ++ky, tap += k_) {
          const std::int64_t iy = y0 + ky;
          if (iy < 0 || iy >= ish.h) continue;
          const std::int8_t* in_row = plane + iy * ish.w;
          for (std::int64_t kx = kx0; kx < kx1; ++kx) tap[kx] = in_row[x0 + kx];
        }
      }
    }
  }

  auto* dot_rows = &dot_rows_scalar;
#if defined(MSA_SIMD_SSE2)
  if (img::simd_enabled()) dot_rows = &dot_rows_sse2;
#endif
  Tensor out{os};
  std::int8_t* dst = out.data().data();
  std::vector<std::int32_t> acc(out_c_);
  for (std::size_t p = 0; p < pixels; ++p) {
    dot_rows(cols.data() + p * row_taps_, packed_weights_.data(), row_taps_,
             out_c_, acc.data());
    for (std::uint32_t oc = 0; oc < out_c_; ++oc) {
      const std::int32_t sum = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(bias_[oc]) +
          static_cast<std::uint32_t>(acc[oc]));
      std::int8_t v = requantize(sum, requant_shift_);
      if (relu_ && v < 0) v = 0;
      dst[oc * pixels + p] = v;
    }
  }
  return out;
}

std::size_t Conv2d::param_bytes() const noexcept {
  return weights_.size() + bias_.size() * sizeof(std::int32_t);
}

void Conv2d::serialize(std::vector<std::uint8_t>& out) const {
  out.push_back(static_cast<std::uint8_t>(kind()));
  put_u32(out, in_c_);
  put_u32(out, out_c_);
  put_u32(out, k_);
  put_u32(out, stride_);
  put_u32(out, pad_);
  out.push_back(relu_ ? 1 : 0);
  put_u32(out, requant_shift_);
  put_params(out, weights_, bias_);
}

// ------------------------------------------------------------- MaxPool2d ---

MaxPool2d::MaxPool2d(std::uint32_t k, std::uint32_t stride)
    : k_{k}, stride_{stride} {
  if (k_ == 0 || stride_ == 0) throw std::invalid_argument("MaxPool2d: bad geometry");
}

std::string MaxPool2d::name() const {
  return "maxpool" + std::to_string(k_) + "s" + std::to_string(stride_);
}

TensorShape MaxPool2d::output_shape(const TensorShape& in) const {
  if (in.h < k_ || in.w < k_) {
    throw std::invalid_argument("MaxPool2d: input smaller than window");
  }
  return TensorShape{in.c, (in.h - k_) / stride_ + 1, (in.w - k_) / stride_ + 1};
}

Tensor MaxPool2d::forward(const Tensor& in) const {
  const TensorShape os = output_shape(in.shape());
  Tensor out{os};
  const auto& ish = in.shape();
  const std::int8_t* src = in.data().data();
  std::int8_t* dst = out.data().data();
  const std::size_t in_plane = static_cast<std::size_t>(ish.h) * ish.w;
  const std::size_t out_plane = static_cast<std::size_t>(os.h) * os.w;
  for (std::uint32_t c = 0; c < os.c; ++c) {
    const std::int8_t* plane = src + static_cast<std::size_t>(c) * in_plane;
    std::int8_t* out_plane_p = dst + static_cast<std::size_t>(c) * out_plane;
    for (std::uint32_t oy = 0; oy < os.h; ++oy) {
      std::int8_t* out_row = out_plane_p + static_cast<std::size_t>(oy) * os.w;
      for (std::uint32_t ox = 0; ox < os.w; ++ox) {
        const std::int8_t* win =
            plane + static_cast<std::size_t>(oy) * stride_ * ish.w +
            static_cast<std::size_t>(ox) * stride_;
        std::int8_t best = -128;
        for (std::uint32_t ky = 0; ky < k_; ++ky) {
          const std::int8_t* row = win + static_cast<std::size_t>(ky) * ish.w;
          for (std::uint32_t kx = 0; kx < k_; ++kx) {
            best = std::max(best, row[kx]);
          }
        }
        out_row[ox] = best;
      }
    }
  }
  return out;
}

void MaxPool2d::serialize(std::vector<std::uint8_t>& out) const {
  out.push_back(static_cast<std::uint8_t>(kind()));
  put_u32(out, k_);
  put_u32(out, stride_);
}

// --------------------------------------------------------- GlobalAvgPool ---

TensorShape GlobalAvgPool::output_shape(const TensorShape& in) const {
  return TensorShape{in.c, 1, 1};
}

Tensor GlobalAvgPool::forward(const Tensor& in) const {
  const auto& ish = in.shape();
  Tensor out{TensorShape{ish.c, 1, 1}};
  const std::int64_t area = static_cast<std::int64_t>(ish.h) * ish.w;
  const std::int8_t* src = in.data().data();
  const std::size_t plane = static_cast<std::size_t>(ish.h) * ish.w;
  for (std::uint32_t c = 0; c < ish.c; ++c) {
    const std::int8_t* p = src + static_cast<std::size_t>(c) * plane;
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < plane; ++i) sum += p[i];
    out.set(c, 0, 0, static_cast<std::int8_t>(sum / area));
  }
  return out;
}

void GlobalAvgPool::serialize(std::vector<std::uint8_t>& out) const {
  out.push_back(static_cast<std::uint8_t>(kind()));
}

// ------------------------------------------------------------------ Dense ---

Dense::Dense(std::uint32_t in, std::uint32_t out, bool relu,
             std::uint32_t requant_shift, std::vector<std::int8_t> weights,
             std::vector<std::int32_t> bias)
    : in_{in},
      out_{out},
      relu_{relu},
      requant_shift_{requant_shift},
      weights_{std::move(weights)},
      bias_{std::move(bias)} {
  if (weights_.size() != static_cast<std::size_t>(in_) * out_ ||
      bias_.size() != out_) {
    throw std::invalid_argument("Dense: parameter size mismatch");
  }
}

std::string Dense::name() const {
  return "dense_" + std::to_string(in_) + "->" + std::to_string(out_);
}

TensorShape Dense::output_shape(const TensorShape& in) const {
  if (in.volume() != in_) throw std::invalid_argument("Dense: input mismatch");
  return TensorShape{out_, 1, 1};
}

Tensor Dense::forward(const Tensor& in) const {
  if (in.shape().volume() != in_) {
    throw std::invalid_argument("Dense: input mismatch");
  }
  Tensor out{TensorShape{out_, 1, 1}};
  const auto& flat = in.data();
  for (std::uint32_t o = 0; o < out_; ++o) {
    std::int32_t acc = bias_[o];
    for (std::uint32_t i = 0; i < in_; ++i) {
      acc += static_cast<std::int32_t>(weights_[static_cast<std::size_t>(o) * in_ + i]) *
             flat[i];
    }
    std::int8_t v = requantize(acc, requant_shift_);
    if (relu_ && v < 0) v = 0;
    out.set(o, 0, 0, v);
  }
  return out;
}

std::size_t Dense::param_bytes() const noexcept {
  return weights_.size() + bias_.size() * sizeof(std::int32_t);
}

void Dense::serialize(std::vector<std::uint8_t>& out) const {
  out.push_back(static_cast<std::uint8_t>(kind()));
  put_u32(out, in_);
  put_u32(out, out_);
  out.push_back(relu_ ? 1 : 0);
  put_u32(out, requant_shift_);
  put_params(out, weights_, bias_);
}

// ---------------------------------------------------------- deserializer ---

std::unique_ptr<Layer> deserialize_layer(std::span<const std::uint8_t> blob,
                                         std::size_t& pos) {
  if (pos >= blob.size()) throw std::invalid_argument("xmodel: truncated layer");
  const auto kind = static_cast<LayerKind>(blob[pos++]);
  switch (kind) {
    case LayerKind::kConv2d: {
      const std::uint32_t in_c = get_u32(blob, pos);
      const std::uint32_t out_c = get_u32(blob, pos);
      const std::uint32_t k = get_u32(blob, pos);
      const std::uint32_t stride = get_u32(blob, pos);
      const std::uint32_t pad = get_u32(blob, pos);
      if (pos >= blob.size()) throw std::invalid_argument("xmodel: truncated conv");
      const bool relu = blob[pos++] != 0;
      const std::uint32_t shift = get_u32(blob, pos);
      std::vector<std::int8_t> w;
      std::vector<std::int32_t> b;
      get_params(blob, pos, w, b);
      return std::make_unique<Conv2d>(in_c, out_c, k, stride, pad, relu, shift,
                                      std::move(w), std::move(b));
    }
    case LayerKind::kMaxPool2d: {
      const std::uint32_t k = get_u32(blob, pos);
      const std::uint32_t stride = get_u32(blob, pos);
      return std::make_unique<MaxPool2d>(k, stride);
    }
    case LayerKind::kGlobalAvgPool:
      return std::make_unique<GlobalAvgPool>();
    case LayerKind::kDense: {
      const std::uint32_t in = get_u32(blob, pos);
      const std::uint32_t out = get_u32(blob, pos);
      if (pos >= blob.size()) throw std::invalid_argument("xmodel: truncated dense");
      const bool relu = blob[pos++] != 0;
      const std::uint32_t shift = get_u32(blob, pos);
      std::vector<std::int8_t> w;
      std::vector<std::int32_t> b;
      get_params(blob, pos, w, b);
      return std::make_unique<Dense>(in, out, relu, shift, std::move(w),
                                     std::move(b));
    }
  }
  throw std::invalid_argument("xmodel: unknown layer kind");
}

std::vector<float> softmax(const Tensor& logits) {
  const auto& data = logits.data();
  float max_v = -1e30f;
  for (const std::int8_t v : data) max_v = std::max(max_v, static_cast<float>(v));
  std::vector<float> out(data.size());
  float sum = 0.0f;
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[i] = std::exp((static_cast<float>(data[i]) - max_v) / 8.0f);
    sum += out[i];
  }
  for (auto& v : out) v /= sum;
  return out;
}

}  // namespace msa::vitis
