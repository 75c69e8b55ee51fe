#include "vitis/layers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "img/score_kernels.h"
#include "util/prng.h"

namespace msa::vitis {
namespace {

TEST(Tensor, ShapeAndAccess) {
  Tensor t{TensorShape{2, 3, 4}};
  EXPECT_EQ(t.size(), 24u);
  t.set(1, 2, 3, 42);
  EXPECT_EQ(t.at(1, 2, 3), 42);
  EXPECT_EQ(t.at(0, 0, 0), 0);
}

TEST(Tensor, OutOfRangeThrows) {
  Tensor t{TensorShape{1, 2, 2}};
  EXPECT_THROW((void)t.at(1, 0, 0), std::out_of_range);
  EXPECT_THROW(t.set(0, 2, 0, 1), std::out_of_range);
}

TEST(Tensor, EmptyShapeThrows) {
  EXPECT_THROW((Tensor{TensorShape{0, 4, 4}}), std::invalid_argument);
}

TEST(Tensor, FromImageQuantizes) {
  img::Image im{2, 1};
  im.at(0, 0) = img::Rgb{128, 0, 255};
  im.at(1, 0) = img::Rgb{200, 100, 50};
  const Tensor t = tensor_from_image(im);
  EXPECT_EQ(t.shape(), (TensorShape{3, 1, 2}));
  EXPECT_EQ(t.at(0, 0, 0), 0);      // r=128 -> 0
  EXPECT_EQ(t.at(1, 0, 0), -128);   // g=0 -> -128
  EXPECT_EQ(t.at(2, 0, 0), 127);    // b=255 -> 127
  EXPECT_EQ(t.at(0, 0, 1), 72);     // r=200 -> 72
}

Conv2d identity_conv1x1() {
  // Single 1x1 kernel with weight 1, shift 0: passes channel 0 through.
  return Conv2d{1, 1, 1, 1, 0, /*relu=*/false, /*shift=*/0, {1}, {0}};
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Tensor in{TensorShape{1, 2, 2}};
  in.set(0, 0, 0, 5);
  in.set(0, 1, 1, -7);
  const Tensor out = identity_conv1x1().forward(in);
  EXPECT_EQ(out.at(0, 0, 0), 5);
  EXPECT_EQ(out.at(0, 1, 1), -7);
}

TEST(Conv2d, ReluClampsNegative) {
  Conv2d conv{1, 1, 1, 1, 0, /*relu=*/true, 0, {1}, {0}};
  Tensor in{TensorShape{1, 1, 1}};
  in.set(0, 0, 0, -5);
  EXPECT_EQ(conv.forward(in).at(0, 0, 0), 0);
}

TEST(Conv2d, KnownSumKernel) {
  // 3x3 all-ones kernel, no padding: output = sum of the window.
  Conv2d conv{1, 1, 3, 1, 0, false, 0, std::vector<std::int8_t>(9, 1), {0}};
  Tensor in{TensorShape{1, 3, 3}};
  std::int8_t v = 1;
  for (std::uint32_t y = 0; y < 3; ++y) {
    for (std::uint32_t x = 0; x < 3; ++x) in.set(0, y, x, v++);
  }
  const Tensor out = conv.forward(in);
  EXPECT_EQ(out.shape(), (TensorShape{1, 1, 1}));
  EXPECT_EQ(out.at(0, 0, 0), 45);  // 1+2+...+9
}

TEST(Conv2d, BiasApplied) {
  Conv2d conv{1, 1, 1, 1, 0, false, 0, {0}, {17}};
  Tensor in{TensorShape{1, 1, 1}};
  EXPECT_EQ(conv.forward(in).at(0, 0, 0), 17);
}

TEST(Conv2d, RequantShiftScalesDown) {
  Conv2d conv{1, 1, 1, 1, 0, false, /*shift=*/3, {64}, {0}};
  Tensor in{TensorShape{1, 1, 1}};
  in.set(0, 0, 0, 8);  // 64*8 = 512; >>3 = 64
  EXPECT_EQ(conv.forward(in).at(0, 0, 0), 64);
}

TEST(Conv2d, SaturatesToInt8) {
  Conv2d conv{1, 1, 1, 1, 0, false, 0, {127}, {0}};
  Tensor in{TensorShape{1, 1, 1}};
  in.set(0, 0, 0, 127);  // 16129 clamps to 127
  EXPECT_EQ(conv.forward(in).at(0, 0, 0), 127);
}

TEST(Conv2d, StrideAndPaddingGeometry) {
  Conv2d conv{3, 8, 3, 2, 1, true, 6, std::vector<std::int8_t>(8 * 3 * 9, 0),
              std::vector<std::int32_t>(8, 0)};
  EXPECT_EQ(conv.output_shape(TensorShape{3, 64, 64}),
            (TensorShape{8, 32, 32}));
  EXPECT_EQ(conv.output_shape(TensorShape{3, 9, 9}), (TensorShape{8, 5, 5}));
}

TEST(Conv2d, ChannelMismatchThrows) {
  Conv2d conv = identity_conv1x1();
  EXPECT_THROW(conv.forward(Tensor{TensorShape{2, 2, 2}}),
               std::invalid_argument);
}

TEST(Conv2d, ParameterSizeValidation) {
  EXPECT_THROW((Conv2d{1, 1, 3, 1, 0, false, 0, {1, 2}, {0}}),
               std::invalid_argument);
  EXPECT_THROW((Conv2d{1, 1, 3, 1, 0, false, 0,
                       std::vector<std::int8_t>(9, 0), {0, 0}}),
               std::invalid_argument);
}

// Per-pixel gather reference for Conv2d::forward: for every output, sum
// bias + w*x over the in-image taps in int64, then requantize.
struct ConvCase {
  std::uint32_t in_c = 0, out_c = 0, k = 0, stride = 0, pad = 0, shift = 0;
  bool relu = false;
  std::vector<std::int8_t> weights;
  std::vector<std::int32_t> bias;
  Tensor input;
};

Tensor reference_conv(const ConvCase& c, const Tensor& in) {
  const TensorShape& is = in.shape();
  const TensorShape os{c.out_c, (is.h + 2 * c.pad - c.k) / c.stride + 1,
                       (is.w + 2 * c.pad - c.k) / c.stride + 1};
  Tensor out{os};
  for (std::uint32_t oc = 0; oc < os.c; ++oc) {
    for (std::uint32_t oy = 0; oy < os.h; ++oy) {
      for (std::uint32_t ox = 0; ox < os.w; ++ox) {
        std::int64_t acc = c.bias[oc];
        for (std::uint32_t ic = 0; ic < c.in_c; ++ic) {
          for (std::uint32_t ky = 0; ky < c.k; ++ky) {
            for (std::uint32_t kx = 0; kx < c.k; ++kx) {
              const std::int64_t iy =
                  static_cast<std::int64_t>(oy) * c.stride + ky - c.pad;
              const std::int64_t ix =
                  static_cast<std::int64_t>(ox) * c.stride + kx - c.pad;
              if (iy < 0 || ix < 0 || iy >= is.h || ix >= is.w) continue;
              acc += static_cast<std::int64_t>(
                         c.weights[((static_cast<std::size_t>(oc) * c.in_c +
                                     ic) * c.k + ky) * c.k + kx]) *
                     in.at(ic, static_cast<std::uint32_t>(iy),
                           static_cast<std::uint32_t>(ix));
            }
          }
        }
        EXPECT_EQ(acc, static_cast<std::int32_t>(acc)) << "case overflows int32";
        std::int32_t v = std::clamp(
            static_cast<std::int32_t>(acc) >> c.shift, -128, 127);
        if (c.relu && v < 0) v = 0;
        out.set(oc, oy, ox, static_cast<std::int8_t>(v));
      }
    }
  }
  return out;
}

/// An int8 value, pinned to an extreme a quarter of the time each way.
std::int8_t draw_int8(util::Prng& prng) {
  switch (prng.below(4)) {
    case 0: return -128;
    case 1: return 127;
    default: return static_cast<std::int8_t>(prng.between(0, 255) - 128);
  }
}

/// A k x k case over in_c channels; `side` 0 draws an odd input side
/// from the smallest that fits the kernel (1x1 outputs) up.
ConvCase random_case(util::Prng& prng, std::uint32_t k, std::uint32_t in_c,
                     std::uint32_t side = 0) {
  ConvCase c;
  c.k = k;
  c.in_c = in_c;
  c.out_c = static_cast<std::uint32_t>(prng.between(1, 9));
  c.stride = static_cast<std::uint32_t>(prng.between(1, 4));
  c.pad = static_cast<std::uint32_t>(prng.between(0, k));
  c.shift = static_cast<std::uint32_t>(prng.between(0, 16));
  c.relu = prng.chance(0.5);
  if (side != 0) c.pad = 0;
  const auto draw_side = [&] {
    if (side != 0) return side;
    const std::uint32_t min = k > 2 * c.pad ? k - 2 * c.pad : 1;
    return static_cast<std::uint32_t>(prng.between(min, min + 12)) | 1u;
  };
  const std::uint32_t h = draw_side();
  c.input = Tensor{TensorShape{in_c, h, draw_side()}};
  for (auto& v : c.input.data()) v = draw_int8(prng);
  c.weights.resize(static_cast<std::size_t>(c.out_c) * in_c * k * k);
  for (auto& w : c.weights) w = draw_int8(prng);
  c.bias.resize(c.out_c);
  for (auto& b : c.bias) {
    b = static_cast<std::int32_t>(prng.between(0, 1u << 21)) - (1 << 20);
  }
  return c;
}

TEST(Conv2d, MatchesGatherReferenceWithSimdOnAndOff) {
  util::Prng prng{0xC0417u};
  std::vector<ConvCase> cases;
  for (int i = 0; i < 200; ++i) {
    const auto k = static_cast<std::uint32_t>(prng.between(1, 5));
    cases.push_back(random_case(prng, k, static_cast<std::uint32_t>(
                                             prng.between(1, 20))));
  }
  // in_c * k * k congruent to 0, 1 and 15 mod 16 (row padding of 0, 15
  // and 1 taps), at 1x1, 3x3 and 5x5.
  for (const auto& [k, in_c] : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {1, 16}, {1, 17}, {1, 15}, {3, 16}, {3, 9}, {3, 7},
           {5, 16}, {5, 9}, {5, 7}}) {
    cases.push_back(random_case(prng, k, in_c));
  }
  // A 1x1 output: the kernel exactly covers an unpadded input.
  cases.push_back(random_case(prng, 3, 4, /*side=*/3));
  // Every weight and input at -128: each product is the largest int16 x
  // int16 term, 2^14, over the largest tap count above (400 -> 2^22.6).
  ConvCase worst = random_case(prng, 5, 16);
  std::fill(worst.weights.begin(), worst.weights.end(), std::int8_t{-128});
  std::fill(worst.input.data().begin(), worst.input.data().end(),
            std::int8_t{-128});
  cases.push_back(worst);

  std::set<std::size_t> residues;
  bool saw_1x1 = false;
  for (const ConvCase& c : cases) {
    residues.insert(c.in_c * c.k * c.k % 16);
    const Conv2d conv{c.in_c, c.out_c, c.k, c.stride, c.pad,
                      c.relu, c.shift, c.weights, c.bias};
    const Tensor want = reference_conv(c, c.input);
    saw_1x1 = saw_1x1 || (want.shape().h == 1 && want.shape().w == 1);
    for (const bool simd : {true, false}) {
      img::set_simd_enabled(simd);
      const Tensor got = conv.forward(c.input);
      ASSERT_EQ(got.shape(), want.shape());
      EXPECT_EQ(got.data(), want.data())
          << conv.name() << " stride " << c.stride << " pad " << c.pad
          << " in " << c.input.shape().h << "x" << c.input.shape().w
          << " simd " << simd;
    }
    img::set_simd_enabled(true);
  }
  EXPECT_TRUE(residues.count(0) && residues.count(1) && residues.count(15));
  EXPECT_TRUE(saw_1x1);
}

TEST(MaxPool2d, TakesWindowMax) {
  MaxPool2d pool{2, 2};
  Tensor in{TensorShape{1, 2, 4}};
  in.set(0, 0, 0, 3);
  in.set(0, 1, 1, 9);
  in.set(0, 0, 2, -1);
  in.set(0, 1, 3, -2);
  const Tensor out = pool.forward(in);
  EXPECT_EQ(out.shape(), (TensorShape{1, 1, 2}));
  EXPECT_EQ(out.at(0, 0, 0), 9);
  EXPECT_EQ(out.at(0, 0, 1), 0);  // max of {-1, 0, 0, -2} is 0
}

TEST(MaxPool2d, TooSmallInputThrows) {
  MaxPool2d pool{3, 1};
  EXPECT_THROW(pool.forward(Tensor{TensorShape{1, 2, 2}}),
               std::invalid_argument);
}

TEST(GlobalAvgPool, AveragesPerChannel) {
  GlobalAvgPool gap;
  Tensor in{TensorShape{2, 2, 2}};
  for (std::uint32_t y = 0; y < 2; ++y) {
    for (std::uint32_t x = 0; x < 2; ++x) {
      in.set(0, y, x, 8);
      in.set(1, y, x, static_cast<std::int8_t>(-4));
    }
  }
  const Tensor out = gap.forward(in);
  EXPECT_EQ(out.shape(), (TensorShape{2, 1, 1}));
  EXPECT_EQ(out.at(0, 0, 0), 8);
  EXPECT_EQ(out.at(1, 0, 0), -4);
}

TEST(Dense, MatVecWithBias) {
  // 2 -> 2: y0 = x0 + 2*x1 + 1 ; y1 = -x0 + 3 (weights row-major [out][in])
  Dense d{2, 2, false, 0, {1, 2, -1, 0}, {1, 3}};
  Tensor in{TensorShape{2, 1, 1}};
  in.set(0, 0, 0, 4);
  in.set(1, 0, 0, 5);
  const Tensor out = d.forward(in);
  EXPECT_EQ(out.at(0, 0, 0), 15);
  EXPECT_EQ(out.at(1, 0, 0), -1);
}

TEST(Dense, InputSizeMismatchThrows) {
  Dense d{4, 2, false, 0, std::vector<std::int8_t>(8, 0), {0, 0}};
  EXPECT_THROW(d.forward(Tensor{TensorShape{3, 1, 1}}), std::invalid_argument);
}

TEST(Softmax, SumsToOneAndOrdersLogits) {
  Tensor logits{TensorShape{3, 1, 1}};
  logits.set(0, 0, 0, 10);
  logits.set(1, 0, 0, 20);
  logits.set(2, 0, 0, -10);
  const auto probs = softmax(logits);
  const double sum = std::accumulate(probs.begin(), probs.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(probs[1], probs[0]);
  EXPECT_GT(probs[0], probs[2]);
}

TEST(LayerSerialization, RoundTripsEveryKind) {
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Conv2d>(
      2, 3, 3, 2, 1, true, 6, std::vector<std::int8_t>(2 * 3 * 9, 7),
      std::vector<std::int32_t>{-1, 0, 1}));
  layers.push_back(std::make_unique<MaxPool2d>(2, 2));
  layers.push_back(std::make_unique<GlobalAvgPool>());
  layers.push_back(std::make_unique<Dense>(
      3, 5, false, 4, std::vector<std::int8_t>(15, -3),
      std::vector<std::int32_t>(5, 9)));

  std::vector<std::uint8_t> blob;
  for (const auto& l : layers) l->serialize(blob);

  std::size_t pos = 0;
  for (const auto& original : layers) {
    const auto copy = deserialize_layer(blob, pos);
    EXPECT_EQ(copy->kind(), original->kind());
    EXPECT_EQ(copy->name(), original->name());
    EXPECT_EQ(copy->param_bytes(), original->param_bytes());
    // Behavioural equality on a probe input.
    const TensorShape probe{original->kind() == LayerKind::kDense
                                ? TensorShape{3, 1, 1}
                                : TensorShape{2, 8, 8}};
    if (original->kind() != LayerKind::kDense || probe.volume() == 3) {
      Tensor in{probe, 3};
      if (original->output_shape(probe) == copy->output_shape(probe)) {
        EXPECT_EQ(original->forward(in).data(), copy->forward(in).data());
      }
    }
  }
  EXPECT_EQ(pos, blob.size());
}

TEST(LayerSerialization, TruncatedBlobThrows) {
  Conv2d conv{1, 1, 1, 1, 0, false, 0, {1}, {0}};
  std::vector<std::uint8_t> blob;
  conv.serialize(blob);
  blob.resize(blob.size() / 2);
  std::size_t pos = 0;
  EXPECT_THROW((void)deserialize_layer(blob, pos), std::invalid_argument);
}

/// A serialized Conv2d with the given geometry, no weights and out_c
/// zero biases: what a residue scan can hand the parser.
std::vector<std::uint8_t> conv_blob(std::uint32_t in_c, std::uint32_t out_c,
                                    std::uint32_t k) {
  std::vector<std::uint8_t> blob{static_cast<std::uint8_t>(LayerKind::kConv2d)};
  const auto put = [&blob](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) blob.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  };
  put(in_c);
  put(out_c);
  put(k);
  put(1);  // stride
  put(0);  // pad
  blob.push_back(0);  // relu
  put(0);  // requant shift
  put(0);  // weight count
  put(out_c);
  for (std::uint32_t i = 0; i < out_c; ++i) put(0);
  return blob;
}

TEST(LayerSerialization, WrappingConvGeometryThrows) {
  // out_c * in_c*k*k = 4 * 2^62 wraps to 0, matching the empty weights.
  const auto wrapped_total = conv_blob(1u << 30, 4, 1u << 16);
  // in_c*k*k = 2^16 * 2^48 wraps to 0 on its own.
  const auto wrapped_taps = conv_blob(1u << 16, 4, 1u << 24);
  for (const auto& blob : {wrapped_total, wrapped_taps}) {
    std::size_t pos = 0;
    EXPECT_THROW((void)deserialize_layer(blob, pos), std::invalid_argument);
  }
  EXPECT_THROW((Conv2d{1u << 30, 4, 1u << 16, 1, 0, false, 0, {},
                       std::vector<std::int32_t>(4, 0)}),
               std::invalid_argument);
}

TEST(LayerSerialization, UnknownKindThrows) {
  std::vector<std::uint8_t> blob{0xEE};
  std::size_t pos = 0;
  EXPECT_THROW((void)deserialize_layer(blob, pos), std::invalid_argument);
}

}  // namespace
}  // namespace msa::vitis
