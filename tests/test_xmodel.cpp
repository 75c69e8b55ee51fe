#include "vitis/xmodel.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <iterator>

#include "util/crc32.h"
#include "util/prng.h"
#include "vitis/model_zoo.h"

namespace msa::vitis {
namespace {

TEST(XModel, SerializeDeserializeRoundTrip) {
  const XModel original = make_zoo_model("resnet50_pt");
  const auto blob = original.serialize();
  const XModel copy = XModel::deserialize(blob);
  EXPECT_EQ(copy.name(), original.name());
  EXPECT_EQ(copy.framework(), original.framework());
  EXPECT_EQ(copy.input_shape(), original.input_shape());
  EXPECT_EQ(copy.aux_strings(), original.aux_strings());
  EXPECT_EQ(copy.param_bytes(), original.param_bytes());
  EXPECT_EQ(copy.serialize(), blob);  // canonical form is stable
}

TEST(XModel, DeserializedModelComputesIdentically) {
  const XModel original = make_zoo_model("squeezenet_pt");
  const XModel copy = XModel::deserialize(original.serialize());
  const img::Image probe = img::make_test_image(64, 64, 123);
  EXPECT_EQ(copy.infer(tensor_from_image(probe)),
            original.infer(tensor_from_image(probe)));
}

TEST(XModel, SerializationIsDeterministic) {
  EXPECT_EQ(make_zoo_model("resnet50_pt").serialize(),
            make_zoo_model("resnet50_pt").serialize());
}

TEST(XModel, CrcTamperDetected) {
  auto blob = make_zoo_model("resnet50_pt").serialize();
  blob[blob.size() / 2] ^= 0x01;
  EXPECT_THROW(XModel::deserialize(blob), std::invalid_argument);
}

TEST(XModel, BadMagicRejected) {
  auto blob = make_zoo_model("resnet50_pt").serialize();
  blob[0] = 'Y';
  EXPECT_THROW(XModel::deserialize(blob), std::invalid_argument);
}

TEST(XModel, TrailingBytesRejectedByStrictParse) {
  auto blob = make_zoo_model("resnet50_pt").serialize();
  blob.push_back(0);
  EXPECT_THROW(XModel::deserialize(blob), std::invalid_argument);
}

TEST(XModel, DeserializeAtFindsContainerInsideResidue) {
  // The forensic path: container embedded mid-buffer among junk.
  const XModel m = make_zoo_model("mobilenet_v2_tf");
  const auto blob = m.serialize();
  // back_inserter rather than range-insert: GCC 12's -Warray-bounds
  // misfires on the latter at -O2 and CI builds with -Werror.
  std::vector<std::uint8_t> residue(100, 0xAB);
  std::copy(blob.begin(), blob.end(), std::back_inserter(residue));
  residue.insert(residue.end(), 50, 0xCD);
  std::size_t consumed = 0;
  const XModel parsed = XModel::deserialize_at(residue, 100, &consumed);
  EXPECT_EQ(parsed.name(), "mobilenet_v2_tf");
  EXPECT_EQ(consumed, blob.size());
}

TEST(XModel, DeserializeAtRejectsCorruptedResidue) {
  const auto blob = make_zoo_model("resnet50_pt").serialize();
  std::vector<std::uint8_t> residue = blob;
  residue[residue.size() - 10] ^= 0xFF;  // damage inside CRC coverage
  EXPECT_THROW(XModel::deserialize_at(residue, 0), std::invalid_argument);
}

TEST(XModel, DeserializeAtRejectsWrappingConvGeometry) {
  // A well-formed container, CRC included, whose one conv layer claims
  // in_c = 2^30, k = 2^16, out_c = 4: out_c*in_c*k*k wraps to 0, matching
  // its empty weight vector. The parser must throw, not size from it.
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Conv2d>(
      1, 4, 1, 1, 0, false, 0, std::vector<std::int8_t>(4, 1),
      std::vector<std::int32_t>(4, 0)));
  auto blob = XModel{"crafted", "pt", TensorShape{1, 8, 8}, {},
                     std::move(layers)}
                  .serialize();
  // Conv layer: kind, in_c, out_c, k, stride, pad, relu, shift, n_w,
  // 4 weights, n_b, 4 biases; then the CRC.
  const std::size_t layer = blob.size() - 4 - (1 + 20 + 1 + 4 + 4 + 4 + 4 + 16);
  const auto put = [&blob](std::size_t at, std::uint32_t v) {
    for (int b = 0; b < 4; ++b) blob[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
  };
  put(layer + 1, 1u << 30);  // in_c
  put(layer + 9, 1u << 16);  // k
  put(layer + 26, 0);        // weight count
  blob.erase(blob.begin() + static_cast<std::ptrdiff_t>(layer + 30),
             blob.begin() + static_cast<std::ptrdiff_t>(layer + 34));
  blob.resize(blob.size() - 4);
  const std::uint32_t crc = util::crc32(blob);
  blob.resize(blob.size() + 4);
  put(blob.size() - 4, crc);
  EXPECT_THROW(XModel::deserialize_at(blob, 0), std::invalid_argument);
}

TEST(XModel, InstallPathMatchesVitisLayout) {
  const XModel m = make_zoo_model("resnet50_pt");
  EXPECT_EQ(m.install_path(),
            "/usr/share/vitis_ai_library/models/resnet50_pt/resnet50_pt.xmodel");
}

TEST(XModel, InferValidatesInputShape) {
  const XModel m = make_zoo_model("resnet50_pt");
  EXPECT_THROW((void)m.infer(Tensor{TensorShape{3, 32, 32}}),
               std::invalid_argument);
}

TEST(XModel, InferReturnsProbabilities) {
  const XModel m = make_zoo_model("resnet50_pt");
  const img::Image in = img::make_test_image(64, 64, 77);
  const auto probs = m.infer(tensor_from_image(in));
  EXPECT_EQ(probs.size(), m.num_classes());
  double sum = 0;
  for (const float p : probs) {
    EXPECT_GE(p, 0.0f);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST(XModel, ConstructorValidatesLayerChain) {
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Dense>(10, 2, false, 0,
                                           std::vector<std::int8_t>(20, 0),
                                           std::vector<std::int32_t>(2, 0)));
  // Input volume 3*64*64 != 10 -> chain doesn't compose.
  EXPECT_THROW((XModel{"bad", "pt", TensorShape{3, 64, 64}, {}, std::move(layers)}),
               std::invalid_argument);
}

TEST(XModel, ConstructorRejectsEmpty) {
  std::vector<std::unique_ptr<Layer>> none;
  EXPECT_THROW((XModel{"m", "pt", TensorShape{3, 64, 64}, {}, std::move(none)}),
               std::invalid_argument);
  std::vector<std::unique_ptr<Layer>> one;
  one.push_back(std::make_unique<GlobalAvgPool>());
  EXPECT_THROW((XModel{"", "pt", TensorShape{3, 64, 64}, {}, std::move(one)}),
               std::invalid_argument);
}

TEST(XModel, FuzzedResidueNeverAllocatesWildly) {
  // Regression: a corrupted layer count field used to be handed to
  // std::vector's constructor before validation, turning noisy residue
  // into a 16 GiB allocation (std::bad_alloc). Every corruption must now
  // surface as std::invalid_argument from a bounds check.
  const auto blob = make_zoo_model("squeezenet_pt").serialize();
  util::Prng prng{20240522};
  for (int trial = 0; trial < 300; ++trial) {
    auto fuzzed = blob;
    // Corrupt 1-4 random bytes anywhere in the container.
    const int flips = 1 + static_cast<int>(prng.below(4));
    for (int i = 0; i < flips; ++i) {
      fuzzed[prng.below(fuzzed.size())] ^= static_cast<std::uint8_t>(prng());
    }
    try {
      (void)XModel::deserialize_at(fuzzed, 0);
      // Parsing may still succeed when the flips landed outside the CRC's
      // sensitivity (they can't — CRC covers everything — unless the
      // flips cancelled); success with a valid CRC is acceptable.
    } catch (const std::invalid_argument&) {
      // expected rejection path
    }
  }
}

TEST(XModel, HugeLengthFieldsRejectedNotAllocated) {
  // Hand-craft a container prefix whose bias count claims 0xFFFFFFFF.
  const auto blob = make_zoo_model("resnet50_pt").serialize();
  auto bad = blob;
  // The first conv layer's weight count sits after the fixed header; walk
  // to it structurally: find the first kConv2d tag after the shape words.
  // Simpler: slam every aligned u32 in the first 2 KiB to 0xFFFFFFFF one
  // at a time — none may cause an allocation larger than the blob.
  for (std::size_t off = 8; off + 4 < 2048 && off + 4 < bad.size(); off += 4) {
    auto probe = blob;
    probe[off] = 0xFF;
    probe[off + 1] = 0xFF;
    probe[off + 2] = 0xFF;
    probe[off + 3] = 0xFF;
    try {
      (void)XModel::deserialize_at(probe, 0);
    } catch (const std::invalid_argument&) {
    }
  }
  SUCCEED();  // reaching here without bad_alloc is the assertion
}

TEST(XModel, MagicIsStable) {
  const auto& m = XModel::magic();
  EXPECT_EQ(m[0], 'X');
  EXPECT_EQ(m[4], '1');
  EXPECT_EQ(m[5], '\0');
}

}  // namespace
}  // namespace msa::vitis
