#include "vitis/model_zoo.h"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <span>
#include <vector>

#include "util/crc32.h"

namespace msa::vitis {
namespace {

TEST(ModelZoo, ListsFiveModels) {
  EXPECT_EQ(zoo_model_names().size(), 5u);
  EXPECT_TRUE(zoo_has_model("resnet50_pt"));
  EXPECT_TRUE(zoo_has_model("yolov3_tiny_tf"));
  EXPECT_FALSE(zoo_has_model("bert_large"));
}

TEST(ModelZoo, UnknownModelThrows) {
  EXPECT_THROW(make_zoo_model("not_a_model"), std::invalid_argument);
}

TEST(ModelZoo, WeightsDeterministicPerName) {
  EXPECT_EQ(make_zoo_model("resnet50_pt").serialize(),
            make_zoo_model("resnet50_pt").serialize());
}

TEST(ModelZoo, ModelsAreDistinguishableBySize) {
  // Heap layouts must differ per model (the paper identifies models partly
  // by their memory footprints).
  std::set<std::size_t> sizes;
  for (const auto& name : zoo_model_names()) {
    sizes.insert(make_zoo_model(name).serialize().size());
  }
  EXPECT_EQ(sizes.size(), zoo_model_names().size());
}

TEST(ModelZoo, AuxStringsContainIdentifyingNames) {
  for (const auto& name : zoo_model_names()) {
    const XModel m = make_zoo_model(name);
    bool has_path = false;
    for (const auto& s : m.aux_strings()) {
      if (s.find(name) != std::string::npos) has_path = true;
    }
    EXPECT_TRUE(has_path) << name;
  }
}

TEST(ModelZoo, PtModelsCarryTorchvisionString) {
  const XModel m = make_zoo_model("resnet50_pt");
  bool found = false;
  for (const auto& s : m.aux_strings()) {
    if (s == "torchvision/resnet50") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ModelZoo, TfModelsCarryTensorflowString) {
  const XModel m = make_zoo_model("inception_v1_tf");
  bool found = false;
  for (const auto& s : m.aux_strings()) {
    if (s.find("tensorflow") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ModelZoo, AllModelsRunInference) {
  const img::Image in = img::make_test_image(64, 64, 5);
  for (const auto& name : zoo_model_names()) {
    const XModel m = make_zoo_model(name);
    const auto probs = m.infer(tensor_from_image(in));
    EXPECT_EQ(probs.size(), m.num_classes()) << name;
    EXPECT_GT(m.num_classes(), 1u) << name;
  }
}

TEST(ModelZoo, DifferentModelsProduceDifferentOutputs) {
  const img::Image in = img::make_test_image(64, 64, 5);
  EXPECT_NE(make_zoo_model("resnet50_pt").infer(tensor_from_image(in)),
            make_zoo_model("squeezenet_pt").infer(tensor_from_image(in)));
}

TEST(ModelZoo, SerializedBytesArePinned) {
  // Size and CRC-32 of every zoo container's body (all bytes before its
  // CRC trailer). The staged xmodel is what the attack scrapes, so any
  // change to these bytes changes every residue digest downstream; a
  // faster serializer or CRC must reproduce them exactly.
  struct Pin {
    const char* name;
    std::size_t size;
    std::uint32_t body_crc;
  };
  constexpr Pin kPins[] = {
      {"resnet50_pt", 25091u, 0x61075B44u},
      {"squeezenet_pt", 5799u, 0xC3551F8Fu},
      {"inception_v1_tf", 14626u, 0xF3BC37A7u},
      {"mobilenet_v2_tf", 9958u, 0xC81D633Au},
      {"yolov3_tiny_tf", 6327u, 0x4FFA445Cu},
  };
  ASSERT_EQ(std::size(kPins), zoo_model_names().size());
  for (const Pin& pin : kPins) {
    const std::vector<std::uint8_t> blob = make_zoo_model(pin.name).serialize();
    ASSERT_EQ(blob.size(), pin.size) << pin.name;
    const std::span<const std::uint8_t> body{blob.data(), blob.size() - 4};
    EXPECT_EQ(util::crc32(body), pin.body_crc) << pin.name;
    const std::uint32_t trailer =
        static_cast<std::uint32_t>(blob[blob.size() - 4]) |
        (static_cast<std::uint32_t>(blob[blob.size() - 3]) << 8) |
        (static_cast<std::uint32_t>(blob[blob.size() - 2]) << 16) |
        (static_cast<std::uint32_t>(blob[blob.size() - 1]) << 24);
    EXPECT_EQ(trailer, pin.body_crc) << pin.name;
  }
}

class ZooSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooSweep, SerializeRoundTripEveryModel) {
  const XModel m = make_zoo_model(GetParam());
  const XModel copy = XModel::deserialize(m.serialize());
  EXPECT_EQ(copy.name(), m.name());
  EXPECT_EQ(copy.param_bytes(), m.param_bytes());
  const img::Image in = img::make_test_image(64, 64, 31);
  EXPECT_EQ(copy.infer(tensor_from_image(in)), m.infer(tensor_from_image(in)));
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooSweep,
                         ::testing::Values("resnet50_pt", "squeezenet_pt",
                                           "inception_v1_tf", "mobilenet_v2_tf",
                                           "yolov3_tiny_tf"));

}  // namespace
}  // namespace msa::vitis
