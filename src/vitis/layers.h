// Quantized inference layers. The attack depends only on the layers
// producing real weight and activation buffers with deterministic
// content, but the victim's inference is most of a simulated trial, so
// Conv2d runs as an exact integer GEMM: an im2col matrix of int16 taps
// times int16-widened weights, with an SSE2 multiply-add kernel behind
// img::set_simd_enabled(). Arithmetic is int8 weights/activations with
// int32 accumulation and a per-layer right-shift requantization, the
// standard fixed-point scheme DPU-class accelerators use.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "vitis/tensor.h"

namespace msa::vitis {

enum class LayerKind : std::uint8_t {
  kConv2d = 1,
  kMaxPool2d = 2,
  kGlobalAvgPool = 3,
  kDense = 4,
};

class Layer {
 public:
  virtual ~Layer() = default;

  [[nodiscard]] virtual LayerKind kind() const noexcept = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual TensorShape output_shape(const TensorShape& in) const = 0;
  [[nodiscard]] virtual Tensor forward(const Tensor& in) const = 0;
  /// Bytes of parameters (weights + biases) this layer stages into DRAM.
  [[nodiscard]] virtual std::size_t param_bytes() const noexcept = 0;
  /// Appends the layer descriptor + parameters to an xmodel blob.
  virtual void serialize(std::vector<std::uint8_t>& out) const = 0;
};

class Conv2d final : public Layer {
 public:
  /// Weights are laid out [out_c][in_c][k][k]; bias per out channel.
  Conv2d(std::uint32_t in_c, std::uint32_t out_c, std::uint32_t k,
         std::uint32_t stride, std::uint32_t pad, bool relu,
         std::uint32_t requant_shift, std::vector<std::int8_t> weights,
         std::vector<std::int32_t> bias);

  [[nodiscard]] LayerKind kind() const noexcept override {
    return LayerKind::kConv2d;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] TensorShape output_shape(const TensorShape& in) const override;
  [[nodiscard]] Tensor forward(const Tensor& in) const override;
  [[nodiscard]] std::size_t param_bytes() const noexcept override;
  void serialize(std::vector<std::uint8_t>& out) const override;

  [[nodiscard]] const std::vector<std::int8_t>& weights() const noexcept {
    return weights_;
  }

 private:
  std::uint32_t in_c_, out_c_, k_, stride_, pad_;
  bool relu_;
  std::uint32_t requant_shift_;
  std::vector<std::int8_t> weights_;
  std::vector<std::int32_t> bias_;
  /// weights_ widened to int16, one row of row_taps_ per out channel;
  /// the taps past in_c*k*k are zero.
  std::size_t row_taps_ = 0;
  std::vector<std::int16_t> packed_weights_;
};

class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::uint32_t k, std::uint32_t stride);

  [[nodiscard]] LayerKind kind() const noexcept override {
    return LayerKind::kMaxPool2d;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] TensorShape output_shape(const TensorShape& in) const override;
  [[nodiscard]] Tensor forward(const Tensor& in) const override;
  [[nodiscard]] std::size_t param_bytes() const noexcept override { return 0; }
  void serialize(std::vector<std::uint8_t>& out) const override;

 private:
  std::uint32_t k_, stride_;
};

class GlobalAvgPool final : public Layer {
 public:
  [[nodiscard]] LayerKind kind() const noexcept override {
    return LayerKind::kGlobalAvgPool;
  }
  [[nodiscard]] std::string name() const override { return "global_avg_pool"; }
  [[nodiscard]] TensorShape output_shape(const TensorShape& in) const override;
  [[nodiscard]] Tensor forward(const Tensor& in) const override;
  [[nodiscard]] std::size_t param_bytes() const noexcept override { return 0; }
  void serialize(std::vector<std::uint8_t>& out) const override;
};

class Dense final : public Layer {
 public:
  /// Expects a [C,1,1] input; weights [out][in], bias per output.
  Dense(std::uint32_t in, std::uint32_t out, bool relu,
        std::uint32_t requant_shift, std::vector<std::int8_t> weights,
        std::vector<std::int32_t> bias);

  [[nodiscard]] LayerKind kind() const noexcept override {
    return LayerKind::kDense;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] TensorShape output_shape(const TensorShape& in) const override;
  [[nodiscard]] Tensor forward(const Tensor& in) const override;
  [[nodiscard]] std::size_t param_bytes() const noexcept override;
  void serialize(std::vector<std::uint8_t>& out) const override;

 private:
  std::uint32_t in_, out_;
  bool relu_;
  std::uint32_t requant_shift_;
  std::vector<std::int8_t> weights_;
  std::vector<std::int32_t> bias_;
};

/// Reads one serialized layer back (inverse of Layer::serialize).
/// Advances `pos`. Throws std::invalid_argument on malformed input.
[[nodiscard]] std::unique_ptr<Layer> deserialize_layer(
    std::span<const std::uint8_t> blob, std::size_t& pos);

/// Softmax over a [C,1,1] logits tensor -> probabilities.
[[nodiscard]] std::vector<float> softmax(const Tensor& logits);

}  // namespace msa::vitis
