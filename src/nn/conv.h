#ifndef DLSYS_NN_CONV_H_
#define DLSYS_NN_CONV_H_

#include <memory>
#include <string>
#include <vector>

#include "src/nn/layer.h"

/// \file conv.h
/// \brief Convolutional layers over NCHW inputs.
///
/// The tutorial draws its running examples from convolutional networks.
/// Conv2D's forward runs the inference engine's implicit-GEMM kernel
/// (ConvPhasePlanesInto, then the kernel table's conv_gemm_bias_act_rows
/// that ConvGemmBiasActInto runs, src/tensor/ops.h), so training and
/// serving share one conv implementation; its backward and the pooling
/// layer are plain loop nests. No BLAS.

namespace dlsys {

/// \brief 2-D convolution with square kernels, stride, and zero padding.
///
/// Input: rank-4 [N, in_channels, H, W]. Output: [N, out_channels, Ho, Wo]
/// with Ho = (H + 2*pad - k)/stride + 1 (the input must be at least k wide
/// once padded).
class Conv2D : public Layer {
 public:
  Conv2D(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride = 1, int64_t pad = 0);

  std::string name() const override;
  void Init(Rng* rng) override;
  Tensor Forward(const Tensor& x, CacheMode mode) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Tensor*> Params() override { return {&w_, &b_}; }
  std::vector<Tensor*> Grads() override { return {&dw_, &db_}; }
  int64_t FlopsPerExample() const override;
  int64_t CachedBytes() const override { return x_cache_.bytes(); }
  void DropCache() override { x_cache_.Clear(); }
  std::unique_ptr<Layer> Clone() const override;

  /// \brief Output spatial extent for an input extent \p in: 0 when the
  /// kernel is wider than the padded input (in + 2 * pad < kernel) at any
  /// stride.
  int64_t OutExtent(int64_t in) const {
    if (in + 2 * pad_ < kernel_) return 0;
    return (in + 2 * pad_ - kernel_) / stride_ + 1;
  }

  /// Configuration and parameter views for graph compilers (src/infer).
  int64_t in_channels() const { return in_ch_; }
  int64_t out_channels() const { return out_ch_; }
  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }
  int64_t pad() const { return pad_; }
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }

 private:
  int64_t in_ch_, out_ch_, kernel_, stride_, pad_;
  Tensor w_;  ///< (out_ch, in_ch, k, k)
  Tensor b_;  ///< (out_ch)
  Tensor dw_, db_;
  Tensor x_cache_;
  // Spatial extents seen by the last cached forward (for FLOP reporting).
  mutable int64_t last_h_ = 0, last_w_ = 0;
};

/// \brief 2x2-style max pooling with a square window and equal stride.
class MaxPool2D : public Layer {
 public:
  explicit MaxPool2D(int64_t window);

  std::string name() const override;
  Tensor Forward(const Tensor& x, CacheMode mode) override;
  Tensor Backward(const Tensor& grad_output) override;
  int64_t CachedBytes() const override {
    return static_cast<int64_t>(argmax_.size() * sizeof(int64_t));
  }
  void DropCache() override {
    argmax_.clear();
    argmax_.shrink_to_fit();
  }
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<MaxPool2D>(window_);
  }

  /// \brief Pooling window extent (equal to the stride).
  int64_t window() const { return window_; }

 private:
  int64_t window_;
  Shape in_shape_;
  std::vector<int64_t> argmax_;  ///< flat input index of each output max
};

}  // namespace dlsys

#endif  // DLSYS_NN_CONV_H_
