#include "src/nn/layers.h"

#include <cmath>

#include "src/tensor/ops.h"

namespace dlsys {

// ---------------------------------------------------------------- Dense

Dense::Dense(int64_t in, int64_t out)
    : in_(in),
      out_(out),
      w_({in, out}),
      b_({out}),
      dw_({in, out}),
      db_({out}) {
  DLSYS_CHECK(in > 0 && out > 0, "Dense dimensions must be positive");
}

std::string Dense::name() const {
  return "dense(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

void Dense::Init(Rng* rng) {
  // He-uniform: U[-sqrt(6/in), sqrt(6/in)], a good default for ReLU nets.
  const float bound = std::sqrt(6.0f / static_cast<float>(in_));
  w_.FillUniform(rng, -bound, bound);
  b_.Fill(0.0f);
}

Tensor Dense::Forward(const Tensor& x, CacheMode mode) {
  DLSYS_CHECK(x.rank() == 2 && x.dim(1) == in_, "Dense input shape mismatch");
  Tensor y({x.dim(0), out_});
  MatMulBiasActInto(x.data(), w_.data(), b_.data(), y.data(), x.dim(0), in_,
                    out_, /*relu=*/false);
  if (mode == CacheMode::kCache) {
    x_cache_ = x;
  } else {
    x_cache_.Clear();
  }
  return y;
}

Tensor Dense::Backward(const Tensor& grad_output) {
  DLSYS_CHECK(!x_cache_.empty(), "Dense::Backward without cached forward");
  // dW += X^T G ; db += column sums of G ; dX = G W^T. Both products run
  // the forward GEMM over row-major operands, so each element is one
  // float chain in ascending p.
  Tensor dw = MatMul(Transpose(x_cache_), grad_output);
  Axpy(1.0f, dw, &dw_);
  const int64_t n = grad_output.dim(0);
  for (int64_t i = 0; i < n; ++i) {
    const float* row = grad_output.data() + i * out_;
    for (int64_t j = 0; j < out_; ++j) db_[j] += row[j];
  }
  return MatMul(grad_output, Transpose(w_));
}

std::unique_ptr<Layer> Dense::Clone() const {
  auto copy = std::make_unique<Dense>(in_, out_);
  copy->w_ = w_;
  copy->b_ = b_;
  return copy;
}

// ----------------------------------------------------------------- ReLU

Tensor ReLU::Forward(const Tensor& x, CacheMode mode) {
  Tensor y = x;
  Tensor mask(x.shape());
  for (int64_t i = 0; i < y.size(); ++i) {
    if (y[i] > 0.0f) {
      mask[i] = 1.0f;
    } else {
      y[i] = 0.0f;
    }
  }
  if (mode == CacheMode::kCache) {
    mask_ = std::move(mask);
  } else {
    mask_.Clear();
  }
  return y;
}

Tensor ReLU::Backward(const Tensor& grad_output) {
  DLSYS_CHECK(!mask_.empty(), "ReLU::Backward without cached forward");
  return Mul(grad_output, mask_);
}

// -------------------------------------------------------------- Sigmoid

Tensor Sigmoid::Forward(const Tensor& x, CacheMode mode) {
  Tensor y = x;
  for (int64_t i = 0; i < y.size(); ++i) {
    y[i] = 1.0f / (1.0f + std::exp(-y[i]));
  }
  if (mode == CacheMode::kCache) {
    y_cache_ = y;
  } else {
    y_cache_.Clear();
  }
  return y;
}

Tensor Sigmoid::Backward(const Tensor& grad_output) {
  DLSYS_CHECK(!y_cache_.empty(), "Sigmoid::Backward without cached forward");
  Tensor dx = grad_output;
  for (int64_t i = 0; i < dx.size(); ++i) {
    const float y = y_cache_[i];
    dx[i] *= y * (1.0f - y);
  }
  return dx;
}

// ----------------------------------------------------------------- Tanh

Tensor Tanh::Forward(const Tensor& x, CacheMode mode) {
  Tensor y = x;
  for (int64_t i = 0; i < y.size(); ++i) y[i] = std::tanh(y[i]);
  if (mode == CacheMode::kCache) {
    y_cache_ = y;
  } else {
    y_cache_.Clear();
  }
  return y;
}

Tensor Tanh::Backward(const Tensor& grad_output) {
  DLSYS_CHECK(!y_cache_.empty(), "Tanh::Backward without cached forward");
  Tensor dx = grad_output;
  for (int64_t i = 0; i < dx.size(); ++i) {
    const float y = y_cache_[i];
    dx[i] *= 1.0f - y * y;
  }
  return dx;
}

// -------------------------------------------------------------- Dropout

Dropout::Dropout(float p, uint64_t seed) : p_(p), rng_(seed), seed_(seed) {
  DLSYS_CHECK(p >= 0.0f && p < 1.0f, "Dropout p must be in [0, 1)");
}

std::string Dropout::name() const {
  return "dropout(" + std::to_string(p_) + ")";
}

Tensor Dropout::Forward(const Tensor& x, CacheMode mode) {
  if (mode != CacheMode::kCache || p_ == 0.0f) {
    // Inference (or cache-free probing): identity, nothing retained.
    mask_.Clear();
    return x;
  }
  const float keep = 1.0f - p_;
  Tensor mask(x.shape());
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask[i] = rng_.Bernoulli(keep) ? 1.0f / keep : 0.0f;
  }
  Tensor y = Mul(x, mask);
  mask_ = std::move(mask);
  return y;
}

Tensor Dropout::Backward(const Tensor& grad_output) {
  DLSYS_CHECK(!mask_.empty(), "Dropout::Backward without cached forward");
  return Mul(grad_output, mask_);
}

std::unique_ptr<Layer> Dropout::Clone() const {
  return std::make_unique<Dropout>(p_, seed_);
}

// -------------------------------------------------------------- Flatten

Tensor Flatten::Forward(const Tensor& x, CacheMode mode) {
  DLSYS_CHECK(x.rank() >= 2, "Flatten requires rank >= 2");
  if (mode == CacheMode::kCache) in_shape_ = x.shape();
  int64_t rest = 1;
  for (int64_t d = 1; d < x.rank(); ++d) rest *= x.dim(d);
  return x.Reshaped({x.dim(0), rest});
}

Tensor Flatten::Backward(const Tensor& grad_output) {
  DLSYS_CHECK(!in_shape_.empty(), "Flatten::Backward without cached forward");
  return grad_output.Reshaped(in_shape_);
}

// ---------------------------------------------------------- BatchNorm1d

BatchNorm1d::BatchNorm1d(int64_t features, float momentum, float epsilon)
    : features_(features),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_({features}, 1.0f),
      beta_({features}),
      dgamma_({features}),
      dbeta_({features}),
      running_mean_({features}),
      running_var_({features}, 1.0f) {}

std::string BatchNorm1d::name() const {
  return "batchnorm1d(" + std::to_string(features_) + ")";
}

void BatchNorm1d::Init(Rng* rng) {
  (void)rng;
  gamma_.Fill(1.0f);
  beta_.Fill(0.0f);
  running_mean_.Fill(0.0f);
  running_var_.Fill(1.0f);
}

Tensor BatchNorm1d::Forward(const Tensor& x, CacheMode mode) {
  DLSYS_CHECK(x.rank() == 2 && x.dim(1) == features_,
              "BatchNorm1d input shape mismatch");
  const int64_t n = x.dim(0);
  Tensor y(x.shape());
  if (mode == CacheMode::kCache) {
    Tensor mean({features_});
    Tensor var({features_});
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < features_; ++j) mean[j] += x[i * features_ + j];
    }
    Scale(1.0f / static_cast<float>(n), &mean);
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < features_; ++j) {
        const float d = x[i * features_ + j] - mean[j];
        var[j] += d * d;
      }
    }
    Scale(1.0f / static_cast<float>(n), &var);
    Tensor inv_std({features_});
    for (int64_t j = 0; j < features_; ++j) {
      inv_std[j] = 1.0f / std::sqrt(var[j] + epsilon_);
      running_mean_[j] =
          momentum_ * running_mean_[j] + (1.0f - momentum_) * mean[j];
      running_var_[j] =
          momentum_ * running_var_[j] + (1.0f - momentum_) * var[j];
    }
    Tensor xhat(x.shape());
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < features_; ++j) {
        const float xh = (x[i * features_ + j] - mean[j]) * inv_std[j];
        xhat[i * features_ + j] = xh;
        y[i * features_ + j] = gamma_[j] * xh + beta_[j];
      }
    }
    xhat_ = std::move(xhat);
    inv_std_ = std::move(inv_std);
  } else {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < features_; ++j) {
        const float inv = 1.0f / std::sqrt(running_var_[j] + epsilon_);
        y[i * features_ + j] =
            gamma_[j] * (x[i * features_ + j] - running_mean_[j]) * inv +
            beta_[j];
      }
    }
  }
  return y;
}

Tensor BatchNorm1d::Backward(const Tensor& grad_output) {
  DLSYS_CHECK(!xhat_.empty(), "BatchNorm1d::Backward without cached forward");
  const int64_t n = grad_output.dim(0);
  const float inv_n = 1.0f / static_cast<float>(n);
  Tensor dx(grad_output.shape());
  // Per-feature sums of dy and dy * xhat.
  Tensor sum_dy({features_});
  Tensor sum_dy_xhat({features_});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < features_; ++j) {
      const float dy = grad_output[i * features_ + j];
      sum_dy[j] += dy;
      sum_dy_xhat[j] += dy * xhat_[i * features_ + j];
    }
  }
  for (int64_t j = 0; j < features_; ++j) {
    dgamma_[j] += sum_dy_xhat[j];
    dbeta_[j] += sum_dy[j];
  }
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < features_; ++j) {
      const float dy = grad_output[i * features_ + j];
      const float xh = xhat_[i * features_ + j];
      dx[i * features_ + j] =
          gamma_[j] * inv_std_[j] *
          (dy - inv_n * sum_dy[j] - inv_n * xh * sum_dy_xhat[j]);
    }
  }
  return dx;
}

std::unique_ptr<Layer> BatchNorm1d::Clone() const {
  auto copy = std::make_unique<BatchNorm1d>(features_, momentum_, epsilon_);
  copy->gamma_ = gamma_;
  copy->beta_ = beta_;
  copy->running_mean_ = running_mean_;
  copy->running_var_ = running_var_;
  return copy;
}

}  // namespace dlsys
