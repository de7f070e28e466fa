#include "src/nn/conv.h"

#include <cmath>

#include "src/obs/cost.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/simd/dispatch.h"
#include "src/tensor/ops.h"

namespace dlsys {

Conv2D::Conv2D(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t pad)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      w_({out_channels, in_channels, kernel, kernel}),
      b_({out_channels}),
      dw_({out_channels, in_channels, kernel, kernel}),
      db_({out_channels}) {
  DLSYS_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
              "Conv2D config must be positive");
  DLSYS_CHECK(pad >= 0, "Conv2D pad must be non-negative");
}

std::string Conv2D::name() const {
  return "conv2d(" + std::to_string(in_ch_) + "->" + std::to_string(out_ch_) +
         ", k=" + std::to_string(kernel_) + ", s=" + std::to_string(stride_) +
         ", p=" + std::to_string(pad_) + ")";
}

void Conv2D::Init(Rng* rng) {
  const float fan_in = static_cast<float>(in_ch_ * kernel_ * kernel_);
  const float bound = std::sqrt(6.0f / fan_in);
  w_.FillUniform(rng, -bound, bound);
  b_.Fill(0.0f);
}

Tensor Conv2D::Forward(const Tensor& x, CacheMode mode) {
  DLSYS_CHECK(x.rank() == 4 && x.dim(1) == in_ch_,
              "Conv2D input must be [N, in_ch, H, W]");
  const int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int64_t ho = OutExtent(h), wo = OutExtent(w);
  DLSYS_CHECK(ho > 0 && wo > 0, "Conv2D output extent must be positive");
  last_h_ = h;
  last_w_ = w;
  Tensor y({n, out_ch_, ho, wo});
  DLSYS_TRACE_SPAN_COST(
      "conv.forward", "kernel",
      2 * n * out_ch_ * ho * wo * in_ch_ * kernel_ * kernel_,
      4 * (x.size() + y.size() + w_.size()));
  // The engine's conv step per image: the zero-padded phase planes, then
  // the active table's implicit GEMM over all of the image's output rows.
  // Training and the engine run one kernel, so their outputs agree bit
  // for bit on any data. The batch is split over images, one fork-join
  // per forward; each range fills its own planes, so concurrent forwards
  // on one layer stay safe. Pool workers carry no phase (src/obs/cost.h),
  // so the batch's FLOPs and dispatch are counted here, on the caller.
  const ConvGeometry geom{in_ch_, out_ch_, kernel_, stride_, pad_,
                          h,      w,       ho,      wo};
  const std::vector<int64_t> tap_off = ConvTapOffsets(geom);
  const simd::KernelTable& kt = simd::ActiveKernels();
  simd::CountDispatch(kt);
  DLSYS_COST_FLOPS(2 * n * out_ch_ * geom.taps() * ho * wo);
  auto* kernel = kt.conv_gemm_bias_act_rows;
  ParallelFor(0, n, 1, [&](int64_t i0, int64_t i1) {
    std::vector<float> planes(static_cast<size_t>(geom.planes_elems()));
    for (int64_t img = i0; img < i1; ++img) {
      ConvPhasePlanesInto(x.data() + img * in_ch_ * h * w, geom,
                          planes.data());
      kernel(w_.data(), planes.data(), tap_off.data(), geom.phase_cols(),
             b_.data(), y.data() + img * out_ch_ * ho * wo, out_ch_,
             geom.taps(), ho, wo, 0, ho, /*relu=*/0);
    }
  });
  if (mode == CacheMode::kCache) {
    x_cache_ = x;
  } else {
    x_cache_.Clear();
  }
  return y;
}

Tensor Conv2D::Backward(const Tensor& grad_output) {
  DLSYS_CHECK(!x_cache_.empty(), "Conv2D::Backward without cached forward");
  const Tensor& x = x_cache_;
  const int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int64_t ho = grad_output.dim(2), wo = grad_output.dim(3);
  Tensor dx(x.shape());
  DLSYS_TRACE_SPAN_COST(
      "conv.backward", "kernel",
      6 * n * out_ch_ * ho * wo * in_ch_ * kernel_ * kernel_,
      4 * (x.size() + 2 * grad_output.size() + 2 * w_.size()));
  DLSYS_COST_FLOPS(6 * n * out_ch_ * ho * wo * in_ch_ * kernel_ * kernel_);
  const float* px = x.data();
  const float* pg = grad_output.data();
  const float* pw = w_.data();
  float* pdx = dx.data();
  float* pdw = dw_.data();
  float* pdb = db_.data();
  const int64_t in_ch = in_ch_, out_ch = out_ch_;
  const int64_t kernel = kernel_, stride = stride_, pad = pad_;
  // Three disjoint-output passes replace the serial fused loop. Each pass
  // partitions its own accumulator — dx by (image, in-channel) plane, dw
  // and db by out-channel — so no two workers ever touch the same element,
  // and each element receives its contributions in exactly the serial
  // nest's order (dx: ascending (oc, oy, ox, ky, kx); dw and db: ascending
  // (img, oy, ox)). The `g == 0` skip is kept in every pass: ReLU upstream
  // makes roughly half the gradient zeros, and skipping preserves the
  // serial path's operation sequence term for term.
  ParallelFor(0, n * in_ch, 1, [=](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t img = t / in_ch;
      const int64_t ic = t % in_ch;
      float* dxplane = pdx + (img * in_ch + ic) * h * w;
      for (int64_t oc = 0; oc < out_ch; ++oc) {
        const float* wplane = pw + (oc * in_ch + ic) * kernel * kernel;
        const float* gplane = pg + (img * out_ch + oc) * ho * wo;
        for (int64_t oy = 0; oy < ho; ++oy) {
          const int64_t iy0 = oy * stride - pad;
          for (int64_t ox = 0; ox < wo; ++ox) {
            const float g = gplane[oy * wo + ox];
            if (g == 0.0f) continue;
            const int64_t ix0 = ox * stride - pad;
            for (int64_t ky = 0; ky < kernel; ++ky) {
              const int64_t iy = iy0 + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < kernel; ++kx) {
                const int64_t ix = ix0 + kx;
                if (ix < 0 || ix >= w) continue;
                dxplane[iy * w + ix] += g * wplane[ky * kernel + kx];
              }
            }
          }
        }
      }
    }
  });
  ParallelFor(0, out_ch, 1, [=](int64_t c0, int64_t c1) {
    for (int64_t oc = c0; oc < c1; ++oc) {
      float* dwbase = pdw + oc * in_ch * kernel * kernel;
      for (int64_t img = 0; img < n; ++img) {
        const float* gplane = pg + (img * out_ch + oc) * ho * wo;
        for (int64_t oy = 0; oy < ho; ++oy) {
          const int64_t iy0 = oy * stride - pad;
          for (int64_t ox = 0; ox < wo; ++ox) {
            const float g = gplane[oy * wo + ox];
            if (g == 0.0f) continue;
            const int64_t ix0 = ox * stride - pad;
            for (int64_t ic = 0; ic < in_ch; ++ic) {
              const float* xplane = px + (img * in_ch + ic) * h * w;
              float* dwplane = dwbase + ic * kernel * kernel;
              for (int64_t ky = 0; ky < kernel; ++ky) {
                const int64_t iy = iy0 + ky;
                if (iy < 0 || iy >= h) continue;
                for (int64_t kx = 0; kx < kernel; ++kx) {
                  const int64_t ix = ix0 + kx;
                  if (ix < 0 || ix >= w) continue;
                  dwplane[ky * kernel + kx] += g * xplane[iy * w + ix];
                }
              }
            }
          }
        }
      }
    }
  });
  ParallelFor(0, out_ch, 1, [=](int64_t c0, int64_t c1) {
    for (int64_t oc = c0; oc < c1; ++oc) {
      for (int64_t img = 0; img < n; ++img) {
        const float* gplane = pg + (img * out_ch + oc) * ho * wo;
        for (int64_t i = 0; i < ho * wo; ++i) {
          const float g = gplane[i];
          if (g == 0.0f) continue;
          pdb[oc] += g;
        }
      }
    }
  });
  return dx;
}

int64_t Conv2D::FlopsPerExample() const {
  // 2 * out_positions * per-position multiply-adds; uses the extents of
  // the most recent forward (0 before any forward).
  if (last_h_ == 0) return 0;
  const int64_t ho = OutExtent(last_h_), wo = OutExtent(last_w_);
  return 2 * out_ch_ * ho * wo * in_ch_ * kernel_ * kernel_;
}

std::unique_ptr<Layer> Conv2D::Clone() const {
  auto copy = std::make_unique<Conv2D>(in_ch_, out_ch_, kernel_, stride_, pad_);
  copy->w_ = w_;
  copy->b_ = b_;
  return copy;
}

// ------------------------------------------------------------ MaxPool2D

MaxPool2D::MaxPool2D(int64_t window) : window_(window) {
  DLSYS_CHECK(window > 0, "MaxPool2D window must be positive");
}

std::string MaxPool2D::name() const {
  return "maxpool2d(" + std::to_string(window_) + ")";
}

Tensor MaxPool2D::Forward(const Tensor& x, CacheMode mode) {
  DLSYS_CHECK(x.rank() == 4, "MaxPool2D input must be [N, C, H, W]");
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t ho = h / window_, wo = w / window_;
  DLSYS_CHECK(ho > 0 && wo > 0, "MaxPool2D window larger than input");
  Tensor y({n, c, ho, wo});
  const float* px = x.data();
  float* py = y.data();
  // The engine's fold over every plane, on this thread.
  simd::ActiveKernels().max_pool(px, py, h, w, window_, 0, n * c);
  if (mode != CacheMode::kCache) {
    DropCache();
    return y;
  }
  // Each output's gradient goes to its window's first tap, in row-major
  // order, equal to the max: the tap the fold kept, since no earlier tap
  // compares equal to it. An all-NaN window (max -inf) has no such tap
  // and takes its first, so every index stays inside its window.
  in_shape_ = x.shape();
  argmax_.resize(static_cast<size_t>(n * c * ho * wo));
  int64_t oi = 0;
  for (int64_t t = 0; t < n * c; ++t) {
    for (int64_t oy = 0; oy < ho; ++oy) {
      for (int64_t ox = 0; ox < wo; ++ox, ++oi) {
        const int64_t first = (t * h + oy * window_) * w + ox * window_;
        int64_t tap = -1;
        for (int64_t ky = 0; ky < window_ && tap < 0; ++ky) {
          for (int64_t kx = 0; kx < window_; ++kx) {
            if (px[first + ky * w + kx] == py[oi]) {
              tap = first + ky * w + kx;
              break;
            }
          }
        }
        argmax_[static_cast<size_t>(oi)] = tap < 0 ? first : tap;
      }
    }
  }
  return y;
}

Tensor MaxPool2D::Backward(const Tensor& grad_output) {
  DLSYS_CHECK(!argmax_.empty(), "MaxPool2D::Backward without cached forward");
  Tensor dx(in_shape_);
  const float* pg = grad_output.data();
  const int64_t* pam = argmax_.data();
  float* pdx = dx.data();
  // Each argmax index stays inside its own (image, channel) plane, so
  // scattering plane by plane keeps workers on disjoint dx ranges; within
  // a plane the flat ascending-i order matches the serial loop.
  const int64_t plane = grad_output.dim(2) * grad_output.dim(3);
  ParallelFor(0, grad_output.dim(0) * grad_output.dim(1), 1,
              [=](int64_t t0, int64_t t1) {
                for (int64_t i = t0 * plane; i < t1 * plane; ++i) {
                  pdx[pam[i]] += pg[i];
                }
              });
  return dx;
}

}  // namespace dlsys
