#include "nn/batchnorm.hh"

#include <algorithm>
#include <cmath>

#include "common/parallel.hh"
#include "winograd/microkernel.hh"

namespace winomc::nn {

BatchNorm2d::BatchNorm2d(int channels_, float eps_, float momentum)
    : channels(channels_), eps(eps_), statMomentum(momentum),
      gamma_(size_t(channels_), 1.0f), beta_(size_t(channels_), 0.0f),
      dgamma(size_t(channels_), 0.0f), dbeta(size_t(channels_), 0.0f),
      running_mean(size_t(channels_), 0.0f),
      running_var(size_t(channels_), 1.0f),
      batch_mean(size_t(channels_), 0.0f),
      batch_inv_std(size_t(channels_), 1.0f)
{
    winomc_assert(channels_ > 0, "batchnorm needs channels");
}

Tensor
BatchNorm2d::forward(const Tensor &x, bool train)
{
    winomc_assert(x.c() == channels, "batchnorm channel mismatch");
    const int count = x.n() * x.h() * x.w();
    winomc_assert(count > 0, "empty batchnorm input");
    Tensor y(x.n(), x.c(), x.h(), x.w());
    if (train)
        xhat = Tensor(x.n(), x.c(), x.h(), x.w());
    const int nb = x.n();
    const size_t plane = size_t(x.h()) * x.w();
    const size_t batchStride = size_t(channels) * plane;
    const float *xp = x.data();
    float *yp = y.data();
    float *hp = train ? xhat.data() : nullptr;

    // Channels are independent: each task owns whole channels, so every
    // per-channel reduction keeps its serial (b, i, j) order and the
    // result is the same for any thread count.
    parallelFor(0, channels, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (int c = int(lo); c < int(hi); ++c) {
            const size_t off = size_t(c) * plane;
            float mean, inv_std;
            if (train) {
                double sum = 0.0, sum2 = 0.0;
                for (int b = 0; b < nb; ++b) {
                    const float *xc = xp + size_t(b) * batchStride + off;
                    for (size_t k = 0; k < plane; ++k) {
                        double v = xc[k];
                        sum += v;
                        sum2 += v * v;
                    }
                }
                mean = float(sum / count);
                float var = float(sum2 / count) - mean * mean;
                var = std::max(var, 0.0f);
                inv_std = 1.0f / std::sqrt(var + eps);

                running_mean[size_t(c)] =
                    (1.0f - statMomentum) * running_mean[size_t(c)] +
                    statMomentum * mean;
                running_var[size_t(c)] =
                    (1.0f - statMomentum) * running_var[size_t(c)] +
                    statMomentum * var;
                batch_mean[size_t(c)] = mean;
                batch_inv_std[size_t(c)] = inv_std;
            } else {
                mean = running_mean[size_t(c)];
                inv_std = 1.0f / std::sqrt(running_var[size_t(c)] + eps);
            }

            const float g = gamma_[size_t(c)];
            const float bt = beta_[size_t(c)];
            for (int b = 0; b < nb; ++b) {
                const size_t base = size_t(b) * batchStride + off;
                for (size_t k = 0; k < plane; ++k) {
                    float xn = (xp[base + k] - mean) * inv_std;
                    if (hp)
                        hp[base + k] = xn;
                    yp[base + k] = g * xn + bt;
                }
            }
        }
    });
    return y;
}

Tensor
BatchNorm2d::backward(const Tensor &dy)
{
    winomc_assert(dy.sameShape(xhat), "batchnorm backward shape");
    haveGrad = true;
    const int count = dy.n() * dy.h() * dy.w();
    Tensor dx(dy.n(), dy.c(), dy.h(), dy.w());
    const int nb = dy.n();
    const size_t plane = size_t(dy.h()) * dy.w();
    const size_t batchStride = size_t(channels) * plane;
    const float *gp = dy.data();
    const float *hp = xhat.data();
    float *dxp = dx.data();

    parallelFor(0, channels, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (int c = int(lo); c < int(hi); ++c) {
            const size_t off = size_t(c) * plane;
            // dgamma = sum dy * xhat; dbeta = sum dy.
            double sum_dy = 0.0, sum_dy_xhat = 0.0;
            for (int b = 0; b < nb; ++b) {
                const size_t base = size_t(b) * batchStride + off;
                for (size_t k = 0; k < plane; ++k) {
                    double g = gp[base + k];
                    sum_dy += g;
                    sum_dy_xhat += g * hp[base + k];
                }
            }
            dgamma[size_t(c)] += float(sum_dy_xhat);
            dbeta[size_t(c)] += float(sum_dy);

            // dx = gamma * inv_std / N *
            //      (N dy - sum dy - xhat * sum(dy * xhat)).
            const float scale = gamma_[size_t(c)] *
                                batch_inv_std[size_t(c)] / float(count);
            const float fcount = float(count);
            const float fsum = float(sum_dy);
            const float fsumx = float(sum_dy_xhat);
            for (int b = 0; b < nb; ++b) {
                const size_t base = size_t(b) * batchStride + off;
                for (size_t k = 0; k < plane; ++k)
                    dxp[base + k] = scale * (fcount * gp[base + k] - fsum -
                                             hp[base + k] * fsumx);
            }
        }
    });
    return dx;
}

void
BatchNorm2d::step(float lr)
{
    if (!haveGrad)
        return;
    haveGrad = false;
    const mk::MicroKernels &K = mk::kernels();
    K.axpy(gamma_.data(), -lr, dgamma.data(), channels);
    K.axpy(beta_.data(), -lr, dbeta.data(), channels);
    std::fill(dgamma.begin(), dgamma.end(), 0.0f);
    std::fill(dbeta.begin(), dbeta.end(), 0.0f);
}

} // namespace winomc::nn
