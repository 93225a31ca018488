#include "nn/basic_layers.hh"

#include <algorithm>
#include <cmath>

#include "common/parallel.hh"
#include "winograd/microkernel.hh"

namespace winomc::nn {

Tensor
ReLU::forward(const Tensor &x, bool train)
{
    Tensor y = x;
    if (train)
        mask = Tensor(x.n(), x.c(), x.h(), x.w());
    const mk::MicroKernels &K = mk::kernels();
    K.reluForward(y.data(), train ? mask.data() : nullptr, x.data(),
                  std::int64_t(x.size()));
    return y;
}

Tensor
ReLU::backward(const Tensor &dy)
{
    winomc_assert(dy.sameShape(mask), "ReLU backward shape mismatch");
    Tensor dx = dy;
    mk::kernels().mulPairwise(dx.data(), dy.data(), mask.data(),
                              std::int64_t(dy.size()));
    return dx;
}

Tensor
MaxPool2::forward(const Tensor &x, bool train)
{
    inH = x.h();
    inW = x.w();
    const int oh = x.h() / 2, ow = x.w() / 2;
    winomc_assert(oh > 0 && ow > 0, "maxpool2 input too small");
    Tensor y(x.n(), x.c(), oh, ow);
    if (train)
        argmax = Tensor(x.n(), x.c(), oh, ow);
    const int w = x.w();
    const size_t inPlane = size_t(x.h()) * w;
    const size_t outPlane = size_t(oh) * ow;
    const float *xp = x.data();
    float *yp = y.data();
    float *ap = train ? argmax.data() : nullptr;

    // (b, c) planes are independent; each task owns whole planes.
    parallelFor(0, std::int64_t(x.n()) * x.c(), 1,
                [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t bc = lo; bc < hi; ++bc) {
            const float *plane = xp + size_t(bc) * inPlane;
            float *yplane = yp + size_t(bc) * outPlane;
            float *aplane = ap ? ap + size_t(bc) * outPlane : nullptr;
            for (int i = 0; i < oh; ++i) {
                const float *r0 = plane + size_t(2 * i) * w;
                const float *r1 = r0 + w;
                for (int j = 0; j < ow; ++j) {
                    // Window order k = 0..3 is (0,0), (0,1), (1,0),
                    // (1,1); ties keep the first maximum.
                    const float v[4] = {r0[2 * j], r0[2 * j + 1],
                                        r1[2 * j], r1[2 * j + 1]};
                    float best = v[0];
                    int arg = 0;
                    for (int k = 1; k < 4; ++k) {
                        if (v[k] > best) {
                            best = v[k];
                            arg = k;
                        }
                    }
                    yplane[size_t(i) * ow + j] = best;
                    if (aplane)
                        aplane[size_t(i) * ow + j] = float(arg);
                }
            }
        }
    });
    return y;
}

Tensor
MaxPool2::backward(const Tensor &dy)
{
    winomc_assert(dy.sameShape(argmax), "maxpool2 backward shape");
    Tensor dx(dy.n(), dy.c(), inH, inW);
    const int oh = dy.h(), ow = dy.w();
    const size_t inPlane = size_t(inH) * inW;
    const size_t outPlane = size_t(oh) * ow;
    const float *gp = dy.data();
    const float *ap = argmax.data();
    float *dxp = dx.data();

    // Windows never overlap, so each dx element takes at most one add.
    // It stays an add onto the zeroed dx rather than a store: that
    // turns a -0.0 gradient into +0.0.
    parallelFor(0, std::int64_t(dy.n()) * dy.c(), 1,
                [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t bc = lo; bc < hi; ++bc) {
            const float *gplane = gp + size_t(bc) * outPlane;
            const float *aplane = ap + size_t(bc) * outPlane;
            float *dxplane = dxp + size_t(bc) * inPlane;
            for (int i = 0; i < oh; ++i) {
                for (int j = 0; j < ow; ++j) {
                    const int k = int(aplane[size_t(i) * ow + j]);
                    dxplane[size_t(2 * i + k / 2) * inW + 2 * j + k % 2] +=
                        gplane[size_t(i) * ow + j];
                }
            }
        }
    });
    return dx;
}

Tensor
AvgPool2::forward(const Tensor &x, bool)
{
    inH = x.h();
    inW = x.w();
    const int oh = x.h() / 2, ow = x.w() / 2;
    winomc_assert(oh > 0 && ow > 0, "avgpool2 input too small");
    Tensor y(x.n(), x.c(), oh, ow);
    const mk::MicroKernels &K = mk::kernels();
    const float *xp = x.data();
    float *yp = y.data();
    for (int b = 0; b < x.n(); ++b) {
        for (int c = 0; c < x.c(); ++c) {
            const float *plane =
                xp + ((size_t(b) * x.c() + c) * x.h()) * x.w();
            float *yplane = yp + ((size_t(b) * x.c() + c) * oh) * ow;
            for (int i = 0; i < oh; ++i)
                K.avgPool2Row(yplane + size_t(i) * ow,
                              plane + size_t(2 * i) * x.w(),
                              plane + size_t(2 * i + 1) * x.w(), ow);
        }
    }
    return y;
}

Tensor
AvgPool2::backward(const Tensor &dy)
{
    Tensor dx(dy.n(), dy.c(), inH, inW);
    const int oh = dy.h(), ow = dy.w();
    const float *gp = dy.data();
    float *dxp = dx.data();
    for (std::int64_t bc = 0; bc < std::int64_t(dy.n()) * dy.c(); ++bc) {
        const float *gplane = gp + size_t(bc) * oh * ow;
        float *dxplane = dxp + size_t(bc) * inH * inW;
        for (int i = 0; i < oh; ++i) {
            float *r0 = dxplane + size_t(2 * i) * inW;
            float *r1 = r0 + inW;
            for (int j = 0; j < ow; ++j) {
                const float g = 0.25f * gplane[size_t(i) * ow + j];
                r0[2 * j] = g;
                r0[2 * j + 1] = g;
                r1[2 * j] = g;
                r1[2 * j + 1] = g;
            }
        }
    }
    return dx;
}

Tensor
GlobalAvgPool::forward(const Tensor &x, bool)
{
    inH = x.h();
    inW = x.w();
    Tensor y(x.n(), x.c(), 1, 1);
    const float scale = 1.0f / float(x.h() * x.w());
    const mk::MicroKernels &K = mk::kernels();
    const std::int64_t plane = std::int64_t(x.h()) * x.w();
    const float *xp = x.data();
    for (int b = 0; b < x.n(); ++b)
        for (int c = 0; c < x.c(); ++c)
            y.at(b, c, 0, 0) =
                float(K.sumDouble(
                    xp + (size_t(b) * x.c() + c) * size_t(plane),
                    plane)) *
                scale;
    return y;
}

Tensor
GlobalAvgPool::backward(const Tensor &dy)
{
    Tensor dx(dy.n(), dy.c(), inH, inW);
    const float scale = 1.0f / float(inH * inW);
    const size_t plane = size_t(inH) * inW;
    const float *gp = dy.data();
    float *dxp = dx.data();
    for (size_t bc = 0; bc < size_t(dy.n()) * dy.c(); ++bc)
        std::fill_n(dxp + bc * plane, plane, gp[bc] * scale);
    return dx;
}

Dense::Dense(int in_features, int out_features, Rng &rng)
    : inF(in_features), outF(out_features), w(1, 1, out_features,
      in_features), b(1, 1, 1, out_features),
      dw(1, 1, out_features, in_features), db(1, 1, 1, out_features)
{
    float sigma = std::sqrt(2.0f / float(in_features));
    w.fillGaussian(rng, 0.0f, sigma);
}

Tensor
Dense::forward(const Tensor &x, bool train)
{
    winomc_assert(x.c() * x.h() * x.w() == inF, "Dense expected ", inF,
                  " features, got ", x.c() * x.h() * x.w());
    xc = x.c();
    xh = x.h();
    xw = x.w();
    // NCHW already stores each sample's (c, i, j) features contiguously
    // in flatten order, so x is read as the (n, inF) matrix directly.
    if (train) {
        cachedX.reshape(x.n(), 1, 1, inF);
        std::copy_n(x.data(), x.size(), cachedX.data());
    }

    Tensor y(x.n(), 1, 1, outF);
    const float *xp = x.data();
    const float *wp = w.data();
    const float *bp = b.data();
    float *yp = y.data();
    for (int n = 0; n < x.n(); ++n) {
        const float *xrow = xp + size_t(n) * inF;
        for (int o = 0; o < outF; ++o) {
            const float *wrow = wp + size_t(o) * inF;
            double acc = bp[o];
            for (int f = 0; f < inF; ++f)
                acc += double(wrow[f]) * xrow[f];
            yp[size_t(n) * outF + o] = float(acc);
        }
    }
    return y;
}

Tensor
Dense::backward(const Tensor &dy)
{
    const int B = dy.n();
    winomc_assert(dy.c() * dy.h() * dy.w() == outF && cachedX.n() == B,
                  "Dense backward shape mismatch");
    const float *gp = dy.data();
    const float *xp = cachedX.data();
    const float *wp = w.data();
    float *dwp = dw.data();
    float *dbp = db.data();
    for (int n = 0; n < B; ++n) {
        const float *xrow = xp + size_t(n) * inF;
        for (int o = 0; o < outF; ++o) {
            const float g = gp[size_t(n) * outF + o];
            dbp[o] += g;
            float *dwrow = dwp + size_t(o) * inF;
            for (int f = 0; f < inF; ++f)
                dwrow[f] += g * xrow[f];
        }
    }
    Tensor dx(B, xc, xh, xw);
    float *dxp = dx.data();
    for (int n = 0; n < B; ++n) {
        const float *grow = gp + size_t(n) * outF;
        for (int f = 0; f < inF; ++f) {
            double acc = 0.0;
            for (int o = 0; o < outF; ++o)
                acc += double(wp[size_t(o) * inF + f]) * grow[o];
            dxp[size_t(n) * inF + f] = float(acc);
        }
    }
    return dx;
}

void
Dense::step(float lr)
{
    // SGD axpy: w += (-lr) * dw. Bitwise identical to the legacy
    // `dw *= -lr; w += dw` sequence on the scalar path (sign flip and
    // subtract commute exactly in IEEE-754).
    const mk::MicroKernels &K = mk::kernels();
    K.axpy(w.data(), -lr, dw.data(), std::int64_t(w.size()));
    dw.fill(0.0f);
    K.axpy(b.data(), -lr, db.data(), std::int64_t(b.size()));
    db.fill(0.0f);
}

size_t
Dense::paramCount() const
{
    return w.size() + b.size();
}

} // namespace winomc::nn
