/**
 * @file
 * Bitwise oracles for the layer kernels that run on the thread pool
 * with raw-pointer inner loops: BatchNorm2d, MaxPool2, AvgPool2 and
 * GlobalAvgPool backward, Dense, the direct convolution (forward and
 * weight gradient) and the Winograd weight transform and its adjoint.
 *
 * Each kernel is compared with memcmp against a test-local copy of the
 * plain serial loop it must reproduce: one thread, bounds-checked
 * element access, no vector code. Every comparison runs under the
 * scalar micro-kernel table and under Auto dispatch, at 1 and at 8
 * threads, on awkward shapes: channel counts that are not a multiple
 * of 16, 13x17 planes, batch 1 and 1x1 planes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "nn/basic_layers.hh"
#include "nn/batchnorm.hh"
#include "nn/conv_layer.hh"
#include "tensor/matrix.hh"
#include "winograd/algo.hh"
#include "winograd/conv.hh"
#include "winograd/microkernel.hh"
#include "winograd/tuner.hh"

using namespace winomc;

namespace {

// ---------------------------------------------------------------------
// Serial reference loops
// ---------------------------------------------------------------------

namespace ref {

struct BnState
{
    std::vector<float> gamma, beta, dgamma, dbeta;
    std::vector<float> runMean, runVar, batchInvStd;
    Tensor xhat;

    explicit BnState(int c)
        : gamma(size_t(c), 1.0f), beta(size_t(c), 0.0f),
          dgamma(size_t(c), 0.0f), dbeta(size_t(c), 0.0f),
          runMean(size_t(c), 0.0f), runVar(size_t(c), 1.0f),
          batchInvStd(size_t(c), 1.0f)
    {
    }
};

Tensor
bnForward(BnState &s, const Tensor &x, bool train, float eps = 1e-5f,
          float momentum = 0.1f)
{
    const int count = x.n() * x.h() * x.w();
    Tensor y(x.n(), x.c(), x.h(), x.w());
    if (train)
        s.xhat = Tensor(x.n(), x.c(), x.h(), x.w());
    for (int c = 0; c < x.c(); ++c) {
        float mean, inv_std;
        if (train) {
            double sum = 0.0, sum2 = 0.0;
            for (int b = 0; b < x.n(); ++b)
                for (int i = 0; i < x.h(); ++i)
                    for (int j = 0; j < x.w(); ++j) {
                        double v = x.at(b, c, i, j);
                        sum += v;
                        sum2 += v * v;
                    }
            mean = float(sum / count);
            float var = float(sum2 / count) - mean * mean;
            var = std::max(var, 0.0f);
            inv_std = 1.0f / std::sqrt(var + eps);
            s.runMean[size_t(c)] = (1.0f - momentum) * s.runMean[size_t(c)] +
                                   momentum * mean;
            s.runVar[size_t(c)] = (1.0f - momentum) * s.runVar[size_t(c)] +
                                  momentum * var;
            s.batchInvStd[size_t(c)] = inv_std;
        } else {
            mean = s.runMean[size_t(c)];
            inv_std = 1.0f / std::sqrt(s.runVar[size_t(c)] + eps);
        }
        for (int b = 0; b < x.n(); ++b)
            for (int i = 0; i < x.h(); ++i)
                for (int j = 0; j < x.w(); ++j) {
                    float xn = (x.at(b, c, i, j) - mean) * inv_std;
                    if (train)
                        s.xhat.at(b, c, i, j) = xn;
                    y.at(b, c, i, j) =
                        s.gamma[size_t(c)] * xn + s.beta[size_t(c)];
                }
    }
    return y;
}

Tensor
bnBackward(BnState &s, const Tensor &dy)
{
    const int count = dy.n() * dy.h() * dy.w();
    Tensor dx(dy.n(), dy.c(), dy.h(), dy.w());
    for (int c = 0; c < dy.c(); ++c) {
        double sum_dy = 0.0, sum_dy_xhat = 0.0;
        for (int b = 0; b < dy.n(); ++b)
            for (int i = 0; i < dy.h(); ++i)
                for (int j = 0; j < dy.w(); ++j) {
                    double g = dy.at(b, c, i, j);
                    sum_dy += g;
                    sum_dy_xhat += g * s.xhat.at(b, c, i, j);
                }
        s.dgamma[size_t(c)] += float(sum_dy_xhat);
        s.dbeta[size_t(c)] += float(sum_dy);
        const float scale = s.gamma[size_t(c)] * s.batchInvStd[size_t(c)] /
                            float(count);
        for (int b = 0; b < dy.n(); ++b)
            for (int i = 0; i < dy.h(); ++i)
                for (int j = 0; j < dy.w(); ++j)
                    dx.at(b, c, i, j) =
                        scale * (float(count) * dy.at(b, c, i, j) -
                                 float(sum_dy) -
                                 s.xhat.at(b, c, i, j) *
                                     float(sum_dy_xhat));
    }
    return dx;
}

Tensor
maxPoolForward(const Tensor &x, Tensor &argmax)
{
    const int oh = x.h() / 2, ow = x.w() / 2;
    Tensor y(x.n(), x.c(), oh, ow);
    argmax = Tensor(x.n(), x.c(), oh, ow);
    for (int b = 0; b < x.n(); ++b)
        for (int c = 0; c < x.c(); ++c)
            for (int i = 0; i < oh; ++i)
                for (int j = 0; j < ow; ++j) {
                    float best = x.at(b, c, 2 * i, 2 * j);
                    int arg = 0;
                    for (int k = 1; k < 4; ++k) {
                        float v = x.at(b, c, 2 * i + k / 2, 2 * j + k % 2);
                        if (v > best) {
                            best = v;
                            arg = k;
                        }
                    }
                    y.at(b, c, i, j) = best;
                    argmax.at(b, c, i, j) = float(arg);
                }
    return y;
}

Tensor
maxPoolBackward(const Tensor &dy, const Tensor &argmax, int inH, int inW)
{
    Tensor dx(dy.n(), dy.c(), inH, inW);
    for (int b = 0; b < dy.n(); ++b)
        for (int c = 0; c < dy.c(); ++c)
            for (int i = 0; i < dy.h(); ++i)
                for (int j = 0; j < dy.w(); ++j) {
                    int k = int(argmax.at(b, c, i, j));
                    dx.at(b, c, 2 * i + k / 2, 2 * j + k % 2) +=
                        dy.at(b, c, i, j);
                }
    return dx;
}

Tensor
avgPoolBackward(const Tensor &dy, int inH, int inW)
{
    Tensor dx(dy.n(), dy.c(), inH, inW);
    for (int b = 0; b < dy.n(); ++b)
        for (int c = 0; c < dy.c(); ++c)
            for (int i = 0; i < dy.h(); ++i)
                for (int j = 0; j < dy.w(); ++j) {
                    float g = 0.25f * dy.at(b, c, i, j);
                    dx.at(b, c, 2 * i, 2 * j) = g;
                    dx.at(b, c, 2 * i, 2 * j + 1) = g;
                    dx.at(b, c, 2 * i + 1, 2 * j) = g;
                    dx.at(b, c, 2 * i + 1, 2 * j + 1) = g;
                }
    return dx;
}

Tensor
gapBackward(const Tensor &dy, int inH, int inW)
{
    Tensor dx(dy.n(), dy.c(), inH, inW);
    const float scale = 1.0f / float(inH * inW);
    for (int b = 0; b < dy.n(); ++b)
        for (int c = 0; c < dy.c(); ++c)
            for (int i = 0; i < inH; ++i)
                for (int j = 0; j < inW; ++j)
                    dx.at(b, c, i, j) = dy.at(b, c, 0, 0) * scale;
    return dx;
}

/** Dense forward on (out, in) weights w and (1, 1, 1, out) bias. */
Tensor
denseForward(const Tensor &w, const Tensor &bias, const Tensor &x)
{
    const int inF = w.w(), outF = w.h();
    Tensor flat(x.n(), 1, 1, inF);
    for (int n = 0; n < x.n(); ++n) {
        int f = 0;
        for (int c = 0; c < x.c(); ++c)
            for (int i = 0; i < x.h(); ++i)
                for (int j = 0; j < x.w(); ++j)
                    flat.at(n, 0, 0, f++) = x.at(n, c, i, j);
    }
    Tensor y(x.n(), 1, 1, outF);
    for (int n = 0; n < x.n(); ++n)
        for (int o = 0; o < outF; ++o) {
            double acc = bias.at(0, 0, 0, o);
            for (int f = 0; f < inF; ++f)
                acc += double(w.at(0, 0, o, f)) * flat.at(n, 0, 0, f);
            y.at(n, 0, 0, o) = float(acc);
        }
    return y;
}

/** Dense backward: accumulates into dw/db, returns dx shaped like x. */
Tensor
denseBackward(const Tensor &w, Tensor &dw, Tensor &db, const Tensor &x,
              const Tensor &dy)
{
    const int outF = w.h();
    for (int n = 0; n < dy.n(); ++n)
        for (int o = 0; o < outF; ++o) {
            float g = dy.at(n, 0, 0, o);
            db.at(0, 0, 0, o) += g;
            int f = 0;
            for (int c = 0; c < x.c(); ++c)
                for (int i = 0; i < x.h(); ++i)
                    for (int j = 0; j < x.w(); ++j, ++f)
                        dw.at(0, 0, o, f) += g * x.at(n, c, i, j);
        }
    Tensor dx(x.n(), x.c(), x.h(), x.w());
    for (int n = 0; n < dy.n(); ++n) {
        int f = 0;
        for (int c = 0; c < x.c(); ++c)
            for (int i = 0; i < x.h(); ++i)
                for (int j = 0; j < x.w(); ++j) {
                    double acc = 0.0;
                    for (int o = 0; o < outF; ++o)
                        acc += double(w.at(0, 0, o, f)) * dy.at(n, 0, 0, o);
                    dx.at(n, c, i, j) = float(acc);
                    ++f;
                }
    }
    return dx;
}

/** Scalar direct convolution: one double accumulator per output,
 *  (i, ky, kx) order, a bounds branch per tap. */
Tensor
directForwardEx(const Tensor &x, const Tensor &w, int strideH, int strideW,
                int padH, int padW)
{
    const int kh = w.h(), kw = w.w();
    const int oh = (x.h() + 2 * padH - kh) / strideH + 1;
    const int ow = (x.w() + 2 * padW - kw) / strideW + 1;
    Tensor y(x.n(), w.n(), oh, ow);
    for (int b = 0; b < x.n(); ++b)
        for (int j = 0; j < w.n(); ++j)
            for (int oy = 0; oy < oh; ++oy)
                for (int ox = 0; ox < ow; ++ox) {
                    double acc = 0.0;
                    for (int i = 0; i < x.c(); ++i)
                        for (int ky = 0; ky < kh; ++ky) {
                            const int iy = oy * strideH + ky - padH;
                            if (iy < 0 || iy >= x.h())
                                continue;
                            for (int kx = 0; kx < kw; ++kx) {
                                const int ix = ox * strideW + kx - padW;
                                if (ix < 0 || ix >= x.w())
                                    continue;
                                acc += double(w.at(j, i, ky, kx)) *
                                       x.at(b, i, iy, ix);
                            }
                        }
                    y.at(b, j, oy, ox) = float(acc);
                }
    return y;
}

Tensor
directGradWeights(const Tensor &x, const Tensor &dy, int r)
{
    const int pad = (r - 1) / 2;
    Tensor dw(dy.c(), x.c(), r, r);
    for (int j = 0; j < dy.c(); ++j)
        for (int i = 0; i < x.c(); ++i)
            for (int ky = 0; ky < r; ++ky)
                for (int kx = 0; kx < r; ++kx) {
                    double acc = 0.0;
                    for (int b = 0; b < x.n(); ++b)
                        for (int oy = 0; oy < x.h(); ++oy) {
                            int iy = oy + ky - pad;
                            if (iy < 0 || iy >= x.h())
                                continue;
                            for (int ox = 0; ox < x.w(); ++ox) {
                                int ix = ox + kx - pad;
                                if (ix < 0 || ix >= x.w())
                                    continue;
                                acc += double(dy.at(b, j, oy, ox)) *
                                       x.at(b, i, iy, ix);
                            }
                        }
                    dw.at(j, i, ky, kx) = float(acc);
                }
    return dw;
}

/** out (a x b) = L (a x n) * in (n x k) * R (k x b), in double. */
void
sandwich(const Matrix &L, const double *in, int n, int k, const Matrix &R,
         double *out)
{
    const int a = L.rows();
    const int b = R.cols();
    std::array<double, 64> tmp{};
    for (int i = 0; i < a; ++i)
        for (int j = 0; j < k; ++j) {
            double acc = 0.0;
            for (int t = 0; t < n; ++t)
                acc += L.at(i, t) * in[t * k + j];
            tmp[size_t(i * k + j)] = acc;
        }
    for (int i = 0; i < a; ++i)
        for (int j = 0; j < b; ++j) {
            double acc = 0.0;
            for (int t = 0; t < k; ++t)
                acc += tmp[size_t(i * k + t)] * R.at(t, j);
            out[i * b + j] = acc;
        }
}

WinoWeights
transformWeights(const Tensor &w, const WinogradAlgo &algo)
{
    const int a = algo.alpha, r = algo.r;
    WinoWeights out(a, w.n(), w.c());
    std::array<double, 64> ker{}, tw{};
    for (int j = 0; j < w.n(); ++j)
        for (int i = 0; i < w.c(); ++i) {
            for (int y = 0; y < r; ++y)
                for (int x = 0; x < r; ++x)
                    ker[size_t(y * r + x)] = double(w.at(j, i, y, x));
            sandwich(algo.G, ker.data(), r, r, algo.GT, tw.data());
            for (int uv = 0; uv < a * a; ++uv)
                out.at(uv, j, i) = float(tw[size_t(uv)]);
        }
    return out;
}

Tensor
transformWeightsAdjoint(const WinoWeights &dW, const WinogradAlgo &algo)
{
    const int a = algo.alpha, r = algo.r;
    Tensor dw(dW.outChannels(), dW.inChannels(), r, r);
    std::array<double, 64> tile{}, sp{};
    for (int j = 0; j < dW.outChannels(); ++j)
        for (int i = 0; i < dW.inChannels(); ++i) {
            for (int uv = 0; uv < a * a; ++uv)
                tile[size_t(uv)] = double(dW.at(uv, j, i));
            sandwich(algo.GT, tile.data(), a, a, algo.G, sp.data());
            for (int y = 0; y < r; ++y)
                for (int x = 0; x < r; ++x)
                    dw.at(j, i, y, x) = float(sp[size_t(y * r + x)]);
        }
    return dw;
}

} // namespace ref

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

Tensor
randomTensor(int n, int c, int h, int w, uint64_t seed)
{
    Rng rng(seed);
    Tensor t(n, c, h, w);
    t.fillUniform(rng);
    return t;
}

/** First differing element, or -1 when the buffers are bitwise equal. */
long
firstMismatch(const float *a, const float *b, size_t n)
{
    if (std::memcmp(a, b, n * sizeof(float)) == 0)
        return -1;
    for (size_t k = 0; k < n; ++k)
        if (std::memcmp(a + k, b + k, sizeof(float)) != 0)
            return long(k);
    return -1;
}

#define EXPECT_BITWISE(got, want, what)                                    \
    do {                                                                   \
        ASSERT_EQ((got).size(), (want).size()) << (what);                  \
        const long at_ = firstMismatch((got).data(), (want).data(),        \
                                       (want).size());                     \
        EXPECT_EQ(at_, -1) << (what) << ": first mismatch at flat index " \
                           << at_ << " under " << config();               \
    } while (0)

struct Config
{
    mk::Isa isa;
    int threads;
};

const Config kConfigs[] = {
    {mk::Isa::Scalar, 1},
    {mk::Isa::Scalar, 8},
    {mk::Isa::Auto, 1},
    {mk::Isa::Auto, 8},
};

class KernelOracle : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        mk::setIsa(mk::Isa::Auto);
        ThreadPool::global().setThreadCount(0);
    }

    /** Run body once per (ISA, thread count) configuration. */
    void
    forEachConfig(const std::function<void()> &body)
    {
        for (const Config &c : kConfigs) {
            mk::setIsa(c.isa);
            ThreadPool::global().setThreadCount(c.threads);
            cur = c;
            body();
        }
    }

    std::string
    config() const
    {
        return std::string(mk::kernels().name) + " x " +
               std::to_string(cur.threads) + " thread(s)";
    }

    Config cur{mk::Isa::Auto, 1};
};

struct Shape
{
    int n, c, h, w;
};

// Channel counts off every vector width, 13x17 planes, batch 1 and
// 1x1 planes.
const Shape kLayerShapes[] = {
    {1, 5, 13, 17},
    {3, 19, 13, 17},
    {2, 7, 1, 1},
    {1, 3, 1, 1},
    {4, 33, 8, 8},
};

// ---------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------

TEST_F(KernelOracle, BatchNormTrainEvalAndBackwardMatchSerialLoops)
{
    for (const Shape &s : kLayerShapes) {
        const Tensor x = randomTensor(s.n, s.c, s.h, s.w, 11 + s.c);
        const Tensor x2 = randomTensor(s.n, s.c, s.h, s.w, 12 + s.c);
        const Tensor dy = randomTensor(s.n, s.c, s.h, s.w, 13 + s.c);

        // Two train steps (running stats compound), backward with an
        // accumulated gradient, then an eval forward on the stats.
        ref::BnState st(s.c);
        const Tensor yRef = ref::bnForward(st, x, true);
        const Tensor yRef2 = ref::bnForward(st, x2, true);
        const Tensor dxRef = ref::bnBackward(st, dy);
        const Tensor dxRef2 = ref::bnBackward(st, dy);
        const Tensor yEvalRef = ref::bnForward(st, x, false);

        forEachConfig([&] {
            nn::BatchNorm2d bn(s.c);
            const Tensor y = bn.forward(x, true);
            const Tensor y2 = bn.forward(x2, true);
            const Tensor dx = bn.backward(dy);
            const Tensor dx2 = bn.backward(dy);
            const Tensor yEval = bn.forward(x, false);
            EXPECT_BITWISE(y, yRef, "bn train forward");
            EXPECT_BITWISE(y2, yRef2, "bn second train forward");
            EXPECT_BITWISE(dx, dxRef, "bn backward");
            EXPECT_BITWISE(dx2, dxRef2, "bn second backward");
            EXPECT_BITWISE(yEval, yEvalRef, "bn eval forward");
            std::vector<float> rm, rv, dg, db;
            for (int c = 0; c < s.c; ++c) {
                rm.push_back(bn.runningMean(c));
                rv.push_back(bn.runningVar(c));
                dg.push_back(bn.gammaGrad(c));
                db.push_back(bn.betaGrad(c));
            }
            EXPECT_BITWISE(rm, st.runMean, "bn running mean");
            EXPECT_BITWISE(rv, st.runVar, "bn running var");
            EXPECT_BITWISE(dg, st.dgamma, "bn dgamma");
            EXPECT_BITWISE(db, st.dbeta, "bn dbeta");
        });
    }
}

// ---------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------

TEST_F(KernelOracle, MaxPoolForwardAndBackwardMatchSerialLoops)
{
    for (Shape s : kLayerShapes) {
        s.h = std::max(s.h, 2); // a 2x2 window needs at least 2x2
        s.w = std::max(s.w, 3); // odd width: trailing column dropped
        Tensor x = randomTensor(s.n, s.c, s.h, s.w, 21 + s.c);
        // Ties and signed zeros: the first maximum of a tied window
        // must win, and a -0.0 gradient must land as +0.0 on the
        // zeroed dx.
        x.data()[0] = x.data()[1] = 2.0f;
        Tensor dy = randomTensor(s.n, s.c, s.h / 2, s.w / 2, 22 + s.c);
        if (dy.size() > 1)
            dy.data()[1] = -0.0f;

        Tensor argmax;
        const Tensor yRef = ref::maxPoolForward(x, argmax);
        const Tensor dxRef = ref::maxPoolBackward(dy, argmax, s.h, s.w);

        forEachConfig([&] {
            nn::MaxPool2 pool;
            const Tensor y = pool.forward(x, true);
            const Tensor dx = pool.backward(dy);
            EXPECT_BITWISE(y, yRef, "maxpool forward");
            EXPECT_BITWISE(dx, dxRef, "maxpool backward");
            nn::MaxPool2 evalPool;
            EXPECT_BITWISE(evalPool.forward(x, false), yRef,
                           "maxpool eval forward");
        });
    }
}

TEST_F(KernelOracle, AvgPoolAndGlobalPoolBackwardMatchSerialLoops)
{
    for (Shape s : kLayerShapes) {
        s.h = std::max(s.h, 3);
        s.w = std::max(s.w, 2);
        const Tensor x = randomTensor(s.n, s.c, s.h, s.w, 31 + s.c);
        const Tensor dyAvg =
            randomTensor(s.n, s.c, s.h / 2, s.w / 2, 32 + s.c);
        const Tensor dyGap = randomTensor(s.n, s.c, 1, 1, 33 + s.c);
        const Tensor avgRef = ref::avgPoolBackward(dyAvg, s.h, s.w);
        const Tensor gapRef = ref::gapBackward(dyGap, s.h, s.w);

        forEachConfig([&] {
            nn::AvgPool2 avg;
            avg.forward(x, true);
            EXPECT_BITWISE(avg.backward(dyAvg), avgRef, "avgpool backward");
            nn::GlobalAvgPool gap;
            gap.forward(x, true);
            EXPECT_BITWISE(gap.backward(dyGap), gapRef, "gap backward");
        });
    }
}

// ---------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------

TEST_F(KernelOracle, DenseForwardBackwardAndStepMatchSerialLoops)
{
    for (const Shape &s : kLayerShapes) {
        const int inF = s.c * s.h * s.w;
        const int outF = 10;
        const Tensor x = randomTensor(s.n, s.c, s.h, s.w, 41 + s.c);
        const Tensor dy = randomTensor(s.n, 1, 1, outF, 42 + s.c);

        // Dense draws its weights from the rng exactly like this.
        Tensor w(1, 1, outF, inF), bias(1, 1, 1, outF);
        Tensor dw(1, 1, outF, inF), db(1, 1, 1, outF);
        {
            Rng rng(43);
            w.fillGaussian(rng, 0.0f, std::sqrt(2.0f / float(inF)));
        }
        const Tensor yRef = ref::denseForward(w, bias, x);
        const Tensor dxRef = ref::denseBackward(w, dw, db, x, dy);
        // step(1): w - dw rounds once whether or not axpy fuses.
        Tensor w1 = w, b1 = bias;
        w1 -= dw;
        b1 -= db;
        const Tensor yStepRef = ref::denseForward(w1, b1, x);

        forEachConfig([&] {
            Rng rng(43);
            nn::Dense dense(inF, outF, rng);
            const Tensor y = dense.forward(x, true);
            const Tensor dx = dense.backward(dy);
            dense.step(1.0f);
            const Tensor yStep = dense.forward(x, false);
            EXPECT_BITWISE(y, yRef, "dense forward");
            EXPECT_BITWISE(dx, dxRef, "dense backward");
            EXPECT_BITWISE(yStep, yStepRef, "dense forward after step");
        });
    }
}

// ---------------------------------------------------------------------
// Direct convolution
// ---------------------------------------------------------------------

TEST_F(KernelOracle, DirectGradWeightsMatchesSerialLoop)
{
    struct Case
    {
        int n, ci, co, h, w, r;
    };
    const Case cases[] = {
        {1, 5, 19, 13, 17, 3}, // ragged 8/4/2/1 output-channel blocks
        {2, 3, 32, 13, 17, 3}, // the C=3 stem
        {2, 7, 21, 1, 1, 3},   // 1x1 plane: only the centre tap lands
        {3, 4, 11, 13, 17, 5},
        {1, 6, 9, 5, 4, 1},
    };
    for (const Case &c : cases) {
        const Tensor x = randomTensor(c.n, c.ci, c.h, c.w, 51 + c.co);
        const Tensor dy = randomTensor(c.n, c.co, c.h, c.w, 52 + c.co);
        const Tensor want = ref::directGradWeights(x, dy, c.r);
        forEachConfig([&] {
            EXPECT_BITWISE(directConvGradWeights(x, dy, c.r), want,
                           "direct grad weights");
        });
    }
}

TEST_F(KernelOracle, DirectForwardExUnitStrideRectAndAsymmetricPad)
{
    struct Case
    {
        int kh, kw, padH, padW;
    };
    // Rectangular kernels, asymmetric padding, and padding wider than
    // the kernel reach (whole rows and columns of zero taps).
    const Case cases[] = {
        {1, 3, 0, 1}, {3, 5, 1, 2}, {3, 5, 2, 0},
        {5, 3, 0, 3}, {3, 3, 1, 1}, {1, 1, 0, 0},
    };
    const Tensor x = randomTensor(2, 5, 13, 17, 61);
    for (const Case &c : cases) {
        const Tensor w = randomTensor(19, 5, c.kh, c.kw, 62 + c.kw);
        const Tensor want =
            ref::directForwardEx(x, w, 1, 1, c.padH, c.padW);
        forEachConfig([&] {
            EXPECT_BITWISE(directConvForwardEx(x, w, 1, 1, c.padH, c.padW),
                           want, "unit-stride direct forward");
        });
    }
    // 1x1 plane, batch 1.
    const Tensor x1 = randomTensor(1, 3, 1, 1, 63);
    const Tensor w1 = randomTensor(7, 3, 3, 3, 64);
    const Tensor want1 = ref::directForwardEx(x1, w1, 1, 1, 1, 1);
    forEachConfig([&] {
        EXPECT_BITWISE(directConvForwardEx(x1, w1, 1, 1, 1, 1), want1,
                       "1x1-plane direct forward");
        EXPECT_BITWISE(directConvForward(x1, w1), want1,
                       "1x1-plane same-padding direct forward");
    });
}

TEST_F(KernelOracle, DirectForwardExStridedMatchesScalarLoop)
{
    const Tensor x = randomTensor(2, 5, 13, 17, 71);
    const Tensor w = randomTensor(19, 5, 3, 5, 72);
    const int strides[][2] = {{2, 2}, {2, 1}, {1, 2}, {3, 2}};
    for (const auto &st : strides) {
        const Tensor want = ref::directForwardEx(x, w, st[0], st[1], 1, 2);
        forEachConfig([&] {
            EXPECT_BITWISE(directConvForwardEx(x, w, st[0], st[1], 1, 2),
                           want, "strided direct forward");
        });
    }
}

TEST_F(KernelOracle, AutoDirectStemForwardMatchesScalarLoop)
{
    tune::setTuneMode(tune::TuneMode::Analytic);
    tune::setTuneCachePath(nullptr);
    tune::resetTunerForTest();
    const Tensor x = randomTensor(2, 3, 32, 32, 81);
    forEachConfig([&] {
        Rng rng(82);
        nn::ConvLayer stem(3, 32, 3, 3, 1, 1, rng);
        const Tensor y = stem.forward(x, true);
        ASSERT_EQ(stem.autoChoice().kind, tune::AlgoKind::Direct)
            << "the C=3 stem should tune to direct";
        const Tensor want =
            ref::directForwardEx(x, stem.spatialWeights(), 1, 1, 1, 1);
        EXPECT_BITWISE(y, want, "Auto direct stem forward");
    });
    tune::resetTunerForTest();
}

// ---------------------------------------------------------------------
// Winograd weight transforms
// ---------------------------------------------------------------------

TEST_F(KernelOracle, WeightTransformAndAdjointMatchSerialLoops)
{
    for (const WinogradAlgo *algo :
         {&algoF2x2_3x3(), &algoF4x4_3x3(), &algoF6x6_3x3(),
          &algoF2x2_5x5()}) {
        const Tensor w = randomTensor(19, 5, algo->r, algo->r, 91);
        WinoWeights dW(algo->alpha, 19, 5);
        {
            Rng rng(92);
            for (size_t k = 0; k < dW.size(); ++k)
                dW.raw()[k] = rng.uniform() * 2.0f - 1.0f;
        }
        const WinoWeights wantW = ref::transformWeights(w, *algo);
        const Tensor wantDw = ref::transformWeightsAdjoint(dW, *algo);
        forEachConfig([&] {
            const WinoWeights gotW = transformWeights(w, *algo);
            ASSERT_EQ(gotW.size(), wantW.size());
            EXPECT_EQ(firstMismatch(gotW.raw(), wantW.raw(), wantW.size()),
                      -1)
                << "transformWeights m=" << algo->m << " under "
                << config();
            Tensor gotDw(19, 5, algo->r, algo->r);
            transformWeightsAdjointInto(dW, *algo, gotDw);
            EXPECT_BITWISE(gotDw, wantDw, "transformWeightsAdjointInto");
        });
    }
}

} // namespace
