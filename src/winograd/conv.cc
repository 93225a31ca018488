#include "winograd/conv.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <vector>

#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/perfcounters.hh"
#include "common/trace.hh"
#include "winograd/microkernel.hh"
#include "winograd/plan.hh"

namespace winomc {

namespace {

constexpr int kMaxAlpha = 8;

/**
 * Cache/register blocking for the per-uv GEMMs of Equation (2).
 *
 * Each uv slice is a dense (channels) x (batch*tiles) matrix product.
 * The kernels walk the (batch*tiles) axis in panels of kKBlock floats
 * (so a panel of every streamed row stays L1-resident), process output
 * channels in register blocks of kJBlock rows (one input-row read feeds
 * kJBlock outputs), and tile reduction outputs in kIBlock columns so
 * the accumulator block lives on the stack. The innermost panels are
 * the mk:: micro-kernels, vectorized along the unit-stride tile axis.
 */
constexpr int kKBlock = 256;
constexpr int kJBlock = 4;
constexpr int kIBlock = 16;
constexpr int kIUnroll = 8;

/** SoA scratch: kMaxAlpha^2 transform entries x one tile panel. */
using SoaPanel =
    std::array<double, kMaxAlpha * kMaxAlpha * mk::kTilePanel>;

/**
 * out (a x b) = L (a x n) * in (n x k) * R (k x b), all small dense,
 * row-major, double precision. Buffers are caller-provided flat
 * arrays. Still used by the per-(j,i) weight transforms, whose tiny
 * extent does not amortize a tile panel.
 */
void
sandwich(const double *L, int a, int n, const double *in, int k,
         const double *R, int b, double *out)
{
    std::array<double, kMaxAlpha * kMaxAlpha> tmp{};
    // tmp = L * in (a x k)
    for (int i = 0; i < a; ++i) {
        for (int j = 0; j < k; ++j) {
            double acc = 0.0;
            for (int t = 0; t < n; ++t)
                acc += L[i * n + t] * in[t * k + j];
            tmp[size_t(i * k + j)] = acc;
        }
    }
    // out = tmp * R (a x b)
    for (int i = 0; i < a; ++i) {
        for (int j = 0; j < b; ++j) {
            double acc = 0.0;
            for (int t = 0; t < k; ++t)
                acc += tmp[size_t(i * k + t)] * R[t * b + j];
            out[i * b + j] = acc;
        }
    }
}

/**
 * RAII throughput probe: when metrics are on, times the enclosing
 * stage and publishes kernel.<stage>.gflops plus the vector/scalar
 * time split. Costs one relaxed atomic load when metrics are off.
 */
class StageTimer
{
  public:
    StageTimer(const char *stage, double flops)
        : stage(stage), flops(flops), active(metrics::enabled())
    {
        if (active) {
            start = std::chrono::steady_clock::now();
            perf0 = perf::read();
        }
    }
    ~StageTimer()
    {
        if (active) {
            std::chrono::duration<double> d =
                std::chrono::steady_clock::now() - start;
            mk::publishStageMetrics(stage, d.count(), flops);
            // This thread's hardware-counter share of the stage
            // (perf.<stage>.*); joins kernel.<stage>.{seconds,flops}
            // in the winomc-report roofline.
            perf::publishStage(stage, perf0);
        }
    }
    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

  private:
    const char *stage;
    double flops;
    bool active;
    std::chrono::steady_clock::time_point start;
    perf::Reading perf0;
};

} // namespace

void
transformInputInto(const Tensor &x, const WinogradAlgo &algo,
                   WinoTiles &out)
{
    WINOMC_SPAN("wino.xform.input", "wino");
    winomc_assert(algo.alpha <= kMaxAlpha, "alpha too large");
    TileGrid grid(x.h(), x.w(), algo);
    winomc_assert(out.alphaEdge() == algo.alpha &&
                  out.channels() == x.c() && out.batch() == x.n() &&
                  out.tiles() == grid.tiles(),
                  "transformInputInto destination shape mismatch");

    const int a = algo.alpha;
    const int nc = x.c();
    const int h = x.h();
    const int w = x.w();
    const int nt = grid.tiles();
    const auto &K = mk::kernels();
    const double *BT = algo.BT.data();
    const double *B = algo.B.data();
    const float *xbase = x.data();
    const size_t uvStr = out.uvStride();
    StageTimer probe("xform.input",
                     4.0 * a * a * a * double(x.n()) * nc * nt);

    // Each (batch, channel) plane is independent; workers keep their
    // SoA scratch panel on the stack so the loop never allocates. The
    // spatial side is gathered scalar (strided, padded); the transform
    // itself runs vectorized across the panel's tiles.
    parallelFor(0, std::int64_t(x.n()) * nc, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        SoaPanel soa;
        for (std::int64_t bc = lo; bc < hi; ++bc) {
            const int b = int(bc / nc);
            const int c = int(bc % nc);
            const float *plane =
                xbase + (size_t(b) * nc + c) * size_t(h) * w;
            for (int t0 = 0; t0 < nt; t0 += mk::kTilePanel) {
                const int cnt = std::min(mk::kTilePanel, nt - t0);
                int tr[mk::kTilePanel], tc[mk::kTilePanel];
                for (int l = 0; l < cnt; ++l) {
                    const int t = t0 + l;
                    tr[l] = grid.tileRow(t / grid.tilesW);
                    tc[l] = grid.tileCol(t % grid.tilesW);
                }
                K.packTilePanel(soa.data(), plane, h, w, tr, tc, a, a,
                                cnt);
                K.xformToTiles(BT, a, a, B, a, a, soa.data(),
                               out.uvBase(c, b, t0), uvStr, cnt);
            }
        }
    });
}

WinoTiles
transformInput(const Tensor &x, const WinogradAlgo &algo)
{
    TileGrid grid(x.h(), x.w(), algo);
    WinoTiles out(algo.alpha, x.c(), x.n(), grid.tiles());
    transformInputInto(x, algo, out);
    return out;
}

void
transformInputAdjointInto(const WinoTiles &dX, const WinogradAlgo &algo,
                          Tensor &dx)
{
    WINOMC_SPAN("wino.xform.input_adjoint", "wino");
    const int h = dx.h();
    const int w = dx.w();
    TileGrid grid(h, w, algo);
    winomc_assert(grid.tiles() == dX.tiles(),
                  "tile count mismatch in input adjoint");
    winomc_assert(dx.n() == dX.batch() && dx.c() == dX.channels(),
                  "transformInputAdjointInto destination shape mismatch");
    dx.fill(0.0f); // overlap-add target

    const int a = algo.alpha;
    const int nc = dX.channels();
    const int nt = grid.tiles();
    const auto &K = mk::kernels();
    const double *B = algo.B.data();
    const double *BT = algo.BT.data();
    float *dxbase = dx.data();
    const size_t uvStr = dX.uvStride();
    StageTimer probe("xform.input_adjoint",
                     4.0 * a * a * a * double(dX.batch()) * nc * nt);

    // Partitioned over output (batch, channel) planes: overlap-add only
    // ever collides within one plane, and panel lanes scatter in
    // ascending tile order, so any thread count is race-free and
    // bitwise identical to serial.
    parallelFor(0, std::int64_t(dX.batch()) * nc, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        SoaPanel soa;
        for (std::int64_t bc = lo; bc < hi; ++bc) {
            const int b = int(bc / nc);
            const int c = int(bc % nc);
            float *plane = dxbase + (size_t(b) * nc + c) * size_t(h) * w;
            for (int t0 = 0; t0 < nt; t0 += mk::kTilePanel) {
                const int cnt = std::min(mk::kTilePanel, nt - t0);
                // Adjoint of X = BT x B is dx = B dX B^T.
                K.xformFromTiles(B, a, a, BT, a, a,
                                 dX.uvBase(c, b, t0), uvStr, soa.data(),
                                 cnt);
                int tr[mk::kTilePanel], tc[mk::kTilePanel];
                for (int l = 0; l < cnt; ++l) {
                    const int t = t0 + l;
                    tr[l] = grid.tileRow(t / grid.tilesW);
                    tc[l] = grid.tileCol(t % grid.tilesW);
                }
                K.unpackAddTilePanel(plane, h, w, tr, tc, a, a,
                                     soa.data(), cnt);
            }
        }
    });
}

Tensor
transformInputAdjoint(const WinoTiles &dX, const WinogradAlgo &algo,
                      int h, int w)
{
    Tensor dx(dX.batch(), dX.channels(), h, w);
    transformInputAdjointInto(dX, algo, dx);
    return dx;
}

void
transformWeightsInto(const Tensor &w, const WinogradAlgo &algo,
                     WinoWeights &out)
{
    WINOMC_SPAN("wino.xform.weights", "wino");
    winomc_assert(w.h() == algo.r && w.w() == algo.r,
                  "weight size does not match algorithm r");
    winomc_assert(out.alphaEdge() == algo.alpha &&
                  out.outChannels() == w.n() && out.inChannels() == w.c(),
                  "transformWeightsInto destination shape mismatch");
    const int a = algo.alpha;
    const int r = algo.r;
    winomc_assert(a <= kMaxAlpha, "alpha too large");
    const int nj = w.n();
    const int ni = w.c();
    // Local copies of G (a x r) and G^T (r x a): the per-filter
    // sandwich then indexes plain arrays instead of the bounds-checked
    // Matrix accessor.
    std::array<double, kMaxAlpha * kMaxAlpha> g{}, gt{};
    std::copy_n(algo.G.data(), a * r, g.begin());
    std::copy_n(algo.GT.data(), r * a, gt.begin());
    const float *wbase = w.data();
    float *obase = out.raw();
    const size_t uvStr = size_t(nj) * ni;

    parallelFor(0, std::int64_t(nj) * ni, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        std::array<double, kMaxAlpha * kMaxAlpha> ker{};
        std::array<double, kMaxAlpha * kMaxAlpha> tw{};
        for (std::int64_t ji = lo; ji < hi; ++ji) {
            // (J, I, r, r) filters are contiguous in ji order, and the
            // (uv, j, i) Winograd layout puts ji at offset ji per uv.
            const float *ker0 = wbase + size_t(ji) * r * r;
            for (int e = 0; e < r * r; ++e)
                ker[size_t(e)] = double(ker0[e]);
            sandwich(g.data(), a, r, ker.data(), r, gt.data(), a,
                     tw.data());
            for (int uv = 0; uv < a * a; ++uv)
                obase[size_t(uv) * uvStr + size_t(ji)] =
                    float(tw[size_t(uv)]);
        }
    });
}

WinoWeights
transformWeights(const Tensor &w, const WinogradAlgo &algo)
{
    WinoWeights out(algo.alpha, w.n(), w.c());
    transformWeightsInto(w, algo, out);
    return out;
}

void
transformWeightsAdjointInto(const WinoWeights &dW,
                            const WinogradAlgo &algo, Tensor &dw)
{
    WINOMC_SPAN("wino.xform.weights_adjoint", "wino");
    const int a = algo.alpha;
    const int r = algo.r;
    winomc_assert(a <= kMaxAlpha, "alpha too large");
    winomc_assert(dw.n() == dW.outChannels() &&
                  dw.c() == dW.inChannels() && dw.h() == r && dw.w() == r,
                  "transformWeightsAdjointInto destination shape mismatch");
    const int nj = dW.outChannels();
    const int ni = dW.inChannels();
    std::array<double, kMaxAlpha * kMaxAlpha> g{}, gt{};
    std::copy_n(algo.G.data(), a * r, g.begin());
    std::copy_n(algo.GT.data(), r * a, gt.begin());
    const float *gbase = dW.raw();
    float *dwbase = dw.data();
    const size_t uvStr = size_t(nj) * ni;

    parallelFor(0, std::int64_t(nj) * ni, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        std::array<double, kMaxAlpha * kMaxAlpha> tile{};
        std::array<double, kMaxAlpha * kMaxAlpha> sp{};
        for (std::int64_t ji = lo; ji < hi; ++ji) {
            for (int uv = 0; uv < a * a; ++uv)
                tile[size_t(uv)] =
                    double(gbase[size_t(uv) * uvStr + size_t(ji)]);
            // Adjoint of W = G w G^T is dw = G^T dW G.
            sandwich(gt.data(), r, a, tile.data(), a, g.data(), r,
                     sp.data());
            float *ker0 = dwbase + size_t(ji) * r * r;
            for (int e = 0; e < r * r; ++e)
                ker0[e] = float(sp[size_t(e)]);
        }
    });
}

Tensor
transformWeightsAdjoint(const WinoWeights &dW, const WinogradAlgo &algo)
{
    Tensor dw(dW.outChannels(), dW.inChannels(), algo.r, algo.r);
    transformWeightsAdjointInto(dW, algo, dw);
    return dw;
}

void
elementwiseForwardInto(const WinoTiles &X, const WinoWeights &W,
                       WinoTiles &Y)
{
    WINOMC_SPAN("wino.ew.fwd", "wino");
    winomc_assert(X.alphaEdge() == W.alphaEdge(),
                  "algo mismatch between tiles and weights");
    winomc_assert(X.channels() == W.inChannels(),
                  "channel mismatch: tiles ", X.channels(), " weights ",
                  W.inChannels());
    winomc_assert(Y.alphaEdge() == X.alphaEdge() &&
                  Y.channels() == W.outChannels() &&
                  Y.batch() == X.batch() && Y.tiles() == X.tiles(),
                  "elementwiseForwardInto destination shape mismatch");
    Y.fill(0.0f); // kernel accumulates into Y
    const int bt = X.batch() * X.tiles();
    const int nj = W.outChannels();
    const int ni = W.inChannels();
    const int jBlocks = (nj + kJBlock - 1) / kJBlock;
    const auto &K = mk::kernels();
    StageTimer probe("ew.fwd", 2.0 * X.uvCount() * double(nj) * ni * bt);

    // Y[uv] (J x BT) = W[uv] (J x I) * X[uv] (I x BT), parallel over
    // the uv x J-block output space; each task owns kJBlock Y rows.
    parallelFor(0, std::int64_t(X.uvCount()) * jBlocks, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t task = lo; task < hi; ++task) {
            const int uv = int(task / jBlocks);
            const int j0 = int(task % jBlocks) * kJBlock;
            const int jn = std::min(kJBlock, nj - j0);
            float *yrows[kJBlock];
            for (int jj = 0; jj < jn; ++jj)
                yrows[jj] = Y.row(uv, j0 + jj);
            for (int k0 = 0; k0 < bt; k0 += kKBlock) {
                const int kb = std::min(kKBlock, bt - k0);
                // Register block of kIUnroll input channels: every
                // Y load/store amortizes kIUnroll FMAs instead of one.
                for (int i0 = 0; i0 < ni; i0 += kIUnroll) {
                    const int ib = std::min(kIUnroll, ni - i0);
                    const float *xr[kIUnroll];
                    for (int ii = 0; ii < ib; ++ii)
                        xr[ii] = X.row(uv, i0 + ii) + k0;
                    for (int jj = 0; jj < jn; ++jj) {
                        float wv[kIUnroll];
                        bool any = false;
                        for (int ii = 0; ii < ib; ++ii) {
                            wv[ii] = W.at(uv, j0 + jj, i0 + ii);
                            any = any || wv[ii] != 0.0f;
                        }
                        if (!any)
                            continue; // zero weight block skips wholesale
                        K.panelAccum(yrows[jj] + k0, xr, wv, ib, kb);
                    }
                }
            }
        }
    });
}

WinoTiles
elementwiseForward(const WinoTiles &X, const WinoWeights &W)
{
    WinoTiles Y(X.alphaEdge(), W.outChannels(), X.batch(), X.tiles());
    elementwiseForwardInto(X, W, Y);
    return Y;
}

void
elementwiseBackwardDataInto(const WinoTiles &dY, const WinoWeights &W,
                            WinoTiles &dX)
{
    WINOMC_SPAN("wino.ew.bwd_data", "wino");
    winomc_assert(dY.channels() == W.outChannels(),
                  "channel mismatch in backward data");
    winomc_assert(dX.alphaEdge() == dY.alphaEdge() &&
                  dX.channels() == W.inChannels() &&
                  dX.batch() == dY.batch() && dX.tiles() == dY.tiles(),
                  "elementwiseBackwardDataInto destination shape mismatch");
    dX.fill(0.0f); // kernel accumulates into dX
    const int bt = dY.batch() * dY.tiles();
    const int nj = W.outChannels();
    const int ni = W.inChannels();
    const int iBlocks = (ni + kJBlock - 1) / kJBlock;
    const auto &K = mk::kernels();
    StageTimer probe("ew.bwd_data",
                     2.0 * dY.uvCount() * double(nj) * ni * bt);

    // dX[uv] (I x BT) = W[uv]^T (I x J) * dY[uv] (J x BT); same blocked
    // kernel as forward with the roles of I and J swapped. The weight
    // register block W.at(uv, j, i0..i0+3) is contiguous in memory.
    parallelFor(0, std::int64_t(dY.uvCount()) * iBlocks, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t task = lo; task < hi; ++task) {
            const int uv = int(task / iBlocks);
            const int i0 = int(task % iBlocks) * kJBlock;
            const int in = std::min(kJBlock, ni - i0);
            float *dxrows[kJBlock];
            for (int ii = 0; ii < in; ++ii)
                dxrows[ii] = dX.row(uv, i0 + ii);
            for (int k0 = 0; k0 < bt; k0 += kKBlock) {
                const int kb = std::min(kKBlock, bt - k0);
                // Register block of kIUnroll output channels (the
                // reduction axis here), mirroring the forward kernel.
                for (int j0 = 0; j0 < nj; j0 += kIUnroll) {
                    const int jb = std::min(kIUnroll, nj - j0);
                    const float *dyr[kIUnroll];
                    for (int jj = 0; jj < jb; ++jj)
                        dyr[jj] = dY.row(uv, j0 + jj) + k0;
                    for (int ii = 0; ii < in; ++ii) {
                        float wv[kIUnroll];
                        bool any = false;
                        for (int jj = 0; jj < jb; ++jj) {
                            wv[jj] = W.at(uv, j0 + jj, i0 + ii);
                            any = any || wv[jj] != 0.0f;
                        }
                        if (!any)
                            continue;
                        K.panelAccum(dxrows[ii] + k0, dyr, wv, jb, kb);
                    }
                }
            }
        }
    });
}

WinoTiles
elementwiseBackwardData(const WinoTiles &dY, const WinoWeights &W)
{
    WinoTiles dX(dY.alphaEdge(), W.inChannels(), dY.batch(), dY.tiles());
    elementwiseBackwardDataInto(dY, W, dX);
    return dX;
}

void
elementwiseGradWeightsInto(const WinoTiles &dY, const WinoTiles &X,
                           WinoWeights &dW)
{
    WINOMC_SPAN("wino.ew.grad_weights", "wino");
    winomc_assert(dY.batch() == X.batch() && dY.tiles() == X.tiles() &&
                  dY.alphaEdge() == X.alphaEdge(),
                  "shape mismatch in weight gradient");
    winomc_assert(dW.alphaEdge() == X.alphaEdge() &&
                  dW.outChannels() == dY.channels() &&
                  dW.inChannels() == X.channels(),
                  "elementwiseGradWeightsInto destination shape mismatch");
    const int bt = X.batch() * X.tiles();
    const int nj = dY.channels();
    const int ni = X.channels();
    const int jBlocks = (nj + kJBlock - 1) / kJBlock;
    const auto &K = mk::kernels();
    StageTimer probe("ew.grad_weights",
                     2.0 * X.uvCount() * double(nj) * ni * bt);

    // dW[uv] (J x I) = dY[uv] (J x BT) * X[uv]^T (BT x I). Partitioned
    // over the *output* (uv, J-block) space: every dW element is owned
    // by exactly one task and its reduction runs over k in ascending
    // order, so results are bitwise identical for any thread count.
    parallelFor(0, std::int64_t(X.uvCount()) * jBlocks, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t task = lo; task < hi; ++task) {
            const int uv = int(task / jBlocks);
            const int j0 = int(task % jBlocks) * kJBlock;
            const int jn = std::min(kJBlock, nj - j0);
            double acc[kJBlock][kIBlock];
            for (int i0 = 0; i0 < ni; i0 += kIBlock) {
                const int in = std::min(kIBlock, ni - i0);
                for (int jj = 0; jj < jn; ++jj)
                    for (int ii = 0; ii < in; ++ii)
                        acc[jj][ii] = 0.0;
                for (int k0 = 0; k0 < bt; k0 += kKBlock) {
                    const int kb = std::min(kKBlock, bt - k0);
                    for (int ii = 0; ii < in; ++ii) {
                        const float *x = X.row(uv, i0 + ii) + k0;
                        for (int jj = 0; jj < jn; ++jj) {
                            const float *dy = dY.row(uv, j0 + jj) + k0;
                            acc[jj][ii] += K.dotDouble(dy, x, kb);
                        }
                    }
                }
                for (int jj = 0; jj < jn; ++jj)
                    for (int ii = 0; ii < in; ++ii)
                        dW.at(uv, j0 + jj, i0 + ii) =
                            float(acc[jj][ii]);
            }
        }
    });
}

WinoWeights
elementwiseGradWeights(const WinoTiles &dY, const WinoTiles &X)
{
    WinoWeights dW(X.alphaEdge(), dY.channels(), X.channels());
    elementwiseGradWeightsInto(dY, X, dW);
    return dW;
}

void
inverseTransformInto(const WinoTiles &Y, const WinogradAlgo &algo,
                     Tensor &y)
{
    WINOMC_SPAN("wino.xform.inverse", "wino");
    const int h = y.h();
    const int w = y.w();
    TileGrid grid(h, w, algo);
    winomc_assert(grid.tiles() == Y.tiles(),
                  "tile count mismatch in inverse transform");
    winomc_assert(y.n() == Y.batch() && y.c() == Y.channels(),
                  "inverseTransformInto destination shape mismatch");
    const int a = algo.alpha;
    const int m = algo.m;
    const int nc = Y.channels();
    const int nt = grid.tiles();
    const auto &K = mk::kernels();
    const double *AT = algo.AT.data();
    const double *A = algo.A.data();
    float *ybase = y.data();
    const size_t uvStr = Y.uvStride();
    StageTimer probe("xform.inverse",
                     2.0 * m * a * (a + m) * double(Y.batch()) * nc * nt);

    parallelFor(0, std::int64_t(Y.batch()) * nc, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        SoaPanel soa;
        for (std::int64_t bc = lo; bc < hi; ++bc) {
            const int b = int(bc / nc);
            const int c = int(bc % nc);
            float *plane = ybase + (size_t(b) * nc + c) * size_t(h) * w;
            for (int t0 = 0; t0 < nt; t0 += mk::kTilePanel) {
                const int cnt = std::min(mk::kTilePanel, nt - t0);
                K.xformFromTiles(AT, m, a, A, a, m, Y.uvBase(c, b, t0),
                                 uvStr, soa.data(), cnt);
                int tr[mk::kTilePanel], tc[mk::kTilePanel];
                for (int l = 0; l < cnt; ++l) {
                    const int t = t0 + l;
                    tr[l] = (t / grid.tilesW) * m;
                    tc[l] = (t % grid.tilesW) * m;
                }
                K.unpackTilePanel(plane, h, w, tr, tc, m, m, soa.data(),
                                  cnt);
            }
        }
    });
}

Tensor
inverseTransform(const WinoTiles &Y, const WinogradAlgo &algo, int h,
                 int w)
{
    Tensor y(Y.batch(), Y.channels(), h, w);
    inverseTransformInto(Y, algo, y);
    return y;
}

void
inverseTransformAdjointInto(const Tensor &dy, const WinogradAlgo &algo,
                            WinoTiles &dY)
{
    WINOMC_SPAN("wino.xform.inverse_adjoint", "wino");
    TileGrid grid(dy.h(), dy.w(), algo);
    winomc_assert(dY.alphaEdge() == algo.alpha &&
                  dY.channels() == dy.c() && dY.batch() == dy.n() &&
                  dY.tiles() == grid.tiles(),
                  "inverseTransformAdjointInto destination shape mismatch");
    const int a = algo.alpha;
    const int m = algo.m;
    const int nc = dy.c();
    const int h = dy.h();
    const int w = dy.w();
    const int nt = grid.tiles();
    const auto &K = mk::kernels();
    const double *A = algo.A.data();
    const double *AT = algo.AT.data();
    const float *dybase = dy.data();
    const size_t uvStr = dY.uvStride();
    StageTimer probe("xform.inverse_adjoint",
                     2.0 * m * a * (a + m) * double(dy.n()) * nc * nt);

    parallelFor(0, std::int64_t(dy.n()) * nc, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        SoaPanel soa;
        for (std::int64_t bc = lo; bc < hi; ++bc) {
            const int b = int(bc / nc);
            const int c = int(bc % nc);
            const float *plane =
                dybase + (size_t(b) * nc + c) * size_t(h) * w;
            for (int t0 = 0; t0 < nt; t0 += mk::kTilePanel) {
                const int cnt = std::min(mk::kTilePanel, nt - t0);
                int tr[mk::kTilePanel], tc[mk::kTilePanel];
                for (int l = 0; l < cnt; ++l) {
                    const int t = t0 + l;
                    tr[l] = (t / grid.tilesW) * m;
                    tc[l] = (t % grid.tilesW) * m;
                }
                K.packTilePanel(soa.data(), plane, h, w, tr, tc, m, m,
                                cnt);
                // Adjoint of y = AT Y A is dY = A dy A^T.
                K.xformToTiles(A, a, m, AT, m, a, soa.data(),
                               dY.uvBase(c, b, t0), uvStr, cnt);
            }
        }
    });
}

WinoTiles
inverseTransformAdjoint(const Tensor &dy, const WinogradAlgo &algo)
{
    TileGrid grid(dy.h(), dy.w(), algo);
    WinoTiles dY(algo.alpha, dy.c(), dy.n(), grid.tiles());
    inverseTransformAdjointInto(dy, algo, dY);
    return dY;
}

void
transformInputStrip(const Tensor &x, const WinogradAlgo &algo,
                    const TileGrid &grid, int b, int t0, int tcnt,
                    WinoTiles &Xs)
{
    winomc_assert(algo.alpha <= kMaxAlpha, "alpha too large");
    winomc_assert(Xs.alphaEdge() == algo.alpha && Xs.batch() == 1 &&
                  Xs.channels() == x.c() && Xs.tiles() >= tcnt,
                  "transformInputStrip scratch shape mismatch");
    const int a = algo.alpha;
    const int nc = x.c();
    const int h = x.h();
    const int w = x.w();
    const auto &K = mk::kernels();
    const double *BT = algo.BT.data();
    const double *B = algo.B.data();
    const size_t uvStr = Xs.uvStride();
    SoaPanel soa;
    for (int c = 0; c < nc; ++c) {
        const float *plane =
            x.data() + (size_t(b) * nc + c) * size_t(h) * w;
        for (int p0 = 0; p0 < tcnt; p0 += mk::kTilePanel) {
            const int cnt = std::min(mk::kTilePanel, tcnt - p0);
            int tr[mk::kTilePanel], tc[mk::kTilePanel];
            for (int l = 0; l < cnt; ++l) {
                const int t = t0 + p0 + l;
                tr[l] = grid.tileRow(t / grid.tilesW);
                tc[l] = grid.tileCol(t % grid.tilesW);
            }
            K.packTilePanel(soa.data(), plane, h, w, tr, tc, a, a, cnt);
            K.xformToTiles(BT, a, a, B, a, a, soa.data(),
                           Xs.uvBase(c, 0, p0), uvStr, cnt);
        }
    }
}

void
elementwiseForwardStrip(const WinoTiles &Xs, const WinoWeights &W,
                        int tcnt, WinoTiles &Ys)
{
    winomc_assert(Xs.channels() == W.inChannels() &&
                  Ys.channels() == W.outChannels() &&
                  Xs.tiles() >= tcnt && Ys.tiles() >= tcnt,
                  "elementwiseForwardStrip shape mismatch");
    const int a2 = Xs.uvCount();
    const int nj = W.outChannels();
    const int ni = W.inChannels();
    const auto &K = mk::kernels();

    // Same register blocking as elementwiseForwardInto with the
    // streamed axis cut down to the strip; per-element arithmetic is
    // unchanged, so the result is bitwise identical to the staged path.
    for (int uv = 0; uv < a2; ++uv) {
        for (int j0 = 0; j0 < nj; j0 += kJBlock) {
            const int jn = std::min(kJBlock, nj - j0);
            float *yrows[kJBlock];
            for (int jj = 0; jj < jn; ++jj) {
                yrows[jj] = Ys.row(uv, j0 + jj);
                std::fill(yrows[jj], yrows[jj] + tcnt, 0.0f);
            }
            for (int k0 = 0; k0 < tcnt; k0 += kKBlock) {
                const int kb = std::min(kKBlock, tcnt - k0);
                for (int i0 = 0; i0 < ni; i0 += kIUnroll) {
                    const int ib = std::min(kIUnroll, ni - i0);
                    const float *xr[kIUnroll];
                    for (int ii = 0; ii < ib; ++ii)
                        xr[ii] = Xs.row(uv, i0 + ii) + k0;
                    for (int jj = 0; jj < jn; ++jj) {
                        float wv[kIUnroll];
                        bool any = false;
                        for (int ii = 0; ii < ib; ++ii) {
                            wv[ii] = W.at(uv, j0 + jj, i0 + ii);
                            any = any || wv[ii] != 0.0f;
                        }
                        if (!any)
                            continue;
                        K.panelAccum(yrows[jj] + k0, xr, wv, ib, kb);
                    }
                }
            }
        }
    }
}

void
inverseTransformStrip(const WinoTiles &Ys, const WinogradAlgo &algo,
                      const TileGrid &grid, int b, int t0, int tcnt,
                      Tensor &y)
{
    winomc_assert(Ys.alphaEdge() == algo.alpha && Ys.batch() == 1 &&
                  Ys.channels() == y.c() && Ys.tiles() >= tcnt,
                  "inverseTransformStrip scratch shape mismatch");
    const int a = algo.alpha;
    const int m = algo.m;
    const int nc = y.c();
    const int h = y.h();
    const int w = y.w();
    const auto &K = mk::kernels();
    const double *AT = algo.AT.data();
    const double *A = algo.A.data();
    const size_t uvStr = Ys.uvStride();
    SoaPanel soa;
    for (int c = 0; c < nc; ++c) {
        float *plane = y.data() + (size_t(b) * nc + c) * size_t(h) * w;
        for (int p0 = 0; p0 < tcnt; p0 += mk::kTilePanel) {
            const int cnt = std::min(mk::kTilePanel, tcnt - p0);
            K.xformFromTiles(AT, m, a, A, a, m, Ys.uvBase(c, 0, p0),
                             uvStr, soa.data(), cnt);
            int tr[mk::kTilePanel], tc[mk::kTilePanel];
            for (int l = 0; l < cnt; ++l) {
                const int t = t0 + p0 + l;
                tr[l] = (t / grid.tilesW) * m;
                tc[l] = (t % grid.tilesW) * m;
            }
            K.unpackTilePanel(plane, h, w, tr, tc, m, m, soa.data(),
                              cnt);
        }
    }
}

void
inverseTransformAdjointStrip(const Tensor &dy, const WinogradAlgo &algo,
                             const TileGrid &grid, int b, int t0,
                             int tcnt, WinoTiles &dYs)
{
    winomc_assert(dYs.alphaEdge() == algo.alpha && dYs.batch() == 1 &&
                  dYs.channels() == dy.c() && dYs.tiles() >= tcnt,
                  "inverseTransformAdjointStrip scratch shape mismatch");
    const int a = algo.alpha;
    const int m = algo.m;
    const int nc = dy.c();
    const int h = dy.h();
    const int w = dy.w();
    const auto &K = mk::kernels();
    const double *A = algo.A.data();
    const double *AT = algo.AT.data();
    const size_t uvStr = dYs.uvStride();
    SoaPanel soa;
    for (int c = 0; c < nc; ++c) {
        const float *plane =
            dy.data() + (size_t(b) * nc + c) * size_t(h) * w;
        for (int p0 = 0; p0 < tcnt; p0 += mk::kTilePanel) {
            const int cnt = std::min(mk::kTilePanel, tcnt - p0);
            int tr[mk::kTilePanel], tc[mk::kTilePanel];
            for (int l = 0; l < cnt; ++l) {
                const int t = t0 + p0 + l;
                tr[l] = (t / grid.tilesW) * m;
                tc[l] = (t % grid.tilesW) * m;
            }
            K.packTilePanel(soa.data(), plane, h, w, tr, tc, m, m, cnt);
            // Adjoint of y = AT Y A is dY = A dy A^T.
            K.xformToTiles(A, a, m, AT, m, a, soa.data(),
                           dYs.uvBase(c, 0, p0), uvStr, cnt);
        }
    }
}

void
elementwiseBackwardDataStrip(const WinoTiles &dYs, const WinoWeights &W,
                             int tcnt, WinoTiles &dXs)
{
    winomc_assert(dYs.channels() == W.outChannels() &&
                  dXs.channels() == W.inChannels() &&
                  dYs.tiles() >= tcnt && dXs.tiles() >= tcnt,
                  "elementwiseBackwardDataStrip shape mismatch");
    const int a2 = dYs.uvCount();
    const int nj = W.outChannels();
    const int ni = W.inChannels();
    const auto &K = mk::kernels();

    for (int uv = 0; uv < a2; ++uv) {
        for (int i0 = 0; i0 < ni; i0 += kJBlock) {
            const int in = std::min(kJBlock, ni - i0);
            float *dxrows[kJBlock];
            for (int ii = 0; ii < in; ++ii) {
                dxrows[ii] = dXs.row(uv, i0 + ii);
                std::fill(dxrows[ii], dxrows[ii] + tcnt, 0.0f);
            }
            for (int k0 = 0; k0 < tcnt; k0 += kKBlock) {
                const int kb = std::min(kKBlock, tcnt - k0);
                for (int j0 = 0; j0 < nj; j0 += kIUnroll) {
                    const int jb = std::min(kIUnroll, nj - j0);
                    const float *dyr[kIUnroll];
                    for (int jj = 0; jj < jb; ++jj)
                        dyr[jj] = dYs.row(uv, j0 + jj) + k0;
                    for (int ii = 0; ii < in; ++ii) {
                        float wv[kIUnroll];
                        bool any = false;
                        for (int jj = 0; jj < jb; ++jj) {
                            wv[jj] = W.at(uv, j0 + jj, i0 + ii);
                            any = any || wv[jj] != 0.0f;
                        }
                        if (!any)
                            continue;
                        K.panelAccum(dxrows[ii] + k0, dyr, wv, jb, kb);
                    }
                }
            }
        }
    }
}

void
transformInputAdjointStripAdd(const WinoTiles &dXs,
                              const WinogradAlgo &algo,
                              const TileGrid &grid, int b, int t0,
                              int tcnt, Tensor &dx)
{
    winomc_assert(dXs.alphaEdge() == algo.alpha && dXs.batch() == 1 &&
                  dXs.channels() == dx.c() && dXs.tiles() >= tcnt,
                  "transformInputAdjointStripAdd scratch shape mismatch");
    const int a = algo.alpha;
    const int nc = dx.c();
    const int h = dx.h();
    const int w = dx.w();
    const auto &K = mk::kernels();
    const double *B = algo.B.data();
    const double *BT = algo.BT.data();
    const size_t uvStr = dXs.uvStride();
    SoaPanel soa;
    for (int c = 0; c < nc; ++c) {
        float *plane = dx.data() + (size_t(b) * nc + c) * size_t(h) * w;
        for (int p0 = 0; p0 < tcnt; p0 += mk::kTilePanel) {
            const int cnt = std::min(mk::kTilePanel, tcnt - p0);
            // Adjoint of X = BT x B is dx = B dX B^T.
            K.xformFromTiles(B, a, a, BT, a, a, dXs.uvBase(c, 0, p0),
                             uvStr, soa.data(), cnt);
            int tr[mk::kTilePanel], tc[mk::kTilePanel];
            for (int l = 0; l < cnt; ++l) {
                const int t = t0 + p0 + l;
                tr[l] = grid.tileRow(t / grid.tilesW);
                tc[l] = grid.tileCol(t % grid.tilesW);
            }
            K.unpackAddTilePanel(plane, h, w, tr, tc, a, a, soa.data(),
                                 cnt);
        }
    }
}

namespace {

/**
 * Task-local tallies behind the quant.* counters: accumulated in
 * registers inside the parallel loops, published once per task so the
 * metrics registry mutex never sits on the hot path.
 */
struct SparseTally
{
    double rowsTotal = 0.0;
    double rowsSkipped = 0.0;
    double flopsSkipped = 0.0;

    void
    publish() const
    {
        if (!metrics::enabled() || rowsTotal == 0.0)
            return;
        metrics::counterAdd("quant.ew.rows_total", rowsTotal);
        metrics::counterAdd("quant.ew.rows_skipped", rowsSkipped);
        metrics::counterAdd("quant.ew.flops_skipped", flopsSkipped);
    }
};

/** Mask-build tallies (quant.mask.*), same per-task discipline. */
struct MaskTally
{
    double panelsTotal = 0.0;
    double panelsZero = 0.0;

    void
    add(std::uint64_t zeroBits, int uvCount)
    {
        panelsTotal += uvCount;
        panelsZero += __builtin_popcountll(zeroBits);
    }
    void
    publish() const
    {
        if (!metrics::enabled() || panelsTotal == 0.0)
            return;
        metrics::counterAdd("quant.mask.panels_total", panelsTotal);
        metrics::counterAdd("quant.mask.panels_zero", panelsZero);
    }
};

} // namespace

void
transformInputMaskInto(const Tensor &x, const WinogradAlgo &algo,
                       WinoTiles &out, ActMask &mask)
{
    WINOMC_SPAN("wino.xform.input", "wino");
    winomc_assert(algo.alpha <= kMaxAlpha, "alpha too large");
    TileGrid grid(x.h(), x.w(), algo);
    winomc_assert(out.alphaEdge() == algo.alpha &&
                  out.channels() == x.c() && out.batch() == x.n() &&
                  out.tiles() == grid.tiles(),
                  "transformInputMaskInto destination shape mismatch");

    const int a = algo.alpha;
    const int nc = x.c();
    const int h = x.h();
    const int w = x.w();
    const int nt = grid.tiles();
    const auto &K = mk::kernels();
    const double *BT = algo.BT.data();
    const double *B = algo.B.data();
    const float *xbase = x.data();
    const size_t uvStr = out.uvStride();
    StageTimer probe("xform.input",
                     4.0 * a * a * a * double(x.n()) * nc * nt);

    // Identical gather/transform arithmetic to transformInputInto; the
    // only addition is the per-panel zero scan of the just-written
    // (L1-hot) SoA output into `mask`. Each (b, c) plane region has
    // exactly one writer, so the plane-local clear + OR is race-free.
    parallelFor(0, std::int64_t(x.n()) * nc, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        SoaPanel soa;
        MaskTally tally;
        for (std::int64_t bc = lo; bc < hi; ++bc) {
            const int b = int(bc / nc);
            const int c = int(bc % nc);
            const float *plane =
                xbase + (size_t(b) * nc + c) * size_t(h) * w;
            std::uint64_t *mreg = mask.plane(c, b);
            std::fill(mreg, mreg + mask.wordsPerPlane(), 0);
            for (int t0 = 0; t0 < nt; t0 += mk::kTilePanel) {
                const int cnt = std::min(mk::kTilePanel, nt - t0);
                int tr[mk::kTilePanel], tc[mk::kTilePanel];
                for (int l = 0; l < cnt; ++l) {
                    const int t = t0 + l;
                    tr[l] = grid.tileRow(t / grid.tilesW);
                    tc[l] = grid.tileCol(t % grid.tilesW);
                }
                K.packTilePanel(soa.data(), plane, h, w, tr, tc, a, a,
                                cnt);
                K.xformToTiles(BT, a, a, B, a, a, soa.data(),
                               out.uvBase(c, b, t0), uvStr, cnt);
                const std::uint64_t zm = K.panelZeroMask(
                    out.uvBase(c, b, t0), uvStr, a * a, cnt);
                mask.orPanelBits(c, b, t0 / mk::kTilePanel, zm);
                tally.add(zm, a * a);
            }
        }
        tally.publish();
    });
}

void
transformInputHalfInto(const Tensor &x, const WinogradAlgo &algo,
                       HalfTiles &out, int halfKind, ActMask *mask)
{
    WINOMC_SPAN("wino.xform.input", "wino");
    winomc_assert(algo.alpha <= kMaxAlpha, "alpha too large");
    TileGrid grid(x.h(), x.w(), algo);
    winomc_assert(out.alphaEdge() == algo.alpha &&
                  out.channels() == x.c() && out.batch() == x.n() &&
                  out.tiles() == grid.tiles(),
                  "transformInputHalfInto destination shape mismatch");

    const int a = algo.alpha;
    const int nc = x.c();
    const int h = x.h();
    const int w = x.w();
    const int nt = grid.tiles();
    const auto &K = mk::kernels();
    const double *BT = algo.BT.data();
    const double *B = algo.B.data();
    const float *xbase = x.data();
    const size_t uvStr = out.uvStride();
    StageTimer probe("xform.input",
                     4.0 * a * a * a * double(x.n()) * nc * nt);

    parallelFor(0, std::int64_t(x.n()) * nc, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        SoaPanel soa;
        MaskTally tally;
        for (std::int64_t bc = lo; bc < hi; ++bc) {
            const int b = int(bc / nc);
            const int c = int(bc % nc);
            const float *plane =
                xbase + (size_t(b) * nc + c) * size_t(h) * w;
            if (mask) {
                std::uint64_t *mreg = mask->plane(c, b);
                std::fill(mreg, mreg + mask->wordsPerPlane(), 0);
            }
            for (int t0 = 0; t0 < nt; t0 += mk::kTilePanel) {
                const int cnt = std::min(mk::kTilePanel, nt - t0);
                int tr[mk::kTilePanel], tc[mk::kTilePanel];
                for (int l = 0; l < cnt; ++l) {
                    const int t = t0 + l;
                    tr[l] = grid.tileRow(t / grid.tilesW);
                    tc[l] = grid.tileCol(t % grid.tilesW);
                }
                K.packTilePanel(soa.data(), plane, h, w, tr, tc, a, a,
                                cnt);
                K.xformToTilesHalf(BT, a, a, B, a, a, soa.data(),
                                   out.uvBase(c, b, t0), uvStr, cnt,
                                   halfKind);
                if (mask) {
                    const std::uint64_t zm = K.panelZeroMaskHalf(
                        out.uvBase(c, b, t0), uvStr, a * a, cnt);
                    mask->orPanelBits(c, b, t0 / mk::kTilePanel, zm);
                    tally.add(zm, a * a);
                }
            }
        }
        tally.publish();
    });
}

void
elementwiseForwardSparseInto(const WinoTiles &X, const WinoWeights &W,
                             WinoTiles &Y, const ActMask &mask)
{
    WINOMC_SPAN("wino.ew.fwd", "wino");
    winomc_assert(X.alphaEdge() == W.alphaEdge(),
                  "algo mismatch between tiles and weights");
    winomc_assert(X.channels() == W.inChannels(),
                  "channel mismatch: tiles ", X.channels(), " weights ",
                  W.inChannels());
    winomc_assert(Y.alphaEdge() == X.alphaEdge() &&
                  Y.channels() == W.outChannels() &&
                  Y.batch() == X.batch() && Y.tiles() == X.tiles(),
                  "elementwiseForwardSparseInto destination shape mismatch");
    Y.fill(0.0f); // kernel accumulates into Y
    const int bt = X.batch() * X.tiles();
    const int nj = W.outChannels();
    const int ni = W.inChannels();
    const int jBlocks = (nj + kJBlock - 1) / kJBlock;
    const auto &K = mk::kernels();
    StageTimer probe("ew.fwd", 2.0 * X.uvCount() * double(nj) * ni * bt);

    // Resolve the mask once into a per-(uv, row, k-block) byte table.
    // Every J-block task over one uv needs the same row liveness, so
    // querying the bit-packed mask from the GEMM inner loop would
    // repeat the panel walk jBlocks times per row — measured at this
    // granularity the walk itself, not the skipped FLOPs, dominates.
    const int kBlocks = (bt + kKBlock - 1) / kKBlock;
    std::vector<std::uint8_t> rowLive(std::size_t(X.uvCount()) * ni *
                                      kBlocks);
    parallelFor(0, X.uvCount(), 1,
                [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t uv = lo; uv < hi; ++uv)
            for (int kb = 0; kb < kBlocks; ++kb) {
                const int k0 = kb * kKBlock;
                const int kn = std::min(kKBlock, bt - k0);
                // Unit stride in i: the compaction scan walks this.
                std::uint8_t *dst = rowLive.data() +
                                    (uv * kBlocks + kb) * ni;
                for (int i = 0; i < ni; ++i)
                    dst[i] = !mask.rowRangeZero(int(uv), i, k0, kn);
            }
    });

    // Same task partition as elementwiseForwardInto, but the i-loop is
    // fully compacted per output row: every surviving (weight nonzero
    // AND activation range live) input row of the whole column goes
    // into one panelAccumGrouped call, so each y panel is read and
    // written once instead of ni/kIUnroll times. The group descriptor
    // preserves the blocked kernel's per-register-block expression
    // shapes, keeping the result bitwise identical to dense fp32. The
    // append is branchless (slot always written, cursor advances only
    // for survivors) — at high sparsity the scan itself is the cost,
    // and a skipped-row branch mispredicts by construction.
    const std::size_t xrs = X.uvStride() / std::size_t(X.channels());
    parallelFor(0, std::int64_t(X.uvCount()) * jBlocks, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        SparseTally tally;
        std::vector<const float *> xc(static_cast<std::size_t>(ni));
        std::vector<float> wc(static_cast<std::size_t>(ni));
        std::vector<std::uint8_t> grp(
            static_cast<std::size_t>((ni + kIUnroll - 1) / kIUnroll));
        for (std::int64_t task = lo; task < hi; ++task) {
            const int uv = int(task / jBlocks);
            const int j0 = int(task % jBlocks) * kJBlock;
            const int jn = std::min(kJBlock, nj - j0);
            const float *xuv = X.row(uv, 0);
            for (int k0 = 0; k0 < bt; k0 += kKBlock) {
                const int kb = std::min(kKBlock, bt - k0);
                const std::uint8_t *live =
                    rowLive.data() +
                    (std::size_t(uv) * kBlocks + k0 / kKBlock) * ni;
                for (int jj = 0; jj < jn; ++jj) {
                    const float *wrow =
                        W.raw() +
                        (std::size_t(uv) * nj + j0 + jj) * ni;
                    int nv = 0, ng = 0, tailOrig = kIUnroll;
                    for (int i0 = 0; i0 < ni; i0 += kIUnroll) {
                        const int ib = std::min(kIUnroll, ni - i0);
                        const int base = nv;
                        for (int ii = 0; ii < ib; ++ii) {
                            const int i = i0 + ii;
                            const float wval = wrow[i];
                            wc[std::size_t(nv)] = wval;
                            xc[std::size_t(nv)] =
                                xuv + std::size_t(i) * xrs + k0;
                            nv += int(wval != 0.0f) & int(live[i]);
                        }
                        if (nv != base) {
                            grp[std::size_t(ng++)] =
                                std::uint8_t(nv - base);
                            tailOrig = ib;
                        }
                    }
                    tally.rowsTotal += ni;
                    tally.rowsSkipped += ni - nv;
                    tally.flopsSkipped += 2.0 * (ni - nv) * kb;
                    if (nv == 0)
                        continue;
                    K.panelAccumGrouped(Y.row(uv, j0 + jj) + k0,
                                        xc.data(), wc.data(), nv, kb,
                                        grp.data(), ng, tailOrig);
                }
            }
        }
        tally.publish();
    });
}

void
elementwiseForwardHalfInto(const HalfTiles &X, const WinoWeights &W,
                           WinoTiles &Y, int halfKind,
                           const ActMask *mask)
{
    WINOMC_SPAN("wino.ew.fwd", "wino");
    winomc_assert(X.alphaEdge() == W.alphaEdge(),
                  "algo mismatch between tiles and weights");
    winomc_assert(X.channels() == W.inChannels(),
                  "channel mismatch: tiles ", X.channels(), " weights ",
                  W.inChannels());
    winomc_assert(Y.alphaEdge() == X.alphaEdge() &&
                  Y.channels() == W.outChannels() &&
                  Y.batch() == X.batch() && Y.tiles() == X.tiles(),
                  "elementwiseForwardHalfInto destination shape mismatch");
    Y.fill(0.0f);
    const int bt = X.batch() * X.tiles();
    const int nj = W.outChannels();
    const int ni = W.inChannels();
    const int jBlocks = (nj + kJBlock - 1) / kJBlock;
    const auto &K = mk::kernels();
    StageTimer probe("ew.fwd", 2.0 * X.uvCount() * double(nj) * ni * bt);

    // Mask resolved up front, as in elementwiseForwardSparseInto: one
    // panel walk per (uv, row, k-block) instead of one per J-block.
    const int kBlocks = (bt + kKBlock - 1) / kKBlock;
    std::vector<std::uint8_t> rowLive;
    if (mask) {
        rowLive.resize(std::size_t(X.uvCount()) * ni * kBlocks);
        parallelFor(0, X.uvCount(), 1,
                    [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t uv = lo; uv < hi; ++uv)
                for (int kb = 0; kb < kBlocks; ++kb) {
                    const int k0 = kb * kKBlock;
                    const int kn = std::min(kKBlock, bt - k0);
                    std::uint8_t *dst = rowLive.data() +
                                        (uv * kBlocks + kb) * ni;
                    for (int i = 0; i < ni; ++i)
                        dst[i] =
                            !mask->rowRangeZero(int(uv), i, k0, kn);
                }
        });
    } else {
        // No activation mask: every row is live; keeps the scan below
        // branch-free either way.
        rowLive.assign(std::size_t(X.uvCount()) * ni * kBlocks, 1);
    }

    // The half kernel accumulates per-row sequentially at every ISA
    // level, so the whole input-channel column can be compacted into
    // ONE panelAccumHalf call per y panel — same FMA chain as the
    // blocked calls, one y pass instead of ni/kIUnroll — without an
    // expression-shape switch. Branchless append as in the fp32 sparse
    // kernel.
    const std::size_t xrs = std::size_t(X.batch()) * X.tiles();
    parallelFor(0, std::int64_t(X.uvCount()) * jBlocks, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        SparseTally tally;
        std::vector<const std::uint16_t *> xc(static_cast<std::size_t>(ni));
        std::vector<float> wc(static_cast<std::size_t>(ni));
        for (std::int64_t task = lo; task < hi; ++task) {
            const int uv = int(task / jBlocks);
            const int j0 = int(task % jBlocks) * kJBlock;
            const int jn = std::min(kJBlock, nj - j0);
            const std::uint16_t *xuv = X.row(uv, 0);
            for (int k0 = 0; k0 < bt; k0 += kKBlock) {
                const int kb = std::min(kKBlock, bt - k0);
                const std::uint8_t *live =
                    rowLive.data() +
                    (std::size_t(uv) * kBlocks + k0 / kKBlock) * ni;
                for (int jj = 0; jj < jn; ++jj) {
                    const float *wrow =
                        W.raw() +
                        (std::size_t(uv) * nj + j0 + jj) * ni;
                    int nv = 0;
                    for (int i = 0; i < ni; ++i) {
                        const float wval = wrow[i];
                        wc[std::size_t(nv)] = wval;
                        xc[std::size_t(nv)] =
                            xuv + std::size_t(i) * xrs + k0;
                        nv += int(wval != 0.0f) & int(live[i]);
                    }
                    if (mask) {
                        tally.rowsTotal += ni;
                        tally.rowsSkipped += ni - nv;
                        tally.flopsSkipped += 2.0 * (ni - nv) * kb;
                    }
                    if (nv == 0)
                        continue;
                    K.panelAccumHalf(Y.row(uv, j0 + jj) + k0,
                                     xc.data(), wc.data(), nv, kb,
                                     halfKind);
                }
            }
        }
        tally.publish();
    });
}

void
transformInputStripMask(const Tensor &x, const WinogradAlgo &algo,
                        const TileGrid &grid, int b, int t0, int tcnt,
                        WinoTiles &Xs, ActMask &mask)
{
    winomc_assert(algo.alpha <= kMaxAlpha, "alpha too large");
    winomc_assert(Xs.alphaEdge() == algo.alpha && Xs.batch() == 1 &&
                  Xs.channels() == x.c() && Xs.tiles() >= tcnt,
                  "transformInputStripMask scratch shape mismatch");
    const int a = algo.alpha;
    const int nc = x.c();
    const int h = x.h();
    const int w = x.w();
    const auto &K = mk::kernels();
    const double *BT = algo.BT.data();
    const double *B = algo.B.data();
    const size_t uvStr = Xs.uvStride();
    SoaPanel soa;
    for (int c = 0; c < nc; ++c) {
        const float *plane =
            x.data() + (size_t(b) * nc + c) * size_t(h) * w;
        std::uint64_t *mreg = mask.plane(c, 0);
        std::fill(mreg, mreg + mask.wordsPerPlane(), 0);
        for (int p0 = 0; p0 < tcnt; p0 += mk::kTilePanel) {
            const int cnt = std::min(mk::kTilePanel, tcnt - p0);
            int tr[mk::kTilePanel], tc[mk::kTilePanel];
            for (int l = 0; l < cnt; ++l) {
                const int t = t0 + p0 + l;
                tr[l] = grid.tileRow(t / grid.tilesW);
                tc[l] = grid.tileCol(t % grid.tilesW);
            }
            K.packTilePanel(soa.data(), plane, h, w, tr, tc, a, a, cnt);
            K.xformToTiles(BT, a, a, B, a, a, soa.data(),
                           Xs.uvBase(c, 0, p0), uvStr, cnt);
            mask.orPanelBits(c, 0, p0 / mk::kTilePanel,
                             K.panelZeroMask(Xs.uvBase(c, 0, p0), uvStr,
                                             a * a, cnt));
        }
    }
}

void
transformInputStripHalf(const Tensor &x, const WinogradAlgo &algo,
                        const TileGrid &grid, int b, int t0, int tcnt,
                        HalfTiles &Xs, int halfKind, ActMask *mask)
{
    winomc_assert(algo.alpha <= kMaxAlpha, "alpha too large");
    winomc_assert(Xs.alphaEdge() == algo.alpha && Xs.batch() == 1 &&
                  Xs.channels() == x.c() && Xs.tiles() >= tcnt,
                  "transformInputStripHalf scratch shape mismatch");
    const int a = algo.alpha;
    const int nc = x.c();
    const int h = x.h();
    const int w = x.w();
    const auto &K = mk::kernels();
    const double *BT = algo.BT.data();
    const double *B = algo.B.data();
    const size_t uvStr = Xs.uvStride();
    SoaPanel soa;
    for (int c = 0; c < nc; ++c) {
        const float *plane =
            x.data() + (size_t(b) * nc + c) * size_t(h) * w;
        if (mask) {
            std::uint64_t *mreg = mask->plane(c, 0);
            std::fill(mreg, mreg + mask->wordsPerPlane(), 0);
        }
        for (int p0 = 0; p0 < tcnt; p0 += mk::kTilePanel) {
            const int cnt = std::min(mk::kTilePanel, tcnt - p0);
            int tr[mk::kTilePanel], tc[mk::kTilePanel];
            for (int l = 0; l < cnt; ++l) {
                const int t = t0 + p0 + l;
                tr[l] = grid.tileRow(t / grid.tilesW);
                tc[l] = grid.tileCol(t % grid.tilesW);
            }
            K.packTilePanel(soa.data(), plane, h, w, tr, tc, a, a, cnt);
            K.xformToTilesHalf(BT, a, a, B, a, a, soa.data(),
                               Xs.uvBase(c, 0, p0), uvStr, cnt,
                               halfKind);
            if (mask)
                mask->orPanelBits(
                    c, 0, p0 / mk::kTilePanel,
                    K.panelZeroMaskHalf(Xs.uvBase(c, 0, p0), uvStr,
                                        a * a, cnt));
        }
    }
}

void
elementwiseForwardStripSparse(const WinoTiles &Xs, const WinoWeights &W,
                              int tcnt, WinoTiles &Ys,
                              const ActMask &mask)
{
    winomc_assert(Xs.channels() == W.inChannels() &&
                  Ys.channels() == W.outChannels() &&
                  Xs.tiles() >= tcnt && Ys.tiles() >= tcnt,
                  "elementwiseForwardStripSparse shape mismatch");
    const int a2 = Xs.uvCount();
    const int nj = W.outChannels();
    const int ni = W.inChannels();
    const auto &K = mk::kernels();

    // Strip-serial mirror of elementwiseForwardSparseInto: same
    // whole-column compaction and group descriptor, so fused sparse
    // stays bitwise identical to staged sparse (and to dense fp32).
    std::vector<const float *> xc(static_cast<std::size_t>(ni));
    std::vector<float> wc(static_cast<std::size_t>(ni));
    std::vector<std::uint8_t> grp(
        static_cast<std::size_t>((ni + kIUnroll - 1) / kIUnroll));
    std::vector<std::uint8_t> live(static_cast<std::size_t>(ni));
    const std::size_t xrs = Xs.uvStride() / std::size_t(Xs.channels());
    for (int uv = 0; uv < a2; ++uv) {
        const float *xuv = Xs.row(uv, 0);
        for (int j0 = 0; j0 < nj; j0 += kJBlock) {
            const int jn = std::min(kJBlock, nj - j0);
            float *yrows[kJBlock];
            for (int jj = 0; jj < jn; ++jj) {
                yrows[jj] = Ys.row(uv, j0 + jj);
                std::fill(yrows[jj], yrows[jj] + tcnt, 0.0f);
            }
            for (int k0 = 0; k0 < tcnt; k0 += kKBlock) {
                const int kb = std::min(kKBlock, tcnt - k0);
                for (int i = 0; i < ni; ++i)
                    live[std::size_t(i)] =
                        !mask.rowRangeZero(uv, i, k0, kb);
                for (int jj = 0; jj < jn; ++jj) {
                    const float *wrow =
                        W.raw() +
                        (std::size_t(uv) * nj + j0 + jj) * ni;
                    int nv = 0, ng = 0, tailOrig = kIUnroll;
                    for (int i0 = 0; i0 < ni; i0 += kIUnroll) {
                        const int ib = std::min(kIUnroll, ni - i0);
                        const int base = nv;
                        for (int ii = 0; ii < ib; ++ii) {
                            const int i = i0 + ii;
                            const float wval = wrow[i];
                            wc[std::size_t(nv)] = wval;
                            xc[std::size_t(nv)] =
                                xuv + std::size_t(i) * xrs + k0;
                            nv += int(wval != 0.0f) &
                                  int(live[std::size_t(i)]);
                        }
                        if (nv != base) {
                            grp[std::size_t(ng++)] =
                                std::uint8_t(nv - base);
                            tailOrig = ib;
                        }
                    }
                    if (nv == 0)
                        continue;
                    K.panelAccumGrouped(yrows[jj] + k0, xc.data(),
                                        wc.data(), nv, kb, grp.data(),
                                        ng, tailOrig);
                }
            }
        }
    }
}

void
elementwiseForwardStripHalf(const HalfTiles &Xs, const WinoWeights &W,
                            int tcnt, WinoTiles &Ys, int halfKind,
                            const ActMask *mask)
{
    winomc_assert(Xs.channels() == W.inChannels() &&
                  Ys.channels() == W.outChannels() &&
                  Xs.tiles() >= tcnt && Ys.tiles() >= tcnt,
                  "elementwiseForwardStripHalf shape mismatch");
    const int a2 = Xs.uvCount();
    const int nj = W.outChannels();
    const int ni = W.inChannels();
    const auto &K = mk::kernels();

    // Whole-column compaction as in elementwiseForwardHalfInto: the
    // half kernel's sequential per-row chain makes the merge bitwise
    // free, and each y panel is touched once per k-block.
    std::vector<const std::uint16_t *> xc(static_cast<std::size_t>(ni));
    std::vector<float> wc(static_cast<std::size_t>(ni));
    std::vector<std::uint8_t> live(static_cast<std::size_t>(ni));
    const std::size_t xrs = std::size_t(Xs.batch()) * Xs.tiles();
    for (int uv = 0; uv < a2; ++uv) {
        const std::uint16_t *xuv = Xs.row(uv, 0);
        for (int j0 = 0; j0 < nj; j0 += kJBlock) {
            const int jn = std::min(kJBlock, nj - j0);
            float *yrows[kJBlock];
            for (int jj = 0; jj < jn; ++jj) {
                yrows[jj] = Ys.row(uv, j0 + jj);
                std::fill(yrows[jj], yrows[jj] + tcnt, 0.0f);
            }
            for (int k0 = 0; k0 < tcnt; k0 += kKBlock) {
                const int kb = std::min(kKBlock, tcnt - k0);
                for (int i = 0; i < ni; ++i)
                    live[std::size_t(i)] =
                        !mask || !mask->rowRangeZero(uv, i, k0, kb);
                for (int jj = 0; jj < jn; ++jj) {
                    const float *wrow =
                        W.raw() +
                        (std::size_t(uv) * nj + j0 + jj) * ni;
                    int nv = 0;
                    for (int i = 0; i < ni; ++i) {
                        const float wval = wrow[i];
                        wc[std::size_t(nv)] = wval;
                        xc[std::size_t(nv)] =
                            xuv + std::size_t(i) * xrs + k0;
                        nv += int(wval != 0.0f) &
                              int(live[std::size_t(i)]);
                    }
                    if (nv == 0)
                        continue;
                    K.panelAccumHalf(yrows[jj] + k0, xc.data(),
                                     wc.data(), nv, kb, halfKind);
                }
            }
        }
    }
}

Tensor
winogradForward(const Tensor &x, const WinoWeights &W,
                const WinogradAlgo &algo)
{
    WinoPlan plan(algo, x.n(), W.inChannels(), W.outChannels(), x.h(),
                  x.w());
    Tensor y(x.n(), W.outChannels(), x.h(), x.w());
    // Transient plan, nobody reads its tile caches afterwards.
    if (plan.shouldFuse(false))
        plan.forwardFusedInto(x, W, y);
    else
        plan.forwardInto(x, W, y);
    return y;
}

Tensor
winogradBackwardData(const Tensor &dy, const WinoWeights &W,
                     const WinogradAlgo &algo, int h, int w)
{
    winomc_assert(dy.h() == h && dy.w() == w,
                  "winogradBackwardData: \"same\" conv implies dy and dx "
                  "share spatial size");
    WinoPlan plan(algo, dy.n(), W.inChannels(), W.outChannels(), h, w);
    Tensor dx(dy.n(), W.inChannels(), h, w);
    if (plan.shouldFuse(false))
        plan.backwardDataFusedInto(dy, W, dx);
    else
        plan.backwardDataInto(dy, W, dx);
    return dx;
}

WinoWeights
winogradGradWeights(const Tensor &x, const Tensor &dy,
                    const WinogradAlgo &algo)
{
    WinoPlan plan(algo, x.n(), x.c(), dy.c(), x.h(), x.w());
    WinoWeights dW(algo.alpha, dy.c(), x.c());
    plan.gradWeightsInto(x, dy, dW);
    return dW;
}

Tensor
directConvForward(const Tensor &x, const Tensor &w)
{
    winomc_assert(w.h() == w.w() && w.h() % 2 == 1,
                  "direct conv expects odd square filters");
    const int pad = (w.h() - 1) / 2;
    return directConvForwardEx(x, w, 1, 1, pad, pad);
}

Tensor
directConvBackwardData(const Tensor &dy, const Tensor &w)
{
    WINOMC_SPAN("direct.bwd_data", "wino");
    winomc_assert(dy.c() == w.n(), "channel mismatch in backward data");
    const int r = w.h();
    const int pad = (r - 1) / 2;
    Tensor dx(dy.n(), w.c(), dy.h(), dy.w());
    const int ni = w.c();
    const int nj = dy.c();
    const int hh = dy.h();
    const int ww = dy.w();
    const auto &K = mk::kernels();
    const float *dybase = dy.data();
    float *dxbase = dx.data();
    StageTimer probe("direct.bwd_data",
                     2.0 * dy.n() * double(nj) * ni * r * r * double(hh) *
                         ww);

    parallelFor(0, std::int64_t(dy.n()) * ni, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        // Same accumulator-row scheme as the forward kernel; the
        // (j, ky, kx) reduction order per element matches the scalar
        // loops it replaced.
        std::vector<double> accRow(size_t(ww), 0.0);
        for (std::int64_t bi = lo; bi < hi; ++bi) {
            const int b = int(bi / ni);
            const int i = int(bi % ni);
            float *dxplane =
                dxbase + (size_t(b) * ni + i) * size_t(hh) * ww;
            for (int iy = 0; iy < hh; ++iy) {
                std::fill(accRow.begin(), accRow.end(), 0.0);
                for (int j = 0; j < nj; ++j) {
                    const float *dyplane =
                        dybase + (size_t(b) * nj + j) * size_t(hh) * ww;
                    for (int ky = 0; ky < r; ++ky) {
                        const int oy = iy - ky + pad;
                        if (oy < 0 || oy >= hh)
                            continue;
                        const float *dyrow = dyplane + size_t(oy) * ww;
                        for (int kx = 0; kx < r; ++kx) {
                            // ox = ix - kx + pad must stay in [0, ww)
                            const int lo2 = std::max(0, kx - pad);
                            const int hi2 = std::min(ww, ww + kx - pad);
                            if (hi2 <= lo2)
                                continue;
                            K.rowAccumDouble(
                                accRow.data() + lo2,
                                dyrow + lo2 - kx + pad,
                                double(w.at(j, i, ky, kx)), hi2 - lo2);
                        }
                    }
                }
                float *dxrow = dxplane + size_t(iy) * ww;
                for (int ix = 0; ix < ww; ++ix)
                    dxrow[ix] = float(accRow[size_t(ix)]);
            }
        }
    });
    return dx;
}

Tensor
directConvForwardEx(const Tensor &x, const Tensor &w, int strideH,
                    int strideW, int padH, int padW)
{
    WINOMC_SPAN("direct.fwd", "wino");
    winomc_assert(x.c() == w.c(), "channel mismatch in direct conv");
    winomc_assert(strideH >= 1 && strideW >= 1 && padH >= 0 && padW >= 0,
                  "bad conv geometry: stride ", strideH, "x", strideW,
                  " pad ", padH, "x", padW);
    const int kh = w.h();
    const int kw = w.w();
    const int oh = (x.h() + 2 * padH - kh) / strideH + 1;
    const int ow = (x.w() + 2 * padW - kw) / strideW + 1;
    winomc_assert(oh >= 1 && ow >= 1, "conv output collapses to ", oh,
                  "x", ow);
    Tensor y(x.n(), w.n(), oh, ow);
    const int nj = w.n();
    const int nc = x.c();
    const int hh = x.h();
    const int ww = x.w();
    const auto &K = mk::kernels();
    const float *xbase = x.data();
    const float *wbase = w.data();
    float *ybase = y.data();
    StageTimer probe("direct.fwd", 2.0 * x.n() * double(nj) * nc * kh *
                                       kw * double(oh) * ow);

    // One double accumulator per output element, summed in a fixed
    // (i, ky, kx) order. At unit stride an output row is swept by the
    // rowAccumDouble micro-kernel, one call per (i, ky, kx) tap over
    // the ox range whose ix = ox + kx - padW lands inside the input.
    // A float x float product is exact in double, so a fused
    // multiply-add rounds exactly like the scalar multiply-then-add:
    // both paths produce the same bits on every ISA. Strided rows keep
    // the scalar per-element loop.
    const bool rowKernel = strideH == 1 && strideW == 1;
    parallelFor(0, std::int64_t(x.n()) * nj, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        std::vector<double> accRow(rowKernel ? size_t(ow) : 0, 0.0);
        for (std::int64_t bj = lo; bj < hi; ++bj) {
            const int b = int(bj / nj);
            const int j = int(bj % nj);
            const float *xb = xbase + size_t(b) * nc * size_t(hh) * ww;
            const float *wj = wbase + size_t(j) * nc * kh * kw;
            float *yplane =
                ybase + (size_t(b) * nj + j) * size_t(oh) * ow;
            for (int oy = 0; oy < oh; ++oy) {
                float *yrow = yplane + size_t(oy) * ow;
                if (!rowKernel) {
                    for (int ox = 0; ox < ow; ++ox) {
                        double acc = 0.0;
                        for (int i = 0; i < nc; ++i) {
                            const float *xplane =
                                xb + size_t(i) * hh * ww;
                            const float *wi = wj + size_t(i) * kh * kw;
                            for (int ky = 0; ky < kh; ++ky) {
                                const int iy = oy * strideH + ky - padH;
                                if (iy < 0 || iy >= hh)
                                    continue;
                                const float *xrow =
                                    xplane + size_t(iy) * ww;
                                for (int kx = 0; kx < kw; ++kx) {
                                    const int ix =
                                        ox * strideW + kx - padW;
                                    if (ix < 0 || ix >= ww)
                                        continue;
                                    acc += double(wi[ky * kw + kx]) *
                                           xrow[ix];
                                }
                            }
                        }
                        yrow[ox] = float(acc);
                    }
                    continue;
                }
                std::fill(accRow.begin(), accRow.end(), 0.0);
                for (int i = 0; i < nc; ++i) {
                    const float *xplane = xb + size_t(i) * hh * ww;
                    const float *wi = wj + size_t(i) * kh * kw;
                    for (int ky = 0; ky < kh; ++ky) {
                        const int iy = oy + ky - padH;
                        if (iy < 0 || iy >= hh)
                            continue;
                        const float *xrow = xplane + size_t(iy) * ww;
                        for (int kx = 0; kx < kw; ++kx) {
                            // ix = ox + kx - padW must stay in [0, ww)
                            const int lo2 = std::max(0, padW - kx);
                            const int hi2 =
                                std::min(ow, ww + padW - kx);
                            if (hi2 <= lo2)
                                continue;
                            K.rowAccumDouble(accRow.data() + lo2,
                                             xrow + lo2 + kx - padW,
                                             double(wi[ky * kw + kx]),
                                             hi2 - lo2);
                        }
                    }
                }
                for (int ox = 0; ox < ow; ++ox)
                    yrow[ox] = float(accRow[size_t(ox)]);
            }
        }
    });
    return y;
}

namespace {

/**
 * dw[j0 + l, i, ky, kx] for l in [0, NB): NB output channels share
 * each input row read, and each lane keeps its own serial (b, oy, ox)
 * accumulation chain over the taps that land inside the input. The NB
 * independent chains are what buys the speed over one chain at a time;
 * no lane's order changes.
 */
template <int NB>
void
gradWeightsBlock(const float *xbase, const float *dybase, float *dwbase,
                 int batch, int ni, int nj, int hh, int ww, int r,
                 int j0, int i)
{
    const int pad = (r - 1) / 2;
    const size_t plane = size_t(hh) * ww;
    for (int ky = 0; ky < r; ++ky) {
        // oy such that iy = oy + ky - pad stays in [0, hh)
        const int oyLo = std::max(0, pad - ky);
        const int oyHi = std::min(hh, hh + pad - ky);
        for (int kx = 0; kx < r; ++kx) {
            const int oxLo = std::max(0, pad - kx);
            const int oxHi = std::min(ww, ww + pad - kx);
            double acc[NB] = {};
            for (int b = 0; b < batch; ++b) {
                const float *xplane = xbase + (size_t(b) * ni + i) * plane;
                const float *dyplane =
                    dybase + (size_t(b) * nj + j0) * plane;
                for (int oy = oyLo; oy < oyHi; ++oy) {
                    const float *xrow =
                        xplane + size_t(oy + ky - pad) * ww;
                    const float *dyrow = dyplane + size_t(oy) * ww;
                    for (int ox = oxLo; ox < oxHi; ++ox) {
                        const double xv = xrow[ox + kx - pad];
                        for (int l = 0; l < NB; ++l)
                            acc[l] +=
                                double(dyrow[size_t(l) * plane + ox]) *
                                xv;
                    }
                }
            }
            for (int l = 0; l < NB; ++l)
                dwbase[((size_t(j0 + l) * ni + i) * r + ky) * r + kx] =
                    float(acc[l]);
        }
    }
}

constexpr int kGradWBlock = 8;

} // namespace

Tensor
directConvGradWeights(const Tensor &x, const Tensor &dy, int r)
{
    WINOMC_SPAN("direct.grad_weights", "wino");
    winomc_assert(x.n() == dy.n() && x.h() == dy.h() && x.w() == dy.w(),
                  "shape mismatch in direct weight gradient");
    Tensor dw(dy.c(), x.c(), r, r);
    const int ni = x.c();
    const int nj = dy.c();
    const int nBlocks = (nj + kGradWBlock - 1) / kGradWBlock;
    const float *xbase = x.data();
    const float *dybase = dy.data();
    float *dwbase = dw.data();

    // Output partition over (block of output channels, i): the batch
    // reduction stays inside one task, so the summation order is
    // thread-count invariant. Each dw element is one serial
    // double-precision chain in (b, oy, ox) order. The products are
    // float x float, exact in double, so the chain rounds identically
    // whatever the compiler or ISA does with the multiply-add.
    parallelFor(0, std::int64_t(nBlocks) * ni, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t bi = lo; bi < hi; ++bi) {
            const int i = int(bi % ni);
            const int j0 = int(bi / ni) * kGradWBlock;
            const int jEnd = std::min(nj, j0 + kGradWBlock);
            // A full block takes the 8-lane body; a ragged tail goes one
            // channel at a time.
            if (jEnd - j0 == kGradWBlock) {
                gradWeightsBlock<kGradWBlock>(xbase, dybase, dwbase, x.n(),
                                              ni, nj, x.h(), x.w(), r, j0,
                                              i);
                continue;
            }
            for (int j = j0; j < jEnd; ++j)
                gradWeightsBlock<1>(xbase, dybase, dwbase, x.n(), ni, nj,
                                    x.h(), x.w(), r, j, i);
        }
    });
    return dw;
}

} // namespace winomc
