#include "winograd/conv.hh"

#include <algorithm>
#include <array>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "winograd/microkernel.hh"
#include "winograd/plan.hh"
#include "winograd/stages.hh"

namespace winomc {

using stage::kMaxAlpha;
using stage::StageTimer;
using stage::TileRange;

namespace {

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

/** Run fn over [0, n): on the pool for a whole-grid call, inline for a
 *  strip (whose caller's strip loop is the parallel unit). */
template <class Fn>
void
forRange(const TileRange &r, std::int64_t n, const Fn &fn)
{
    if (r.grid)
        parallelFor(0, n, 1, fn);
    else
        fn(std::int64_t(0), n);
}

/** The trace span + throughput timer of a whole-grid stage call; a
 *  strip call records neither (its plan times the fused phase). */
struct GridProbe
{
    GridProbe(const TileRange &r, const char *span, const char *stageId,
              double flops)
        : timer(stageId, flops, r.grid)
    {
        if (r.grid)
            scope.emplace(span, "wino");
    }
    std::optional<ScopedSpan> scope;
    StageTimer timer;
};

void
checkAlpha(int alpha)
{
    winomc_assert(alpha <= kMaxAlpha, "alpha too large: ", alpha,
                  " (the transform panels hold at most ", kMaxAlpha, ")");
}

/** Spatial patch origins of the cnt tiles starting at tile t0. */
void
patchOrigins(const stage::TileMap &mp, int t0, int cnt, int *tr, int *tc)
{
    for (int l = 0; l < cnt; ++l) {
        const int t = t0 + l;
        tr[l] = (t / mp.grid.tilesW) * mp.grid.m - mp.org;
        tc[l] = (t % mp.grid.tilesW) * mp.grid.m - mp.org;
    }
}

/**
 * Task-local tallies behind the quant.mask.* (mask build) and
 * quant.ew.* (row compaction) counters: accumulated in registers
 * inside the kernels, published once per task or strip so the metrics
 * registry mutex never sits on the hot path.
 */
struct SkipTally
{
    double panelsTotal = 0.0, panelsZero = 0.0;
    double rowsTotal = 0.0, rowsSkipped = 0.0, flopsSkipped = 0.0;

    void
    publish() const
    {
        if (!metrics::enabled())
            return;
        if (panelsTotal > 0.0) {
            metrics::counterAdd("quant.mask.panels_total", panelsTotal);
            metrics::counterAdd("quant.mask.panels_zero", panelsZero);
        }
        if (rowsTotal > 0.0) {
            metrics::counterAdd("quant.ew.rows_total", rowsTotal);
            metrics::counterAdd("quant.ew.rows_skipped", rowsSkipped);
            metrics::counterAdd("quant.ew.flops_skipped", flopsSkipped);
        }
    }
};

/** Row length of a tile container's (batch * tiles) axis. */
template <class Tiles>
std::size_t
rowLen(const Tiles &t)
{
    return std::size_t(t.batch()) * t.tiles();
}

} // namespace

namespace stage {

StageTimer::StageTimer(const char *stage, double flops, bool on)
    : stage(stage), flops(flops), active(on && metrics::enabled())
{
    if (active) {
        start = std::chrono::steady_clock::now();
        perf0 = perf::read();
    }
}

StageTimer::~StageTimer()
{
    if (active) {
        std::chrono::duration<double> d =
            std::chrono::steady_clock::now() - start;
        mk::publishStageMetrics(stage, d.count(), flops);
        // This thread's hardware-counter share of the stage
        // (perf.<stage>.*); joins kernel.<stage>.{seconds,flops} in the
        // winomc-report roofline.
        perf::publishStage(stage, perf0);
    }
}

TileMap::TileMap(Side side, const WinogradAlgo &algo, const TileGrid &g)
    : grid(g), alpha(algo.alpha)
{
    const int a = algo.alpha;
    const int m = algo.m;
    const bool inputSide = side == Side::Input || side == Side::InputAdjoint;
    edge = inputSide ? a : m;
    org = inputSide ? g.pad : 0;
    add = side == Side::InputAdjoint;
    flopsPerTile = inputSide ? 4.0 * a * a * a : 2.0 * m * a * (a + m);
    switch (side) {
      case Side::Input: // X = B^T x B
        L = algo.BT.data();
        R = algo.B.data();
        span = "wino.xform.input";
        stageId = "xform.input";
        break;
      case Side::InputAdjoint: // adjoint of X = B^T x B: B dX B^T
        L = algo.B.data();
        R = algo.BT.data();
        span = "wino.xform.input_adjoint";
        stageId = "xform.input_adjoint";
        break;
      case Side::Output: // y = A^T Y A
        L = algo.AT.data();
        R = algo.A.data();
        span = "wino.xform.inverse";
        stageId = "xform.inverse";
        break;
      case Side::OutputAdjoint: // adjoint of y = A^T Y A: A dy A^T
        L = algo.A.data();
        R = algo.AT.data();
        span = "wino.xform.inverse_adjoint";
        stageId = "xform.inverse_adjoint";
        break;
    }
}

template <class Tiles, bool Masked>
void
gather(const TileMap &mp, const Tensor &src, const TileRange &r,
       Tiles &dst, ActMask *mask, int halfKind)
{
    constexpr bool kHalf = std::is_same_v<Tiles, HalfTiles>;
    checkAlpha(mp.alpha);
    winomc_assert(src.h() == mp.grid.h && src.w() == mp.grid.w &&
                      r.b1 <= src.n() && r.t0 + r.tcnt <= mp.grid.tiles(),
                  "tile gather source range mismatch");
    winomc_assert(dst.alphaEdge() == mp.alpha && dst.channels() == src.c() &&
                      dst.batch() >= r.b1 - r.b0 && dst.tiles() >= r.tcnt,
                  "tile gather destination shape mismatch");
    const int a = mp.alpha;
    const int e = mp.edge;
    const int nc = src.c();
    const int h = src.h();
    const int w = src.w();
    const auto &K = mk::kernels();
    const std::size_t uvStr = dst.uvStride();
    GridProbe probe(r, mp.span, mp.stageId,
                    mp.flopsPerTile * double(r.b1 - r.b0) * nc * r.tcnt);

    // Each (image, channel) plane is independent; workers keep their
    // SoA scratch panel on the stack so the loop never allocates. The
    // spatial side is gathered scalar (strided, padded); the transform
    // runs vectorized across the panel's tiles. A masked gather then
    // scans the just-written (L1-hot) panel for all-zero coefficients;
    // each destination mask plane has exactly one writer.
    forRange(r, std::int64_t(r.b1 - r.b0) * nc,
             [&](std::int64_t lo, std::int64_t hi) {
        SoaPanel soa;
        SkipTally tally;
        for (std::int64_t bc = lo; bc < hi; ++bc) {
            const int db = int(bc / nc);
            const int c = int(bc % nc);
            const float *plane =
                src.data() + (std::size_t(r.b0 + db) * nc + c) * h * w;
            if constexpr (Masked) {
                std::uint64_t *mreg = mask->plane(c, db);
                std::fill(mreg, mreg + mask->wordsPerPlane(), 0);
            }
            for (int p0 = 0; p0 < r.tcnt; p0 += mk::kTilePanel) {
                const int cnt = std::min(mk::kTilePanel, r.tcnt - p0);
                int tr[mk::kTilePanel], tc[mk::kTilePanel];
                patchOrigins(mp, r.t0 + p0, cnt, tr, tc);
                K.packTilePanel(soa.data(), plane, h, w, tr, tc, e, e, cnt);
                auto *out = dst.uvBase(c, db, p0);
                if constexpr (kHalf)
                    K.xformToTilesHalf(mp.L, a, e, mp.R, e, a, soa.data(),
                                       out, uvStr, cnt, halfKind);
                else
                    K.xformToTiles(mp.L, a, e, mp.R, e, a, soa.data(), out,
                                   uvStr, cnt);
                if constexpr (Masked) {
                    std::uint64_t zm;
                    if constexpr (kHalf)
                        zm = K.panelZeroMaskHalf(out, uvStr, a * a, cnt);
                    else
                        zm = K.panelZeroMask(out, uvStr, a * a, cnt);
                    mask->orPanelBits(c, db, p0 / mk::kTilePanel, zm);
                    tally.panelsTotal += a * a;
                    tally.panelsZero += __builtin_popcountll(zm);
                }
            }
        }
        tally.publish();
    });
}

void
scatter(const TileMap &mp, const WinoTiles &src, const TileRange &r,
        Tensor &dst)
{
    checkAlpha(mp.alpha);
    winomc_assert(dst.h() == mp.grid.h && dst.w() == mp.grid.w &&
                      r.b1 <= dst.n() && r.t0 + r.tcnt <= mp.grid.tiles(),
                  "tile scatter destination range mismatch");
    winomc_assert(src.alphaEdge() == mp.alpha && src.channels() == dst.c() &&
                      src.batch() >= r.b1 - r.b0 && src.tiles() >= r.tcnt,
                  "tile scatter source shape mismatch");
    const int a = mp.alpha;
    const int e = mp.edge;
    const int nc = dst.c();
    const int h = dst.h();
    const int w = dst.w();
    const auto &K = mk::kernels();
    const auto unpack = mp.add ? K.unpackAddTilePanel : K.unpackTilePanel;
    const std::size_t uvStr = src.uvStride();
    GridProbe probe(r, mp.span, mp.stageId,
                    mp.flopsPerTile * double(r.b1 - r.b0) * nc * r.tcnt);

    // Partitioned over destination planes: overlap-add only ever
    // collides within one plane, and panel lanes scatter in ascending
    // tile order, so any thread count is race-free and bitwise
    // identical to serial.
    forRange(r, std::int64_t(r.b1 - r.b0) * nc,
             [&](std::int64_t lo, std::int64_t hi) {
        SoaPanel soa;
        for (std::int64_t bc = lo; bc < hi; ++bc) {
            const int db = int(bc / nc);
            const int c = int(bc % nc);
            float *plane =
                dst.data() + (std::size_t(r.b0 + db) * nc + c) * h * w;
            if (mp.add && r.t0 == 0)
                std::fill(plane, plane + std::size_t(h) * w, 0.0f);
            for (int p0 = 0; p0 < r.tcnt; p0 += mk::kTilePanel) {
                const int cnt = std::min(mk::kTilePanel, r.tcnt - p0);
                K.xformFromTiles(mp.L, e, a, mp.R, a, e,
                                 src.uvBase(c, db, p0), uvStr, soa.data(),
                                 cnt);
                int tr[mk::kTilePanel], tc[mk::kTilePanel];
                patchOrigins(mp, r.t0 + p0, cnt, tr, tc);
                unpack(plane, h, w, tr, tc, e, e, soa.data(), cnt);
            }
        }
    });
}

template <class Tiles, bool Masked>
void
ewForward(const Tiles &X, const WinoWeights &W, const TileRange &r,
          WinoTiles &Y, const ActMask *mask, int halfKind)
{
    constexpr bool kHalf = std::is_same_v<Tiles, HalfTiles>;
    constexpr bool kCompact = Masked || kHalf;
    using Elem = std::remove_const_t<
        std::remove_pointer_t<decltype(X.row(0, 0))>>;
    winomc_assert(X.alphaEdge() == W.alphaEdge(),
                  "algo mismatch between tiles and weights");
    winomc_assert(X.channels() == W.inChannels(),
                  "channel mismatch: tiles ", X.channels(), " weights ",
                  W.inChannels());
    const int kLen = r.cols();
    winomc_assert(Y.alphaEdge() == X.alphaEdge() &&
                      Y.channels() == W.outChannels() &&
                      rowLen(X) >= std::size_t(kLen) &&
                      rowLen(Y) >= std::size_t(kLen),
                  "elementwise forward shape mismatch");
    const int a2 = X.uvCount();
    const int nj = W.outChannels();
    const int ni = W.inChannels();
    const int jBlocks = (nj + kJBlock - 1) / kJBlock;
    const int kBlocks = (kLen + kKBlock - 1) / kKBlock;
    const auto &K = mk::kernels();
    GridProbe probe(r, "wino.ew.fwd", "ew.fwd",
                    2.0 * a2 * double(nj) * ni * kLen);

    // Resolve the mask once into a per-(uv, k-block, row) byte table.
    // Every J-block task over one uv needs the same row liveness, so
    // querying the bit-packed mask from the GEMM inner loop would
    // repeat the panel walk jBlocks times per row; at this granularity
    // the walk itself, not the skipped FLOPs, dominates.
    std::vector<std::uint8_t> rowLive;
    if constexpr (Masked) {
        rowLive.resize(std::size_t(a2) * kBlocks * ni);
        forRange(r, a2, [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t uv = lo; uv < hi; ++uv)
                for (int kb = 0; kb < kBlocks; ++kb) {
                    const int k0 = kb * kKBlock;
                    const int kn = std::min(kKBlock, kLen - k0);
                    // Unit stride in i: the compaction scan walks this.
                    std::uint8_t *dst =
                        rowLive.data() + (uv * kBlocks + kb) * ni;
                    for (int i = 0; i < ni; ++i)
                        dst[i] = !mask->rowRangeZero(int(uv), i, k0, kn);
                }
        });
    }

    // Y[uv] (J x cols) = W[uv] (J x I) * X[uv] (I x cols), partitioned
    // over the uv x J-block output space; each task owns kJBlock Y
    // rows and zeroes the range's columns before accumulating.
    const std::size_t xrs = rowLen(X);
    forRange(r, std::int64_t(a2) * jBlocks,
             [&](std::int64_t lo, std::int64_t hi) {
        SkipTally tally;
        std::vector<const Elem *> xc(kCompact ? std::size_t(ni) : 0);
        std::vector<float> wc(kCompact ? std::size_t(ni) : 0);
        std::vector<std::uint8_t> grp(
            kCompact ? std::size_t((ni + kIUnroll - 1) / kIUnroll) : 0);
        for (std::int64_t task = lo; task < hi; ++task) {
            const int uv = int(task / jBlocks);
            const int j0 = int(task % jBlocks) * kJBlock;
            const int jn = std::min(kJBlock, nj - j0);
            float *yrows[kJBlock];
            for (int jj = 0; jj < jn; ++jj) {
                yrows[jj] = Y.row(uv, j0 + jj);
                std::fill(yrows[jj], yrows[jj] + kLen, 0.0f);
            }
            const Elem *xuv = X.row(uv, 0);
            for (int k0 = 0; k0 < kLen; k0 += kKBlock) {
                const int kb = std::min(kKBlock, kLen - k0);
                if constexpr (!kCompact) {
                    // Blocked body: a register block of kIUnroll input
                    // channels per call, so every Y load/store
                    // amortizes kIUnroll FMAs instead of one.
                    for (int i0 = 0; i0 < ni; i0 += kIUnroll) {
                        const int ib = std::min(kIUnroll, ni - i0);
                        const float *xr[kIUnroll];
                        for (int ii = 0; ii < ib; ++ii)
                            xr[ii] = xuv + (i0 + ii) * xrs + k0;
                        for (int jj = 0; jj < jn; ++jj) {
                            float wv[kIUnroll];
                            bool any = false;
                            for (int ii = 0; ii < ib; ++ii) {
                                wv[ii] = W.at(uv, j0 + jj, i0 + ii);
                                any = any || wv[ii] != 0.0f;
                            }
                            if (any) // zero weight blocks skip
                                K.panelAccum(yrows[jj] + k0, xr, wv, ib,
                                             kb);
                        }
                    }
                } else {
                    // Compacting bodies: every surviving (weight
                    // nonzero AND activation range live) row of the
                    // whole input-channel column goes into one kernel
                    // call, so each y panel is read and written once
                    // instead of ni/kIUnroll times. The fp32 group
                    // descriptor keeps the blocked kernel's
                    // per-register-block expression shapes (bitwise
                    // identical to dense fp32); the 16-bit kernel
                    // accumulates per row sequentially at every ISA
                    // level and ignores the grouping. The append is
                    // branchless: at high sparsity the scan itself is
                    // the cost, and a skipped-row branch mispredicts
                    // by construction.
                    const std::uint8_t *live = nullptr;
                    if constexpr (Masked)
                        live = rowLive.data() +
                               (std::size_t(uv) * kBlocks + k0 / kKBlock) *
                                   ni;
                    for (int jj = 0; jj < jn; ++jj) {
                        const float *wrow =
                            W.raw() +
                            (std::size_t(uv) * nj + j0 + jj) * ni;
                        int nv = 0, ng = 0, tailOrig = kIUnroll;
                        for (int i0 = 0; i0 < ni; i0 += kIUnroll) {
                            const int ib = std::min(kIUnroll, ni - i0);
                            const int base = nv;
                            for (int i = i0; i < i0 + ib; ++i) {
                                wc[std::size_t(nv)] = wrow[i];
                                xc[std::size_t(nv)] = xuv + i * xrs + k0;
                                nv += int(wrow[i] != 0.0f) &
                                      int(!Masked || live[i]);
                            }
                            if (nv != base) {
                                grp[std::size_t(ng++)] =
                                    std::uint8_t(nv - base);
                                tailOrig = ib;
                            }
                        }
                        if constexpr (Masked) {
                            tally.rowsTotal += ni;
                            tally.rowsSkipped += ni - nv;
                            tally.flopsSkipped += 2.0 * (ni - nv) * kb;
                        }
                        if (nv == 0)
                            continue;
                        if constexpr (kHalf)
                            K.panelAccumHalf(yrows[jj] + k0, xc.data(),
                                             wc.data(), nv, kb,
                                             halfKind);
                        else
                            K.panelAccumGrouped(yrows[jj] + k0, xc.data(),
                                                wc.data(), nv, kb,
                                                grp.data(), ng, tailOrig);
                    }
                }
            }
        }
        tally.publish();
    });
}

void
ewBackwardData(const WinoTiles &dY, const WinoWeights &W,
               const TileRange &r, WinoTiles &dX)
{
    const int kLen = r.cols();
    winomc_assert(dY.channels() == W.outChannels(),
                  "channel mismatch in backward data");
    winomc_assert(dX.alphaEdge() == dY.alphaEdge() &&
                      dX.channels() == W.inChannels() &&
                      rowLen(dY) >= std::size_t(kLen) &&
                      rowLen(dX) >= std::size_t(kLen),
                  "elementwise backward-data shape mismatch");
    const int a2 = dY.uvCount();
    const int nj = W.outChannels();
    const int ni = W.inChannels();
    const int iBlocks = (ni + kJBlock - 1) / kJBlock;
    const auto &K = mk::kernels();
    GridProbe probe(r, "wino.ew.bwd_data", "ew.bwd_data",
                    2.0 * a2 * double(nj) * ni * kLen);

    // dX[uv] (I x cols) = W[uv]^T (I x J) * dY[uv] (J x cols): the
    // blocked forward body with the roles of I and J swapped. The
    // weight register block W.at(uv, j, i0..i0+3) is contiguous.
    forRange(r, std::int64_t(a2) * iBlocks,
             [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t task = lo; task < hi; ++task) {
            const int uv = int(task / iBlocks);
            const int i0 = int(task % iBlocks) * kJBlock;
            const int in = std::min(kJBlock, ni - i0);
            float *dxrows[kJBlock];
            for (int ii = 0; ii < in; ++ii) {
                dxrows[ii] = dX.row(uv, i0 + ii);
                std::fill(dxrows[ii], dxrows[ii] + kLen, 0.0f);
            }
            for (int k0 = 0; k0 < kLen; k0 += kKBlock) {
                const int kb = std::min(kKBlock, kLen - k0);
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

void
ewGradWeights(const WinoTiles &dY, const WinoTiles &X, WinoWeights &dW)
{
    WINOMC_SPAN("wino.ew.grad_weights", "wino");
    winomc_assert(dY.batch() == X.batch() && dY.tiles() == X.tiles() &&
                  dY.alphaEdge() == X.alphaEdge(),
                  "shape mismatch in weight gradient");
    winomc_assert(dW.alphaEdge() == X.alphaEdge() &&
                  dW.outChannels() == dY.channels() &&
                  dW.inChannels() == X.channels(),
                  "weight gradient destination shape mismatch");
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

#define WINOMC_STAGE_STORAGE(T, M)                                         \
    template void gather<T, M>(const TileMap &, const Tensor &,            \
                               const TileRange &, T &, ActMask *, int);    \
    template void ewForward<T, M>(const T &, const WinoWeights &,          \
                                  const TileRange &, WinoTiles &,          \
                                  const ActMask *, int);
WINOMC_STAGE_STORAGE(WinoTiles, false)
WINOMC_STAGE_STORAGE(WinoTiles, true)
WINOMC_STAGE_STORAGE(HalfTiles, false)
WINOMC_STAGE_STORAGE(HalfTiles, true)
#undef WINOMC_STAGE_STORAGE

} // namespace stage

// ------------------------------------------- Value-returning stage API

WinoTiles
transformInput(const Tensor &x, const WinogradAlgo &algo)
{
    const TileGrid grid(x.h(), x.w(), algo);
    WinoTiles out(algo.alpha, x.c(), x.n(), grid.tiles());
    stage::gather<WinoTiles, false>({stage::Side::Input, algo, grid}, x,
                                    TileRange::whole(x.n(), grid.tiles()),
                                    out);
    return out;
}

Tensor
transformInputAdjoint(const WinoTiles &dX, const WinogradAlgo &algo,
                      int h, int w)
{
    const TileGrid grid(h, w, algo);
    winomc_assert(grid.tiles() == dX.tiles(),
                  "tile count mismatch in input adjoint");
    Tensor dx(dX.batch(), dX.channels(), h, w);
    stage::scatter({stage::Side::InputAdjoint, algo, grid}, dX,
                   TileRange::whole(dX.batch(), grid.tiles()), dx);
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
    checkAlpha(a);
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
    checkAlpha(a);
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

WinoTiles
elementwiseForward(const WinoTiles &X, const WinoWeights &W)
{
    WinoTiles Y(X.alphaEdge(), W.outChannels(), X.batch(), X.tiles());
    stage::ewForward<WinoTiles, false>(
        X, W, TileRange::whole(X.batch(), X.tiles()), Y);
    return Y;
}

WinoTiles
elementwiseBackwardData(const WinoTiles &dY, const WinoWeights &W)
{
    WinoTiles dX(dY.alphaEdge(), W.inChannels(), dY.batch(), dY.tiles());
    stage::ewBackwardData(dY, W, TileRange::whole(dY.batch(), dY.tiles()),
                          dX);
    return dX;
}

WinoWeights
elementwiseGradWeights(const WinoTiles &dY, const WinoTiles &X)
{
    WinoWeights dW(X.alphaEdge(), dY.channels(), X.channels());
    stage::ewGradWeights(dY, X, dW);
    return dW;
}

Tensor
inverseTransform(const WinoTiles &Y, const WinogradAlgo &algo, int h,
                 int w)
{
    const TileGrid grid(h, w, algo);
    winomc_assert(grid.tiles() == Y.tiles(),
                  "tile count mismatch in inverse transform");
    Tensor y(Y.batch(), Y.channels(), h, w);
    stage::scatter({stage::Side::Output, algo, grid}, Y,
                   TileRange::whole(Y.batch(), grid.tiles()), y);
    return y;
}

WinoTiles
inverseTransformAdjoint(const Tensor &dy, const WinogradAlgo &algo)
{
    const TileGrid grid(dy.h(), dy.w(), algo);
    WinoTiles dY(algo.alpha, dy.c(), dy.n(), grid.tiles());
    stage::gather<WinoTiles, false>(
        {stage::Side::OutputAdjoint, algo, grid}, dy,
        TileRange::whole(dy.n(), grid.tiles()), dY);
    return dY;
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
