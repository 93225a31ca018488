#include "winograd/plan.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>

#include "common/env.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "winograd/conv.hh"
#include "winograd/cost.hh"
#include "winograd/microkernel.hh"
#include "winograd/stages.hh"

namespace winomc {

namespace {

/**
 * Strip scratch budget: one input-side plus one output-side panel set
 * per worker should sit inside a typical L2 slice, so a whole strip's
 * transform -> accumulate -> inverse chain runs without round trips to
 * DRAM. Strips are whole tile panels; tiny grids collapse to one
 * panel-sized strip.
 */
constexpr std::size_t kStripScratchBytes = 512 * 1024;

/**
 * Auto-mode threshold: fuse once the staged pipeline's forward slabs
 * (Xt + Yt) overflow this. Below it the slabs are cache-resident
 * anyway and the staged path's tile caches come for free.
 */
constexpr std::size_t kFusedAutoMinSlabBytes = 1u << 20;

std::atomic<int> gFusedMode{-1}; ///< -1 = unresolved (parse env once)

using stage::Side;
using stage::StageTimer;
using stage::TileMap;
using stage::TileRange;

} // namespace

const char *
fusedModeName(FusedMode m)
{
    switch (m) {
      case FusedMode::Off:
        return "off";
      case FusedMode::Auto:
        return "auto";
      case FusedMode::On:
        return "on";
    }
    return "auto";
}

FusedMode
parseFusedMode(const char *str)
{
    return env::parseChoice("WINOMC_FUSED", str,
                            {{"auto", int(FusedMode::Auto)},
                             {"on", int(FusedMode::On)},
                             {"off", int(FusedMode::Off)}},
                            FusedMode::Auto);
}

FusedMode
requestedFusedMode()
{
    int m = gFusedMode.load(std::memory_order_acquire);
    if (m < 0) {
        // Benign race: concurrent first calls parse the same env var.
        m = int(parseFusedMode(std::getenv("WINOMC_FUSED")));
        gFusedMode.store(m, std::memory_order_release);
    }
    return FusedMode(m);
}

void
setFusedMode(FusedMode m)
{
    gFusedMode.store(int(m), std::memory_order_release);
}

WinoPlan::WinoPlan(const WinogradAlgo &algo, int batch, int inCh,
                   int outCh, int h, int w)
    : alg(algo), nb(batch), ni(inCh), nj(outCh), fh(h), fw(w),
      grid(h, w, algo), pol(currentExecPolicy())
{
    winomc_assert(batch > 0 && inCh > 0 && outCh > 0,
                  "degenerate WinoPlan configuration");
    winomc_assert(algo.alpha <= stage::kMaxAlpha, "alpha too large: ",
                  algo.alpha, " (the transform panels hold at most ",
                  stage::kMaxAlpha, ")");
    // Validate the planned working set against the workspace budget
    // before touching the pool, so an oversized shape dies with a clear
    // message instead of an OOM mid-pipeline.
    const std::size_t perUv =
        std::size_t(algo.alpha) * algo.alpha * batch * grid.tiles();
    ws::checkBudget(perUv * (2 * std::size_t(inCh + outCh)) *
                        sizeof(float),
                    "WinoPlan(" + std::to_string(batch) + "x" +
                        std::to_string(inCh) + "->" +
                        std::to_string(outCh) + "@" + std::to_string(h) +
                        "x" + std::to_string(w) + ")");
    shapeTileSet(slab, batch, grid.tiles(), true);
    shapeTileSet(gradSlab, batch, grid.tiles(), false);

    // Resolve the policy once: 16-bit storage replaces the fp32 input
    // tiles of the forward, a sparse policy adds the activation mask.
    const bool half = pol.prec != Prec::F32;
    halfKind = pol.prec == Prec::F16 ? mk::kHalfF16 : mk::kHalfBf16;
    fp32Input = !half;
    if (half)
        fwdRange = pol.sparse ? &WinoPlan::forwardRange<HalfTiles, true>
                              : &WinoPlan::forwardRange<HalfTiles, false>;
    else
        fwdRange = pol.sparse ? &WinoPlan::forwardRange<WinoTiles, true>
                              : &WinoPlan::forwardRange<WinoTiles, false>;

    // Fused strip geometry: whole tile panels, sized so one worker's
    // in+out scratch fits kStripScratchBytes, clamped to [one panel,
    // the panel-rounded grid].
    const std::size_t a2 = std::size_t(algo.alpha) * algo.alpha;
    const std::size_t perTile = a2 * std::size_t(inCh + outCh) *
                                sizeof(float);
    int t = int(kStripScratchBytes / perTile);
    // Weight-amortization floor: each strip re-streams the whole
    // Winograd weight slab (a^2*I*J floats), while fusing saves one
    // write+read round trip of the strip's slab share (a^2*(I+J)*
    // stripT floats each way). Keeping the re-stream at <= 1/4 of the
    // saving needs stripT >= 2*I*J/(I+J) — without this floor, heavy
    // channel counts shrink strips until weight traffic eats the win.
    const int amort = 2 * inCh * outCh / (inCh + outCh);
    t = std::max(t, amort);
    t = ((t + mk::kTilePanel - 1) / mk::kTilePanel) * mk::kTilePanel;
    const int ntPanels =
        ((grid.tiles() + mk::kTilePanel - 1) / mk::kTilePanel) *
        mk::kTilePanel;
    stripT = std::clamp(t, mk::kTilePanel, ntPanels);

    // Exact in-bounds gather footprint of one (image, channel) plane,
    // for the measured-traffic counters.
    const int a = algo.alpha;
    for (int th = 0; th < grid.tilesH; ++th) {
        const int r0 = grid.tileRow(th);
        const int rows = std::min(r0 + a, h) - std::max(r0, 0);
        for (int tw = 0; tw < grid.tilesW; ++tw) {
            const int c0 = grid.tileCol(tw);
            const int cols = std::min(c0 + a, w) - std::max(c0, 0);
            gatherElemsA += std::size_t(rows) * cols;
        }
    }
}

bool
WinoPlan::matches(const WinogradAlgo &algo, int batch, int inCh,
                  int outCh, int h, int w) const
{
    return &algo == &alg && batch == nb && inCh == ni && outCh == nj &&
           h == fh && w == fw && pol == currentExecPolicy();
}

std::size_t
WinoPlan::workspaceBytes() const
{
    auto bytes = [](const TileSet &s) {
        return (s.in.size() + s.out.size()) * sizeof(float) +
               s.inHalf.size() * sizeof(std::uint16_t) +
               s.mask.wordCount() * sizeof(std::uint64_t);
    };
    std::size_t total = bytes(slab) + bytes(gradSlab);
    for (const auto &s : stripSlots)
        total += bytes(*s);
    return total;
}

bool
WinoPlan::shouldFuse(bool train) const
{
    switch (requestedFusedMode()) {
      case FusedMode::Off:
        return false;
      case FusedMode::On:
        return true;
      case FusedMode::Auto:
        break;
    }
    // A train-mode forward needs the input-tile slab for the backward
    // anyway, so it stays staged.
    if (train)
        return false;
    // Fuse once the staged forward slabs overflow cache; below that,
    // staged is already cache-resident.
    return (slab.in.size() + slab.out.size()) * sizeof(float) >=
           kFusedAutoMinSlabBytes;
}

void
WinoPlan::shapeTileSet(TileSet &s, int batch, int tiles,
                       bool withPolicy) const
{
    s.in.reshape(alg.alpha, ni, batch, tiles);
    s.out.reshape(alg.alpha, nj, batch, tiles);
    // Sized up front so policy execution keeps the
    // zero-steady-state-allocation contract.
    if (withPolicy && pol.prec != Prec::F32)
        s.inHalf.reshape(alg.alpha, ni, batch, tiles);
    if (withPolicy && pol.sparse)
        s.mask.reshape(alg.alpha * alg.alpha, ni, batch, tiles);
}

WinoPlan::TileSet *
WinoPlan::newStripSlot()
{
    auto s = std::make_unique<TileSet>();
    shapeTileSet(*s, 1, stripT, true);
    stripSlots.push_back(std::move(s));
    return stripSlots.back().get();
}

WinoPlan::TileSet *
WinoPlan::acquireStripSlot()
{
    std::lock_guard<std::mutex> lk(stripMu);
    if (stripFree.empty())
        return newStripSlot();
    TileSet *s = stripFree.back();
    stripFree.pop_back();
    return s;
}

void
WinoPlan::releaseStripSlot(TileSet *s)
{
    std::lock_guard<std::mutex> lk(stripMu);
    stripFree.push_back(s);
}

void
WinoPlan::ensureStripSlots(int n)
{
    // Build the worst-case concurrent slot count before entering the
    // parallel region: how many workers are simultaneously awake
    // varies run to run, so growing lazily inside the region would
    // make the zero-steady-state-allocation contract depend on the
    // warm-up call's scheduling luck.
    std::lock_guard<std::mutex> lk(stripMu);
    while (int(stripSlots.size()) < n)
        stripFree.push_back(newStripSlot());
}

void
WinoPlan::checkGroups(int groups) const
{
    winomc_assert(groups >= 1 && alg.alpha * alg.alpha % groups == 0,
                  "alpha^2 = ", alg.alpha * alg.alpha,
                  " must divide across ", groups, " MPT groups");
}

void
WinoPlan::checkShapes(const Tensor &in, int inCh, const WinoWeights &W,
                      const Tensor &out, int outCh,
                      const char *what) const
{
    winomc_assert(in.n() == nb && in.c() == inCh && in.h() == fh &&
                      in.w() == fw,
                  what, " input shape mismatch");
    winomc_assert(out.n() == nb && out.c() == outCh && out.h() == fh &&
                      out.w() == fw,
                  what, " output shape mismatch");
    winomc_assert(W.alphaEdge() == alg.alpha && W.inChannels() == ni &&
                      W.outChannels() == nj,
                  what, " weight shape mismatch");
}

TileRange
WinoPlan::groupSlice(const TileRange &r, int groups, int g) const
{
    const int share = alg.alpha * alg.alpha / groups;
    return r.uvSlice(g * share, (g + 1) * share);
}

template <class Tiles, bool Masked>
void
WinoPlan::forwardRange(const Tensor &x, const WinoWeights &W, Tensor &y,
                       const TileRange &r, TileSet &s, int groups)
{
    Tiles *xs;
    if constexpr (std::is_same_v<Tiles, HalfTiles>)
        xs = &s.inHalf;
    else
        xs = &s.in;
    ActMask *mask = Masked ? &s.mask : nullptr;
    stage::gather<Tiles, Masked>(TileMap(Side::Input, alg, grid), x, r,
                                 *xs, mask, halfKind);
    for (int g = 0; g < groups; ++g)
        stage::ewForward<Tiles, Masked>(*xs, W, groupSlice(r, groups, g),
                                        s.out, mask, halfKind);
    stage::scatter(TileMap(Side::Output, alg, grid), s.out, r, y);
}

void
WinoPlan::publishTraffic(const char *mode, const char *phase,
                         double xformBytes, double ewBytes,
                         double invBytes, double predictedBytes) const
{
    std::string base = "wino.";
    base += mode;
    base += '.';
    base += phase;
    metrics::counterAdd((base + ".xform_bytes").c_str(), xformBytes);
    metrics::counterAdd((base + ".ew_bytes").c_str(), ewBytes);
    metrics::counterAdd((base + ".inverse_bytes").c_str(), invBytes);
    metrics::counterAdd((base + ".bytes_moved").c_str(),
                        xformBytes + ewBytes + invBytes);
    metrics::counterAdd((base + ".calls").c_str(), 1.0);
    metrics::gaugeSet((base + ".predicted_bytes").c_str(),
                      predictedBytes);
}

void
WinoPlan::forward(const Tensor &x, const WinoWeights &W, Tensor &y,
                  bool train, int groups)
{
    checkShapes(x, ni, W, y, nj, "forward");
    checkGroups(groups);
    const bool fused = shouldFuse(train);
    if (fused)
        forwardFused(x, W, y, groups);
    else
        forwardStaged(x, W, y, groups);
    // Fused and 16-bit forwards bypass the fp32 input slab.
    haveInput = !fused && fp32Input;
    haveOutput = !fused;
    if (!train) {
        invalidateCache();
        return;
    }
    // The backward's weight-gradient product reads fp32 input tiles
    // (identical however the forward ran).
    if (!haveInput) {
        stage::gather<WinoTiles, false>(TileMap(Side::Input, alg, grid), x,
                                        TileRange::whole(nb, grid.tiles()),
                                        slab.in);
        haveInput = true;
    }
}

void
WinoPlan::forwardStaged(const Tensor &x, const WinoWeights &W, Tensor &y,
                        int groups)
{
    WINOMC_SPAN("wino.phase.fwd", "wino");
    (this->*fwdRange)(x, W, y, TileRange::whole(nb, grid.tiles()), slab,
                      groups);
    if (metrics::enabled()) {
        const ConvSpec spec{"plan", nb, ni, nj, fh, fw, alg.r};
        const double out = double(nb) * nj * fh * fw;
        const double f = double(sizeof(float));
        const double xb = double(precBytes(pol.prec)); // X-tile stream
        const double xt = double(slab.in.size());
        const double yt = double(slab.out.size());
        publishTraffic(
            "staged", "fwd", double(gatherElemsA) * nb * ni * f + xt * xb,
            xt * xb + (double(W.size()) + yt) * f, (yt + out) * f,
            double(predictedTrafficBytes(spec, alg, Phase::Fprop, false)
                       .totalBytes()));
    }
}

void
WinoPlan::forwardFused(const Tensor &x, const WinoWeights &W, Tensor &y,
                       int groups)
{
    WINOMC_SPAN("wino.fused.fwd", "wino");
    const int nt = grid.tiles();
    const int nStrips = stripCount();
    const int a = alg.alpha;
    const int m = alg.m;
    StageTimer probe("fused.fwd",
                     4.0 * a * a * a * double(nb) * ni * nt +
                         2.0 * a * a * double(nj) * ni * nb * nt +
                         2.0 * m * a * (a + m) * double(nb) * nj * nt);

    const std::int64_t nTasks = std::int64_t(nb) * nStrips;
    ensureStripSlots(int(std::min<std::int64_t>(
        ThreadPool::global().threadCount(), nTasks)));
    // One task per (image, strip); output tiles are disjoint across
    // tasks, so any chunking is race-free and bitwise identical.
    parallelFor(0, nTasks, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        TileSet *s = acquireStripSlot();
        for (std::int64_t task = lo; task < hi; ++task) {
            const int b = int(task / nStrips);
            const int t0 = int(task % nStrips) * stripT;
            (this->*fwdRange)(
                x, W, y, TileRange::strip(b, t0, std::min(stripT, nt - t0)),
                *s, groups);
        }
        releaseStripSlot(s);
    });
    if (metrics::enabled()) {
        const ConvSpec spec{"plan", nb, ni, nj, fh, fw, alg.r};
        const double f = double(sizeof(float));
        publishTraffic(
            "fused", "fwd", double(gatherElemsA) * nb * ni * f,
            double(W.size()) * nb * nStrips * f,
            double(nb) * nj * fh * fw * f,
            double(predictedTrafficBytes(spec, alg, Phase::Fprop, true,
                                         nStrips)
                       .totalBytes()));
    }
}

void
WinoPlan::backward(const Tensor &dy, const WinoWeights &W, Tensor &dx,
                   WinoWeights &dW, int groups)
{
    winomc_assert(haveInput,
                  "WinoPlan::backward without a train-mode forward: "
                  "the input tiles are stale");
    checkShapes(dy, nj, W, dx, ni, "backward");
    checkGroups(groups);
    const TileRange whole = TileRange::whole(nb, grid.tiles());
    // dYt = A dy A^T per tile, read by both products.
    stage::gather<WinoTiles, false>(TileMap(Side::OutputAdjoint, alg, grid),
                                    dy, whole, gradSlab.out);
    for (int g = 0; g < groups; ++g)
        stage::ewGradWeights(gradSlab.out, slab.in,
                             groupSlice(whole, groups, g), dW);
    for (int g = 0; g < groups; ++g)
        stage::ewBackwardData(gradSlab.out, W, groupSlice(whole, groups, g),
                              gradSlab.in);
    stage::scatter(TileMap(Side::InputAdjoint, alg, grid), gradSlab.in,
                   whole, dx);
    if (metrics::enabled()) {
        const ConvSpec spec{"plan", nb, ni, nj, fh, fw, alg.r};
        const double outPlane = double(nb) * nj * fh * fw;
        const double inPlane = double(nb) * ni * fh * fw;
        const double addSweep = double(gatherElemsA) * nb * ni;
        const double f = double(sizeof(float));
        const double xt = double(slab.in.size());
        const double dyt = double(gradSlab.out.size());
        const double dxt = double(gradSlab.in.size());
        // The dy transform is charged to bwd_data; grad_weights only
        // streams the two slabs the transforms already wrote.
        publishTraffic(
            "staged", "bwd_data", (outPlane + dyt) * f,
            (dyt + double(W.size()) + dxt) * f,
            (dxt + inPlane + 2.0 * addSweep) * f,
            double(predictedTrafficBytes(spec, alg, Phase::Bprop, false)
                       .totalBytes()));
        publishTraffic(
            "staged", "grad_weights", 0.0,
            (dyt + xt + double(dW.size())) * f, 0.0,
            double(predictedTrafficBytes(spec, alg, Phase::UpdateGrad,
                                         false)
                       .totalBytes()));
    }
}

const WinoTiles &
WinoPlan::outputTiles() const
{
    winomc_assert(haveOutput,
                  "output tiles not populated (only a staged train-mode "
                  "forward keeps them: WINOMC_FUSED=auto or off)");
    return slab.out;
}

// ------------------------------------------------------------- PlanLru

PlanLru::PlanLru(int capacity) : cap(capacity)
{
    winomc_assert(capacity >= 1, "PlanLru needs capacity >= 1, got ",
                  capacity);
}

std::unique_ptr<WinoPlan>
PlanLru::acquirePlan(const WinogradAlgo &algo, int batch, int inCh,
                     int outCh, int h, int w)
{
    for (std::size_t i = 0; i < pool.size(); ++i) {
        if (pool[i]->matches(algo, batch, inCh, outCh, h, w)) {
            std::unique_ptr<WinoPlan> p = std::move(pool[i]);
            pool.erase(pool.begin() + long(i));
            // The parked plan's tile caches describe whatever forward
            // ran before it was displaced — never valid for the lease.
            p->invalidateCache();
            return p;
        }
    }
    return std::make_unique<WinoPlan>(algo, batch, inCh, outCh, h, w);
}

void
PlanLru::releasePlan(std::unique_ptr<WinoPlan> plan)
{
    if (!plan)
        return;
    pool.insert(pool.begin(), std::move(plan));
    if (int(pool.size()) > cap)
        pool.pop_back(); // evict LRU; slabs return to the workspace
}

// ------------------------------------------------- DWM decomposition

namespace {

/** Per-dimension decomposition units: (phase, chunk) pairs. */
struct DimUnit
{
    int ph, chunk;
};

std::vector<DimUnit>
decomposeDim(int k, int stride)
{
    std::vector<DimUnit> units;
    for (int ph = 0; ph < stride; ++ph) {
        const int taps = (k - ph + stride - 1) / stride;
        for (int c = 0; c < (taps + 2) / 3; ++c)
            units.push_back({ph, c});
    }
    return units;
}

} // namespace

std::vector<DecompTerm>
decomposeSpec(const ConvSpec &spec)
{
    const std::vector<DimUnit> rows =
        decomposeDim(spec.kernelH(), spec.strideH);
    const std::vector<DimUnit> cols =
        decomposeDim(spec.kernelW(), spec.strideW);
    std::vector<DecompTerm> terms;
    terms.reserve(rows.size() * cols.size());
    for (const DimUnit &ru : rows) {
        for (const DimUnit &cu : cols) {
            DecompTerm t;
            t.phR = ru.ph;
            t.chunkR = ru.chunk;
            t.phC = cu.ph;
            t.chunkC = cu.chunk;
            t.offR = spec.strideH * (3 * ru.chunk + 1) + ru.ph -
                     spec.padHEff();
            t.offC = spec.strideW * (3 * cu.chunk + 1) + cu.ph -
                     spec.padWEff();
            terms.push_back(t);
        }
    }
    return terms;
}

bool
decompSupported(const ConvSpec &spec)
{
    return spec.kernelH() >= 1 && spec.kernelH() <= 11 &&
           spec.kernelW() >= 1 && spec.kernelW() <= 11 &&
           spec.strideH >= 1 && spec.strideH <= 3 && spec.strideW >= 1 &&
           spec.strideW <= 3 && spec.h >= spec.kernelH() &&
           spec.w >= spec.kernelW() && spec.outH() >= 1 &&
           spec.outW() >= 1;
}

WinoDecompPlan::WinoDecompPlan(const ConvSpec &spec,
                               const WinogradAlgo &unit)
    : sp(spec), alg(unit), units(decomposeSpec(spec)),
      kerScratch(spec.outCh, spec.inCh, 3, 3),
      xGather(spec.batch, spec.inCh, spec.outH() + 2, spec.outW() + 2),
      yTerm(spec.batch, spec.outCh, spec.outH() + 2, spec.outW() + 2)
{
    winomc_assert(unit.r == 3, "decomposition terms are 3-tap units; "
                               "got an r=", unit.r, " algorithm");
    winomc_assert(decompSupported(spec),
                  "geometry not decomposable: ", spec.key());
    unitW.reserve(units.size());
    for (std::size_t u = 0; u < units.size(); ++u)
        unitW.emplace_back(alg.alpha, sp.outCh, sp.inCh);
    inner = std::make_unique<WinoPlan>(alg, sp.batch, sp.inCh, sp.outCh,
                                       sp.outH() + 2, sp.outW() + 2);
}

bool
WinoDecompPlan::matches(const ConvSpec &spec,
                        const WinogradAlgo &unit) const
{
    // The inner plan carries the ExecPolicy; delegating to its
    // matches() (via policy()) keeps decomposed execution rebuilding
    // across WINOMC_PREC / WINOMC_SPARSE flips like plain plans do.
    return &unit == &alg && spec.batch == sp.batch &&
           spec.inCh == sp.inCh && spec.outCh == sp.outCh &&
           spec.h == sp.h && spec.w == sp.w &&
           spec.kernelH() == sp.kernelH() &&
           spec.kernelW() == sp.kernelW() &&
           spec.strideH == sp.strideH && spec.strideW == sp.strideW &&
           spec.padHEff() == sp.padHEff() &&
           spec.padWEff() == sp.padWEff() &&
           inner->policy() == currentExecPolicy();
}

std::size_t
WinoDecompPlan::workspaceBytes() const
{
    std::size_t elems =
        kerScratch.size() + xGather.size() + yTerm.size();
    for (const WinoWeights &w : unitW)
        elems += w.size();
    return inner->workspaceBytes() + elems * sizeof(float);
}

void
WinoDecompPlan::setWeights(const Tensor &w)
{
    winomc_assert(w.n() == sp.outCh && w.c() == sp.inCh &&
                      w.h() == sp.kernelH() && w.w() == sp.kernelW(),
                  "decomposition weights mismatch the spec: got ",
                  w.n(), "x", w.c(), "x", w.h(), "x", w.w());
    const int kh = sp.kernelH();
    const int kw = sp.kernelW();
    for (std::size_t u = 0; u < units.size(); ++u) {
        const DecompTerm &t = units[u];
        for (int j = 0; j < sp.outCh; ++j) {
            for (int i = 0; i < sp.inCh; ++i) {
                for (int jr = 0; jr < 3; ++jr) {
                    const int ar =
                        sp.strideH * (3 * t.chunkR + jr) + t.phR;
                    for (int jc = 0; jc < 3; ++jc) {
                        const int ac =
                            sp.strideW * (3 * t.chunkC + jc) + t.phC;
                        kerScratch.at(j, i, jr, jc) =
                            (ar < kh && ac < kw) ? w.at(j, i, ar, ac)
                                                 : 0.0f;
                    }
                }
            }
        }
        transformWeightsInto(kerScratch, alg, unitW[u]);
    }
    haveWeights = true;
}

void
WinoDecompPlan::forwardInto(const Tensor &x, Tensor &y)
{
    WINOMC_SPAN("decomp.fwd", "wino");
    winomc_assert(haveWeights,
                  "WinoDecompPlan::forwardInto before setWeights");
    winomc_assert(x.n() == sp.batch && x.c() == sp.inCh &&
                      x.h() == sp.h && x.w() == sp.w,
                  "input mismatches the decomposed plan's spec");
    const int oh = sp.outH();
    const int ow = sp.outW();
    winomc_assert(y.n() == sp.batch && y.c() == sp.outCh &&
                      y.h() == oh && y.w() == ow,
                  "output mismatches the decomposed plan's spec");
    const int gh = oh + 2;
    const int gw = ow + 2;
    const int sH = sp.strideH;
    const int sW = sp.strideW;
    const auto &K = mk::kernels();

    y.fill(0.0f);
    // Terms run serially and accumulate in list order: the sum's
    // floating-point order is fixed regardless of thread count, and
    // each term is bitwise identical staged or fused (the inner
    // plan's own contract), so the whole decomposition is bitwise
    // reproducible.
    for (std::size_t u = 0; u < units.size(); ++u) {
        const DecompTerm &t = units[u];

        // Gather the term's strided view, one (image, channel) plane
        // per task: xg[i', j'] = x_zeroext[sH*(i'-1) + offR,
        // sW*(j'-1) + offC]. The 1-deep border carries real data
        // where available — the inner pipeline's own "same" padding
        // applies only outside the gathered map, and the border rows
        // of the term output are cropped below.
        const float *xbase = x.data();
        float *gbase = xGather.data();
        parallelFor(0, std::int64_t(sp.batch) * sp.inCh, 1,
                    [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t bi = lo; bi < hi; ++bi) {
                const float *xplane =
                    xbase + std::size_t(bi) * sp.h * sp.w;
                float *gplane = gbase + std::size_t(bi) * gh * gw;
                for (int gi = 0; gi < gh; ++gi) {
                    float *grow = gplane + std::size_t(gi) * gw;
                    const int iy = sH * (gi - 1) + t.offR;
                    if (iy < 0 || iy >= sp.h) {
                        std::fill(grow, grow + gw, 0.0f);
                        continue;
                    }
                    const float *xrow = xplane + std::size_t(iy) * sp.w;
                    if (sW == 1) {
                        // Contiguous span fast path: gj maps to
                        // ix = gj - 1 + offC.
                        const int lo2 = std::max(0, 1 - t.offC);
                        const int hi2 =
                            std::min(gw, sp.w + 1 - t.offC);
                        std::fill(grow, grow + std::min(gw, lo2), 0.0f);
                        if (hi2 > lo2)
                            std::memcpy(grow + lo2,
                                        xrow + lo2 - 1 + t.offC,
                                        std::size_t(hi2 - lo2) *
                                            sizeof(float));
                        if (hi2 < gw)
                            std::fill(grow + std::max(lo2, hi2),
                                      grow + gw, 0.0f);
                    } else {
                        for (int gj = 0; gj < gw; ++gj) {
                            const int ix = sW * (gj - 1) + t.offC;
                            grow[gj] = (ix >= 0 && ix < sp.w)
                                           ? xrow[ix]
                                           : 0.0f;
                        }
                    }
                }
            }
        });

        inner->forward(xGather, unitW[u], yTerm, false);

        // Crop-accumulate the term's interior into y.
        const float *tbase = yTerm.data();
        float *ybase = y.data();
        parallelFor(0, std::int64_t(sp.batch) * sp.outCh, 1,
                    [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t bj = lo; bj < hi; ++bj) {
                const float *tplane =
                    tbase + std::size_t(bj) * gh * gw;
                float *yplane = ybase + std::size_t(bj) * oh * ow;
                for (int p = 0; p < oh; ++p)
                    K.axpy(yplane + std::size_t(p) * ow, 1.0f,
                           tplane + std::size_t(p + 1) * gw + 1,
                           std::int64_t(ow));
            }
        });
    }
    if (metrics::enabled()) {
        metrics::counterAdd("wino.decomp.fwd.calls");
        metrics::counterAdd("wino.decomp.fwd.terms",
                            double(units.size()));
    }
}

} // namespace winomc
