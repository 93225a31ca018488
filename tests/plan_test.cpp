/**
 * @file
 * Workspace allocator + execution plan tests: size-class slab reuse,
 * WINOMC_WORKSPACE_LIMIT_MB parsing and budget enforcement, plan-vs-
 * stage-pipeline bitwise parity (odd shapes, 1-vs-8 threads), zero
 * steady-state allocation across training steps for every ConvMode and
 * the MPT layer, the training backward's traffic counters, and the
 * backward-after-eval-forward stale-cache regression.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "mpt/mpt_conv_layer.hh"
#include "nn/conv_layer.hh"
#include "tensor/workspace.hh"
#include "winograd/conv.hh"
#include "winograd/plan.hh"

namespace winomc {

// This suite validates the fp32 pipeline against fp32 oracles (direct
// convolution, numeric gradients, bitwise stage parity), so the
// activation storage precision is pinned to fp32 regardless of
// WINOMC_PREC. WINOMC_SPARSE stays env-driven on purpose: sparse
// execution is bitwise identical and must keep passing here.
[[maybe_unused]] const bool kPinFp32 = [] {
    setPrec(Prec::F32);
    return true;
}();

namespace {

// --------------------------------------------------------------- Workspace

TEST(Workspace, AcquireIsZeroFilledAndClassSized)
{
    ws::Workspace w;
    auto a = w.acquire(300);
    ASSERT_EQ(a.size(), 300u);
    EXPECT_GE(a.capacity(), 512u); // next power-of-two class above 300
    EXPECT_TRUE(std::all_of(a.begin(), a.end(),
                            [](float v) { return v == 0.0f; }));
    EXPECT_EQ(w.stats().freshAllocs, 1u);
    w.release(std::move(a));
}

TEST(Workspace, ReleasedSlabIsReusedAndRezeroed)
{
    ws::Workspace w;
    auto a = w.acquire(1000);
    std::fill(a.begin(), a.end(), 7.0f);
    w.release(std::move(a));
    auto b = w.acquire(600); // same 1024-float class: must reuse
    EXPECT_EQ(w.stats().freshAllocs, 1u);
    EXPECT_EQ(w.stats().reuses, 1u);
    EXPECT_TRUE(std::all_of(b.begin(), b.end(),
                            [](float v) { return v == 0.0f; }));
    w.release(std::move(b));
    const auto st = w.stats();
    EXPECT_EQ(st.bytesInUse, 0u);
    EXPECT_GT(st.pooledBytes, 0u);
    EXPECT_EQ(st.releases, 2u);
}

TEST(Workspace, HighWaterTracksPeakNotCurrent)
{
    ws::Workspace w;
    auto a = w.acquire(1024);
    auto b = w.acquire(1024);
    const auto peak = w.stats().bytesInUse;
    w.release(std::move(a));
    w.release(std::move(b));
    EXPECT_EQ(w.stats().bytesInUse, 0u);
    EXPECT_EQ(w.stats().highWater, peak);
}

TEST(Workspace, RetentionLimitDropsExcessSlabs)
{
    ws::Workspace w;
    w.setLimitBytes(4096); // exactly one 1024-float slab
    auto a = w.acquire(1024);
    auto b = w.acquire(1024);
    w.release(std::move(a));
    w.release(std::move(b)); // pool already at the limit: freed
    const auto st = w.stats();
    EXPECT_EQ(st.dropped, 1u);
    EXPECT_LE(st.pooledBytes, 4096u);
    w.trim();
    EXPECT_EQ(w.stats().pooledBytes, 0u);
}

TEST(Workspace, ParseLimitKnobHandlesGarbage)
{
    EXPECT_EQ(ws::parseWorkspaceLimitMb(nullptr), 0u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb(""), 0u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("banana"), 0u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("12banana"), 0u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("-3"), 0u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("0"), 0u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("256"), 256u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("256 "), 256u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("99999999999999999999"),
              ws::kMaxLimitMb);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("2097153"), ws::kMaxLimitMb);
}

TEST(Workspace, TilesReshapeReusesSlabAndZeroesOnShapeChange)
{
    WinoTiles t(4, 2, 2, 4);
    t.at(0, 0, 0, 0) = 5.0f;
    t.reshape(4, 2, 2, 3); // shape change within capacity: zeroed
    EXPECT_EQ(t.at(0, 0, 0, 0), 0.0f);
    t.at(0, 0, 0, 0) = 2.0f;
    t.reshape(4, 2, 2, 3); // same shape: contents preserved
    EXPECT_EQ(t.at(0, 0, 0, 0), 2.0f);
}

TEST(WorkspaceDeath, OverBudgetPlanFailsLoudly)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ws::Workspace::global().setLimitBytes(std::size_t(1) << 20);
            WinogradAlgo algo = makeWinograd(4, 3);
            WinoPlan plan(algo, 64, 64, 64, 64, 64);
        },
        "WINOMC_WORKSPACE_LIMIT_MB");
}

// ----------------------------------------------------- Plan bitwise parity

struct PlanCase
{
    int batch, in_ch, out_ch, h, w, m, r;
};

class PlanParityP : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlanParityP, BitwiseMatchesStagePipelineForAnyThreadCount)
{
    const auto p = GetParam();
    WinogradAlgo algo = makeWinograd(p.m, p.r);
    Rng rng(123);
    Tensor x(p.batch, p.in_ch, p.h, p.w);
    Tensor dy(p.batch, p.out_ch, p.h, p.w);
    Tensor w(p.out_ch, p.in_ch, p.r, p.r);
    x.fillUniform(rng);
    dy.fillUniform(rng);
    w.fillUniform(rng);
    const WinoWeights W = transformWeights(w, algo);

    Tensor y1, dx1; // thread-count invariance probes
    for (int threads : {1, 8}) {
        ThreadPool::global().setThreadCount(threads);
        // Reference: the raw stage composition the wrappers used to be.
        WinoTiles Xr = transformInput(x, algo);
        WinoTiles Yr = elementwiseForward(Xr, W);
        Tensor y_ref = inverseTransform(Yr, algo, p.h, p.w);
        WinoTiles dYr = inverseTransformAdjoint(dy, algo);
        WinoTiles dXr = elementwiseBackwardData(dYr, W);
        Tensor dx_ref = transformInputAdjoint(dXr, algo, p.h, p.w);
        WinoWeights dW_ref = elementwiseGradWeights(dYr, Xr);

        WinoPlan plan(algo, p.batch, p.in_ch, p.out_ch, p.h, p.w);
        Tensor y(p.batch, p.out_ch, p.h, p.w);
        Tensor dx(p.batch, p.in_ch, p.h, p.w);
        WinoWeights dW(algo.alpha, p.out_ch, p.in_ch);
        // Twice through the same plan: the second pass runs on dirty
        // slabs and must still be bitwise identical.
        for (int pass = 0; pass < 2; ++pass) {
            plan.forward(x, W, y, true);
            plan.backward(dy, W, dx, dW);
            EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f);
            EXPECT_EQ(dx.maxAbsDiff(dx_ref), 0.0f);
            EXPECT_EQ(dW.maxAbsDiff(dW_ref), 0.0f);
        }

        // The free wrapper routes through a transient plan.
        EXPECT_EQ(winogradForward(x, W, algo).maxAbsDiff(y_ref), 0.0f);

        if (threads == 1) {
            y1 = y;
            dx1 = dx;
        } else {
            EXPECT_EQ(y.maxAbsDiff(y1), 0.0f);
            EXPECT_EQ(dx.maxAbsDiff(dx1), 0.0f);
        }
    }
    ThreadPool::global().setThreadCount(0); // restore default
}

INSTANTIATE_TEST_SUITE_P(Shapes, PlanParityP,
    ::testing::Values(
        PlanCase{1, 1, 1, 3, 3, 2, 3},  // N=1, single ragged tile
        PlanCase{1, 2, 5, 5, 7, 2, 3},  // C < K, ragged grid
        PlanCase{3, 5, 2, 9, 6, 4, 3},  // C > K, F(4,3)
        PlanCase{2, 3, 4, 8, 8, 4, 3}), // even grid, F(4,3)
    [](const ::testing::TestParamInfo<PlanCase> &info) {
        const auto &p = info.param;
        return "b" + std::to_string(p.batch) + "c" +
               std::to_string(p.in_ch) + "k" + std::to_string(p.out_ch) +
               "h" + std::to_string(p.h) + "w" + std::to_string(p.w) +
               "F" + std::to_string(p.m) + "r" + std::to_string(p.r);
    });

// ------------------------------------------------ Backward traffic

TEST(PlanTraffic, TrainingBackwardPublishesBothProducts)
{
    // B=2, 3->4 channels, 8x8, F(2,3): a 4x4 grid of 4x4 tiles, so
    // dYt = 2048, dXt = 1536, Xt = 1536 and W = 192 elements, and the
    // in-bounds input gather is 14 * 14 = 196 elements per plane.
    const WinogradAlgo &algo = makeWinograd(2, 3);
    const int B = 2, I = 3, J = 4, H = 8;
    Rng rng(29);
    Tensor x(B, I, H, H);
    Tensor dy(B, J, H, H);
    Tensor w(J, I, 3, 3);
    x.fillUniform(rng);
    dy.fillUniform(rng);
    w.fillUniform(rng);
    const WinoWeights W = transformWeights(w, algo);
    Tensor y(B, J, H, H);
    Tensor dx(B, I, H, H);
    WinoWeights dW(algo.alpha, J, I);

    const bool wasEnabled = metrics::enabled();
    metrics::setEnabled(true);
    metrics::reset();
    WinoPlan plan(algo, B, I, J, H, H);
    plan.forward(x, W, y, true);
    plan.backward(dy, W, dx, dW);
    std::map<std::string, double> got;
    for (const auto &s : metrics::snapshot())
        got[s.name] = s.value;
    metrics::reset();
    metrics::setEnabled(wasEnabled);

    EXPECT_EQ(got["wino.staged.bwd_data.calls"], 1.0);
    EXPECT_EQ(got["wino.staged.grad_weights.calls"], 1.0);
    // bwd_data: dy read + dYt write; dYt, W reads + dXt write; dXt
    // read, dx zero-fill and the overlap-add read+write sweep.
    EXPECT_EQ(got["wino.staged.bwd_data.xform_bytes"], (512 + 2048) * 4.0);
    EXPECT_EQ(got["wino.staged.bwd_data.ew_bytes"],
              (2048 + 192 + 1536) * 4.0);
    EXPECT_EQ(got["wino.staged.bwd_data.inverse_bytes"],
              (1536 + 384 + 2 * 196 * B * I) * 4.0);
    EXPECT_EQ(got["wino.staged.bwd_data.bytes_moved"], 42432.0);
    // grad_weights: dYt and Xt reads plus the dW write, nothing else.
    EXPECT_EQ(got["wino.staged.grad_weights.xform_bytes"], 0.0);
    EXPECT_EQ(got["wino.staged.grad_weights.inverse_bytes"], 0.0);
    EXPECT_EQ(got["wino.staged.grad_weights.bytes_moved"],
              (2048 + 1536 + 192) * 4.0);
    EXPECT_EQ(got["wino.staged.grad_weights.bytes_moved"],
              got["wino.staged.grad_weights.predicted_bytes"]);
}

TEST(ConvLayerPlan, AllModesBitwiseMatchReferenceAcrossSteps)
{
    WinogradAlgo algo = makeWinograd(2, 3);
    for (auto mode : {nn::ConvMode::Direct, nn::ConvMode::WinogradSpatial,
                      nn::ConvMode::WinogradLayer}) {
        Rng rng(42);
        nn::ConvLayer layer(3, 4, 3, mode, algo, rng);
        Rng data_rng(7);
        // Two iterations: the second runs on reused plan slabs.
        for (int iter = 0; iter < 2; ++iter) {
            Tensor x(2, 3, 6, 6);
            Tensor dy(2, 4, 6, 6);
            x.fillUniform(data_rng);
            dy.fillUniform(data_rng);
            Tensor y = layer.forward(x, true);
            Tensor dx = layer.backward(dy);
            if (mode == nn::ConvMode::Direct) {
                Tensor y_ref =
                    directConvForward(x, layer.spatialWeights());
                Tensor dx_ref =
                    directConvBackwardData(dy, layer.spatialWeights());
                EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f);
                EXPECT_EQ(dx.maxAbsDiff(dx_ref), 0.0f);
            } else {
                const WinoWeights &W = layer.winoWeights();
                WinoTiles X = transformInput(x, algo);
                Tensor y_ref = inverseTransform(
                    elementwiseForward(X, W), algo, 6, 6);
                WinoTiles dYt = inverseTransformAdjoint(dy, algo);
                Tensor dx_ref = transformInputAdjoint(
                    elementwiseBackwardData(dYt, W), algo, 6, 6);
                EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f);
                EXPECT_EQ(dx.maxAbsDiff(dx_ref), 0.0f);
            }
        }
    }
}

// ------------------------------------------------ Zero steady-state alloc

TEST(WorkspaceSteadyState, ConvLayerStepAllocatesNothingAfterWarmup)
{
    WinogradAlgo algo = makeWinograd(2, 3);
    for (auto mode : {nn::ConvMode::Direct, nn::ConvMode::WinogradSpatial,
                      nn::ConvMode::WinogradLayer}) {
        Rng rng(11);
        nn::ConvLayer layer(3, 4, 3, mode, algo, rng);
        Tensor x(2, 3, 8, 8);
        Tensor dy(2, 4, 8, 8);
        x.fillUniform(rng);
        dy.fillUniform(rng);
        auto trainStep = [&] {
            Tensor y = layer.forward(x, true);
            Tensor dx = layer.backward(dy);
            layer.step(0.01f);
        };
        trainStep(); // warm-up builds the plan and primes the pool
        const auto s0 = ws::Workspace::global().stats();
        for (int i = 0; i < 10; ++i)
            trainStep();
        const auto s1 = ws::Workspace::global().stats();
        EXPECT_EQ(s1.freshAllocs, s0.freshAllocs)
            << "mode " << int(mode) << " hit the heap in steady state";
        EXPECT_EQ(s1.freshBytes, s0.freshBytes);
        EXPECT_EQ(s1.highWater, s0.highWater)
            << "mode " << int(mode) << " high water drifted";
        EXPECT_GT(s1.reuses, s0.reuses);
    }
}

TEST(WorkspaceSteadyState, MptConvLayerStepAllocatesNothingAfterWarmup)
{
    WinogradAlgo algo = makeWinograd(2, 3); // alpha^2 = 16
    Rng rng(19);
    mpt::MptConvLayer layer(3, 4, 3, 2, 2, algo, rng);
    Tensor x(4, 3, 8, 8);
    Tensor dy(4, 4, 8, 8);
    x.fillUniform(rng);
    dy.fillUniform(rng);
    auto trainStep = [&] {
        Tensor y = layer.forward(x, true);
        Tensor dx = layer.backward(dy);
        layer.step(0.01f);
    };
    trainStep();
    const auto s0 = ws::Workspace::global().stats();
    for (int i = 0; i < 10; ++i)
        trainStep();
    const auto s1 = ws::Workspace::global().stats();
    EXPECT_EQ(s1.freshAllocs, s0.freshAllocs);
    EXPECT_EQ(s1.freshBytes, s0.freshBytes);
    EXPECT_EQ(s1.highWater, s0.highWater);
    EXPECT_GT(s1.reuses, s0.reuses);
}

// ------------------------------- Shape-churn plan-rebuild regression
//
// Serving traffic alternates between a handful of batch shapes (the
// batcher emits whatever coalesced by the deadline). A layer that
// rebuilds its plan whenever the incoming shape stops matching throws
// the previous plan's slabs back at the workspace pool on every flip;
// under a pinned retention limit the pool cannot hold both shapes'
// slabs, so every flip drops and re-allocates — heap traffic on every
// request, forever. The fix parks displaced plans in a small per-layer
// LRU instead of destroying them, so A/B/A/B settles to zero fresh
// allocations after one warm-up of each shape.
//
// The tight limit is what makes this test bite: with the default 1 GB
// retention the pool absorbs the rebuild churn and freshAllocs goes
// flat even on the broken code. The limit is sized to the larger
// plan's working set, so transient activations still pool while a
// whole displaced plan does not.

/** Pin the global workspace retention limit; restore on scope exit. */
class ScopedWorkspaceLimit
{
  public:
    explicit ScopedWorkspaceLimit(std::size_t bytes)
        : prev(ws::Workspace::global().limitBytes())
    {
        ws::Workspace::global().setLimitBytes(bytes);
    }
    ~ScopedWorkspaceLimit()
    {
        ws::Workspace::global().setLimitBytes(prev);
    }

  private:
    std::size_t prev;
};

TEST(ConvLayerPlan, AlternatingShapesAllocateNothingAfterWarmup)
{
    WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(23);
    nn::ConvLayer layer(3, 4, 3, nn::ConvMode::WinogradLayer, algo, rng);
    Tensor xa(2, 3, 12, 12);
    Tensor xb(4, 3, 12, 12);
    Rng data(5);
    xa.fillUniform(data);
    xb.fillUniform(data);

    std::size_t planBytes = 0;
    {
        WinoPlan probe(algo, 4, 3, 4, 12, 12);
        planBytes = probe.workspaceBytes();
    }
    ScopedWorkspaceLimit limit(planBytes);
    ws::Workspace::global().trim();

    // Warm both shapes (plan build + one full flip cycle so the pool's
    // transient-slab population settles), then alternate.
    for (int i = 0; i < 4; ++i)
        layer.forward(i % 2 ? xb : xa, false);
    const auto s0 = ws::Workspace::global().stats();
    for (int i = 0; i < 8; ++i)
        layer.forward(i % 2 ? xb : xa, false);
    const auto s1 = ws::Workspace::global().stats();
    EXPECT_EQ(s1.freshAllocs, s0.freshAllocs)
        << "alternating batch shapes hit the heap in steady state";
    EXPECT_EQ(s1.freshBytes, s0.freshBytes);
}

TEST(MptConvLayerPlan, AlternatingShapesAllocateNothingAfterWarmup)
{
    WinogradAlgo algo = makeWinograd(2, 3); // alpha^2 = 16
    Rng rng(29);
    mpt::MptConvLayer layer(3, 4, 3, 2, 2, algo, rng);
    Tensor xa(4, 3, 12, 12); // shard batch 2
    Tensor xb(8, 3, 12, 12); // shard batch 4
    Rng data(5);
    xa.fillUniform(data);
    xb.fillUniform(data);

    std::size_t planBytes = 0;
    {
        WinoPlan probe(algo, 4, 3, 4, 12, 12);
        planBytes = probe.workspaceBytes();
    }
    // Both clusters flip together: budget both shard plans of the
    // larger shape.
    ScopedWorkspaceLimit limit(2 * planBytes);
    ws::Workspace::global().trim();

    // Warm both shapes (plan build + one full flip cycle so the pool's
    // transient-slab population settles), then alternate.
    for (int i = 0; i < 4; ++i)
        layer.forward(i % 2 ? xb : xa, false);
    const auto s0 = ws::Workspace::global().stats();
    for (int i = 0; i < 8; ++i)
        layer.forward(i % 2 ? xb : xa, false);
    const auto s1 = ws::Workspace::global().stats();
    EXPECT_EQ(s1.freshAllocs, s0.freshAllocs)
        << "alternating shard shapes hit the heap in steady state";
    EXPECT_EQ(s1.freshBytes, s0.freshBytes);
}

// -------------------------------------------- Stale-cache regression

TEST(ConvLayerDeath, BackwardAfterEvalForwardDies)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    WinogradAlgo algo = makeWinograd(2, 3);
    for (auto mode : {nn::ConvMode::Direct, nn::ConvMode::WinogradSpatial,
                      nn::ConvMode::WinogradLayer}) {
        Rng rng(3);
        nn::ConvLayer layer(2, 2, 3, mode, algo, rng);
        Tensor x(1, 2, 4, 4);
        Tensor dy(1, 2, 4, 4);
        x.fillUniform(rng);
        dy.fillUniform(rng);
        layer.forward(x, true);
        layer.backward(dy); // trained forward: fine
        layer.forward(x, false);
        // An inference forward invalidates the training cache; the old
        // implementation silently produced gradients from stale tiles.
        EXPECT_DEATH(layer.backward(dy), "stale");
    }
}

TEST(MptConvLayerDeath, BackwardAfterEvalForwardDies)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(3);
    mpt::MptConvLayer layer(2, 2, 3, 2, 1, algo, rng);
    Tensor x(2, 2, 4, 4);
    Tensor dy(2, 2, 4, 4);
    x.fillUniform(rng);
    dy.fillUniform(rng);
    layer.forward(x, true);
    layer.backward(dy);
    layer.forward(x, false);
    EXPECT_DEATH(layer.backward(dy), "stale");
}

} // namespace
} // namespace winomc
