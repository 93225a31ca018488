/**
 * @file
 * Wall-clock acceptance of sparse execution: at 85% Winograd-domain
 * weight sparsity (plus ReLU-style activation zeros) the sparse fp32
 * forward must beat the dense fp32 forward on the same shape.
 *
 * This binary carries the `perf` ctest label and runs RUN_SERIAL, so
 * ctest never times it while other tests load the cores. Dense and
 * sparse run in alternation and the gate compares the median of the
 * paired sparse/dense ratios, so drift in machine load hits both arms
 * of every pair alike. The counter and bitwise-parity checks of the
 * same shape live in sparse_test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "sparse_fixtures.hh"
#include "winograd/plan.hh"

namespace winomc {
namespace {

TEST(SparsePerf, SparseForwardBeatsDenseAtHighSparsity)
{
    PolicyGuard guard;
    setFusedMode(FusedMode::Off); // time the staged kernels
    const WinogradAlgo algo = makeWinograd(4, 3);
    const SparseGateShape g;
    Rng rng(3137);
    Tensor x = reluSparseInput(g.B, g.C, g.H, g.H, rng);
    const WinoWeights W = prunedWeights(g.K, g.C, 3, algo, 0.85, rng);
    Tensor y(g.B, g.K, g.H, g.H);

    setSparseMode(false);
    WinoPlan dense(algo, g.B, g.C, g.K, g.H, g.H);
    setSparseMode(true);
    WinoPlan sparse(algo, g.B, g.C, g.K, g.H, g.H);

    auto timeMs = [&](WinoPlan &plan) {
        const auto t0 = std::chrono::steady_clock::now();
        plan.forward(x, W, y, false);
        const std::chrono::duration<double, std::milli> d =
            std::chrono::steady_clock::now() - t0;
        return d.count();
    };
    timeMs(dense); // warm the slabs
    timeMs(sparse);

    // Alternate which arm goes first, so neither always inherits the
    // other's cache state.
    constexpr int kPairs = 15;
    std::vector<double> ratios;
    for (int i = 0; i < kPairs; ++i) {
        double d, s;
        if (i % 2 == 0) {
            d = timeMs(dense);
            s = timeMs(sparse);
        } else {
            s = timeMs(sparse);
            d = timeMs(dense);
        }
        ratios.push_back(s / d);
    }
    std::sort(ratios.begin(), ratios.end());
    const double median = ratios[kPairs / 2];
    RecordProperty("median_sparse_over_dense", std::to_string(median));

    // The gate holds for vector dispatch, where the sparse path's
    // single y-pass removes the traffic the blocked dense kernel
    // re-reads. Under pinned scalar dispatch (WINOMC_ISA=scalar CI
    // pass) the dense kernel is not bandwidth-bound and the compaction
    // scan has no SIMD to amortize against, so sparse can lose there;
    // only the speed claim is vector-scoped.
    if (mk::activeIsa() != mk::Isa::Scalar) {
        EXPECT_LT(median, 1.0)
            << "sparse execution must beat dense fp32 at 85% sparsity";
    }
}

} // namespace
} // namespace winomc
