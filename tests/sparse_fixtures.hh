/**
 * @file
 * Shared fixtures of the sparse-execution tests (sparse_test and the
 * serially run sparse_perf_test): the policy guard and the pruned,
 * ReLU-sparse inputs both suites drive the Winograd plans with.
 */

#ifndef WINOMC_TESTS_SPARSE_FIXTURES_HH
#define WINOMC_TESTS_SPARSE_FIXTURES_HH

#include "common/parallel.hh"
#include "common/rng.hh"
#include "quant/prune.hh"
#include "tensor/tensor.hh"
#include "winograd/conv.hh"
#include "winograd/lowprec.hh"
#include "winograd/microkernel.hh"
#include "winograd/plan.hh"
#include "winograd/tuner.hh"

namespace winomc {

/**
 * Every sparse test flips process-wide execution state on purpose, so
 * each one scopes its changes: baseline fp32-dense on entry,
 * everything restored on exit (precision, sparsity, ISA, thread count,
 * tuner hint, and the fused mode a test pins to pick a plan route).
 * Plans capture the policy at construction, so tests build their plans
 * *after* each policy flip.
 */
struct PolicyGuard
{
    FusedMode fused = requestedFusedMode();

    PolicyGuard()
    {
        setPrec(Prec::F32);
        setSparseMode(false);
    }
    ~PolicyGuard()
    {
        setFusedMode(fused);
        setPrec(Prec::F32);
        setSparseMode(false);
        mk::setIsa(mk::Isa::Auto);
        ThreadPool::global().setThreadCount(0);
        tune::setSparsityHint(0.0);
    }
};

/** Post-ReLU-looking input: Gaussian, negatives clamped, whole
 *  channel-planes and patch blocks zeroed so full tile panels go dead
 *  (the activation mask's fast path) alongside scattered zeros. */
inline Tensor
reluSparseInput(int b, int c, int h, int w, Rng &rng)
{
    Tensor x(b, c, h, w);
    x.fillGaussian(rng);
    for (int n = 0; n < b; ++n)
        for (int ch = 0; ch < c; ++ch)
            for (int i = 0; i < h; ++i)
                for (int j = 0; j < w; ++j) {
                    float &v = x.at(n, ch, i, j);
                    if (v < 0.0f || ch % 3 == 0 ||
                        (i / 4 + j / 4) % 2 == 0)
                        v = 0.0f;
                }
    return x;
}

/** Transformed weights pruned to `sparsity` by magnitude. */
inline WinoWeights
prunedWeights(int outCh, int inCh, int r, const WinogradAlgo &algo,
              double sparsity, Rng &rng)
{
    Tensor w(outCh, inCh, r, r);
    w.fillUniform(rng);
    WinoWeights W = transformWeights(w, algo);
    quant::magnitudePrune(W, sparsity).apply(W);
    return W;
}

/**
 * The high-sparsity acceptance shape. Channel-heavy, so the
 * elementwise GEMM (where sparsity pays) dominates the transforms, as
 * in the deep layers the paper prunes.
 */
struct SparseGateShape
{
    int B = 2, C = 128, K = 128, H = 32;
};

} // namespace winomc

#endif // WINOMC_TESTS_SPARSE_FIXTURES_HH
