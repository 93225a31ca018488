#include "mpt/mpt_conv_layer.hh"

#include "winograd/microkernel.hh"

namespace winomc::mpt {

MptConvLayer::MptConvLayer(int in_ch, int out_ch, int r, int ng_,
                           int nc_, const WinogradAlgo &algo_, Rng &rng)
    : inCh(in_ch), outCh(out_ch), ng(ng_), nc(nc_), algo(algo_),
      planCaches(std::size_t(nc_))
{
    winomc_assert(algo.r == r, "algo r mismatch");
    const int a2 = algo.alpha * algo.alpha;
    winomc_assert(ng >= 1 && a2 % ng == 0,
                  "alpha^2 must divide across groups");
    winomc_assert(nc >= 1, "need at least one cluster");
    uvShare = a2 / ng;

    Tensor w(out_ch, in_ch, r, r);
    w.fillKaiming(rng);
    W = transformWeights(w, algo);
    dW = WinoWeights(algo.alpha, out_ch, in_ch);
    gScratch = WinoWeights(algo.alpha, out_ch, in_ch);
}

MptConvLayer::MptConvLayer(const ConvSpec &spec, int ng_, int nc_,
                           const WinogradAlgo &algo_, Rng &rng)
    : MptConvLayer(spec.inCh, spec.outCh, spec.kernelH(), ng_, nc_,
                   algo_, rng)
{
    winomc_assert(spec.samePadded() && spec.squareKernel(),
                  "MPT conv binds stride-1 same-padded square-kernel "
                  "geometry (got ", spec.key(), ")");
}

void
MptConvLayer::ensurePlans(const Tensor &x)
{
    const int sh = x.n() / nc;
    if (int(plans.size()) == nc &&
        plans[0]->matches(algo, sh, inCh, outCh, x.h(), x.w()))
        return;
    // Park each cluster's displaced plan in that cluster's pool before
    // leasing, so a shard-shape rotation (serving batch churn) reuses
    // parked plans instead of rebuilding every cluster's slab set.
    plans.resize(std::size_t(nc));
    for (int c = 0; c < nc; ++c) {
        PlanLru &cache = planCaches[std::size_t(c)];
        cache.releasePlan(std::move(plans[std::size_t(c)]));
        plans[std::size_t(c)] =
            cache.acquirePlan(algo, sh, inCh, outCh, x.h(), x.w());
    }
}

Tensor
MptConvLayer::forward(const Tensor &x, bool train)
{
    winomc_assert(x.c() == inCh, "channel mismatch");
    winomc_assert(x.n() % nc == 0, "batch ", x.n(),
                  " must divide across ", nc, " clusters");
    lastH = x.h();
    lastW = x.w();
    shard = x.n() / nc;
    ensurePlans(x);
    trainCached = train;

    Tensor y(x.n(), outCh, x.h(), x.w());
    xShard.reshape(shard, inCh, x.h(), x.w());
    yShard.reshape(shard, outCh, x.h(), x.w());

    for (int c = 0; c < nc; ++c) {
        WinoPlan &plan = *plans[size_t(c)];
        copyImages(x, c * shard, xShard, 0, shard);
        if (ng == 1) {
            // No tile element crosses a group boundary: the cluster is
            // a single worker and runs the plan's own forward.
            plan.forward(xShard, W, yShard, train);
        } else {
            plan.scatterInput(xShard);
            for (int g = 0; g < ng; ++g) {
                partialElementwiseForward(plan.inputTiles(), W,
                                          g * uvShare, (g + 1) * uvShare,
                                          plan.outputTilesMutable());
                tileElems += uint64_t(uvShare) * (inCh + outCh) * shard *
                             plan.tileGrid().tiles() * uint64_t(ng - 1) /
                             uint64_t(ng);
            }
            plan.gatherOutputInto(yShard);
            if (!train)
                plan.invalidateCache();
        }
        copyImages(yShard, 0, y, c * shard, shard);
    }
    return y;
}

Tensor
MptConvLayer::backward(const Tensor &dy)
{
    winomc_assert(trainCached,
                  "MptConvLayer::backward without a train-mode forward: "
                  "the cached tiles are stale");
    haveGrad = true;
    Tensor dx(dy.n(), inCh, lastH, lastW);
    dyShard.reshape(shard, outCh, lastH, lastW);
    dxShard.reshape(shard, inCh, lastH, lastW);

    for (int c = 0; c < nc; ++c) {
        WinoPlan &plan = *plans[size_t(c)];
        copyImages(dy, c * shard, dyShard, 0, shard);
        if (ng == 1) {
            plan.backward(dyShard, W, dxShard, gScratch);
        } else {
            plan.transformGradOutput(dyShard);
            for (int g = 0; g < ng; ++g) {
                partialElementwiseBackwardData(
                    plan.gradOutputTiles(), W, g * uvShare,
                    (g + 1) * uvShare, plan.gradInputTilesMutable());
                partialElementwiseGradWeights(plan.gradOutputTiles(),
                                              plan.inputTiles(),
                                              g * uvShare,
                                              (g + 1) * uvShare, gScratch);
                tileElems += uint64_t(uvShare) * (inCh + outCh) * shard *
                             plan.tileGrid().tiles() * uint64_t(ng - 1) /
                             uint64_t(ng);
            }
            plan.gatherGradInputInto(dxShard);
        }
        // Adding each cluster's gradient into dW, in cluster order, is
        // the ring reduction of every group's weight slice.
        dW += gScratch;
        weightElems += uint64_t(ng) * uvShare * inCh * outCh;
        copyImages(dxShard, 0, dx, c * shard, shard);
    }
    return dx;
}

void
MptConvLayer::step(float lr)
{
    if (!haveGrad)
        return;
    haveGrad = false;
    mk::kernels().axpy(W.raw(), -lr, dW.raw(), std::int64_t(W.size()));
    dW.fill(0.0f);
}

} // namespace winomc::mpt
