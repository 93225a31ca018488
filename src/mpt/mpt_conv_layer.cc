#include "mpt/mpt_conv_layer.hh"

namespace winomc::mpt {

namespace {

/** Copy batch rows [b0, b0 + out.n()) of t into the pre-shaped out. */
void
shardInto(const Tensor &t, int b0, Tensor &out)
{
    for (int b = 0; b < out.n(); ++b)
        for (int c = 0; c < t.c(); ++c)
            for (int i = 0; i < t.h(); ++i)
                for (int j = 0; j < t.w(); ++j)
                    out.at(b, c, i, j) = t.at(b0 + b, c, i, j);
}

void
pasteShard(Tensor &dst, const Tensor &shard, int b0)
{
    for (int b = 0; b < shard.n(); ++b)
        for (int c = 0; c < shard.c(); ++c)
            for (int i = 0; i < shard.h(); ++i)
                for (int j = 0; j < shard.w(); ++j)
                    dst.at(b0 + b, c, i, j) = shard.at(b, c, i, j);
}

} // namespace

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
        shardInto(x, c * shard, xShard);
        // Undivided alpha^2 inference shards have no partial-product
        // scatter/gather to satisfy, so the whole per-cluster forward
        // can run through the fused strip pipeline. Grouped (ng > 1)
        // or train-mode execution needs the plan slabs: the group loop
        // accumulates into Yt and backward reads the cached Xt.
        if (ng == 1 && !train && plan.shouldFuse(false)) {
            plan.forwardFusedInto(xShard, W, yShard);
            pasteShard(y, yShard, c * shard);
            continue;
        }
        plan.scatterInput(xShard);
        WinoTiles &Y = plan.outputTilesMutable();
        Y.fill(0.0f); // the group loop accumulates partial products
        for (int g = 0; g < ng; ++g) {
            partialElementwiseForward(plan.inputTiles(), W, g * uvShare,
                                      (g + 1) * uvShare, Y);
            tileElems += uint64_t(uvShare) * (inCh + outCh) * shard *
                         plan.tileGrid().tiles() * uint64_t(ng - 1) /
                         uint64_t(ng);
        }
        plan.gatherOutputInto(yShard);
        pasteShard(y, yShard, c * shard);
        if (!train)
            plan.invalidateCache();
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
        shardInto(dy, c * shard, dyShard);
        plan.transformGradOutput(dyShard);
        WinoTiles &dXt = plan.gradInputTilesMutable();
        dXt.fill(0.0f); // group loop accumulates partial products
        for (int g = 0; g < ng; ++g) {
            partialElementwiseBackwardData(plan.gradOutputTiles(), W,
                                           g * uvShare,
                                           (g + 1) * uvShare, dXt);
            // The cross-cluster accumulation into dW below is the ring
            // reduction of the group's weight slice.
            partialElementwiseGradWeights(plan.gradOutputTiles(),
                                          plan.inputTiles(),
                                          g * uvShare,
                                          (g + 1) * uvShare, dW);
            tileElems += uint64_t(uvShare) * (inCh + outCh) * shard *
                         plan.tileGrid().tiles() * uint64_t(ng - 1) /
                         uint64_t(ng);
            weightElems += uint64_t(uvShare) * inCh * outCh;
        }
        plan.gatherGradInputInto(dxShard);
        pasteShard(dx, dxShard, c * shard);
    }
    return dx;
}

void
MptConvLayer::step(float lr)
{
    if (!haveGrad)
        return;
    haveGrad = false;
    dW *= -lr;
    W += dW;
    dW.fill(0.0f);
}

} // namespace winomc::mpt
