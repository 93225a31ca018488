#include "mpt/mpt_conv_layer.hh"

#include <cstring>

#include "winograd/conv.hh"
#include "winograd/microkernel.hh"

namespace winomc::mpt {

namespace {

/**
 * Copy images [srcB0, srcB0 + count) of src into images [dstB0,
 * dstB0 + count) of dst (same C, H, W): the batch shard scatter and
 * gather between a layer and its clusters.
 */
void
copyImages(const Tensor &src, int srcB0, Tensor &dst, int dstB0,
           int count)
{
    winomc_assert(src.c() == dst.c() && src.h() == dst.h() &&
                      src.w() == dst.w() && srcB0 >= 0 && dstB0 >= 0 &&
                      srcB0 + count <= src.n() && dstB0 + count <= dst.n(),
                  "image copy out of range");
    // NCHW: a run of whole images is one contiguous block.
    const std::size_t image = std::size_t(src.c()) * src.h() * src.w();
    std::memcpy(dst.data() + std::size_t(dstB0) * image,
                src.data() + std::size_t(srcB0) * image,
                std::size_t(count) * image * sizeof(float));
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
        copyImages(x, c * shard, xShard, 0, shard);
        plans[size_t(c)]->forward(xShard, W, yShard, train, ng);
        tileElems += tileElemsPerPhase();
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
        copyImages(dy, c * shard, dyShard, 0, shard);
        plans[size_t(c)]->backward(dyShard, W, dxShard, gScratch, ng);
        tileElems += tileElemsPerPhase();
        // Adding each cluster's gradient into dW, in cluster order, is
        // the ring reduction of every group's weight slice.
        dW += gScratch;
        weightElems += uint64_t(ng) * uvShare * inCh * outCh;
        copyImages(dxShard, 0, dx, c * shard, shard);
    }
    return dx;
}

uint64_t
MptConvLayer::tileElemsPerPhase() const
{
    // Each group scatters its uv slice of the input-side tiles and
    // gathers its slice of the output-side tiles; the (ng-1)/ng share
    // owned by other groups crosses links (zero when ng == 1).
    const uint64_t perGroup = uint64_t(uvShare) * (inCh + outCh) * shard *
                              plans[0]->tileGrid().tiles() *
                              uint64_t(ng - 1) / uint64_t(ng);
    return uint64_t(ng) * perGroup;
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
