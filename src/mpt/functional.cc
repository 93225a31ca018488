#include "mpt/functional.hh"

#include <cstring>

#include "common/logging.hh"
#include "winograd/stages.hh"

namespace winomc::mpt {

namespace {

/** The whole tile grid of t, restricted to tile elements [uv0, uv1). */
stage::TileRange
groupSlice(const WinoTiles &t, int uv0, int uv1)
{
    winomc_assert(0 <= uv0 && uv0 <= uv1 && uv1 <= t.uvCount(),
                  "uv slice [", uv0, ", ", uv1, ") outside the tile's ",
                  t.uvCount(), " elements");
    return stage::TileRange::whole(t.batch(), t.tiles())
        .uvSlice(uv0, uv1);
}

} // namespace

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

/**
 * The per-(group, cluster) worker computation: element-wise products
 * for the uv range this group owns. This is the "tile scattering" made
 * explicit - the worker only ever reads its own uv slice of X.
 */
void
partialElementwiseForward(const WinoTiles &X, const WinoWeights &W,
                          int uv0, int uv1, WinoTiles &Y)
{
    stage::ewForward<WinoTiles, false>(X, W, groupSlice(X, uv0, uv1), Y);
}

void
partialElementwiseBackwardData(const WinoTiles &dY, const WinoWeights &W,
                               int uv0, int uv1, WinoTiles &dX)
{
    stage::ewBackwardData(dY, W, groupSlice(dY, uv0, uv1), dX);
}

/** Partial weight gradient of one worker: its uv slice, its batch. */
void
partialElementwiseGradWeights(const WinoTiles &dY, const WinoTiles &X,
                              int uv0, int uv1, WinoWeights &dW)
{
    stage::ewGradWeights(dY, X, groupSlice(X, uv0, uv1), dW);
}

FunctionalResult
runFunctionalMpt(const Tensor &x, const Tensor &dy, const WinoWeights &W,
                 const WinogradAlgo &algo, int ng, int nc)
{
    winomc_assert(x.n() == dy.n() && x.h() == dy.h() && x.w() == dy.w(),
                  "x/dy shape mismatch");
    winomc_assert(x.n() % nc == 0, "batch ", x.n(),
                  " must divide across ", nc, " clusters");
    const int a2 = algo.alpha * algo.alpha;
    winomc_assert(a2 % ng == 0, "alpha^2 = ", a2,
                  " must divide across ", ng, " groups");
    const int uv_share = a2 / ng;
    const int shard = x.n() / nc;

    FunctionalResult res;
    res.y = Tensor(x.n(), dy.c(), x.h(), x.w());
    res.dx = Tensor(x.n(), x.c(), x.h(), x.w());
    res.dW = WinoWeights(algo.alpha, W.outChannels(), W.inChannels());
    Tensor x_c(shard, x.c(), x.h(), x.w());
    Tensor dy_c(shard, dy.c(), x.h(), x.w());
    WinoWeights dW_c(algo.alpha, W.outChannels(), W.inChannels());

    for (int c = 0; c < nc; ++c) {
        const int b0 = c * shard;
        copyImages(x, b0, x_c, 0, shard);
        copyImages(dy, b0, dy_c, 0, shard);

        // --- fprop: scatter input tiles (each worker sees only its uv
        // slice), compute per group, gather output tiles.
        WinoTiles X = transformInput(x_c, algo);
        WinoTiles Y(algo.alpha, dy.c(), shard, X.tiles());
        for (int g = 0; g < ng; ++g) {
            partialElementwiseForward(X, W, g * uv_share,
                                      (g + 1) * uv_share, Y);
            // Scatter of X and gather of Y: the (ng-1)/ng fraction of
            // each worker's slice crosses links.
            res.tileElemsTransferred +=
                uint64_t(uv_share) * (X.channels() + Y.channels()) *
                shard * X.tiles() * uint64_t(ng - 1) / uint64_t(ng);
        }
        copyImages(inverseTransform(Y, algo, x.h(), x.w()), 0, res.y, b0,
                   shard);

        // --- bprop: scatter dY, compute per group, gather dX.
        WinoTiles dYt = inverseTransformAdjoint(dy_c, algo);
        WinoTiles dXt(algo.alpha, x.c(), shard, dYt.tiles());
        for (int g = 0; g < ng; ++g) {
            partialElementwiseBackwardData(dYt, W, g * uv_share,
                                           (g + 1) * uv_share, dXt);
            res.tileElemsTransferred +=
                uint64_t(uv_share) * (dYt.channels() + dXt.channels()) *
                shard * dYt.tiles() * uint64_t(ng - 1) / uint64_t(ng);
        }
        copyImages(transformInputAdjoint(dXt, algo, x.h(), x.w()), 0,
                   res.dx, b0, shard);

        // --- updateGrad: every worker produces the partial gradient of
        // its group's weight slice over its batch shard; adding each
        // cluster's gradient into res.dW IS the ring reduction.
        for (int g = 0; g < ng; ++g) {
            partialElementwiseGradWeights(dYt, X, g * uv_share,
                                          (g + 1) * uv_share, dW_c);
            res.weightElemsReduced +=
                uint64_t(uv_share) * W.outChannels() * W.inChannels();
        }
        res.dW += dW_c;
    }
    return res;
}

FunctionalResult
runReference(const Tensor &x, const Tensor &dy, const WinoWeights &W,
             const WinogradAlgo &algo)
{
    FunctionalResult res;
    res.y = winogradForward(x, W, algo);
    res.dx = winogradBackwardData(dy, W, algo, x.h(), x.w());
    res.dW = winogradGradWeights(x, dy, algo);
    return res;
}

} // namespace winomc::mpt
