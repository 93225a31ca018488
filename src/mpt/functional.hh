/**
 * @file
 * Functional (numerical) emulation of multi-dimensional parallel
 * training.
 *
 * The performance model (layer_sim.hh) answers "how fast"; this module
 * answers "is the parallel computation the same computation". It
 * executes one Winograd-layer training step exactly as the MPT
 * partitioning prescribes - batch split over N_c clusters, tile
 * elements split over N_g groups, explicit tile scatter/gather inside
 * each cluster, weight-gradient reduction inside each group - on the
 * same stage kernels the single-worker plan runs. Every (uv, column)
 * product is computed on its own, so y and dx are bitwise equal to the
 * single-worker reference; dW is bitwise equal with one cluster and
 * differs by the cross-cluster reduction order otherwise. The
 * integration tests assert exactly that: MPT changes the schedule,
 * never the math.
 */

#ifndef WINOMC_MPT_FUNCTIONAL_HH
#define WINOMC_MPT_FUNCTIONAL_HH

#include <cstdint>

#include "winograd/algo.hh"
#include "winograd/conv.hh"

namespace winomc::mpt {

struct FunctionalResult
{
    Tensor y;        ///< forward output, gathered from all workers
    Tensor dx;       ///< backward-data output
    WinoWeights dW;  ///< weight gradient after the group reductions

    /** Winograd-domain values crossing worker boundaries (elements). */
    uint64_t tileElemsTransferred = 0;
    /** Gradient elements reduced across clusters (per group summed). */
    uint64_t weightElemsReduced = 0;
};

/**
 * Execute fprop + bprop + updateGrad of one Winograd layer partitioned
 * over ng groups x nc clusters.
 *
 * @param x     input (B, I, H, W); B must divide by nc
 * @param dy    upstream gradient (B, J, H, W)
 * @param W     Winograd-domain weights (replicated in every cluster,
 *              sliced across groups)
 * @param algo  transform; alpha^2 must divide by ng
 */
FunctionalResult runFunctionalMpt(const Tensor &x, const Tensor &dy,
                                  const WinoWeights &W,
                                  const WinogradAlgo &algo, int ng,
                                  int nc);

/** Single-worker reference of the same step. */
FunctionalResult runReference(const Tensor &x, const Tensor &dy,
                              const WinoWeights &W,
                              const WinogradAlgo &algo);

/**
 * Per-worker (group-slice) kernels: the element-wise products of
 * Equation (2) restricted to the uv range [uv0, uv1) one group owns,
 * run by the plan's own stage kernels (winograd/stages.hh). Each
 * assigns its slice of the destination and leaves the rest untouched.
 * These are what every (group, cluster) worker executes; the functional
 * emulation and the MptConvLayer compose them.
 * @{
 */
void partialElementwiseForward(const WinoTiles &X, const WinoWeights &W,
                               int uv0, int uv1, WinoTiles &Y);
void partialElementwiseBackwardData(const WinoTiles &dY,
                                    const WinoWeights &W, int uv0,
                                    int uv1, WinoTiles &dX);
void partialElementwiseGradWeights(const WinoTiles &dY,
                                   const WinoTiles &X, int uv0, int uv1,
                                   WinoWeights &dW);
/** @} */

/**
 * Copy images [srcB0, srcB0 + count) of src into images [dstB0,
 * dstB0 + count) of dst (same C, H, W): the batch shard scatter and
 * gather between a layer and its clusters.
 */
void copyImages(const Tensor &src, int srcB0, Tensor &dst, int dstB0,
                int count);

} // namespace winomc::mpt

#endif // WINOMC_MPT_FUNCTIONAL_HH
