/**
 * @file
 * A trainable Winograd-layer convolution whose every training step runs
 * through the MPT partitioning (batch over N_c clusters, tile elements
 * over N_g groups) with explicit scatter/gather and group reductions -
 * a drop-in nn::Module that *is* the distributed execution, plus
 * communication accounting.
 *
 * Every group runs the single-worker plan's own stage kernels on its uv
 * slice (WinoPlan::forward/backward with groups = N_g), so the forward
 * output and the input gradient are bitwise equal to the single-worker
 * nn::ConvLayer in WinogradLayer mode for every (ng, nc), and with one
 * cluster the weight gradient and the SGD update are too: the layers
 * train in bitwise lockstep. With several clusters dW is summed cluster
 * by cluster, which differs from the single-worker reduction only in FP
 * accumulation order - the end-to-end demonstration that MPT changes
 * the schedule, never the learned model. MptConvLayer is the only MPT
 * executor: the simulators (layer_sim.hh) model its timing.
 *
 * Each cluster owns a shape-bound WinoPlan: the plan slabs play the role
 * of the cluster's SRAM-resident tiles, and the group kernels write
 * straight into them, so steady-state steps allocate nothing. Every
 * cluster runs the plan's own forward and backward with the group
 * count, so each group's element-wise products run under the plan's
 * ExecPolicy (16-bit storage, activation mask) and forward schedule
 * (fused or staged), whatever N_g is.
 */

#ifndef WINOMC_MPT_MPT_CONV_LAYER_HH
#define WINOMC_MPT_MPT_CONV_LAYER_HH

#include <memory>

#include "nn/module.hh"
#include "winograd/conv_spec.hh"
#include "winograd/plan.hh"

namespace winomc::mpt {

class MptConvLayer : public nn::Module
{
  public:
    /**
     * @param ng, nc  worker organization; alpha^2 % ng == 0, batch %
     *                nc == 0 at forward time
     */
    MptConvLayer(int in_ch, int out_ch, int r, int ng, int nc,
                 const WinogradAlgo &algo, Rng &rng);

    /**
     * Descriptor convenience: channels and filter size come from the
     * generalized ConvSpec. The MPT pipeline binds the paper's
     * geometry, so the spec must be stride-1 same-padded with a square
     * kernel matching the algorithm — decompose other shapes first.
     */
    MptConvLayer(const ConvSpec &spec, int ng, int nc,
                 const WinogradAlgo &algo, Rng &rng);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &dy) override;
    void step(float lr) override;
    size_t paramCount() const override { return W.size(); }
    std::string name() const override { return "mpt_conv"; }

    const WinoWeights &winoWeights() const { return W; }
    /** Winograd-domain values that crossed worker boundaries so far. */
    uint64_t tileElemsTransferred() const { return tileElems; }
    /** Gradient elements reduced across clusters so far. */
    uint64_t weightElemsReduced() const { return weightElems; }

  private:
    /** (Re)build the per-cluster plans iff the shard shape changed. */
    void ensurePlans(const Tensor &x);
    /** Tile elements one cluster's groups exchange in one phase. */
    uint64_t tileElemsPerPhase() const;

    int inCh, outCh, ng, nc, uvShare;
    const WinogradAlgo &algo;
    WinoWeights W;
    WinoWeights dW;
    WinoWeights gScratch; ///< one cluster's weight gradient
    bool haveGrad = false;

    /** One execution plan per cluster; plan slabs cache the forward
     *  tiles the backward pass reuses. */
    std::vector<std::unique_ptr<WinoPlan>> plans;
    /** Per-cluster plan pools: a shard-shape change parks the displaced
     *  plans here instead of destroying them, so alternating batch
     *  shapes stop thrashing the workspace (one pool per cluster —
     *  same-shape plans cannot share a single LRU, a lease is
     *  exclusive). */
    std::vector<PlanLru> planCaches;
    /** Persistent scatter/gather staging tensors (shard-sized). */
    Tensor xShard, yShard, dyShard, dxShard;
    /** True iff the plan caches come from a train-mode forward. */
    bool trainCached = false;
    int lastH = 0, lastW = 0, shard = 0;

    uint64_t tileElems = 0;
    uint64_t weightElems = 0;
};

} // namespace winomc::mpt

#endif // WINOMC_MPT_MPT_CONV_LAYER_HH
