/**
 * @file
 * One training step through a fresh Winograd plan: the route every
 * layer, MPT cluster and server runs (a train-mode forward, then one
 * backward for dx and dW). Tests that check the backward against a
 * reference (direct convolution, numerical gradients, another ISA or
 * thread count) drive it through this helper.
 */

#ifndef WINOMC_TESTS_TRAIN_STEP_HH
#define WINOMC_TESTS_TRAIN_STEP_HH

#include "tensor/tensor.hh"
#include "winograd/algo.hh"
#include "winograd/plan.hh"
#include "winograd/tiling.hh"

namespace winomc {

struct TrainStep
{
    Tensor y, dx;
    WinoWeights dW;
};

/** y = conv(x, W), then dx and dW of the upstream gradient dy. */
inline TrainStep
trainStep(const Tensor &x, const WinoWeights &W, const Tensor &dy,
          const WinogradAlgo &algo)
{
    const int B = x.n(), I = W.inChannels(), J = W.outChannels();
    WinoPlan plan(algo, B, I, J, x.h(), x.w());
    TrainStep s{Tensor(B, J, x.h(), x.w()), Tensor(B, I, x.h(), x.w()),
                WinoWeights(algo.alpha, J, I)};
    plan.forward(x, W, s.y, true);
    plan.backward(dy, W, s.dx, s.dW);
    return s;
}

} // namespace winomc

#endif // WINOMC_TESTS_TRAIN_STEP_HH
