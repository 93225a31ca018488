/**
 * @file
 * Winograd transformed convolution: forward, backward-data, and weight
 * gradient, for both weight domains the paper discusses:
 *
 *  - spatial weights (Fig 2(a)): parameters are w; W = G w G^T is
 *    recomputed from w and gradients map back via the transform adjoint;
 *  - the Winograd layer (Fig 2(b), reference [29]): parameters are W
 *    themselves and are updated directly in the Winograd domain.
 *
 * All gradients are exact adjoints of the forward linear maps, verified
 * against numerical differentiation in the tests. Backward-data through
 * the adjoint equals the textbook "convolve dy with flipped weights".
 *
 * A layer's training step runs through an execution plan
 * (winograd/plan.hh: a train-mode forward, then one backward for dx
 * and dW). The value-returning stages below are the references the
 * tests compare that route against and the rows the kernel benchmark
 * times.
 */

#ifndef WINOMC_WINOGRAD_CONV_HH
#define WINOMC_WINOGRAD_CONV_HH

#include "tensor/tensor.hh"
#include "winograd/algo.hh"
#include "winograd/tiling.hh"

namespace winomc {

/**
 * Transform input feature maps x (B, I, H, W) into Winograd-domain tiles
 * (X = B^T x_patch B per tile) with implicit "same" zero padding.
 */
WinoTiles transformInput(const Tensor &x, const WinogradAlgo &algo);

/**
 * Adjoint of transformInput: overlap-add gradient tiles dX back into a
 * (B, I, h, w) spatial gradient (x_patch grad = B dX B^T).
 */
Tensor transformInputAdjoint(const WinoTiles &dX, const WinogradAlgo &algo,
                             int h, int w);

/** Spatial weights (J, I, r, r) -> Winograd weights W = G w G^T. */
WinoWeights transformWeights(const Tensor &w, const WinogradAlgo &algo);

/**
 * Element-wise dot products of Equation (2): per uv,
 * Y[uv] (J x BT) = W[uv] (J x I) * X[uv] (I x BT).
 */
WinoTiles elementwiseForward(const WinoTiles &X, const WinoWeights &W);

/** Backward data: dX[uv] (I x BT) = W[uv]^T (I x J) * dY[uv] (J x BT). */
WinoTiles elementwiseBackwardData(const WinoTiles &dY,
                                  const WinoWeights &W);

/**
 * Winograd-domain weight gradient:
 * dW[uv] (J x I) = dY[uv] (J x BT) * X[uv]^T (BT x I).
 */
WinoWeights elementwiseGradWeights(const WinoTiles &dY, const WinoTiles &X);

/** Inverse transform Y tiles -> spatial output (B, J, h, w), cropping. */
Tensor inverseTransform(const WinoTiles &Y, const WinogradAlgo &algo,
                        int h, int w);

/** Adjoint of inverseTransform: dY = A dy_tile A^T per tile. */
WinoTiles inverseTransformAdjoint(const Tensor &dy,
                                  const WinogradAlgo &algo);

/**
 * Destination-passing weight transforms: the caller owns the
 * pre-shaped destination, so layers re-transform their weights every
 * step without allocating. The tile-side stages have no such public
 * form: execution plans (winograd/plan.hh) run them as tile-range
 * kernels over plan-owned slabs or strip scratch.
 */
void transformWeightsInto(const Tensor &w, const WinogradAlgo &algo,
                          WinoWeights &out);
/** Adjoint of transformWeights: dw = G^T dW G, into (J, I, r, r). */
void transformWeightsAdjointInto(const WinoWeights &dW,
                                 const WinogradAlgo &algo, Tensor &dw);

// ---------------------------------------------------------------------
// High-level convenience wrapper (builds a transient execution plan)
// ---------------------------------------------------------------------

/** y = winograd_conv(x, W); W already in the Winograd domain. */
Tensor winogradForward(const Tensor &x, const WinoWeights &W,
                       const WinogradAlgo &algo);

/** Reference direct convolution, "same", stride 1 (w: J, I, r, r). */
Tensor directConvForward(const Tensor &x, const Tensor &w);

/** Direct backward data: dx = dy (*) flip(w). */
Tensor directConvBackwardData(const Tensor &dy, const Tensor &w);

/** Direct weight gradient: dw[j,i] = sum_b dy[b,j] (*) x[b,i]. */
Tensor directConvGradWeights(const Tensor &x, const Tensor &dy, int r);

/**
 * Generalized reference direct convolution: arbitrary stride, explicit
 * zero padding, rectangular filters (w: J, I, kh, kw), output
 * (B, J, (H + 2*padH - kh)/strideH + 1, ...). Double-precision
 * accumulation per output element in a fixed (i, ky, kx) order — the
 * parity oracle of the DWM decomposition tests and the execution path
 * of geometries no Winograd candidate covers.
 */
Tensor directConvForwardEx(const Tensor &x, const Tensor &w, int strideH,
                           int strideW, int padH, int padW);

} // namespace winomc

#endif // WINOMC_WINOGRAD_CONV_HH
