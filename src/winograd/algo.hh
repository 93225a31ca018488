/**
 * @file
 * Winograd filtering algorithm descriptor F(m x m, r x r).
 *
 * Holds the double-precision transform triple (B^T, G, A^T) generated
 * exactly by the Toom-Cook generator, plus derived metadata. Supports the
 * transforms the paper evaluates — F(2x2,3x3), F(4x4,3x3), F(2x2,5x5),
 * the 1D F(2,3) — plus F(6x6,3x3) for the auto-tuner candidate set.
 */

#ifndef WINOMC_WINOGRAD_ALGO_HH
#define WINOMC_WINOGRAD_ALGO_HH

#include <string>

#include "tensor/matrix.hh"

namespace winomc {

/**
 * One Winograd algorithm instance. 2D algorithms are separable: the same
 * 1D triple is applied to rows and columns (tiles are alpha x alpha).
 */
struct WinogradAlgo
{
    int m;      ///< outputs per tile edge
    int r;      ///< filter taps per edge
    int alpha;  ///< tile edge m + r - 1

    Matrix BT;  ///< alpha x alpha input transform
    Matrix G;   ///< alpha x r   weight transform
    Matrix AT;  ///< m x alpha   inverse (output) transform

    // Cached transposes (used in gradients / adjoints).
    Matrix B;   ///< BT^T
    Matrix GT;  ///< G^T
    Matrix A;   ///< AT^T

    std::string name() const;

    /** Winograd-domain weight element count per (i, j) pair: alpha^2. */
    int tileElems() const { return alpha * alpha; }
};

/**
 * The canonical F(m x m, r x r), built from the exact Toom-Cook
 * generator on first request. Every call with the same (m, r) returns
 * the same object, which lives for the rest of the process, so layers
 * and plans may hold the reference (thread-safe).
 */
const WinogradAlgo &makeWinograd(int m, int r);

/** The transforms used in the paper's evaluation. */
const WinogradAlgo &algoF2x2_3x3();
const WinogradAlgo &algoF4x4_3x3();
const WinogradAlgo &algoF2x2_5x5();
/** F(6x6,3x3): alpha = 8, the largest tile the micro-kernel panel
 *  layout supports (mk::kMaxAlpha) — the auto-tuner's top candidate. */
const WinogradAlgo &algoF6x6_3x3();

/**
 * The canonical F(m x m, 3 x 3) for tile edge m in {2, 4, 6} — the
 * auto-tuner's r = 3 candidate family (larger kernels and strides reach
 * these through DWM decomposition). Dies on any other m.
 */
const WinogradAlgo &algoForTile(int m);

} // namespace winomc

#endif // WINOMC_WINOGRAD_ALGO_HH
