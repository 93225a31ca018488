/**
 * @file
 * Tile-range stage kernels of the Winograd pipeline (DESIGN.md §4.11).
 *
 * One kernel family serves both schedules of a WinoPlan. The staged
 * pipeline calls each kernel once over the whole tile grid; the kernel
 * then fans out over the thread pool and emits its stage span and
 * throughput timer. The fused pipeline calls the same kernel per
 * cache-sized strip of one image, serially, from inside the plan's own
 * strip loop. The arithmetic per element is the same either way (same
 * micro-kernels, blocking and summation order), so fused and staged
 * execution are bitwise identical at every ISA level.
 *
 * Storage (fp32 WinoTiles or 16-bit HalfTiles) and the activation zero
 * mask are template parameters: a plan picks the instantiation once,
 * from the ExecPolicy it captured, instead of branching per call.
 *
 * Internal to the winograd library: the public stage API is
 * winograd/conv.hh.
 */

#ifndef WINOMC_WINOGRAD_STAGES_HH
#define WINOMC_WINOGRAD_STAGES_HH

#include <chrono>

#include "common/perfcounters.hh"
#include "tensor/tensor.hh"
#include "winograd/algo.hh"
#include "winograd/lowprec.hh"
#include "winograd/tiling.hh"

namespace winomc {
namespace stage {

/** Largest tile edge the stack transform panels hold. */
constexpr int kMaxAlpha = 8;

/**
 * The tiles one stage call covers: tiles [t0, t0 + tcnt) of images
 * [b0, b1). Source image b lands at destination batch b - b0 and tile t
 * at destination tile t - t0, so a whole-grid range maps the plan slabs
 * one to one and a strip lands at the start of batch-1 strip scratch.
 */
struct TileRange
{
    int b0, b1;
    int t0, tcnt;
    /** Whole-grid staged call: pool-parallel and traced. Otherwise one
     *  serial strip (the caller's strip loop is the parallel unit). */
    bool grid;

    static TileRange
    whole(int batch, int tiles)
    {
        return {0, batch, 0, tiles, true};
    }
    static TileRange
    strip(int b, int t0, int tcnt)
    {
        return {b, b + 1, t0, tcnt, false};
    }
    /** Length of the element-wise GEMM's streamed (batch*tile) axis. */
    int cols() const { return (b1 - b0) * tcnt; }
};

/** The four spatial <-> Winograd-domain maps of the pipeline. */
enum class Side {
    Input,        ///< X = B^T x B over alpha x alpha input patches
    InputAdjoint, ///< dx += B dX B^T, overlap-added into the patches
    Output,       ///< y = A^T Y A into m x m output patches
    OutputAdjoint ///< dY = A dy A^T from m x m output patches
};

/**
 * One side's transform: the matrices L (alpha x edge when gathering,
 * edge x alpha when scattering) and R, the spatial patch geometry on
 * the tile grid, and the stage names the staged call reports under.
 */
struct TileMap
{
    TileMap(Side side, const WinogradAlgo &algo, const TileGrid &grid);

    TileGrid grid;
    const double *L;
    const double *R;
    int alpha;
    int edge; ///< spatial patch edge (alpha or m)
    int org;  ///< patch origin of tile (th, tw) is (th*m, tw*m) - org
    bool add; ///< scatter overlap-adds instead of storing
    const char *span;    ///< trace span of a staged call
    const char *stageId; ///< StageTimer stage of a staged call
    double flopsPerTile; ///< per (image, channel, tile)
};

/**
 * Gather + transform: spatial planes of src into Winograd-domain tiles
 * (every channel of every image in the range). Masked also rebuilds
 * the destination planes of the activation zero mask and publishes
 * the quant.mask.* counters; halfKind selects the 16-bit encoding when
 * Tiles is HalfTiles.
 */
template <class Tiles, bool Masked>
void gather(const TileMap &mp, const Tensor &src, const TileRange &r,
            Tiles &dst, ActMask *mask = nullptr, int halfKind = 0);

/**
 * Inverse-side transform + scatter of src tiles into dst planes. An
 * overlap-add map clears each destination plane when the range starts
 * at tile 0, so ranges of one image applied in ascending tile order
 * accumulate from zero in the staged summation order.
 */
void scatter(const TileMap &mp, const WinoTiles &src, const TileRange &r,
             Tensor &dst);

/**
 * Y[uv] = W[uv] * X[uv] over the range's columns (assigned, not
 * accumulated). One task loop over three column bodies: the blocked fp32
 * panel kernel, the zero-skipping grouped kernel (Masked fp32) and the
 * 16-bit kernel (HalfTiles, zero-skipping when Masked). The skipping
 * bodies publish the quant.ew.* counters.
 */
template <class Tiles, bool Masked>
void ewForward(const Tiles &X, const WinoWeights &W, const TileRange &r,
               WinoTiles &Y, const ActMask *mask = nullptr,
               int halfKind = 0);

/** dX[uv] = W[uv]^T * dY[uv] over the range's columns (assigned). */
void ewBackwardData(const WinoTiles &dY, const WinoWeights &W,
                    const TileRange &r, WinoTiles &dX);

/** dW[uv] = dY[uv] * X[uv]^T over whole slabs (assigned, staged). */
void ewGradWeights(const WinoTiles &dY, const WinoTiles &X,
                   WinoWeights &dW);

/**
 * RAII throughput probe: when metrics are on (and `on`), times the
 * enclosing stage and publishes kernel.<stage>.gflops, the
 * vector/scalar time split and this thread's perf.<stage>.* hardware
 * counters. Costs one relaxed atomic load when metrics are off.
 */
class StageTimer
{
  public:
    StageTimer(const char *stage, double flops, bool on = true);
    ~StageTimer();
    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

  private:
    const char *stage;
    double flops;
    bool active;
    std::chrono::steady_clock::time_point start;
    perf::Reading perf0;
};

} // namespace stage
} // namespace winomc

#endif // WINOMC_WINOGRAD_STAGES_HH
