/**
 * @file
 * Shape-bound Winograd execution plans.
 *
 * A WinoPlan binds one (algorithm, batch, in_ch -> out_ch, H, W)
 * configuration, precomputes the tile grid, and owns every
 * Winograd-domain slab the pipeline needs (input tiles, output tiles,
 * grad-output tiles, grad-input tiles). All stage execution goes through
 * the tile-range kernels of winograd/stages.hh: the staged pipeline runs
 * them once over the whole grid into the slabs, the fused pipeline per
 * strip into per-worker scratch. Once a plan is built, repeated
 * training steps over the same shape perform zero workspace
 * allocations in the Winograd path — the plan is the host-side analogue
 * of the paper's statically scheduled SRAM working set.
 *
 * The execution policy (WINOMC_PREC / WINOMC_SPARSE) is resolved once,
 * at construction, into the storage and mask the forward kernels run
 * with; the staged and fused forwards then call the same per-range
 * forward without consulting the policy again.
 *
 * Lifecycle: layers build a plan lazily on the first forward and rebuild
 * only when the incoming shape stops matching (matches()). The plan
 * budget is validated against WINOMC_WORKSPACE_LIMIT_MB at construction,
 * failing loudly instead of OOM-ing later.
 *
 * Thread-safety contract: a plan parallelizes *internally* (each stage
 * fans out across the common/parallel.hh pool) but is not reentrant —
 * concurrent calls into one plan race on its slabs. One plan per layer
 * (or per cluster in MPT) is the intended usage; results are bitwise
 * identical for any thread count.
 */

#ifndef WINOMC_WINOGRAD_PLAN_HH
#define WINOMC_WINOGRAD_PLAN_HH

#include <memory>
#include <mutex>
#include <vector>

#include "common/logging.hh"
#include "tensor/tensor.hh"
#include "winograd/algo.hh"
#include "winograd/conv_spec.hh"
#include "winograd/lowprec.hh"
#include "winograd/tiling.hh"

namespace winomc {

namespace stage {
struct TileRange;
}

/**
 * WINOMC_FUSED knob: picks between the staged pipeline (full slabs
 * between stages) and the fused tile-strip pipeline (§4.11).
 *
 *  - Off:  always staged.
 *  - Auto: fused when the plan's shape qualifies (slabs overflow cache
 *          and no caller needs the tile caches), staged otherwise.
 *  - On:   fused wherever a fused path exists, regardless of size —
 *          including train-mode layer forwards, whose backward then
 *          rebuilds the input tiles from the cached activations.
 */
enum class FusedMode : int { Off = 0, Auto = 1, On = 2 };

/**
 * Parse a WINOMC_FUSED-style string ("auto" | "on" | "off", trimmed,
 * case-insensitive). Unknown input warns and yields Auto; never
 * throws, never exits (same discipline as parseIsa).
 */
FusedMode parseFusedMode(const char *str);

/**
 * The process-wide requested mode: the last setFusedMode() value, or
 * WINOMC_FUSED parsed once on first use when no override was set.
 */
FusedMode requestedFusedMode();

/** Programmatic override (tests/benchmarks); sets the mode exactly —
 *  setFusedMode(FusedMode::Auto) selects Auto, it does NOT re-read the
 *  environment. */
void setFusedMode(FusedMode m);

/** Human-readable name ("off", "auto", "on"). */
const char *fusedModeName(FusedMode m);

class WinoPlan
{
  public:
    WinoPlan(const WinogradAlgo &algo, int batch, int inCh, int outCh,
             int h, int w);

    /**
     * Does this plan cover the given execution configuration? Also
     * false when the process-wide ExecPolicy (WINOMC_PREC /
     * WINOMC_SPARSE) changed since construction: a plan executes
     * forwards under the policy it captured, so plan pools must
     * rebuild — never alias — across policy flips.
     */
    bool matches(const WinogradAlgo &algo, int batch, int inCh,
                 int outCh, int h, int w) const;

    /** The (precision, sparsity) policy captured at construction. */
    const ExecPolicy &policy() const { return pol; }

    const TileGrid &tileGrid() const { return grid; }
    int batch() const { return nb; }
    int inChannels() const { return ni; }
    int outChannels() const { return nj; }
    int height() const { return fh; }
    int width() const { return fw; }

    /** Total bytes of the plan-owned slabs (the planned working set). */
    std::size_t workspaceBytes() const;

    // -----------------------------------------------------------------
    // One-shot pipelines (the free winograd* wrappers route through
    // transient plans built on these). Each fully rewrites the slabs it
    // touches; forwardInto leaves inputTiles()/outputTiles() caching the
    // transformed activations of x.
    // -----------------------------------------------------------------

    /**
     * y = winograd_conv(x, W); caches X and Y tiles in the plan.
     * Executes under policy(): a sparse fp32 policy routes through the
     * zero-skipping kernels (bitwise identical output, Xt still
     * cached); a half policy stores the transformed activations in 16
     * bits — the fp32 Xt slab is then NOT populated (inputCached()
     * stays false) and callers needing input tiles must scatterInput.
     */
    void forwardInto(const Tensor &x, const WinoWeights &W, Tensor &y);
    /** dx from dy through the pipeline adjoint (no cached state used). */
    void backwardDataInto(const Tensor &dy, const WinoWeights &W,
                          Tensor &dx);
    /** dW (assigned, not accumulated) from x and dy. */
    void gradWeightsInto(const Tensor &x, const Tensor &dy,
                         WinoWeights &dW);

    // -----------------------------------------------------------------
    // Fused tile-strip pipeline (§4.11): the staged pipeline's own
    // range kernels (transform -> per-(K,C) panel accumulation ->
    // inverse transform) run per L2-sized strip of the tile grid,
    // touching only per-worker strip scratch — the full Xt/Yt/dYt/dXt
    // slabs are bypassed entirely. Bitwise identical to the staged
    // pipeline at every ISA level and for any thread count. Leaves the
    // plan's tile caches invalid (there are no slab tiles to cache);
    // callers needing inputTiles()/outputTiles() must use the staged
    // path.
    // -----------------------------------------------------------------

    /**
     * Resolve the WINOMC_FUSED knob for this plan. Pass
     * preserveTileCaches = true when the caller will later read the
     * plan's tile caches (e.g. a train-mode layer forward): Auto then
     * refuses to fuse; only an explicit WINOMC_FUSED=on overrides it.
     */
    bool shouldFuse(bool preserveTileCaches) const;

    /** y = winograd_conv(x, W) per cache-resident tile strip. */
    void forwardFusedInto(const Tensor &x, const WinoWeights &W,
                          Tensor &y);

    /**
     * dx from dy per tile strip. Re-gathers dy per strip (an m x m
     * gather per tile — cheaper than streaming the a^2-wide dYt slab),
     * so no cached state is used or produced. Strips of one image run
     * serially in ascending order (overlap-add order is part of the
     * bitwise contract); the batch axis is the parallel unit.
     */
    void backwardDataFusedInto(const Tensor &dy, const WinoWeights &W,
                               Tensor &dx);

    /** Tiles per strip (multiple of mk::kTilePanel). */
    int stripTiles() const { return stripT; }
    /** Strips per image: ceil(tiles / stripTiles()). */
    int stripCount() const
    {
        return (grid.tiles() + stripT - 1) / stripT;
    }

    // -----------------------------------------------------------------
    // Staged training-step API: forwardInto caches the input tiles;
    // transformGradOutput computes the grad-output tiles once, and both
    // gradient products then reuse them without re-transforming.
    // -----------------------------------------------------------------

    /** dYt = A dy A^T per tile; prerequisite of the FromCached calls. */
    void transformGradOutput(const Tensor &dy);
    /** dW (assigned) from the cached X tiles and grad-output tiles. */
    void gradWeightsFromCachedInto(WinoWeights &dW);
    /** dx from the grad-output tiles through W^T and the input adjoint. */
    void backwardDataFromCachedInto(const WinoWeights &W, Tensor &dx);

    // -----------------------------------------------------------------
    // Partial-execution access (mpt::MptConvLayer): scatterInput and
    // transformGradOutput move into the Winograd domain, the gathers
    // move back; the partial element-wise kernels of mpt/functional.hh
    // accumulate directly into the plan-owned slabs in between. Callers
    // zero outputTilesMutable() / gradInputTilesMutable() before a fresh
    // accumulation pass — a zeroed reused slab is bitwise identical to
    // a fresh one.
    // -----------------------------------------------------------------

    /** Xt = B^T x B per tile (marks the input cache valid). */
    void scatterInput(const Tensor &x);
    /** y = inverse transform of the (accumulated) output tiles. */
    void gatherOutputInto(Tensor &y);
    /** dx = overlap-add adjoint of the (accumulated) grad-input tiles. */
    void gatherGradInputInto(Tensor &dx);

    const WinoTiles &inputTiles() const;
    const WinoTiles &outputTiles() const;
    const WinoTiles &gradOutputTiles() const;
    WinoTiles &outputTilesMutable() { return slab.out; }
    WinoTiles &gradInputTilesMutable() { return gradSlab.in; }

    /** Is the input-tile cache populated (by forwardInto/scatterInput)? */
    bool inputCached() const { return haveInput; }
    /** Drop cache-validity (e.g. after an inference-only forward). */
    void invalidateCache() { haveInput = haveOutput = haveGrad = false; }

  private:
    /**
     * The Winograd-domain tiles one pipeline range runs through: an
     * input side (I channels) and an output side (J channels). The
     * plan's whole-grid slabs are two of these ([a²][ch][N][T]); each
     * fused worker owns one strip-sized set ([a²][ch][1][stripT]).
     * Strip slots are created before a fused call's parallel region
     * and kept for the plan's lifetime, so fused steady state
     * allocates nothing.
     */
    struct TileSet
    {
        WinoTiles in;     ///< input side (X or dX tiles)
        WinoTiles out;    ///< output side (Y or dY tiles)
        HalfTiles inHalf; ///< 16-bit input side (half policies only)
        ActMask mask;     ///< activation zero mask (sparse policies)
    };

    /** Shape s for `batch` images of `tiles` tiles; withPolicy also
     *  sizes the policy's 16-bit tiles and zero mask. */
    void shapeTileSet(TileSet &s, int batch, int tiles,
                      bool withPolicy) const;
    /** A new strip slot (stripMu held), shaped by shapeTileSet. */
    TileSet *newStripSlot();
    TileSet *acquireStripSlot();
    void releaseStripSlot(TileSet *s);
    void ensureStripSlots(int n);

    /** Shape checks shared by the staged and fused pipelines. */
    void checkShapes(const Tensor &in, int inCh, const WinoWeights &W,
                     const Tensor &out, int outCh,
                     const char *what) const;

    /**
     * gather -> element-wise -> inverse over one tile range, with the
     * storage and mask the captured policy selects. The instantiation
     * is picked once, at construction, into fwdRange; the staged
     * forward calls it over the whole grid, the fused one per strip.
     */
    template <class Tiles, bool Masked>
    void forwardRange(const Tensor &x, const WinoWeights &W, Tensor &y,
                      const stage::TileRange &r, TileSet &s);
    /** The backward-data pipeline over one tile range (always fp32). */
    void backwardDataRange(const Tensor &dy, const WinoWeights &W,
                           Tensor &dx, const stage::TileRange &r,
                           TileSet &s);

    /** Publish wino.<mode>.<phase> traffic counters + predicted gauge
     *  (no-op when metrics are disabled). Args are bytes, so streams
     *  of different element widths (fp32 vs 16-bit tiles) add up
     *  honestly. */
    void publishTraffic(const char *mode, const char *phase,
                        double xformBytes, double ewBytes,
                        double invBytes, double predictedBytes) const;

    const WinogradAlgo &alg;
    int nb, ni, nj, fh, fw;
    TileGrid grid;
    ExecPolicy pol; ///< precision/sparsity captured at construction

    using ForwardRangeFn = void (WinoPlan::*)(const Tensor &,
                                              const WinoWeights &,
                                              Tensor &,
                                              const stage::TileRange &,
                                              TileSet &);
    ForwardRangeFn fwdRange = nullptr; ///< forwardRange<...> of pol
    int halfKind = 0;       ///< mk::kHalf* encoding of a 16-bit pol
    bool fp32Input = true;  ///< forwards leave fp32 input tiles (Xt)

    /** Forward slabs: in = Xt (transformed input activations), out =
     *  Yt (pre-inverse output tiles), plus the policy's 16-bit input
     *  tiles and activation zero mask. */
    TileSet slab;
    /** Backward slabs: out = dYt (transformed output gradients), in =
     *  dXt (Winograd-domain input gradients). */
    TileSet gradSlab;

    bool haveInput = false;  ///< Xt holds the last forward's input
    bool haveOutput = false; ///< Yt holds the last forward's output
    bool haveGrad = false;   ///< dYt holds the last backward's grads

    int stripT = 0; ///< tiles per fused strip (multiple of kTilePanel)
    /** Exact in-bounds input-gather elements per (image, channel)
     *  plane: sum over tiles of the a x a window's overlap with the
     *  plane. Used by the measured-traffic counters. */
    std::size_t gatherElemsA = 0;

    std::vector<std::unique_ptr<TileSet>> stripSlots;
    std::vector<TileSet *> stripFree; ///< guarded by stripMu
    std::mutex stripMu;
};

/**
 * Where a layer's plans come from.
 *
 * Plans are exclusive while leased (a WinoPlan is not reentrant), so
 * the interface moves ownership both ways: acquirePlan() hands the
 * caller a plan matching the configuration — a cached one when the
 * source holds a match, a freshly built one otherwise — and
 * releasePlan() parks a displaced plan for future reuse instead of
 * destroying it. A re-issued plan always comes back with its tile
 * caches invalidated (they describe activations of an earlier lease).
 *
 * Every nn::ConvLayer owns a small PlanLru by default; a serving
 * engine can re-point layers at a shared, thread-safe source
 * (serve::PlanCache) so concurrent model instances draw from one pool.
 */
class PlanSource
{
  public:
    virtual ~PlanSource() = default;

    /** Lease a plan covering the configuration (cached or new). */
    virtual std::unique_ptr<WinoPlan>
    acquirePlan(const WinogradAlgo &algo, int batch, int inCh,
                int outCh, int h, int w) = 0;

    /**
     * Descriptor route of the same lease: a WinoPlan binds the
     * unit-stride "same" geometry, so the spec must satisfy
     * samePadded(). This is the spelling layers and the serving engine
     * use, so the descriptor — not loose ints — carries the cache key.
     */
    std::unique_ptr<WinoPlan>
    acquirePlan(const ConvSpec &spec, const WinogradAlgo &algo)
    {
        winomc_assert(spec.samePadded(),
                      "WinoPlan lease needs a stride-1 same-padded "
                      "spec; got ", spec.key());
        return acquirePlan(algo, spec.batch, spec.inCh, spec.outCh,
                           spec.h, spec.w);
    }

    /** Park a displaced plan for reuse. null is accepted and ignored,
     *  so callers can unconditionally hand back `std::move(slot)`. */
    virtual void releasePlan(std::unique_ptr<WinoPlan> plan) = 0;
};

/**
 * Small MRU-ordered plan pool — the default PlanSource of every
 * Winograd layer, and the fix for shape-churn allocation thrash:
 * alternating batch shapes (A/B/A/B serving traffic) used to rebuild
 * the layer plan on every flip, bouncing multi-MB slab sets off the
 * workspace pool; parking displaced plans here makes any rotation
 * over up to `capacity` shapes allocation-free after one warm-up of
 * each shape. Not thread-safe (per-layer, like the layer itself);
 * eviction destroys the least-recently-used plan, returning its slabs
 * to the workspace pool.
 */
class PlanLru : public PlanSource
{
  public:
    static constexpr int kDefaultCapacity = 4;

    explicit PlanLru(int capacity = kDefaultCapacity);

    std::unique_ptr<WinoPlan> acquirePlan(const WinogradAlgo &algo,
                                          int batch, int inCh, int outCh,
                                          int h, int w) override;
    void releasePlan(std::unique_ptr<WinoPlan> plan) override;

    /** Parked plans (excludes any currently leased). */
    int size() const { return int(pool.size()); }
    int capacity() const { return cap; }
    /** Destroy every parked plan (slabs return to the workspace). */
    void clear() { pool.clear(); }

  private:
    int cap;
    std::vector<std::unique_ptr<WinoPlan>> pool; ///< MRU first
};

// ---------------------------------------------------------------------
// DWM-style decomposition (DESIGN.md §4.14): a convolution with kernel
// taps beyond 3 and/or stride beyond 1 is rewritten as a SUM of small
// 3x3 stride-1 "same" convolutions over gathered input views — each
// term runs through the ordinary F(m,3) staged/fused strip pipelines,
// so every geometry the terms cover inherits the fast path (and its
// bitwise thread-invariance) instead of falling back to direct.
// ---------------------------------------------------------------------

/**
 * One decomposition term. Per dimension, tap index a of the original
 * kernel maps to phase ph = a % stride and position p = a / stride;
 * positions are chunked in threes (chunk c covers p in [3c, 3c+3)),
 * and each (ph, c) pair becomes a 3-tap unit kernel
 *   k_u[j] = w[stride * (3c + j) + ph]   (zero where out of range)
 * convolved over the strided input view
 *   x_u[i] = x_zeroext[stride * i + off],  off = stride*(3c+1) + ph - pad.
 * The 2D term is the product of one row and one column unit.
 */
struct DecompTerm
{
    int phR, chunkR; ///< row phase / chunk
    int phC, chunkC; ///< column phase / chunk
    int offR, offC;  ///< input-view offsets (may be negative)
};

/** The term list of a spec (row-major over (row unit, col unit)). */
std::vector<DecompTerm> decomposeSpec(const ConvSpec &spec);

/**
 * Can this geometry run decomposed? Requires positive output size,
 * kernels up to 11 taps and strides up to 3 per dimension (beyond that
 * the term count outgrows any benefit over direct).
 */
bool decompSupported(const ConvSpec &spec);

/**
 * Shape-bound decomposed execution plan.
 *
 * Owns one inner WinoPlan shared by every term — all terms convolve
 * the same (batch, inCh -> outCh, outH+2, outW+2) gathered view, where
 * the +2 border absorbs the inner pipeline's "same" zero padding (the
 * shifted views carry real data where the inner padding would
 * otherwise clip it; the border rows of each term's output are
 * inner-padding artifacts and are cropped by the accumulation). Terms
 * execute serially in term-list order and accumulate row-by-row with
 * the fixed-chain axpy kernel, so results are bitwise identical for
 * any thread count and for staged vs fused inner execution.
 *
 * Steady state allocates nothing: the gather/accumulate tensors, the
 * per-term transformed weights, and the inner plan slabs all persist
 * for the plan's lifetime. Like WinoPlan, not reentrant.
 */
class WinoDecompPlan
{
  public:
    /** @param unit the F(m,3) algorithm every term executes with */
    WinoDecompPlan(const ConvSpec &spec, const WinogradAlgo &unit);

    /** Does this plan cover the given spec (name ignored) and unit? */
    bool matches(const ConvSpec &spec, const WinogradAlgo &unit) const;

    int terms() const { return int(units.size()); }
    const WinogradAlgo &unitAlgo() const { return alg; }
    const ConvSpec &spec() const { return sp; }
    const WinoPlan &innerPlan() const { return *inner; }

    /** Plan-owned bytes: inner plan slabs + gather/accumulate maps +
     *  per-term Winograd weights. */
    std::size_t workspaceBytes() const;

    /** Split spatial weights (J, I, kh, kw) into per-term transformed
     *  unit weights. Call once, and again whenever weights change. */
    void setWeights(const Tensor &w);

    /** y = conv(x) as the ordered sum of the decomposition terms. */
    void forwardInto(const Tensor &x, Tensor &y);

  private:
    ConvSpec sp;
    const WinogradAlgo &alg;
    std::vector<DecompTerm> units;
    std::vector<WinoWeights> unitW; ///< one transformed set per term
    Tensor kerScratch; ///< (J, I, 3, 3) spatial unit-kernel staging
    Tensor xGather;    ///< (B, I, outH+2, outW+2) strided view
    Tensor yTerm;      ///< (B, J, outH+2, outW+2) term output
    std::unique_ptr<WinoPlan> inner;
    bool haveWeights = false;
};

} // namespace winomc

#endif // WINOMC_WINOGRAD_PLAN_HH
