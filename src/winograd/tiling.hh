/**
 * @file
 * Tiling geometry for Winograd convolution and the Winograd-domain tile
 * container.
 *
 * An H x W feature map convolved "same" (stride 1, pad (r-1)/2) with an
 * F(m,r) algorithm decomposes into ceil(H/m) x ceil(W/m) overlapping
 * input tiles of alpha x alpha (stride m), each producing an m x m patch
 * of the output.
 */

#ifndef WINOMC_WINOGRAD_TILING_HH
#define WINOMC_WINOGRAD_TILING_HH

#include <vector>

#include "common/logging.hh"
#include "tensor/workspace.hh"
#include "winograd/algo.hh"

namespace winomc {

/** Tile grid geometry for one feature-map plane. */
struct TileGrid
{
    int h, w;        ///< spatial feature-map size (output == input, "same")
    int m;           ///< outputs per tile edge
    int alpha;       ///< input tile edge
    int pad;         ///< zero padding on each border, (r-1)/2
    int tilesH;      ///< ceil(h / m)
    int tilesW;      ///< ceil(w / m)

    TileGrid(int h, int w, const WinogradAlgo &algo);

    int tiles() const { return tilesH * tilesW; }
    /** Top-left input coordinate (may be negative: padding) of a tile. */
    int tileRow(int th) const { return th * m - pad; }
    int tileCol(int tw) const { return tw * m - pad; }
};

/**
 * Winograd-domain tiles for a batch of feature maps.
 *
 * Layout: [uv][channel][batch][tile] with uv = u * alpha + v, so that the
 * element-wise dot product of Equation (2) is, per uv, a dense
 * (channels) x (batch * tiles) matrix. This mirrors the paper's Figure 3:
 * T^2 independent matrix multiplications.
 */
class WinoTiles
{
  public:
    WinoTiles() = default;
    WinoTiles(int alpha, int channels, int batch, int tiles);

    ~WinoTiles() { ws::release(std::move(data)); }
    WinoTiles(const WinoTiles &o);
    WinoTiles &operator=(const WinoTiles &o);
    WinoTiles(WinoTiles &&o) noexcept;
    WinoTiles &operator=(WinoTiles &&o) noexcept;

    /** Rebind shape, reusing the slab when capacity allows. Contents
     *  are zeroed iff the shape changed. */
    void reshape(int alpha, int channels, int batch, int tiles);

    int alphaEdge() const { return alpha; }
    int uvCount() const { return alpha * alpha; }
    int channels() const { return nch; }
    int batch() const { return nb; }
    int tiles() const { return nt; }
    size_t size() const { return data.size(); }

    float &
    at(int uv, int c, int b, int t)
    {
        return data[index(uv, c, b, t)];
    }
    float
    at(int uv, int c, int b, int t) const
    {
        return data[index(uv, c, b, t)];
    }

    /** Contiguous (batch * tiles) row for a given (uv, channel). */
    float *
    row(int uv, int c)
    {
        return data.data() + index(uv, c, 0, 0);
    }
    const float *
    row(int uv, int c) const
    {
        return data.data() + index(uv, c, 0, 0);
    }

    void fill(float v) { std::fill(data.begin(), data.end(), v); }

    /**
     * Pointer to element (uv=0, c, b, t); element (uv, c, b, t) lives
     * uv * uvStride() floats further on. The micro-kernel transforms
     * walk all uv entries of a panel of consecutive tiles through this
     * base + stride pair.
     */
    float *
    uvBase(int c, int b, int t)
    {
        return data.data() + index(0, c, b, t);
    }
    const float *
    uvBase(int c, int b, int t) const
    {
        return data.data() + index(0, c, b, t);
    }
    size_t uvStride() const { return (size_t(nch) * nb) * nt; }

  private:
    size_t
    index(int uv, int c, int b, int t) const
    {
        winomc_assert(uv >= 0 && uv < alpha * alpha && c >= 0 && c < nch &&
                      b >= 0 && b < nb && t >= 0 && t < nt,
                      "WinoTiles index out of range");
        return ((size_t(uv) * nch + c) * nb + b) * nt + t;
    }

    int alpha = 0;
    int nch = 0;
    int nb = 0;
    int nt = 0;
    std::vector<float> data;
};

/**
 * Winograd-domain weights: [uv][out_ch][in_ch]. The per-uv slice is the
 * (J x I) matrix of Equation (2).
 */
class WinoWeights
{
  public:
    WinoWeights() = default;
    WinoWeights(int alpha, int out_ch, int in_ch);

    ~WinoWeights() { ws::release(std::move(data)); }
    WinoWeights(const WinoWeights &o);
    WinoWeights &operator=(const WinoWeights &o);
    WinoWeights(WinoWeights &&o) noexcept;
    WinoWeights &operator=(WinoWeights &&o) noexcept;

    /** Rebind shape, reusing the slab when capacity allows. Contents
     *  are zeroed iff the shape changed. */
    void reshape(int alpha, int out_ch, int in_ch);

    int alphaEdge() const { return alpha; }
    int uvCount() const { return alpha * alpha; }
    int outChannels() const { return nj; }
    int inChannels() const { return ni; }
    size_t size() const { return data.size(); }

    float &at(int uv, int j, int i) { return data[index(uv, j, i)]; }
    float at(int uv, int j, int i) const { return data[index(uv, j, i)]; }

    void fill(float v) { std::fill(data.begin(), data.end(), v); }

    /** Flat backing store (for whole-buffer updates like SGD axpy). */
    float *raw() { return data.data(); }
    const float *raw() const { return data.data(); }

    WinoWeights &operator+=(const WinoWeights &o);
    float maxAbsDiff(const WinoWeights &o) const;

  private:
    size_t
    index(int uv, int j, int i) const
    {
        winomc_assert(uv >= 0 && uv < alpha * alpha && j >= 0 && j < nj &&
                      i >= 0 && i < ni, "WinoWeights index out of range");
        return (size_t(uv) * nj + j) * ni + i;
    }

    int alpha = 0;
    int nj = 0;
    int ni = 0;
    std::vector<float> data;
};

/**
 * Element-wise mean of Winograd-domain tile sets: the *modified join*
 * of Section VII-A executed in the Winograd domain. Because the mean is
 * linear it commutes with the inverse transform, so joining here saves
 * one tile gather per joined branch (the tests prove the equality).
 */
WinoTiles tileMean(const std::vector<const WinoTiles *> &inputs);

} // namespace winomc

#endif // WINOMC_WINOGRAD_TILING_HH
