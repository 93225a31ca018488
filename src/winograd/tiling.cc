#include "winograd/tiling.hh"

#include <cmath>

namespace winomc {

TileGrid::TileGrid(int h_, int w_, const WinogradAlgo &algo)
    : h(h_), w(w_), m(algo.m), alpha(algo.alpha), pad((algo.r - 1) / 2),
      tilesH((h_ + algo.m - 1) / algo.m), tilesW((w_ + algo.m - 1) / algo.m)
{
    winomc_assert(h_ > 0 && w_ > 0, "empty feature map");
    winomc_assert(algo.r % 2 == 1,
                  "\"same\" convolution needs odd filter size, got r=",
                  algo.r);
}

WinoTiles::WinoTiles(int alpha_, int channels, int batch, int tiles)
    : alpha(alpha_), nch(channels), nb(batch), nt(tiles)
{
    winomc_assert(alpha_ > 0 && channels > 0 && batch > 0 && tiles > 0,
                  "degenerate WinoTiles shape");
    data = ws::acquire(size_t(alpha_) * alpha_ * channels * batch *
                       tiles);
}

WinoTiles::WinoTiles(const WinoTiles &o)
    : alpha(o.alpha), nch(o.nch), nb(o.nb), nt(o.nt),
      data(ws::acquire(o.data.size()))
{
    std::copy(o.data.begin(), o.data.end(), data.begin());
}

WinoTiles &
WinoTiles::operator=(const WinoTiles &o)
{
    if (this != &o) {
        alpha = o.alpha;
        nch = o.nch;
        nb = o.nb;
        nt = o.nt;
        ws::assignCopy(data, o.data);
    }
    return *this;
}

WinoTiles::WinoTiles(WinoTiles &&o) noexcept
    : alpha(o.alpha), nch(o.nch), nb(o.nb), nt(o.nt),
      data(std::move(o.data))
{
    o.alpha = o.nch = o.nb = o.nt = 0;
}

WinoTiles &
WinoTiles::operator=(WinoTiles &&o) noexcept
{
    if (this != &o) {
        ws::release(std::move(data));
        data = std::move(o.data);
        alpha = o.alpha;
        nch = o.nch;
        nb = o.nb;
        nt = o.nt;
        o.alpha = o.nch = o.nb = o.nt = 0;
    }
    return *this;
}

void
WinoTiles::reshape(int alpha_, int channels, int batch, int tiles)
{
    winomc_assert(alpha_ > 0 && channels > 0 && batch > 0 && tiles > 0,
                  "degenerate WinoTiles shape");
    const bool same = alpha == alpha_ && nch == channels &&
                      nb == batch && nt == tiles;
    alpha = alpha_;
    nch = channels;
    nb = batch;
    nt = tiles;
    if (same)
        return;
    const size_t need = size_t(alpha_) * alpha_ * channels * batch *
                        tiles;
    if (data.capacity() >= need) {
        data.assign(need, 0.0f);
    } else {
        ws::release(std::move(data));
        data = ws::acquire(need);
    }
}

WinoWeights::WinoWeights(int alpha_, int out_ch, int in_ch)
    : alpha(alpha_), nj(out_ch), ni(in_ch)
{
    winomc_assert(alpha_ > 0 && out_ch > 0 && in_ch > 0,
                  "degenerate WinoWeights shape");
    data = ws::acquire(size_t(alpha_) * alpha_ * out_ch * in_ch);
}

WinoWeights::WinoWeights(const WinoWeights &o)
    : alpha(o.alpha), nj(o.nj), ni(o.ni), data(ws::acquire(o.data.size()))
{
    std::copy(o.data.begin(), o.data.end(), data.begin());
}

WinoWeights &
WinoWeights::operator=(const WinoWeights &o)
{
    if (this != &o) {
        alpha = o.alpha;
        nj = o.nj;
        ni = o.ni;
        ws::assignCopy(data, o.data);
    }
    return *this;
}

WinoWeights::WinoWeights(WinoWeights &&o) noexcept
    : alpha(o.alpha), nj(o.nj), ni(o.ni), data(std::move(o.data))
{
    o.alpha = o.nj = o.ni = 0;
}

WinoWeights &
WinoWeights::operator=(WinoWeights &&o) noexcept
{
    if (this != &o) {
        ws::release(std::move(data));
        data = std::move(o.data);
        alpha = o.alpha;
        nj = o.nj;
        ni = o.ni;
        o.alpha = o.nj = o.ni = 0;
    }
    return *this;
}

void
WinoWeights::reshape(int alpha_, int out_ch, int in_ch)
{
    winomc_assert(alpha_ > 0 && out_ch > 0 && in_ch > 0,
                  "degenerate WinoWeights shape");
    const bool same = alpha == alpha_ && nj == out_ch && ni == in_ch;
    alpha = alpha_;
    nj = out_ch;
    ni = in_ch;
    if (same)
        return;
    const size_t need = size_t(alpha_) * alpha_ * out_ch * in_ch;
    if (data.capacity() >= need) {
        data.assign(need, 0.0f);
    } else {
        ws::release(std::move(data));
        data = ws::acquire(need);
    }
}

WinoWeights &
WinoWeights::operator+=(const WinoWeights &o)
{
    winomc_assert(alpha == o.alpha && nj == o.nj && ni == o.ni,
                  "WinoWeights += shape mismatch");
    for (size_t k = 0; k < data.size(); ++k)
        data[k] += o.data[k];
    return *this;
}

float
WinoWeights::maxAbsDiff(const WinoWeights &o) const
{
    winomc_assert(alpha == o.alpha && nj == o.nj && ni == o.ni,
                  "WinoWeights maxAbsDiff shape mismatch");
    float m = 0.0f;
    for (size_t k = 0; k < data.size(); ++k)
        m = std::max(m, std::abs(data[k] - o.data[k]));
    return m;
}

WinoTiles
tileMean(const std::vector<const WinoTiles *> &inputs)
{
    winomc_assert(!inputs.empty(), "mean of nothing");
    const WinoTiles &first = *inputs.front();
    WinoTiles out(first.alphaEdge(), first.channels(), first.batch(),
                  first.tiles());
    const float scale = 1.0f / float(inputs.size());
    for (const WinoTiles *in : inputs) {
        winomc_assert(in->alphaEdge() == first.alphaEdge() &&
                      in->channels() == first.channels() &&
                      in->batch() == first.batch() &&
                      in->tiles() == first.tiles(),
                      "tileMean shape mismatch");
        for (int uv = 0; uv < first.uvCount(); ++uv)
            for (int c = 0; c < first.channels(); ++c)
                for (int b = 0; b < first.batch(); ++b)
                    for (int t = 0; t < first.tiles(); ++t)
                        out.at(uv, c, b, t) +=
                            in->at(uv, c, b, t) * scale;
    }
    return out;
}

} // namespace winomc
