#include "winograd/lowprec.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/env.hh"
#include "winograd/microkernel.hh"

namespace winomc {

namespace {

std::atomic<int> gPrec{-1};   ///< -1 = unresolved (parse env once)
std::atomic<int> gSparse{-1}; ///< -1 = unresolved (parse env once)

} // namespace

const char *
precName(Prec p)
{
    switch (p) {
      case Prec::F32:
        return "fp32";
      case Prec::F16:
        return "fp16";
      case Prec::Bf16:
        return "bf16";
    }
    return "fp32";
}

int
precBytes(Prec p)
{
    return p == Prec::F32 ? 4 : 2;
}

Prec
parsePrec(const char *str)
{
    return env::parseChoice("WINOMC_PREC", str,
                            {{"fp32", int(Prec::F32)},
                             {"f32", int(Prec::F32)},
                             {"fp16", int(Prec::F16)},
                             {"f16", int(Prec::F16)},
                             {"bf16", int(Prec::Bf16)},
                             {"bfloat16", int(Prec::Bf16)}},
                            Prec::F32);
}

Prec
requestedPrec()
{
    int p = gPrec.load(std::memory_order_acquire);
    if (p < 0) {
        // Benign race: concurrent first calls parse the same env var.
        p = int(parsePrec(std::getenv("WINOMC_PREC")));
        gPrec.store(p, std::memory_order_release);
    }
    return Prec(p);
}

void
setPrec(Prec p)
{
    gPrec.store(int(p), std::memory_order_release);
}

bool
parseSparse(const char *str)
{
    return env::parseChoice("WINOMC_SPARSE", str,
                            {{"on", 1},
                             {"1", 1},
                             {"true", 1},
                             {"off", 0},
                             {"0", 0},
                             {"false", 0}},
                            0) != 0;
}

bool
requestedSparse()
{
    int v = gSparse.load(std::memory_order_acquire);
    if (v < 0) {
        // Benign race: concurrent first calls parse the same env var.
        v = parseSparse(std::getenv("WINOMC_SPARSE")) ? 1 : 0;
        gSparse.store(v, std::memory_order_release);
    }
    return v != 0;
}

void
setSparseMode(bool on)
{
    gSparse.store(on ? 1 : 0, std::memory_order_release);
}

ExecPolicy
currentExecPolicy()
{
    return ExecPolicy{requestedPrec(), requestedSparse()};
}

std::string
execPolicySuffix(const ExecPolicy &pol)
{
    std::string s;
    if (pol.prec == Prec::F16)
        s += "_fp16";
    else if (pol.prec == Prec::Bf16)
        s += "_bf16";
    if (pol.sparse)
        s += "_sp";
    return s;
}

void
HalfTiles::reshape(int a, int channels, int batch, int tiles)
{
    const bool same =
        a == alpha && channels == nch && batch == nb && tiles == nt;
    alpha = a;
    nch = channels;
    nb = batch;
    nt = tiles;
    const std::size_t need = std::size_t(a) * a * channels * batch * tiles;
    if (same && data.size() == need)
        return;
    data.assign(need, 0);
}

void
ActMask::reshape(int uvCount, int channels, int batch, int tiles)
{
    nUv = uvCount;
    nch = channels;
    nb = batch;
    nt = tiles;
    nPanels = (tiles + mk::kTilePanel - 1) / mk::kTilePanel;
    const std::size_t bitsPerPlane = std::size_t(nPanels) * nUv;
    wpp = (bitsPerPlane + 63) / 64;
    words.assign(wpp * std::size_t(nch) * nb, 0);
}

void
ActMask::clear()
{
    std::fill(words.begin(), words.end(), 0);
}

bool
ActMask::rowRangeZero(int uv, int c, int k0, int kb) const
{
    // The flat row index k maps to (image b = k / nt, tile t = k % nt).
    // This sits on the skip-decision path of every sparse GEMM block,
    // so divide once to locate the starting image, then walk the
    // overlapped panels with plain arithmetic (t / kTilePanel is a
    // shift — the panel width is a constexpr power of two).
    int b = k0 / nt;
    int t = k0 - b * nt;
    const std::uint64_t *pl = plane(c, b);
    for (int remaining = kb; remaining > 0;) {
        const int p = t / mk::kTilePanel;
        const std::size_t bit = std::size_t(p) * nUv + uv;
        if (!((pl[bit >> 6] >> (bit & 63)) & 1u))
            return false;
        const int panelEnd = std::min((p + 1) * mk::kTilePanel, nt);
        remaining -= panelEnd - t;
        t = panelEnd;
        if (t >= nt) { // next image's plane
            t = 0;
            ++b;
            if (remaining > 0)
                pl = plane(c, b);
        }
    }
    return true;
}

} // namespace winomc
