#include "winograd/algo.hh"

#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/logging.hh"
#include "winograd/toom_cook.hh"

namespace winomc {

std::string
WinogradAlgo::name() const
{
    return "F(" + std::to_string(m) + "x" + std::to_string(m) + "," +
           std::to_string(r) + "x" + std::to_string(r) + ")";
}

const WinogradAlgo &
makeWinograd(int m, int r)
{
    // Interned for the process lifetime (never destroyed, so static
    // layers may still hold their algorithm during exit).
    static std::mutex mu;
    static auto *registry =
        new std::map<std::pair<int, int>, std::unique_ptr<WinogradAlgo>>;
    std::lock_guard<std::mutex> lk(mu);
    std::unique_ptr<WinogradAlgo> &slot = (*registry)[{m, r}];
    if (!slot) {
        ToomCookMatrices tc = generateToomCook(m, r);
        auto a = std::make_unique<WinogradAlgo>();
        a->m = m;
        a->r = r;
        a->alpha = tc.alpha;
        a->BT = toMatrix(tc.BT);
        a->G = toMatrix(tc.G);
        a->AT = toMatrix(tc.AT);
        a->B = a->BT.transposed();
        a->GT = a->G.transposed();
        a->A = a->AT.transposed();
        slot = std::move(a);
    }
    return *slot;
}

const WinogradAlgo &
algoF2x2_3x3()
{
    return makeWinograd(2, 3);
}

const WinogradAlgo &
algoF4x4_3x3()
{
    return makeWinograd(4, 3);
}

const WinogradAlgo &
algoF2x2_5x5()
{
    return makeWinograd(2, 5);
}

const WinogradAlgo &
algoF6x6_3x3()
{
    return makeWinograd(6, 3);
}

const WinogradAlgo &
algoForTile(int m)
{
    winomc_assert(m == 2 || m == 4 || m == 6,
                  "no F(m,3) candidate for tile edge m=", m);
    return makeWinograd(m, 3);
}

} // namespace winomc
