#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hh"
#include "common/parallel.hh"
#include "mpt/mpt_conv_layer.hh"
#include "nn/basic_layers.hh"
#include "nn/batchnorm.hh"
#include "nn/conv_layer.hh"
#include "winograd/algo.hh"

namespace perfbench {

namespace nn = winomc::nn;

void
Report::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        problems.push_back(what);
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + long(mid), v.end());
    const double hi = v[mid];
    if (v.size() % 2)
        return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + long(mid));
    return 0.5 * (lo + hi);
}

Tail
tail(std::vector<double> v, double pct)
{
    Tail t;
    t.percentile = pct;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const auto rank = std::size_t(std::ceil(pct / 100.0 * double(n)));
    const std::size_t k = std::clamp<std::size_t>(rank, 1, n);
    t.value = v[k - 1];
    t.beyond = n - k;
    return t;
}

void
reportTail(Report &rep, const std::vector<double> &v, double pct)
{
    const Tail t = tail(v, pct);
    char buf[96];
    std::snprintf(buf, sizeof buf, "p%g of %zu samples, %zu beyond", pct,
                  v.size(), t.beyond);
    rep.note("latency_tail", buf);
    rep.metric("latency_ms_tail", t.value, "ms");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

void
reportSetup(Report &rep, const std::vector<double> &setupSec)
{
    std::string reps;
    for (double s : setupSec) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.4f", reps.empty() ? "" : ",",
                      s);
        reps += buf;
    }
    rep.note("setup_reps_s", reps);
    rep.metric("setup_s", median(setupSec), "s");
}

namespace {

/** Shared body of buildAutoNet and buildMptNet; `makeConv(i, rng)` makes
 *  conv i. */
template <typename MakeConv>
Net
buildNet(std::unique_ptr<nn::Sequential> seq, Rng &rng, MakeConv makeConv)
{
    Net net;
    net.seq = std::move(seq);
    auto add = [&](nn::ModulePtr m, Part p) {
        net.seq->add(std::move(m));
        net.parts.push_back(p);
    };
    for (int i = 0; i < kConvs; ++i) {
        if (i == 2 || i == 4)
            add(std::make_unique<nn::MaxPool2>(), Part::ActPool);
        net.convAt.push_back(int(net.parts.size()));
        add(makeConv(i, rng), Part::Conv);
        add(std::make_unique<nn::BatchNorm2d>(kConvOut[i]), Part::Bn);
        add(std::make_unique<nn::ReLU>(), Part::ActPool);
    }
    add(std::make_unique<nn::GlobalAvgPool>(), Part::Head);
    add(std::make_unique<nn::Dense>(kConvOut[kConvs - 1], kClasses, rng),
        Part::Head);
    return net;
}

} // namespace

Net
buildAutoNet(std::unique_ptr<nn::Sequential> seq, Rng &rng)
{
    return buildNet(std::move(seq), rng, [](int i, Rng &r) {
        return std::make_unique<nn::ConvLayer>(kConvIn[i], kConvOut[i], 3,
                                               3, 1, 1, r);
    });
}

Net
buildMptNet(Rng &rng, int ng, int nc)
{
    return buildNet(std::make_unique<nn::Sequential>(), rng,
                    [ng, nc](int i, Rng &r) {
                        return std::make_unique<winomc::mpt::MptConvLayer>(
                            kConvIn[i], kConvOut[i], 3, ng, nc,
                            winomc::algoF4x4_3x3(), r);
                    });
}

std::vector<Tensor>
initialConvWeights(std::uint64_t netSeed)
{
    Rng rng(netSeed);
    std::vector<Tensor> ws;
    for (int i = 0; i < kConvs; ++i) {
        Tensor w(kConvOut[i], kConvIn[i], 3, 3);
        w.fillKaiming(rng);
        ws.push_back(std::move(w));
    }
    return ws;
}

namespace {

/** Feature-map edge seen by conv i for an input of edge hw. */
int
convEdge(int i, int hw)
{
    return hw >> (i / 2); // a 2x2 max-pool before convs 2 and 4
}

} // namespace

winomc::ConvSpec
convSpec(int i, int b, int hw)
{
    // Mirrors nn::ConvLayer's Auto descriptor (3x3, stride 1, "same").
    winomc::ConvSpec s{};
    s.name = "auto";
    s.batch = b;
    s.inCh = kConvIn[i];
    s.outCh = kConvOut[i];
    s.h = s.w = convEdge(i, hw);
    s.r = s.kh = s.kw = 3;
    s.strideH = s.strideW = 1;
    return s;
}

double
convFlops(int i, int b, int hw)
{
    const double e = convEdge(i, hw);
    return 2.0 * b * kConvIn[i] * kConvOut[i] * e * e * 9.0;
}

ConvError
convErrorVsDirect(const Tensor &y, const Tensor &x, const Tensor &w)
{
    ConvError e;
    const int N = x.n(), C = x.c(), H = x.h(), W = x.w(), K = w.n();
    if (y.n() != N || y.c() != K || y.h() != H || y.w() != W ||
        w.c() != C || w.h() != 3 || w.w() != 3)
        return e;
    // One (image, output channel) plane per task; reduced afterwards.
    std::vector<double> absDiff(std::size_t(N) * K), absRef(absDiff.size()),
        absProd(absDiff.size()), maxDiff(absDiff.size()),
        maxRef(absDiff.size());
    winomc::parallelFor(0, std::int64_t(N) * K, 1, [&](std::int64_t lo,
                                                       std::int64_t hi) {
        for (std::int64_t t = lo; t < hi; ++t) {
            const int n = int(t / K), k = int(t % K);
            double sd = 0, sr = 0, sp = 0, md = 0, mr = 0;
            for (int i = 0; i < H; ++i)
                for (int j = 0; j < W; ++j) {
                    double acc = 0, mag = 0;
                    for (int c = 0; c < C; ++c)
                        for (int u = 0; u < 3; ++u) {
                            const int ii = i + u - 1;
                            if (ii < 0 || ii >= H)
                                continue;
                            for (int v = 0; v < 3; ++v) {
                                const int jj = j + v - 1;
                                if (jj < 0 || jj >= W)
                                    continue;
                                const double p = double(x.at(n, c, ii, jj)) *
                                                 double(w.at(k, c, u, v));
                                acc += p;
                                mag += std::abs(p);
                            }
                        }
                    const double d = std::abs(double(y.at(n, k, i, j)) - acc);
                    sd += d;
                    sr += std::abs(acc);
                    sp += mag;
                    md = std::max(md, d);
                    mr = std::max(mr, std::abs(acc));
                }
            absDiff[std::size_t(t)] = sd;
            absRef[std::size_t(t)] = sr;
            absProd[std::size_t(t)] = sp;
            maxDiff[std::size_t(t)] = md;
            maxRef[std::size_t(t)] = mr;
        }
    });
    double sd = 0, sr = 0, sp = 0, md = 0, mr = 0;
    for (std::size_t t = 0; t < absDiff.size(); ++t) {
        sd += absDiff[t];
        sr += absRef[t];
        sp += absProd[t];
        md = std::max(md, maxDiff[t]);
        mr = std::max(mr, maxRef[t]);
    }
    if (sp > 0)
        e.meanRel = sd / sp;
    if (sr > 0)
        e.meanRelResult = sd / sr;
    if (mr > 0)
        e.maxRel = md / mr;
    return e;
}

Tensor
randomImages(Rng &rng, int n, int hw)
{
    Tensor x(n, 3, hw, hw);
    x.fillUniform(rng, -1.0f, 1.0f);
    return x;
}

} // namespace perfbench
