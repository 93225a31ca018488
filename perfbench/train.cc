/**
 * @file
 * Training workload (train_dense): a closed loop of train steps
 * (forward, loss, backward, SGD step) at batch 8 on 3x32x32 inputs, with
 * ConvMode::Auto convolutions (tuner-selected, fp32).
 *
 * The untraced run times whole steps. The traced run alternates plain
 * and traced passes over the data; a traced step walks
 * Sequential::child(i) and times each child's forward, backward and
 * step from outside, which yields the per-layer metrics and the tracing
 * overhead. The traced run then trains the MPT variant of the net
 * (every conv an mpt::MptConvLayer, F(4,3) on 4 groups x 2 clusters:
 * staged partial kernels, never fused) the same way, for its mpt.*
 * metrics. Its step time swings too much on a shared machine to gate a
 * change, so it is not an end-to-end workload.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "bench.hh"
#include "common/metrics.hh"
#include "mpt/mpt_conv_layer.hh"
#include "nn/conv_layer.hh"
#include "nn/loss.hh"
#include "tensor/workspace.hh"
#include "winograd/tuner.hh"

namespace perfbench {

namespace nn = winomc::nn;
namespace tune = winomc::tune;
namespace ws = winomc::ws;

namespace {

constexpr int kBatch = 8;
constexpr int kEdge = 32;
constexpr int kDataBatches = 8;  ///< the training set: 64 images
constexpr int kSetupReps = 9;    ///< set-up repetitions (median)
constexpr int kWarmupSteps = 2;  ///< per set-up: plan build + pools
constexpr float kLr = 0.02f;
constexpr double kMptShare = 0.3; ///< MPT sub-run, share of --seconds

/** Learnable synthetic data: each class is a random 3x32x32 template,
 *  each image its class template plus uniform noise. */
struct Data
{
    std::vector<Tensor> x;              ///< kDataBatches batches
    std::vector<std::vector<int>> y;    ///< labels per batch
};

Data
makeData(std::uint64_t seed)
{
    Rng rng(seed);
    const Tensor templates = randomImages(rng, kClasses, kEdge);
    const std::size_t img = std::size_t(3) * kEdge * kEdge;
    Data d;
    for (int b = 0; b < kDataBatches; ++b) {
        Tensor x = randomImages(rng, kBatch, kEdge);
        std::vector<int> y;
        for (int i = 0; i < kBatch; ++i) {
            const int c = int(rng.uniformInt(0, kClasses - 1));
            y.push_back(c);
            float *dst = x.data() + std::size_t(i) * img;
            const float *t = templates.data() + std::size_t(c) * img;
            for (std::size_t k = 0; k < img; ++k)
                dst[k] = t[k] + 0.5f * dst[k];
        }
        d.x.push_back(std::move(x));
        d.y.push_back(std::move(y));
    }
    return d;
}

/** Per-step attribution of one traced step, milliseconds. */
struct StepTrace
{
    double convFwd[kConvs] = {};
    double convBwd[kConvs] = {};
    double convStep = 0, bn = 0, actPool = 0, head = 0, loss = 0;
    double wall = 0;

    double covered() const
    {
        double s = convStep + bn + actPool + head + loss;
        for (int i = 0; i < kConvs; ++i)
            s += convFwd[i] + convBwd[i];
        return s;
    }
};

/** One plain train step; returns its loss. */
double
trainStep(Net &net, const Tensor &x, const std::vector<int> &y)
{
    const Tensor logits = net.seq->forward(x, true);
    const nn::LossResult L = nn::softmaxCrossEntropy(logits, y);
    net.seq->backward(L.dlogits);
    net.seq->step(kLr);
    return L.loss;
}

/** One train step timed child by child from outside the Sequential. */
double
tracedStep(Net &net, const Tensor &x, const std::vector<int> &y,
           StepTrace &t)
{
    std::vector<int> convOf(net.parts.size(), -1);
    for (int i = 0; i < kConvs; ++i)
        convOf[std::size_t(net.convAt[std::size_t(i)])] = i;
    auto charge = [&](std::size_t c, double ms, bool fwd, bool step) {
        switch (net.parts[c]) {
          case Part::Conv:
            if (step)
                t.convStep += ms;
            else
                (fwd ? t.convFwd : t.convBwd)[convOf[c]] += ms;
            break;
          case Part::Bn: t.bn += ms; break;
          case Part::ActPool: t.actPool += ms; break;
          case Part::Head: t.head += ms; break;
        }
    };
    const std::size_t n = net.seq->size();
    const auto t0 = Clock::now();
    Tensor cur = x;
    for (std::size_t c = 0; c < n; ++c) {
        const auto a = Clock::now();
        cur = net.seq->child(c).forward(cur, true);
        charge(c, msBetween(a, Clock::now()), true, false);
    }
    auto a = Clock::now();
    const nn::LossResult L = nn::softmaxCrossEntropy(cur, y);
    t.loss = msBetween(a, Clock::now());
    cur = L.dlogits;
    for (std::size_t c = n; c-- > 0;) {
        a = Clock::now();
        cur = net.seq->child(c).backward(cur);
        charge(c, msBetween(a, Clock::now()), false, false);
    }
    for (std::size_t c = 0; c < n; ++c) {
        a = Clock::now();
        net.seq->child(c).step(kLr);
        charge(c, msBetween(a, Clock::now()), false, true);
    }
    t.wall = msBetween(t0, Clock::now());
    return L.loss;
}

/** Sum of the six MPT layers' cumulative transfer counters. */
struct MptCounts
{
    std::uint64_t tiles = 0, weights = 0;
};

MptCounts
mptCounts(Net &net)
{
    MptCounts c;
    for (int i = 0; i < kConvs; ++i) {
        auto &l = dynamic_cast<winomc::mpt::MptConvLayer &>(
            net.seq->child(std::size_t(net.convAt[std::size_t(i)])));
        c.tiles += l.tileElemsTransferred();
        c.weights += l.weightElemsReduced();
    }
    return c;
}

/** Sum of every wino.*.bytes_moved counter recorded so far. */
double
winoBytesMoved()
{
    double sum = 0;
    const std::string suffix = ".bytes_moved";
    for (const auto &s : winomc::metrics::snapshot()) {
        if (s.name.rfind("wino.", 0) == 0 && s.name.size() > suffix.size() &&
            s.name.compare(s.name.size() - suffix.size(), suffix.size(),
                           suffix) == 0)
            sum += s.value;
    }
    return sum;
}

/**
 * Check every conv output of one train-mode forward of `x` on a fresh
 * net against an fp64 direct convolution with the same initial weights.
 * The mean error relative to the summed product magnitudes (ConvError)
 * must stay within the survey's fp32 error for the tile size actually
 * used (tune::winogradMaxRelError; direct execution gets F(2,3)'s, the
 * tightest), and the worst element, relative to the largest output,
 * within the tuner's fp32 safety budget.
 */
void
checkConvsAgainstDirect(Net &net, const std::vector<Tensor> &w0,
                        const Tensor &x, bool mpt, Report &rep)
{
    constexpr double kSafetyBudget = 1e-4; // tune::numericallySafe's bound
    Tensor cur = x;
    int conv = 0;
    for (std::size_t c = 0; c < net.seq->size(); ++c) {
        Tensor in = cur;
        cur = net.seq->child(c).forward(cur, true);
        if (net.parts[c] != Part::Conv)
            continue;
        const int i = conv++;
        int m = 4; // MPT layers run F(4,3)
        if (!mpt) {
            const auto &choice =
                dynamic_cast<nn::ConvLayer &>(net.seq->child(c))
                    .autoChoice();
            m = choice.kind == tune::AlgoKind::Direct ? 0 : choice.m;
        }
        const double bound = tune::winogradMaxRelError(m ? m : 2, 3);
        const ConvError e = convErrorVsDirect(cur, in, w0[std::size_t(i)]);
        const std::string name = "conv" + std::to_string(i);
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "m=%d mean %.3g (bound %.3g), max %.3g (bound %.3g), "
                      "mean of result %.3g",
                      m, e.meanRel, bound, e.maxRel, kSafetyBudget,
                      e.meanRelResult);
        rep.note(name + ".error_vs_fp64_direct", buf);
        rep.check(e.meanRel <= bound && e.maxRel <= kSafetyBudget,
                  name + " output differs from direct convolution: " + buf);
    }
}

void
runTrain(const Options &opt, Report &rep, bool mpt)
{
    const Data data = makeData(opt.seed);
    const std::uint64_t netSeed = opt.seed * 0x9e3779b97f4a7c15ULL + 1;
    auto build = [&] {
        Rng rng(netSeed);
        return mpt ? buildMptNet(rng, 4, 2)
                   : buildAutoNet(std::make_unique<nn::Sequential>(), rng);
    };

    // ---- set-up, repeated: build, tune, plan build + warmup steps.
    Net net;
    std::vector<double> setupSec, tuneMs;
    tune::AlgoChoice choice[kConvs];
    for (int r = 0; r < kSetupReps; ++r) {
        tune::resetTunerForTest(); // each repetition tunes afresh
        const auto t0 = Clock::now();
        net = build();
        double tms = 0;
        if (!mpt) {
            for (int i = 0; i < kConvs; ++i) {
                const auto a = Clock::now();
                choice[i] = tune::selectAlgorithm(convSpec(i, kBatch, kEdge));
                tms += msBetween(a, Clock::now());
            }
        }
        for (int s = 0; s < kWarmupSteps; ++s)
            trainStep(net, data.x[0], data.y[0]);
        setupSec.push_back(msBetween(t0, Clock::now()) / 1e3);
        tuneMs.push_back(tms);
    }

    // ---- output check on a fresh net: conv outputs vs direct.
    {
        Net fresh = build();
        checkConvsAgainstDirect(fresh, initialConvWeights(netSeed),
                                data.x[0], mpt, rep);
    }
    int directLayers = 0;
    if (!mpt) {
        for (int i = 0; i < kConvs; ++i) {
            const auto &c = dynamic_cast<nn::ConvLayer &>(
                net.seq->child(std::size_t(net.convAt[std::size_t(i)])))
                .autoChoice();
            directLayers += c.kind == tune::AlgoKind::Direct;
            rep.note("conv" + std::to_string(i) + ".algo",
                     std::string(tune::algoKindName(c.kind)) +
                         (c.m ? " m=" + std::to_string(c.m) : ""));
        }
        rep.check(directLayers < kConvs,
                  "train_dense runs no Winograd layer");
    }

    // ---- measured closed loop.
    std::vector<double> stepMs, losses, plainMs;
    std::vector<StepTrace> traces;
    MptCounts prev = mpt ? mptCounts(net) : MptCounts{};
    MptCounts perStep{};
    ws::Workspace::global().resetStats();
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration<double>(opt.seconds);
    std::size_t steps = 0;
    do {
        const std::size_t b = steps % kDataBatches;
        // Alternate whole passes over the data, so traced and plain
        // steps see the same batches.
        const bool traced = opt.trace && steps / kDataBatches % 2 == 1;
        double loss = 0;
        const auto a = Clock::now();
        if (traced) {
            StepTrace t;
            loss = tracedStep(net, data.x[b], data.y[b], t);
            traces.push_back(t);
        } else {
            loss = trainStep(net, data.x[b], data.y[b]);
            const double ms = msBetween(a, Clock::now());
            (opt.trace ? plainMs : stepMs).push_back(ms);
        }
        ++steps;
        ++rep.attempted;
        bool ok = std::isfinite(loss);
        losses.push_back(loss);
        if (mpt) {
            const MptCounts now = mptCounts(net);
            const MptCounts d{now.tiles - prev.tiles,
                              now.weights - prev.weights};
            if (steps == 1)
                perStep = d;
            ok = ok && d.tiles == perStep.tiles &&
                 d.weights == perStep.weights && d.tiles > 0;
            prev = now;
        }
        if (!ok)
            ++rep.failed;
        // A traced run needs one plain and one traced pass at least.
    } while (Clock::now() < deadline ||
             (opt.trace && steps < std::size_t(2 * kDataBatches)));
    const double elapsedS = msBetween(start, Clock::now()) / 1e3;
    const ws::Stats wst = ws::Workspace::global().stats();
    double bytesPerStep = 0;
    if (opt.trace && !mpt) {
        // Computed traffic is a function of the shapes alone: count it
        // over one extra step with metrics recording on.
        winomc::metrics::reset();
        winomc::metrics::setEnabled(true);
        trainStep(net, data.x[0], data.y[0]);
        winomc::metrics::setEnabled(false);
        bytesPerStep = winoBytesMoved();
    }

    // ---- whole-run checks.
    const std::size_t pass = std::min<std::size_t>(kDataBatches,
                                                   losses.size() / 2);
    double first = 0, last = 0;
    for (std::size_t i = 0; i < pass; ++i) {
        first += losses[i];
        last += losses[losses.size() - 1 - i];
    }
    rep.note("loss_first_pass", std::to_string(first / double(pass)));
    rep.note("loss_last_pass", std::to_string(last / double(pass)));
    rep.check(pass > 0 && last < first,
              "training loss did not fall: first pass " +
                  std::to_string(first) + ", last pass " +
                  std::to_string(last));
    rep.note("steps", std::to_string(steps));
    if (mpt)
        rep.note("mpt_counts_per_step",
                 std::to_string(perStep.tiles) + " tiles, " +
                     std::to_string(perStep.weights) + " weights");

    if (!opt.trace) {
        reportSetup(rep, setupSec);
        rep.metric("latency_ms_p50", median(stepMs), "ms");
        // ~420 steps in a 40 s run: ~40 beyond p90.
        reportTail(rep, stepMs, 90);
        rep.metric("throughput_per_s", double(steps) * kBatch / elapsedS,
                   "1/s");
        rep.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    // ---- per-layer metrics from the traced steps.
    auto med = [&](auto field) {
        std::vector<double> v;
        for (const StepTrace &t : traces)
            v.push_back(field(t));
        return median(v);
    };
    double convFwdSum = 0, flops = 0;
    for (int i = 0; i < kConvs; ++i) {
        const std::string p = "nn.conv" + std::to_string(i);
        const double fwd = med([i](const StepTrace &t) { return t.convFwd[i]; });
        rep.metric(p + ".fwd_ms", fwd, "ms");
        rep.metric(p + ".bwd_ms",
                   med([i](const StepTrace &t) { return t.convBwd[i]; }),
                   "ms");
        convFwdSum += fwd;
        flops += convFlops(i, kBatch, kEdge);
    }
    rep.metric("nn.conv_step_ms", med([](const StepTrace &t) { return t.convStep; }), "ms");
    rep.metric("nn.bn_ms", med([](const StepTrace &t) { return t.bn; }), "ms");
    rep.metric("nn.act_pool_ms", med([](const StepTrace &t) { return t.actPool; }), "ms");
    rep.metric("nn.head_ms", med([](const StepTrace &t) { return t.head; }), "ms");
    rep.metric("nn.other_step_ms", med([](const StepTrace &t) { return t.loss; }), "ms");
    rep.metric("nn.step_ms_p50", median(plainMs), "ms");
    const double coverage =
        med([](const StepTrace &t) { return t.covered() / t.wall; });
    rep.metric("nn.coverage", coverage, "ratio");
    rep.check(coverage >= 0.95 && coverage <= 1.0 + 1e-9,
              "nn.coverage " + std::to_string(coverage) +
                  " outside [0.95, 1]: per-layer times do not add up to "
                  "the step");
    if (!mpt) {
        for (int i = 0; i < kConvs; ++i) {
            const double pred =
                tune::predictMs(convSpec(i, kBatch, kEdge), choice[i]);
            const double fwd =
                med([i](const StepTrace &t) { return t.convFwd[i]; });
            rep.metric("winograd.conv" + std::to_string(i) + ".pred_ratio",
                       pred > 0 ? fwd / pred : 0, "ratio");
        }
        rep.metric("winograd.direct_layers", directLayers, "count");
        // MPT layers use no tuner and publish no traffic counters.
        rep.metric("winograd.bytes_per_step", bytesPerStep, "B");
        rep.metric("winograd.tune_ms", median(tuneMs), "ms");
    }
    rep.metric("winograd.gflops", flops / (convFwdSum * 1e6), "GFLOP/s");
    if (mpt) {
        rep.metric("mpt.tile_elems_per_step", double(perStep.tiles), "count");
        rep.metric("mpt.weight_elems_per_step", double(perStep.weights),
                   "count");
    }
    rep.metric("tensor.fresh_allocs_per_op",
               double(wst.freshAllocs) / double(steps), "count");
    rep.metric("tensor.fresh_bytes_per_op",
               double(wst.freshBytes) / double(steps), "B");
    rep.metric("tensor.high_water_mb", double(wst.highWater) / 1048576.0,
               "MB");
    const double plain = median(plainMs);
    rep.metric("trace.overhead_pct",
               plain > 0 ? 100.0 * (med([](const StepTrace &t) {
                                        return t.wall;
                                    }) / plain - 1.0)
                         : 0,
               "%");
}

/**
 * The MPT network inside train_dense's traced run: the same net and
 * data with every conv an MptConvLayer, run traced for kMptShare of the
 * seconds. Its checks count in `rep`; its step time, coverage and
 * per-conv times are reported under mpt.*.
 */
void
runMptLayer(const Options &opt, Report &rep)
{
    Options sub = opt;
    sub.seconds = opt.seconds * kMptShare;
    Report r;
    runTrain(sub, r, true);
    rep.attempted += r.attempted;
    rep.failed += r.failed;
    for (const std::string &p : r.problems)
        rep.problems.push_back("mpt: " + p);
    for (const auto &[k, v] : r.info)
        rep.note("mpt." + k, v);
    for (const auto &[name, vu] : r.metrics) {
        std::string n = name;
        if (n == "nn.step_ms_p50" || n == "nn.coverage" ||
            (n.rfind("nn.conv", 0) == 0 && n != "nn.conv_step_ms"))
            n = "mpt." + n.substr(3);
        if (n.rfind("mpt.", 0) == 0)
            rep.metric(n, vu.first, vu.second);
    }
}

} // namespace

void
runTrainDense(const Options &opt, Report &rep)
{
    runTrain(opt, rep, false);
    if (opt.trace)
        runMptLayer(opt, rep);
}

} // namespace perfbench
