/**
 * @file
 * Shared pieces of the end-to-end benchmark: run options, the result
 * record every workload fills, timing and statistics helpers, and the
 * VGG-style network both workloads use.
 *
 * Every number is measured from outside the library, by timing calls
 * into its public entry points (nn::Module, tune::, serve::Engine,
 * ws::Workspace). See METRICS.md for the metric catalogue.
 */

#ifndef WINOMC_PERFBENCH_BENCH_HH
#define WINOMC_PERFBENCH_BENCH_HH

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "nn/module.hh"
#include "tensor/tensor.hh"
#include "winograd/conv_spec.hh"

namespace perfbench {

using winomc::Rng;
using winomc::Tensor;
using Clock = std::chrono::steady_clock;

/** Milliseconds between two steady_clock stamps. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** What one run reports: the last stdout line is built from this. */
struct Report
{
    std::uint64_t attempted = 0; ///< operations run (steps or requests)
    std::uint64_t failed = 0;    ///< operations that failed a check
    std::vector<std::string> problems; ///< failed checks, for stderr
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;                 ///< name -> (value, unit), in order
    std::vector<std::pair<std::string, std::string>> info; ///< context

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }
    void note(const std::string &key, const std::string &value)
    {
        info.push_back({key, value});
    }
    /** Record a whole-run check. It counts as one attempted operation,
     *  and a miss as one failed operation. */
    void check(bool ok, const std::string &what);
};

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile `pct` of a sample (0 for an empty one), and
 * how many samples lie beyond it. Each workload pins its tail
 * percentile, leaving at least ten samples beyond it at the workload's
 * sample count, so the metric keeps one meaning when the program gets
 * faster or slower.
 */
struct Tail
{
    double value = 0;
    double percentile = 0;
    std::size_t beyond = 0;
};
Tail tail(std::vector<double> v, double pct);

/** Record a tail as latency_ms_tail, with its percentile and sample
 *  count noted. */
void reportTail(Report &rep, const std::vector<double> &v, double pct);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Median of several set-up repetitions, in seconds, recorded as
 *  setup_s with the individual repetitions noted. */
void reportSetup(Report &rep, const std::vector<double> &setupSec);

// ---------------------------------------------------------------- network

/** The six convolutions: (in, out) channels per stage of two. */
constexpr int kConvs = 6;
constexpr int kConvIn[kConvs] = {3, 32, 32, 64, 64, 128};
constexpr int kConvOut[kConvs] = {32, 32, 64, 64, 128, 128};
constexpr int kClasses = 10;

/** Where each child of the built Sequential sits in the attribution. */
enum class Part { Conv, Bn, ActPool, Head };

struct Net
{
    /** Owned by the caller-visible pointer so serving can subclass. */
    std::unique_ptr<winomc::nn::Sequential> seq;
    std::vector<Part> parts;   ///< one per child
    std::vector<int> convAt;   ///< child index of conv i
};

/**
 * The VGG-style net: three stages of [conv3x3, BatchNorm2d, ReLU] x 2
 * with a 2x2 MaxPool between stages, then GlobalAvgPool + Dense(10).
 * Weights draw from `rng` in layer order.
 *
 * buildAutoNet uses ConvMode::Auto nn::ConvLayers (tuner-selected
 * algorithm) and builds into `seq`, so serving can pass a Sequential
 * subclass. buildMptNet makes every conv an mpt::MptConvLayer, F(4,3)
 * on ng groups x nc clusters.
 */
Net buildAutoNet(std::unique_ptr<winomc::nn::Sequential> seq, Rng &rng);
Net buildMptNet(Rng &rng, int ng, int nc);

/** Spatial weights of the six convs exactly as a build from a fresh
 *  Rng(netSeed) draws them: both conv kinds draw Kaiming weights in
 *  layer order before anything else, and MPT layers then transform
 *  them into the Winograd domain. */
std::vector<Tensor> initialConvWeights(std::uint64_t netSeed);

/** The Auto layer's descriptor for conv i at batch b, edge hw. */
winomc::ConvSpec convSpec(int i, int b, int hw);

/** Direct-equivalent forward FLOPs of conv i at batch b, edge hw. */
double convFlops(int i, int b, int hw);

/**
 * Error of a conv output against an fp64 direct convolution. meanRel
 * normalizes by the summed magnitudes of the products each output adds
 * up (sum |x||w|), the usual scale of dot-product rounding error, so
 * cancellation inside a sum does not read as error; the result-
 * normalized means and maxima are kept for the record.
 */
struct ConvError
{
    double meanRel = INFINITY;       ///< sum|y - ref| / sum(|x| * |w|)
    double meanRelResult = INFINITY; ///< sum|y - ref| / sum|ref|
    double maxRel = INFINITY;        ///< max|y - ref| / max|ref|
};

/** Compare `y` with the fp64 direct 3x3 "same" convolution of x by w. */
ConvError convErrorVsDirect(const Tensor &y, const Tensor &x,
                            const Tensor &w);

/** Random images [n, 3, hw, hw] in [-1, 1). */
Tensor randomImages(Rng &rng, int n, int hw);

// -------------------------------------------------------------- workloads

void runTrainDense(const Options &opt, Report &rep);
void runServeSteady(const Options &opt, Report &rep);

} // namespace perfbench

#endif // WINOMC_PERFBENCH_BENCH_HH
