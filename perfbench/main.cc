/**
 * @file
 * perfbench: the end-to-end benchmark binary.
 *
 *   perfbench --workload <train_dense|serve_steady>
 *             --seed <n> --seconds <s> --trace <0|1> [--source <id>]
 *
 * Pins the execution knobs, prints a fingerprint line and an info line,
 * and ends stdout with one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * ones. Exits 1 when any output check misses, 2 on bad arguments or an
 * unpinned knob. Normally launched through perfbench/run.py, which
 * builds this binary and clears the inherited WINOMC_* environment.
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench.hh"
#include "common/parallel.hh"
#include "winograd/lowprec.hh"
#include "winograd/microkernel.hh"
#include "winograd/plan.hh"
#include "winograd/tuner.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

extern char **environ;

namespace {

using namespace perfbench;

/** The knob values every workload runs under. */
const std::map<std::string, std::string> kPinnedKnobs = {
    {"WINOMC_TUNE", "analytic"},
    {"WINOMC_FUSED", "auto"},
    {"WINOMC_ISA", "auto"},
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned maxExt = __get_cpuid_max(0x80000000u, nullptr);
    if (maxExt >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

int
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set);
    return 1;
}

/** Every WINOMC_* variable must be a pinned knob at its pinned value
 *  (or WINOMC_THREADS, which main() then overrides). */
bool
knobsPinned(std::string &why)
{
    for (char **e = environ; *e; ++e) {
        const std::string kv(*e);
        if (kv.rfind("WINOMC_", 0) != 0)
            continue;
        const auto eq = kv.find('=');
        const std::string k = kv.substr(0, eq);
        const std::string v = eq == std::string::npos ? "" : kv.substr(eq + 1);
        if (k == "WINOMC_THREADS")
            continue;
        auto it = kPinnedKnobs.find(k);
        if (it == kPinnedKnobs.end() || it->second != v) {
            why = k + "=" + v;
            return false;
        }
    }
    return true;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--source <id>]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string source = "unknown";
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
            if (!*v || *end)
                usage("--seed takes a whole number");
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            if (!*v || *end || !(opt.seconds > 0 && opt.seconds <= 600))
                usage("--seconds takes a number in (0, 600]");
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                usage("--trace takes 0 or 1");
            opt.trace = v[0] == '1';
            haveTrace = true;
        } else if (a == "--source") {
            source = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    using RunFn = void (*)(const Options &, Report &);
    struct Workload
    {
        RunFn run;
        int extraThreads; ///< threads the workload adds beside the pool
    };
    // Training runs on the pool alone (its loop is the pool's calling
    // thread); serving adds the one generator thread, and the batcher is
    // the pool's calling thread.
    const std::map<std::string, Workload> workloads = {
        {"train_dense", {runTrainDense, 0}},
        {"serve_steady", {runServeSteady, 1}},
    };
    auto wl = workloads.find(opt.workload);
    if (wl == workloads.end())
        usage("unknown or missing --workload");
    if (!haveTrace)
        usage("missing --trace");

    std::string why;
    if (!knobsPinned(why))
        usage(("unpinned knob in the environment: " + why).c_str());
    namespace tune = winomc::tune;
    if (tune::requestedTuneMode() != tune::TuneMode::Analytic ||
        winomc::requestedFusedMode() != winomc::FusedMode::Auto ||
        winomc::requestedPrec() != winomc::Prec::F32 ||
        winomc::requestedSparse())
        usage("execution policy is not analytic/auto/fp32/dense");

    // Pool threads (the calling thread included) plus the workload's own
    // threads fit in nproc.
    const int nproc = onlineCpus();
    const int pool = std::max(1, nproc - wl->second.extraThreads);
    winomc::ThreadPool::global().setThreadCount(pool);
    if (winomc::ThreadPool::global().threadCount() != pool)
        usage("could not pin the thread pool size");

    const char *isa = winomc::mk::isaName(winomc::mk::activeIsa());
    std::printf("perfbench-fingerprint {\"cpu\": \"%s\", \"isa\": \"%s\", "
                "\"nproc\": %d, \"pool_threads\": %d, \"knobs\": "
                "{\"WINOMC_TUNE\": \"analytic\", \"WINOMC_FUSED\": "
                "\"auto\", \"WINOMC_ISA\": \"auto\", \"WINOMC_PREC\": "
                "\"fp32\", \"WINOMC_SPARSE\": \"off\"}, \"source\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
                "\"trace\": %d}\n",
                jsonEscape(cpuModel()).c_str(), isa, nproc, pool,
                jsonEscape(source).c_str(), opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                jsonNumber(opt.seconds).c_str(), opt.trace ? 1 : 0);
    std::fflush(stdout);

    Report rep;
    wl->second.run(opt, rep);

    const bool correct = rep.problems.empty() && rep.failed == 0 &&
                         rep.attempted > 0;
    for (const auto &p : rep.problems)
        std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
    if (rep.attempted == 0)
        std::fprintf(stderr, "perfbench: no operation was attempted\n");

    rep.note("fail_frac",
             jsonNumber(rep.attempted ? double(rep.failed) / rep.attempted
                                      : 1.0));
    std::string info = "{";
    for (const auto &[k, v] : rep.info)
        info += (info.size() > 1 ? ", \"" : "\"") + k + "\": \"" +
                jsonEscape(v) + "\"";
    std::printf("perfbench-info %s}\n", info.c_str());

    std::string metrics;
    for (const auto &[name, vu] : rep.metrics)
        metrics += (metrics.empty() ? "\"" : ", \"") + name +
                   "\": {\"value\": " + jsonNumber(vu.first) +
                   ", \"unit\": \"" + vu.second + "\"}";
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
