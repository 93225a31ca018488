/**
 * @file
 * Serving workload (serve_steady): single 3x32x32 images through
 * serve::Engine over the Auto-mode network. Every request has one
 * shape, so the engine's plan cache always hits once warm.
 *
 * One generator thread submits every request and collects the futures.
 * Each request is timed from when it was due, not from when submit()
 * returned, to the moment the generator sees its future ready, so
 * queueing, the batch forward and the engine's demux all count. The
 * model is a Sequential subclass that stamps every forward (start, end,
 * rows), and the batcher keeps FIFO order, so requests map onto batches
 * in submission order: that gives each request's queue wait and the
 * batch size it was served in.
 *
 * The end-to-end metrics come from a closed loop: kClients requests are
 * kept outstanding, and each is due the moment the generator saw the
 * response before it. Two full batches are always queued or running, so
 * every batch is full and the load stays the same from run to run. The
 * traced run adds an open loop of Poisson arrivals, each request due at
 * its scheduled time, and times every child of the model in alternate
 * one-second blocks of it, which gives the per-layer metrics and the
 * tracing overhead; it then searches a fixed ladder of open-loop rates
 * for the latency-limited capacity.
 *
 * Every response is checked twice against references computed at
 * set-up. The counted check compares it bitwise with that image's eval
 * forward under the per-layer algorithms the tuner picks for the batch
 * size it was served in. The engine's documented contract, a batched
 * row equal to the image's unbatched forward, is checked too; how many
 * responses break it is printed on every run (see METRICS.md).
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "bench.hh"
#include "nn/conv_layer.hh"
#include "serve/engine.hh"
#include "tensor/workspace.hh"
#include "winograd/tuner.hh"

namespace perfbench {

namespace nn = winomc::nn;
namespace serve = winomc::serve;
namespace tune = winomc::tune;
namespace ws = winomc::ws;

namespace {

constexpr int kEdge = 32;      ///< requests are 3 x kEdge x kEdge images
constexpr int kImages = 32;    ///< distinct request images
constexpr int kMaxBatch = 8;
constexpr long long kMaxDelayUs = 1000;
constexpr int kSetupReps = 9;
/** Closed-loop requests kept outstanding: two full batches, so one
 *  waits while the other runs and every batch is full. */
constexpr int kClients = 2 * kMaxBatch;
constexpr double kClosedShare = 0.9;  ///< of --seconds, untraced run
/**
 * Open-loop rate of the traced run: 50/s, a fifth of the ~250
 * requests/s this net serves on a 4-core host (eval forward 3.9 ms at
 * batch 1, 29 ms at batch 8), so most requests are served alone and
 * some in small batches.
 */
constexpr double kOpenRps = 50;
constexpr double kOpenShare = 0.5;    ///< of --seconds, traced run
constexpr double kProbeShare = 0.1;   ///< of --seconds, per traced probe
constexpr int kMaxProbes = 4;
constexpr double kScanStart = 0.8;    ///< first rung, share of saturation
/** Tail percentile: p99 of ~9000 closed-loop requests in a 40 s run,
 *  ~90 beyond it. */
constexpr double kTailPct = 99;

/** The capacity ladder: kRungs arrival rates, 40/s x 1.04^k. */
constexpr int kRungs = 64;
double
rung(int k)
{
    return 40.0 * std::pow(1.04, k);
}
/** Latency limit on the ladder's p90. */
constexpr double kLatencyLimitMs = 50;
constexpr double kLadderPct = 90;

/** nn::Sequential that stamps each forward and, while `tracing`, times
 *  every child. A Sequential (not a wrapper Module), so the engine still
 *  finds the ConvLayers and points them at its PlanCache. */
class StampedNet : public nn::Sequential
{
  public:
    struct Batch
    {
        Clock::time_point start, end;
        int rows = 0;
        bool traced = false;
        double convMs[kConvs] = {};
    };

    Tensor
    forward(const Tensor &x, bool train) override
    {
        if (!recording.load())
            return Sequential::forward(x, train);
        Batch b;
        b.rows = x.n();
        b.traced = tracing.load();
        b.start = Clock::now();
        Tensor cur;
        if (b.traced) {
            cur = x;
            int conv = 0;
            for (std::size_t c = 0; c < size(); ++c) {
                const auto a = Clock::now();
                cur = child(c).forward(cur, train);
                if (parts[c] == Part::Conv)
                    b.convMs[conv++] = msBetween(a, Clock::now());
            }
        } else {
            cur = Sequential::forward(x, train);
        }
        b.end = Clock::now();
        std::lock_guard<std::mutex> lk(mu);
        batches.push_back(b);
        return cur;
    }

    std::vector<Batch>
    take()
    {
        std::lock_guard<std::mutex> lk(mu);
        return std::exchange(batches, {});
    }

    std::vector<Part> parts;
    std::atomic<bool> recording{false};
    std::atomic<bool> tracing{false};

  private:
    std::mutex mu;
    std::vector<Batch> batches; ///< guarded by mu
};

/** One served model: net and engine. Members are destroyed in reverse
 *  order, engine first; the engine's batcher thread holds the address,
 *  so a Server never moves. */
struct Server
{
    Server() = default;
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    Net net;
    StampedNet *model = nullptr;
    std::unique_ptr<serve::Engine> engine;
};

struct Request
{
    double dueS; ///< arrival offset from the phase start
    int image;
};

/** Poisson arrivals at `rps` for `seconds`, images drawn uniformly. */
std::vector<Request>
schedule(Rng &rng, double rps, double seconds)
{
    std::vector<Request> reqs;
    for (double t = 0;;) {
        t += -std::log(1.0 - rng.uniform()) / rps;
        if (t >= seconds)
            return reqs;
        reqs.push_back({t, int(rng.uniformInt(0, kImages - 1))});
    }
}

/**
 * Expected responses. The tuner picks each conv's algorithm per batch
 * size, so batch sizes are grouped by their six choices; within a group
 * every image's output is fixed, and a batched row must equal it
 * bitwise. The group holding batch size 1 is the unbatched forward.
 */
struct Refs
{
    std::array<int, kMaxBatch + 1> groupOf{}; ///< batch size -> group
    std::vector<std::vector<Tensor>> out;     ///< [group][image] -> output

    static bool
    same(const Tensor &a, const Tensor &b)
    {
        return a.sameShape(b) &&
               std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
    }
};

/** How a phase sends its requests. */
struct Load
{
    /** Open loop: each request at its due time. */
    std::vector<Request> schedule;
    bool trace = false; ///< open loop: trace odd seconds
    /** Closed loop (when clients > 0): keep `clients` requests
     *  outstanding for `seconds`, images drawn from `seed`. */
    int clients = 0;
    double seconds = 0;
    std::uint64_t seed = 0;
};

struct Served
{
    double latencyMs; ///< due time -> the generator sees the response
    double queueMs;   ///< due time -> start of its batch's forward
    bool traced;      ///< its batch ran traced
};

struct Phase
{
    std::vector<Served> served;
    std::vector<StampedNet::Batch> batches;
    double genLagMaxMs = 0;
    double wallS = 0;
    std::uint64_t failed = 0;        ///< wrong responses
    std::uint64_t unbatchedDiff = 0; ///< != the unbatched forward
};

/**
 * Run one phase. A single generator (this thread) submits the requests
 * and collects finished responses in order, stamping each when it sees
 * it ready; they are checked bitwise once the batches they rode in are
 * known.
 */
Phase
runPhase(Server &srv, const std::vector<Tensor> &images, const Refs &refs,
         const Load &load, Report &rep)
{
    Phase ph;
    struct Sent
    {
        int image;
        Clock::time_point due, done;
        // Which reference groups the response equals, bit g for group
        // g; responses are dropped at once so the workspace pool can
        // reuse them.
        std::uint32_t matches = 0;
    };
    std::vector<Sent> sent;
    std::deque<std::pair<std::size_t, std::future<Tensor>>> pending;
    auto collect = [&] {
        auto &[i, fut] = pending.front();
        sent[i].done = Clock::now();
        const Tensor y = fut.get();
        for (std::size_t g = 0; g < refs.out.size(); ++g)
            if (Refs::same(y, refs.out[g][std::size_t(sent[i].image)]))
                sent[i].matches |= 1u << g;
        pending.pop_front();
    };
    auto send = [&](int image, Clock::time_point due) {
        ph.genLagMaxMs = std::max(ph.genLagMaxMs, msBetween(due, Clock::now()));
        sent.push_back({image, due, {}});
        pending.emplace_back(sent.size() - 1,
                             srv.engine->submit(images[std::size_t(image)]));
    };
    auto after = [](Clock::time_point t, double s) {
        return t + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
    };

    srv.model->take();
    srv.model->tracing = false;
    srv.model->recording = true;
    const auto t0 = Clock::now() + std::chrono::milliseconds(2);
    if (load.clients == 0) {
        for (const Request &r : load.schedule) {
            const auto due = after(t0, r.dueS);
            while (!pending.empty() &&
                   pending.front().second.wait_until(due) ==
                       std::future_status::ready)
                collect();
            std::this_thread::sleep_until(due);
            if (load.trace)
                srv.model->tracing = int(r.dueS) % 2 == 1;
            send(r.image, due);
        }
    } else {
        Rng rng(load.seed);
        std::this_thread::sleep_until(t0);
        const auto end = after(t0, load.seconds);
        while (Clock::now() < end) {
            // A client sends its next request as soon as it sees the
            // previous response.
            while (int(pending.size()) < load.clients)
                send(int(rng.uniformInt(0, kImages - 1)), Clock::now());
            pending.front().second.wait();
            collect();
        }
    }
    while (!pending.empty()) {
        pending.front().second.wait();
        collect();
    }
    ph.wallS = msBetween(t0, Clock::now()) / 1e3;
    srv.model->recording = false;
    ph.batches = srv.model->take();

    // FIFO batching: requests fill the recorded batches in order.
    std::size_t rows = 0;
    for (const auto &bt : ph.batches)
        rows += std::size_t(bt.rows);
    if (rows != sent.size()) {
        rep.check(false, "requests do not map onto batches in FIFO order");
        return ph;
    }
    std::size_t b = 0;
    int used = 0;
    for (const Sent &r : sent) {
        while (used == ph.batches[b].rows) {
            ++b;
            used = 0;
        }
        ++used;
        const StampedNet::Batch &bt = ph.batches[b];
        ph.failed += !(r.matches >> refs.groupOf[std::size_t(bt.rows)] & 1u);
        ph.unbatchedDiff += !(r.matches >> refs.groupOf[1] & 1u);
        ph.served.push_back({msBetween(r.due, r.done),
                             msBetween(r.due, bt.start), bt.traced});
    }
    return ph;
}

std::vector<double>
latencies(const Phase &ph)
{
    std::vector<double> v;
    for (const Served &s : ph.served)
        v.push_back(s.latencyMs);
    return v;
}

/** Responses of every phase of a run, for the report. */
struct Totals
{
    std::uint64_t served = 0, unbatchedDiff = 0;
};

/** Count a phase's requests and wrong responses in the report. */
void
account(Report &rep, Totals &tot, const Phase &ph)
{
    rep.attempted += ph.served.size();
    rep.failed += ph.failed;
    tot.served += ph.served.size();
    tot.unbatchedDiff += ph.unbatchedDiff;
}

/** Requests completed per second of a phase. */
double
completedRps(const Phase &ph)
{
    return ph.wallS > 0 ? double(ph.served.size()) / ph.wallS : 0;
}

/**
 * Latency-limited capacity: the highest rate of the fixed ladder whose
 * tail meets the limit with no growing backlog (the last tenth of the
 * requests, by arrival, must also have a median within the limit), or 0
 * when no probed rung does. The scan starts at the highest rung at or below
 * kScanStart x the saturated rate `mu` and walks up until a rung misses,
 * or down until one passes. The result interpolates the tail's crossing
 * of the limit between the highest passing rung and the missing rung
 * above it.
 */
double
ladderCapacity(const Options &opt, Server &srv,
               const std::vector<Tensor> &images, const Refs &refs,
               double mu, Report &rep, Totals &tot)
{
    int at = 0;
    while (at + 1 < kRungs && rung(at + 1) <= kScanStart * mu)
        ++at;
    std::map<int, double> tailMs; // probed rung -> its tail
    std::string log;
    auto probe = [&](int k) {
        Rng rr(opt.seed * 1000003ULL + std::uint64_t(k) + 1);
        Load load;
        load.schedule = schedule(rr, rung(k), opt.seconds * kProbeShare);
        const Phase ph = runPhase(srv, images, refs, load, rep);
        account(rep, tot, ph);
        const std::vector<double> l = latencies(ph);
        const double t = tail(l, kLadderPct).value;
        const std::vector<double> late(l.end() - long(l.size() / 10), l.end());
        const bool pass = !l.empty() && ph.failed == 0 &&
                          t <= kLatencyLimitMs &&
                          median(late) <= kLatencyLimitMs;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s%.1f/s:%.2fms%s",
                      log.empty() ? "" : " ", rung(k), t,
                      pass ? "" : "(miss)");
        log += buf;
        tailMs[k] = t;
        return pass;
    };
    int pass = -1; // highest passing rung
    if (probe(at)) {
        pass = at;
        for (int n = 1; n < kMaxProbes && pass + 1 < kRungs && probe(pass + 1);
             ++n)
            ++pass;
    } else {
        for (int k = at - 1, n = 1; k >= 0 && n < kMaxProbes; --k, ++n)
            if (probe(k)) {
                pass = k;
                break;
            }
    }
    rep.note("ladder_probes", log);
    if (pass < 0)
        return 0; // no probed rung met the limit
    auto above = tailMs.find(pass + 1);
    if (above == tailMs.end())
        return rung(pass);
    const double tl = tailMs[pass], th = above->second;
    const double f =
        th > tl ? std::clamp((kLatencyLimitMs - tl) / (th - tl), 0.0, 1.0)
                : 0.0;
    return rung(pass) + f * (rung(pass + 1) - rung(pass));
}

} // namespace

void
runServeSteady(const Options &opt, Report &rep)
{
    const std::uint64_t netSeed = opt.seed * 0x9e3779b97f4a7c15ULL + 1;
    Rng dataRng(opt.seed);
    std::vector<Tensor> images;
    for (int i = 0; i < kImages; ++i)
        images.push_back(randomImages(dataRng, 1, kEdge));

    auto buildServer = [&] {
        auto srv = std::make_unique<Server>();
        Rng rng(netSeed);
        auto stamped = std::make_unique<StampedNet>();
        srv->model = stamped.get();
        srv->net = buildAutoNet(std::move(stamped), rng);
        srv->model->parts = srv->net.parts;
        serve::EngineConfig cfg;
        cfg.maxBatch = kMaxBatch;
        cfg.maxDelayUs = kMaxDelayUs;
        cfg.queueCapacity = 1 << 16; // never block the generator
        srv->engine = std::make_unique<serve::Engine>(*srv->net.seq, cfg);
        return srv;
    };

    // ---- set-up, repeated: build, tune, engine, warmup.
    std::unique_ptr<Server> held;
    std::vector<double> setupSec, tuneMs;
    std::uint64_t warmMisses = 0;
    for (int r = 0; r < kSetupReps; ++r) {
        held.reset();
        tune::resetTunerForTest();
        const auto t0 = Clock::now();
        auto next = buildServer();
        double tms = 0;
        for (int b = 1; b <= kMaxBatch; ++b)
            for (int i = 0; i < kConvs; ++i) {
                const auto a = Clock::now();
                tune::selectAlgorithm(convSpec(i, b, kEdge));
                tms += msBetween(a, Clock::now());
            }
        next->engine->warmup(3, kEdge, kEdge);
        setupSec.push_back(msBetween(t0, Clock::now()) / 1e3);
        tuneMs.push_back(tms);
        warmMisses = next->engine->planCache().misses();
        held = std::move(next);
    }
    Server &srv = *held;
    rep.check(warmMisses >= std::uint64_t(kConvs),
              "warmup leased fewer plans than convs from the engine's "
              "PlanCache (" + std::to_string(warmMisses) + " misses)");

    // Tuner choices and predictions per batch size, from the memo.
    std::array<std::vector<tune::AlgoChoice>, kMaxBatch + 1> choices;
    std::string algos;
    for (int b = 1; b <= kMaxBatch; ++b) {
        std::string row;
        for (int i = 0; i < kConvs; ++i) {
            choices[std::size_t(b)].push_back(
                tune::selectAlgorithm(convSpec(i, b, kEdge)));
            const tune::AlgoChoice &c = choices[std::size_t(b)].back();
            row += c.kind == tune::AlgoKind::Direct ? "d" : std::to_string(c.m);
        }
        algos += (algos.empty() ? "" : " ") + std::to_string(b) + ":" + row;
    }
    rep.note("algos_by_batch", algos);

    // ---- references: every image's eval forward in each choice group,
    // run at the group's smallest batch size (1 for the unbatched one).
    Refs refs;
    std::vector<int> groupBatch; // smallest batch size of each group
    for (int b = 1; b <= kMaxBatch; ++b) {
        int &g = refs.groupOf[std::size_t(b)];
        g = -1;
        for (std::size_t k = 0; k < groupBatch.size() && g < 0; ++k) {
            const auto &cb = choices[std::size_t(b)];
            const auto &ck = choices[std::size_t(groupBatch[k])];
            bool eq = true;
            for (int i = 0; i < kConvs; ++i)
                eq = eq && cb[std::size_t(i)].kind == ck[std::size_t(i)].kind &&
                     cb[std::size_t(i)].m == ck[std::size_t(i)].m;
            if (eq)
                g = int(k);
        }
        if (g < 0) {
            g = int(groupBatch.size());
            groupBatch.push_back(b);
        }
    }
    const std::size_t img = std::size_t(3) * kEdge * kEdge;
    for (int n : groupBatch) {
        std::vector<Tensor> row;
        for (int k0 = 0; k0 < kImages; k0 += n) {
            Tensor x(n, 3, kEdge, kEdge); // short chunks repeat image 0
            for (int j = 0; j < n; ++j) {
                const Tensor &src = images[std::size_t(k0 + j < kImages ? k0 + j : 0)];
                std::copy(src.data(), src.data() + img,
                          x.data() + std::size_t(j) * img);
            }
            const Tensor y = srv.net.seq->forward(x, false);
            const std::size_t o = std::size_t(y.c()) * y.h() * y.w();
            for (int j = 0; j < n && k0 + j < kImages; ++j) {
                Tensor yj(1, y.c(), y.h(), y.w());
                std::copy(y.data() + std::size_t(j) * o,
                          y.data() + std::size_t(j + 1) * o, yj.data());
                row.push_back(std::move(yj));
            }
        }
        refs.out.push_back(std::move(row));
    }

    serve::PlanCache &cache = srv.engine->planCache();
    Totals tot;
    auto reportMismatch = [&] {
        const double frac = tot.served ? double(tot.unbatchedDiff) /
                                             double(tot.served)
                                       : 0;
        rep.note("unbatched_mismatch_frac", std::to_string(frac));
        if (tot.unbatchedDiff > 0)
            std::fprintf(stderr,
                         "perfbench: unbatched_mismatch_frac %.4f: %llu of "
                         "%llu responses differ bitwise from the image's "
                         "unbatched forward (serve::Engine's documented "
                         "contract; not counted in failed, see "
                         "METRICS.md)\n",
                         frac,
                         static_cast<unsigned long long>(tot.unbatchedDiff),
                         static_cast<unsigned long long>(tot.served));
    };
    Load closed;
    closed.clients = kClients;
    closed.seed = opt.seed ^ 0x5eedULL;

    if (!opt.trace) {
        closed.seconds = opt.seconds * kClosedShare;
        const Phase ph = runPhase(srv, images, refs, closed, rep);
        account(rep, tot, ph);
        reportMismatch();
        const std::vector<double> lat = latencies(ph);
        double rows = 0;
        for (const auto &b : ph.batches)
            rows += b.rows;
        rep.note("closed_loop", std::to_string(ph.served.size()) +
                                    " requests, " + std::to_string(kClients) +
                                    " outstanding, mean batch " +
                                    std::to_string(rows / double(std::max<
                                        std::size_t>(ph.batches.size(), 1))));
        std::string pcts;
        for (double p : {50.0, 75.0, 90.0, 95.0, 99.0})
            pcts += (pcts.empty() ? "p" : " p") + std::to_string(int(p)) +
                    "=" + std::to_string(tail(lat, p).value);
        rep.note("latency_pcts_ms", pcts);
        reportSetup(rep, setupSec);
        rep.metric("latency_ms_p50", median(lat), "ms");
        reportTail(rep, lat, kTailPct);
        rep.metric("throughput_per_s", completedRps(ph), "1/s");
        rep.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    // ---- traced run: open loop at kOpenRps, per-layer timing.
    Rng arrivals(opt.seed ^ 0x5eedULL);
    Load open;
    open.schedule = schedule(arrivals, kOpenRps, opt.seconds * kOpenShare);
    open.trace = true;
    const std::uint64_t h0 = cache.hits(), m0 = cache.misses(),
                        e0 = cache.evictions();
    ws::Workspace::global().resetStats();
    const Phase nom = runPhase(srv, images, refs, open, rep);
    const ws::Stats wst = ws::Workspace::global().stats();
    const std::uint64_t hits = cache.hits() - h0,
                        misses = cache.misses() - m0,
                        evictions = cache.evictions() - e0;
    account(rep, tot, nom);
    const double n = double(std::max<std::size_t>(nom.served.size(), 1));
    const double openMismatch = double(nom.unbatchedDiff) / n;
    rep.note("open_loop", std::to_string(nom.served.size()) + " requests at " +
                              std::to_string(kOpenRps) + "/s");
    rep.note("plan_cache", std::to_string(hits) + " hits, " +
                               std::to_string(misses) + " misses, " +
                               std::to_string(evictions) + " evictions");

    // Saturated rate for the ladder's start: a short closed loop.
    closed.seconds = opt.seconds * kProbeShare;
    const Phase sat = runPhase(srv, images, refs, closed, rep);
    account(rep, tot, sat);
    const double mu = completedRps(sat);
    rep.note("saturated_rps", std::to_string(mu));
    rep.metric("serve.capacity_rps",
               ladderCapacity(opt, srv, images, refs, mu, rep, tot), "1/s");
    reportMismatch();

    // ---- per-layer metrics from the traced batches.
    std::vector<double> convMs[kConvs], ratio[kConvs], fwdMs, queue,
        latTraced, latPlain;
    double busyMs = 0, rows = 0, flops = 0, convTotal = 0;
    for (const auto &b : nom.batches) {
        const double ms = msBetween(b.start, b.end);
        fwdMs.push_back(ms);
        busyMs += ms;
        rows += b.rows;
        if (!b.traced)
            continue;
        const auto &ch = choices[std::size_t(b.rows)];
        for (int i = 0; i < kConvs; ++i) {
            convMs[i].push_back(b.convMs[i]);
            const double pred =
                tune::predictMs(convSpec(i, b.rows, kEdge), ch[std::size_t(i)]);
            if (pred > 0)
                ratio[i].push_back(b.convMs[i] / pred);
            flops += convFlops(i, b.rows, kEdge);
            convTotal += b.convMs[i];
        }
    }
    for (const Served &s : nom.served) {
        queue.push_back(s.queueMs);
        (s.traced ? latTraced : latPlain).push_back(s.latencyMs);
    }
    for (int i = 0; i < kConvs; ++i) {
        rep.metric("nn.conv" + std::to_string(i) + ".fwd_ms",
                   median(convMs[i]), "ms");
        rep.metric("winograd.conv" + std::to_string(i) + ".pred_ratio",
                   median(ratio[i]), "ratio");
    }
    int direct = 0;
    for (const auto &c : choices[1])
        direct += c.kind == tune::AlgoKind::Direct;
    rep.metric("winograd.direct_layers", direct, "count");
    rep.metric("winograd.gflops", convTotal > 0 ? flops / (convTotal * 1e6) : 0,
               "GFLOP/s");
    rep.metric("winograd.tune_ms", median(tuneMs), "ms");
    rep.metric("tensor.fresh_allocs_per_op", double(wst.freshAllocs) / n,
               "count");
    rep.metric("tensor.fresh_bytes_per_op", double(wst.freshBytes) / n, "B");
    rep.metric("tensor.high_water_mb", double(wst.highWater) / 1048576.0,
               "MB");
    const Tail qt = tail(queue, kTailPct);
    rep.metric("serve.queue_ms_p50", median(queue), "ms");
    rep.metric("serve.queue_ms_tail", qt.value, "ms");
    rep.metric("serve.batch_fwd_ms_p50", median(fwdMs), "ms");
    rep.metric("serve.batch_size_mean",
               nom.batches.empty() ? 0 : rows / double(nom.batches.size()),
               "count");
    rep.metric("serve.busy_frac", busyMs / (nom.wallS * 1e3), "ratio");
    rep.metric("serve.gen_lag_ms_max", nom.genLagMaxMs, "ms");
    rep.metric("serve.plan_hit_ratio",
               hits + misses ? double(hits) / double(hits + misses) : 0,
               "ratio");
    rep.metric("serve.plan_evictions_per_1k", 1e3 * double(evictions) / n,
               "count");
    rep.metric("serve.weight_builds", double(cache.weightBuilds()), "count");
    rep.metric("serve.unbatched_mismatch_frac", openMismatch, "ratio");
    const double plain = median(latPlain);
    rep.metric("trace.overhead_pct",
               plain > 0 ? 100.0 * (median(latTraced) / plain - 1.0) : 0, "%");
}

} // namespace perfbench
