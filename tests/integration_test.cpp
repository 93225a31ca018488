/**
 * @file
 * Cross-module integration tests.
 *
 * The central one: the MPT layer (batch over clusters, tile elements
 * over groups, explicit scatter/gather and group reductions) computes
 * bitwise the same forward output and input gradient as the
 * single-worker Winograd layer for every (ng, nc) organization and
 * execution policy, and the same weight update with one cluster (FP
 * reduction order apart with several) - the parallelization changes
 * the schedule, never the math. Plus end-to-end flows that tie the
 * simulators and the numerics together.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "memnet/link_model.hh"
#include "memnet/message_sim.hh"
#include "mpt/comm_volume.hh"
#include "mpt/layer_sim.hh"
#include "mpt/mpt_conv_layer.hh"
#include "nn/basic_layers.hh"
#include "nn/conv_layer.hh"
#include "nn/dataset.hh"
#include "nn/trainer.hh"
#include "noc/network.hh"
#include "noc/topology.hh"
#include "quant/predict.hh"
#include "sparse_fixtures.hh"
#include "winograd/microkernel.hh"
#include "workloads/layers.hh"

namespace winomc {

// This suite validates the fp32 pipeline against fp32 oracles (direct
// convolution, numeric gradients, bitwise stage parity), so the
// activation storage precision is pinned to fp32 regardless of
// WINOMC_PREC. WINOMC_SPARSE stays env-driven on purpose: sparse
// execution is bitwise identical and must keep passing here.
[[maybe_unused]] const bool kPinFp32 = [] {
    setPrec(Prec::F32);
    return true;
}();

namespace {

struct Org
{
    int ng, nc;
};

TEST(FunctionalMpt, TileTrafficMatchesSectionIIICFormula)
{
    // The MPT layer's counted traffic over one training step must
    // agree with the analytic volume formula used by the communication
    // model.
    const WinogradAlgo &algo = algoF2x2_3x3();
    Rng rng(7);
    const int B = 8, C = 4, H = 8;
    Tensor x(B, C, H, H), dy(B, C, H, H);
    x.fillUniform(rng);
    dy.fillUniform(rng);

    const int ng = 4, nc = 2;
    mpt::MptConvLayer layer(C, C, 3, ng, nc, algo, rng);
    layer.forward(x, true);
    layer.backward(dy);

    // Per-worker analytic volume (elements, no prediction, both
    // directions and phases) times the worker count.
    ConvSpec spec{"t", B, C, C, H, H, 3};
    auto vol = mpt::mptCommVolume(spec, algo,
                                  memnet::ClusterShape{ng, nc}, nullptr);
    double analytic_elems = vol.tileBytes / 4.0 * ng * nc;
    // The 1D-predict line shrink (m/alpha on gathers) is a transfer
    // representation detail the layer doesn't model, so compare against
    // the un-shrunk expectation.
    double gather_rep = double(algo.m) / algo.alpha;
    double unshrunk =
        analytic_elems * 2.0 / (1.0 + gather_rep);
    EXPECT_NEAR(double(layer.tileElemsTransferred()), unshrunk,
                0.02 * unshrunk);
}

TEST(Integration, WinogradLayerTrainingTrajectoryMatchesDirectClosely)
{
    // WinogradSpatial mode is the *same function and same parameters*
    // as Direct mode; their training trajectories must track each
    // other step for step (FP noise aside).
    Rng rng_a(55), rng_b(55), data_rng(66);
    const auto &algo = algoF2x2_3x3();
    nn::ConvLayer direct(2, 3, 3, nn::ConvMode::Direct, algo, rng_a);
    nn::ConvLayer wino(2, 3, 3, nn::ConvMode::WinogradSpatial, algo,
                       rng_b);

    Tensor x(4, 2, 8, 8);
    x.fillUniform(data_rng);
    for (int step = 0; step < 5; ++step) {
        Tensor yd = direct.forward(x, true);
        Tensor yw = wino.forward(x, true);
        ASSERT_LT(yd.maxAbsDiff(yw), 5e-3f) << "step " << step;
        direct.backward(yd);
        wino.backward(yw);
        direct.step(0.05f);
        wino.step(0.05f);
    }
    EXPECT_LT(direct.spatialWeights().maxAbsDiff(wino.spatialWeights()),
              5e-3f);
}

TEST(Integration, MptConvLayerTrainsIdenticallyToSoloLayer)
{
    // A network of MPT-partitioned conv layers and the single-worker
    // Winograd-layer network, trained on the same data with the same
    // seeds, must follow the same trajectory.
    const auto &algo = algoF2x2_3x3();
    Rng data_rng(31);
    nn::Dataset train_set = nn::makeShapeDataset(96, 12, 3, data_rng);
    nn::Dataset val_set = nn::makeShapeDataset(32, 12, 3, data_rng);

    auto build = [&](bool distributed, Rng &rng) {
        auto net = std::make_unique<nn::Sequential>();
        if (distributed)
            net->add(std::make_unique<mpt::MptConvLayer>(1, 6, 3, 4, 4,
                                                         algo, rng));
        else
            net->add(std::make_unique<nn::ConvLayer>(
                1, 6, 3, nn::ConvMode::WinogradLayer, algo, rng));
        net->add(std::make_unique<nn::ReLU>());
        net->add(std::make_unique<nn::GlobalAvgPool>());
        net->add(std::make_unique<nn::Dense>(6, 3, rng));
        return net;
    };

    Rng sa(9), sb(9), oa(4), ob(4);
    auto solo = build(false, sa);
    auto dist = build(true, sb);

    nn::TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batchSize = 16;
    auto ha = nn::train(*solo, train_set, val_set, cfg, oa);
    auto hb = nn::train(*dist, train_set, val_set, cfg, ob);

    for (size_t e = 0; e < ha.size(); ++e) {
        EXPECT_NEAR(ha[e].trainLoss, hb[e].trainLoss,
                    1e-3 * std::max(1.0, ha[e].trainLoss)) << e;
        EXPECT_NEAR(ha[e].valAcc, hb[e].valAcc, 0.05) << e;
    }
    auto &conv = dynamic_cast<mpt::MptConvLayer &>(dist->child(0));
    EXPECT_GT(conv.tileElemsTransferred(), 0u);
    EXPECT_GT(conv.weightElemsReduced(), 0u);
}

/** Restores the fused mode, ISA and thread count a test pins. */
struct ScheduleGuard
{
    FusedMode fused = requestedFusedMode();
    ~ScheduleGuard()
    {
        setFusedMode(fused);
        mk::setIsa(mk::Isa::Auto);
        ThreadPool::global().setThreadCount(0);
    }
};

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool
sameBits(const WinoWeights &a, const WinoWeights &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

// MPT changes the schedule, never the bits. The organization's forward
// output and input gradient equal the single-worker Winograd-layer
// ConvLayer's exactly, under either micro-kernel table, thread count
// and fused mode. With one cluster the weight gradient and the SGD
// update match too, so three steps stay in lockstep; with several, the
// cross-cluster sum reorders the dW reduction, so one step (of the
// three accumulated gradients) lands within lr * 2e-3 of the solo
// layer's.
void
expectMptIsBitwiseTheSoloLayer(Org org)
{
    ScheduleGuard guard;
    const WinogradAlgo &algo = algoF2x2_3x3(); // alpha^2 = 16
    const int B = 8, I = 3, J = 5, H = 10, Wd = 9; // ragged tile grid
    const float lr = 0.05f;
    Rng data(2024);
    std::vector<Tensor> xs, dys;
    for (int s = 0; s < 3; ++s) {
        xs.emplace_back(B, I, H, Wd);
        dys.emplace_back(B, J, H, Wd);
        xs.back().fillUniform(data);
        dys.back().fillUniform(data);
    }

    for (mk::Isa isa : {mk::Isa::Scalar, mk::Isa::Auto}) {
        mk::setIsa(isa);
        for (int threads : {1, 8}) {
            ThreadPool::global().setThreadCount(threads);
            for (FusedMode mode : {FusedMode::Off, FusedMode::On}) {
                setFusedMode(mode);
                Rng ra(77), rb(77);
                nn::ConvLayer solo(I, J, 3, nn::ConvMode::WinogradLayer,
                                   algo, ra);
                mpt::MptConvLayer mpt(I, J, 3, org.ng, org.nc, algo, rb);
                const std::string where =
                    "ng " + std::to_string(org.ng) + " nc " +
                    std::to_string(org.nc) + " isa " + mk::isaName(isa) +
                    " threads " + std::to_string(threads) + " fused " +
                    fusedModeName(mode);
                ASSERT_TRUE(sameBits(mpt.winoWeights(), solo.winoWeights()))
                    << where;
                for (int s = 0; s < 3; ++s) {
                    const Tensor y = mpt.forward(xs[size_t(s)], true);
                    const Tensor yRef = solo.forward(xs[size_t(s)], true);
                    EXPECT_TRUE(sameBits(y, yRef))
                        << where << " step " << s << " y";
                    const Tensor dx = mpt.backward(dys[size_t(s)]);
                    const Tensor dxRef = solo.backward(dys[size_t(s)]);
                    EXPECT_TRUE(sameBits(dx, dxRef))
                        << where << " step " << s << " dx";
                    // Several clusters leave lockstep after a step, so
                    // their weights stay fixed (the gradients
                    // accumulate) until the one step below.
                    if (org.nc != 1)
                        continue;
                    mpt.step(lr);
                    solo.step(lr);
                    EXPECT_TRUE(
                        sameBits(mpt.winoWeights(), solo.winoWeights()))
                        << where << " step " << s << " W";
                }
                if (org.nc != 1) {
                    mpt.step(lr);
                    solo.step(lr);
                    EXPECT_LT(
                        mpt.winoWeights().maxAbsDiff(solo.winoWeights()),
                        lr * 2e-3f)
                        << where << " W";
                }
                // Data-parallel organizations move no tiles.
                EXPECT_EQ(mpt.tileElemsTransferred() == 0, org.ng == 1)
                    << where;
                EXPECT_GT(mpt.weightElemsReduced(), 0u) << where;
            }
        }
    }
}

TEST(Integration, MptConvLayerIsBitwiseTheSoloLayer)
{
    for (Org org : {Org{1, 2}, Org{2, 2}, Org{4, 4}})
        expectMptIsBitwiseTheSoloLayer(org);
}

// The same oracle, one case per organization: pure data parallelism
// (ng 1), pure tile-element parallelism (nc 1) and mixed ones, up to
// every one of the alpha^2 = 16 elements on its own group.
class FunctionalMptP : public ::testing::TestWithParam<Org> {};

TEST_P(FunctionalMptP, MatchesSingleWorkerReference)
{
    expectMptIsBitwiseTheSoloLayer(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Organizations, FunctionalMptP,
    ::testing::Values(Org{1, 1}, Org{1, 8}, Org{16, 1}, Org{4, 2},
                      Org{4, 8}, Org{16, 4}, Org{2, 4}, Org{8, 8}),
    [](const ::testing::TestParamInfo<Org> &info) {
        return "ng" + std::to_string(info.param.ng) + "nc" +
               std::to_string(info.param.nc);
    });

TEST(Integration, GroupedMptHonoursHalfPolicies)
{
    // Grouped clusters run the plan's own storage: under a 16-bit
    // policy MPT's forward output is bitwise the solo layer's, for
    // any group count and either forward schedule.
    for (Prec prec : {Prec::Bf16, Prec::F16}) {
        PolicyGuard guard;
        setPrec(prec);
        const WinogradAlgo &algo = algoF2x2_3x3(); // alpha^2 = 16
        const int B = 4, I = 3, J = 5, H = 10, Wd = 9;
        Rng data(99);
        Tensor x(B, I, H, Wd);
        x.fillUniform(data);
        for (Org org : {Org{2, 1}, Org{4, 2}, Org{16, 1}}) {
            for (FusedMode mode : {FusedMode::Off, FusedMode::On}) {
                setFusedMode(mode);
                Rng ra(77), rb(77);
                nn::ConvLayer solo(I, J, 3, nn::ConvMode::WinogradLayer,
                                   algo, ra);
                mpt::MptConvLayer mpt(I, J, 3, org.ng, org.nc, algo, rb);
                EXPECT_TRUE(sameBits(mpt.forward(x, true),
                                     solo.forward(x, true)))
                    << precName(prec) << " ng " << org.ng << " nc "
                    << org.nc << " fused " << fusedModeName(mode);
            }
        }
    }
}

TEST(Integration, PredictionSkipsAreSoundOnTrainedNetwork)
{
    // End to end: train, harvest real tiles, predict, and verify the
    // no-false-negative guarantee on live data (not just random tiles).
    // Harvesting reads lastOutputTiles(), which only the staged path
    // populates — pin fused mode to Auto for this test (WINOMC_FUSED=on
    // would bypass the tile slabs by documented contract).
    const FusedMode savedFused = requestedFusedMode();
    setFusedMode(FusedMode::Auto);
    Rng rng(77);
    const auto &algo = algoF2x2_3x3();
    nn::Dataset train_set = nn::makeShapeDataset(128, 12, 3, rng);
    nn::Dataset val_set = nn::makeShapeDataset(32, 12, 3, rng);

    nn::Sequential net;
    net.add(std::make_unique<nn::ConvLayer>(
        1, 6, 3, nn::ConvMode::WinogradLayer, algo, rng));
    net.add(std::make_unique<nn::ReLU>());
    auto conv = std::make_unique<nn::ConvLayer>(
        6, 6, 3, nn::ConvMode::WinogradLayer, algo, rng);
    nn::ConvLayer *probe = conv.get();
    net.add(std::move(conv));
    net.add(std::make_unique<nn::ReLU>());
    net.add(std::make_unique<nn::GlobalAvgPool>());
    net.add(std::make_unique<nn::Dense>(6, 3, rng));

    nn::TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batchSize = 16;
    nn::train(net, train_set, val_set, cfg, rng);

    std::vector<int> labels;
    Tensor xb = val_set.batch(0, 16, labels);
    net.forward(xb, true);

    for (auto mode : {quant::PredictMode::TwoD,
                      quant::PredictMode::OneD}) {
        double sigma = quant::ActivationPredictor::wireSigma(
            probe->lastOutputTiles(), algo, mode);
        quant::NonUniformQuantizer qz(mode == quant::PredictMode::TwoD
                                          ? 64 : 32, 4, sigma);
        quant::ActivationPredictor pred(algo, qz, mode);
        quant::PredictStats st = pred.run(probe->lastOutputTiles());
        EXPECT_EQ(st.falseNegatives, 0u);
        EXPECT_GT(st.tiles, 0u);
    }
    setFusedMode(savedFused);
}

TEST(Integration, FlitSimValidatesAnalyticClusterBandwidth)
{
    // The narrow-link FBFLY all-to-all time assumed by the layer model
    // must be reachable in the flit-level simulator: offered neighbor+
    // transpose-ish traffic at 80% of the analytic link rate drains.
    noc::NocConfig cfg;
    cfg.flitBytes = 10;
    noc::Network net(std::make_unique<noc::FlatButterfly2D>(4), cfg);
    Rng rng(31);
    int sent = 0;
    for (int round = 0; round < 200; ++round) {
        for (int s = 0; s < 16; ++s) {
            int d = int(rng.uniformInt(0, 14));
            if (d >= s)
                ++d;
            net.offerPacket(s, d, 64);
            ++sent;
        }
    }
    ASSERT_TRUE(net.drain(2000000));
    EXPECT_EQ(net.ejectedCount(), uint64_t(sent));
}

TEST(Integration, LayerSimConsistentWithMessageSim)
{
    // The all-to-all time inside the layer model (analytic bottleneck)
    // agrees with the event-driven message simulator within the
    // pipelining slack.
    memnet::ClusterShape shape{16, 16};
    auto topo_a = memnet::clusterTopology(shape);
    double per_pair = 100e3;
    double analytic = memnet::allToAllTime(*topo_a, per_pair,
                                           memnet::clusterLink(shape));
    auto topo_b = memnet::clusterTopology(shape);
    double simulated = memnet::simulateAllToAll(
        *topo_b, memnet::clusterLink(shape), per_pair);
    EXPECT_GT(simulated, 0.9 * analytic);
    EXPECT_LT(simulated, 1.4 * analytic);
}

} // namespace
} // namespace winomc
