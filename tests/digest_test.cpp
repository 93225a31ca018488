/**
 * @file
 * Bit pins of the Winograd plan pipelines under the scalar micro-kernel
 * table, independent of the stage kernels they check.
 *
 * FusedParityP, SparseParityP and friends compare one execution route
 * with another. Once staged and fused execution share their stage
 * kernels, a bug inside a shared kernel moves both routes together and
 * those oracles stay green. This test instead hashes every output byte
 * (FNV-1a, 64 bit) of the forward, backward-data and weight-gradient
 * pipelines, for each execution policy (fp32, sparse fp32, bf16, fp16)
 * and each route (staged, fused), over the FusedParityP shapes, and
 * compares against digests recorded from the pre-refactor kernels (the
 * per-policy, per-blocking copies at commit 16e817b).
 *
 * Regenerating: build this file against that tree (add it to
 * tests/CMakeLists.txt as in this one), then run
 *   ./tests/digest_test --gtest_filter='WinogradDigest.*'
 * Every mismatching expectation prints the digest it computed, in the
 * hex form the table below uses. A digest may only change together
 * with a deliberate numerics change, recorded as such.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "sparse_fixtures.hh"
#include "winograd/conv.hh"
#include "winograd/microkernel.hh"
#include "winograd/plan.hh"

namespace winomc {
namespace {

struct DigestShape
{
    int batch, in_ch, out_ch, h, w, m, r;
};

/** The FusedParityP shapes (fused_test.cpp), in the same order. */
const DigestShape kShapes[] = {
    {1, 1, 1, 3, 3, 2, 3},     {1, 2, 5, 5, 7, 2, 3},
    {3, 5, 2, 9, 6, 4, 3},     {2, 3, 4, 8, 8, 4, 3},
    {1, 3, 2, 13, 11, 2, 5},   {2, 128, 128, 24, 24, 2, 3},
};

struct Policy
{
    const char *name;
    Prec prec;
    bool sparse;
};

const Policy kPolicies[] = {
    {"fp32", Prec::F32, false},
    {"sparse", Prec::F32, true},
    {"bf16", Prec::Bf16, false},
    {"fp16", Prec::F16, false},
};

/** Expected digests per (policy, route): y, dx, dW over all shapes. */
struct Pin
{
    const char *policy;
    const char *route;
    std::uint64_t y, dx, dW;
};

const Pin kPins[] = {
    {"fp32", "staged", 0xfe8f851a4a2513b7, 0x92cc6edd35d6170d,
     0x8da444b033085685},
    {"fp32", "fused", 0xfe8f851a4a2513b7, 0x92cc6edd35d6170d,
     0x8da444b033085685},
    {"sparse", "staged", 0xfe8f851a4a2513b7, 0x92cc6edd35d6170d,
     0x8da444b033085685},
    {"sparse", "fused", 0xfe8f851a4a2513b7, 0x92cc6edd35d6170d,
     0x8da444b033085685},
    {"bf16", "staged", 0xeb5c04e533b9a732, 0x92cc6edd35d6170d,
     0x8da444b033085685},
    {"bf16", "fused", 0xeb5c04e533b9a732, 0x92cc6edd35d6170d,
     0x8da444b033085685},
    {"fp16", "staged", 0x667375f7a99718aa, 0x92cc6edd35d6170d,
     0x8da444b033085685},
    {"fp16", "fused", 0x667375f7a99718aa, 0x92cc6edd35d6170d,
     0x8da444b033085685},
};

/** FNV-1a over a byte range, continuing from state h. */
std::uint64_t
fnv1a(std::uint64_t h, const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ULL;

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct Digests
{
    std::uint64_t y = kFnvSeed, dx = kFnvSeed, dW = kFnvSeed;
};

/**
 * Run one route under the current policy over every shape. Inputs are
 * ReLU-sparse activations (whole dead tile panels) and half-pruned
 * weights, so the zero-skipping paths really skip.
 */
Digests
runRoute(bool fused)
{
    Digests d;
    for (const DigestShape &s : kShapes) {
        const WinogradAlgo algo = makeWinograd(s.m, s.r);
        Rng rng(321);
        const Tensor x = reluSparseInput(s.batch, s.in_ch, s.h, s.w, rng);
        Tensor dy(s.batch, s.out_ch, s.h, s.w);
        dy.fillUniform(rng);
        const WinoWeights W =
            prunedWeights(s.out_ch, s.in_ch, s.r, algo, 0.5, rng);

        WinoPlan plan(algo, s.batch, s.in_ch, s.out_ch, s.h, s.w);
        Tensor y(s.batch, s.out_ch, s.h, s.w);
        Tensor dx(s.batch, s.in_ch, s.h, s.w);
        WinoWeights dW(algo.alpha, s.out_ch, s.in_ch);
        // The plan picks its forward's schedule from the process-wide
        // mode; the training backward is the same on both routes.
        setFusedMode(fused ? FusedMode::On : FusedMode::Off);
        plan.forward(x, W, y, true);
        plan.backward(dy, W, dx, dW);
        d.y = fnv1a(d.y, y.data(), y.size() * sizeof(float));
        d.dx = fnv1a(d.dx, dx.data(), dx.size() * sizeof(float));
        d.dW = fnv1a(d.dW, dW.raw(), dW.size() * sizeof(float));
    }
    return d;
}

TEST(WinogradDigest, ScalarIsaOutputsMatchRecordedBits)
{
    PolicyGuard guard;
    mk::setIsa(mk::Isa::Scalar);
    int pin = 0;
    for (const Policy &p : kPolicies) {
        for (bool fused : {false, true}) {
            setPrec(p.prec);
            setSparseMode(p.sparse);
            const Digests d = runRoute(fused);
            const Pin &want = kPins[pin++];
            ASSERT_STREQ(want.policy, p.name);
            ASSERT_STREQ(want.route, fused ? "fused" : "staged");
            const std::string tag =
                std::string(p.name) + (fused ? " fused" : " staged");
            EXPECT_EQ(d.y, want.y) << tag << " y digest " << hex(d.y);
            EXPECT_EQ(d.dx, want.dx) << tag << " dx digest " << hex(d.dx);
            EXPECT_EQ(d.dW, want.dW) << tag << " dW digest " << hex(d.dW);
        }
    }
}

} // namespace
} // namespace winomc
