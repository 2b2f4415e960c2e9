/**
 * @file
 * Integration tests: every Rodinia-subset kernel and every texture kernel
 * verified against host references, across machine configurations
 * (parameterized over the paper's Fig. 14 core geometries and core counts).
 */

#include <gtest/gtest.h>

#include "runtime/workloads.h"

using namespace vortex;
using runtime::Device;
using runtime::RunResult;

namespace {

core::ArchConfig
cfg(uint32_t warps, uint32_t threads, uint32_t cores = 1)
{
    core::ArchConfig c;
    c.numWarps = warps;
    c.numThreads = threads;
    c.numCores = cores;
    return c;
}

} // namespace

TEST(Kernels, Saxpy)
{
    Device dev(cfg(4, 4));
    RunResult r = runtime::runSaxpy(dev, 512);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Kernels, Sgemm)
{
    Device dev(cfg(4, 4));
    RunResult r = runtime::runSgemm(dev, 16);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Kernels, Sfilter)
{
    Device dev(cfg(4, 4));
    RunResult r = runtime::runSfilter(dev, 24, 16);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Kernels, Nearn)
{
    Device dev(cfg(4, 4));
    RunResult r = runtime::runNearn(dev, 256);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Kernels, Gaussian)
{
    Device dev(cfg(4, 4));
    RunResult r = runtime::runGaussian(dev, 12);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Kernels, GaussianMultiCore)
{
    Device dev(cfg(4, 4, 2));
    RunResult r = runtime::runGaussian(dev, 12);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Kernels, Bfs)
{
    Device dev(cfg(4, 4));
    RunResult r = runtime::runBfs(dev, 128, 3);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Kernels, BfsMultiCore)
{
    Device dev(cfg(4, 4, 4));
    RunResult r = runtime::runBfs(dev, 128, 3);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Kernels, TexturePointHw)
{
    Device dev(cfg(4, 4));
    RunResult r = runtime::runTexture(dev, runtime::TexFilterMode::Point,
                                      true, 32);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Kernels, TextureBilinearHw)
{
    Device dev(cfg(4, 4));
    RunResult r = runtime::runTexture(dev, runtime::TexFilterMode::Bilinear,
                                      true, 32);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Kernels, TextureTrilinearHw)
{
    Device dev(cfg(4, 4));
    RunResult r = runtime::runTexture(dev, runtime::TexFilterMode::Trilinear,
                                      true, 32);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Kernels, TexturePointSw)
{
    Device dev(cfg(4, 4));
    RunResult r = runtime::runTexture(dev, runtime::TexFilterMode::Point,
                                      false, 32);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Kernels, TextureBilinearSw)
{
    Device dev(cfg(4, 4));
    RunResult r = runtime::runTexture(dev, runtime::TexFilterMode::Bilinear,
                                      false, 32);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Kernels, TextureTrilinearSw)
{
    Device dev(cfg(4, 4));
    RunResult r = runtime::runTexture(dev, runtime::TexFilterMode::Trilinear,
                                      false, 32);
    EXPECT_TRUE(r.ok) << r.error;
}

//
// The Fig. 14 design-space configurations must all run every kernel
// correctly (4W-4T, 2W-8T, 8W-2T, 4W-8T, 8W-4T).
//
struct ConfigCase
{
    uint32_t warps, threads;
};

class KernelConfigSweep : public ::testing::TestWithParam<ConfigCase>
{
};

TEST_P(KernelConfigSweep, VecAddAndSgemm)
{
    auto p = GetParam();
    {
        Device dev(cfg(p.warps, p.threads));
        RunResult r = runtime::runVecAdd(dev, 512);
        EXPECT_TRUE(r.ok) << r.error;
    }
    {
        Device dev(cfg(p.warps, p.threads));
        RunResult r = runtime::runSgemm(dev, 12);
        EXPECT_TRUE(r.ok) << r.error;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Fig14Configs, KernelConfigSweep,
    ::testing::Values(ConfigCase{4, 4}, ConfigCase{2, 8}, ConfigCase{8, 2},
                      ConfigCase{4, 8}, ConfigCase{8, 4}),
    [](const ::testing::TestParamInfo<ConfigCase>& info) {
        return std::to_string(info.param.warps) + "W_" +
               std::to_string(info.param.threads) + "T";
    });

//
// Cache hierarchy sweep: L2/L3 enabled configurations stay correct.
//
TEST(Kernels, VecAddWithL2)
{
    core::ArchConfig c = cfg(4, 4, 4);
    c.l2Enabled = true;
    Device dev(c);
    RunResult r = runtime::runVecAdd(dev, 1024);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Kernels, SaxpyWithL2L3)
{
    core::ArchConfig c = cfg(4, 4, 8);
    c.coresPerCluster = 4;
    c.l2Enabled = true;
    c.l3Enabled = true;
    Device dev(c);
    RunResult r = runtime::runSaxpy(dev, 1024);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Kernels, SgemmAndGaussianOnTwoL2Clusters)
{
    // 8 cores in two 4-core clusters, each cluster behind its own L2:
    // sgemm is compute-bound, gaussian crosses many global barriers.
    core::ArchConfig c = cfg(4, 4, 8);
    c.coresPerCluster = 4;
    c.l2Enabled = true;
    for (const char* kernel : {"sgemm", "gaussian"}) {
        Device dev(c);
        RunResult r = runtime::runRodinia(dev, kernel);
        EXPECT_TRUE(r.ok) << kernel << ": " << r.error;
    }
}

TEST(Kernels, VecAddOddSizeAcrossCoreCounts)
{
    // n = 257 splits unevenly across every core count; 4+ cores add an L2.
    for (uint32_t cores : {1u, 2u, 4u, 8u}) {
        core::ArchConfig c = cfg(4, 4, cores);
        c.l2Enabled = cores >= 4;
        Device dev(c);
        RunResult r = runtime::runVecAdd(dev, 257);
        EXPECT_TRUE(r.ok) << cores << " cores: " << r.error;
    }
}
