/**
 * @file
 * Unit tests for the Digital Compute Element.
 */

#include <gtest/gtest.h>

#include "digital/Dce.h"

namespace darth
{
namespace digital
{
namespace
{

DceConfig
smallDce()
{
    DceConfig cfg;
    cfg.numPipelines = 4;
    cfg.pipeline.depth = 8;
    cfg.pipeline.width = 8;
    cfg.pipeline.numRegs = 8;
    return cfg;
}

TEST(Dce, ConstructsPipelines)
{
    Dce dce(smallDce());
    EXPECT_EQ(dce.numPipelines(), 4u);
}

TEST(Dce, PipelinesAreIndependent)
{
    Dce dce(smallDce());
    dce.pipeline(0).setElement(0, 0, 0xAB);
    EXPECT_EQ(dce.pipeline(0).element(0, 0, 8), 0xABull);
    EXPECT_EQ(dce.pipeline(1).element(0, 0, 8), 0u);
}

/** The same XOR on every pipeline, each on its own data. */
void
xorOnEveryPipeline(Dce &dce)
{
    for (std::size_t p = 0; p < dce.numPipelines(); ++p) {
        Pipeline &pipe = dce.pipeline(p);
        pipe.setElement(0, 0, 0xF0 + p);
        pipe.setElement(1, 0, 0x0F);
        pipe.execMacro(MacroKind::Xor, 2, 0, 1, 8, 0);
        EXPECT_EQ(pipe.element(2, 0, 8), (0xF0 + p) ^ 0x0F);
    }
}

TEST(Dce, OpCountAggregates)
{
    Dce dce(smallDce());
    xorOnEveryPipeline(dce);
    EXPECT_EQ(dce.opCount(),
              4u * dce.pipeline(0).opCount());
}

TEST(Dce, SharedTallyAccumulatesAcrossPipelines)
{
    CostTally tally;
    Dce dce(smallDce(), &tally);
    xorOnEveryPipeline(dce);
    EXPECT_EQ(tally.get("dce.boolop").events, dce.opCount());
}

TEST(DceDeath, OutOfRangePipelinePanics)
{
    Dce dce(smallDce());
    EXPECT_DEATH(dce.pipeline(4), "out of range");
}

} // namespace
} // namespace digital
} // namespace darth
