/**
 * @file
 * Unit tests for matrix/input bit-slicing and recombination.
 */

#include <gtest/gtest.h>

#include <limits>

#include "analog/BitSlicing.h"
#include "common/Random.h"

namespace darth
{
namespace analog
{
namespace
{

TEST(BitSlicing, SliceCount)
{
    EXPECT_EQ(numSlices(8, 4), 2);
    EXPECT_EQ(numSlices(8, 2), 4);
    EXPECT_EQ(numSlices(8, 8), 1);
    EXPECT_EQ(numSlices(4, 1), 4);
    EXPECT_EQ(numSlices(7, 2), 4);
}

TEST(BitSlicing, Figure2Example)
{
    // Figure 2: value 4-bit, sliced into two 2-bit slices. Array 1
    // stores Value[3:2], Array 0 stores Value[1:0].
    MatrixI m(1, 1);
    m(0, 0) = 0b0110;   // 6
    const auto slices = sliceSignedMatrix(m, 4, 2);
    ASSERT_EQ(slices.size(), 2u);
    EXPECT_EQ(slices[0](0, 0), 0b10);   // Value[1:0]
    EXPECT_EQ(slices[1](0, 0), 0b01);   // Value[3:2]
}

TEST(BitSlicing, SignedSlicesStayInCellRange)
{
    MatrixI m(1, 2);
    m(0, 0) = -13;
    m(0, 1) = 13;
    const auto slices = sliceSignedMatrix(m, 4, 2);
    for (const auto &slice : slices)
        for (std::size_t c = 0; c < 2; ++c) {
            EXPECT_GE(slice(0, c), -3);
            EXPECT_LE(slice(0, c), 3);
        }
}

TEST(BitSlicing, RecombineInvertsSlice)
{
    Rng rng(41);
    MatrixI m(6, 5);
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            m(r, c) = rng.uniformInt(i64{-127}, i64{127});
    for (int bpc : {1, 2, 4, 8}) {
        const auto slices = sliceSignedMatrix(m, 8, bpc);
        EXPECT_EQ(static_cast<int>(slices.size()), numSlices(8, bpc));
        EXPECT_EQ(recombineSlices(slices, bpc), m) << "bpc=" << bpc;
    }
}

TEST(BitSlicing, InputPlanesUnsigned)
{
    const auto planes = sliceInput({5, 3}, 4);
    ASSERT_EQ(planes.size(), 4u);
    // 5 = 0101, 3 = 0011, LSB plane first.
    EXPECT_EQ(planes[0].bits, (std::vector<int>{1, 1}));
    EXPECT_EQ(planes[1].bits, (std::vector<int>{0, 1}));
    EXPECT_EQ(planes[2].bits, (std::vector<int>{1, 0}));
    EXPECT_EQ(planes[3].bits, (std::vector<int>{0, 0}));
    for (const auto &p : planes)
        EXPECT_FALSE(p.negate);
}

TEST(BitSlicing, InputPlanesSignedMarksMsbNegative)
{
    const auto planes = sliceInput({-3, 2}, 4);
    ASSERT_EQ(planes.size(), 4u);
    EXPECT_FALSE(planes[0].negate);
    EXPECT_FALSE(planes[2].negate);
    EXPECT_TRUE(planes[3].negate);
    // -3 = 1101 two's complement.
    EXPECT_EQ(planes[0].bits[0], 1);
    EXPECT_EQ(planes[1].bits[0], 0);
    EXPECT_EQ(planes[2].bits[0], 1);
    EXPECT_EQ(planes[3].bits[0], 1);
}

TEST(BitSlicing, PlanesRecombineToExactMvm)
{
    Rng rng(43);
    MatrixI m(7, 4);
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            m(r, c) = rng.uniformInt(i64{-9}, i64{9});
    std::vector<i64> x(7);
    for (auto &v : x)
        v = rng.uniformInt(i64{-7}, i64{7});
    const auto planes = sliceInput(x, 4);
    const auto via_planes = referencePlanesMvm(planes, m);
    for (std::size_t c = 0; c < m.cols(); ++c) {
        i64 exact = 0;
        for (std::size_t r = 0; r < m.rows(); ++r)
            exact += x[r] * m(r, c);
        EXPECT_EQ(via_planes[c], exact);
    }
}

TEST(BitSlicing, SixtyThreeBitInputsSpanTheUnsignedRange)
{
    // 63 unsigned bits hold every non-negative i64; with a negative
    // value the range is two's complement again.
    const i64 top = std::numeric_limits<i64>::max();
    const auto planes = sliceInput({1, top}, 63);
    ASSERT_EQ(planes.size(), 63u);
    EXPECT_FALSE(planes[62].negate);
    EXPECT_EQ(planes[62].bits, (std::vector<int>{0, 1}));
    EXPECT_THROW((void)sliceInput({-1, i64{1} << 62}, 63),
                 std::runtime_error);
}

TEST(BitSlicingDeath, OutOfRangeValueIsFatal)
{
    MatrixI m(1, 1);
    m(0, 0) = 256;
    EXPECT_THROW((void)sliceSignedMatrix(m, 8, 4), std::runtime_error);
    EXPECT_THROW((void)sliceInput({300}, 8), std::runtime_error);
}

TEST(BitSlicingDeath, BadWidthsAreFatal)
{
    MatrixI m(1, 1);
    EXPECT_THROW((void)numSlices(0, 4), std::runtime_error);
    EXPECT_THROW((void)sliceInput({1}, 0), std::runtime_error);
}

} // namespace
} // namespace analog
} // namespace darth
