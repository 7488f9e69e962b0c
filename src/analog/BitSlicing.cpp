#include "analog/BitSlicing.h"

#include <cmath>

#include "common/Logging.h"

namespace darth
{
namespace analog
{

int
numSlices(int element_bits, int bits_per_cell)
{
    if (element_bits <= 0 || bits_per_cell <= 0)
        darth_fatal("numSlices: widths must be positive");
    return (element_bits + bits_per_cell - 1) / bits_per_cell;
}

void
checkMatrixRange(const MatrixI &m, int element_bits)
{
    const i64 limit = i64{1} << element_bits;
    for (i64 v : m.data())
        if (std::abs(v) >= limit)
            darth_fatal("sliceSignedMatrix: |", v, "| exceeds ",
                        element_bits, "-bit magnitude");
}

std::vector<MatrixI>
sliceSignedMatrix(const MatrixI &m, int element_bits, int bits_per_cell)
{
    const int slices = numSlices(element_bits, bits_per_cell);
    checkMatrixRange(m, element_bits);

    std::vector<MatrixI> out(
        static_cast<std::size_t>(slices),
        MatrixI(m.rows(), m.cols()));
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            const i64 v = m(r, c);
            for (int s = 0; s < slices; ++s)
                out[static_cast<std::size_t>(s)](r, c) =
                    sliceElement(v, s, bits_per_cell);
        }
    }
    return out;
}

MatrixI
recombineSlices(const std::vector<MatrixI> &slices, int bits_per_cell)
{
    if (slices.empty())
        darth_fatal("recombineSlices: no slices");
    MatrixI out(slices[0].rows(), slices[0].cols());
    for (std::size_t s = 0; s < slices.size(); ++s) {
        const i64 weight = i64{1}
                           << (static_cast<int>(s) * bits_per_cell);
        for (std::size_t r = 0; r < out.rows(); ++r)
            for (std::size_t c = 0; c < out.cols(); ++c)
                out(r, c) += slices[s](r, c) * weight;
    }
    return out;
}

bool
checkInputRange(const std::vector<i64> &x, int input_bits)
{
    if (input_bits <= 0 || input_bits > 63)
        darth_fatal("sliceInput: input_bits must be in [1, 63]");
    const i64 lo = -(i64{1} << (input_bits - 1));
    const bool any_negative = [&x] {
        for (i64 v : x)
            if (v < 0)
                return true;
        return false;
    }();
    // The largest value: two's complement when any is negative, else
    // unsigned (2^63 - 1 at 63 bits, so compared as u64).
    const u64 hi = any_negative ? (u64{1} << (input_bits - 1)) - 1
                                : (u64{1} << input_bits) - 1;

    for (i64 v : x)
        if (v < lo || (v > 0 && static_cast<u64>(v) > hi))
            darth_fatal("sliceInput: ", v, " outside ", input_bits,
                        "-bit range");
    return any_negative;
}

std::vector<InputBitPlane>
sliceInput(const std::vector<i64> &x, int input_bits)
{
    const bool any_negative = checkInputRange(x, input_bits);

    // Every value fits, so bit `bit` of its two's complement code is
    // bit `bit` of the value itself.
    std::vector<InputBitPlane> planes(static_cast<std::size_t>(input_bits));
    for (int bit = 0; bit < input_bits; ++bit) {
        InputBitPlane &plane = planes[static_cast<std::size_t>(bit)];
        plane.bit = bit;
        plane.negate = any_negative && bit == input_bits - 1;
        plane.bits.resize(x.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            plane.bits[i] =
                static_cast<int>((static_cast<u64>(x[i]) >> bit) & 1ULL);
    }
    return planes;
}

std::vector<i64>
referencePlanesMvm(const std::vector<InputBitPlane> &planes,
                   const MatrixI &m)
{
    std::vector<i64> out(m.cols(), 0);
    for (const auto &plane : planes) {
        if (plane.bits.size() != m.rows())
            darth_fatal("referencePlanesMvm: plane length mismatch");
        const i64 weight = (plane.negate ? -1 : 1) *
                           (i64{1} << plane.bit);
        for (std::size_t c = 0; c < m.cols(); ++c) {
            i64 acc = 0;
            for (std::size_t r = 0; r < m.rows(); ++r)
                acc += static_cast<i64>(plane.bits[r]) * m(r, c);
            out[c] += acc * weight;
        }
    }
    return out;
}

} // namespace analog
} // namespace darth
