#include "apps/cnn/Layers.h"

#include <algorithm>
#include <cmath>

namespace darth
{
namespace cnn
{

Conv2d::Conv2d(std::string name, std::size_t in_channels,
               std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t pad)
    : name_(std::move(name)), cin_(in_channels), cout_(out_channels),
      kernel_(kernel), stride_(stride), pad_(pad),
      weights_(in_channels * kernel * kernel, out_channels),
      bias_(out_channels, 0)
{
}

void
Conv2d::initRandom(Rng &rng, i32 weight_range)
{
    for (std::size_t r = 0; r < weights_.rows(); ++r)
        for (std::size_t c = 0; c < weights_.cols(); ++c)
            weights_(r, c) = rng.uniformInt(
                static_cast<i64>(-weight_range),
                static_cast<i64>(weight_range));
    for (auto &b : bias_)
        b = static_cast<i32>(rng.uniformInt(i64{-8}, i64{8}));
}

std::vector<std::vector<i64>>
Conv2d::im2colPatches(const Tensor &input) const
{
    if (input.channels() != cin_)
        darth_fatal("Conv2d ", name_, ": expected ", cin_,
                    " input channels, got ", input.channels());
    const std::size_t out_h = outSize(input.height());
    const std::size_t out_w = outSize(input.width());
    const std::size_t k_elems = cin_ * kernel_ * kernel_;

    // im2col: gather each receptive field (Toeplitz row), reading the
    // CHW data directly; padding positions stay zero.
    const auto in_h = static_cast<i64>(input.height());
    const auto in_w = static_cast<i64>(input.width());
    const auto kernel = static_cast<i64>(kernel_);
    const i32 *const data = input.data().data();
    std::vector<std::vector<i64>> patches;
    patches.reserve(out_h * out_w);
    for (std::size_t oy = 0; oy < out_h; ++oy) {
        for (std::size_t ox = 0; ox < out_w; ++ox) {
            const i64 y0 = static_cast<i64>(oy * stride_) -
                           static_cast<i64>(pad_);
            const i64 x0 = static_cast<i64>(ox * stride_) -
                           static_cast<i64>(pad_);
            std::vector<i64> patch(k_elems, 0);
            i64 *out = patch.data();
            for (std::size_t ic = 0; ic < cin_; ++ic) {
                const i32 *const plane =
                    data + ic * input.height() * input.width();
                for (i64 y = y0; y < y0 + kernel; ++y, out += kernel) {
                    if (y < 0 || y >= in_h)
                        continue;
                    const i32 *const row = plane + y * in_w;
                    for (i64 kx = 0; kx < kernel; ++kx) {
                        const i64 x = x0 + kx;
                        if (x >= 0 && x < in_w)
                            out[kx] = row[x];
                    }
                }
            }
            patches.push_back(std::move(patch));
        }
    }
    return patches;
}

Tensor
Conv2d::assembleFromAccs(const std::vector<std::vector<i64>> &accs,
                         std::size_t out_h, std::size_t out_w,
                         const MvmNoise &noise) const
{
    if (accs.size() != out_h * out_w)
        darth_fatal("Conv2d ", name_, ": ", accs.size(),
                    " accumulator vectors for ", out_h, "x", out_w,
                    " output positions");
    const std::size_t k_elems = cin_ * kernel_ * kernel_;
    Tensor out(cout_, out_h, out_w);
    for (std::size_t oy = 0; oy < out_h; ++oy) {
        for (std::size_t ox = 0; ox < out_w; ++ox) {
            const std::vector<i64> &row = accs[oy * out_w + ox];
            if (row.size() != cout_)
                darth_fatal("Conv2d ", name_, ": accumulator vector "
                            "has ", row.size(), " values for ", cout_,
                            " output channels");
            for (std::size_t oc = 0; oc < cout_; ++oc) {
                i64 acc = noise.perturb(row[oc], k_elems);
                acc += bias_[oc];
                acc >>= requantShift_;
                out.at(oc, oy, ox) = static_cast<i32>(
                    std::clamp<i64>(acc, -127, 127));
            }
        }
    }
    return out;
}

Tensor
Conv2d::forward(const Tensor &input, const MvmNoise &noise) const
{
    const std::size_t out_h = outSize(input.height());
    const std::size_t out_w = outSize(input.width());
    const std::size_t k_elems = cin_ * kernel_ * kernel_;

    const auto patches = im2colPatches(input);
    std::vector<std::vector<i64>> accs;
    accs.reserve(patches.size());
    for (const auto &patch : patches) {
        // MVM over the weight matrix (what the ACE executes).
        std::vector<i64> acc(cout_, 0);
        for (std::size_t oc = 0; oc < cout_; ++oc)
            for (std::size_t i = 0; i < k_elems; ++i)
                acc[oc] += patch[i] * weights_(i, oc);
        accs.push_back(std::move(acc));
    }
    return assembleFromAccs(accs, out_h, out_w, noise);
}

LayerStats
Conv2d::stats(std::size_t in_h, std::size_t in_w) const
{
    LayerStats s;
    s.name = name_;
    s.mvmRows = cin_ * kernel_ * kernel_;
    s.mvmCols = cout_;
    const std::size_t out_h = (in_h + 2 * pad_ - kernel_) / stride_ + 1;
    const std::size_t out_w = (in_w + 2 * pad_ - kernel_) / stride_ + 1;
    s.mvmCount = out_h * out_w;
    s.macs = static_cast<u64>(s.mvmRows) * s.mvmCols * s.mvmCount;
    s.outputElems = static_cast<u64>(cout_) * out_h * out_w;
    // Bias add + requant + ReLU per output element.
    s.elementOps = 3 * s.outputElems;
    return s;
}

FullyConnected::FullyConnected(std::string name, std::size_t in_features,
                               std::size_t out_features)
    : name_(std::move(name)), in_(in_features), out_(out_features),
      weights_(in_features, out_features), bias_(out_features, 0)
{
}

void
FullyConnected::initRandom(Rng &rng, i32 weight_range)
{
    for (std::size_t r = 0; r < weights_.rows(); ++r)
        for (std::size_t c = 0; c < weights_.cols(); ++c)
            weights_(r, c) = rng.uniformInt(
                static_cast<i64>(-weight_range),
                static_cast<i64>(weight_range));
    for (auto &b : bias_)
        b = static_cast<i32>(rng.uniformInt(i64{-8}, i64{8}));
}

std::vector<i64>
FullyConnected::assembleFromAcc(const std::vector<i64> &acc,
                                const MvmNoise &noise) const
{
    if (acc.size() != out_)
        darth_fatal("FullyConnected ", name_, ": accumulator has ",
                    acc.size(), " values for ", out_, " outputs");
    std::vector<i64> out(out_);
    for (std::size_t oc = 0; oc < out_; ++oc)
        out[oc] = noise.perturb(acc[oc], in_) + bias_[oc];
    return out;
}

std::vector<i64>
FullyConnected::forward(const std::vector<i64> &input,
                        const MvmNoise &noise) const
{
    if (input.size() != in_)
        darth_fatal("FullyConnected ", name_, ": expected ", in_,
                    " inputs, got ", input.size());
    std::vector<i64> acc(out_, 0);
    for (std::size_t oc = 0; oc < out_; ++oc)
        for (std::size_t i = 0; i < in_; ++i)
            acc[oc] += input[i] * weights_(i, oc);
    return assembleFromAcc(acc, noise);
}

LayerStats
FullyConnected::stats() const
{
    LayerStats s;
    s.name = name_;
    s.mvmRows = in_;
    s.mvmCols = out_;
    s.mvmCount = 1;
    s.macs = static_cast<u64>(in_) * out_;
    s.outputElems = out_;
    s.elementOps = s.outputElems;
    return s;
}

void
relu(Tensor &t)
{
    for (auto &v : t.data())
        v = std::max(v, 0);
}

void
addResidual(Tensor &a, const Tensor &b)
{
    if (!a.sameShape(b))
        darth_fatal("addResidual: shape mismatch");
    for (std::size_t i = 0; i < a.data().size(); ++i)
        a.data()[i] = std::clamp(a.data()[i] + b.data()[i], -127, 127);
}

std::vector<i64>
globalAvgPool(const Tensor &t)
{
    std::vector<i64> out(t.channels());
    const i64 count =
        static_cast<i64>(t.height()) * static_cast<i64>(t.width());
    for (std::size_t c = 0; c < t.channels(); ++c) {
        i64 sum = 0;
        for (std::size_t y = 0; y < t.height(); ++y)
            for (std::size_t x = 0; x < t.width(); ++x)
                sum += t.at(c, y, x);
        out[c] = sum / count;
    }
    return out;
}

void
clampActivations(Tensor &t, i32 limit)
{
    for (auto &v : t.data())
        v = std::clamp(v, -limit, limit);
}

} // namespace cnn
} // namespace darth
