#include "digital/Dce.h"

#include "common/Logging.h"

namespace darth
{
namespace digital
{

Dce::Dce(const DceConfig &config, CostTally *tally) : cfg_(config)
{
    pipes_.reserve(cfg_.numPipelines);
    for (std::size_t i = 0; i < cfg_.numPipelines; ++i)
        pipes_.push_back(
            std::make_unique<Pipeline>(cfg_.pipeline, tally));
}

Pipeline &
Dce::pipeline(std::size_t i)
{
    if (i >= pipes_.size())
        darth_panic("Dce: pipeline ", i, " out of range ",
                    pipes_.size());
    return *pipes_[i];
}

const Pipeline &
Dce::pipeline(std::size_t i) const
{
    if (i >= pipes_.size())
        darth_panic("Dce: pipeline ", i, " out of range ",
                    pipes_.size());
    return *pipes_[i];
}

u64
Dce::opCount() const
{
    u64 total = 0;
    for (const auto &pipe : pipes_)
        total += pipe->opCount();
    return total;
}

} // namespace digital
} // namespace darth
