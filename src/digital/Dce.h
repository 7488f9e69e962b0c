/**
 * @file
 * Digital Compute Element: the digital half of a hybrid compute tile.
 *
 * A DCE bundles 64 RACER pipelines (Table 2) behind per-pipeline digital
 * issue queues. The DCE behaves as a SIMD vector unit whose lane count
 * is the pipeline width (Section 4.1); DARTH-PUM writes analog partial
 * products into pipeline rows and reduces them with ADD/SHIFT macros.
 */

#ifndef DARTH_DIGITAL_DCE_H
#define DARTH_DIGITAL_DCE_H

#include <cstddef>
#include <memory>
#include <vector>

#include "common/Stats.h"
#include "digital/Pipeline.h"

namespace darth
{
namespace digital
{

/** Configuration of a digital compute element (Table 2 defaults). */
struct DceConfig
{
    std::size_t numPipelines = 64;
    PipelineConfig pipeline;
};

/** The digital half of an HCT: a bank of bit-pipelined pipelines. */
class Dce
{
  public:
    explicit Dce(const DceConfig &config, CostTally *tally = nullptr);

    const DceConfig &config() const { return cfg_; }

    std::size_t numPipelines() const { return pipes_.size(); }

    Pipeline &pipeline(std::size_t i);
    const Pipeline &pipeline(std::size_t i) const;

    /** Total in-array ops across all pipelines. */
    u64 opCount() const;

  private:
    DceConfig cfg_;
    std::vector<std::unique_ptr<Pipeline>> pipes_;
};

} // namespace digital
} // namespace darth

#endif // DARTH_DIGITAL_DCE_H
