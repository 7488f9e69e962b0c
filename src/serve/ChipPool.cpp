#include "serve/ChipPool.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/Logging.h"
#include "journal/Journal.h"

namespace darth
{
namespace serve
{

const char *
placementPolicyName(PlacementPolicy policy)
{
    switch (policy) {
      case PlacementPolicy::RoundRobin:
        return "round_robin";
      case PlacementPolicy::LeastLoaded:
        return "least_loaded";
      case PlacementPolicy::MatrixAffinity:
        return "matrix_affinity";
      case PlacementPolicy::CostAware:
        return "cost_aware";
    }
    darth_panic("placementPolicyName: unknown policy");
}

namespace
{

/** Policies that share placements by non-zero model key. */
bool
sharesByKey(PlacementPolicy policy)
{
    return policy == PlacementPolicy::MatrixAffinity ||
           policy == PlacementPolicy::CostAware;
}

/** Journal note of each ServedModel alternative, in index order. */
constexpr const char *kKindNote[] = {"mvm", "cnn_infer", "llm_infer"};
static_assert(std::size(kKindNote) == std::variant_size_v<ServedModel>);

/** The weight matrices a model programs, in a fixed per-kind order. */
std::vector<const MatrixI *>
weightMatrices(const ServedModel &model)
{
    if (const auto *m = std::get_if<MatrixModel>(&model))
        return {&m->weights};
    if (const auto *net = std::get_if<cnn::TinyCnn>(&model))
        return {&net->conv1().weightMatrix(),
                &net->conv2().weightMatrix(), &net->fc().weightMatrix()};
    const llm::Encoder &enc = std::get<llm::Encoder>(model);
    return {&enc.wq(), &enc.wk(), &enc.wv(),
            &enc.wo(), &enc.wFf1(), &enc.wFf2()};
}

/**
 * Journal one placement decision. `score` is the winning CostAware
 * score (0 under the other policies — they do not score); `shared`
 * marks an affinity reuse of an existing placement.
 */
void
recordPlacement(journal::Journal *jr, ModelRef ref, u64 key,
                std::size_t chip, double score, const char *what,
                bool shared)
{
    if (jr == nullptr)
        return;
    journal::JournalEvent e;
    e.kind = journal::EventKind::Placement;
    e.a = ref;
    e.b = key;
    e.c = chip;
    e.d = journal::doubleBits(score);
    e.note = what;
    e.values = {shared ? i64{1} : i64{0}};
    jr->append(std::move(e));
}

} // namespace

ChipPool::ChipPool(const PoolConfig &cfg) : cfg_(cfg)
{
    if (cfg.backlogWindowNs == 0)
        darth_fatal("ChipPool: backlogWindowNs must be positive "
                    "(it normalizes the CostAware backlog term)");
    if (cfg.chips.empty()) {
        if (cfg.numChips == 0)
            darth_fatal("ChipPool: numChips must be at least 1");
        specs_.assign(cfg.numChips, ChipSpec{});
        for (auto &spec : specs_)
            spec.chip = cfg.chip;
        uniform_ = true;
    } else {
        specs_ = cfg.chips;
        for (const ChipSpec &spec : specs_)
            if (spec.clockGHz <= 0.0)
                darth_fatal("ChipPool: chip '", spec.name,
                            "' has non-positive clock ",
                            spec.clockGHz);
    }
    const std::size_t n = specs_.size();
    // Every slot's clock must be a frequency bin so cycle <-> wall
    // conversions are exact integer arithmetic (throws on others).
    periodPs_.reserve(n);
    for (const ChipSpec &spec : specs_)
        periodPs_.push_back(clockPeriodPs(spec.clockGHz));
    active_.assign(n, true);
    chips_.reserve(n);
    runtimes_.reserve(n);
    sessions_.reserve(n);
    cnnMappers_.reserve(n);
    llmMappers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        chips_.push_back(std::make_unique<runtime::Chip>(
            specs_[i].chip, cfg.seed + i));
        runtimes_.push_back(
            std::make_unique<runtime::Runtime>(*chips_.back()));
        sessions_.push_back(runtimes_.back()->createSession());
        // Mappers are built eagerly (they are cheap: a config and a
        // kernel cost model) so the vectors are immutable after
        // construction — no lazy-init state for worker threads to
        // race on. 12-bit LLM activations: encoder add-norm outputs
        // are integer LayerNorm values (up to ~64 * sqrt(dModel)),
        // which overflow the int8 range the single-MVM kinds use.
        cnnMappers_.push_back(
            std::make_unique<cnn::CnnMapper>(specs_[i].chip.hct));
        llmMappers_.push_back(std::make_unique<llm::LlmMapper>(
            specs_[i].chip.hct, /*element_bits=*/8,
            /*bits_per_cell=*/2, /*input_bits=*/12));
    }
}

const ChipSpec &
ChipPool::spec(std::size_t i) const
{
    if (i >= specs_.size())
        darth_panic("ChipPool::spec: chip ", i, " out of range ",
                    specs_.size());
    return specs_[i];
}

u64
ChipPool::periodPs(std::size_t i) const
{
    if (i >= periodPs_.size())
        darth_panic("ChipPool::periodPs: chip ", i, " out of range ",
                    periodPs_.size());
    return periodPs_[i];
}

WallNs
ChipPool::wallNs(std::size_t chip, Cycle cycles) const
{
    return cycles * periodPs(chip) / kPsPerNs;
}

Cycle
ChipPool::cyclesAt(std::size_t chip, WallNs ns) const
{
    const u64 ps = periodPs(chip);
    return (ns * kPsPerNs + ps - 1) / ps;
}

void
ChipPool::setChipActive(std::size_t chip, bool active)
{
    if (chip >= specs_.size())
        darth_panic("ChipPool::setChipActive: chip ", chip,
                    " out of range ", specs_.size());
    SeqLock lock(mu_);
    active_[chip] = active;
}

bool
ChipPool::chipActive(std::size_t chip) const
{
    if (chip >= specs_.size())
        darth_panic("ChipPool::chipActive: chip ", chip,
                    " out of range ", specs_.size());
    SeqLock lock(mu_);
    return active_[chip];
}

std::size_t
ChipPool::liveModels(std::size_t chip) const
{
    if (chip >= specs_.size())
        darth_panic("ChipPool::liveModels: chip ", chip,
                    " out of range ", specs_.size());
    SeqLock lock(mu_);
    std::size_t count = 0;
    for (const Model &m : models_)
        if (m.live && m.chip == chip)
            ++count;
    return count;
}

bool
ChipPool::heterogeneous() const
{
    for (const ChipSpec &s : specs_)
        if (s.name != specs_.front().name)
            return true;
    return false;
}

runtime::Chip &
ChipPool::chip(std::size_t i)
{
    if (i >= chips_.size())
        darth_panic("ChipPool::chip: chip ", i, " out of range ",
                    chips_.size());
    return *chips_[i];
}

runtime::Runtime &
ChipPool::runtime(std::size_t i)
{
    if (i >= runtimes_.size())
        darth_panic("ChipPool::runtime: chip ", i, " out of range ",
                    runtimes_.size());
    return *runtimes_[i];
}

bool
ChipPool::lessLoaded(std::size_t a, std::size_t b) const
{
    const std::size_t free_a = runtimes_[a]->freeHcts();
    const std::size_t free_b = runtimes_[b]->freeHcts();
    if (free_a != free_b)
        return free_a > free_b;
    const Cycle make_a = runtimes_[a]->scheduler().makespan();
    const Cycle make_b = runtimes_[b]->scheduler().makespan();
    if (make_a != make_b)
        return make_a < make_b;
    return a < b;
}

ChipPool::PlacementQuote
ChipPool::quoteChips(const ServedModel &model)
{
    PlacementQuote quote(chips_.size());
    for (std::size_t c = 0; c < chips_.size(); ++c) {
        if (uniform_ && c > 0) {
            // Identical silicon by construction: one plan (and one
            // deterministic oracle measurement) covers every slot.
            quote.parts[c] = quote.parts[0];
            quote.score[c] = quote.score[0];
            quote.why[c] = quote.why[0];
            continue;
        }
        try {
            // Every weight matrix must fit this one chip.
            const auto [element_bits, bits_per_cell] =
                precision(c, model);
            std::size_t parts = 0;
            for (const MatrixI *w : weightMatrices(model))
                parts += runtime::Runtime::planMatrix(
                             specs_[c].chip.hct, w->rows(), w->cols(),
                             element_bits, bits_per_cell)
                             .parts.size();
            quote.score[c] =
                cfg_.placement == PlacementPolicy::CostAware
                    ? static_cast<double>(oracleCycles(c, model)) /
                          specs_[c].clockGHz
                    : 0.0;
            quote.parts[c] = parts;
        } catch (const std::exception &e) {
            // This chip's silicon cannot map the model; exclude it
            // but keep the reason for the no-chip-fits diagnostic.
            quote.why[c] = e.what();
        }
    }
    // The quote above is the model's *silicon* cost (replicable
    // across uniform slots); the backlog inflation is runtime state
    // and always per slot.
    for (std::size_t c = 0; c < chips_.size(); ++c)
        if (quote.parts[c] != kUnplaceable)
            quote.score[c] *= loadFactor(c);
    return quote;
}

std::size_t
ChipPool::pickChip(const PlacementQuote &quote, const char *what,
                   std::size_t avoid_chip, bool fatal)
{
    const std::size_t n = chips_.size();
    auto fits = [&](std::size_t c) {
        return active_[c] && c != avoid_chip &&
               quote.parts[c] != kUnplaceable &&
               runtimes_[c]->freeHcts() >= quote.parts[c];
    };

    if (cfg_.placement == PlacementPolicy::RoundRobin) {
        for (std::size_t scanned = 0; scanned < n; ++scanned) {
            const std::size_t c = (rrCursor_ + scanned) % n;
            if (fits(c)) {
                rrCursor_ = (c + 1) % n;
                return c;
            }
        }
    } else if (cfg_.placement == PlacementPolicy::CostAware) {
        // Cheapest oracle cost for this shape on that chip's
        // silicon; equal-cost chips (identical specs, typically)
        // fall back to the least-loaded order.
        bool found = false;
        std::size_t best = 0;
        for (std::size_t c = 0; c < n; ++c) {
            if (!fits(c))
                continue;
            if (!found || quote.score[c] < quote.score[best] ||
                (quote.score[c] == quote.score[best] &&
                 lessLoaded(c, best))) {
                found = true;
                best = c;
            }
        }
        if (found)
            return best;
    } else {
        // LeastLoaded (also the MatrixAffinity fallback for keys the
        // pool has not seen): most free tiles, then the chip whose
        // schedule ends soonest, then the lowest index.
        bool found = false;
        std::size_t best = 0;
        for (std::size_t c = 0; c < n; ++c) {
            if (!fits(c))
                continue;
            if (!found || lessLoaded(c, best)) {
                found = true;
                best = c;
            }
        }
        if (found)
            return best;
    }
    // Nothing fits. tryPlace callers handle exhaustion themselves
    // (an aborted migration, a deferred lazy placement) ...
    if (!fatal)
        return kNoChip;
    // ... place reports each chip's quote (tiles needed vs free,
    // inactive/avoided, or why the model could not even be planned
    // there) so a swallowed planning error is not mistaken for
    // exhaustion.
    std::string detail;
    for (std::size_t c = 0; c < n; ++c) {
        detail += " [" + specs_[c].name + std::to_string(c) + ": ";
        if (!active_[c])
            detail += "inactive";
        else if (c == avoid_chip)
            detail += "avoided";
        else if (quote.parts[c] == kUnplaceable)
            detail += "unplaceable (" +
                      (quote.why[c].empty() ? std::string("no plan")
                                            : quote.why[c]) +
                      ")";
        else
            detail += "needs " + std::to_string(quote.parts[c]) +
                      " of " +
                      std::to_string(runtimes_[c]->freeHcts()) +
                      " free tiles";
        detail += "]";
    }
    darth_fatal("ChipPool::place: no chip can take the ", what,
                " placement;", detail,
                " — grow the pool or release models");
}

double
ChipPool::loadFactor(std::size_t chip) const
{
    // Queue pressure in wall time, not request counts or raw
    // cycles: a chip sitting on a backlog of one backlogWindowNs'
    // worth of oracle work looks twice as expensive, so placement
    // trades silicon speed against queue depth across clock domains
    // (and a slower-but-idle chip can win).
    return 1.0 + static_cast<double>(backlogNs(chip)) /
                     static_cast<double>(cfg_.backlogWindowNs);
}

std::pair<int, int>
ChipPool::precision(std::size_t chip, const ServedModel &model) const
{
    if (const auto *m = std::get_if<MatrixModel>(&model))
        return {m->elementBits, m->bitsPerCell};
    if (std::holds_alternative<cnn::TinyCnn>(model))
        return {cnnMappers_[chip]->elementBits(),
                cnnMappers_[chip]->bitsPerCell()};
    return {llmMappers_[chip]->elementBits(),
            llmMappers_[chip]->bitsPerCell()};
}

Cycle
ChipPool::oracleCycles(std::size_t chip, const ServedModel &model)
{
    if (const auto *m = std::get_if<MatrixModel>(&model))
        return runtimes_[chip]->scheduler().oracleCost(
            runtime::Runtime::planMatrix(
                specs_[chip].chip.hct, m->weights.rows(),
                m->weights.cols(), m->elementBits, m->bitsPerCell),
            m->inputBits);
    if (const auto *net = std::get_if<cnn::TinyCnn>(&model))
        return cnnMappers_[chip]->networkCost(net->layerStats()).latency;
    return llmMappers_[chip]
        ->hybridCost(std::get<llm::Encoder>(model).stats())
        .latency;
}

double
ChipPool::placementScore(std::size_t chip, const ServedModel &model)
{
    if (chip >= chips_.size())
        darth_panic("ChipPool::placementScore: chip ", chip,
                    " out of range ", chips_.size());
    return static_cast<double>(oracleCycles(chip, model)) /
           specs_[chip].clockGHz * loadFactor(chip);
}

bool
ChipPool::sameModel(const Model &held, const ServedModel &offered)
{
    if (held.inference == nullptr)
        return std::holds_alternative<MatrixModel>(offered) &&
               held.handle.matrix() ==
                   std::get<MatrixModel>(offered).weights;
    const std::vector<const MatrixI *> mine =
        weightMatrices(held.inference->net);
    const std::vector<const MatrixI *> theirs = weightMatrices(offered);
    return held.inference->net.index() == offered.index() &&
           std::equal(mine.begin(), mine.end(), theirs.begin(),
                      [](const MatrixI *a, const MatrixI *b) {
                          return *a == *b;
                      });
}

ModelRef
ChipPool::place(u64 key, ServedModel model)
{
    return placeImpl(key, std::move(model), kNoChip, /*fatal=*/true);
}

ModelRef
ChipPool::tryPlace(u64 key, ServedModel model, std::size_t avoid_chip)
{
    return placeImpl(key, std::move(model), avoid_chip,
                     /*fatal=*/false);
}

ModelRef
ChipPool::placeImpl(u64 key, ServedModel model, std::size_t avoid_chip,
                    bool fatal)
{
    SeqLock lock(mu_);
    const char *note = kKindNote[model.index()];
    const bool keyed = sharesByKey(cfg_.placement) && key != 0;
    // A named avoid_chip is the migration move: a fresh placement
    // past the affinity table that re-binds the key.
    if (keyed && avoid_chip == kNoChip) {
        const auto it = affinity_.find(key);
        if (it != affinity_.end()) {
            // Sharing silently returns the existing placement; an
            // offered model that differs from what the key names
            // would make every later request silently wrong, so check
            // it (models are small enough for a full compare).
            const Model &held = models_[it->second];
            if (!sameModel(held, model))
                darth_fatal("ChipPool::place: model key ", key,
                            " is already placed with a different "
                            "model; use a fresh key per distinct "
                            "model");
            recordPlacement(journal_, it->second, key, held.chip, 0.0,
                            note, /*shared=*/true);
            return it->second;
        }
    }

    const PlacementQuote quote = quoteChips(model);
    const std::size_t c = pickChip(quote, note, avoid_chip, fatal);
    if (c == kNoChip)
        return kNoModel;

    Model placed;
    placed.key = key;
    placed.chip = c;
    if (const auto *m = std::get_if<MatrixModel>(&model)) {
        placed.handle = sessions_[c].setMatrixBits(
            m->weights, m->elementBits, m->bitsPerCell);
    } else {
        auto inference = std::make_unique<InferenceModel>();
        inference->oracleCost = oracleCycles(c, model);
        inference->net = std::move(model);
        if (const auto *net =
                std::get_if<cnn::TinyCnn>(&inference->net)) {
            inference->cnnFwd = std::make_unique<cnn::TinyCnnForward>(
                sessions_[c], *net, *cnnMappers_[c]);
            inference->inputRows = net->inputSize();
        } else {
            const auto &enc = std::get<llm::Encoder>(inference->net);
            inference->llmFwd = std::make_unique<llm::EncoderForward>(
                sessions_[c], enc, *llmMappers_[c]);
            inference->inputRows =
                enc.config().seqLen * enc.config().dModel;
        }
        placed.inference = std::move(inference);
    }
    models_.push_back(std::move(placed));
    const ModelRef ref = models_.size() - 1;
    if (keyed)
        affinity_[key] = ref;
    recordPlacement(journal_, ref, key, c, quote.score[c], note,
                    /*shared=*/false);
    return ref;
}

void
ChipPool::setJournal(journal::Journal *journal)
{
    SeqLock lock(mu_);
    journal_ = journal;
}

void
ChipPool::releaseModel(ModelRef model)
{
    SeqLock lock(mu_);
    if (model >= models_.size())
        darth_panic("ChipPool::releaseModel: model ", model,
                    " out of range ", models_.size());
    Model &m = models_[model];
    if (!m.live)
        darth_fatal("ChipPool::releaseModel: model ", model,
                    " was already released");
    // Freeing the handles drains any still-queued requests against
    // them (Runtime::freeMatrix) — the serving layer guarantees the
    // model's begun work finished before calling this.
    m.handle.release();
    m.inference.reset();
    m.live = false;
    if (m.key != 0) {
        const auto it = affinity_.find(m.key);
        if (it != affinity_.end() && it->second == model)
            affinity_.erase(it);
    }
}

const ChipPool::Model &
ChipPool::lookupModel(ModelRef model, const char *what) const
{
    SeqLock lock(mu_);
    return modelRef(model, what);
}

bool
ChipPool::isInference(ModelRef model) const
{
    return lookupModel(model, "ChipPool::isInference").inference !=
           nullptr;
}

std::unique_ptr<StagedInference>
ChipPool::beginInference(ModelRef model,
                         const std::vector<i64> &input, Cycle ready)
{
    const Model &m = lookupModel(model, "ChipPool::beginInference");
    if (m.inference == nullptr)
        darth_fatal("ChipPool::beginInference: model ", model,
                    " is a single-MVM model; use submit()/wait()");
    InferenceModel &im = *m.inference;
    if (input.size() != im.inputRows)
        darth_fatal("ChipPool::beginInference: input has ",
                    input.size(), " values but the model needs ",
                    im.inputRows);

    auto inference = std::make_unique<StagedInference>();
    inference->model = model;
    if (im.cnnFwd != nullptr) {
        inference->run = im.cnnFwd->begin(
            std::get<cnn::TinyCnn>(im.net).inputFromFlat(input), ready);
    } else {
        const llm::EncoderConfig &cfg =
            std::get<llm::Encoder>(im.net).config();
        MatrixI tokens(cfg.seqLen, cfg.dModel);
        for (std::size_t t = 0; t < cfg.seqLen; ++t)
            for (std::size_t c = 0; c < cfg.dModel; ++c)
                tokens(t, c) = input[t * cfg.dModel + c];
        inference->run = im.llmFwd->begin(tokens, ready);
    }

    // Normalize the run's per-step nominal costs into admission
    // charges that sum exactly to the whole-inference nominal *in
    // picoseconds* (the clock-independent unit weighted-fair
    // accounting runs in), so per-stage admission charges a request
    // the same total as whole-inference admission would, on any
    // chip.
    const runtime::InferenceRun &run = *inference->run;
    const u64 total = im.oracleCost * periodPs(m.chip);
    u64 weight_sum = 0;
    for (std::size_t i = 0; i < run.stepCount(); ++i)
        weight_sum += run.stepNominal(i);
    inference->stageCharges.resize(run.stepCount(), 0);
    u64 charged = 0;
    for (std::size_t i = 0; i < run.stepCount(); ++i) {
        const u64 charge =
            weight_sum == 0
                ? total / run.stepCount()
                : total * run.stepNominal(i) / weight_sum;
        inference->stageCharges[i] = charge;
        charged += charge;
    }
    // Integer-division remainder lands on the last stage.
    if (!inference->stageCharges.empty())
        inference->stageCharges.back() += total - charged;
    return inference;
}

std::size_t
ChipPool::advanceInference(StagedInference &inference, Cycle admitted)
{
    if (inference.finished())
        darth_fatal("ChipPool::advanceInference: model ",
                    inference.model, "'s run already submitted all ",
                    inference.stageCount(), " stages");
    return inference.run->submitNext(admitted);
}

WallNs
ChipPool::stageDoneNs(StagedInference &inference, std::size_t stage)
{
    const std::size_t chip =
        lookupModel(inference.model, "ChipPool::stageDoneNs").chip;
    return wallNs(chip, inference.run->stepDone(stage));
}

InferenceOutcome
ChipPool::runToCompletion(StagedInference &inference, Cycle admitted)
{
    while (!inference.finished())
        advanceInference(inference, admitted);
    return finishInference(inference);
}

InferenceOutcome
ChipPool::finishInference(StagedInference &inference)
{
    if (!inference.finished())
        darth_fatal("ChipPool::finishInference: model ",
                    inference.model, "'s run submitted only ",
                    inference.submittedStages(), " of ",
                    inference.stageCount(), " stages");
    const runtime::GraphStats stats = inference.run->finish();
    InferenceOutcome outcome;
    outcome.values = inference.run->output();
    outcome.start = stats.start;
    outcome.done = stats.done;
    outcome.mvms = stats.mvmCount;
    return outcome;
}

const ChipPool::Model &
ChipPool::modelRef(ModelRef model, const char *what) const
{
    if (model >= models_.size())
        darth_panic(what, ": model ", model, " out of range ",
                    models_.size());
    if (!models_[model].live)
        darth_fatal(what, ": model ", model,
                    " was released (migrated away or departed); the "
                    "ModelRef is no longer valid");
    return models_[model];
}

std::size_t
ChipPool::modelChip(ModelRef model) const
{
    return lookupModel(model, "ChipPool::modelChip").chip;
}

const runtime::MatrixPlan &
ChipPool::modelPlan(ModelRef model) const
{
    const Model &m = lookupModel(model, "ChipPool::modelPlan");
    if (m.inference != nullptr)
        darth_fatal("ChipPool::modelPlan: model ", model,
                    " is an inference model spanning several "
                    "placements");
    return m.handle.plan();
}

std::size_t
ChipPool::modelRows(ModelRef model) const
{
    const Model &m = lookupModel(model, "ChipPool::modelRows");
    if (m.inference != nullptr)
        return m.inference->inputRows;
    return m.handle.plan().rows;
}

Cycle
ChipPool::nominalServiceCycles(ModelRef model, int input_bits)
{
    const Model &m =
        lookupModel(model, "ChipPool::nominalServiceCycles");
    if (m.inference != nullptr)
        return m.inference->oracleCost;
    // The owning chip's scheduler caches kernel oracle measurements;
    // its backlogCycles() sums the same per-request cost.
    return runtimes_[m.chip]->scheduler().oracleCost(m.handle.plan(),
                                                     input_bits);
}

u64
ChipPool::nominalServicePs(ModelRef model, int input_bits)
{
    const std::size_t chip =
        lookupModel(model, "ChipPool::nominalServicePs").chip;
    return nominalServiceCycles(model, input_bits) * periodPs(chip);
}

runtime::MvmFuture
ChipPool::submit(ModelRef model, std::vector<i64> x, int input_bits,
                 Cycle earliest)
{
    const Model &m = lookupModel(model, "ChipPool::submit");
    if (m.inference != nullptr)
        darth_fatal("ChipPool::submit: model ", model,
                    " is an inference model; use beginInference()");
    return sessions_[m.chip].submit(m.handle, std::move(x), input_bits,
                                    earliest);
}

runtime::MvmResult
ChipPool::wait(ModelRef model, const runtime::MvmFuture &future)
{
    const Model &m = lookupModel(model, "ChipPool::wait");
    return sessions_[m.chip].wait(future);
}

std::size_t
ChipPool::freeHcts(std::size_t chip) const
{
    if (chip >= runtimes_.size())
        darth_panic("ChipPool::freeHcts: chip ", chip,
                    " out of range ", runtimes_.size());
    return runtimes_[chip]->freeHcts();
}

Cycle
ChipPool::backlogCycles(std::size_t chip) const
{
    if (chip >= runtimes_.size())
        darth_panic("ChipPool::backlogCycles: chip ", chip,
                    " out of range ", runtimes_.size());
    return runtimes_[chip]->scheduler().backlogCycles();
}

WallNs
ChipPool::backlogNs(std::size_t chip) const
{
    return wallNs(chip, backlogCycles(chip));
}

WallNs
ChipPool::makespanNs() const
{
    WallNs max = 0;
    for (std::size_t c = 0; c < runtimes_.size(); ++c)
        max = std::max(max,
                       wallNs(c, runtimes_[c]->scheduler().makespan()));
    return max;
}

} // namespace serve
} // namespace darth
