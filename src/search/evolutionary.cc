#include "search/evolutionary.h"

#include <algorithm>

#include "common/metrics.h"
#include "search/pareto.h"
#include "search/snapshot_util.h"

namespace automc {
namespace search {

namespace {

struct Individual {
  std::vector<int> scheme;
  EvalPoint point;
};

// Feasibility-aware bi-objective comparison: feasible (pr >= gamma) beats
// infeasible; between two feasible, Pareto domination on (acc, -params);
// between two infeasible, smaller constraint violation wins.
int Compare(const Individual& a, const Individual& b, double gamma) {
  bool fa = a.point.pr >= gamma, fb = b.point.pr >= gamma;
  if (fa != fb) return fa ? 1 : -1;
  if (!fa) {
    double va = gamma - a.point.pr, vb = gamma - b.point.pr;
    if (va < vb) return 1;
    if (va > vb) return -1;
    return 0;
  }
  std::pair<double, double> pa{a.point.acc, -static_cast<double>(a.point.params)};
  std::pair<double, double> pb{b.point.acc, -static_cast<double>(b.point.params)};
  if (Dominates(pa, pb)) return 1;
  if (Dominates(pb, pa)) return -1;
  return 0;
}

}  // namespace

struct EvolutionarySearcher::State {
  Rng rng;
  Archive archive;
  std::vector<Individual> population;
  bool initialized = false;  // population build completed

  explicit State(const SearchConfig& config)
      : rng(config.seed + 1000), archive(config.gamma) {}
};

EvolutionarySearcher::EvolutionarySearcher() : options_(Options{}) {}
EvolutionarySearcher::EvolutionarySearcher(Options options)
    : options_(options) {}
EvolutionarySearcher::~EvolutionarySearcher() = default;

Status EvolutionarySearcher::Snapshot(std::string* blob) {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("no search in flight");
  }
  ByteWriter w;
  w.Str(state_->rng.SaveState());
  state_->archive.Snapshot(&w);
  w.U32(static_cast<uint32_t>(state_->population.size()));
  for (const Individual& ind : state_->population) {
    w.Ints(ind.scheme);
    WritePoint(&w, ind.point);
  }
  *blob = w.Take();
  return Status::OK();
}

Status EvolutionarySearcher::Restore(std::string_view blob) {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("no search in flight");
  }
  ByteReader r(blob);
  std::string rng_state;
  uint32_t count = 0;
  if (!r.Str(&rng_state) || !state_->rng.LoadState(rng_state) ||
      !state_->archive.Restore(&r) || !r.U32(&count)) {
    return Status::InvalidArgument("corrupted Evolution searcher snapshot");
  }
  std::vector<Individual> population;
  for (uint32_t i = 0; i < count; ++i) {
    Individual& ind = population.emplace_back();
    if (!r.Ints(&ind.scheme) || !ReadPoint(&r, &ind.point)) {
      return Status::InvalidArgument("corrupted Evolution searcher snapshot");
    }
  }
  state_->population = std::move(population);
  state_->initialized = true;
  return Status::OK();
}

Result<SearchOutcome> EvolutionarySearcher::Search(SchemeEvaluator* evaluator,
                                                   const SearchSpace& space,
                                                   const SearchConfig& config) {
  if (space.size() == 0) return Status::InvalidArgument("empty search space");
  state_ = std::make_unique<State>(config);
  AUTOMC_RETURN_IF_ERROR(MaybeRestoreSearch(this, evaluator, config).status());
  State& s = *state_;
  auto budget_left = [&]() {
    return evaluator->charged_executions() < config.max_strategy_executions;
  };
  auto random_strategy = [&]() {
    return static_cast<int>(
        s.rng.UniformInt(static_cast<int64_t>(space.size())));
  };

  // Initial population of short random schemes (skipped after a resume: the
  // restored population is the crashed run's). Drawn serially, evaluated as
  // one batch; the budget truncation drops the same tail individuals the
  // old per-individual check would have.
  if (!s.initialized) {
    std::vector<std::vector<int>> init;
    init.reserve(static_cast<size_t>(options_.population));
    for (int p = 0; p < options_.population; ++p) {
      std::vector<int> scheme;
      int64_t len = 1 + s.rng.UniformInt(std::min(3, config.max_length));
      for (int64_t i = 0; i < len; ++i) scheme.push_back(random_strategy());
      init.push_back(std::move(scheme));
    }
    AUTOMC_ASSIGN_OR_RETURN(
        BatchEval batch,
        evaluator->EvaluateBatch(init, config.max_strategy_executions));
    for (size_t i = 0; i < batch.points.size(); ++i) {
      Individual ind;
      ind.scheme = std::move(init[i]);
      ind.point = batch.points[i];
      s.archive.Record(ind.scheme, ind.point,
                       static_cast<int>(batch.charged_after[i]));
      s.population.push_back(std::move(ind));
    }
    s.initialized = true;
  }
  if (s.population.empty()) {
    return s.archive.Finalize(
        static_cast<int>(evaluator->charged_executions()));
  }

  auto tournament = [&]() -> const Individual& {
    const Individual& a =
        s.population[static_cast<size_t>(s.rng.UniformInt(s.population.size()))];
    const Individual& b =
        s.population[static_cast<size_t>(s.rng.UniformInt(s.population.size()))];
    return Compare(a, b, config.gamma) >= 0 ? a : b;
  };

  // One offspring via crossover + mutation against the current population.
  auto breed = [&]() {
    std::vector<int> child = tournament().scheme;
    if (s.rng.Bernoulli(options_.crossover_prob)) {
      const std::vector<int>& other = tournament().scheme;
      size_t cut_a = static_cast<size_t>(s.rng.UniformInt(
          static_cast<int64_t>(child.size()) + 1));
      size_t cut_b = static_cast<size_t>(s.rng.UniformInt(
          static_cast<int64_t>(other.size()) + 1));
      std::vector<int> merged(child.begin(),
                              child.begin() + static_cast<int64_t>(cut_a));
      merged.insert(merged.end(), other.begin() + static_cast<int64_t>(cut_b),
                    other.end());
      if (!merged.empty()) child = std::move(merged);
    }
    if (s.rng.Bernoulli(options_.mutate_prob) || child.empty()) {
      int64_t op = s.rng.UniformInt(3);
      if (op == 0 && static_cast<int>(child.size()) < config.max_length) {
        child.push_back(random_strategy());
      } else if (op == 1 && child.size() > 1) {
        child.erase(child.begin() +
                    s.rng.UniformInt(static_cast<int64_t>(child.size())));
      } else if (!child.empty()) {
        child[static_cast<size_t>(
            s.rng.UniformInt(static_cast<int64_t>(child.size())))] =
            random_strategy();
      } else {
        child.push_back(random_strategy());
      }
    }
    if (static_cast<int>(child.size()) > config.max_length) {
      child.resize(static_cast<size_t>(config.max_length));
    }
    return child;
  };

  while (budget_left()) {
    AUTOMC_RETURN_IF_ERROR(CheckStop(this, evaluator, config));
    // Generational round: breed eval_batch offspring from the population as
    // it stands at the top of the round (replacement happens only after the
    // whole batch evaluated), submit them as one batch, then fold survivors
    // back in ascending submission order.
    std::vector<std::vector<int>> round;
    round.reserve(static_cast<size_t>(config.eval_batch));
    for (int b = 0; b < config.eval_batch; ++b) round.push_back(breed());
    AUTOMC_ASSIGN_OR_RETURN(
        BatchEval batch,
        evaluator->EvaluateBatch(round, config.max_strategy_executions));
    for (size_t i = 0; i < batch.points.size(); ++i) {
      Individual offspring;
      offspring.scheme = std::move(round[i]);
      offspring.point = batch.points[i];
      s.archive.Record(offspring.scheme, offspring.point,
                       static_cast<int>(batch.charged_after[i]));
      AUTOMC_METRIC_COUNT("search.evolutionary.candidates_expanded");

      // Replacement of the worst member, in submission order.
      size_t worst = 0;
      for (size_t j = 1; j < s.population.size(); ++j) {
        if (Compare(s.population[j], s.population[worst], config.gamma) < 0) {
          worst = j;
        }
      }
      if (Compare(offspring, s.population[worst], config.gamma) > 0) {
        s.population[worst] = std::move(offspring);
      }
    }
    AUTOMC_METRIC_COUNT("search.evolutionary.rounds");
    AUTOMC_METRIC_OBSERVE("search.evolutionary.pareto_front_size",
                          static_cast<double>(s.archive.ParetoFrontSize()));
    AUTOMC_RETURN_IF_ERROR(CheckpointRound(this, evaluator, config));
  }
  return s.archive.Finalize(static_cast<int>(evaluator->charged_executions()));
}

}  // namespace search
}  // namespace automc
