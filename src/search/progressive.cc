#include "search/progressive.h"

#include <algorithm>
#include <unordered_set>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "search/pareto.h"
#include "search/snapshot_util.h"

namespace automc {
namespace search {

using tensor::Tensor;

namespace {

// One node of the explored scheme tree H_scheme.
struct Node {
  std::vector<int> scheme;
  EvalPoint point;
  std::unordered_set<int> explored_children;
};

void WriteExample(ByteWriter* w, const FmoExample& ex) {
  w->U32(static_cast<uint32_t>(ex.sequence.size()));
  for (const Tensor& t : ex.sequence) WriteTensor(w, t);
  WriteTensor(w, ex.candidate);
  WriteTensor(w, ex.task);
  w->F32(ex.ar_step);
  w->F32(ex.pr_step);
}

bool ReadExample(ByteReader* r, FmoExample* ex) {
  uint32_t n = 0;
  if (!r->U32(&n)) return false;
  for (uint32_t i = 0; i < n; ++i) {
    if (!ReadTensor(r, &ex->sequence.emplace_back())) return false;
  }
  return ReadTensor(r, &ex->candidate) && ReadTensor(r, &ex->task) &&
         r->F32(&ex->ar_step) && r->F32(&ex->pr_step);
}

}  // namespace

struct ProgressiveSearcher::State {
  Rng rng;
  Archive archive;
  Fmo fmo;
  std::vector<FmoExample> replay;
  std::vector<Node> nodes;

  State(const SearchConfig& config, int64_t embed_dim, int64_t task_dim)
      : rng(config.seed + 9000),
        archive(config.gamma),
        fmo(embed_dim, task_dim, config.seed + 77) {}
};

ProgressiveSearcher::ProgressiveSearcher(std::vector<Tensor> embeddings,
                                         Tensor task_features)
    : ProgressiveSearcher(std::move(embeddings), std::move(task_features),
                          Options{}) {}

ProgressiveSearcher::ProgressiveSearcher(std::vector<Tensor> embeddings,
                                         Tensor task_features, Options options)
    : embeddings_(std::move(embeddings)),
      task_features_(std::move(task_features)),
      options_(options) {}

ProgressiveSearcher::~ProgressiveSearcher() = default;

Status ProgressiveSearcher::Snapshot(std::string* blob) {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("no search in flight");
  }
  State& s = *state_;
  ByteWriter w;
  w.Str(s.rng.SaveState());
  s.archive.Snapshot(&w);
  s.fmo.Snapshot(&w);
  w.U32(static_cast<uint32_t>(s.nodes.size()));
  for (const Node& node : s.nodes) {
    w.Ints(node.scheme);
    WritePoint(&w, node.point);
    // Sorted for a canonical blob (set semantics are order-free).
    std::vector<int> children(node.explored_children.begin(),
                              node.explored_children.end());
    std::sort(children.begin(), children.end());
    w.Ints(children);
  }
  w.U32(static_cast<uint32_t>(s.replay.size()));
  for (const FmoExample& ex : s.replay) WriteExample(&w, ex);
  *blob = w.Take();
  return Status::OK();
}

Status ProgressiveSearcher::Restore(std::string_view blob) {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("no search in flight");
  }
  State& s = *state_;
  ByteReader r(blob);
  std::string rng_state;
  uint32_t node_count = 0;
  if (!r.Str(&rng_state) || !s.rng.LoadState(rng_state) ||
      !s.archive.Restore(&r) || !s.fmo.Restore(&r) || !r.U32(&node_count)) {
    return Status::InvalidArgument("corrupted AutoMC searcher snapshot");
  }
  // Append as entries decode: a declared count must not size memory.
  std::vector<Node> nodes;
  for (uint32_t i = 0; i < node_count; ++i) {
    Node& node = nodes.emplace_back();
    std::vector<int> children;
    if (!r.Ints(&node.scheme) || !ReadPoint(&r, &node.point) ||
        !r.Ints(&children)) {
      return Status::InvalidArgument("corrupted AutoMC searcher snapshot");
    }
    node.explored_children.insert(children.begin(), children.end());
  }
  uint32_t replay_count = 0;
  if (!r.U32(&replay_count)) {
    return Status::InvalidArgument("corrupted AutoMC searcher snapshot");
  }
  std::vector<FmoExample> replay;
  for (uint32_t i = 0; i < replay_count; ++i) {
    if (!ReadExample(&r, &replay.emplace_back())) {
      return Status::InvalidArgument("corrupted AutoMC searcher snapshot");
    }
  }
  s.nodes = std::move(nodes);
  s.replay = std::move(replay);
  return Status::OK();
}

Result<SearchOutcome> ProgressiveSearcher::Search(SchemeEvaluator* evaluator,
                                                  const SearchSpace& space,
                                                  const SearchConfig& config) {
  if (space.size() == 0) return Status::InvalidArgument("empty search space");
  if (embeddings_.size() != space.size()) {
    return Status::InvalidArgument(
        "embedding count does not match search space size");
  }
  state_ = std::make_unique<State>(config, embeddings_[0].numel(),
                                   task_features_.numel());
  AUTOMC_ASSIGN_OR_RETURN(bool restored,
                          MaybeRestoreSearch(this, evaluator, config));
  State& s = *state_;

  if (!restored) {
    // Warm-start F_mo on measured experience before the first round. A
    // resumed run skips this: the restored weights already contain it.
    if (!warm_start_.empty()) {
      for (int epoch = 0; epoch < 20; ++epoch) {
        std::vector<FmoExample> batch;
        for (int i = 0; i < 16; ++i) {
          batch.push_back(warm_start_[static_cast<size_t>(
              s.rng.UniformInt(static_cast<int64_t>(warm_start_.size())))]);
        }
        AUTOMC_SCOPED_TIMER("search.fmo_train_ms");
        s.fmo.TrainBatch(batch);
      }
      s.replay = warm_start_;
      if (static_cast<int>(s.replay.size()) > options_.max_replay) {
        s.replay.resize(static_cast<size_t>(options_.max_replay));
      }
    }
    // Line 1: H_scheme starts from the START node (the uncompressed model).
    s.nodes.push_back(Node{{}, evaluator->base_point(), {}});
  }

  auto scheme_embeddings = [&](const std::vector<int>& scheme) {
    std::vector<Tensor> seq;
    seq.reserve(scheme.size());
    for (int st : scheme) seq.push_back(embeddings_[static_cast<size_t>(st)]);
    return seq;
  };

  while (evaluator->charged_executions() < config.max_strategy_executions) {
    AUTOMC_RETURN_IF_ERROR(CheckStop(this, evaluator, config));
    // Line 3: sample H_sub — all current Pareto-optimal nodes first, then
    // random extras (the paper samples "Pareto-Optimal and evaluated
    // schemes").
    std::vector<size_t> extendable;
    for (size_t i = 0; i < s.nodes.size(); ++i) {
      if (static_cast<int>(s.nodes[i].scheme.size()) < config.max_length) {
        extendable.push_back(i);
      }
    }
    if (extendable.empty()) break;
    std::vector<std::pair<double, double>> objs;
    objs.reserve(extendable.size());
    for (size_t i : extendable) {
      objs.push_back({s.nodes[i].point.acc,
                      -static_cast<double>(s.nodes[i].point.params)});
    }
    std::vector<size_t> h_sub;
    for (size_t fi : ParetoFrontIndices(objs)) h_sub.push_back(extendable[fi]);
    AUTOMC_METRIC_COUNT("search.progressive.rounds");
    AUTOMC_METRIC_OBSERVE("search.progressive.pareto_front_size",
                          static_cast<double>(h_sub.size()));
    s.rng.Shuffle(&h_sub);
    if (static_cast<int>(h_sub.size()) > options_.sample_schemes) {
      h_sub.resize(static_cast<size_t>(options_.sample_schemes));
    }
    while (static_cast<int>(h_sub.size()) < options_.sample_schemes &&
           h_sub.size() < extendable.size()) {
      size_t pick = extendable[static_cast<size_t>(
          s.rng.UniformInt(static_cast<int64_t>(extendable.size())))];
      if (std::find(h_sub.begin(), h_sub.end(), pick) == h_sub.end()) {
        h_sub.push_back(pick);
      }
    }

    // Line 4: S_step — unexplored one-step extensions (subsampled).
    // Two phases so candidate scoring can fan out: the rng draws stay in a
    // serial pass (preserving the exact random sequence regardless of the
    // thread count), then the F_mo forward passes — pure, const, and by far
    // the dominant cost of a round — run in parallel over the candidate set.
    struct Candidate {
      size_t node;
      int strategy;
      double pred_acc;   // ACC_{seq,s}
      double pred_par;   // PAR_{seq,s}
    };
    std::vector<Candidate> candidates;
    std::vector<const std::vector<Tensor>*> cand_seq;
    std::vector<std::vector<Tensor>> seqs;
    seqs.reserve(h_sub.size());
    for (size_t ni : h_sub) {
      Node& node = s.nodes[ni];
      seqs.push_back(scheme_embeddings(node.scheme));
      const std::vector<Tensor>& seq = seqs.back();
      for (int c = 0; c < options_.candidates_per_scheme; ++c) {
        int cand_strategy = static_cast<int>(
            s.rng.UniformInt(static_cast<int64_t>(space.size())));
        if (node.explored_children.count(cand_strategy)) continue;
        Candidate cand;
        cand.node = ni;
        cand.strategy = cand_strategy;
        cand.pred_acc = 0.0;
        cand.pred_par = 0.0;
        candidates.push_back(cand);
        cand_seq.push_back(&seq);
      }
    }
    if (candidates.empty()) break;
    // Line 5 scoring (Equation 4), parallel over candidates; each writes
    // only its own slot.
    automc::ParallelFor(
        static_cast<int64_t>(candidates.size()), 1,
        [&](int64_t b, int64_t e) {
          for (int64_t i = b; i < e; ++i) {
            Candidate& cand = candidates[static_cast<size_t>(i)];
            const Node& node = s.nodes[cand.node];
            auto [ar_step, pr_step] = s.fmo.Predict(
                *cand_seq[static_cast<size_t>(i)],
                embeddings_[static_cast<size_t>(cand.strategy)],
                task_features_);
            cand.pred_acc = node.point.acc * (1.0 + ar_step);
            cand.pred_par =
                static_cast<double>(node.point.params) * (1.0 - pr_step);
          }
        });
    AUTOMC_METRIC_COUNT("search.progressive.candidates_expanded",
                        static_cast<int64_t>(candidates.size()));

    // Line 5: ParetoO = argmax [ACC, PAR] (maximize ACC, minimize PAR).
    std::vector<std::pair<double, double>> cand_objs;
    cand_objs.reserve(candidates.size());
    for (const Candidate& c : candidates) {
      cand_objs.push_back({c.pred_acc, -c.pred_par});
    }
    std::vector<size_t> pareto = ParetoFrontIndices(cand_objs);
    s.rng.Shuffle(&pareto);
    if (static_cast<int>(pareto.size()) > options_.max_evals_per_round) {
      pareto.resize(static_cast<size_t>(options_.max_evals_per_round));
    }

    // Line 6: evaluate the selected extensions as one batch (prefix-cached,
    // so each costs one strategy execution; siblings of distinct parents fan
    // out across the pool). The charged-budget truncation inside
    // EvaluateBatch reproduces the old per-candidate check, so the round is
    // trajectory-identical to the serial loop.
    std::vector<std::vector<int>> round;
    round.reserve(pareto.size());
    for (size_t pi : pareto) {
      const Candidate& cand = candidates[pi];
      std::vector<int> child_scheme = s.nodes[cand.node].scheme;
      child_scheme.push_back(cand.strategy);
      round.push_back(std::move(child_scheme));
    }
    AUTOMC_ASSIGN_OR_RETURN(
        BatchEval evald,
        evaluator->EvaluateBatch(round, config.max_strategy_executions));

    std::vector<FmoExample> batch;
    for (size_t i = 0; i < evald.points.size(); ++i) {
      const Candidate& cand = candidates[pareto[i]];
      Node& parent = s.nodes[cand.node];
      const EvalPoint& point = evald.points[i];
      const EvalPoint& parent_point = evald.parents[i];
      parent.explored_children.insert(cand.strategy);
      s.archive.Record(round[i], point,
                       static_cast<int>(evald.charged_after[i]));

      // Measured step effects for Equation 5.
      FmoExample ex;
      ex.sequence = scheme_embeddings(parent.scheme);
      ex.candidate = embeddings_[static_cast<size_t>(cand.strategy)];
      ex.task = task_features_;
      ex.ar_step = parent_point.acc > 0
                       ? static_cast<float>(point.acc / parent_point.acc - 1.0)
                       : 0.0f;
      ex.pr_step = parent_point.params > 0
                       ? static_cast<float>(
                             1.0 - static_cast<double>(point.params) /
                                       parent_point.params)
                       : 0.0f;
      batch.push_back(ex);

      // Line 8: the new scheme joins H_scheme.
      s.nodes.push_back(Node{std::move(round[i]), point, {}});
    }
    if (batch.empty()) continue;

    // Line 7: optimize F_mo on fresh transitions plus replay.
    for (const FmoExample& ex : batch) {
      if (static_cast<int>(s.replay.size()) < options_.max_replay) {
        s.replay.push_back(ex);
      } else {
        s.replay[static_cast<size_t>(
            s.rng.UniformInt(static_cast<int64_t>(s.replay.size())))] = ex;
      }
    }
    std::vector<FmoExample> train_batch = batch;
    for (int extra = 0; extra < 8 && !s.replay.empty(); ++extra) {
      train_batch.push_back(s.replay[static_cast<size_t>(
          s.rng.UniformInt(static_cast<int64_t>(s.replay.size())))]);
    }
    {
      AUTOMC_SCOPED_TIMER("search.fmo_train_ms");
      s.fmo.TrainBatch(train_batch);
    }
    AUTOMC_RETURN_IF_ERROR(CheckpointRound(this, evaluator, config));
  }

  return s.archive.Finalize(static_cast<int>(evaluator->charged_executions()));
}

}  // namespace search
}  // namespace automc
