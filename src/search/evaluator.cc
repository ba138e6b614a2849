#include "search/evaluator.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "nn/trainer.h"

namespace automc {
namespace search {

namespace {

EvalPoint PointFromRecord(const store::EvalRecord& rec) {
  EvalPoint p;
  p.acc = rec.acc;
  p.params = rec.params;
  p.flops = rec.flops;
  p.ar = rec.ar;
  p.pr = rec.pr;
  p.fr = rec.fr;
  return p;
}

bool SamePoint(const EvalPoint& a, const EvalPoint& b) {
  return a.acc == b.acc && a.params == b.params && a.flops == b.flops &&
         a.ar == b.ar && a.pr == b.pr && a.fr == b.fr;
}

}  // namespace

SchemeEvaluator::SchemeEvaluator(const SearchSpace* space,
                                 nn::Model* base_model,
                                 const compress::CompressionContext& ctx,
                                 Options options)
    : space_(space), base_model_(base_model), ctx_(ctx), options_(options) {
  AUTOMC_CHECK(space_ != nullptr);
  AUTOMC_CHECK(base_model_ != nullptr);
  base_point_ = MeasureModel(base_model_);
  CacheEntry root;
  root.model = base_model_->Clone();
  root.point = base_point_;
  cache_.emplace("", std::move(root));
  // The root point is given, not searched for: it never charges budget.
  points_.emplace("", base_point_);
}

std::string SchemeEvaluator::Key(const std::vector<int>& scheme) {
  std::string key;
  key.resize(4 * scheme.size());
  for (size_t i = 0; i < scheme.size(); ++i) {
    uint32_t v = static_cast<uint32_t>(scheme[i]);
    key[4 * i + 0] = static_cast<char>(v & 0xff);
    key[4 * i + 1] = static_cast<char>((v >> 8) & 0xff);
    key[4 * i + 2] = static_cast<char>((v >> 16) & 0xff);
    key[4 * i + 3] = static_cast<char>((v >> 24) & 0xff);
  }
  return key;
}

uint64_t SchemeEvaluator::SpaceFingerprint(const SearchSpace& space) {
  uint64_t count = space.size();
  uint64_t h = store::Fnv1a(&count, sizeof(count));
  for (size_t i = 0; i < space.size(); ++i) {
    const std::string s = space.strategy(i).ToString();
    h = store::Fnv1a(s.data(), s.size(), h);
  }
  return h;
}

uint64_t SchemeEvaluator::ModelFingerprint(nn::Model* model) {
  const nn::ModelSpec& spec = model->spec();
  ByteWriter w;
  w.Str(spec.family);
  w.I32(spec.depth);
  w.I32(spec.num_classes);
  w.I32(spec.base_width);
  w.I32(spec.in_channels);
  w.I32(spec.image_size);
  w.I32(model->weight_bits());
  uint64_t h = store::Fnv1a(w.str().data(), w.str().size());
  for (nn::Param* p : model->Params()) {
    h = store::Fnv1a(p->value.data(),
                     static_cast<size_t>(p->value.numel()) * sizeof(float), h);
  }
  return h;
}

uint64_t SchemeEvaluator::ContextFingerprint(
    const compress::CompressionContext& ctx) {
  ByteWriter w;
  w.I32(ctx.pretrain_epochs);
  w.I32(ctx.batch_size);
  w.F32(ctx.lr);
  w.U64(ctx.seed);
  for (const data::Dataset* split : {ctx.train, ctx.test}) {
    w.I64(split != nullptr ? split->images.numel() : -1);
    w.I64(split != nullptr ? static_cast<int64_t>(split->labels.size()) : -1);
  }
  uint64_t h = store::Fnv1a(w.str().data(), w.str().size());
  for (const data::Dataset* split : {ctx.train, ctx.test}) {
    if (split == nullptr) continue;
    h = store::Fnv1a(split->images.data(),
                     static_cast<size_t>(split->images.numel()) * sizeof(float),
                     h);
    h = store::Fnv1a(split->labels.data(), split->labels.size() * sizeof(int),
                     h);
  }
  return h;
}

Status SchemeEvaluator::AttachStore(store::ExperienceStore* experience_store) {
  AUTOMC_CHECK(experience_store != nullptr);
  store::Fingerprint fp;
  fp.space = SpaceFingerprint(*space_);
  const uint64_t context = ContextFingerprint(ctx_);
  fp.model = store::Fnv1a(&context, sizeof(context),
                          ModelFingerprint(base_model_));
  experience_store->Bind(fp);
  store_ = experience_store;
  // Persist the base point so every depth-1 record has a parent in the log
  // (ExportSteps derives AR/PR steps relative to the parent record).
  return PersistPoint({}, base_point_);
}

std::unique_ptr<nn::Model> SchemeEvaluator::CachedModel(
    const std::vector<int>& scheme) const {
  auto it = cache_.find(Key(scheme));
  return it != cache_.end() ? it->second.model->Clone() : nullptr;
}

EvalPoint SchemeEvaluator::MeasureModel(nn::Model* model) const {
  EvalPoint p;
  p.acc = nn::Trainer::Evaluate(model, *ctx_.test);
  p.params = model->EffectiveParamCount();
  p.flops = model->FlopsPerSample();
  if (base_point_.params > 0) {
    p.ar = base_point_.acc > 0 ? p.acc / base_point_.acc - 1.0 : 0.0;
    p.pr = 1.0 - static_cast<double>(p.params) / base_point_.params;
    p.fr = 1.0 - static_cast<double>(p.flops) / base_point_.flops;
  }
  return p;
}

void SchemeEvaluator::MaybeEvict() {
  while (static_cast<int>(cache_.size()) > options_.max_cached_models + 1) {
    auto victim = cache_.end();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->first.empty()) continue;  // never evict the root
      if (victim == cache_.end() || it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == cache_.end()) break;
    cache_.erase(victim);
    AUTOMC_METRIC_COUNT("evaluator.cache_evictions");
  }
}

void SchemeEvaluator::Insert(std::string_view key,
                             std::unique_ptr<nn::Model> model,
                             const EvalPoint& point) {
  CacheEntry entry;
  entry.model = std::move(model);
  entry.point = point;
  entry.last_used = ++clock_;
  cache_.insert_or_assign(std::string(key), std::move(entry));
  MaybeEvict();
}

void SchemeEvaluator::RecordPoint(std::string_view key,
                                  const EvalPoint& point) {
  auto [it, inserted] = points_.emplace(std::string(key), point);
  (void)it;
  if (inserted) {
    ++charged_executions_;
    AUTOMC_METRIC_COUNT("evaluator.charged_executions");
  }
}

Status SchemeEvaluator::PersistPoint(const std::vector<int>& scheme,
                                     const EvalPoint& point) {
  if (store_ == nullptr) return Status::OK();
  store::EvalRecord rec;
  rec.scheme = scheme;
  rec.acc = point.acc;
  rec.params = point.params;
  rec.flops = point.flops;
  rec.ar = point.ar;
  rec.pr = point.pr;
  rec.fr = point.fr;
  return store_->Append(rec);
}

Result<EvalPoint> SchemeEvaluator::Evaluate(const std::vector<int>& scheme,
                                            EvalPoint* parent_out) {
  return EvaluateInternal(scheme, parent_out, nullptr);
}

Result<EvalPoint> SchemeEvaluator::EvaluateInternal(
    const std::vector<int>& scheme, EvalPoint* parent_out, SpecMap* spec) {
  AUTOMC_SCOPED_TIMER("evaluator.eval_ms");
  AUTOMC_METRIC_COUNT("evaluator.evaluations");
  for (int idx : scheme) {
    if (idx < 0 || static_cast<size_t>(idx) >= space_->size()) {
      return Status::OutOfRange("strategy index out of range: " +
                                std::to_string(idx));
    }
  }

  // Deepest known point. The full key is built once; each prefix probe is an
  // allocation-free string_view lookup (points_ keys are prefix-closed, but
  // scanning deepest-first keeps this robust even if they were not).
  const size_t n = scheme.size();
  const std::string full_key = Key(scheme);
  size_t p_start = 0;
  for (size_t len = n; len > 0; --len) {
    if (points_.find(KeyPrefix(full_key, len)) != points_.end()) {
      p_start = len;
      break;
    }
  }

  if (p_start == n) {
    // The whole scheme was measured (or store-served) earlier this run.
    ++cache_hits_;
    AUTOMC_METRIC_COUNT("evaluator.cache_hits", static_cast<int64_t>(n));
    if (auto it = cache_.find(full_key); it != cache_.end()) {
      it->second.last_used = ++clock_;  // keep hot models resident
    }
    if (parent_out != nullptr) {
      *parent_out = n == 0 ? base_point_
                           : points_.find(KeyPrefix(full_key, n - 1))->second;
    }
    return points_.find(full_key)->second;
  }

  // Path A: the full scheme is persisted. Prefix-closedness of the log means
  // every intermediate point is too, so the entire evaluation is served from
  // the store with zero strategy executions. Each novel point still charges
  // budget so a warm rerun replays the original control flow and terminates.
  if (store_ != nullptr && store_->Contains(scheme)) {
    EvalPoint point = points_.find(KeyPrefix(full_key, p_start))->second;
    EvalPoint parent = point;
    std::vector<int> prefix(scheme.begin(),
                            scheme.begin() + static_cast<long>(p_start));
    bool served = true;
    for (size_t len = p_start + 1; len <= n; ++len) {
      prefix.push_back(scheme[len - 1]);
      const store::EvalRecord* rec = store_->Lookup(prefix);
      if (rec == nullptr) {
        // Foreign log without prefix-closedness; execute what's left instead.
        served = false;
        break;
      }
      parent = point;
      point = PointFromRecord(*rec);
      RecordPoint(KeyPrefix(full_key, len), point);
      ++store_hits_;
    }
    if (served) {
      if (parent_out != nullptr) *parent_out = parent;
      return point;
    }
    // Points recorded above stay valid; recompute the resume depth.
    for (size_t len = n; len > 0; --len) {
      if (points_.find(KeyPrefix(full_key, len)) != points_.end()) {
        p_start = len;
        break;
      }
    }
  }

  // Path B: execute from the deepest model-bearing prefix. Model snapshots
  // are a subset of known points, so m_start <= p_start; steps at or below
  // p_start re-run the compressor (snapshot was evicted) but reuse the known
  // point without re-measuring or re-charging.
  size_t m_start = 0;
  for (size_t len = n; len > 0; --len) {
    if (cache_.find(KeyPrefix(full_key, len)) != cache_.end()) {
      m_start = len;
      break;
    }
  }
  auto base_it = cache_.find(KeyPrefix(full_key, m_start));
  AUTOMC_CHECK(base_it != cache_.end());
  base_it->second.last_used = ++clock_;
  // The cache-hit metric counts strategy executions the prefix cache
  // avoided (a fully cached scheme avoids all of them); misses count the
  // executions that still have to run.
  AUTOMC_METRIC_COUNT("evaluator.cache_hits", static_cast<int64_t>(m_start));
  AUTOMC_METRIC_COUNT("evaluator.cache_misses",
                      static_cast<int64_t>(n - m_start));

  std::unique_ptr<nn::Model> model = base_it->second.model->Clone();
  EvalPoint point = base_it->second.point;
  EvalPoint parent = point;
  std::vector<int> prefix(scheme.begin(),
                          scheme.begin() + static_cast<long>(m_start));
  for (size_t i = m_start; i < n; ++i) {
    const size_t len = i + 1;
    SpecNode* snode = nullptr;
    if (spec != nullptr) {
      auto sit = spec->find(KeyPrefix(full_key, len));
      if (sit != spec->end() && sit->second.model != nullptr) {
        snode = &sit->second;
      }
    }
    if (snode != nullptr) {
      // A worker already ran this strategy speculatively. Node models are
      // pure functions of the scheme prefix (per-node seeding), so adopting
      // the snapshot is bit-identical to re-running the compressor.
      model = std::move(snode->model);
    } else {
      AUTOMC_RETURN_IF_ERROR(
          ApplySchemeStep(*space_, scheme[i], i, ctx_, model.get()));
    }
    ++strategy_executions_;
    AUTOMC_METRIC_COUNT("search.strategy_executions");

    prefix.push_back(scheme[i]);
    parent = point;
    auto pit = points_.find(KeyPrefix(full_key, len));
    if (pit != points_.end()) {
      // Known point whose model snapshot was evicted: the determinism
      // contract guarantees re-measuring would reproduce it bit-for-bit.
      point = pit->second;
    } else {
      const store::EvalRecord* rec =
          store_ != nullptr ? store_->Lookup(prefix) : nullptr;
      if (rec != nullptr) {
        point = PointFromRecord(*rec);
        ++store_hits_;
      } else if (snode != nullptr && snode->measured) {
        point = snode->point;
        AUTOMC_RETURN_IF_ERROR(PersistPoint(prefix, point));
      } else {
        point = MeasureModel(model.get());
        AUTOMC_RETURN_IF_ERROR(PersistPoint(prefix, point));
      }
      RecordPoint(KeyPrefix(full_key, len), point);
    }
    Insert(KeyPrefix(full_key, len), model->Clone(), point);
  }
  if (parent_out != nullptr) *parent_out = parent;
  return point;
}

void SchemeEvaluator::SpeculateChain(
    const std::vector<const std::vector<int>*>& members,
    std::vector<std::pair<std::string, SpecNode>>* out) const {
  std::map<std::string, size_t, std::less<>> done;  // node key -> index in out
  std::set<std::string, std::less<>> failed;
  for (const std::vector<int>* mp : members) {
    const std::vector<int>& scheme = *mp;
    const size_t n = scheme.size();
    const std::string key = Key(scheme);

    // Deepest available model: a node this chain already produced, else the
    // deepest cached snapshot (frozen for the whole speculative phase).
    size_t start = 0;
    const nn::Model* base = nullptr;
    for (size_t len = n; len > 0 && base == nullptr; --len) {
      const std::string_view pk = KeyPrefix(key, len);
      if (auto dit = done.find(pk); dit != done.end()) {
        start = len;
        base = (*out)[dit->second].second.model.get();
      } else if (auto cit = cache_.find(pk); cit != cache_.end()) {
        start = len;
        base = cit->second.model.get();
      }
    }
    if (base == nullptr) base = cache_.find(std::string_view())->second.model.get();

    std::unique_ptr<nn::Model> model;
    std::vector<int> prefix(scheme.begin(),
                            scheme.begin() + static_cast<long>(start));
    for (size_t len = start + 1; len <= n; ++len) {
      const std::string_view pk = KeyPrefix(key, len);
      if (failed.find(pk) != failed.end()) break;
      if (model == nullptr) model = base->Clone();
      const int strategy = scheme[len - 1];
      // The serial path's step: the node's model is a pure function of the
      // scheme prefix, so the commit can adopt it.
      if (!ApplySchemeStep(*space_, strategy, len - 1, ctx_, model.get())
               .ok()) {
        // Record nothing for this node: the commit phase re-executes it
        // serially and surfaces the error at the right scheme index.
        failed.emplace(pk);
        break;
      }
      prefix.push_back(strategy);

      SpecNode node;
      if (auto pit = points_.find(pk); pit != points_.end()) {
        node.point = pit->second;
      } else {
        const store::EvalRecord* rec =
            store_ != nullptr ? store_->Peek(prefix) : nullptr;
        if (rec != nullptr) {
          node.point = PointFromRecord(*rec);
        } else {
          node.point = MeasureModel(model.get());
          node.measured = true;
        }
      }
      node.model = model->Clone();
      out->emplace_back(std::string(pk), std::move(node));
      done.emplace(out->back().first, out->size() - 1);
    }
  }
}

Result<BatchEval> SchemeEvaluator::EvaluateBatch(
    const std::vector<std::vector<int>>& schemes, int64_t charged_limit) {
  AUTOMC_SCOPED_TIMER("eval.batch_ms");
  AUTOMC_METRIC_OBSERVE("eval.batch_size", static_cast<double>(schemes.size()));

  // ---- Phase 1: plan (serial). ----
  // Predict each scheme's charged cost — the prefixes neither in points_ nor
  // claimed by an earlier batch member; commit-time charging records exactly
  // that set — to truncate at charged_limit precisely where the serial
  // loop's per-iteration check would. Schemes that will run compressors are
  // grouped into chains by their entry node (first node past the deepest
  // cached prefix): two schemes share an executed node iff they share the
  // entry node, so chains partition the speculative work and disjoint
  // subtrees fan out in parallel.
  struct Chain {
    std::vector<const std::vector<int>*> members;  // ascending submission order
  };
  std::vector<Chain> chains;
  std::map<std::string, size_t, std::less<>> chain_of_entry;
  std::set<std::string, std::less<>> pending;
  size_t accepted = schemes.size();
  int64_t predicted_charged = charged_executions_;
  for (size_t s = 0; s < schemes.size(); ++s) {
    const std::vector<int>& scheme = schemes[s];
    if (charged_limit >= 0 && predicted_charged >= charged_limit) {
      accepted = s;
      break;
    }
    bool valid = true;
    for (int idx : scheme) {
      if (idx < 0 || static_cast<size_t>(idx) >= space_->size()) valid = false;
    }
    if (!valid) {
      // The commit loop stops with the serial loop's error at index s;
      // speculating past it would be wasted work.
      accepted = s + 1;
      break;
    }
    const std::string key = Key(scheme);
    int64_t novel = 0;
    for (size_t len = 1; len <= scheme.size(); ++len) {
      const std::string_view pk = KeyPrefix(key, len);
      if (points_.find(pk) != points_.end()) continue;
      if (pending.find(pk) != pending.end()) continue;
      ++novel;
      pending.emplace(pk);
    }
    predicted_charged += novel;
    // No speculation needed: fully-known schemes replay from points_, and
    // store-resident ones replay through the store-serving path, both
    // without running a compressor.
    if (novel == 0) continue;
    if (store_ != nullptr && store_->Contains(scheme)) continue;
    size_t entry_len = 0;
    for (size_t len = scheme.size(); len > 0; --len) {
      if (cache_.find(KeyPrefix(key, len)) != cache_.end()) {
        entry_len = len;
        break;
      }
    }
    const std::string entry(KeyPrefix(key, entry_len + 1));
    auto [it, inserted] = chain_of_entry.emplace(entry, chains.size());
    if (inserted) chains.emplace_back();
    chains[it->second].members.push_back(&scheme);
  }

  // ---- Phase 2: speculate (parallel over chains). ----
  SpecMap spec;
  if (!chains.empty()) {
    AUTOMC_METRIC_OBSERVE("eval.parallel_subtrees",
                          static_cast<double>(chains.size()));
    std::vector<std::vector<std::pair<std::string, SpecNode>>> produced(
        chains.size());
    automc::ParallelFor(
        static_cast<int64_t>(chains.size()), 1,
        [&](int64_t b, int64_t e) {
          for (int64_t c = b; c < e; ++c) {
            SpeculateChain(chains[static_cast<size_t>(c)].members,
                           &produced[static_cast<size_t>(c)]);
          }
        });
    for (auto& nodes : produced) {
      for (auto& [key, node] : nodes) {
        spec.emplace(std::move(key), std::move(node));
      }
    }
  }

  // ---- Phase 3: commit (serial, ascending submission order). ----
  BatchEval out;
  out.points.reserve(accepted);
  for (size_t s = 0; s < accepted; ++s) {
    EvalPoint parent;
    AUTOMC_ASSIGN_OR_RETURN(EvalPoint point,
                            EvaluateInternal(schemes[s], &parent, &spec));
    out.points.push_back(point);
    out.parents.push_back(parent);
    out.charged_after.push_back(charged_executions_);
  }
  return out;
}

uint64_t SchemeEvaluator::CacheDigest() const {
  auto mix = [](uint64_t h, const void* data, size_t bytes) {
    return store::Fnv1a(data, bytes, h);
  };
  uint64_t h = store::Fnv1a(&clock_, sizeof(clock_));
  for (const auto& [key, entry] : cache_) {
    h = mix(h, key.data(), key.size());
    h = mix(h, &entry.last_used, sizeof(entry.last_used));
    h = mix(h, &entry.point.acc, sizeof(entry.point.acc));
    h = mix(h, &entry.point.params, sizeof(entry.point.params));
    h = mix(h, &entry.point.flops, sizeof(entry.point.flops));
    h = mix(h, &entry.point.ar, sizeof(entry.point.ar));
    h = mix(h, &entry.point.pr, sizeof(entry.point.pr));
    h = mix(h, &entry.point.fr, sizeof(entry.point.fr));
  }
  return h;
}

void SchemeEvaluator::SnapshotState(ByteWriter* w) const {
  w->U64(points_.size());
  for (const auto& [key, p] : points_) {
    w->Str(key);
    w->F64(p.acc);
    w->I64(p.params);
    w->I64(p.flops);
    w->F64(p.ar);
    w->F64(p.pr);
    w->F64(p.fr);
  }
  w->I64(charged_executions_);
}

Status SchemeEvaluator::RestoreState(std::string_view blob) {
  ByteReader r(blob);
  uint64_t count = 0;
  if (!r.U64(&count)) {
    return Status::InvalidArgument("truncated evaluator snapshot");
  }
  std::map<std::string, EvalPoint, std::less<>> points;
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    EvalPoint p;
    if (!r.Str(&key) || !r.F64(&p.acc) || !r.I64(&p.params) ||
        !r.I64(&p.flops) || !r.F64(&p.ar) || !r.F64(&p.pr) || !r.F64(&p.fr)) {
      return Status::InvalidArgument("truncated evaluator snapshot");
    }
    points[std::move(key)] = p;
  }
  int64_t charged = 0;
  if (!r.I64(&charged)) {
    return Status::InvalidArgument("truncated evaluator snapshot");
  }
  auto root = points.find(std::string());
  if (root == points.end()) {
    return Status::InvalidArgument("evaluator snapshot lacks the base point");
  }
  if (!SamePoint(root->second, base_point_)) {
    return Status::FailedPrecondition(
        "checkpoint base point does not match this base model; the "
        "checkpoint belongs to a different task or seed");
  }
  points_ = std::move(points);
  charged_executions_ = charged;
  return Status::OK();
}

Status ApplySchemeStep(const SearchSpace& space, int strategy, size_t depth,
                       const compress::CompressionContext& ctx,
                       nn::Model* model) {
  const compress::StrategySpec& sspec =
      space.strategy(static_cast<size_t>(strategy));
  AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<compress::Compressor> compressor,
                          compress::CreateCompressor(sspec));
  compress::CompressionContext node_ctx = ctx;
  node_ctx.seed = ctx.seed * 1315423911u +
                  static_cast<uint64_t>(strategy) * 2654435761u +
                  static_cast<uint64_t>(depth);
  Status st = compressor->Compress(model, node_ctx, nullptr);
  if (st.code() == StatusCode::kFailedPrecondition) {
    // The scheme stays well-defined: the step is a no-op, which the search
    // naturally deprioritizes because it brings no improvement.
    AUTOMC_LOG(Debug) << "strategy " << sspec.ToString()
                      << " inapplicable: " << st.ToString();
    return Status::OK();
  }
  return st;
}

}  // namespace search
}  // namespace automc
