#include "store/experience_store.h"

#include "common/bytes.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "store/experience_index.h"

namespace automc {
namespace store {

std::string EncodeExperiencePayload(const Fingerprint& fp,
                                    const EvalRecord& rec) {
  ByteWriter w;
  w.U64(fp.space);
  w.U64(fp.model);
  w.Ints(rec.scheme);
  w.F64(rec.acc);
  w.I64(rec.params);
  w.I64(rec.flops);
  w.F64(rec.ar);
  w.F64(rec.pr);
  w.F64(rec.fr);
  w.Floats(rec.task_features.data(), rec.task_features.size());
  return w.Take();
}

bool DecodeExperiencePayload(std::string_view payload, Fingerprint* fp,
                             EvalRecord* rec) {
  ByteReader r(payload);
  return r.U64(&fp->space) && r.U64(&fp->model) && r.Ints(&rec->scheme) &&
         r.F64(&rec->acc) && r.I64(&rec->params) && r.I64(&rec->flops) &&
         r.F64(&rec->ar) && r.F64(&rec->pr) && r.F64(&rec->fr) &&
         r.Floats(&rec->task_features) && r.Done();
}

std::string ExperienceKeyBytes(const Fingerprint& fp,
                               const std::vector<int>& scheme) {
  ByteWriter w;
  w.U64(fp.space);
  w.U64(fp.model);
  for (int s : scheme) w.I32(s);
  return w.Take();
}

uint64_t Fnv1a(const void* data, size_t n, uint64_t seed) {
  uint64_t h = seed;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string ExperienceFileHeader() {
  ByteWriter w;
  w.Raw(kExperienceMagic, 4);
  w.U32(kExperienceVersion);
  return w.Take();
}

Result<std::unique_ptr<ExperienceStore>> ExperienceStore::Open(
    const std::string& path) {
  auto store = std::unique_ptr<ExperienceStore>(new ExperienceStore());
  store->path_ = path;
  ExperienceStore* st = store.get();
  uint64_t dropped = 0;
  // Replays every valid record; a torn tail (or a header torn at creation)
  // is cut off so appends continue from the last valid record. A foreign
  // or future-format file is refused rather than destroyed.
  AUTOMC_ASSIGN_OR_RETURN(
      store->log_,
      durable::FramedLog::OpenForAppend(
          path, ExperienceFileHeader(), 0, kExperienceMaxPayload,
          [st](uint64_t, std::string_view payload) {
            Fingerprint fp;
            EvalRecord rec;
            if (!DecodeExperiencePayload(payload, &fp, &rec)) return false;
            auto [it, inserted] = st->index_.insert_or_assign(
                ExperienceKeyBytes(fp, rec.scheme), std::move(rec));
            if (inserted) st->order_.emplace_back(fp, &it->second);
            ++st->recovered_;
            return true;
          },
          &dropped));
  store->truncated_bytes_ = static_cast<int64_t>(dropped);
  if (dropped > 0) {
    AUTOMC_LOG(Warning) << "experience store " << path << ": dropped "
                        << dropped << " torn trailing bytes ("
                        << store->recovered_ << " records recovered)";
  }
  AUTOMC_METRIC_COUNT("store.recovered", store->recovered_);
  AUTOMC_METRIC_COUNT("store.truncated_bytes", store->truncated_bytes_);
  return store;
}

const EvalRecord* ExperienceStore::SharedProbe(
    const std::vector<int>& scheme) const {
  if (shared_ == nullptr) return nullptr;
  std::string key = ExperienceKeyBytes(bound_, scheme);
  std::unique_lock<std::mutex> lock(shared_mu_);
  if (auto it = shared_cache_.find(key); it != shared_cache_.end()) {
    return &it->second;
  }
  EvalRecord rec;
  Result<bool> found = shared_->Find(bound_, scheme, &rec);
  if (!found.ok() || !*found) return nullptr;
  AUTOMC_METRIC_COUNT("store.shared_hits");
  auto [it, inserted] = shared_cache_.emplace(std::move(key), std::move(rec));
  return &it->second;
}

const EvalRecord* ExperienceStore::Lookup(const std::vector<int>& scheme) {
  auto it = index_.find(ExperienceKeyBytes(bound_, scheme));
  if (it != index_.end()) {
    ++hits_;
    AUTOMC_METRIC_COUNT("store.hits");
    return &it->second;
  }
  if (const EvalRecord* rec = SharedProbe(scheme); rec != nullptr) {
    ++hits_;
    AUTOMC_METRIC_COUNT("store.hits");
    return rec;
  }
  ++misses_;
  AUTOMC_METRIC_COUNT("store.misses");
  return nullptr;
}

const EvalRecord* ExperienceStore::Peek(const std::vector<int>& scheme) const {
  auto it = index_.find(ExperienceKeyBytes(bound_, scheme));
  if (it != index_.end()) return &it->second;
  return SharedProbe(scheme);
}

bool ExperienceStore::Contains(const std::vector<int>& scheme) const {
  if (index_.count(ExperienceKeyBytes(bound_, scheme)) > 0) return true;
  return SharedProbe(scheme) != nullptr;
}

Status ExperienceStore::Append(const EvalRecord& record) {
  std::string key = ExperienceKeyBytes(bound_, record.scheme);
  if (index_.count(key) > 0) return Status::OK();  // determinism: no change

  EvalRecord stored = record;
  stored.task_features = task_features_;
  // One sync per append: appends are measured in strategy executions
  // (seconds each), so full durability costs nothing by comparison.
  AUTOMC_RETURN_IF_ERROR(log_.Append(EncodeExperiencePayload(bound_, stored)));
  AUTOMC_RETURN_IF_ERROR(log_.Sync());

  auto [it, inserted] = index_.insert_or_assign(key, std::move(stored));
  if (inserted) order_.emplace_back(bound_, &it->second);
  ++appends_;
  AUTOMC_METRIC_COUNT("store.appends");
  return Status::OK();
}

std::vector<ExperienceStep> ExperienceStore::ExportSteps(
    uint64_t space_fp, uint64_t limit_records) const {
  std::vector<ExperienceStep> steps;
  size_t n = order_.size();
  if (limit_records > 0 && limit_records < n) {
    n = static_cast<size_t>(limit_records);
  }
  for (size_t i = 0; i < n; ++i) {
    const auto& [fp, rec] = order_[i];
    if (fp.space != space_fp || rec->scheme.empty()) continue;
    if (rec->task_features.empty()) continue;  // no task context recorded
    std::vector<int> parent_scheme(rec->scheme.begin(),
                                   rec->scheme.end() - 1);
    auto pit = index_.find(ExperienceKeyBytes(fp, parent_scheme));
    if (pit == index_.end()) continue;
    const EvalRecord& parent = pit->second;
    if (parent.acc <= 0.0 || parent.params <= 0) continue;
    ExperienceStep step;
    step.strategy = rec->scheme.back();
    step.task_features = rec->task_features;
    step.ar_step = static_cast<float>(rec->acc / parent.acc - 1.0);
    step.pr_step = static_cast<float>(
        1.0 - static_cast<double>(rec->params) / parent.params);
    steps.push_back(std::move(step));
  }
  return steps;
}

}  // namespace store
}  // namespace automc
