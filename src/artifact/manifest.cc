#include "artifact/manifest.h"

#include <algorithm>
#include <filesystem>

#include "common/bytes.h"
#include "common/durable.h"
#include "common/logging.h"

namespace automc {
namespace artifact {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kManifestMagic = "AMAM";
constexpr size_t kMaxNameLen = 128;
constexpr size_t kMaxManifestBytes = 64u << 20;

}  // namespace

bool ValidArtifactName(std::string_view name) {
  if (name.empty() || name.size() > kMaxNameLen || name[0] == '.') {
    return false;
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string EncodeManifest(const Manifest& m) {
  ByteWriter w;
  w.Str(m.name);
  w.U64(m.total_size);
  w.Raw(m.blob_digest.data(), m.blob_digest.size());
  w.U32(static_cast<uint32_t>(m.chunks.size()));
  for (const Sha256Digest& d : m.chunks) w.Raw(d.data(), d.size());
  w.U64(m.prov.job_id);
  w.Str(m.prov.scheme);
  w.Str(m.prov.summary);
  w.F64(m.prov.acc);
  w.I64(m.prov.params);
  w.I64(m.prov.flops);
  return w.Take();
}

Result<Manifest> DecodeManifest(std::string_view bytes) {
  ByteReader r(bytes);
  Manifest m;
  uint32_t chunk_count = 0;
  if (!r.Str(&m.name) || !r.U64(&m.total_size) ||
      !r.Raw(m.blob_digest.data(), m.blob_digest.size()) ||
      !r.U32(&chunk_count)) {
    return Status::DataLoss("truncated manifest");
  }
  if (r.remaining() < chunk_count * 32ull) {
    return Status::DataLoss("manifest chunk list truncated");
  }
  m.chunks.resize(chunk_count);
  for (uint32_t i = 0; i < chunk_count; ++i) {
    if (!r.Raw(m.chunks[i].data(), m.chunks[i].size())) {
      return Status::DataLoss("manifest chunk list truncated");
    }
  }
  if (!r.U64(&m.prov.job_id) || !r.Str(&m.prov.scheme) ||
      !r.Str(&m.prov.summary) || !r.F64(&m.prov.acc) ||
      !r.I64(&m.prov.params) || !r.I64(&m.prov.flops) || !r.Done()) {
    return Status::DataLoss("truncated manifest provenance");
  }
  if (!ValidArtifactName(m.name)) {
    return Status::DataLoss("manifest carries an invalid name");
  }
  return m;
}

Result<std::unique_ptr<Registry>> Registry::Open(Options options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("Registry needs a directory");
  }
  std::unique_ptr<Registry> reg(new Registry());
  reg->dir_ = options.dir;
  std::error_code ec;
  fs::create_directories(reg->dir_ + "/manifests", ec);
  if (ec) {
    return Status::Internal("cannot create " + reg->dir_ +
                            "/manifests: " + ec.message());
  }
  ChunkStore::Options copts;
  copts.dir = reg->dir_;
  copts.chunk_size = options.chunk_size;
  auto store = ChunkStore::Open(copts);
  AUTOMC_RETURN_IF_ERROR(store.status());
  reg->store_ = std::move(*store);
  return reg;
}

std::string Registry::ManifestPath(const std::string& name) const {
  return dir_ + "/manifests/" + name + ".mf";
}

Result<Manifest> Registry::Publish(const std::string& name,
                                   std::string_view blob,
                                   const Provenance& prov) {
  if (!ValidArtifactName(name)) {
    return Status::InvalidArgument("invalid artifact name '" + name + "'");
  }
  auto put = store_->PutBlob(blob);
  AUTOMC_RETURN_IF_ERROR(put.status());
  Manifest m;
  m.name = name;
  m.total_size = blob.size();
  m.blob_digest = Sha256::Hash(blob);
  m.chunks = std::move(put->digests);
  m.prov = prov;
  AUTOMC_RETURN_IF_ERROR(durable::WriteSealedFile(
      ManifestPath(name), kManifestMagic, EncodeManifest(m)));
  return m;
}

Result<Manifest> Registry::GetManifest(const std::string& name) {
  if (!ValidArtifactName(name)) {
    return Status::InvalidArgument("invalid artifact name '" + name + "'");
  }
  Result<std::string> body = durable::ReadSealedFile(
      ManifestPath(name), kManifestMagic, kMaxManifestBytes);
  if (body.status().code() == StatusCode::kNotFound) {
    return Status::NotFound("no artifact '" + name + "'");
  }
  AUTOMC_RETURN_IF_ERROR(body.status());
  auto m = DecodeManifest(*body);
  AUTOMC_RETURN_IF_ERROR(m.status());
  if (m->name != name) {
    return Status::DataLoss("manifest for '" + name +
                            "' names a different artifact");
  }
  return m;
}

Result<std::string> Registry::FetchBlob(const std::string& name) {
  auto m = GetManifest(name);
  AUTOMC_RETURN_IF_ERROR(m.status());
  std::string blob;
  blob.reserve(m->total_size);
  for (const Sha256Digest& d : m->chunks) {
    auto chunk = store_->GetChunk(d);
    AUTOMC_RETURN_IF_ERROR(chunk.status());
    blob.append(*chunk);
  }
  if (blob.size() != m->total_size) {
    return Status::DataLoss("artifact '" + name +
                            "' reassembled to the wrong size");
  }
  if (Sha256::Hash(blob) != m->blob_digest) {
    return Status::DataLoss("artifact '" + name +
                            "' reassembled to the wrong digest");
  }
  return blob;
}

std::vector<Manifest> Registry::List() {
  std::vector<Manifest> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_ + "/manifests", ec)) {
    const std::string fname = entry.path().filename().string();
    if (fname.size() < 4 || fname.substr(fname.size() - 3) != ".mf") continue;
    const std::string name = fname.substr(0, fname.size() - 3);
    auto m = GetManifest(name);
    if (!m.ok()) {
      AUTOMC_LOG(Warning) << "skipping unreadable manifest " << fname << ": "
                          << m.status().ToString();
      continue;
    }
    out.push_back(std::move(*m));
  }
  std::sort(out.begin(), out.end(),
            [](const Manifest& a, const Manifest& b) { return a.name < b.name; });
  return out;
}

Status Registry::Remove(const std::string& name) {
  if (!ValidArtifactName(name)) {
    return Status::InvalidArgument("invalid artifact name '" + name + "'");
  }
  Status st = durable::RemoveFile(ManifestPath(name));
  if (st.code() == StatusCode::kNotFound) {
    return Status::NotFound("no artifact '" + name + "'");
  }
  return st;
}

Result<uint64_t> Registry::CollectGarbage() {
  std::set<Sha256Digest> live;
  for (const Manifest& m : List()) {
    live.insert(m.chunks.begin(), m.chunks.end());
  }
  return store_->CollectGarbage(live);
}

}  // namespace artifact
}  // namespace automc
