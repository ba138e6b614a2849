#include "server/artifact_stream.h"

#include <utility>

#include "common/bytes.h"
#include "common/metrics.h"

namespace automc {
namespace server {

namespace {

// Stream state machine: Start -> Chunks... -> End. Any failure emits one
// kError frame and jumps to Done; the client treats a mid-stream kError as
// the end of the (discarded) stream, and framing stays intact for the next
// request on the connection.
class ModelStream : public fleet::ReplyStream {
 public:
  ModelStream(artifact::Registry* registry, std::string_view payload)
      : registry_(registry) {
    ByteReader r(payload);
    malformed_ = !r.Str(&name_) || !r.Done();
  }

  bool Next(Frame* out) override {
    switch (stage_) {
      case Stage::kStart: {
        if (malformed_) {
          return Fail(out,
                      Status::InvalidArgument("malformed FetchModel payload"));
        }
        if (registry_ == nullptr) {
          return Fail(out,
                      Status::FailedPrecondition("no artifact registry"));
        }
        Result<artifact::Manifest> m = registry_->GetManifest(name_);
        if (!m.ok()) return Fail(out, m.status());
        manifest_ = std::move(*m);
        AUTOMC_METRIC_COUNT("server.model_streams");
        ByteWriter w;
        EncodeArtifactInfo(InfoFromManifest(manifest_), &w);
        *out = ReplyFrame(MsgType::kModelStart, w.Take());
        stage_ = Stage::kChunks;
        return true;
      }
      case Stage::kChunks: {
        if (next_chunk_ == manifest_.chunks.size()) {
          ByteWriter w;
          w.U64(manifest_.total_size);
          w.Raw(manifest_.blob_digest.data(), manifest_.blob_digest.size());
          *out = ReplyFrame(MsgType::kModelEnd, w.Take());
          stage_ = Stage::kDone;
          return true;
        }
        Result<std::string> chunk =
            registry_->chunks()->GetChunk(manifest_.chunks[next_chunk_]);
        if (!chunk.ok()) return Fail(out, chunk.status());
        ++next_chunk_;
        AUTOMC_METRIC_COUNT("server.model_bytes_sent",
                            static_cast<int64_t>(chunk->size()));
        *out = ReplyFrame(MsgType::kModelChunk, *std::move(chunk));
        return true;
      }
      case Stage::kDone:
        return false;
    }
    return false;
  }

 private:
  enum class Stage { kStart, kChunks, kDone };

  bool Fail(Frame* out, const Status& status) {
    AUTOMC_METRIC_COUNT("server.model_stream_errors");
    *out = ErrorFrame(status);
    stage_ = Stage::kDone;
    return true;
  }

  artifact::Registry* registry_;
  std::string name_;
  bool malformed_ = false;
  artifact::Manifest manifest_;
  size_t next_chunk_ = 0;
  Stage stage_ = Stage::kStart;
};

}  // namespace

ArtifactInfo InfoFromManifest(const artifact::Manifest& m) {
  ArtifactInfo info;
  info.name = m.name;
  info.total_size = m.total_size;
  info.blob_digest = m.blob_digest;
  info.chunk_count = static_cast<uint32_t>(m.chunks.size());
  info.job_id = m.prov.job_id;
  info.scheme = m.prov.scheme;
  info.summary = m.prov.summary;
  info.acc = m.prov.acc;
  info.params = m.prov.params;
  info.flops = m.prov.flops;
  return info;
}

std::unique_ptr<fleet::ReplyStream> MakeModelStream(
    artifact::Registry* registry, std::string_view payload) {
  return std::make_unique<ModelStream>(registry, payload);
}

Frame ArtifactListReply(artifact::Registry* registry) {
  if (registry == nullptr) {
    return ErrorFrame(Status::FailedPrecondition("no artifact registry"));
  }
  const std::vector<artifact::Manifest> manifests = registry->List();
  ByteWriter w;
  w.U32(static_cast<uint32_t>(manifests.size()));
  for (const artifact::Manifest& m : manifests) {
    EncodeArtifactInfo(InfoFromManifest(m), &w);
  }
  return ReplyFrame(MsgType::kArtifactList, w.Take());
}

}  // namespace server
}  // namespace automc
