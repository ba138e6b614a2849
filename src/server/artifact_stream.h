#ifndef AUTOMC_SERVER_ARTIFACT_STREAM_H_
#define AUTOMC_SERVER_ARTIFACT_STREAM_H_

#include <memory>
#include <string>
#include <string_view>

#include "artifact/manifest.h"
#include "fleet/event_loop.h"
#include "server/protocol.h"

namespace automc {
namespace server {

// The wire metadata a Manifest denotes (chunk digests stay server-side).
ArtifactInfo InfoFromManifest(const artifact::Manifest& m);

// A ReplyStream serving one FetchModel request (`payload`: the artifact
// name) from the registry: kModelStart, one kModelChunk per stored chunk,
// kModelEnd. Every chunk is integrity-verified by the ChunkStore on the way
// out; a failure (malformed payload, missing artifact, corrupt chunk)
// becomes a single kError frame — a corrupt model is never partially served
// as if it were whole. Frames are pulled one at a time by the event loop,
// so memory stays bounded by the transport's write watermark regardless of
// model size. `registry` may be null (the stream reports
// FailedPrecondition) and must otherwise outlive the stream.
std::unique_ptr<fleet::ReplyStream> MakeModelStream(
    artifact::Registry* registry, std::string_view payload);

// The kArtifactList reply (or kError) for a ListArtifacts request.
Frame ArtifactListReply(artifact::Registry* registry);

}  // namespace server
}  // namespace automc

#endif  // AUTOMC_SERVER_ARTIFACT_STREAM_H_
