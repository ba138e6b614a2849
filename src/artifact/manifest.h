#ifndef AUTOMC_ARTIFACT_MANIFEST_H_
#define AUTOMC_ARTIFACT_MANIFEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "artifact/chunk_store.h"
#include "common/result.h"
#include "common/sha256.h"

namespace automc {
namespace artifact {

// Where a published model came from — enough to reproduce it (the scheme
// string feeds core::ParseScheme) and to rank it without fetching bytes.
struct Provenance {
  uint64_t job_id = 0;
  std::string scheme;   // compression scheme, e.g. "2,7,1"
  std::string summary;  // free-form origin note ("server job", "cli export")
  double acc = 0.0;
  int64_t params = 0;
  int64_t flops = 0;
};

// One named artifact: an ordered chunk list plus provenance. The manifest
// is the unit of naming and GC liveness; the chunks it references live in
// the shared ChunkStore and may be shared with other manifests (dedup).
struct Manifest {
  std::string name;
  uint64_t total_size = 0;
  Sha256Digest blob_digest{};  // SHA-256 of the whole reassembled blob
  std::vector<Sha256Digest> chunks;
  Provenance prov;
};

// Encoded manifest blob (no framing); used by the .mf file codec and by
// tests that want to round-trip.
std::string EncodeManifest(const Manifest& m);
Result<Manifest> DecodeManifest(std::string_view bytes);

// Artifact names are path components and wire strings: [A-Za-z0-9._-]+,
// not starting with a dot, at most 128 bytes.
bool ValidArtifactName(std::string_view name);

// Content-addressed model registry: ChunkStore for the bytes, one
// CRC-guarded `manifests/<name>.mf` file per published model. Publish
// order is chunks-first, manifest-last, so a crash in between leaves only
// orphaned chunks (reclaimed by the next CollectGarbage), never a manifest
// pointing at missing data. Safe to share across processes: manifests are
// atomically replaced files, chunk publishes are lock-serialized, and List()
// always re-reads the directory.
class Registry {
 public:
  struct Options {
    std::string dir;        // registry root; chunks + manifests live under it
    size_t chunk_size = 0;  // 0 → ChunkStore default / env knob
  };

  static Result<std::unique_ptr<Registry>> Open(Options options);

  // Chunks `blob`, stores the missing pieces, then atomically writes the
  // manifest. Overwrites an existing manifest of the same name.
  Result<Manifest> Publish(const std::string& name, std::string_view blob,
                           const Provenance& prov);

  Result<Manifest> GetManifest(const std::string& name);

  // Reassembles and verifies the whole blob (every chunk's integrity plus
  // the manifest's total size and blob digest). kDataLoss on any mismatch.
  Result<std::string> FetchBlob(const std::string& name);

  // All manifests currently on disk, sorted by name. Unreadable or corrupt
  // manifest files are skipped with a warning (their chunks stay live only
  // if another manifest references them).
  std::vector<Manifest> List();

  // Deletes the manifest only, durably; chunk bytes persist until
  // CollectGarbage.
  Status Remove(const std::string& name);

  // Drops every chunk not referenced by any remaining manifest.
  // Returns payload bytes reclaimed.
  Result<uint64_t> CollectGarbage();

  ChunkStore* chunks() { return store_.get(); }
  const std::string& dir() const { return dir_; }

 private:
  Registry() = default;

  std::string ManifestPath(const std::string& name) const;

  std::string dir_;
  std::unique_ptr<ChunkStore> store_;
};

}  // namespace artifact
}  // namespace automc

#endif  // AUTOMC_ARTIFACT_MANIFEST_H_
