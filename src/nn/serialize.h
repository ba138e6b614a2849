#ifndef AUTOMC_NN_SERIALIZE_H_
#define AUTOMC_NN_SERIALIZE_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "nn/model.h"

namespace automc {
namespace nn {

// Binary model persistence. The format is a tagged recursive encoding of
// the layer tree (including surgery artifacts: LowRankConv composites,
// LMA activations, pruned channel counts), so a compressed model can be
// saved and later reloaded bit-exactly. Format:
//
//   "AMCM" magic | u32 version | ModelSpec | layer tree
//
// Every layer is  u32 tag | type-specific fields | parameter tensors.
// Integers are little-endian fixed width; tensors are shape + raw float32.
// Both directions go through ByteWriter/ByteReader (common/bytes.h); the
// layout predates that move unchanged, and tests/data/model pins it.

Status SerializeModel(Model* model, std::ostream* out);
// Decodes exactly one model from `bytes`. Every length is checked against
// the bytes left before anything is allocated, and a file that would not
// re-encode to the same bytes (a trailing byte, a non-canonical field) is
// refused.
Result<std::unique_ptr<Model>> DeserializeModel(std::string_view bytes);

// File convenience wrappers. SaveModel replaces the file whole through
// durable::AtomicWriteFile.
Status SaveModel(Model* model, const std::string& path);
Result<std::unique_ptr<Model>> LoadModel(const std::string& path);

}  // namespace nn
}  // namespace automc

#endif  // AUTOMC_NN_SERIALIZE_H_
