#ifndef AUTOMC_NN_SERIALIZE_H_
#define AUTOMC_NN_SERIALIZE_H_

#include <iosfwd>
#include <memory>
#include <string>

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

Status SerializeModel(Model* model, std::ostream* out);
// `in` must be seekable: a tensor larger than the bytes left in it is
// refused before anything is allocated.
Result<std::unique_ptr<Model>> DeserializeModel(std::istream* in);

// File convenience wrappers.
Status SaveModel(Model* model, const std::string& path);
Result<std::unique_ptr<Model>> LoadModel(const std::string& path);

}  // namespace nn
}  // namespace automc

#endif  // AUTOMC_NN_SERIALIZE_H_
