#include "nn/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>

#include "nn/layers.h"
#include "nn/lowrank.h"
#include "nn/residual.h"

namespace automc {
namespace nn {

namespace {

constexpr uint32_t kMagic = 0x4d434d41;  // "AMCM" little-endian
constexpr uint32_t kVersion = 1;

enum LayerTag : uint32_t {
  kTagConv2d = 1,
  kTagLinear = 2,
  kTagBatchNorm = 3,
  kTagReLU = 4,
  kTagLma = 5,
  kTagMaxPool = 6,
  kTagGlobalAvgPool = 7,
  kTagFlatten = 8,
  kTagSequential = 9,
  kTagResidualBlock = 10,
  kTagLowRankConv = 11,
  kTagAbsent = 0xffff,  // optional sub-layer not present
};

// ---- primitive writers / readers ------------------------------------------

void WriteU32(std::ostream* out, uint32_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteI64(std::ostream* out, int64_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteF32(std::ostream* out, float v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteString(std::ostream* out, const std::string& s) {
  WriteU32(out, static_cast<uint32_t>(s.size()));
  out->write(s.data(), static_cast<std::streamsize>(s.size()));
}
void WriteTensor(std::ostream* out, const tensor::Tensor& t) {
  WriteU32(out, static_cast<uint32_t>(t.dim()));
  for (int64_t i = 0; i < t.dim(); ++i) WriteI64(out, t.size(i));
  if (t.numel() > 0) {
    out->write(reinterpret_cast<const char*>(t.data()),
               static_cast<std::streamsize>(t.numel() * sizeof(float)));
  }
}

Result<uint32_t> ReadU32(std::istream* in) {
  uint32_t v = 0;
  in->read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in->good()) return Status::OutOfRange("truncated stream (u32)");
  return v;
}
Result<int64_t> ReadI64(std::istream* in) {
  int64_t v = 0;
  in->read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in->good()) return Status::OutOfRange("truncated stream (i64)");
  return v;
}
Result<float> ReadF32(std::istream* in) {
  float v = 0;
  in->read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in->good()) return Status::OutOfRange("truncated stream (f32)");
  return v;
}
Result<std::string> ReadString(std::istream* in) {
  AUTOMC_ASSIGN_OR_RETURN(uint32_t n, ReadU32(in));
  if (n > (1u << 20)) return Status::InvalidArgument("implausible string size");
  std::string s(n, '\0');
  in->read(s.data(), n);
  if (!in->good()) return Status::OutOfRange("truncated stream (string)");
  return s;
}

// Bytes left between the read position and the end of `in`. The decoder
// needs a seekable stream anyway (ReadOptional seeks back over a tag).
int64_t RemainingBytes(std::istream* in) {
  const std::streampos pos = in->tellg();
  in->seekg(0, std::ios::end);
  const std::streampos end = in->tellg();
  in->seekg(pos);
  return pos < 0 || end < pos ? 0 : static_cast<int64_t>(end - pos);
}

Result<tensor::Tensor> ReadTensor(std::istream* in) {
  AUTOMC_ASSIGN_OR_RETURN(uint32_t dim, ReadU32(in));
  if (dim > 8) return Status::InvalidArgument("implausible tensor rank");
  std::vector<int64_t> shape;
  for (uint32_t i = 0; i < dim; ++i) {
    AUTOMC_ASSIGN_OR_RETURN(int64_t d, ReadI64(in));
    if (d < 0 || d > (1 << 24)) {
      return Status::InvalidArgument("implausible tensor dim");
    }
    shape.push_back(d);
  }
  // Refuse a tensor the stream cannot hold before allocating it. numel
  // never exceeds `room`, so the product cannot overflow.
  const int64_t room =
      RemainingBytes(in) / static_cast<int64_t>(sizeof(float));
  int64_t numel = std::count(shape.begin(), shape.end(), 0) > 0 ? 0 : 1;
  for (int64_t d : shape) {
    if (numel > room / std::max<int64_t>(d, 1)) {
      return Status::InvalidArgument("tensor larger than the stream");
    }
    numel *= d;
  }
  tensor::Tensor t(shape);
  AUTOMC_CHECK_EQ(t.numel(), numel);
  if (numel > 0) {
    // The tensor was just allocated, so MutableData is a plain pointer
    // fetch — deserialization never materializes COW copies.
    in->read(reinterpret_cast<char*>(t.MutableData()),
             static_cast<std::streamsize>(numel * sizeof(float)));
    if (!in->good()) return Status::OutOfRange("truncated stream (tensor)");
  }
  return t;
}

// Whether `numel` is the product of `dims`, all positive, with the product
// computed without overflow. Layer headers are checked this way against the
// parameter tensors read before them, so a layer is never built, and never
// allocates, from a header the stream's bytes do not back.
bool ProductIs(std::initializer_list<int64_t> dims, int64_t numel) {
  int64_t product = 1;
  for (int64_t d : dims) {
    if (d <= 0 || product > numel / d) return false;
    product *= d;
  }
  return product == numel;
}

// ---- layer tree ------------------------------------------------------------

Status WriteLayer(std::ostream* out, Layer* layer);

Status WriteOptional(std::ostream* out, Layer* layer) {
  if (layer == nullptr) {
    WriteU32(out, kTagAbsent);
    return Status::OK();
  }
  return WriteLayer(out, layer);
}

Status WriteLayer(std::ostream* out, Layer* layer) {
  if (auto* conv = dynamic_cast<Conv2d*>(layer)) {
    WriteU32(out, kTagConv2d);
    WriteI64(out, conv->in_channels());
    WriteI64(out, conv->out_channels());
    WriteI64(out, conv->kernel());
    WriteI64(out, conv->stride());
    WriteI64(out, conv->pad());
    WriteU32(out, conv->has_bias() ? 1 : 0);
    WriteTensor(out, conv->weight().value);
    if (conv->has_bias()) WriteTensor(out, conv->bias().value);
    return Status::OK();
  }
  if (auto* lin = dynamic_cast<Linear*>(layer)) {
    WriteU32(out, kTagLinear);
    WriteI64(out, lin->in_features());
    WriteI64(out, lin->out_features());
    WriteTensor(out, lin->weight().value);
    WriteTensor(out, lin->bias().value);
    return Status::OK();
  }
  if (auto* bn = dynamic_cast<BatchNorm2d*>(layer)) {
    WriteU32(out, kTagBatchNorm);
    WriteI64(out, bn->channels());
    WriteTensor(out, bn->gamma().value);
    WriteTensor(out, bn->beta().value);
    WriteTensor(out, bn->running_mean());
    WriteTensor(out, bn->running_var());
    return Status::OK();
  }
  if (dynamic_cast<ReLU*>(layer) != nullptr) {
    WriteU32(out, kTagReLU);
    return Status::OK();
  }
  if (auto* lma = dynamic_cast<LMAActivation*>(layer)) {
    WriteU32(out, kTagLma);
    WriteI64(out, lma->segments());
    WriteF32(out, lma->bound());
    WriteTensor(out, lma->slopes().value);
    WriteTensor(out, lma->offset().value);
    return Status::OK();
  }
  if (auto* pool = dynamic_cast<MaxPool2d*>(layer)) {
    WriteU32(out, kTagMaxPool);
    WriteI64(out, pool->kernel());
    WriteI64(out, pool->stride());
    return Status::OK();
  }
  if (dynamic_cast<GlobalAvgPool*>(layer) != nullptr) {
    WriteU32(out, kTagGlobalAvgPool);
    return Status::OK();
  }
  if (dynamic_cast<Flatten*>(layer) != nullptr) {
    WriteU32(out, kTagFlatten);
    return Status::OK();
  }
  if (auto* seq = dynamic_cast<Sequential*>(layer)) {
    WriteU32(out, kTagSequential);
    WriteI64(out, seq->NumChildren());
    for (int64_t i = 0; i < seq->NumChildren(); ++i) {
      AUTOMC_RETURN_IF_ERROR(WriteLayer(out, seq->Child(i)));
    }
    return Status::OK();
  }
  if (auto* lr = dynamic_cast<LowRankConv*>(layer)) {
    WriteU32(out, kTagLowRankConv);
    WriteI64(out, lr->num_stages());
    for (int64_t i = 0; i < lr->num_stages(); ++i) {
      AUTOMC_RETURN_IF_ERROR(WriteLayer(out, lr->stage(i)));
    }
    return Status::OK();
  }
  if (auto* block = dynamic_cast<ResidualBlock*>(layer)) {
    WriteU32(out, kTagResidualBlock);
    WriteU32(out, block->kind() == ResidualBlock::Kind::kBasic ? 0 : 1);
    WriteI64(out, block->in_channels());
    WriteI64(out, block->out_channels());
    WriteI64(out, block->stride());
    AUTOMC_RETURN_IF_ERROR(WriteOptional(out, block->conv1()));
    AUTOMC_RETURN_IF_ERROR(WriteOptional(out, block->bn1()));
    AUTOMC_RETURN_IF_ERROR(WriteOptional(out, block->act1()));
    AUTOMC_RETURN_IF_ERROR(WriteOptional(out, block->conv2()));
    AUTOMC_RETURN_IF_ERROR(WriteOptional(out, block->bn2()));
    AUTOMC_RETURN_IF_ERROR(WriteOptional(out, block->act2()));
    AUTOMC_RETURN_IF_ERROR(WriteOptional(out, block->conv3()));
    AUTOMC_RETURN_IF_ERROR(WriteOptional(out, block->bn3()));
    AUTOMC_RETURN_IF_ERROR(WriteOptional(out, block->act_out()));
    AUTOMC_RETURN_IF_ERROR(WriteOptional(out, block->downsample_conv()));
    AUTOMC_RETURN_IF_ERROR(WriteOptional(out, block->downsample_bn()));
    return Status::OK();
  }
  return Status::Unimplemented("cannot serialize layer: " + layer->Name());
}

// Deepest layer nesting the decoder accepts. Zoo models nest a few levels
// (Sequential > ResidualBlock > LowRankConv > Conv2d); the bound only keeps
// a hostile file from exhausting the stack through recursion.
constexpr int kMaxNesting = 64;

Result<std::unique_ptr<Layer>> ReadLayer(std::istream* in, int depth);

// Reads an optional sub-layer; null when the tag says absent.
Result<std::unique_ptr<Layer>> ReadOptional(std::istream* in, int depth) {
  // Peek the tag by reading it and dispatching manually.
  AUTOMC_ASSIGN_OR_RETURN(uint32_t tag, ReadU32(in));
  if (tag == kTagAbsent) return std::unique_ptr<Layer>(nullptr);
  // Re-dispatch with the tag already consumed.
  in->seekg(-static_cast<std::streamoff>(sizeof(uint32_t)), std::ios::cur);
  return ReadLayer(in, depth);
}

template <typename T>
Result<std::unique_ptr<T>> CastLayer(Result<std::unique_ptr<Layer>> layer,
                                     const char* expectation) {
  if (!layer.ok()) return layer.status();
  if (layer.value() == nullptr) return std::unique_ptr<T>(nullptr);
  T* cast = dynamic_cast<T*>(layer.value().get());
  if (cast == nullptr) {
    return Status::InvalidArgument(std::string("expected ") + expectation);
  }
  layer.value().release();
  return std::unique_ptr<T>(cast);
}

Result<std::unique_ptr<Layer>> ReadLayer(std::istream* in, int depth) {
  if (depth > kMaxNesting) {
    return Status::InvalidArgument("layer nesting deeper than " +
                                   std::to_string(kMaxNesting));
  }
  AUTOMC_ASSIGN_OR_RETURN(uint32_t tag, ReadU32(in));
  switch (tag) {
    case kTagConv2d: {
      AUTOMC_ASSIGN_OR_RETURN(int64_t in_c, ReadI64(in));
      AUTOMC_ASSIGN_OR_RETURN(int64_t out_c, ReadI64(in));
      AUTOMC_ASSIGN_OR_RETURN(int64_t kernel, ReadI64(in));
      AUTOMC_ASSIGN_OR_RETURN(int64_t stride, ReadI64(in));
      AUTOMC_ASSIGN_OR_RETURN(int64_t pad, ReadI64(in));
      AUTOMC_ASSIGN_OR_RETURN(uint32_t has_bias, ReadU32(in));
      AUTOMC_ASSIGN_OR_RETURN(tensor::Tensor w, ReadTensor(in));
      tensor::Tensor b;
      if (has_bias != 0) {
        AUTOMC_ASSIGN_OR_RETURN(b, ReadTensor(in));
      }
      // Every zoo and compressed conv pads less than its kernel; more padding
      // would only grow the output map from zeros.
      if (!ProductIs({out_c, in_c, kernel, kernel}, w.numel()) ||
          stride <= 0 || pad < 0 || pad >= kernel) {
        return Status::InvalidArgument("implausible conv header");
      }
      if (has_bias != 0 && b.numel() != out_c) {
        return Status::InvalidArgument("conv bias size mismatch");
      }
      // nullptr rng: skip weight init, the stream's tensors replace it.
      auto conv = std::make_unique<Conv2d>(in_c, out_c, kernel, stride, pad,
                                           has_bias != 0, nullptr);
      conv->weight().value = w.Reshaped(conv->weight().value.shape());
      if (has_bias != 0) conv->bias().value = b.Reshaped({out_c});
      return std::unique_ptr<Layer>(std::move(conv));
    }
    case kTagLinear: {
      AUTOMC_ASSIGN_OR_RETURN(int64_t in_f, ReadI64(in));
      AUTOMC_ASSIGN_OR_RETURN(int64_t out_f, ReadI64(in));
      AUTOMC_ASSIGN_OR_RETURN(tensor::Tensor w, ReadTensor(in));
      AUTOMC_ASSIGN_OR_RETURN(tensor::Tensor b, ReadTensor(in));
      if (!ProductIs({out_f, in_f}, w.numel()) || b.numel() != out_f) {
        return Status::InvalidArgument("linear size mismatch");
      }
      auto lin = std::make_unique<Linear>(in_f, out_f, nullptr);
      lin->weight().value = w.Reshaped({out_f, in_f});
      lin->bias().value = b.Reshaped({out_f});
      return std::unique_ptr<Layer>(std::move(lin));
    }
    case kTagBatchNorm: {
      AUTOMC_ASSIGN_OR_RETURN(int64_t channels, ReadI64(in));
      tensor::Tensor params[4];  // gamma, beta, running mean, running var
      for (tensor::Tensor& t : params) {
        AUTOMC_ASSIGN_OR_RETURN(t, ReadTensor(in));
        if (!ProductIs({channels}, t.numel())) {
          return Status::InvalidArgument("batchnorm size mismatch");
        }
      }
      auto bn = std::make_unique<BatchNorm2d>(channels);
      bn->gamma().value = std::move(params[0]);
      bn->beta().value = std::move(params[1]);
      bn->running_mean() = std::move(params[2]);
      bn->running_var() = std::move(params[3]);
      return std::unique_ptr<Layer>(std::move(bn));
    }
    case kTagReLU:
      return std::unique_ptr<Layer>(std::make_unique<ReLU>());
    case kTagLma: {
      AUTOMC_ASSIGN_OR_RETURN(int64_t segments, ReadI64(in));
      AUTOMC_ASSIGN_OR_RETURN(float bound, ReadF32(in));
      if (segments < 2 || segments > 1024 || !(bound > 0) ||
          !std::isfinite(bound)) {
        return Status::InvalidArgument("implausible LMA parameters");
      }
      auto lma = std::make_unique<LMAActivation>(segments, bound);
      AUTOMC_ASSIGN_OR_RETURN(lma->slopes().value, ReadTensor(in));
      AUTOMC_ASSIGN_OR_RETURN(lma->offset().value, ReadTensor(in));
      if (lma->slopes().value.numel() != segments ||
          lma->offset().value.numel() != 1) {
        return Status::InvalidArgument("LMA parameter size mismatch");
      }
      return std::unique_ptr<Layer>(std::move(lma));
    }
    case kTagMaxPool: {
      AUTOMC_ASSIGN_OR_RETURN(int64_t kernel, ReadI64(in));
      AUTOMC_ASSIGN_OR_RETURN(int64_t stride, ReadI64(in));
      if (kernel <= 0 || stride <= 0) {
        return Status::InvalidArgument("implausible pool parameters");
      }
      return std::unique_ptr<Layer>(std::make_unique<MaxPool2d>(kernel, stride));
    }
    case kTagGlobalAvgPool:
      return std::unique_ptr<Layer>(std::make_unique<GlobalAvgPool>());
    case kTagFlatten:
      return std::unique_ptr<Layer>(std::make_unique<Flatten>());
    case kTagSequential: {
      AUTOMC_ASSIGN_OR_RETURN(int64_t n, ReadI64(in));
      if (n < 0 || n > 4096) {
        return Status::InvalidArgument("implausible child count");
      }
      auto seq = std::make_unique<Sequential>();
      for (int64_t i = 0; i < n; ++i) {
        AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<Layer> child,
                                ReadLayer(in, depth + 1));
        seq->Add(std::move(child));
      }
      return std::unique_ptr<Layer>(std::move(seq));
    }
    case kTagLowRankConv: {
      AUTOMC_ASSIGN_OR_RETURN(int64_t n, ReadI64(in));
      if (n < 1 || n > 8) {
        return Status::InvalidArgument("implausible stage count");
      }
      std::vector<std::unique_ptr<Conv2d>> stages;
      for (int64_t i = 0; i < n; ++i) {
        AUTOMC_ASSIGN_OR_RETURN(
            std::unique_ptr<Conv2d> stage,
            CastLayer<Conv2d>(ReadLayer(in, depth + 1), "Conv2d stage"));
        if (stage == nullptr) {
          return Status::InvalidArgument("null low-rank stage");
        }
        stages.push_back(std::move(stage));
      }
      return std::unique_ptr<Layer>(
          std::make_unique<LowRankConv>(std::move(stages)));
    }
    case kTagResidualBlock: {
      AUTOMC_ASSIGN_OR_RETURN(uint32_t kind_u, ReadU32(in));
      AUTOMC_ASSIGN_OR_RETURN(int64_t in_c, ReadI64(in));
      AUTOMC_ASSIGN_OR_RETURN(int64_t out_c, ReadI64(in));
      AUTOMC_ASSIGN_OR_RETURN(int64_t stride, ReadI64(in));
      if (kind_u > 1) {
        return Status::InvalidArgument("unknown residual block kind");
      }
      auto kind = kind_u == 0 ? ResidualBlock::Kind::kBasic
                              : ResidualBlock::Kind::kBottleneck;
      auto block = ResidualBlock::MakeShell(kind, in_c, out_c, stride);
      auto optional = [&] { return ReadOptional(in, depth + 1); };
      AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<Layer> conv1, optional());
      block->set_conv1(std::move(conv1));
      AUTOMC_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchNorm2d> bn1,
          CastLayer<BatchNorm2d>(optional(), "BatchNorm2d"));
      block->set_bn1(std::move(bn1));
      AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<Layer> act1, optional());
      block->set_act1(std::move(act1));
      AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<Layer> conv2, optional());
      block->set_conv2(std::move(conv2));
      AUTOMC_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchNorm2d> bn2,
          CastLayer<BatchNorm2d>(optional(), "BatchNorm2d"));
      block->set_bn2(std::move(bn2));
      AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<Layer> act2, optional());
      block->set_act2(std::move(act2));
      AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<Layer> conv3, optional());
      block->set_conv3(std::move(conv3));
      AUTOMC_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchNorm2d> bn3,
          CastLayer<BatchNorm2d>(optional(), "BatchNorm2d"));
      block->set_bn3(std::move(bn3));
      AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<Layer> act_out, optional());
      block->set_act_out(std::move(act_out));
      AUTOMC_ASSIGN_OR_RETURN(
          std::unique_ptr<Conv2d> ds_conv,
          CastLayer<Conv2d>(optional(), "Conv2d"));
      AUTOMC_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchNorm2d> ds_bn,
          CastLayer<BatchNorm2d>(optional(), "BatchNorm2d"));
      block->set_downsample(std::move(ds_conv), std::move(ds_bn));
      // Forward runs every member of the block's kind unconditionally, and
      // the shortcut's conv and batchnorm as a pair.
      const bool bottleneck = kind == ResidualBlock::Kind::kBottleneck;
      if (block->conv1() == nullptr || block->bn1() == nullptr ||
          block->act1() == nullptr || block->conv2() == nullptr ||
          block->bn2() == nullptr || block->act_out() == nullptr ||
          (bottleneck && (block->act2() == nullptr ||
                          block->conv3() == nullptr ||
                          block->bn3() == nullptr)) ||
          (block->downsample_conv() == nullptr) !=
              (block->downsample_bn() == nullptr)) {
        return Status::InvalidArgument("residual block lacks a member");
      }
      return std::unique_ptr<Layer>(std::move(block));
    }
    default:
      return Status::InvalidArgument("unknown layer tag " +
                                     std::to_string(tag));
  }
}

}  // namespace

Status SerializeModel(Model* model, std::ostream* out) {
  if (model == nullptr || out == nullptr) {
    return Status::InvalidArgument("null model or stream");
  }
  WriteU32(out, kMagic);
  WriteU32(out, kVersion);
  const ModelSpec& spec = model->spec();
  WriteString(out, spec.family);
  WriteI64(out, spec.depth);
  WriteI64(out, spec.num_classes);
  WriteI64(out, spec.base_width);
  WriteI64(out, spec.in_channels);
  WriteI64(out, spec.image_size);
  WriteI64(out, model->weight_bits());
  AUTOMC_RETURN_IF_ERROR(WriteLayer(out, model->net()));
  if (!out->good()) return Status::Internal("stream write failure");
  return Status::OK();
}

Result<std::unique_ptr<Model>> DeserializeModel(std::istream* in) {
  if (in == nullptr) return Status::InvalidArgument("null stream");
  AUTOMC_ASSIGN_OR_RETURN(uint32_t magic, ReadU32(in));
  if (magic != kMagic) return Status::InvalidArgument("bad magic");
  AUTOMC_ASSIGN_OR_RETURN(uint32_t version, ReadU32(in));
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported version " +
                                   std::to_string(version));
  }
  ModelSpec spec;
  AUTOMC_ASSIGN_OR_RETURN(spec.family, ReadString(in));
  AUTOMC_ASSIGN_OR_RETURN(int64_t depth, ReadI64(in));
  AUTOMC_ASSIGN_OR_RETURN(int64_t num_classes, ReadI64(in));
  AUTOMC_ASSIGN_OR_RETURN(int64_t base_width, ReadI64(in));
  AUTOMC_ASSIGN_OR_RETURN(int64_t in_channels, ReadI64(in));
  AUTOMC_ASSIGN_OR_RETURN(int64_t image_size, ReadI64(in));
  spec.depth = static_cast<int>(depth);
  spec.num_classes = static_cast<int>(num_classes);
  spec.base_width = static_cast<int>(base_width);
  spec.in_channels = static_cast<int>(in_channels);
  spec.image_size = static_cast<int>(image_size);
  AUTOMC_ASSIGN_OR_RETURN(int64_t weight_bits, ReadI64(in));
  if (weight_bits < 1 || weight_bits > 32) {
    return Status::InvalidArgument("implausible weight bits");
  }

  AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<Layer> root, ReadLayer(in, 0));
  auto* seq = dynamic_cast<Sequential*>(root.get());
  if (seq == nullptr) {
    return Status::InvalidArgument("model root is not Sequential");
  }
  root.release();
  auto model =
      std::make_unique<Model>(spec, std::unique_ptr<Sequential>(seq));
  model->set_weight_bits(static_cast<int>(weight_bits));
  return model;
}

Status SaveModel(Model* model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) return Status::NotFound("cannot open " + path);
  return SerializeModel(model, &out);
}

Result<std::unique_ptr<Model>> LoadModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  return DeserializeModel(&in);
}

}  // namespace nn
}  // namespace automc
