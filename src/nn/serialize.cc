#include "nn/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/bytes.h"
#include "common/durable.h"
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

// ---- tensors ---------------------------------------------------------------

void WriteTensor(ByteWriter* w, const tensor::Tensor& t) {
  w->U32(static_cast<uint32_t>(t.dim()));
  for (int64_t i = 0; i < t.dim(); ++i) w->I64(t.size(i));
  if (t.numel() > 0) w->Raw(t.data(), t.numel() * sizeof(float));
}

// One fixed-width value; OutOfRange when the bytes end first.
template <typename T>
Result<T> Read(ByteReader* r) {
  T v{};
  if (!r->Raw(&v, sizeof(v))) return Status::OutOfRange("truncated model");
  return v;
}

Result<tensor::Tensor> ReadTensor(ByteReader* r) {
  AUTOMC_ASSIGN_OR_RETURN(uint32_t dim, Read<uint32_t>(r));
  if (dim > 8) return Status::InvalidArgument("implausible tensor rank");
  std::vector<int64_t> shape;
  for (uint32_t i = 0; i < dim; ++i) {
    AUTOMC_ASSIGN_OR_RETURN(int64_t d, Read<int64_t>(r));
    if (d < 0 || d > (1 << 24)) {
      return Status::InvalidArgument("implausible tensor dim");
    }
    shape.push_back(d);
  }
  // Refuse a tensor the bytes cannot hold before allocating it. numel
  // never exceeds `room`, so the product cannot overflow.
  const int64_t room = static_cast<int64_t>(r->remaining() / sizeof(float));
  int64_t numel = std::count(shape.begin(), shape.end(), 0) > 0 ? 0 : 1;
  for (int64_t d : shape) {
    if (numel > room / std::max<int64_t>(d, 1)) {
      return Status::InvalidArgument("tensor larger than the stream");
    }
    numel *= d;
  }
  tensor::Tensor t(shape);
  AUTOMC_CHECK_EQ(t.numel(), numel);
  // The tensor was just allocated, so MutableData is a plain pointer
  // fetch — deserialization never materializes COW copies.
  if (numel > 0 && !r->Raw(t.MutableData(), numel * sizeof(float))) {
    return Status::OutOfRange("truncated model");
  }
  return t;
}

// Whether `t` has exactly the shape `dims`, all positive. Layer headers are
// checked this way against the parameter tensors read before them, so a
// layer is never built, and never allocates, from a header the bytes do
// not back, and re-encoding a decoded layer reproduces its bytes.
bool HasShape(const tensor::Tensor& t, std::initializer_list<int64_t> dims) {
  return std::ranges::all_of(dims, [](int64_t d) { return d > 0; }) &&
         std::ranges::equal(t.shape(), dims);
}

// ---- layer tree ------------------------------------------------------------

// Writes one layer; a null optional member as the absent tag.
Status WriteLayer(ByteWriter* w, Layer* layer) {
  if (layer == nullptr) {
    w->U32(kTagAbsent);
    return Status::OK();
  }
  if (auto* conv = dynamic_cast<Conv2d*>(layer)) {
    w->U32(kTagConv2d);
    for (int64_t field : {conv->in_channels(), conv->out_channels(),
                          conv->kernel(), conv->stride(), conv->pad()}) {
      w->I64(field);
    }
    w->U32(conv->has_bias() ? 1 : 0);
    WriteTensor(w, conv->weight().value);
    if (conv->has_bias()) WriteTensor(w, conv->bias().value);
    return Status::OK();
  }
  if (auto* lin = dynamic_cast<Linear*>(layer)) {
    w->U32(kTagLinear);
    w->I64(lin->in_features());
    w->I64(lin->out_features());
    WriteTensor(w, lin->weight().value);
    WriteTensor(w, lin->bias().value);
    return Status::OK();
  }
  if (auto* bn = dynamic_cast<BatchNorm2d*>(layer)) {
    w->U32(kTagBatchNorm);
    w->I64(bn->channels());
    WriteTensor(w, bn->gamma().value);
    WriteTensor(w, bn->beta().value);
    WriteTensor(w, bn->running_mean());
    WriteTensor(w, bn->running_var());
    return Status::OK();
  }
  if (dynamic_cast<ReLU*>(layer) != nullptr) {
    w->U32(kTagReLU);
    return Status::OK();
  }
  if (auto* lma = dynamic_cast<LMAActivation*>(layer)) {
    w->U32(kTagLma);
    w->I64(lma->segments());
    w->F32(lma->bound());
    WriteTensor(w, lma->slopes().value);
    WriteTensor(w, lma->offset().value);
    return Status::OK();
  }
  if (auto* pool = dynamic_cast<MaxPool2d*>(layer)) {
    w->U32(kTagMaxPool);
    w->I64(pool->kernel());
    w->I64(pool->stride());
    return Status::OK();
  }
  if (dynamic_cast<GlobalAvgPool*>(layer) != nullptr) {
    w->U32(kTagGlobalAvgPool);
    return Status::OK();
  }
  if (dynamic_cast<Flatten*>(layer) != nullptr) {
    w->U32(kTagFlatten);
    return Status::OK();
  }
  if (auto* seq = dynamic_cast<Sequential*>(layer)) {
    w->U32(kTagSequential);
    w->I64(seq->NumChildren());
    for (int64_t i = 0; i < seq->NumChildren(); ++i) {
      AUTOMC_RETURN_IF_ERROR(WriteLayer(w, seq->Child(i)));
    }
    return Status::OK();
  }
  if (auto* lr = dynamic_cast<LowRankConv*>(layer)) {
    w->U32(kTagLowRankConv);
    w->I64(lr->num_stages());
    for (int64_t i = 0; i < lr->num_stages(); ++i) {
      AUTOMC_RETURN_IF_ERROR(WriteLayer(w, lr->stage(i)));
    }
    return Status::OK();
  }
  if (auto* block = dynamic_cast<ResidualBlock*>(layer)) {
    w->U32(kTagResidualBlock);
    w->U32(block->kind() == ResidualBlock::Kind::kBasic ? 0 : 1);
    w->I64(block->in_channels());
    w->I64(block->out_channels());
    w->I64(block->stride());
    for (Layer* member : std::initializer_list<Layer*>{
             block->conv1(), block->bn1(), block->act1(), block->conv2(),
             block->bn2(), block->act2(), block->conv3(), block->bn3(),
             block->act_out(), block->downsample_conv(),
             block->downsample_bn()}) {
      AUTOMC_RETURN_IF_ERROR(WriteLayer(w, member));
    }
    return Status::OK();
  }
  return Status::Unimplemented("cannot serialize layer: " + layer->Name());
}

// Deepest layer nesting the decoder accepts. Zoo models nest a few levels
// (Sequential > ResidualBlock > LowRankConv > Conv2d); the bound only keeps
// a hostile file from exhausting the stack through recursion.
constexpr int kMaxNesting = 64;

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

// Reads one layer. An optional member may instead be the absent tag, which
// reads as null.
Result<std::unique_ptr<Layer>> ReadLayer(ByteReader* r, int depth,
                                         bool optional = false) {
  AUTOMC_ASSIGN_OR_RETURN(uint32_t tag, Read<uint32_t>(r));
  if (optional && tag == kTagAbsent) return std::unique_ptr<Layer>(nullptr);
  if (depth > kMaxNesting) {
    return Status::InvalidArgument("layer nesting deeper than " +
                                   std::to_string(kMaxNesting));
  }
  switch (tag) {
    case kTagConv2d: {
      AUTOMC_ASSIGN_OR_RETURN(int64_t in_c, Read<int64_t>(r));
      AUTOMC_ASSIGN_OR_RETURN(int64_t out_c, Read<int64_t>(r));
      AUTOMC_ASSIGN_OR_RETURN(int64_t kernel, Read<int64_t>(r));
      AUTOMC_ASSIGN_OR_RETURN(int64_t stride, Read<int64_t>(r));
      AUTOMC_ASSIGN_OR_RETURN(int64_t pad, Read<int64_t>(r));
      AUTOMC_ASSIGN_OR_RETURN(uint32_t has_bias, Read<uint32_t>(r));
      AUTOMC_ASSIGN_OR_RETURN(tensor::Tensor w, ReadTensor(r));
      tensor::Tensor b;
      if (has_bias == 1) {
        AUTOMC_ASSIGN_OR_RETURN(b, ReadTensor(r));
      }
      // Every zoo and compressed conv pads less than its kernel; more padding
      // would only grow the output map from zeros.
      if (!HasShape(w, {out_c, in_c, kernel, kernel}) || has_bias > 1 ||
          stride <= 0 || pad < 0 || pad >= kernel) {
        return Status::InvalidArgument("implausible conv header");
      }
      if (has_bias == 1 && !HasShape(b, {out_c})) {
        return Status::InvalidArgument("conv bias size mismatch");
      }
      // nullptr rng: skip weight init, the stream's tensors replace it.
      auto conv = std::make_unique<Conv2d>(in_c, out_c, kernel, stride, pad,
                                           has_bias == 1, nullptr);
      conv->weight().value = std::move(w);
      if (has_bias == 1) conv->bias().value = std::move(b);
      return std::unique_ptr<Layer>(std::move(conv));
    }
    case kTagLinear: {
      AUTOMC_ASSIGN_OR_RETURN(int64_t in_f, Read<int64_t>(r));
      AUTOMC_ASSIGN_OR_RETURN(int64_t out_f, Read<int64_t>(r));
      AUTOMC_ASSIGN_OR_RETURN(tensor::Tensor w, ReadTensor(r));
      AUTOMC_ASSIGN_OR_RETURN(tensor::Tensor b, ReadTensor(r));
      if (!HasShape(w, {out_f, in_f}) || !HasShape(b, {out_f})) {
        return Status::InvalidArgument("linear size mismatch");
      }
      auto lin = std::make_unique<Linear>(in_f, out_f, nullptr);
      lin->weight().value = std::move(w);
      lin->bias().value = std::move(b);
      return std::unique_ptr<Layer>(std::move(lin));
    }
    case kTagBatchNorm: {
      AUTOMC_ASSIGN_OR_RETURN(int64_t channels, Read<int64_t>(r));
      tensor::Tensor params[4];  // gamma, beta, running mean, running var
      for (tensor::Tensor& t : params) {
        AUTOMC_ASSIGN_OR_RETURN(t, ReadTensor(r));
        if (!HasShape(t, {channels})) {
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
      AUTOMC_ASSIGN_OR_RETURN(int64_t segments, Read<int64_t>(r));
      AUTOMC_ASSIGN_OR_RETURN(float bound, Read<float>(r));
      if (segments < 2 || segments > 1024 || !(bound > 0) ||
          !std::isfinite(bound)) {
        return Status::InvalidArgument("implausible LMA parameters");
      }
      auto lma = std::make_unique<LMAActivation>(segments, bound);
      AUTOMC_ASSIGN_OR_RETURN(lma->slopes().value, ReadTensor(r));
      AUTOMC_ASSIGN_OR_RETURN(lma->offset().value, ReadTensor(r));
      if (!HasShape(lma->slopes().value, {segments}) ||
          !HasShape(lma->offset().value, {1})) {
        return Status::InvalidArgument("LMA parameter size mismatch");
      }
      return std::unique_ptr<Layer>(std::move(lma));
    }
    case kTagMaxPool: {
      AUTOMC_ASSIGN_OR_RETURN(int64_t kernel, Read<int64_t>(r));
      AUTOMC_ASSIGN_OR_RETURN(int64_t stride, Read<int64_t>(r));
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
      AUTOMC_ASSIGN_OR_RETURN(int64_t n, Read<int64_t>(r));
      if (n < 0 || n > 4096) {
        return Status::InvalidArgument("implausible child count");
      }
      auto seq = std::make_unique<Sequential>();
      for (int64_t i = 0; i < n; ++i) {
        AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<Layer> child,
                                ReadLayer(r, depth + 1));
        seq->Add(std::move(child));
      }
      return std::unique_ptr<Layer>(std::move(seq));
    }
    case kTagLowRankConv: {
      AUTOMC_ASSIGN_OR_RETURN(int64_t n, Read<int64_t>(r));
      if (n < 1 || n > 8) {
        return Status::InvalidArgument("implausible stage count");
      }
      std::vector<std::unique_ptr<Conv2d>> stages;
      for (int64_t i = 0; i < n; ++i) {
        AUTOMC_ASSIGN_OR_RETURN(
            std::unique_ptr<Conv2d> stage,
            CastLayer<Conv2d>(ReadLayer(r, depth + 1), "Conv2d stage"));
        if (i > 0 && stage->in_channels() != stages.back()->out_channels()) {
          return Status::InvalidArgument("low-rank stages do not chain");
        }
        stages.push_back(std::move(stage));
      }
      return std::unique_ptr<Layer>(
          std::make_unique<LowRankConv>(std::move(stages)));
    }
    case kTagResidualBlock: {
      AUTOMC_ASSIGN_OR_RETURN(uint32_t kind_u, Read<uint32_t>(r));
      AUTOMC_ASSIGN_OR_RETURN(int64_t in_c, Read<int64_t>(r));
      AUTOMC_ASSIGN_OR_RETURN(int64_t out_c, Read<int64_t>(r));
      AUTOMC_ASSIGN_OR_RETURN(int64_t stride, Read<int64_t>(r));
      if (kind_u > 1) {
        return Status::InvalidArgument("unknown residual block kind");
      }
      auto kind = kind_u == 0 ? ResidualBlock::Kind::kBasic
                              : ResidualBlock::Kind::kBottleneck;
      auto block = ResidualBlock::MakeShell(kind, in_c, out_c, stride);
      auto optional = [&] { return ReadLayer(r, depth + 1, true); };
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
  ByteWriter w;
  w.U32(kMagic);
  w.U32(kVersion);
  const ModelSpec& spec = model->spec();
  w.Str(spec.family);
  for (int field : {spec.depth, spec.num_classes, spec.base_width,
                    spec.in_channels, spec.image_size, model->weight_bits()}) {
    w.I64(field);
  }
  AUTOMC_RETURN_IF_ERROR(WriteLayer(&w, model->net()));
  out->write(w.str().data(), static_cast<std::streamsize>(w.str().size()));
  if (!out->good()) return Status::Internal("stream write failure");
  return Status::OK();
}

Result<std::unique_ptr<Model>> DeserializeModel(std::string_view bytes) {
  ByteReader r(bytes);
  AUTOMC_ASSIGN_OR_RETURN(uint32_t magic, Read<uint32_t>(&r));
  if (magic != kMagic) return Status::InvalidArgument("bad magic");
  AUTOMC_ASSIGN_OR_RETURN(uint32_t version, Read<uint32_t>(&r));
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported version " +
                                   std::to_string(version));
  }
  ModelSpec spec;
  AUTOMC_ASSIGN_OR_RETURN(uint32_t family_size, Read<uint32_t>(&r));
  if (family_size > (1u << 20)) {
    return Status::InvalidArgument("implausible string size");
  }
  spec.family.resize(family_size);
  if (!r.Raw(spec.family.data(), family_size)) {
    return Status::OutOfRange("truncated model");
  }
  for (int* field : {&spec.depth, &spec.num_classes, &spec.base_width,
                     &spec.in_channels, &spec.image_size}) {
    AUTOMC_ASSIGN_OR_RETURN(int64_t v, Read<int64_t>(&r));
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("implausible model spec");
    }
    *field = static_cast<int>(v);
  }
  AUTOMC_ASSIGN_OR_RETURN(int64_t weight_bits, Read<int64_t>(&r));
  if (weight_bits < 1 || weight_bits > 32) {
    return Status::InvalidArgument("implausible weight bits");
  }

  AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<Layer> root, ReadLayer(&r, 0));
  auto* seq = dynamic_cast<Sequential*>(root.get());
  if (seq == nullptr) {
    return Status::InvalidArgument("model root is not Sequential");
  }
  if (!r.Done()) return Status::InvalidArgument("trailing bytes after model");
  root.release();
  auto model =
      std::make_unique<Model>(spec, std::unique_ptr<Sequential>(seq));
  model->set_weight_bits(static_cast<int>(weight_bits));
  return model;
}

Status SaveModel(Model* model, const std::string& path) {
  std::ostringstream out;
  AUTOMC_RETURN_IF_ERROR(SerializeModel(model, &out));
  return durable::AtomicWriteFile(path, out.str());
}

Result<std::unique_ptr<Model>> LoadModel(const std::string& path) {
  AUTOMC_ASSIGN_OR_RETURN(std::string bytes, durable::ReadFile(path));
  return DeserializeModel(bytes);
}

}  // namespace nn
}  // namespace automc
