#include "data/cifar.h"

#include <string_view>

#include "common/durable.h"

namespace automc {
namespace data {

namespace {

float NormalizePixel(uint8_t v) {
  return (static_cast<float>(v) / 255.0f - 0.5f) * 2.0f;
}

// Appends the records of one buffer to the dataset arrays.
Status AppendRecords(std::string_view bytes, int record_bytes,
                     int label_offset, std::vector<float>* pixels,
                     std::vector<int>* labels) {
  if (bytes.size() % static_cast<size_t>(record_bytes) != 0) {
    return Status::InvalidArgument("file size is not a multiple of " +
                                   std::to_string(record_bytes) + " bytes");
  }
  size_t records = bytes.size() / static_cast<size_t>(record_bytes);
  for (size_t r = 0; r < records; ++r) {
    const auto* rec = reinterpret_cast<const uint8_t*>(bytes.data()) +
                      r * static_cast<size_t>(record_bytes);
    labels->push_back(rec[label_offset]);
    const uint8_t* img = rec + (record_bytes - kCifarImageBytes);
    for (int i = 0; i < kCifarImageBytes; ++i) {
      pixels->push_back(NormalizePixel(img[i]));
    }
  }
  return Status::OK();
}

Result<Dataset> BuildDataset(std::vector<float> pixels, std::vector<int> labels,
                             int num_classes, const std::string& name) {
  if (labels.empty()) return Status::InvalidArgument("no records loaded");
  for (int y : labels) {
    if (y < 0 || y >= num_classes) {
      return Status::InvalidArgument("label out of range: " +
                                     std::to_string(y));
    }
  }
  Dataset ds;
  ds.name = name;
  ds.num_classes = num_classes;
  ds.labels = std::move(labels);
  int64_t n = static_cast<int64_t>(ds.labels.size());
  ds.images = tensor::Tensor({n, 3, 32, 32});
  AUTOMC_CHECK_EQ(ds.images.numel(), static_cast<int64_t>(pixels.size()));
  std::copy(pixels.begin(), pixels.end(), ds.images.MutableData());
  return ds;
}

}  // namespace

Result<Dataset> LoadCifar10(const std::vector<std::string>& batch_paths,
                            const std::string& name) {
  if (batch_paths.empty()) {
    return Status::InvalidArgument("no batch files given");
  }
  std::vector<float> pixels;
  std::vector<int> labels;
  for (const std::string& path : batch_paths) {
    AUTOMC_ASSIGN_OR_RETURN(std::string bytes, durable::ReadFile(path));
    AUTOMC_RETURN_IF_ERROR(AppendRecords(bytes, kCifar10RecordBytes,
                                         /*label_offset=*/0, &pixels,
                                         &labels));
  }
  return BuildDataset(std::move(pixels), std::move(labels), 10, name);
}

Result<Dataset> LoadCifar100(const std::string& path,
                             const std::string& name) {
  AUTOMC_ASSIGN_OR_RETURN(std::string bytes, durable::ReadFile(path));
  std::vector<float> pixels;
  std::vector<int> labels;
  // Fine label is the second byte of each record.
  AUTOMC_RETURN_IF_ERROR(AppendRecords(bytes, kCifar100RecordBytes,
                                       /*label_offset=*/1, &pixels, &labels));
  return BuildDataset(std::move(pixels), std::move(labels), 100, name);
}

}  // namespace data
}  // namespace automc
