#ifndef AUTOMC_COMMON_BYTES_H_
#define AUTOMC_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace automc {

// Little-endian binary encoding helpers shared by the persistence layer
// (experience store records, search checkpoints). Fixed-width integers and
// raw IEEE float/double bytes, so round-trips are bit-exact — the property
// the determinism contract (DESIGN.md) turns into "resume equals rerun".

class ByteWriter {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Floats(const float* data, size_t n) {
    U64(static_cast<uint64_t>(n));
    Raw(data, n * sizeof(float));
  }
  void Ints(const std::vector<int>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (int x : v) I32(x);
  }
  void Raw(const void* data, size_t n) {
    out_.append(static_cast<const char*>(data), n);
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

// Cursor-based reader over a byte blob. Every accessor returns false on
// underrun and leaves the output untouched, so callers can surface a clean
// error instead of reading garbage from a truncated or corrupted blob.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool I32(int32_t* v) { return Raw(v, sizeof(*v)); }
  bool I64(int64_t* v) { return Raw(v, sizeof(*v)); }
  bool F32(float* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s) {
    uint32_t n = 0;
    if (!U32(&n) || !Fits(n, 1)) return false;
    s->assign(data_.substr(pos_, n));
    pos_ += n;
    return true;
  }
  bool Floats(std::vector<float>* v) {
    uint64_t n = 0;
    if (!U64(&n) || !Fits(n, sizeof(float))) return false;
    v->resize(static_cast<size_t>(n));
    return Raw(v->data(), static_cast<size_t>(n) * sizeof(float));
  }
  bool Ints(std::vector<int>* v) {
    uint32_t n = 0;
    if (!U32(&n) || !Fits(n, sizeof(int32_t))) return false;
    v->resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      int32_t x = 0;
      if (!I32(&x)) return false;
      (*v)[i] = x;
    }
    return true;
  }
  bool Raw(void* dst, size_t n) {
    if (remaining() < n) return false;
    if (n > 0) std::memcpy(dst, data_.data() + pos_, n);  // dst may be null
    pos_ += n;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ == data_.size(); }

 private:
  // True when `count` elements of `elem_size` bytes fit in the unread
  // bytes. Dividing instead of multiplying keeps a hostile count (up to
  // 2^64 - 1) from wrapping the product past the check.
  bool Fits(uint64_t count, size_t elem_size) const {
    return count <= remaining() / elem_size;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// CRC-32 (IEEE 802.3 polynomial, reflected). Guards every experience-store
// record and checkpoint payload against torn writes and bit rot.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);
inline uint32_t Crc32(std::string_view s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

}  // namespace automc

#endif  // AUTOMC_COMMON_BYTES_H_
