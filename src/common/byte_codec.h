// Little-endian byte codec shared by every wire and on-disk format
// (GSF1 messages, GST1 tile pages, GSDL dead letters): Put* appends a
// value's bytes to a buffer, Get* reads one back from a pointer, and
// PayloadReader walks a payload with bounds checking. PutArray and
// GetArray move a whole column of numbers at once: one memcpy on a
// little-endian host, the per-element loop elsewhere, the same bytes
// either way.

#ifndef GEOSTREAMS_COMMON_BYTE_CODEC_H_
#define GEOSTREAMS_COMMON_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace geostreams {

inline void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xFF));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

inline void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

inline void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

inline void PutI64(std::vector<uint8_t>& out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

inline void PutF64(std::vector<uint8_t>& out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// u16 length, then the bytes.
inline void PutString(std::vector<uint8_t>& out, const std::string& s) {
  PutU16(out, static_cast<uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

inline uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline double GetF64(const uint8_t* p) {
  const uint64_t bits = GetU64(p);
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// The unsigned integer with T's width: the bit pattern a column
/// element travels as.
template <typename T>
using ColumnBits = std::conditional_t<sizeof(T) == 4, uint32_t, uint64_t>;

/// Appends `n` values as little-endian bit patterns.
template <typename T>
inline void PutArray(std::vector<uint8_t>& out, const T* values, size_t n) {
  static_assert(std::is_arithmetic_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
  if (n == 0) return;  // `values` may be null
  if constexpr (std::endian::native == std::endian::little) {
    const size_t at = out.size();
    out.resize(at + n * sizeof(T));
    std::memcpy(out.data() + at, values, n * sizeof(T));
  } else {
    for (size_t i = 0; i < n; ++i) {
      ColumnBits<T> bits = 0;
      std::memcpy(&bits, &values[i], sizeof(T));
      if constexpr (sizeof(T) == 4) {
        PutU32(out, bits);
      } else {
        PutU64(out, bits);
      }
    }
  }
}

/// Reads `n` little-endian values from `src` (no alignment needed).
template <typename T>
inline void GetArray(const uint8_t* src, T* values, size_t n) {
  static_assert(std::is_arithmetic_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
  if (n == 0) return;  // `values` may be null
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(values, src, n * sizeof(T));
  } else {
    for (size_t i = 0; i < n; ++i) {
      ColumnBits<T> bits = 0;
      if constexpr (sizeof(T) == 4) {
        bits = GetU32(src + i * sizeof(T));
      } else {
        bits = GetU64(src + i * sizeof(T));
      }
      std::memcpy(&values[i], &bits, sizeof(T));
    }
  }
}

/// Bounds-checked sequential reader over a payload. Every read fails
/// closed: once `ok` is false the cursor stops moving and reads return
/// zero, so a caller checks `ok` once after a run of reads.
struct PayloadReader {
  const uint8_t* p;
  size_t remaining;
  bool ok = true;

  /// The next `n` bytes, or null (and !ok) when fewer remain.
  const uint8_t* Take(size_t n) {
    if (!ok || remaining < n) {
      ok = false;
      return nullptr;
    }
    const uint8_t* out = p;
    p += n;
    remaining -= n;
    return out;
  }
  uint8_t U8() { const uint8_t* q = Take(1); return q ? *q : 0; }
  uint16_t U16() { const uint8_t* q = Take(2); return q ? GetU16(q) : 0; }
  uint32_t U32() { const uint8_t* q = Take(4); return q ? GetU32(q) : 0; }
  uint64_t U64() { const uint8_t* q = Take(8); return q ? GetU64(q) : 0; }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() { const uint8_t* q = Take(8); return q ? GetF64(q) : 0.0; }
  /// Fills `values` with the next values.size() little-endian values.
  template <typename T>
  void Array(std::vector<T>& values) {
    const uint8_t* q = Take(values.size() * sizeof(T));
    if (q != nullptr) GetArray(q, values.data(), values.size());
  }
  std::string String(size_t n) {
    const uint8_t* q = Take(n);
    return q ? std::string(reinterpret_cast<const char*>(q), n)
             : std::string();
  }
};

}  // namespace geostreams

#endif  // GEOSTREAMS_COMMON_BYTE_CODEC_H_
