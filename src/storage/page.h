// Fixed-size pages and page identifiers for the simulated secondary store.
//
// The paper's system parameters (Fig. 3) fix the *net* page size at 4056
// bytes; all capacity formulas (objects per page Eq. 17, ASR tuples per page
// Eq. 14, B+ tree fan-out) are derived from it. kPageSize is that net size:
// header bytes consumed by our own page layouts (slotted page directory,
// B+ node headers) are accounted inside the net area, matching how the
// analytical model treats them as negligible.
#ifndef ASR_STORAGE_PAGE_H_
#define ASR_STORAGE_PAGE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/macros.h"

namespace asr::storage {

inline constexpr uint32_t kPageSize = 4056;

// Identifies a page as (segment, page number within segment). Segments group
// pages that belong to one physical structure: one per object type (the paper
// assumes type-based clustering, Eq. 18) and one per B+ tree.
struct PageId {
  uint32_t segment = UINT32_MAX;
  uint32_t page_no = UINT32_MAX;

  bool IsValid() const { return segment != UINT32_MAX; }

  friend bool operator==(PageId a, PageId b) {
    return a.segment == b.segment && a.page_no == b.page_no;
  }
  friend bool operator!=(PageId a, PageId b) { return !(a == b); }

  std::string ToString() const {
    if (!IsValid()) return "invalid";
    return std::to_string(segment) + ":" + std::to_string(page_no);
  }
};

inline constexpr PageId kInvalidPageId{};

// Raw page payload with bounds-checked scalar accessors.
class Page {
 public:
  Page() { data_.fill(std::byte{0}); }

  std::byte* data() { return data_.data(); }
  const std::byte* data() const { return data_.data(); }

  template <typename T>
  T Read(uint32_t offset) const {
    static_assert(std::is_trivially_copyable_v<T>);
    ASR_DCHECK(offset + sizeof(T) <= kPageSize);
    T value;
    std::memcpy(&value, data_.data() + offset, sizeof(T));
    return value;
  }

  template <typename T>
  void Write(uint32_t offset, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    ASR_DCHECK(offset + sizeof(T) <= kPageSize);
    std::memcpy(data_.data() + offset, &value, sizeof(T));
  }

  // `out` may be null when `len` is 0 (an empty vector's data(), as when a
  // zeroed slot directory reports an empty record); memcpy may not see it.
  void ReadBytes(uint32_t offset, void* out, uint32_t len) const {
    ASR_DCHECK(offset + len <= kPageSize);
    if (len == 0) return;
    std::memcpy(out, data_.data() + offset, len);
  }

  void WriteBytes(uint32_t offset, const void* in, uint32_t len) {
    ASR_DCHECK(offset + len <= kPageSize);
    std::memcpy(data_.data() + offset, in, len);
  }

  void Zero() { data_.fill(std::byte{0}); }

 private:
  std::array<std::byte, kPageSize> data_;
};

}  // namespace asr::storage

template <>
struct std::hash<asr::storage::PageId> {
  size_t operator()(asr::storage::PageId id) const noexcept {
    uint64_t x = (static_cast<uint64_t>(id.segment) << 32) | id.page_no;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    return static_cast<size_t>(x ^ (x >> 31));
  }
};

#endif  // ASR_STORAGE_PAGE_H_
