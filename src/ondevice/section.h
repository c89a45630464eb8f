// The self-validating frame every optional .mcm section shares (the v3
// compiled plan, ondevice/plan.h, and the v4 catalog index,
// ondevice/catalog_index.h):
//
//   [prefix]   u32 magic, u32 format version, u32 endian check 0x01020304,
//              u32 flags (the kind's required flag must be set)
//   [header]   the kind's identity fields with one (u64 count, u64 offset)
//              entry per region; read through a stream capped at 64 KiB
//   [regions]  raw arrays, each at a 64-byte-aligned offset from the
//              section start (an empty region records offset 0)
//   [checksum] u64 section_checksum() over every byte before it
//
// SectionWriter and SectionReader own the frame; a section kind supplies
// only its identity fields and semantic checks. decode_section() states the
// decode contract once: it NEVER throws for a bad section — every defect
// comes back as kStale with a reason, so the loader falls back to
// rebuilding what the section carried.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

namespace memcom {

// Sections, their regions and the container's blobs all start on this
// boundary, so float regions stay aligned in the mapping.
constexpr std::uint64_t kSectionAlignment = 64;

inline std::uint64_t align_up(std::uint64_t offset, std::uint64_t alignment) {
  return (offset + alignment - 1) / alignment * alignment;
}

// "" when `count` elements of `elem_size` bytes at `offset` lie inside a
// `limit`-byte span at an aligned offset; otherwise "<what> out of <within>
// bounds" or "<what> misaligned". Overflow-safe: a hostile count whose byte
// size wraps back into range is still out of bounds.
std::string placement_error(std::uint64_t offset, std::uint64_t count,
                            std::uint64_t elem_size, std::uint64_t limit,
                            const std::string& what, const char* within);

// FNV-1a over 8-byte words, length bound. Exposed so hardening tests can
// re-seal deliberately hostile sections and prove the structural checks
// fire, not just the checksum.
std::uint64_t section_checksum(const std::uint8_t* data, std::size_t size);

// A buffer that either OWNS its storage (built in-process) or VIEWS a
// section region inside the file mapping (adopted, zero-copy). Consumers
// only use data()/size(), so the origins are interchangeable; move-only
// because a view of a moved-from owner would dangle.
template <typename T>
class SectionBuffer {
 public:
  SectionBuffer() = default;
  SectionBuffer(SectionBuffer&&) = default;
  SectionBuffer& operator=(SectionBuffer&&) = default;
  SectionBuffer(const SectionBuffer&) = delete;
  SectionBuffer& operator=(const SectionBuffer&) = delete;

  static SectionBuffer owned(std::vector<T> values) {
    SectionBuffer buffer;
    buffer.storage_ = std::move(values);
    buffer.data_ = buffer.storage_.data();
    buffer.size_ = buffer.storage_.size();
    return buffer;
  }
  // `data` must stay mapped for the buffer's lifetime (the CompiledModel
  // keeps the MmapModel alive exactly as long as its plan and index).
  static SectionBuffer view(const T* data, std::size_t count) {
    SectionBuffer buffer;
    buffer.data_ = data;
    buffer.size_ = count;
    return buffer;
  }

  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t byte_size() const { return size_ * sizeof(T); }
  T operator[](std::size_t i) const { return data_[i]; }
  // True when the buffer views the mapping instead of owning a heap copy —
  // the cold-start win adoption is about.
  bool zero_copy() const { return data_ != nullptr && storage_.empty(); }

 private:
  std::vector<T> storage_;
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

// What tells one section kind's frame from another's. Every reason the
// frame reports starts with `label` ("plan checksum mismatch").
struct SectionKind {
  std::uint32_t magic;
  std::uint32_t format_version;
  std::uint32_t required_flag;
  const char* label;
  const char* flag_reason;  // stale reason when required_flag is clear
  const char* region_noun;  // "<label> <noun> misaligned"
};

class SectionWriter {
 public:
  explicit SectionWriter(const SectionKind& kind);  // writes the prefix

  // The kind's identity fields, in the order its parser reads them.
  std::ostream& header() { return header_; }

  // Writes the region's (count, offset) entry into the header; finish()
  // lays the bytes out. `buffer` must outlive finish().
  template <typename T>
  void region(const SectionBuffer<T>& buffer) {
    add_region(buffer.data(), buffer.byte_size(), buffer.size());
  }

  // The sealed section: header, aligned regions, trailing checksum.
  std::vector<std::uint8_t> finish();

 private:
  struct Pending {
    const void* data;
    std::uint64_t bytes;
    std::uint64_t entry_at;  // header position of the offset word
  };
  void add_region(const void* data, std::uint64_t bytes, std::uint64_t count);

  std::ostringstream header_;
  std::vector<Pending> regions_;
};

struct SectionRegion {
  std::uint64_t count = 0;
  std::uint64_t offset = 0;
};

class SectionReader {
 public:
  // Validates the frame — length, prefix, checksum — and positions header()
  // after the prefix. Nothing but error() may be used when it is non-empty.
  SectionReader(const SectionKind& kind, const std::uint8_t* data,
                std::size_t size);

  // The frame's defect, or the last rejected region's.
  const std::string& error() const { return error_; }
  std::uint32_t format_version() const { return format_version_; }

  // Reads past the 64 KiB cap or the section end throw.
  std::istream& header() { return header_; }
  SectionRegion read_region();

  // Points `out` at `region` (an empty buffer for count 0). Returns false
  // and sets error() when the region leaves the section or is misaligned.
  template <typename T>
  bool view(const SectionRegion& region, SectionBuffer<T>& out) {
    const std::uint8_t* at = region_data(region, sizeof(T));
    out = SectionBuffer<T>::view(reinterpret_cast<const T*>(at),
                                 static_cast<std::size_t>(region.count));
    return error_.empty();
  }

 private:
  // Read-only stream over the mapped header bytes, no copy.
  struct SpanBuf : std::streambuf {
    SpanBuf(const std::uint8_t* data, std::size_t size);
  };
  const std::uint8_t* region_data(const SectionRegion& region,
                                  std::size_t elem_size);

  const SectionKind& kind_;
  const std::uint8_t* data_;
  std::size_t size_;
  std::uint32_t format_version_ = 0;
  std::string error_;
  SpanBuf buf_;
  std::istream header_;
};

enum class SectionStatus : std::uint8_t {
  kAbsent,  // the file carries no such section
  kValid,   // decoded, verified, ready to adopt
  kStale,   // present but unusable — `reason` says why; caller falls back
};

struct SectionVerdict {
  SectionStatus status = SectionStatus::kAbsent;
  std::string reason;                // non-empty exactly when kStale
  std::uint32_t format_version = 0;  // the prefix's, once the frame is valid
};

// `size` 0 means the file declares no section (kAbsent); `data` nullptr
// means it was unreachable (kStale with `bounds_error`). Otherwise the
// frame is checked and `parse` reads the kind's header and regions,
// returning "" when valid or the stale reason; anything it throws becomes
// "<label> section unreadable: ...". Never throws.
void decode_section(const SectionKind& kind, const std::uint8_t* data,
                    std::uint64_t size, const std::string& bounds_error,
                    SectionVerdict& verdict,
                    const std::function<std::string(SectionReader&)>& parse);

}  // namespace memcom
