#include "ondevice/section.h"

#include <algorithm>
#include <cstring>

#include "core/serialize.h"

namespace memcom {

namespace {
constexpr std::uint32_t kEndianCheck = 0x01020304U;
// Fixed-size prefix (magic, format, endian, flags) + trailing checksum: the
// least a section can hold before structural parsing is even attempted.
constexpr std::size_t kPrefixBytes = 4 * sizeof(std::uint32_t);
constexpr std::size_t kMinBytes = kPrefixBytes + sizeof(std::uint64_t);
// Header fields all live well under this; regions may lie beyond (they are
// addressed by offset, not parsed from the stream).
constexpr std::size_t kHeaderCap = std::size_t{1} << 16;
}  // namespace

std::string placement_error(std::uint64_t offset, std::uint64_t count,
                            std::uint64_t elem_size, std::uint64_t limit,
                            const std::string& what, const char* within) {
  if (count > limit / elem_size || offset > limit - count * elem_size) {
    return what + " out of " + within + " bounds";
  }
  return offset % kSectionAlignment == 0 ? "" : what + " misaligned";
}

std::uint64_t section_checksum(const std::uint8_t* data, std::size_t size) {
  // FNV-1a over 8-byte little-endian words (tail zero-padded), length
  // bound: one multiply per word instead of per byte keeps validating a
  // section cheap next to the dequantization work adoption replaces.
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t hash = 14695981039346656037ULL;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    hash = (hash ^ word) * kPrime;
  }
  if (i < size) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, size - i);
    hash = (hash ^ word) * kPrime;
  }
  return (hash ^ static_cast<std::uint64_t>(size)) * kPrime;
}

SectionWriter::SectionWriter(const SectionKind& kind) {
  write_u32(header_, kind.magic);
  write_u32(header_, kind.format_version);
  write_u32(header_, kEndianCheck);
  write_u32(header_, kind.required_flag);
}

void SectionWriter::add_region(const void* data, std::uint64_t bytes,
                               std::uint64_t count) {
  write_u64(header_, count);
  // Offsets are fixed-width, so the header size does not depend on their
  // values: record a zero now, patch it in finish().
  regions_.push_back(
      Pending{data, bytes, static_cast<std::uint64_t>(header_.tellp())});
  write_u64(header_, 0);
}

std::vector<std::uint8_t> SectionWriter::finish() {
  const std::string header = header_.str();
  std::vector<std::uint8_t> bytes(header.begin(), header.end());
  for (const Pending& region : regions_) {
    if (region.bytes == 0) {
      continue;  // empty regions keep offset 0 and take no space
    }
    const std::uint64_t offset = align_up(bytes.size(), kSectionAlignment);
    std::memcpy(bytes.data() + region.entry_at, &offset, sizeof(offset));
    bytes.resize(offset, 0);
    const auto* data = static_cast<const std::uint8_t*>(region.data);
    bytes.insert(bytes.end(), data, data + region.bytes);
  }
  const std::uint64_t checksum = section_checksum(bytes.data(), bytes.size());
  const auto* sum = reinterpret_cast<const std::uint8_t*>(&checksum);
  bytes.insert(bytes.end(), sum, sum + sizeof(checksum));
  return bytes;
}

SectionReader::SpanBuf::SpanBuf(const std::uint8_t* data, std::size_t size) {
  char* begin = reinterpret_cast<char*>(const_cast<std::uint8_t*>(data));
  setg(begin, begin, begin + size);
}

SectionReader::SectionReader(const SectionKind& kind, const std::uint8_t* data,
                             std::size_t size)
    : kind_(kind),
      data_(data),
      size_(size),
      buf_(data, std::min(size, kHeaderCap)),
      header_(&buf_) {
  const std::string label = kind.label;
  if (size < kMinBytes) {
    error_ = label + " section truncated (" + std::to_string(size) + " bytes)";
    return;
  }
  // Fixed-prefix compatibility gate first, checksum second; the kind's
  // structure and semantics come after, each layer only reading what the
  // previous one vouched for.
  std::uint32_t prefix[4];
  std::memcpy(prefix, data, sizeof(prefix));
  if (prefix[0] != kind.magic) {
    error_ = "bad " + label + " magic";
  } else if (prefix[1] != kind.format_version) {
    error_ = "unsupported " + label + " format version " +
             std::to_string(prefix[1]);
  } else if (prefix[2] != kEndianCheck) {
    error_ = label + " endianness mismatch";
  } else if ((prefix[3] & kind.required_flag) == 0) {
    error_ = kind.flag_reason;
  } else {
    std::uint64_t stored = 0;
    std::memcpy(&stored, data + size - sizeof(stored), sizeof(stored));
    if (section_checksum(data, size - sizeof(stored)) != stored) {
      error_ = label + " checksum mismatch";
    }
  }
  if (error_.empty()) {
    format_version_ = prefix[1];
    header_.ignore(kPrefixBytes);
  }
}

SectionRegion SectionReader::read_region() {
  SectionRegion region;
  region.count = read_u64(header_);
  region.offset = read_u64(header_);
  return region;
}

const std::uint8_t* SectionReader::region_data(const SectionRegion& region,
                                               std::size_t elem_size) {
  if (region.count == 0) {
    return nullptr;
  }
  // Regions live before the trailing checksum.
  error_ = placement_error(region.offset, region.count, elem_size,
                           size_ - sizeof(std::uint64_t),
                           std::string(kind_.label) + " " + kind_.region_noun,
                           "section");
  return error_.empty() ? data_ + region.offset : nullptr;
}

void decode_section(const SectionKind& kind, const std::uint8_t* data,
                    std::uint64_t size, const std::string& bounds_error,
                    SectionVerdict& verdict,
                    const std::function<std::string(SectionReader&)>& parse) {
  verdict = SectionVerdict{};
  if (size == 0) {
    return;  // kAbsent
  }
  verdict.status = SectionStatus::kStale;
  // A declared-but-unreachable section (out of file bounds, misaligned) was
  // flagged at open; stale, not fatal — the tensors themselves are intact.
  if (data == nullptr) {
    verdict.reason = bounds_error;
    return;
  }
  try {
    SectionReader reader(kind, data, static_cast<std::size_t>(size));
    verdict.reason = reader.error().empty() ? parse(reader) : reader.error();
    verdict.format_version = reader.format_version();
  } catch (const std::exception& e) {
    // Truncated/garbled header: the stream readers throw; report, fall
    // back. A bad section must never take down a loadable model.
    verdict.reason =
        std::string(kind.label) + " section unreadable: " + e.what();
  }
  if (verdict.reason.empty()) {
    verdict.status = SectionStatus::kValid;
  }
}

}  // namespace memcom
