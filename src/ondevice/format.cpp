#include "ondevice/format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/check.h"
#include "core/serialize.h"
#include "ondevice/catalog_index.h"
#include "ondevice/plan.h"
#include "ondevice/section.h"

namespace memcom {

namespace {
constexpr std::uint32_t kMagic = 0x314D434DU;  // "MCM1" little-endian

// The optional sections in locator (and file) order, with the version
// that introduced each locator.
struct SectionSlot {
  std::uint32_t since_version;
  const char* name;
};
constexpr SectionSlot kSections[] = {{3, "plan"}, {4, "catalog index"}};
}  // namespace

ModelWriter::ModelWriter(std::string path) : path_(std::move(path)) {}

void ModelWriter::set_metadata(const std::string& key,
                               const std::string& value) {
  metadata_[key] = value;
}

void ModelWriter::set_metadata_int(const std::string& key,
                                   std::int64_t value) {
  metadata_[key] = std::to_string(value);
}

void ModelWriter::set_model_identity(const std::string& name,
                                     std::uint64_t version) {
  check(!name.empty(), "ModelWriter: model name must be non-empty");
  check(version >= 1, "ModelWriter: model version must be >= 1");
  metadata_["model_name"] = name;
  metadata_["model_version"] = std::to_string(version);
}

void ModelWriter::add_tensor(const std::string& name, const Tensor& tensor,
                             DType dtype, Index group_size) {
  check(!finished_, "ModelWriter: add_tensor after finish");
  for (const auto& [existing, unused] : tensors_) {
    check(existing != name, "ModelWriter: duplicate tensor name " + name);
  }
  tensors_.emplace_back(name, quantize(tensor, dtype, group_size));
}

std::uint64_t ModelWriter::finish() {
  check(!finished_, "ModelWriter: finish called twice");
  finished_ = true;

  // Grouped tensors need a per-entry group_size field; that is format
  // version 2. Files without any stay at version 1 so pre-v2 readers keep
  // opening them. The version only ever bumps to 3 when a plan section is
  // actually emitted below.
  bool any_grouped = false;
  for (const auto& [unused, qt] : tensors_) {
    any_grouped = any_grouped || dtype_is_grouped(qt.dtype);
  }
  std::vector<std::vector<std::uint8_t>> sections(std::size(kSections));
  std::uint64_t total = write_file(any_grouped ? 2 : 1, sections);
  if (emit_plan_ || emit_index_) {
    // Two-pass emit: stage the section-less file, build the sections from
    // it with the very functions the load-time fallbacks run (so a cold
    // compile / in-process index build of this file reproduces the
    // serialized buffers bit-for-bit), then rewrite with the sections
    // appended. The version is the lowest the contents need: an index
    // forces v4, a plan alone v3.
    {
      const MmapModel staged(path_);
      if (emit_plan_) {
        sections[0] = serialize_plan(build_plan(staged));
      }
      if (emit_index_) {
        CatalogIndexConfig config;
        config.clusters = index_clusters_;
        sections[1] = serialize_catalog_index(
            build_catalog_index_for_model(staged, config));
      }
    }
    total = write_file(emit_index_ ? 4 : 3, sections);
  }
  return total;
}

std::uint64_t ModelWriter::write_file(
    std::uint32_t version,
    const std::vector<std::vector<std::uint8_t>>& sections) {
  // Everything behind the front matter, in file order: the blobs, then the
  // sections this version has locators for. Each starts 64-byte aligned,
  // so float payloads stay aligned in the mapping.
  std::vector<const std::vector<std::uint8_t>*> payloads;
  for (const auto& [unused, qt] : tensors_) {
    payloads.push_back(&qt.payload);
  }
  for (std::size_t s = 0; s < sections.size(); ++s) {
    if (version >= kSections[s].since_version) {
      payloads.push_back(&sections[s]);
    }
  }
  // Serialize the front once with zero offsets to learn its size (blob
  // offsets and section locators are fixed-width u64), then for real.
  auto serialize_front = [&](const std::vector<std::uint64_t>& offsets,
                             std::ostream& os) {
    write_u32(os, kMagic);
    write_u32(os, version);
    for (std::size_t i = tensors_.size(); i < payloads.size(); ++i) {
      write_u64(os, offsets[i]);
      write_u64(os, payloads[i]->size());
    }
    write_u64(os, metadata_.size());
    for (const auto& [key, value] : metadata_) {
      write_string(os, key);
      write_string(os, value);
    }
    write_u64(os, tensors_.size());
    for (std::size_t i = 0; i < tensors_.size(); ++i) {
      const auto& [name, qt] = tensors_[i];
      write_string(os, name);
      write_u32(os, static_cast<std::uint32_t>(qt.dtype));
      write_u64(os, qt.shape.size());
      for (const Index d : qt.shape) {
        write_i64(os, d);
      }
      write_f32(os, qt.scale);
      if (version >= 2) {
        write_u64(os, static_cast<std::uint64_t>(qt.group_size));
      }
      write_u64(os, offsets[i]);
      write_u64(os, qt.payload.size());
    }
  };

  std::ostringstream probe;
  serialize_front(std::vector<std::uint64_t>(payloads.size(), 0), probe);
  std::vector<std::uint64_t> offsets(payloads.size());
  std::uint64_t cursor = static_cast<std::uint64_t>(probe.str().size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    offsets[i] = align_up(cursor, kSectionAlignment);
    cursor = offsets[i] + payloads[i]->size();
  }

  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  check(out.good(), "ModelWriter: cannot open " + path_);
  serialize_front(offsets, out);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const std::uint64_t pos = static_cast<std::uint64_t>(out.tellp());
    check(pos <= offsets[i], "ModelWriter: offset bookkeeping error");
    for (std::uint64_t p = pos; p < offsets[i]; ++p) {
      out.put('\0');
    }
    out.write(reinterpret_cast<const char*>(payloads[i]->data()),
              static_cast<std::streamsize>(payloads[i]->size()));
  }
  const std::uint64_t total = static_cast<std::uint64_t>(out.tellp());
  out.close();
  check(out.good(), "ModelWriter: write failed for " + path_);
  return total;
}

MmapModel::MmapModel(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  check(fd >= 0, "MmapModel: cannot open " + path);
  // Close the descriptor before any check can reject the file.
  struct stat st = {};
  const bool stat_ok = ::fstat(fd, &st) == 0;
  file_size_ = stat_ok ? static_cast<std::uint64_t>(st.st_size) : 0;
  void* map = file_size_ > 0 ? ::mmap(nullptr, file_size_, PROT_READ,
                                      MAP_PRIVATE, fd, 0)
                             : MAP_FAILED;
  ::close(fd);
  check(stat_ok, "MmapModel: fstat failed for " + path);
  check(file_size_ > 0, "MmapModel: empty file " + path);
  check(map != MAP_FAILED, "MmapModel: mmap failed for " + path);
  mapping_ = {static_cast<const std::uint8_t*>(map), Unmap{file_size_}};

  // Parse the front matter through an istream view of the mapping.
  std::istringstream is(std::string(
      reinterpret_cast<const char*>(mapping_.get()),
      static_cast<std::size_t>(std::min<std::uint64_t>(file_size_, 1 << 20))));
  check_eq(static_cast<long long>(kMagic),
           static_cast<long long>(read_u32(is)), "MmapModel magic");
  // Version 1: original directory. Version 2: adds a u64 group_size per
  // entry (grouped sub-byte dtypes). Versions 3 and 4 each add the locator
  // of one trailing section (kSections). All stay readable forever.
  const std::uint32_t version = read_u32(is);
  check(version >= 1 && version <= 4, "MmapModel: unsupported version " +
                                          std::to_string(version));
  format_version_ = version;
  static_assert(std::size(kSections) == kSectionCount);
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    if (version < kSections[s].since_version) {
      continue;
    }
    SectionLocator& section = sections_[s];
    section.offset = read_u64(is);
    section.size = read_u64(is);
    // Lenient bounds: a corrupt locator makes the section unreachable (the
    // loader falls back), it does not fail the open — the tensor payloads
    // this header describes are still intact.
    if (section.size > 0) {
      section.bounds_error =
          placement_error(section.offset, section.size, 1, file_size_,
                          std::string(kSections[s].name) + " section", "file");
    }
  }
  const std::uint64_t metadata_count = read_u64(is);
  for (std::uint64_t i = 0; i < metadata_count; ++i) {
    std::string key = read_string(is);
    std::string value = read_string(is);
    metadata_.emplace(std::move(key), std::move(value));
  }
  const std::uint64_t tensor_count = read_u64(is);
  for (std::uint64_t i = 0; i < tensor_count; ++i) {
    TensorEntry entry;
    entry.name = read_string(is);
    const std::uint32_t raw_dtype = read_u32(is);
    check(raw_dtype <= static_cast<std::uint32_t>(DType::kI4G),
          "MmapModel: unknown dtype for " + entry.name);
    entry.dtype = static_cast<DType>(raw_dtype);
    const std::uint64_t ndim = read_u64(is);
    check(ndim <= 8, "MmapModel: implausible tensor rank");
    entry.shape.resize(ndim);
    // Overflow-checked element count: a hostile directory can pick dims
    // whose product wraps std::int64_t (UB in shape_numel) or whose packed
    // byte size wraps std::uint64_t back to a plausible value.
    std::int64_t numel = 1;
    for (std::uint64_t d = 0; d < ndim; ++d) {
      entry.shape[d] = read_i64(is);
      check(entry.shape[d] >= 0,
            "MmapModel: negative dimension for " + entry.name);
      check(entry.shape[d] == 0 ||
                numel <= std::numeric_limits<std::int64_t>::max() /
                             entry.shape[d],
            "MmapModel: tensor element count overflows for " + entry.name);
      numel *= entry.shape[d];
    }
    // Densest dtype packs 2 elements per byte, so anything beyond
    // 2*file_size elements cannot be backed by this file — and bounding
    // numel here keeps packed_byte_size below from wrapping.
    check(static_cast<std::uint64_t>(numel) <= file_size_ * 2,
          "MmapModel: tensor larger than file for " + entry.name);
    entry.scale = read_f32(is);
    if (version >= 2) {
      const std::uint64_t raw_group = read_u64(is);
      check(raw_group <=
                static_cast<std::uint64_t>(std::numeric_limits<Index>::max()),
            "MmapModel: implausible group_size for " + entry.name);
      entry.group_size = static_cast<Index>(raw_group);
    }
    // Grouped dtypes require a valid group size; everything else must not
    // carry one (a v1 file can never declare a grouped dtype — the field
    // defaulting to 0 would fail here).
    if (dtype_is_grouped(entry.dtype)) {
      check(entry.group_size > 0 && entry.group_size % 8 == 0,
            "MmapModel: invalid group_size for " + entry.name);
    } else {
      check(entry.group_size == 0,
            "MmapModel: group_size on ungrouped tensor " + entry.name);
    }
    entry.offset = read_u64(is);
    entry.byte_size = read_u64(is);
    // The payload must carry exactly the elements the shape promises...
    check(entry.byte_size ==
              packed_byte_size(entry.dtype, static_cast<std::size_t>(numel),
                               entry.group_size),
          "MmapModel: blob size does not match shape for " + entry.name);
    // ...and live inside the file (subtraction form: offset + byte_size
    // could wrap around std::uint64_t on a hostile directory).
    check(entry.byte_size <= file_size_ &&
              entry.offset <= file_size_ - entry.byte_size,
          "MmapModel: blob out of bounds for " + entry.name);
    const std::string name = entry.name;
    const auto [it, inserted] = entries_.emplace(name, std::move(entry));
    check(inserted, "MmapModel: duplicate tensor name " + name);
    // Positional view in FILE order (map nodes are pointer-stable): plan
    // handles index into this.
    ordered_.push_back(&it->second);
  }
}

void MmapModel::Unmap::operator()(const std::uint8_t* data) const {
  ::munmap(const_cast<std::uint8_t*>(data), size);
}

std::string MmapModel::metadata_value(const std::string& key) const {
  const auto it = metadata_.find(key);
  check(it != metadata_.end(), "MmapModel: missing metadata key " + key);
  return it->second;
}

std::int64_t MmapModel::metadata_int(const std::string& key) const {
  // stoll alone would leak std::invalid_argument (and accept trailing
  // garbage like "12abc"); a corrupt metadata value must fail like every
  // other malformed-file problem: with one clean runtime_error.
  const std::string value = metadata_value(key);
  try {
    std::size_t consumed = 0;
    const long long parsed = std::stoll(value, &consumed);
    check(consumed == value.size(),
          "MmapModel: non-numeric metadata " + key + "=" + value);
    return parsed;
  } catch (const std::invalid_argument&) {
    check(false, "MmapModel: non-numeric metadata " + key + "=" + value);
  } catch (const std::out_of_range&) {
    check(false, "MmapModel: metadata out of range " + key + "=" + value);
  }
  return 0;  // unreachable
}

std::string MmapModel::model_name() const {
  const auto it = metadata_.find("model_name");
  return it != metadata_.end() ? it->second : std::string();
}

std::uint64_t MmapModel::model_version() const {
  // Legacy files carry no identity; report the version-0 sentinel instead
  // of failing like a missing mandatory key would.
  if (!has_metadata("model_version")) {
    return 0;
  }
  const std::int64_t version = metadata_int("model_version");
  check(version >= 0, "MmapModel: negative model_version");
  return static_cast<std::uint64_t>(version);
}

bool MmapModel::has_tensor(const std::string& name) const {
  return entries_.count(name) > 0;
}

const TensorEntry& MmapModel::entry(const std::string& name) const {
  entry_lookups_.fetch_add(1, std::memory_order_relaxed);
  const auto it = entries_.find(name);
  check(it != entries_.end(), "MmapModel: missing tensor " + name);
  return it->second;
}

const TensorEntry& MmapModel::entry_at(std::size_t index) const {
  check(index < ordered_.size(),
        "MmapModel: directory index out of range " + std::to_string(index));
  return *ordered_[index];
}

std::size_t MmapModel::entry_index(const std::string& name) const {
  for (std::size_t i = 0; i < ordered_.size(); ++i) {
    if (ordered_[i]->name == name) {
      return i;
    }
  }
  check(false, "MmapModel: missing tensor " + name);
  return 0;  // unreachable
}

const std::uint8_t* MmapModel::section_data(std::size_t slot) const {
  const SectionLocator& section = sections_[slot];
  if (section.size == 0 || !section.bounds_error.empty()) {
    return nullptr;
  }
  return mapping_.get() + section.offset;
}

std::vector<std::string> MmapModel::tensor_names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, unused] : entries_) {
    names.push_back(name);
  }
  return names;
}

const std::uint8_t* MmapModel::payload(const TensorEntry& e) const {
  return mapping_.get() + e.offset;
}

Tensor MmapModel::load_tensor(const std::string& name) const {
  const TensorEntry& e = entry(name);
  Tensor out(e.shape);
  const std::uint8_t* blob = payload(e);
  if (e.dtype == DType::kI4G) {
    const auto* scales = reinterpret_cast<const float*>(blob);
    const std::uint8_t* packed =
        blob + i4g_scales_bytes(static_cast<std::size_t>(out.numel()),
                                e.group_size);
    dequantize_span_i4g(scales, packed, e.group_size, 0, out.numel(),
                        out.data());
  } else {
    dequantize_span(e.dtype, e.scale, blob, 0, out.numel(), out.data());
  }
  return out;
}

}  // namespace memcom
