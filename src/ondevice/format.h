// The .mcm on-device model format: a flat, mmap-friendly container.
//
// Layout:
//   [header]   magic "MCM1", version, one (u64 offset, u64 size) locator
//              per optional section the version has (v3+: plan, v4+:
//              catalog index), counts
//   [metadata] key/value string pairs (architecture, technique, dims, ...)
//   [directory] per tensor: name, dtype, shape, scale, blob offset+size
//   [blobs]    raw tensor payloads, each aligned to 64 bytes
//   [plan]     v3+ only: serialized compiled plan (see ondevice/plan.h)
//   [index]    v4 only: serialized catalog index (ondevice/catalog_index.h)
//
// Both optional sections use the one section frame of ondevice/section.h
// (prefix, aligned regions, checksum, never-throw decode) and start
// 64-byte aligned after the blobs, in locator order.
//
// The reader maps the file with mmap(2) (read-only, MAP_PRIVATE) and hands
// out zero-copy views, exactly like CoreML / TF-Lite weight files (§3 of
// the paper). Blob offsets are relative to the file start so the memory
// meter can attribute page touches.
//
// Versioning discipline: v2 added per-entry group_size for grouped dtypes;
// v3 adds the plan section's locator; v4 adds the catalog-index section's.
// A file is only ever written at the lowest version its contents need, so
// plan-less/index-less exports stay byte-identical to what pre-v3/pre-v4
// writers produced and remain readable by old readers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "ondevice/quantize.h"

namespace memcom {

struct TensorEntry {
  std::string name;
  DType dtype = DType::kF32;
  Shape shape;
  float scale = 1.0f;
  Index group_size = 0;  // i4g: elements per scale group, 0 otherwise
  std::uint64_t offset = 0;  // byte offset of the blob within the file
  std::uint64_t byte_size = 0;

  Index numel() const { return shape_numel(shape); }
};

class ModelWriter {
 public:
  explicit ModelWriter(std::string path);

  void set_metadata(const std::string& key, const std::string& value);
  void set_metadata_int(const std::string& key, std::int64_t value);

  // Stamps the model's deployment identity ("model_name"/"model_version"
  // metadata): a stable name shared across refreshes of the same logical
  // model and a monotonically increasing version the ModelRegistry's
  // hot-swap path enforces. `version` must be >= 1 (0 is the legacy "no
  // identity" sentinel readers report for old files).
  void set_model_identity(const std::string& name, std::uint64_t version);

  // Quantizes `tensor` to `dtype` and schedules it for writing.
  // `group_size` is only meaningful for kI4G (0 picks kI4GroupDefault);
  // grouped tensors bump the container to format version 2, which appends
  // a per-entry group_size field to the directory. Files without grouped
  // tensors keep writing version 1, so old readers stay compatible.
  void add_tensor(const std::string& name, const Tensor& tensor,
                  DType dtype = DType::kF32, Index group_size = 0);

  // Appends an ahead-of-time compiled plan section, bumping the container
  // to v3. finish() stages the plan-less file, builds the plan from it
  // with the SAME build_plan() the load-time fallback uses (bit-identity
  // by construction), and rewrites the file with the section appended.
  // Requires full engine metadata (arch/technique/dims) — finish() throws
  // on a file build_plan() cannot compile.
  void set_emit_plan(bool emit = true) { emit_plan_ = emit; }

  // Appends a clustered catalog-index section (ondevice/catalog_index.h),
  // bumping the container to v4. Like the plan, finish() stages the
  // section-less file first and builds the index from it with the SAME
  // build_catalog_index_for_model() an in-process builder would use.
  // `clusters` == 0 picks the ~sqrt(items) default. Requires an output
  // catalog (out.weight/out.bias) — finish() throws without one.
  void set_emit_catalog_index(bool emit = true, Index clusters = 0) {
    emit_index_ = emit;
    index_clusters_ = clusters;
  }

  // Writes the file; returns total bytes written. The writer is single-use.
  std::uint64_t finish();

 private:
  // `sections`: each optional section's bytes, in locator order.
  std::uint64_t write_file(
      std::uint32_t version,
      const std::vector<std::vector<std::uint8_t>>& sections);

  std::string path_;
  std::map<std::string, std::string> metadata_;
  std::vector<std::pair<std::string, QuantizedTensor>> tensors_;
  bool emit_plan_ = false;
  bool emit_index_ = false;
  Index index_clusters_ = 0;
  bool finished_ = false;
};

class MmapModel {
 public:
  explicit MmapModel(const std::string& path);

  MmapModel(const MmapModel&) = delete;
  MmapModel& operator=(const MmapModel&) = delete;

  const std::map<std::string, std::string>& metadata() const {
    return metadata_;
  }
  std::string metadata_value(const std::string& key) const;
  std::int64_t metadata_int(const std::string& key) const;
  bool has_metadata(const std::string& key) const {
    return metadata_.count(key) > 0;
  }

  // Deployment identity, tolerant of legacy files written before
  // set_model_identity existed: an empty name / version 0 means the file
  // carries no identity metadata.
  bool has_model_identity() const { return has_metadata("model_name"); }
  std::string model_name() const;
  std::uint64_t model_version() const;

  bool has_tensor(const std::string& name) const;
  const TensorEntry& entry(const std::string& name) const;
  std::vector<std::string> tensor_names() const;

  // Positional directory access, in FILE ORDER. Plan sections record tensor
  // handles as these stable indices; adopting a plan re-resolves them here
  // and verifies the recorded name still lives at the recorded slot.
  std::size_t entry_count() const { return ordered_.size(); }
  const TensorEntry& entry_at(std::size_t index) const;
  // Directory index of `name` (throws when missing). Compile-time only.
  std::size_t entry_index(const std::string& name) const;

  // Number of string-keyed directory lookups served since the model was
  // opened. The inference fast path resolves all handles at engine
  // construction, so this must stay flat across steady-state run() calls —
  // tests/test_fastpath.cpp enforces it.
  std::uint64_t entry_lookup_count() const {
    return entry_lookups_.load(std::memory_order_relaxed);
  }

  // Zero-copy pointer to the blob payload inside the mapping.
  const std::uint8_t* payload(const TensorEntry& entry) const;

  // Dequantizing full-tensor load (copies).
  Tensor load_tensor(const std::string& name) const;

  std::uint64_t file_size() const { return file_size_; }
  std::uint32_t format_version() const { return format_version_; }

  // Optional sections. Locators are validated LENIENTLY: a header that
  // declares a section falling outside the file (or misaligned) marks it
  // unreachable (*_data() == nullptr, reason in *_bounds_error()) instead
  // of failing the open — the tensors themselves are intact, so the loader
  // falls back to a full compile (plan) or the exact scan (index).
  bool has_plan_section() const { return sections_[kPlan].size > 0; }
  const std::uint8_t* plan_data() const { return section_data(kPlan); }
  std::uint64_t plan_offset() const { return sections_[kPlan].offset; }
  std::uint64_t plan_size() const { return sections_[kPlan].size; }
  const std::string& plan_bounds_error() const {
    return sections_[kPlan].bounds_error;
  }

  bool has_index_section() const { return sections_[kIndex].size > 0; }
  const std::uint8_t* index_data() const { return section_data(kIndex); }
  std::uint64_t index_offset() const { return sections_[kIndex].offset; }
  std::uint64_t index_size() const { return sections_[kIndex].size; }
  const std::string& index_bounds_error() const {
    return sections_[kIndex].bounds_error;
  }

 private:
  enum : std::size_t { kPlan, kIndex, kSectionCount };
  struct SectionLocator {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;  // 0: not declared
    std::string bounds_error;
  };
  // Unmaps on destruction, also when a check() rejects the open midway.
  struct Unmap {
    std::uint64_t size;
    void operator()(const std::uint8_t* data) const;
  };

  // nullptr when the section is absent or unreachable.
  const std::uint8_t* section_data(std::size_t slot) const;

  std::map<std::string, std::string> metadata_;
  std::map<std::string, TensorEntry> entries_;
  std::vector<const TensorEntry*> ordered_;  // directory in file order
  std::unique_ptr<const std::uint8_t, Unmap> mapping_;
  std::uint64_t file_size_ = 0;
  std::uint32_t format_version_ = 1;
  std::array<SectionLocator, kSectionCount> sections_;
  // Mutable: counting lookups does not change the logical model. Atomic so
  // concurrent serving engines sharing one model stay race-free.
  mutable std::atomic<std::uint64_t> entry_lookups_{0};
};

}  // namespace memcom
