// mcm_inspect — print the contents of an exported .mcm on-device model:
// metadata, tensor directory (name / dtype / shape / quantization scale /
// blob offset / size), per-section byte accounting, the v3 compiled-plan
// verdict (present / absent / stale-with-reason), the v4 catalog-index
// verdict (format version, centroid count, cluster-size spread), and
// summary statistics per tensor.
//
//   ./mcm_inspect model.mcm [--stats]
//
// Exits 1 with "error: <reason>" when the reader rejects the file.
#include <algorithm>
#include <exception>
#include <iostream>
#include <vector>

#include "core/flags.h"
#include "core/table.h"
#include "ondevice/catalog_index.h"
#include "ondevice/format.h"
#include "ondevice/plan.h"

using namespace memcom;

int main(int argc, char** argv) try {
  const Flags flags(argc, argv);
  if (flags.positional().empty()) {
    std::cerr << "usage: mcm_inspect <model.mcm> [--stats]\n";
    return 2;
  }
  const std::string path = flags.positional()[0];
  const MmapModel model(path);

  std::cout << "file: " << path << " (" << model.file_size() << " bytes)\n";
  if (model.has_model_identity()) {
    std::cout << "model: " << model.model_name() << " (version "
              << model.model_version() << ")\n\n";
  } else {
    std::cout << "model: (legacy file — no name/version metadata)\n\n";
  }
  std::cout << "metadata:\n";
  for (const auto& [key, value] : model.metadata()) {
    std::cout << "  " << key << " = " << value << "\n";
  }

  TextTable table({"tensor", "dtype", "shape", "scale", "offset", "bytes"});
  std::uint64_t total_bytes = 0;
  for (const std::string& name : model.tensor_names()) {
    const TensorEntry& entry = model.entry(name);
    // Grouped dtypes print their group size inline ("i4g/32"): the group
    // size changes the payload layout, so it belongs in the dtype column.
    std::string dtype = dtype_name(entry.dtype);
    if (dtype_is_grouped(entry.dtype)) {
      dtype += '/';
      dtype += std::to_string(entry.group_size);
    }
    table.add_row({name, dtype,
                   shape_to_string(entry.shape),
                   format_float(entry.scale, 6),
                   std::to_string(entry.offset),
                   std::to_string(entry.byte_size)});
    total_bytes += entry.byte_size;
  }
  std::cout << "\n" << table.to_string();
  std::cout << "total tensor payload: " << total_bytes << " bytes ("
            << format_float(static_cast<double>(total_bytes) / 1024.0 / 1024.0,
                            2)
            << " MB)\n";

  // Per-section byte accounting. The front section runs up to the first
  // blob (or the plan section / end of file when there are no tensors);
  // whatever the named sections don't cover is inter-blob alignment pad.
  std::uint64_t first_blob = model.file_size();
  for (const std::string& name : model.tensor_names()) {
    first_blob = std::min(first_blob, model.entry(name).offset);
  }
  const std::uint64_t plan_bytes = model.plan_size();  // 0 when absent
  const std::uint64_t index_bytes = model.index_size();
  if (plan_bytes > 0) {
    first_blob = std::min(first_blob, model.plan_offset());
  }
  if (index_bytes > 0) {
    first_blob = std::min(first_blob, model.index_offset());
  }
  // Saturate: a stale v3/v4 header may declare a section size larger than
  // the file, and the inspector must keep printing, not wrap.
  const std::uint64_t covered =
      first_blob + total_bytes + plan_bytes + index_bytes;
  const std::uint64_t padding =
      covered <= model.file_size() ? model.file_size() - covered : 0;
  std::cout << "\nsections (format v" << model.format_version() << "):\n";
  std::cout << "  header + metadata + directory: " << first_blob
            << " bytes\n";
  std::cout << "  tensor payload: " << total_bytes << " bytes (+ " << padding
            << " alignment)\n";
  std::cout << "  compiled plan: " << plan_bytes << " bytes\n";
  std::cout << "  catalog index: " << index_bytes << " bytes\n";

  // Plan verdict: what a loader on this file would do.
  const PlanDecodeResult plan = decode_plan(model);
  switch (plan.status) {
    case PlanStatus::kValid:
      std::cout << "plan: present (valid — loader adopts, skipping compile)"
                << "\n";
      break;
    case PlanStatus::kAbsent:
      std::cout << "plan: absent (loader runs a full compile)\n";
      break;
    case PlanStatus::kStale:
      std::cout << "plan: stale — " << plan.reason
                << " (loader falls back to a full compile)\n";
      break;
  }

  // Catalog-index verdict: whether session ranking on this file can take
  // the clustered pruned scan, and the cluster-size spread when it can.
  const CatalogIndexDecodeResult index = decode_catalog_index(model);
  switch (index.status) {
    case PlanStatus::kValid: {
      std::vector<Index> sizes;
      sizes.reserve(static_cast<std::size_t>(index.index.clusters));
      for (Index c = 0; c < index.index.clusters; ++c) {
        sizes.push_back(index.index.cluster_size(c));
      }
      std::sort(sizes.begin(), sizes.end());
      std::cout << "catalog index: present (valid — section format v"
                << index.format_version << ", " << index.index.clusters
                << " centroids over " << index.index.items << " items x "
                << index.index.dim << " dims, cluster size min/median/max "
                << sizes.front() << "/" << sizes[sizes.size() / 2] << "/"
                << sizes.back() << ", " << index_bytes
                << " section bytes — pruned top-k available)\n";
      break;
    }
    case PlanStatus::kAbsent:
      std::cout << "catalog index: absent (session ranking scans the full "
                   "catalog)\n";
      break;
    case PlanStatus::kStale:
      std::cout << "catalog index: stale — " << index.reason
                << " (loader falls back to the exact full scan)\n";
      break;
  }

  // Output-table summary: the dense head "out.weight" ([in, items], each
  // column one catalog item) is what session-based next-item serving scans
  // for its full-catalog top-k — surface its dims and compressed footprint.
  if (model.has_tensor("out.weight")) {
    const TensorEntry& head = model.entry("out.weight");
    if (head.shape.size() == 2) {
      std::cout << "output catalog (out.weight): " << head.shape[1]
                << " items x " << head.shape[0] << " dims, "
                << head.byte_size << " bytes compressed\n";
    }
  }

  if (flags.get_bool("stats", false)) {
    std::cout << "\nper-tensor statistics (dequantized):\n";
    TextTable stats({"tensor", "min", "max", "mean", "l2"});
    for (const std::string& name : model.tensor_names()) {
      const Tensor t = model.load_tensor(name);
      if (t.empty()) {
        continue;
      }
      stats.add_row({name, format_float(t.min(), 4), format_float(t.max(), 4),
                     format_float(t.mean(), 5), format_float(t.l2_norm(), 3)});
    }
    std::cout << stats.to_string();
  }
  return 0;
} catch (const std::exception& e) {
  std::cout.flush();
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
