#include "ondevice/catalog_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/check.h"
#include "core/rng.h"
#include "core/serialize.h"

namespace memcom {

namespace {

// Centroids were built from scalar-dequantized rows, so one serialized
// index serves every kernel dispatch family.
constexpr SectionKind kIndexSection = {
    0x58444943U,  // "CIDX" little-endian
    1,            // format version
    1U << 0,      // flag: built from scalar dequantization
    "catalog index",
    "catalog index not built from scalar dequantization",
    "region",
};
// k-means trains on at most clusters * kTrainRowsPerCluster sampled rows
// (the final assignment pass still covers every item) so build time stays
// bounded at bench scale.
constexpr Index kTrainRowsPerCluster = 32;

const TensorEntry* find_entry(const MmapModel& model, const std::string& name) {
  for (std::size_t i = 0; i < model.entry_count(); ++i) {
    const TensorEntry& e = model.entry_at(i);
    if (e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

// Materializes a row-major [rows, cols] compressed table as f32 through
// the SCALAR reference dequantizer (build time only).
std::vector<float> dequantize_catalog_rows(const SpanSrc& src, Index rows,
                                           Index cols) {
  check(rows > 0 && cols > 0, "dequantize_catalog_rows: empty catalog");
  std::vector<float> out(static_cast<std::size_t>(rows) *
                         static_cast<std::size_t>(cols));
  // Elementwise, so one whole-range call equals per-row calls bit-for-bit.
  scalar_kernels().dequant_span(src, 0, rows * cols, out.data());
  return out;
}

// The index's own header and its agreement with the file's output catalog;
// the frame was checked by the reader.
std::string parse_catalog_index(SectionReader& reader, const MmapModel& model,
                                CatalogIndex& index) {
  std::istream& is = reader.header();
  index.model_name = read_string(is);
  index.model_version = read_u64(is);
  index.items = read_i64(is);
  index.dim = read_i64(is);
  index.clusters = read_i64(is);
  index.seed = read_u64(is);
  index.iterations = read_i64(is);
  const SectionRegion cent = reader.read_region();
  const SectionRegion perm = reader.read_region();
  const SectionRegion offs = reader.read_region();

  // Identity first: a section from a different model refresh is stale no
  // matter how well-formed it is.
  const std::string file_name =
      model.has_model_identity() ? model.model_name() : "";
  const std::uint64_t file_version =
      model.has_model_identity() ? model.model_version() : 0;
  if (index.model_name != file_name) {
    return "catalog index model_name skew (index '" + index.model_name +
           "' vs file '" + file_name + "')";
  }
  if (index.model_version != file_version) {
    return "catalog index model_version skew (index " +
           std::to_string(index.model_version) + " vs file " +
           std::to_string(file_version) + ")";
  }

  // Geometry must agree with the file's own output catalog.
  const TensorEntry* weight = find_entry(model, "out.weight");
  const TensorEntry* bias = find_entry(model, "out.bias");
  if (weight == nullptr || bias == nullptr || weight->shape.size() != 2) {
    return "catalog index for a model without an output catalog";
  }
  if (index.items != weight->shape[1] || index.dim != weight->shape[0] + 1) {
    return "catalog index catalog shape skew";
  }
  // Hostile declared cluster count: bound it BEFORE any arithmetic that
  // could overflow or size an allocation from it.
  if (index.clusters < 1 || index.clusters > index.items) {
    return "catalog index cluster count out of range";
  }
  if (index.iterations < 0) {
    return "catalog index header fields out of range";
  }
  if (cent.count != static_cast<std::uint64_t>(index.clusters) *
                        static_cast<std::uint64_t>(index.dim) ||
      perm.count != static_cast<std::uint64_t>(index.items) ||
      offs.count != static_cast<std::uint64_t>(index.clusters) + 1) {
    return "catalog index region counts inconsistent";
  }
  if (!reader.view(cent, index.centroids) || !reader.view(perm, index.perm) ||
      !reader.view(offs, index.offsets)) {
    return reader.error();
  }

  // Offsets must be a non-decreasing prefix chain covering [0, items].
  if (index.offsets[0] != 0 ||
      index.offsets[static_cast<std::size_t>(index.clusters)] !=
          static_cast<std::uint32_t>(index.items)) {
    return "catalog index cluster offsets malformed";
  }
  for (Index c = 0; c < index.clusters; ++c) {
    if (index.offsets[static_cast<std::size_t>(c)] >
        index.offsets[static_cast<std::size_t>(c) + 1]) {
      return "catalog index cluster offsets malformed";
    }
  }
  // The id table must be an exact permutation of [0, items): a pruned scan
  // over anything else would silently drop or double-score items.
  std::vector<char> seen(static_cast<std::size_t>(index.items), 0);
  for (std::size_t i = 0; i < index.perm.size(); ++i) {
    const std::uint32_t id = index.perm[i];
    if (id >= static_cast<std::uint32_t>(index.items) || seen[id]) {
      return "catalog index id table is not a permutation";
    }
    seen[id] = 1;
  }
  index.zero_copy = true;
  return "";
}
}  // namespace

Index default_catalog_clusters(Index items) {
  check(items > 0, "default_catalog_clusters: empty catalog");
  const Index c = static_cast<Index>(
      std::lround(std::sqrt(static_cast<double>(items))));
  return std::max<Index>(1, std::min(items, c));
}

void CatalogIndex::probe(const KernelSet& kernels, const float* query,
                         Index nprobe, std::vector<ScoredId>* heap) const {
  const Index kept = std::min(std::max<Index>(nprobe, 0), clusters);
  heap->clear();
  heap->reserve(static_cast<std::size_t>(kept));
  for (Index c = 0; c < clusters && kept > 0; ++c) {
    topk_offer(*heap, kept, ScoredId{kernels.dot(query, centroid(c), dim), c});
  }
  std::sort(heap->begin(), heap->end(), topk_better);
}

CatalogIndex build_catalog_index(const float* rows, Index items, Index dim,
                                 const CatalogIndexConfig& config) {
  check(rows != nullptr && items > 0 && dim > 0,
        "build_catalog_index: empty catalog");
  check(config.iterations >= 0, "build_catalog_index: negative iterations");
  const Index clusters =
      config.clusters > 0 ? std::min(config.clusters, items)
                          : default_catalog_clusters(items);

  // Seeded training sample, ascending ids so iteration order (and hence the
  // double accumulation order) is deterministic.
  const Index cap = std::min(items, clusters * kTrainRowsPerCluster);
  Rng rng(config.seed);
  std::vector<Index> sample;
  sample.reserve(static_cast<std::size_t>(cap));
  if (cap == items) {
    for (Index i = 0; i < items; ++i) {
      sample.push_back(i);
    }
  } else {
    std::vector<char> used(static_cast<std::size_t>(items), 0);
    while (static_cast<Index>(sample.size()) < cap) {
      const Index id = rng.uniform_index(items);
      if (!used[static_cast<std::size_t>(id)]) {
        used[static_cast<std::size_t>(id)] = 1;
        sample.push_back(id);
      }
    }
    std::sort(sample.begin(), sample.end());
  }

  // Init: centroids evenly spaced over the sorted sample — distinct ids by
  // construction (cap >= clusters).
  std::vector<float> cent(static_cast<std::size_t>(clusters) *
                          static_cast<std::size_t>(dim));
  for (Index c = 0; c < clusters; ++c) {
    const Index id = sample[static_cast<std::size_t>(c * cap / clusters)];
    std::memcpy(cent.data() + c * dim, rows + id * dim,
                static_cast<std::size_t>(dim) * sizeof(float));
  }

  // Nearest centroid by squared L2 via the expansion argmax(<x,c> - |c|²/2),
  // all in double; strict > keeps the LOWER cluster id on ties.
  std::vector<double> half_norm(static_cast<std::size_t>(clusters));
  auto refresh_norms = [&]() {
    for (Index c = 0; c < clusters; ++c) {
      double s = 0.0;
      const float* cc = cent.data() + c * dim;
      for (Index k = 0; k < dim; ++k) {
        s += static_cast<double>(cc[k]) * static_cast<double>(cc[k]);
      }
      half_norm[static_cast<std::size_t>(c)] = 0.5 * s;
    }
  };
  auto assign_one = [&](const float* x) {
    Index best_c = 0;
    double best = -std::numeric_limits<double>::infinity();
    for (Index c = 0; c < clusters; ++c) {
      const float* cc = cent.data() + c * dim;
      double s = 0.0;
      for (Index k = 0; k < dim; ++k) {
        s += static_cast<double>(x[k]) * static_cast<double>(cc[k]);
      }
      s -= half_norm[static_cast<std::size_t>(c)];
      if (s > best) {
        best = s;
        best_c = c;
      }
    }
    return best_c;
  };

  std::vector<double> sums(cent.size());
  std::vector<Index> counts(static_cast<std::size_t>(clusters));
  for (Index it = 0; it < config.iterations; ++it) {
    refresh_norms();
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), Index{0});
    for (const Index id : sample) {
      const float* x = rows + id * dim;
      const Index c = assign_one(x);
      double* acc = sums.data() + c * dim;
      for (Index k = 0; k < dim; ++k) {
        acc[k] += static_cast<double>(x[k]);
      }
      ++counts[static_cast<std::size_t>(c)];
    }
    for (Index c = 0; c < clusters; ++c) {
      const Index n = counts[static_cast<std::size_t>(c)];
      if (n == 0) {
        continue;  // empty cluster keeps its previous centroid
      }
      float* cc = cent.data() + c * dim;
      const double* acc = sums.data() + c * dim;
      for (Index k = 0; k < dim; ++k) {
        cc[k] = static_cast<float>(acc[k] / static_cast<double>(n));
      }
    }
  }

  // Final assignment covers EVERY item against the final centroids.
  refresh_norms();
  std::vector<Index> assign(static_cast<std::size_t>(items));
  for (Index i = 0; i < items; ++i) {
    assign[static_cast<std::size_t>(i)] = assign_one(rows + i * dim);
  }

  std::vector<std::uint32_t> offsets(static_cast<std::size_t>(clusters) + 1, 0);
  for (Index i = 0; i < items; ++i) {
    ++offsets[static_cast<std::size_t>(assign[static_cast<std::size_t>(i)]) + 1];
  }
  for (std::size_t c = 1; c < offsets.size(); ++c) {
    offsets[c] += offsets[c - 1];
  }
  std::vector<std::uint32_t> perm(static_cast<std::size_t>(items));
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (Index i = 0; i < items; ++i) {
    const std::size_t c =
        static_cast<std::size_t>(assign[static_cast<std::size_t>(i)]);
    perm[cursor[c]++] = static_cast<std::uint32_t>(i);
  }

  CatalogIndex index;
  index.items = items;
  index.dim = dim;
  index.clusters = clusters;
  index.seed = config.seed;
  index.iterations = config.iterations;
  index.centroids = PlanBuffer::owned(std::move(cent));
  index.perm = IdBuffer::owned(std::move(perm));
  index.offsets = IdBuffer::owned(std::move(offsets));
  return index;
}

CatalogIndex build_catalog_index_for_model(const MmapModel& model,
                                           const CatalogIndexConfig& config) {
  const TensorEntry* weight = find_entry(model, "out.weight");
  const TensorEntry* bias = find_entry(model, "out.bias");
  check(weight != nullptr && bias != nullptr,
        "build_catalog_index_for_model: model has no output catalog");
  check(weight->shape.size() == 2 && bias->shape.size() == 1 &&
            bias->shape[0] == weight->shape[1],
        "build_catalog_index_for_model: malformed output catalog");
  const Index in = weight->shape[0];
  const Index items = weight->shape[1];

  // out.weight is [in, items] — each COLUMN is an item. Scalar-dequantize
  // the whole table once, then gather rows [W[:, j]; bias_j].
  const std::vector<float> dense = dequantize_catalog_rows(
      make_span_src(*weight, model.payload(*weight)), in, items);
  std::vector<float> bias_f(static_cast<std::size_t>(items));
  scalar_kernels().dequant_span(make_span_src(*bias, model.payload(*bias)), 0,
                                items, bias_f.data());

  const Index dim = in + 1;
  std::vector<float> rows(static_cast<std::size_t>(items) *
                          static_cast<std::size_t>(dim));
  for (Index j = 0; j < items; ++j) {
    float* r = rows.data() + j * dim;
    for (Index k = 0; k < in; ++k) {
      r[k] = dense[static_cast<std::size_t>(k) * items + j];
    }
    r[in] = bias_f[static_cast<std::size_t>(j)];
  }

  CatalogIndex index = build_catalog_index(rows.data(), items, dim, config);
  index.model_name = model.has_model_identity() ? model.model_name() : "";
  index.model_version = model.has_model_identity() ? model.model_version() : 0;
  return index;
}

std::vector<std::uint8_t> serialize_catalog_index(const CatalogIndex& index) {
  check(index.items > 0 && index.dim > 0 && index.clusters > 0,
        "serialize_catalog_index: empty index");
  check(index.centroids.size() == static_cast<std::size_t>(index.clusters) *
                                      static_cast<std::size_t>(index.dim) &&
            index.perm.size() == static_cast<std::size_t>(index.items) &&
            index.offsets.size() ==
                static_cast<std::size_t>(index.clusters) + 1,
        "serialize_catalog_index: inconsistent buffers");
  SectionWriter writer(kIndexSection);
  std::ostream& os = writer.header();
  write_string(os, index.model_name);
  write_u64(os, index.model_version);
  write_i64(os, index.items);
  write_i64(os, index.dim);
  write_i64(os, index.clusters);
  write_u64(os, index.seed);
  write_i64(os, index.iterations);
  writer.region(index.centroids);
  writer.region(index.perm);
  writer.region(index.offsets);
  return writer.finish();
}

CatalogIndexDecodeResult decode_catalog_index(const MmapModel& model) {
  CatalogIndexDecodeResult result;
  decode_section(kIndexSection, model.index_data(), model.index_size(),
                 model.index_bounds_error(), result,
                 [&](SectionReader& reader) {
                   return parse_catalog_index(reader, model, result.index);
                 });
  return result;
}

}  // namespace memcom
