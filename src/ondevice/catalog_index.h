// Clustered pruned top-k catalog scan — an inverted-file (IVF) index over
// the COMPRESSED item catalog.
//
// The session workload ranks a query vector against every compressed
// catalog column: O(items·dim) per request. This module makes that sweep a
// recall-controlled fraction: a deterministic k-means partitions the
// catalog into `clusters` cells, the query is first scored against the
// small f32 centroid table (CatalogIndex::probe), and only the `nprobe`
// best cells' columns are scored. The scoring itself happens in
// ExecutionContext::run_batch: a pruned row gathers its probed columns off
// the batch's shared output sweep (apply_dense_rows), under the same
// per-element rules as an exact row's logits.
//
// Exactness contract (the differential anchor): every probed column's
// score is bit-identical to that item's exact logit, and ranking uses the
// same topk_better strict total order, whose bounded-heap result is
// independent of offer order. Therefore `nprobe == num_clusters` — where
// every item is offered exactly once — is bit-identical to the exact
// ranked row, across kernel families and shard counts
// (tests/test_differential.cpp, tests/test_catalog_index.cpp). Smaller
// nprobe trades recall for scanned bytes; it never changes a returned
// item's score.
//
// Determinism contract (what makes the index reproducible and the .mcm
// section stable): k-means runs from a fixed seed for a fixed iteration
// count, reads rows through the SCALAR reference dequantizer, iterates
// items in ascending id order, accumulates in double, resolves assignment
// ties to the LOWER cluster id, and keeps an empty cluster's previous
// centroid. Two builds from the same catalog + config are byte-identical.
//
// Persistence: serialize_catalog_index() emits the index as the optional
// .mcm v4 section in the shared section frame (ondevice/section.h — the
// same frame as the v3 plan section). decode_catalog_index() NEVER throws
// for a bad section: any defect — truncation, checksum mismatch, hostile
// declared cluster count, non-permutation id table, identity/dim skew —
// comes back as kStale with a reason, and every consumer falls back to the
// exact full scan. Index-less files stay byte-identical v1–v3.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "ondevice/format.h"
#include "ondevice/kernels.h"
#include "ondevice/plan.h"
#include "ondevice/section.h"
#include "ondevice/topk.h"

namespace memcom {

// An id table: owned when built in-process, a zero-copy view of the index
// section when adopted.
using IdBuffer = SectionBuffer<std::uint32_t>;

struct CatalogIndexConfig {
  Index clusters = 0;    // 0 → ~sqrt(items), clamped to [1, items]
  Index iterations = 6;  // fixed k-means refinement passes
  std::uint64_t seed = 0xC1D5EEDULL;
};

// The index itself: centroid table + cluster-major permutation of item
// ids. Like CompiledPlan, this is position-independent data with a few
// convenience members; buffers are owned (built) or zero-copy views
// (adopted from a v4 section).
struct CatalogIndex {
  // Identity of the model the index was built for (empty/0 for a file
  // without identity, or an index built straight from f32 rows).
  std::string model_name;
  std::uint64_t model_version = 0;

  Index items = 0;
  Index dim = 0;       // centroid width — for a model index this is
                       // out.weight rows + 1 (bias folded as last lane)
  Index clusters = 0;
  std::uint64_t seed = 0;
  Index iterations = 0;

  PlanBuffer centroids;  // [clusters, dim] f32, 64-byte-aligned on disk
  IdBuffer perm;         // [items] item ids, cluster-major, ascending
                         // within each cluster
  IdBuffer offsets;      // [clusters + 1] prefix offsets into perm
  bool zero_copy = false;

  const float* centroid(Index c) const { return centroids.data() + c * dim; }
  Index cluster_size(Index c) const {
    return static_cast<Index>(offsets[static_cast<std::size_t>(c) + 1]) -
           static_cast<Index>(offsets[static_cast<std::size_t>(c)]);
  }
  // Bytes the centroid sweep reads per query (the pruning overhead).
  std::uint64_t centroid_bytes() const {
    return static_cast<std::uint64_t>(clusters) *
           static_cast<std::uint64_t>(dim) * sizeof(float);
  }

  // Fills `heap` (emptied first, capacity kept) with the min(nprobe,
  // clusters) best clusters for `query`, best-first under topk_better on
  // (centroid dot, cluster id) — deterministic across kernel families
  // because KernelSet::dot is bit-identical scalar vs AVX2. Allocates only
  // while `heap` grows toward that count.
  void probe(const KernelSet& kernels, const float* query, Index nprobe,
             std::vector<ScoredId>* heap) const;
};

// Default cell count: ~sqrt(items), the classic IVF heuristic.
Index default_catalog_clusters(Index items);

// Deterministic k-means over f32 rows [items, dim]. Training runs on a
// seeded sample (capped at clusters·32 rows) with centroids initialized
// evenly over the sorted sample; the final assignment pass covers every
// item. See the determinism contract above.
CatalogIndex build_catalog_index(const float* rows, Index items, Index dim,
                                 const CatalogIndexConfig& config = {});

// Builds the index a .mcm model embeds: rows are the output catalog's
// COLUMNS with the bias folded in — row j = [out.weight[:, j]; out.bias[j]],
// dim = in + 1 — so serving can probe with [trunk; 1.0] and the centroid
// ordering sees exactly the logit geometry. Throws on a model without an
// output catalog.
CatalogIndex build_catalog_index_for_model(const MmapModel& model,
                                           const CatalogIndexConfig& config = {});

// Serializes `index` into the byte section ModelWriter appends for v4
// files: identity + geometry header, then centroid, id-table and offset
// regions.
std::vector<std::uint8_t> serialize_catalog_index(const CatalogIndex& index);

struct CatalogIndexDecodeResult : SectionVerdict {
  CatalogIndex index;  // usable only when status == kValid
};

// Validates and decodes `model`'s catalog-index section. NEVER throws for
// a bad section: every defect comes back as kStale with a reason, and the
// caller falls back to the exact full scan.
CatalogIndexDecodeResult decode_catalog_index(const MmapModel& model);

}  // namespace memcom
