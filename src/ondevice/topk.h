// Deterministic top-k selection + full-catalog scoring over a COMPRESSED
// item table.
//
// The session workload's expensive step is ranking the session vector
// against the entire item catalog (ROADMAP item 3, after *Efficient
// On-Device Session-Based Recommendation*). That scan is itself a
// compression target: CatalogScorer walks an item-major [items, dim] table
// in its stored form (f32/f16/i8/i4/i4g) through the KernelSet dot_span
// kernel, so the catalog is never materialized as f32 beyond a small fixed
// stack buffer inside the kernel.
//
// Ordering contract (shared with gumbel_top_k in core/sampling.cpp and
// enforced against a full-sort reference by tests/test_topk.cpp +
// tests/test_differential.cpp): higher score first, and on EXACTLY equal
// scores the LOWER id wins. Float == treats -0.0 and 0.0 as equal, so ±0
// ties also resolve by id. Scores must be NaN-free (quantized logits are).
// Because the ordering is total, topk_select is bit-identical to sorting
// the whole catalog and truncating — across kernel families and shard
// counts.
#pragma once

#include <algorithm>
#include <vector>

#include "core/tensor.h"
#include "ondevice/kernels.h"
#include "ondevice/quantize.h"

namespace memcom {

struct ScoredId {
  float score = 0.0f;
  Index id = 0;
};

// The one comparator both top-k paths and gumbel_top_k agree on: true when
// `a` ranks strictly ahead of `b`.
inline bool topk_better(const ScoredId& a, const ScoredId& b) {
  return a.score > b.score || (a.score == b.score && a.id < b.id);
}

// One candidate into a bounded heap whose top is the WORST kept entry
// (std::push_heap builds a max-heap under its comparator, and under
// topk_better the "maximum" is the element that beats nobody). Because
// topk_better is a strict TOTAL order, the final heap contents — and hence
// the sorted result — are independent of offer order: this is what makes
// the pruned catalog scan's nprobe == num_clusters leg provably identical
// to the exact full scan (see ondevice/catalog_index.h).
inline void topk_offer(std::vector<ScoredId>& heap, Index k, ScoredId cand) {
  if (static_cast<Index>(heap.size()) < k) {
    heap.push_back(cand);
    std::push_heap(heap.begin(), heap.end(), topk_better);
  } else if (topk_better(cand, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), topk_better);
    heap.back() = cand;
    std::push_heap(heap.begin(), heap.end(), topk_better);
  }
}

// Offers scores[0..n) as ids first_id, first_id + 1, ... to a heap of at
// most k entries (k <= 0 offers nothing). The heap fills exactly as
// topk_offer fills it; after that only scores >= the heap's worst score are
// offered, found 8 at a time by `kernels.first_ge`. A lower score loses to
// the worst entry under topk_better whatever its id, so skipping it changes
// nothing: the heap ends as if every score had gone through topk_offer.
// Pieces of one row may therefore be offered in any order and any size.
// Allocates only while the heap grows toward k.
void topk_offer_span(std::vector<ScoredId>& heap, Index k, const float* scores,
                     Index first_id, Index n, const KernelSet& kernels);

// Bounded-heap selection: topk_offer_span over the whole row (dispatched
// kernels), then a best-first sort. O(n) compares plus O(log k) per score
// that enters the heap; no allocation beyond the k-element result. Returns
// min(k, n) entries sorted best-first.
std::vector<ScoredId> topk_select(const float* scores, Index n, Index k);

// Full-sort reference (O(n log n)); topk_select must match it exactly.
std::vector<ScoredId> topk_full_sort(const float* scores, Index n, Index k);

// Codec view of a heap-owned QuantizedTensor (pre-splits the i4g scales
// header exactly like CompiledModel::resolve does for mmap'd tensors). The
// tensor must outlive the returned view.
SpanSrc make_span_src(const QuantizedTensor& q);

// Scores a float query vector against every row of an item-major
// [items, dim] catalog kept in compressed form. Rows are streamed through
// the selected family's dot_span — bit-identical scalar vs AVX2 — and
// top_k() feeds them straight into the bounded heap, so neither the
// catalog nor the score vector is ever materialized.
class CatalogScorer {
 public:
  // Borrows `catalog`; it must outlive the scorer.
  CatalogScorer(const QuantizedTensor& catalog, const KernelSet& kernels);
  // Zero-copy view form (e.g. over a CompiledModel output table).
  CatalogScorer(const SpanSrc& src, Index items, Index dim,
                std::size_t resident_bytes, const KernelSet& kernels);

  Index items() const { return items_; }
  Index dim() const { return dim_; }
  // Compressed bytes the scan touches — the catalog's entire stored
  // payload (every row is read once per query). This is the "catalog
  // residency" column of the session bench.
  std::size_t resident_bytes() const { return resident_bytes_; }
  // Codec view + kernel family, shared with PrunedCatalogScorer so the
  // pruned scan scores rows through the exact same dot_span path.
  const SpanSrc& src() const { return src_; }
  const KernelSet& kernels() const { return *kernels_; }

  // out[i] = <row i, query> for all items.
  void score_all(const float* query, float* out) const;
  // Best k ids without materializing the score vector.
  std::vector<ScoredId> top_k(const float* query, Index k) const;

 private:
  SpanSrc src_;
  Index items_ = 0;
  Index dim_ = 0;
  std::size_t resident_bytes_ = 0;
  const KernelSet* kernels_ = nullptr;
};

}  // namespace memcom
