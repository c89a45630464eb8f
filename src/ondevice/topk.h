// Deterministic top-k selection over catalog scores.
//
// The session workload ranks the session vector against the entire
// compressed item catalog (after *Efficient On-Device Session-Based
// Recommendation*). That ranking runs in one place:
// ExecutionContext::run_batch's output sweep, which offers each finished
// tile of logits to a row's bounded heap through topk_offer_span (exact
// rows) or offers a pruned row's gathered columns through topk_offer. This
// header holds the heap, its filter and the order they share.
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

namespace memcom {

struct ScoredId {
  float score = 0.0f;
  Index id = 0;
};

// The one comparator every ranking path and gumbel_top_k agree on: true when
// `a` ranks strictly ahead of `b`.
inline bool topk_better(const ScoredId& a, const ScoredId& b) {
  return a.score > b.score || (a.score == b.score && a.id < b.id);
}

// One candidate into a bounded heap whose top is the WORST kept entry
// (std::push_heap builds a max-heap under its comparator, and under
// topk_better the "maximum" is the element that beats nobody). Because
// topk_better is a strict TOTAL order, the final heap contents — and hence
// the sorted result — are independent of offer order: this is what makes
// a pruned row's nprobe == num_clusters ranking provably identical to the
// exact full scan (see ondevice/catalog_index.h).
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

}  // namespace memcom
