#include "ondevice/topk.h"

#include <algorithm>

#include "core/check.h"

namespace memcom {

void topk_offer_span(std::vector<ScoredId>& heap, Index k, const float* scores,
                     Index first_id, Index n, const KernelSet& kernels) {
  if (k <= 0) {
    return;
  }
  Index i = 0;
  for (; i < n && static_cast<Index>(heap.size()) < k; ++i) {
    topk_offer(heap, k, ScoredId{scores[i], first_id + i});
  }
  while (i < n) {
    i += kernels.first_ge(scores + i, n - i, heap.front().score);
    if (i == n) {
      break;
    }
    topk_offer(heap, k, ScoredId{scores[i], first_id + i});
    ++i;
  }
}

std::vector<ScoredId> topk_select(const float* scores, Index n, Index k) {
  check(k >= 0, "topk_select: negative k");
  const Index kept = std::min(k, n);
  std::vector<ScoredId> heap;
  heap.reserve(static_cast<std::size_t>(kept));
  // Every family's first_ge returns the same index, so the family is
  // picked once per process rather than per call.
  static const KernelSet& kernels = select_kernels();
  topk_offer_span(heap, kept, scores, 0, n, kernels);
  std::sort(heap.begin(), heap.end(), topk_better);
  return heap;
}

std::vector<ScoredId> topk_full_sort(const float* scores, Index n, Index k) {
  check(k >= 0, "topk_full_sort: negative k");
  std::vector<ScoredId> all(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    all[static_cast<std::size_t>(i)] = ScoredId{scores[i], i};
  }
  std::sort(all.begin(), all.end(), topk_better);
  all.resize(static_cast<std::size_t>(std::min(k, n)));
  return all;
}

SpanSrc make_span_src(const QuantizedTensor& q) {
  SpanSrc src;
  src.dtype = q.dtype;
  src.scale = q.scale;
  src.payload = q.payload.data();
  if (q.dtype == DType::kI4G) {
    src.group_scales = reinterpret_cast<const float*>(q.payload.data());
    src.packed = q.payload.data() +
                 i4g_scales_bytes(static_cast<std::size_t>(q.numel()),
                                  q.group_size);
    src.group_size = q.group_size;
  }
  return src;
}

CatalogScorer::CatalogScorer(const QuantizedTensor& catalog,
                             const KernelSet& kernels)
    : src_(make_span_src(catalog)),
      resident_bytes_(catalog.payload.size()),
      kernels_(&kernels) {
  check(catalog.shape.size() == 2, "CatalogScorer: catalog must be 2-D");
  items_ = catalog.shape[0];
  dim_ = catalog.shape[1];
  check(items_ > 0 && dim_ > 0, "CatalogScorer: empty catalog");
}

CatalogScorer::CatalogScorer(const SpanSrc& src, Index items, Index dim,
                             std::size_t resident_bytes,
                             const KernelSet& kernels)
    : src_(src),
      items_(items),
      dim_(dim),
      resident_bytes_(resident_bytes),
      kernels_(&kernels) {
  check(items_ > 0 && dim_ > 0, "CatalogScorer: empty catalog");
}

void CatalogScorer::score_all(const float* query, float* out) const {
  for (Index i = 0; i < items_; ++i) {
    out[i] = kernels_->dot_span(src_, i * dim_, dim_, query);
  }
}

std::vector<ScoredId> CatalogScorer::top_k(const float* query, Index k) const {
  check(k >= 0, "CatalogScorer::top_k: negative k");
  const Index kept = std::min(k, items_);
  std::vector<ScoredId> heap;
  heap.reserve(static_cast<std::size_t>(kept));
  if (kept == 0) {
    return heap;
  }
  for (Index i = 0; i < items_; ++i) {
    topk_offer(heap, kept,
               ScoredId{kernels_->dot_span(src_, i * dim_, dim_, query), i});
  }
  std::sort(heap.begin(), heap.end(), topk_better);
  return heap;
}

}  // namespace memcom
