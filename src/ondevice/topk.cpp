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

}  // namespace memcom
