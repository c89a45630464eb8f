// The top-k ordering contract (src/ondevice/topk.h):
//   * topk_better is a TOTAL order — higher score first, ties (including
//     -0.0 vs +0.0) broken toward the lower id;
//   * topk_select (bounded heap) is element-for-element identical to the
//     full-sort reference for every k, including adversarial all-equal and
//     signed-zero score vectors;
//   * topk_offer_span's threshold filter changes nothing: offered whole or
//     in 1024-wide pieces (with first_id, in either order), under either
//     kernel family, it keeps exactly the full sort's top-k.
#include "ondevice/topk.h"

#include <gtest/gtest.h>

#include "test_util.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/rng.h"

namespace memcom {
namespace {

using test::ScopedEnv;

void expect_same_ranking(const std::vector<ScoredId>& a,
                         const std::vector<ScoredId>& b, const char* tag) {
  ASSERT_EQ(a.size(), b.size()) << tag;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << tag << " position " << i;
    EXPECT_EQ(std::memcmp(&a[i].score, &b[i].score, sizeof(float)), 0)
        << tag << " position " << i;
  }
}

// --- the comparator itself -------------------------------------------------

TEST(TopkBetter, TotalOrderWithLowerIdTieBreak) {
  EXPECT_TRUE(topk_better({2.0f, 5}, {1.0f, 0}));
  EXPECT_FALSE(topk_better({1.0f, 0}, {2.0f, 5}));
  // Equal scores: lower id wins, and the relation is asymmetric.
  EXPECT_TRUE(topk_better({1.0f, 3}, {1.0f, 7}));
  EXPECT_FALSE(topk_better({1.0f, 7}, {1.0f, 3}));
  // Irreflexive.
  EXPECT_FALSE(topk_better({1.0f, 3}, {1.0f, 3}));
  // -0.0 == 0.0 under float ==, so signed zeros tie and resolve by id.
  EXPECT_TRUE(topk_better({-0.0f, 1}, {0.0f, 2}));
  EXPECT_TRUE(topk_better({0.0f, 1}, {-0.0f, 2}));
}

// --- heap vs full sort -----------------------------------------------------

TEST(TopkSelect, MatchesFullSortOnRandomScores) {
  Rng rng(701);
  for (const Index n : {1, 2, 5, 16, 100, 257}) {
    std::vector<float> scores(static_cast<std::size_t>(n));
    for (float& s : scores) {
      s = rng.uniform(-3.0f, 3.0f);
    }
    for (const Index k : {Index{1}, Index{2}, Index{7}, n / 2, n, n + 3}) {
      if (k <= 0) {
        continue;
      }
      expect_same_ranking(topk_select(scores.data(), n, k),
                          topk_full_sort(scores.data(), n, k), "random");
    }
  }
}

TEST(TopkSelect, AdversarialAllEqualAndSignedZeroVectors) {
  // Every score identical: the ranking must be 0, 1, 2, ... by id alone.
  for (const float fill : {0.25f, 0.0f, -0.0f}) {
    const Index n = 33;
    std::vector<float> scores(static_cast<std::size_t>(n), fill);
    for (const Index k : {Index{1}, Index{8}, n}) {
      const std::vector<ScoredId> got = topk_select(scores.data(), n, k);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(std::min(k, n)));
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, static_cast<Index>(i)) << "fill=" << fill;
      }
      expect_same_ranking(got, topk_full_sort(scores.data(), n, k),
                          "all-equal");
    }
  }
  // Alternating ±0.0: all tie; ids must come back in increasing order and
  // the returned score bit patterns must match the full sort's.
  std::vector<float> mixed(16);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    mixed[i] = (i % 2 == 0) ? 0.0f : -0.0f;
  }
  const Index n = static_cast<Index>(mixed.size());
  const std::vector<ScoredId> got = topk_select(mixed.data(), n, 5);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, static_cast<Index>(i));
  }
  expect_same_ranking(got, topk_full_sort(mixed.data(), n, 5), "signed-zero");
}

TEST(TopkSelect, EdgeCases) {
  const float scores[] = {1.0f, 3.0f, 2.0f};
  // k = 0: empty.
  EXPECT_TRUE(topk_select(scores, 3, 0).empty());
  // k = 1: the max.
  std::vector<ScoredId> one = topk_select(scores, 3, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].id, 1);
  EXPECT_EQ(one[0].score, 3.0f);
  // k >= n: full descending ranking.
  for (const Index k : {Index{3}, Index{10}}) {
    const std::vector<ScoredId> all = topk_select(scores, 3, k);
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0].id, 1);
    EXPECT_EQ(all[1].id, 2);
    EXPECT_EQ(all[2].id, 0);
  }
  // n = 0: empty regardless of k.
  EXPECT_TRUE(topk_select(scores, 0, 5).empty());
}

TEST(TopkSelect, SmallerKIsPrefixOfLargerK) {
  // The mixed-k batching in AsyncServer ranks once at the batch max and
  // truncates per request — only valid because the ordering is total.
  Rng rng(702);
  std::vector<float> scores(64);
  for (float& s : scores) {
    s = rng.uniform(-1.0f, 1.0f);
  }
  scores[10] = scores[20];  // plant a tie
  const Index n = static_cast<Index>(scores.size());
  const std::vector<ScoredId> big = topk_select(scores.data(), n, 32);
  for (const Index k : {Index{1}, Index{4}, Index{17}}) {
    const std::vector<ScoredId> small = topk_select(scores.data(), n, k);
    ASSERT_EQ(small.size(), static_cast<std::size_t>(k));
    for (std::size_t i = 0; i < small.size(); ++i) {
      EXPECT_EQ(small[i].id, big[i].id) << "k=" << k << " i=" << i;
    }
  }
}

// --- the filtered offer ----------------------------------------------------

// Rows the threshold filter must get exactly right: random, all equal,
// ±0.0 only, and coarse quantized values full of exact ties.
std::vector<std::vector<float>> filter_rows(Index n, Rng& rng) {
  std::vector<std::vector<float>> rows(4);
  for (Index i = 0; i < n; ++i) {
    rows[0].push_back(rng.uniform(-3.0f, 3.0f));
    rows[1].push_back(0.5f);
    rows[2].push_back(rng.uniform(-1.0f, 1.0f) < 0.0f ? -0.0f : 0.0f);
    rows[3].push_back(std::round(rng.uniform(-4.0f, 4.0f)) * 0.25f);
  }
  return rows;
}

// topk_offer_span in `piece`-wide pieces (last piece first when
// `reversed`), then the best-first sort topk_select ends with.
std::vector<ScoredId> offer_in_pieces(const std::vector<float>& row, Index k,
                                      Index piece, bool reversed,
                                      const KernelSet& kernels) {
  const Index n = static_cast<Index>(row.size());
  std::vector<Index> starts;
  for (Index start = 0; start < n; start += piece) {
    starts.push_back(start);
  }
  if (reversed) {
    std::reverse(starts.begin(), starts.end());
  }
  std::vector<ScoredId> heap;
  for (const Index start : starts) {
    topk_offer_span(heap, k, row.data() + start, start,
                    std::min(piece, n - start), kernels);
  }
  std::sort(heap.begin(), heap.end(), topk_better);
  return heap;
}

TEST(TopkOfferSpan, FilteredOfferMatchesFullSortInAnyPieces) {
  ScopedEnv disable("MEMCOM_DISABLE_SIMD", nullptr);
  const KernelSet* families[] = {&scalar_kernels(), &select_kernels()};
  Rng rng(703);
  for (const Index n : {Index{0}, Index{1}, Index{7}, Index{8}, Index{9},
                        Index{2061}}) {
    const std::vector<std::vector<float>> rows = filter_rows(n, rng);
    const char* kinds[] = {"random", "all-equal", "signed-zero", "ties"};
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::vector<float>& row = rows[r];
      for (const Index k : {Index{0}, Index{1}, Index{10}, n, n + 3}) {
        const std::string tag = std::string(kinds[r]) +
                                " n=" + std::to_string(n) +
                                " k=" + std::to_string(k);
        const std::vector<ScoredId> want = topk_full_sort(row.data(), n, k);
        expect_same_ranking(topk_select(row.data(), n, k), want,
                            (tag + " select").c_str());
        for (const KernelSet* kernels : families) {
          const std::string fam = tag + " " + kernels->name;
          const std::vector<ScoredId> whole =
              offer_in_pieces(row, k, std::max<Index>(n, 1), false, *kernels);
          expect_same_ranking(whole, want, (fam + " whole").c_str());
          expect_same_ranking(offer_in_pieces(row, k, 1024, false, *kernels),
                              whole, (fam + " pieces").c_str());
          expect_same_ranking(offer_in_pieces(row, k, 1024, true, *kernels),
                              whole, (fam + " reversed pieces").c_str());
        }
      }
    }
  }
}

}  // namespace
}  // namespace memcom
