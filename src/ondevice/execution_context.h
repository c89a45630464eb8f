// Per-thread mutable execution state over a shared CompiledModel.
//
// Everything a forward pass mutates lives here: the scratch arena, the
// page-granular MemoryMeter, the optional HotRowCache, and the per-op
// dispatch accounting. A context executes against exactly one CompiledModel
// at a time but can be re-bound (`bind()`) to a different plan — the
// mechanism behind zero-downtime hot swap: a serving worker keeps one
// context per model id and re-binds it whenever the ModelRegistry publishes
// a new version. Re-binding resizes the scratch arena (amortized: steady
// state on one plan never reallocates), resets the meter (the old version's
// page set is meaningless for the new mapping), and rebuilds the row cache
// cold (cached rows of the old version's weights must never serve the new
// version's traffic).
//
// The forward pass itself is the PR-2/PR-3 zero-allocation fast path,
// unchanged: no string lookups, no heap allocations, page-touch metering
// identical to the pre-split engine (tests/test_fastpath.cpp and
// tests/test_differential.cpp enforce both).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tensor.h"
#include "ondevice/compiled_model.h"
#include "ondevice/device_profile.h"
#include "ondevice/hot_row_cache.h"
#include "ondevice/memory_meter.h"
#include "ondevice/topk.h"

namespace memcom {

// Allocation-free view over the context-owned logits scratch. Valid until
// the next run on the same context.
struct InferenceView {
  const float* logits = nullptr;
  Index dim = 0;
  double embedding_ms = 0;
  double total_ms = 0;
  Index op_count = 0;
  // Hot-row cache traffic of THIS forward (both zero when no cache is
  // attached or the technique bypasses it).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

// Batched forward: each row runs the same forward as run_view(), so its
// logits are bit-identical to a batch-1 run. Carries no modeled time — a
// caller that wants latency measures the call's wall clock.
struct BatchResult {
  // [batch, output_dim] for a plain call (top_k == 0). Empty for a ranked
  // call: its rows rank tile by tile inside the output sweep, and the
  // answer is `topk_out`.
  Tensor logits;
  Index batch = 0;
  // Hot-row cache traffic of THIS batch (zero without an attached cache).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  // Catalog-scan accounting, populated only for RANKED rows (top_k > 0).
  // An exact scan scores every catalog item; a pruned scan (nprobe > 0
  // with an adopted index) scores only the probed clusters' items, and
  // scanned_bytes is the ANALYTIC compressed payload of those columns plus
  // the centroid table. pruned fraction = 1 - scanned_rows/catalog_rows.
  std::uint64_t ranked_rows = 0;    // rows that went through top-k ranking
  std::uint64_t catalog_rows = 0;   // ranked_rows * catalog items
  std::uint64_t scanned_rows = 0;   // catalog items actually scored
  std::uint64_t scanned_bytes = 0;  // analytic compressed bytes read
};

class ExecutionContext {
 public:
  // Output columns per dense sweep tile: 4 KB of floats, so the decoded
  // tile plus a micro-batch's row tiles stay L1-resident across all k.
  static constexpr Index kDenseTile = 1024;

  ExecutionContext(std::shared_ptr<const CompiledModel> compiled,
                   DeviceProfile profile);

  const CompiledModel& compiled() const { return *compiled_; }
  const std::shared_ptr<const CompiledModel>& compiled_ptr() const {
    return compiled_;
  }
  const DeviceProfile& profile() const { return profile_; }

  // Re-binds the context to a different plan (e.g. a hot-swapped model
  // version). No-op when `compiled` is the plan already bound. Otherwise:
  // scratch is resized for the new dims, the meter is reset, and an
  // attached row cache is rebuilt cold with the new plan's partitions.
  void bind(std::shared_ptr<const CompiledModel> compiled);

  InferenceView run_view(const std::int32_t* ids, Index length);
  InferenceView run_view(const std::vector<std::int32_t>& history) {
    return run_view(history.data(), static_cast<Index>(history.size()));
  }
  BatchResult run_batch(const std::vector<std::vector<std::int32_t>>& histories);
  // Batched forward + per-row top-k over the logits — the session
  // workload's full-catalog ranking (the output dense layer IS the
  // compressed catalog scan; see ondevice/topk.h for the deterministic
  // ordering contract).
  //
  // Two phases. First every row runs its trunk; exact rows park the trunk
  // vector in a [rows, in] arena, pruned rows (below) probe their clusters.
  // Then ONE output sweep scores the whole batch, decoding each catalog
  // weight tile once per micro-batch instead of once per row (see
  // apply_dense_rows — per element the sum order is the single-row order,
  // so every score stays bit-identical to run_view()).
  // With `top_k` == 0 exact rows land in their result.logits rows. With
  // `top_k` > 0 the call is RANKED: `topk_out` grows to at least [batch]
  // (never shrinks; rows past the batch are left as they were), and row
  // b < batch receives the best min(top_k, output_dim) ids of request b, each
  // with its logit's exact bits. An exact ranked row ranks each finished
  // L1 tile of logits into its heap, so no full-width logits row is
  // written or re-read and result.logits stays empty. The heaps are
  // `topk_out`'s own rows: a caller that reuses `topk_out` makes the exact
  // ranked call allocation-free once warm. Ranking lives here so every
  // serving path — worker micro-batches, bench — breaks ties identically.
  //
  // `nprobes` (optional, per row, parallel to `histories`) turns a row's
  // ranking into the CLUSTERED PRUNED scan when its value is > 0 AND the
  // bound plan carries an adopted catalog index: the trunk vector probes
  // the nprobe best centroids and only those clusters' catalog columns are
  // scored — gathered off the batch's shared sweep, each bit-identical to
  // the exact row's logit — so nprobe == clusters reproduces the exact
  // ranking exactly. 0 (or a missing/defective index) is the exact full
  // scan. A pruned row's answer is its ranked list only, like an exact
  // ranked row's; once warm on the same histories it allocates nothing
  // either.
  BatchResult run_batch(const std::vector<std::vector<std::int32_t>>& histories,
                        Index top_k,
                        std::vector<std::vector<ScoredId>>* topk_out,
                        const std::vector<Index>* nprobes = nullptr);

  const MemoryMeter& meter() const { return meter_; }
  void reset_meter() { meter_.reset(); }
  double resident_megabytes() const;

  // Attaches a fixed-budget HotRowCache over the plan's lookup-path
  // embedding tensors. Returns false — and attaches nothing — for the
  // one-hot Weinberger path. The budget is remembered across bind().
  bool enable_row_cache(std::size_t budget_bytes);
  void clear_row_cache();
  bool row_cache_enabled() const { return row_cache_ != nullptr; }
  RowCacheStats row_cache_stats() const;

 private:
  void resize_scratch();
  bool attach_row_cache();

  // Meters the byte range covering `count` elements at element `offset`.
  void touch(const TensorRef& ref, Index offset, Index count);
  // Meters + returns a pointer to `count` floats at element `offset`:
  // zero-copy for fp32 tensors, dequantized into `scratch` otherwise.
  const float* fetch(const TensorRef& ref, Index offset, Index count,
                     float* scratch);
  // Row-gather hook: like fetch() for row `row` of `elems` floats, but
  // consults the hot-row cache first when one is attached. `table` selects
  // the cache partition (kCacheTableA/B/C).
  const float* fetch_row(const TensorRef& ref, std::size_t table, Index row,
                         Index elems, float* scratch);
  // fetch() minus the metering, for reads the caller already touched (the
  // zero-slot cache-partition bypass).
  const float* fetch_uncached(const TensorRef& ref, Index offset, Index count,
                              float* scratch);

  // The forward both run_view() and run_batch() share, in two stages so
  // run_view() can time the embedding stage on its own: embed_stage() pools
  // the embedding into pooled_ (resetting the op and activation counts),
  // trunk_stage() runs ReLU → bn1 [→ dense1 → ReLU → bn2] and returns the
  // trunk activation the output layer scores. Neither reads a clock.
  void embed_stage(const std::int32_t* ids, Index length);
  const float* trunk_stage();
  // A pruned row's share of the output sweep: its trunk `x`, its probed
  // catalog columns (ascending) and one accumulator per column. [lo, hi)
  // is the sweep's cursor: the row's columns in the current tile.
  struct GatherRow {
    const float* x = nullptr;
    const Index* cols = nullptr;
    std::size_t count = 0;
    float* acc = nullptr;
    std::size_t lo = 0;
    std::size_t hi = 0;
  };
  // Pruned row, before the sweep: probes the centroids with [trunk; 1.0]
  // and lists the probed clusters' columns, ascending, into `cols`; the
  // analytic scan counters accumulate into the two totals.
  void probe_columns(const float* trunk, Index nprobe, std::vector<Index>* cols,
                     std::uint64_t* scanned_rows, std::uint64_t* scanned_bytes);
  // Pruned row, after the sweep: adds the bias to each gathered column and
  // offers it to the (emptied) heap `ranked` of at most `kept` entries.
  void finish_pruned(const GatherRow& row, Index kept,
                     std::vector<ScoredId>* ranked);
  // Pooled embedding into pooled_ (lookup path). Returns #real tokens.
  Index embed_pooled(const std::int32_t* ids, Index length);
  // Pooled embedding via the one-hot path (whole-table stream).
  void embed_onehot_pooled(const std::int32_t* ids, Index length);

  void apply_batchnorm(const BatchNormPlan& bn, float* x);
  // ys[r][out] = xs[r*in .. r*in+in) * W[in,out] + b[out] for r < rows.
  //
  // One column-tiled sweep serves every row: each kDenseTile-wide segment
  // of weight row k is decoded once into tile_ and axpy'd into every row's
  // tile, then the bias lands with acc_add. Per output element that is
  // exactly the single-row order — zero, then x[k]*w[k,j] in increasing k
  // (quantized weights skip x[k] == 0, f32 weights MAC every k straight
  // from the mapping), then + b[j] — so a row's result does not depend on
  // `rows`, the tile width, or which other rows share the sweep.
  //
  // With `ys` null the rows are RANKED: row r accumulates in the row-tile
  // arena, and each finished tile (bias added) is offered to *heaps[r] at
  // `top_k` (> 0) with ids c0.. — topk_offer_span's filter skips every
  // score below the heap's worst. The heap's content does not depend on
  // offer order, so it equals topk_select over the full logits row.
  //
  // Gather rows ride the same sweep: for each of its columns in the tile a
  // gather row adds x[k]*w[k,j] off the decoded segment under the same
  // rules (a fused MAC when the family's axpy is fused), so each gathered
  // sum equals the exact row's before its bias. The weight is then
  // streamed in tile order once per batch, not walked one strided element
  // per weight row per column.
  void apply_dense_rows(const DensePlan& dense, Index rows, const float* xs,
                        float* const* ys,
                        std::vector<ScoredId>* const* heaps = nullptr,
                        Index top_k = 0, GatherRow* gathers = nullptr,
                        std::size_t ngathers = 0);
  void apply_dense(const DensePlan& dense, const float* x, float* y) {
    apply_dense_rows(dense, 1, x, &y);
  }

  // Cache partition tags for the plan's embedding tensors.
  static constexpr std::size_t kCacheTableA = 0;
  static constexpr std::size_t kCacheTableB = 1;
  static constexpr std::size_t kCacheTableC = 2;

  std::shared_ptr<const CompiledModel> compiled_;
  DeviceProfile profile_;
  MemoryMeter meter_;
  std::unique_ptr<HotRowCache> row_cache_;  // null = disabled
  std::size_t cache_budget_bytes_ = 0;      // sticky across bind()
  Index op_count_ = 0;
  Index activation_bytes_ = 0;

  // --- Scratch arena (sized per bound plan; reused by every run) ---
  std::vector<float> pooled_;
  std::vector<float> row_;      // embedding-row scratch (quantized gathers)
  std::vector<float> row2_;     // second gather / projection scratch
  std::vector<float> hidden_;
  std::vector<float> logits_;
  std::vector<float> tile_;     // one decoded weight-row tile, kDenseTile
  // run_batch arenas (capacity kept across calls): the exact rows' trunk
  // vectors [rows, in], their logits rows in the BatchResult (plain call)
  // or their heaps in topk_out plus one [rows, kDenseTile] accumulator tile
  // (ranked call); the pruned rows' trunks, batch indices, probed columns,
  // accumulators and gather views.
  std::vector<float> trunks_;
  std::vector<float*> exact_logits_;
  std::vector<std::vector<ScoredId>*> exact_heaps_;
  std::vector<float> row_tiles_;
  std::vector<float> pruned_trunks_;
  std::vector<Index> pruned_rows_;
  std::vector<std::vector<Index>> pruned_cols_;
  std::vector<float> gather_acc_;
  std::vector<GatherRow> gathers_;
  std::vector<float> onehot_;   // weinberger bag-of-words, size m
  std::vector<float> query_;    // pruned probe query [trunk; 1.0], in+1
  std::vector<ScoredId> probed_;  // a pruned row's probed clusters
};

}  // namespace memcom
