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

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/tensor.h"
#include "ondevice/compiled_model.h"
#include "ondevice/device_profile.h"
#include "ondevice/hot_row_cache.h"
#include "ondevice/kernels.h"
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
  // True when another thread swept the upper part of this batch's output
  // sweep (see SweepHelper).
  bool split = false;
};

class SweepPart;

// Lends the upper part of run_batch's output sweep to another thread. The
// owner asks where to split, posts the part, sweeps the lower tiles, then
// withdraws the part: if no thread claimed it, the owner sweeps it too; if
// one did, the owner waits for it and merges the two top-k lists. Either
// way every score keeps its bits: a logit's sum runs over k only, and the
// top-k of a union is the top-k of the parts' top-k lists.
class SweepHelper {
 public:
  SweepHelper() = default;
  SweepHelper(const SweepHelper&) = delete;
  SweepHelper& operator=(const SweepHelper&) = delete;
  virtual ~SweepHelper() = default;
  // Where a sweep of `out` columns splits: a multiple of
  // ExecutionContext::kDenseTile below `out` lends the columns from there
  // on; `out` keeps the sweep whole.
  virtual Index split_column(Index out) = 0;
  // Makes `part` claimable by another thread; false when it cannot.
  virtual bool post(SweepPart* part) = 0;
  // Takes `part` back: true when no thread had claimed it.
  virtual bool withdraw(SweepPart* part) = 0;
};

class ExecutionContext {
 public:
  // Output columns per dense sweep tile: 4 KB of floats per row, so the
  // decoded [kBlock, kDenseTile] block (32 KB) and a micro-batch's row
  // tiles stay cache-resident across all k. (512- and 256-wide tiles, which
  // shrink that footprint, measured slower.)
  static constexpr Index kDenseTile = 1024;
  // Weight rows the sweep takes per step: each row's tile takes one
  // axpy_block (kBlock MACs) per load and store of its accumulators.
  static constexpr Index kBlock = KernelSet::kBlock;
  // Fewest tiles a sweep spans before it is worth lending half of it: a
  // helper's wake-up costs about as much as a few B = 1 tiles.
  static constexpr Index kMinSplitTiles = 8;
  // The split a serving helper asks for: the owner keeps the first half of
  // the tiles, rounded up, and lends the rest; `out` (whole) below
  // kMinSplitTiles tiles.
  static Index half_split(Index out);

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
  //
  // `helper` (optional) may lend the upper tiles of the output sweep to
  // another thread (see SweepHelper). The answer does not change, and a
  // thread that runs the lent part allocates nothing once this context is
  // warm: the part's scratch and heaps belong to this context.
  BatchResult run_batch(const std::vector<std::vector<std::int32_t>>& histories,
                        Index top_k,
                        std::vector<std::vector<ScoredId>>* topk_out,
                        const std::vector<Index>* nprobes = nullptr,
                        SweepHelper* helper = nullptr);

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
  friend class SweepPart;  // runs apply_dense_rows into lent_
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
  // is a sweep part's cursor: the row's columns in the current tile.
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
  // One output sweep's operands: ys[r][out] = xs[r*in .. r*in+in) * W[in,out]
  // + b[out] for r < rows. With `ys` null the rows are RANKED into heaps at
  // `top_k` (> 0); gather rows score only their own columns.
  struct DenseSweep {
    const DensePlan* dense = nullptr;
    Index rows = 0;
    const float* xs = nullptr;
    float* const* ys = nullptr;
    Index top_k = 0;
    const GatherRow* gathers = nullptr;
    std::size_t ngathers = 0;
  };
  // What one thread writes while it sweeps a column range, besides the
  // outputs: the decoded weight tile, the ranked rows' accumulator tiles,
  // where each ranked row ranks, and the gather rows' cursors.
  struct SweepScratch {
    std::vector<float> tile;       // [kBlock, kDenseTile], decoded
    std::vector<float> row_tiles;  // [rows, kDenseTile], ranked sweeps
    std::vector<std::vector<ScoredId>*> heaps;
    std::vector<GatherRow> gathers;
  };
  // Sizes `scratch` for `sweep`: the row tiles, and a copy of the gather
  // views whose cursors the part moves.
  static void prepare_part(const DenseSweep& sweep, SweepScratch& scratch);
  // Columns [c_begin, c_end) of `sweep`; c_begin is a multiple of kDenseTile.
  //
  // Weight rows are walked in blocks of kBlock: the block's kDenseTile-wide
  // segments are decoded once into the [kBlock, kDenseTile] scratch (f32
  // weights are read straight from the mapping), and each row's tile takes
  // the whole block in one axpy_block call, which loads and stores its
  // accumulators once instead of once per k. A quantized row with a ±0
  // coefficient in the block, and the trailing in % kBlock rows, take the
  // per-k axpy instead. Then the bias lands with acc_add. Per output
  // element that is exactly the single-row order — zero, then x[k]*w[k,j]
  // in increasing k (quantized weights skip x[k] == 0, f32 weights MAC
  // every k), then + b[j] — and axpy_block is bit-identical to kBlock
  // sequential axpy calls, so a row's result does not depend on `rows`,
  // the tile width, the block, the range bounds, or which other rows share
  // the sweep.
  //
  // Ranked rows accumulate in the scratch row tiles, and each finished tile
  // (bias added) is offered to the row's heap through topk_offer_span,
  // whose filter skips every score below the heap's worst. The heap's
  // content does not depend on offer order, so it equals topk_select over
  // the range's logits.
  //
  // Gather rows ride the same sweep: for each of its columns in the tile a
  // gather row adds x[k]*w[k,j] off the block's segments under the same
  // rules (a fused MAC when the family's axpy is fused), so each gathered
  // sum equals the exact row's before its bias.
  //
  // Touches no meter and no context state but `scratch`: two threads may
  // sweep disjoint ranges of one sweep with two scratch sets.
  void apply_dense_rows(const DenseSweep& sweep, Index c_begin, Index c_end,
                        SweepScratch& scratch) const;
  // The whole sweep: meters the weight and bias once, sweeps every column
  // (lending the upper tiles through `helper` when it asks for a split),
  // merges a lent part's heaps. Returns true when another thread swept the
  // lent part.
  bool run_sweep(const DenseSweep& sweep, SweepHelper* helper);
  void apply_dense(const DensePlan& dense, const float* x, float* y) {
    DenseSweep one;
    one.dense = &dense;
    one.rows = 1;
    one.xs = x;
    one.ys = &y;
    run_sweep(one, nullptr);
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
  // The owner's scratch for every sweep, and the scratch and heaps of a
  // lent part (SweepPart), which its claimant writes.
  SweepScratch own_;
  SweepScratch lent_;
  std::vector<std::vector<ScoredId>> lent_heaps_;
  // run_batch arenas (capacity kept across calls): the exact rows' trunk
  // vectors [rows, in] and their logits rows in the BatchResult (plain
  // call; a ranked call's heaps are topk_out's rows, listed in own_.heaps);
  // the pruned rows' trunks, batch indices, probed columns, accumulators
  // and gather views.
  std::vector<float> trunks_;
  std::vector<float*> exact_logits_;
  std::vector<float> pruned_trunks_;
  std::vector<Index> pruned_rows_;
  std::vector<std::vector<Index>> pruned_cols_;
  std::vector<float> gather_acc_;
  std::vector<GatherRow> gathers_;
  std::vector<float> onehot_;   // weinberger bag-of-words, size m
  std::vector<float> query_;    // pruned probe query [trunk; 1.0], in+1
  std::vector<ScoredId> probed_;  // a pruned row's probed clusters
};

// The upper tile range of one batch's output sweep, offered to another
// thread while its owner sweeps the lower range. It lives on the owner's
// stack for one sweep; the thread that claims it calls run() once.
class SweepPart {
 public:
  // Sweeps the part into the owner's second scratch set: disjoint columns
  // of plain rows and gather accumulators, and per-row heaps the owner
  // merges. Marking the part done is its last access to the owner.
  void run();

 private:
  friend class ExecutionContext;
  SweepPart(ExecutionContext* owner, const ExecutionContext::DenseSweep* sweep,
            Index c_begin)
      : owner_(owner), sweep_(sweep), c_begin_(c_begin) {}
  // Spins until run() has finished.
  void wait() const;

  ExecutionContext* owner_;
  const ExecutionContext::DenseSweep* sweep_;
  Index c_begin_;
  std::atomic<bool> done_{false};
};

}  // namespace memcom
