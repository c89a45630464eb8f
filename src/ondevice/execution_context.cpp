#include "ondevice/execution_context.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/check.h"
#include "embedding/hashing.h"
#include "embedding/id_batch.h"
#include "ondevice/clock.h"

namespace memcom {

namespace {
using Clock = SteadyClock;
}  // namespace

ExecutionContext::ExecutionContext(
    std::shared_ptr<const CompiledModel> compiled, DeviceProfile profile)
    : compiled_(std::move(compiled)),
      profile_(std::move(profile)),
      meter_(profile_.page_size, profile_.readahead_pages) {
  check(compiled_ != nullptr, "ExecutionContext: null compiled model");
  resize_scratch();
}

void ExecutionContext::bind(std::shared_ptr<const CompiledModel> compiled) {
  check(compiled != nullptr, "ExecutionContext: bind to null model");
  if (compiled.get() == compiled_.get()) {
    return;
  }
  compiled_ = std::move(compiled);
  resize_scratch();
  // The old version's page set is meaningless against the new mapping.
  meter_.reset();
  // Cached rows hold the OLD version's weights: rebuild the cache cold so a
  // swap can never serve stale floats (and partition widths follow the new
  // plan's technique).
  if (cache_budget_bytes_ > 0) {
    attach_row_cache();
  } else {
    row_cache_.reset();
  }
}

void ExecutionContext::resize_scratch() {
  const CompiledModel& plan = *compiled_;
  const Index e = plan.embed_dim();
  // Exact sizes per plan: the arena loops iterate whole vectors, so a
  // larger-than-needed buffer would change the simulated compute time.
  // resize() keeps capacity, so steady state on one plan never reallocates
  // and alternating plans settle to the high-water capacity.
  pooled_.resize(static_cast<std::size_t>(e));
  std::fill(pooled_.begin(), pooled_.end(), 0.0f);
  row_.resize(static_cast<std::size_t>(std::max(e, plan.factor_dim())), 0.0f);
  row2_.resize(static_cast<std::size_t>(e), 0.0f);
  hidden_.resize(static_cast<std::size_t>(plan.hidden_dim()), 0.0f);
  logits_.resize(static_cast<std::size_t>(plan.output_dim()), 0.0f);
  own_.tile.resize(static_cast<std::size_t>(kBlock * kDenseTile), 0.0f);
  lent_.tile.resize(static_cast<std::size_t>(kBlock * kDenseTile), 0.0f);
  onehot_.resize(plan.uses_onehot_path()
                     ? static_cast<std::size_t>(plan.hash_size())
                     : 0,
                 0.0f);
  query_.resize(plan.has_catalog_index()
                    ? static_cast<std::size_t>(plan.out().in) + 1
                    : 0,
                0.0f);
}

bool ExecutionContext::attach_row_cache() {
  std::vector<Index> widths = compiled_->cache_row_widths();
  if (widths.empty()) {
    row_cache_.reset();
    return false;
  }
  row_cache_ =
      std::make_unique<HotRowCache>(cache_budget_bytes_, std::move(widths));
  return true;
}

bool ExecutionContext::enable_row_cache(std::size_t budget_bytes) {
  cache_budget_bytes_ = budget_bytes;
  return attach_row_cache();
}

void ExecutionContext::clear_row_cache() {
  if (row_cache_ != nullptr) {
    row_cache_->clear();
  }
}

RowCacheStats ExecutionContext::row_cache_stats() const {
  return row_cache_ != nullptr ? row_cache_->stats() : RowCacheStats{};
}

void ExecutionContext::touch(const TensorRef& ref, Index offset,
                             Index count) {
  if (ref.dtype == DType::kI4G) {
    // Grouped blobs are two regions; a span read touches both. Scales: the
    // f32 entries of every group the span overlaps. Nibbles: the sub-byte
    // span itself, shifted past the scales header.
    const Index g = ref.entry->group_size;
    const Index first_group = offset / g;
    const Index last_group = (offset + count + g - 1) / g;
    meter_.touch(ref.file_offset + first_group * 4,
                 (last_group - first_group) * 4);
    const Index scales_bytes =
        static_cast<Index>(ref.src.packed - ref.src.payload);
    const ByteSpan span = packed_byte_span(offset, count, 4);
    meter_.touch(ref.file_offset + scales_bytes + span.offset, span.length);
    return;
  }
  // Sub-byte aware: the naive ceil(count*bits/8) undercounts a 4-bit span
  // starting mid-byte (the satellite bug this PR fixes); packed_byte_span
  // rounds the bit interval OUT to whole bytes.
  const ByteSpan span =
      packed_byte_span(offset, count, static_cast<int>(ref.element_bits));
  meter_.touch(ref.file_offset + span.offset, span.length);
}

const float* ExecutionContext::fetch(const TensorRef& ref, Index offset,
                                     Index count, float* scratch) {
  touch(ref, offset, count);
  if (ref.f32 != nullptr) {
    return ref.f32 + offset;
  }
  compiled_->kernels().dequant_span(ref.src, offset, count, scratch);
  return scratch;
}

const float* ExecutionContext::fetch_row(const TensorRef& ref,
                                         std::size_t table, Index row,
                                         Index elems, float* scratch) {
  if (row_cache_ == nullptr) {
    return fetch(ref, row * elems, elems, scratch);
  }
  if (const float* hit = row_cache_->lookup(table, row)) {
    // Served from the cache slab: no page touch, no dequantize. The slab
    // holds exactly the floats the mmap read would have produced, so the
    // logits stay bit-identical either way.
    return hit;
  }
  touch(ref, row * elems, elems);
  float* slot = row_cache_->fill(table, row);
  if (slot == nullptr) {
    // Partition has zero slots (its rows are wider than the per-table
    // budget share): serve straight from the mapping, never the slab.
    return fetch_uncached(ref, row * elems, elems, scratch);
  }
  if (ref.f32 != nullptr) {
    std::memcpy(slot, ref.f32 + row * elems,
                static_cast<std::size_t>(elems) * sizeof(float));
  } else {
    compiled_->kernels().dequant_span(ref.src, row * elems, elems, slot);
  }
  return slot;
}

const float* ExecutionContext::fetch_uncached(const TensorRef& ref,
                                              Index offset, Index count,
                                              float* scratch) {
  // Like fetch() minus the touch (the caller already metered the read).
  if (ref.f32 != nullptr) {
    return ref.f32 + offset;
  }
  compiled_->kernels().dequant_span(ref.src, offset, count, scratch);
  return scratch;
}

Index ExecutionContext::embed_pooled(const std::int32_t* ids, Index length) {
  const CompiledModel& plan = *compiled_;
  const KernelSet& ker = plan.kernels();
  const Technique kind = plan.technique_kind();
  const Index e = plan.embed_dim();
  const Index hash_size = plan.hash_size();
  std::fill(pooled_.begin(), pooled_.end(), 0.0f);
  float* pooled = pooled_.data();
  Index real = 0;
  for (Index t = 0; t < length; ++t) {
    const std::int32_t id = ids[t];
    if (id == kPadId) {
      continue;
    }
    ++real;
    switch (kind) {
      case Technique::kUncompressed:
      case Technique::kReduceDim: {
        const float* row =
            fetch_row(plan.emb_a(), kCacheTableA, id, e, row_.data());
        ker.acc_add(pooled, row, e);
        break;
      }
      case Technique::kTruncateRare: {
        const Index keep = hash_size;
        const Index r = static_cast<Index>(id) <= keep ? id : keep + 1;
        const float* row =
            fetch_row(plan.emb_a(), kCacheTableA, r, e, row_.data());
        ker.acc_add(pooled, row, e);
        break;
      }
      case Technique::kNaiveHash: {
        const float* row = fetch_row(plan.emb_a(), kCacheTableA,
                                     mod_hash(id, hash_size), e, row_.data());
        ker.acc_add(pooled, row, e);
        break;
      }
      case Technique::kMemcom:
      case Technique::kMemcomBias: {
        const float* row = fetch_row(plan.emb_a(), kCacheTableA,
                                     mod_hash(id, hash_size), e, row_.data());
        float mult = 0.0f;
        const float* mult_ptr =
            fetch_row(plan.emb_b(), kCacheTableB, id, 1, &mult);
        const float m = *mult_ptr;
        if (kind == Technique::kMemcomBias) {
          float bias = 0.0f;
          const float* bias_ptr =
              fetch_row(plan.emb_c(), kCacheTableC, id, 1, &bias);
          const float b = *bias_ptr;
          // Distinct kernel from the plain scale-add: `row*m + b` rounds
          // differently than `row*m` followed by `+ b` would, and the
          // bit-exactness contract pins the original expression.
          ker.acc_scale_bias_add(pooled, row, m, b, e);
        } else {
          ker.acc_scale_add(pooled, row, m, e);
        }
        break;
      }
      case Technique::kQrMult: {
        const float* rem = fetch_row(plan.emb_a(), kCacheTableA,
                                     mod_hash(id, hash_size), e, row_.data());
        const float* quo =
            fetch_row(plan.emb_b(), kCacheTableB,
                      static_cast<Index>(id) / hash_size, e, row2_.data());
        ker.acc_mult_add(pooled, rem, quo, e);
        break;
      }
      case Technique::kQrConcat: {
        const Index half = e / 2;
        const float* rem =
            fetch_row(plan.emb_a(), kCacheTableA, mod_hash(id, hash_size),
                      half, row_.data());
        const float* quo =
            fetch_row(plan.emb_b(), kCacheTableB,
                      static_cast<Index>(id) / hash_size, half, row2_.data());
        ker.acc_add(pooled, rem, half);
        ker.acc_add(pooled + half, quo, half);
        break;
      }
      case Technique::kDoubleHash: {
        const Index half = e / 2;
        const float* a =
            fetch_row(plan.emb_a(), kCacheTableA, mod_hash(id, hash_size),
                      half, row_.data());
        const float* b =
            fetch_row(plan.emb_b(), kCacheTableB, mixed_hash(id, hash_size),
                      half, row2_.data());
        ker.acc_add(pooled, a, half);
        ker.acc_add(pooled + half, b, half);
        break;
      }
      case Technique::kFactorized: {
        const Index h = plan.factor_dim();
        const float* factors =
            fetch_row(plan.emb_a(), kCacheTableA, id, h, row_.data());
        // Project: row2 = factors · P using the pre-dequantized projection;
        // the mmap range is still metered exactly like the streaming read.
        touch(plan.emb_b(), 0, h * e);
        float* acc = row2_.data();
        std::fill(acc, acc + e, 0.0f);
        const float* proj = plan.projection().data();
        for (Index k = 0; k < h; ++k) {
          ker.axpy(acc, factors[k], proj + k * e, e);
        }
        ker.acc_add(pooled, acc, e);
        break;
      }
      case Technique::kWeinberger:
        // embed_stage routes weinberger through embed_onehot_pooled;
        // keeping a shadow lookup formulation here would silently diverge.
        check(false, "engine: weinberger uses the one-hot path");
        break;
    }
  }
  return real;
}

void ExecutionContext::embed_onehot_pooled(const std::int32_t* ids,
                                           Index length) {
  const CompiledModel& plan = *compiled_;
  const Index e = plan.embed_dim();
  const Index m = plan.hash_size();
  // Stage 1: hashed one-hot bag z in R^m (normalized so the result matches
  // the lookup path's masked average exactly).
  Index real = 0;
  for (Index t = 0; t < length; ++t) {
    if (ids[t] != kPadId) {
      ++real;
    }
  }
  std::fill(onehot_.begin(), onehot_.end(), 0.0f);
  const float inv = real > 0 ? 1.0f / static_cast<float>(real) : 0.0f;
  for (Index t = 0; t < length; ++t) {
    const std::int32_t id = ids[t];
    if (id == kPadId) {
      continue;
    }
    onehot_[static_cast<std::size_t>(mod_hash(id, m))] += sign_hash(id) * inv;
  }
  // Stage 2: z^T W — streams the ENTIRE table (this is the point of §5.3):
  // every row is read/dequantized regardless of z, so the simulated wall
  // time stays O(m·e) like the real un-fused one_hot->matmul, not O(nnz·e).
  // One full-range touch covers the same page set as the row-by-row reads.
  touch(plan.emb_a(), 0, m * e);
  std::fill(pooled_.begin(), pooled_.end(), 0.0f);
  const KernelSet& ker = plan.kernels();
  float* pooled = pooled_.data();
  float* row = row_.data();
  const TensorRef& table = plan.emb_a();
  for (Index j = 0; j < m; ++j) {
    ker.dequant_span(table.src, j * e, e, row);
    const float z = onehot_[static_cast<std::size_t>(j)];
    if (z != 0.0f) {
      ker.axpy(pooled, z, row, e);
    }
  }
}

void ExecutionContext::apply_batchnorm(const BatchNormPlan& bn, float* x) {
  const Index n = bn.width;
  touch(bn.gamma, 0, n);
  touch(bn.beta, 0, n);
  touch(bn.mean, 0, n);
  touch(bn.var, 0, n);
  const float* scale = bn.scale.data();
  const float* shift = bn.shift.data();
  for (Index i = 0; i < n; ++i) {
    x[i] = x[i] * scale[static_cast<std::size_t>(i)] +
           shift[static_cast<std::size_t>(i)];
  }
  ++op_count_;
}

Index ExecutionContext::half_split(Index out) {
  const Index tiles = (out + kDenseTile - 1) / kDenseTile;
  return tiles < kMinSplitTiles ? out : (tiles + 1) / 2 * kDenseTile;
}

void ExecutionContext::prepare_part(const DenseSweep& sweep,
                                    SweepScratch& scratch) {
  if (sweep.ys == nullptr) {
    scratch.row_tiles.resize(static_cast<std::size_t>(sweep.rows * kDenseTile));
  }
  scratch.gathers.assign(sweep.gathers, sweep.gathers + sweep.ngathers);
}

void ExecutionContext::apply_dense_rows(const DenseSweep& sweep, Index c_begin,
                                        Index c_end,
                                        SweepScratch& scratch) const {
  const DensePlan& dense = *sweep.dense;
  const Index in = dense.in;
  const Index out = dense.out;
  const Index rows = sweep.rows;
  const float* xs = sweep.xs;
  float* const* ys = sweep.ys;
  const KernelSet& ker = compiled_->kernels();
  const float* f32 = dense.weight.f32;
  // A gathered column mirrors the family's axpy: fused when it is.
  const bool fused = ker.fused;
  float* tile = scratch.tile.data();
  GatherRow* gathers = scratch.gathers.data();
  const std::size_t ngathers = scratch.gathers.size();
  for (std::size_t g = 0; g < ngathers; ++g) {
    GatherRow& row = gathers[g];
    row.hi = static_cast<std::size_t>(
        std::lower_bound(row.cols, row.cols + row.count, c_begin) - row.cols);
  }
  // Plain rows accumulate in place in their output rows; ranked rows in the
  // row-tile arena, ranked before the next tile overwrites it.
  const auto acc = [&](Index r, Index c0) {
    return ys != nullptr ? ys[r] + c0
                         : scratch.row_tiles.data() + r * kDenseTile;
  };
  for (Index c0 = c_begin; c0 < c_end; c0 += kDenseTile) {
    const Index width = std::min(kDenseTile, c_end - c0);
    bool gathered = false;
    for (std::size_t g = 0; g < ngathers; ++g) {
      GatherRow& row = gathers[g];
      row.lo = row.hi;
      while (row.hi < row.count && row.cols[row.hi] < c0 + width) {
        ++row.hi;
      }
      gathered = gathered || row.hi > row.lo;
    }
    if (rows == 0 && !gathered) {
      continue;
    }
    for (Index r = 0; r < rows; ++r) {
      std::fill(acc(r, c0), acc(r, c0) + width, 0.0f);
    }
    for (Index k = 0; k < in; k += kBlock) {
      // Weight rows [k, k + nk): f32 segments straight from the mapping
      // (stride out), quantized ones decoded into the scratch (stride
      // kDenseTile) — every segment regardless of activation sparsity, and
      // once for the whole micro-batch.
      const Index nk = std::min(kBlock, in - k);
      const float* w = tile;
      Index stride = kDenseTile;
      if (f32 != nullptr) {
        w = f32 + k * out + c0;
        stride = out;
      } else {
        for (Index j = 0; j < nk; ++j) {
          ker.dequant_span(dense.weight.src, (k + j) * out + c0, width,
                           tile + j * kDenseTile);
        }
      }
      for (Index r = 0; r < rows; ++r) {
        const float* x = xs + r * in + k;
        // A whole block goes through axpy_block when no weight row is
        // skipped: f32 weights MAC every k (a real dense matmul pays the
        // full in·out cost whatever the post-ReLU sparsity of x; zero rows
        // add ±0 and leave y unchanged), quantized ones skip x[k] == 0.
        if (nk == kBlock &&
            (f32 != nullptr || std::find(x, x + kBlock, 0.0f) == x + kBlock)) {
          ker.axpy_block(acc(r, c0), x, w, stride, width);
          continue;
        }
        for (Index j = 0; j < nk; ++j) {
          if (f32 != nullptr || x[j] != 0.0f) {
            ker.axpy(acc(r, c0), x[j], w + j * stride, width);
          }
        }
      }
      // Gather rows read their columns off the same segments, with the
      // exact rows' per-element rules (quantized skips x[k] == 0).
      for (Index j = 0; j < nk; ++j) {
        const float* wk = w + j * stride;
        for (std::size_t g = 0; g < ngathers; ++g) {
          const GatherRow& row = gathers[g];
          const float xv = row.x[k + j];
          if (f32 == nullptr && xv == 0.0f) {
            continue;
          }
          for (std::size_t i = row.lo; i < row.hi; ++i) {
            const float wv = wk[row.cols[i] - c0];
            row.acc[i] = fused ? std::fma(xv, wv, row.acc[i])
                               : row.acc[i] + xv * wv;
          }
        }
      }
    }
    for (Index r = 0; r < rows; ++r) {
      ker.acc_add(acc(r, c0), dense.bias.data() + c0, width);
      if (ys == nullptr) {
        topk_offer_span(*scratch.heaps[static_cast<std::size_t>(r)],
                        sweep.top_k, acc(r, c0), c0, width, ker);
      }
    }
  }
}

bool ExecutionContext::run_sweep(const DenseSweep& sweep,
                                 SweepHelper* helper) {
  const DensePlan& dense = *sweep.dense;
  const Index out = dense.out;
  // One full-range touch per sweep covers the same pages as streaming every
  // row; the meter is a page set, so the row count and the split do not
  // matter. A helper touches no meter.
  touch(dense.weight, 0, dense.in * out);
  touch(dense.bias_ref, 0, out);
  op_count_ += sweep.rows;
  prepare_part(sweep, own_);
  const Index split = helper != nullptr ? helper->split_column(out) : out;
  if (split >= out) {
    apply_dense_rows(sweep, 0, out, own_);
    return false;
  }
  // The lent part gets its own scratch and, for ranked rows, its own heaps,
  // all sized here so its claimant allocates nothing.
  prepare_part(sweep, lent_);
  if (sweep.ys == nullptr) {
    const std::size_t rows = static_cast<std::size_t>(sweep.rows);
    if (lent_heaps_.size() < rows) {
      lent_heaps_.resize(rows);
    }
    lent_.heaps.clear();
    for (std::size_t r = 0; r < rows; ++r) {
      lent_heaps_[r].clear();
      lent_heaps_[r].reserve(static_cast<std::size_t>(sweep.top_k));
      lent_.heaps.push_back(&lent_heaps_[r]);
    }
  }
  SweepPart part(this, &sweep, split);
  if (!helper->post(&part)) {
    apply_dense_rows(sweep, 0, out, own_);
    return false;
  }
  apply_dense_rows(sweep, 0, split, own_);
  if (helper->withdraw(&part)) {
    // Nobody claimed it: sweep it here, into the owner's own heaps.
    apply_dense_rows(sweep, split, out, own_);
    return false;
  }
  part.wait();
  if (sweep.ys == nullptr) {
    for (std::size_t r = 0; r < lent_.heaps.size(); ++r) {
      for (const ScoredId& s : *lent_.heaps[r]) {
        topk_offer(*own_.heaps[r], sweep.top_k, s);
      }
    }
  }
  return true;
}

void SweepPart::run() {
  owner_->apply_dense_rows(*sweep_, c_begin_, sweep_->dense->out,
                           owner_->lent_);
  done_.store(true, std::memory_order_release);
}

void SweepPart::wait() const {
  // The claimant sweeps about as many tiles as the owner just did, so the
  // wait is short: spin. (A yield would hand the CPU to any idle-priority
  // thread for a whole scheduler slice.) Spinning also means run() never
  // has to touch the part after marking it done.
  while (!done_.load(std::memory_order_acquire)) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

void ExecutionContext::embed_stage(const std::int32_t* ids, Index length) {
  const CompiledModel& plan = *compiled_;
  op_count_ = 0;
  activation_bytes_ = 0;
  const Index e = plan.embed_dim();

  // --- Embedding stage + masked average pooling ---
  if (plan.uses_onehot_path()) {
    embed_onehot_pooled(ids, length);
    activation_bytes_ += plan.hash_size() * 4;  // the dense one-hot vector
  } else {
    const Index real = embed_pooled(ids, length);
    if (real > 0) {
      const float inv = 1.0f / static_cast<float>(real);
      for (float& v : pooled_) {
        v *= inv;
      }
    }
    activation_bytes_ += length * e * 4;  // the [L, E] lookup output
  }
  op_count_ += plan.embedding_stage_ops();
  ++op_count_;  // pooling op
}

const float* ExecutionContext::trunk_stage() {
  const CompiledModel& plan = *compiled_;
  // --- Trunk: ReLU -> BN [-> Dense(e/2)+ReLU -> BN] ---
  for (float& v : pooled_) {
    v = std::max(v, 0.0f);
  }
  ++op_count_;
  apply_batchnorm(plan.bn1(), pooled_.data());
  const float* trunk = pooled_.data();
  if (plan.has_hidden()) {
    apply_dense(plan.dense1(), trunk, hidden_.data());
    for (float& v : hidden_) {
      v = std::max(v, 0.0f);
    }
    ++op_count_;
    apply_batchnorm(plan.bn2(), hidden_.data());
    trunk = hidden_.data();
    activation_bytes_ += plan.hidden_dim() * 4;
  }
  return trunk;
}

void ExecutionContext::probe_columns(const float* trunk, Index nprobe,
                                     std::vector<Index>* cols,
                                     std::uint64_t* scanned_rows,
                                     std::uint64_t* scanned_bytes) {
  const CompiledModel& plan = *compiled_;
  const CatalogIndex& index = plan.catalog_index();
  const DensePlan& dense = plan.out();
  const Index in = dense.in;
  const Index out = dense.out;

  // Probe query [trunk; 1.0] against centroids built over [W[:,j]; b_j].
  std::copy(trunk, trunk + in, query_.begin());
  query_[static_cast<std::size_t>(in)] = 1.0f;
  index.probe(plan.kernels(), query_.data(), nprobe, &probed_);

  const DType wt = dense.weight.dtype;
  const std::uint64_t elem_bytes = wt == DType::kF32 ? 4
                                   : wt == DType::kF16 ? 2
                                                       : 1;
  const DType bt = dense.bias_ref.dtype;
  const std::uint64_t bias_elem_bytes = bt == DType::kF32 ? 4
                                        : bt == DType::kF16 ? 2
                                                            : 1;
  const Index group = dense.weight.src.group_size;

  cols->clear();
  std::uint64_t bytes = index.centroid_bytes();
  for (const ScoredId& cluster : probed_) {
    const std::size_t begin =
        index.offsets[static_cast<std::size_t>(cluster.id)];
    const std::size_t end =
        index.offsets[static_cast<std::size_t>(cluster.id) + 1];
    for (std::size_t pos = begin; pos < end; ++pos) {
      const Index j = static_cast<Index>(index.perm[pos]);
      cols->push_back(j);
      // Analytic column bytes: one stored element per weight row, plus the
      // distinct i4g scale groups the strided walk crosses, plus the bias
      // element.
      bytes += static_cast<std::uint64_t>(in) * elem_bytes + bias_elem_bytes;
      if (wt == DType::kI4G) {
        const Index span_groups =
            (j + (in - 1) * out) / group - j / group + 1;
        bytes += static_cast<std::uint64_t>(std::min(in, span_groups)) * 4;
      }
    }
  }
  // Ascending, so the sweep meets each column in its own tile.
  std::sort(cols->begin(), cols->end());
  *scanned_rows += static_cast<std::uint64_t>(cols->size());
  *scanned_bytes += bytes;
}

void ExecutionContext::finish_pruned(const GatherRow& row, Index kept,
                                     std::vector<ScoredId>* ranked) {
  const DensePlan& dense = compiled_->out();
  for (std::size_t i = 0; i < row.count; ++i) {
    const Index j = row.cols[i];
    // The bias lands last, as acc_add does for the exact rows.
    const float score = row.acc[i] + dense.bias[static_cast<std::size_t>(j)];
    topk_offer(*ranked, kept, ScoredId{score, j});
  }
}

InferenceView ExecutionContext::run_view(const std::int32_t* ids,
                                         Index length) {
  const CompiledModel& plan = *compiled_;
  const RowCacheStats before = row_cache_stats();
  const auto start = Clock::now();
  embed_stage(ids, length);
  const double embed_ms = elapsed_ms(start);
  const Index embed_ops = op_count_;
  apply_dense(plan.out(), trunk_stage(), logits_.data());
  const double compute_ms = elapsed_ms(start);
  activation_bytes_ += plan.output_dim() * 4 + plan.embed_dim() * 4;
  meter_.note_activation_bytes(activation_bytes_);

  InferenceView view;
  view.logits = logits_.data();
  view.dim = plan.output_dim();
  view.op_count = op_count_;
  if (before.enabled) {
    const RowCacheStats after = row_cache_stats();
    view.cache_hits = after.hits - before.hits;
    view.cache_misses = after.misses - before.misses;
  }
  // Modeled: the profile's slowdown stands for the un-fused interpreter
  // path of the one-hot embedding stage, and every op pays its dispatch.
  const double onehot_extra_ms =
      plan.uses_onehot_path() ? embed_ms * (profile_.onehot_slowdown - 1.0)
                              : 0.0;
  const double dispatch_ms = profile_.per_op_dispatch_us / 1000.0;
  view.embedding_ms = embed_ms + onehot_extra_ms +
                      static_cast<double>(embed_ops) * dispatch_ms;
  view.total_ms = compute_ms + onehot_extra_ms +
                  static_cast<double>(view.op_count) * dispatch_ms;
  return view;
}

BatchResult ExecutionContext::run_batch(
    const std::vector<std::vector<std::int32_t>>& histories) {
  return run_batch(histories, 0, nullptr);
}

BatchResult ExecutionContext::run_batch(
    const std::vector<std::vector<std::int32_t>>& histories, Index top_k,
    std::vector<std::vector<ScoredId>>* topk_out,
    const std::vector<Index>* nprobes, SweepHelper* helper) {
  const RowCacheStats before = row_cache_stats();
  BatchResult result;
  result.batch = static_cast<Index>(histories.size());
  const CompiledModel& plan = *compiled_;
  const Index dim = plan.output_dim();
  const Index in = plan.out().in;
  const Index kept = std::min(top_k, dim);
  if (top_k > 0) {
    check(topk_out != nullptr, "run_batch: top_k > 0 needs topk_out");
    // Grow only: a shrink would free the trailing rows' heaps, and a reused
    // topk_out would reallocate them when a larger batch follows.
    if (topk_out->size() < histories.size()) {
      topk_out->resize(histories.size());
    }
  } else {
    result.logits = Tensor({result.batch, dim});
  }
  check(nprobes == nullptr ||
            static_cast<Index>(nprobes->size()) == result.batch,
        "run_batch: nprobes size mismatch");
  const auto is_pruned = [&](Index b) {
    return top_k > 0 && nprobes != nullptr &&
           (*nprobes)[static_cast<std::size_t>(b)] > 0 &&
           plan.has_catalog_index();
  };

  // Phase 1: every row's trunk. Exact rows park theirs in the [rows, in]
  // arena for the shared sweep; pruned rows park theirs in their own arena
  // and probe the centroids for the catalog columns they will gather. A
  // ranked row's heap is emptied here, keeping its capacity.
  trunks_.resize(static_cast<std::size_t>(result.batch * in));
  pruned_trunks_.resize(static_cast<std::size_t>(result.batch * in));
  if (pruned_cols_.size() < histories.size()) {
    pruned_cols_.resize(histories.size());
  }
  exact_logits_.clear();
  own_.heaps.clear();
  pruned_rows_.clear();
  Index exact_rows = 0;
  for (Index b = 0; b < result.batch; ++b) {
    const auto& history = histories[static_cast<std::size_t>(b)];
    embed_stage(history.data(), static_cast<Index>(history.size()));
    const float* trunk = trunk_stage();
    std::vector<ScoredId>* heap = nullptr;
    if (top_k > 0) {
      heap = &(*topk_out)[static_cast<std::size_t>(b)];
      heap->clear();
      heap->reserve(static_cast<std::size_t>(kept));
    }
    if (is_pruned(b)) {
      float* parked = pruned_trunks_.data() + pruned_rows_.size() * in;
      std::copy(trunk, trunk + in, parked);
      probe_columns(parked, (*nprobes)[static_cast<std::size_t>(b)],
                    &pruned_cols_[pruned_rows_.size()], &result.scanned_rows,
                    &result.scanned_bytes);
      pruned_rows_.push_back(b);
    } else {
      std::copy(trunk, trunk + in, trunks_.data() + exact_rows * in);
      ++exact_rows;
      if (heap != nullptr) {
        own_.heaps.push_back(heap);
      } else {
        exact_logits_.push_back(&result.logits.at2(b, 0));
      }
    }
    activation_bytes_ += dim * 4 + plan.embed_dim() * 4;
    meter_.note_activation_bytes(activation_bytes_);
  }

  // Phase 2: one output sweep for the whole batch. Exact rows land in their
  // logits rows (plain call) or rank each finished tile into their heaps
  // (ranked call); pruned rows gather only their probed columns off the
  // same decoded tiles into per-column accumulators.
  std::size_t gathered = 0;
  for (std::size_t p = 0; p < pruned_rows_.size(); ++p) {
    gathered += pruned_cols_[p].size();
  }
  gather_acc_.assign(gathered, 0.0f);
  gathers_.clear();
  gathered = 0;
  for (std::size_t p = 0; p < pruned_rows_.size(); ++p) {
    const std::vector<Index>& cols = pruned_cols_[p];
    gathers_.push_back(GatherRow{pruned_trunks_.data() + p * in, cols.data(),
                                 cols.size(), gather_acc_.data() + gathered,
                                 0, 0});
    gathered += cols.size();
  }
  if (exact_rows > 0 || !gathers_.empty()) {
    DenseSweep output;
    output.dense = &plan.out();
    output.rows = exact_rows;
    output.xs = trunks_.data();
    output.ys = top_k > 0 ? nullptr : exact_logits_.data();
    output.top_k = kept;
    output.gathers = gathers_.data();
    output.ngathers = gathers_.size();
    result.split = run_sweep(output, helper);
  }
  // Phase 3: pruned rows add their bias and rank their probed columns; every
  // ranked row sorts its heap best-first.
  for (std::size_t p = 0; p < pruned_rows_.size(); ++p) {
    finish_pruned(gathers_[p], kept,
                  &(*topk_out)[static_cast<std::size_t>(pruned_rows_[p])]);
  }
  // Exact ranked rows scan the whole stored catalog (weight + bias blobs).
  const std::uint64_t exact_scan_bytes = plan.out().weight.entry->byte_size +
                                         plan.out().bias_ref.entry->byte_size;
  for (Index b = 0; b < result.batch && top_k > 0; ++b) {
    std::vector<ScoredId>& ranked = (*topk_out)[static_cast<std::size_t>(b)];
    std::sort(ranked.begin(), ranked.end(), topk_better);
    ++result.ranked_rows;
    result.catalog_rows += static_cast<std::uint64_t>(dim);
    if (!is_pruned(b)) {
      result.scanned_rows += static_cast<std::uint64_t>(dim);
      result.scanned_bytes += exact_scan_bytes;
    }
  }
  if (before.enabled) {
    const RowCacheStats after = row_cache_stats();
    result.cache_hits = after.hits - before.hits;
    result.cache_misses = after.misses - before.misses;
  }
  return result;
}

double ExecutionContext::resident_megabytes() const {
  // The cache slab is extra runtime memory the device pays for; its filled
  // bytes join the weight pages and activation peak in the footprint.
  const std::size_t cache_bytes =
      row_cache_ != nullptr ? row_cache_->stats().resident_bytes : 0;
  return static_cast<double>(meter_.total_resident_bytes() +
                             profile_.runtime_overhead_bytes +
                             static_cast<Index>(cache_bytes)) /
         (1024.0 * 1024.0);
}

}  // namespace memcom
