// Forward-only inference engine over an mmap'd .mcm model.
//
// Re-implements the paper's network (embedding -> masked average pool ->
// ReLU -> BatchNorm [-> Dense+ReLU -> BatchNorm] -> Dense) directly against
// the memory-mapped weight blobs, independent of the training stack — the
// tests verify the two produce identical logits. Two embedding compute
// paths exist, matching §5.3's comparison:
//
//   * lookup path  — per-token row gather (MEmCom, QR, hashing, ...);
//     touches O(history length) table rows.
//   * one-hot path — Weinberger feature hashing as originally formulated: a
//     hashed bag-of-words vector times the full table; touches every table
//     page and costs O(m·e) regardless of history length.
//
// The engine is a thin façade over two layers (see compiled_model.h and
// execution_context.h):
//
//   * CompiledModel    — the immutable execution plan: technique enum,
//     pre-resolved TensorRef handles, folded batchnorm, pre-dequantized
//     trunk buffers. Compiled ONCE per .mcm and shareable by reference
//     across any number of engines/workers.
//   * ExecutionContext — the per-thread mutable state: scratch arena,
//     MemoryMeter, optional HotRowCache, dispatch accounting.
//
// An engine constructed from an MmapModel compiles a private plan (the
// PR-2 behavior); an engine constructed from a shared_ptr<CompiledModel>
// reuses an existing plan — the serving layer compiles once per model and
// fans it out to every worker. Steady-state run() performs zero string
// hashing, zero map lookups, and zero heap allocations either way — see
// tests/test_fastpath.cpp for the enforcement.
//
// Latency (run/run_view) is wall time of the real computation plus the
// device profile's per-op dispatch overhead (and the profile's one-hot
// slowdown for the un-fused TF-Lite path) — the modeled Table 3 figure.
// `run_batch` returns logits only, no modeled time. Memory is metered
// page-granularly, see memory_meter.h.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "ondevice/compiled_model.h"
#include "ondevice/device_profile.h"
#include "ondevice/execution_context.h"
#include "ondevice/format.h"

namespace memcom {

struct InferenceResult {
  Tensor logits;            // [output_dim]
  double embedding_ms = 0;  // embedding stage latency (incl. overheads)
  double total_ms = 0;      // end-to-end latency (incl. overheads)
  Index op_count = 0;
};

struct LatencyStats {
  double mean_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  int runs = 0;
};

// Nearest-rank percentiles + min/mean/max over per-run samples. Consumes the
// sample vector (sorts in place). The rank is computed with exact integer
// math (ceil(p*n/100) as (p*n+99)/100), so p95 of exactly 20 samples is the
// 19th sample — not the max, which the naive double ceil() produces. Empty
// input yields all-zero stats with runs == 0.
LatencyStats latency_stats_from_samples(std::vector<double> samples_ms);

class InferenceEngine {
 public:
  // Compiles a PRIVATE execution plan against `model`; the model must
  // outlive the engine. All tensor-name resolution happens here, never in
  // run().
  InferenceEngine(const MmapModel& model, DeviceProfile profile);

  // Executes against an EXISTING plan (shared with other engines/threads);
  // no tensor resolution, no pre-dequantization — construction is cheap and
  // the plan's buffers are paid for once across all sharers.
  InferenceEngine(std::shared_ptr<const CompiledModel> compiled,
                  DeviceProfile profile);

  // Runs a single batch-1 forward (Table 3's setting).
  InferenceResult run(const std::vector<std::int32_t>& history);

  // Zero-allocation fast path: identical computation to run(), but the
  // logits live in engine-owned scratch (valid until the next run).
  InferenceView run_view(const std::int32_t* ids, Index length) {
    return context_.run_view(ids, length);
  }
  InferenceView run_view(const std::vector<std::int32_t>& history) {
    return context_.run_view(history);
  }

  // Runs every history through the forward pass. Logits are bit-identical
  // to sequential run() calls.
  BatchResult run_batch(
      const std::vector<std::vector<std::int32_t>>& histories) {
    return context_.run_batch(histories);
  }

  // Latency distribution over `runs` forwards of the same input (the paper
  // reports the average of 1000 runs; we also keep percentiles).
  LatencyStats benchmark(const std::vector<std::int32_t>& history, int runs);

  // Resident memory accounting from all runs since the last reset.
  const MemoryMeter& meter() const { return context_.meter(); }
  void reset_meter() { context_.reset_meter(); }
  double resident_megabytes() const { return context_.resident_megabytes(); }

  // Attaches a fixed-budget HotRowCache over the lookup-path embedding
  // tensors; subsequent row gathers serve hits from the cache slab (skipping
  // the page touch and the dequantize) and fill it on misses. Returns false
  // — and attaches nothing — for the one-hot Weinberger path, which streams
  // the whole table and cannot benefit from row caching. Cached and
  // uncached forwards produce bit-identical logits.
  bool enable_row_cache(std::size_t budget_bytes) {
    return context_.enable_row_cache(budget_bytes);
  }
  // Evicts every cached row and zeroes the hit/miss counters (cold cache).
  void clear_row_cache() { context_.clear_row_cache(); }
  bool row_cache_enabled() const { return context_.row_cache_enabled(); }
  RowCacheStats row_cache_stats() const { return context_.row_cache_stats(); }

  const CompiledModel& compiled() const { return *compiled_; }
  const std::shared_ptr<const CompiledModel>& compiled_ptr() const {
    return compiled_;
  }
  // Bytes of the plan's pre-dequantized buffers (shared, not per-engine,
  // when the plan has other sharers).
  std::size_t plan_resident_bytes() const {
    return compiled_->plan_resident_bytes();
  }

  const std::string& technique() const { return compiled_->technique(); }
  Technique technique_kind() const { return compiled_->technique_kind(); }
  const std::string& architecture() const {
    return compiled_->architecture();
  }
  Index output_dim() const { return compiled_->output_dim(); }
  bool uses_onehot_path() const { return compiled_->uses_onehot_path(); }

 private:
  std::shared_ptr<const CompiledModel> compiled_;
  ExecutionContext context_;
};

}  // namespace memcom
