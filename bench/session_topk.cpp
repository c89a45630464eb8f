// Session top-k catalog-scan benchmark: the full-catalog scoring step of
// session-based next-item serving, measured through the call a serving
// worker makes.
//
// An item catalog [items, dim] is exported at each precision rung
// (f32 / f16 / i8 / i4 / i4g) as a small ranking .mcm: out.weight is the
// catalog transposed to [dim, items] at the rung's dtype, out.bias is zero
// (same dtype), emb.table holds one row per query, and the file carries a
// catalog index. Each query is a one-id history ranked by
// ExecutionContext::run_batch, so it passes through the trunk and the
// shared output sweep. Per rung the bench records:
//   * recall@k        — fraction of the f32 file's exact top-k ids the
//                       rung's exact ranking recovers (ranking loss from
//                       quantization; the sweep itself is deterministic);
//   * scan latency    — wall time of one whole run_batch call
//                       (p50/p95/mean over the query set);
//   * catalog bytes   — BatchResult::scanned_bytes of an exact row: the
//                       stored out.weight + out.bias blobs.
//
// A second phase sweeps nprobe on the same file: a pruned row probes the
// index's centroids and gathers only the probed clusters' columns off the
// sweep. It records recall@k against the SAME rung's exact ranking plus the
// scanned bytes — the recall-vs-bytes frontier that picks an operating
// point. nprobe == clusters must reproduce the rung's exact ranking, ids
// and score bits; the bench exits 1 when it does not, so the frontier's end
// at recall 1.0 is checked, not just printed.
//
//   ./bench_session_topk                 # default scale
//   ./bench_session_topk --smoke         # tiny catalog, few queries
//   ./bench_session_topk --items 100000 --dim 64 --queries 256 --topk 20
//   ./bench_session_topk --clusters 256  # index cell count
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "core/flags.h"
#include "core/rng.h"
#include "core/table.h"
#include "ondevice/engine.h"
#include "ondevice/format.h"

using namespace memcom;

namespace {

struct RungResult {
  std::string dtype;
  double recall_at_k = 0;
  LatencyStats scan;
  std::uint64_t resident_bytes = 0;
  double bytes_ratio_vs_f32 = 0;
};

// One point on the pruned frontier: a (dtype, nprobe) operating point with
// its recall against the same rung's exact ranking and the fraction of the
// stored catalog it read.
struct PrunedResult {
  std::string dtype;
  Index clusters = 0;
  Index nprobe = 0;
  double recall_at_k = 0;
  LatencyStats scan;
  double mean_scanned_bytes = 0;
  double bytes_fraction = 0;
};

// Every query ranked at one nprobe (0 = the exact sweep).
struct Ranking {
  std::vector<std::vector<ScoredId>> topk;
  LatencyStats scan;
  double mean_scanned_bytes = 0;
};

double intersection_recall(const std::vector<ScoredId>& got,
                           const std::vector<ScoredId>& want) {
  if (want.empty()) {
    return 1.0;
  }
  std::size_t hits = 0;
  for (const ScoredId& w : want) {
    for (const ScoredId& g : got) {
      if (g.id == w.id) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(want.size());
}

bool same_ranking(const std::vector<ScoredId>& a,
                  const std::vector<ScoredId>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// A ranking .mcm whose trunk hands query q (history {q + 1}; id 0 is the
// pad id) to the output sweep as ~query[q]: its emb.table row is
// query[q] + 1 (>= 0, so the trunk's ReLU keeps it) and bn1 subtracts the 1.
void write_rung_model(const std::string& path, const Tensor& catalog,
                      const std::vector<std::vector<float>>& queries,
                      DType dtype, Index group_size, Index clusters) {
  const Index items = catalog.shape()[0];
  const Index dim = catalog.shape()[1];
  const Index vocab = static_cast<Index>(queries.size()) + 1;
  Tensor table({vocab, dim});
  for (Index q = 1; q < vocab; ++q) {
    const std::vector<float>& query = queries[static_cast<std::size_t>(q - 1)];
    for (Index d = 0; d < dim; ++d) {
      table.at2(q, d) = query[static_cast<std::size_t>(d)] + 1.0f;
    }
  }
  Tensor weight({dim, items});
  for (Index i = 0; i < items; ++i) {
    for (Index d = 0; d < dim; ++d) {
      weight.at2(d, i) = catalog.at2(i, d);
    }
  }
  ModelWriter writer(path);
  writer.set_metadata("arch", "ranking");
  writer.set_metadata("technique", "uncompressed");
  writer.set_metadata_int("vocab", vocab);
  writer.set_metadata_int("embed_dim", dim);
  writer.set_metadata_int("knob", 0);
  writer.set_metadata_int("output_dim", items);
  writer.add_tensor("emb.table", table);
  writer.add_tensor("bn1.gamma", Tensor::full({dim}, 1.0f));
  writer.add_tensor("bn1.beta", Tensor({dim}));
  writer.add_tensor("bn1.mean", Tensor::full({dim}, 1.0f));
  writer.add_tensor("bn1.var", Tensor::full({dim}, 1.0f));
  writer.add_tensor("out.weight", weight, dtype, group_size);
  writer.add_tensor("out.bias", Tensor({items}), dtype, group_size);
  writer.set_emit_catalog_index(true, clusters);
  writer.finish();
}

// Ranks every query, one run_batch call each, timing the whole call.
Ranking rank_queries(ExecutionContext& context, Index queries, Index k,
                     Index nprobe) {
  std::vector<std::vector<std::int32_t>> history = {{1}};
  const std::vector<Index> nprobes = {nprobe};
  std::vector<std::vector<ScoredId>> topk;
  context.run_batch(history, k, &topk, &nprobes);  // warm: page the file in
  Ranking ranking;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(queries));
  double bytes_sum = 0;
  for (Index q = 0; q < queries; ++q) {
    history[0][0] = static_cast<std::int32_t>(q + 1);
    const auto start = std::chrono::steady_clock::now();
    const BatchResult result = context.run_batch(history, k, &topk, &nprobes);
    samples.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    ranking.topk.push_back(topk[0]);
    bytes_sum += static_cast<double>(result.scanned_bytes);
  }
  ranking.scan = latency_stats_from_samples(std::move(samples));
  ranking.mean_scanned_bytes = bytes_sum / static_cast<double>(queries);
  return ranking;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);
  const Index items = flags.get_int("items", smoke ? 2000 : 50000);
  const Index dim = flags.get_int("dim", smoke ? 16 : 64);
  const int queries = static_cast<int>(flags.get_int("queries", smoke ? 32 : 128));
  const Index k = flags.get_int("topk", 10);
  const Index clusters = flags.get_int("clusters", smoke ? 32 : 256);
  const std::string json_path =
      flags.get_string("out", "BENCH_session_topk.json");

  std::cout << "session top-k catalog scan: items=" << items << " dim=" << dim
            << " queries=" << queries << " k=" << k << " clusters=" << clusters
            << " kernels=" << select_kernels().name << "\n\n";

  // Anchored mixture rather than pure isotropic noise: real item-embedding
  // catalogs are clustered (genre/brand/popularity structure), and that
  // locality is exactly what the pruned phase's k-means exploits. --anchors 0
  // falls back to the isotropic catalog.
  const Index anchors = flags.get_int("anchors", 64);
  Rng rng(4242);
  Tensor catalog_f32 = Tensor::randn({items, dim}, rng, 0.3f);
  if (anchors > 0) {
    const Tensor anchor_table = Tensor::randn({anchors, dim}, rng, 1.0f);
    for (Index i = 0; i < items; ++i) {
      const float* a = anchor_table.data() +
                       static_cast<std::size_t>(i % anchors) * dim;
      float* row = catalog_f32.data() + static_cast<std::size_t>(i) * dim;
      for (Index d = 0; d < dim; ++d) {
        row[d] += a[d];
      }
    }
  }
  std::vector<std::vector<float>> query_vecs;
  query_vecs.reserve(static_cast<std::size_t>(queries));
  for (int q = 0; q < queries; ++q) {
    std::vector<float> v(static_cast<std::size_t>(dim));
    for (float& x : v) {
      x = rng.uniform(-1.0f, 1.0f);
    }
    query_vecs.push_back(std::move(v));
  }

  struct Rung {
    const char* label;
    DType dtype;
    Index group_size;
  };
  // f32 first: its exact ranking is every rung's recall reference.
  const std::vector<Rung> rungs = {
      {"f32", DType::kF32, 0},  {"f16", DType::kF16, 0},
      {"i8", DType::kI8, 0},    {"i4", DType::kI4, 0},
      {"i4g", DType::kI4G, kI4GroupDefault},
  };

  TextTable table({"dtype", "recall@k", "scan p50 ms", "scan p95 ms",
                   "mean ms", "catalog MB", "vs f32"});
  std::vector<RungResult> results;
  std::vector<PrunedResult> pruned_results;
  std::vector<std::vector<ScoredId>> ref_topk;
  std::uint64_t f32_bytes = 0;
  bool exact_at_full_probe = true;
  for (const Rung& rung : rungs) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("memcom_session_topk_" + std::string(rung.label) + ".mcm"))
            .string();
    write_rung_model(path, catalog_f32, query_vecs, rung.dtype,
                     rung.group_size, clusters);
    auto compiled = std::make_shared<const CompiledModel>(
        std::make_shared<const MmapModel>(path));
    if (!compiled->has_catalog_index()) {
      std::cerr << rung.label << ": catalog index not adopted: "
                << compiled->index_fallback_reason() << "\n";
      return 1;
    }
    ExecutionContext context(compiled, tflite_profile());

    // The rung's exact ranking: its recall against f32, and the pruned
    // phase's reference.
    const Ranking exact = rank_queries(context, queries, k, 0);
    if (rung.dtype == DType::kF32) {
      ref_topk = exact.topk;
    }
    RungResult result;
    result.dtype = rung.label;
    result.scan = exact.scan;
    result.resident_bytes =
        static_cast<std::uint64_t>(std::llround(exact.mean_scanned_bytes));
    if (rung.dtype == DType::kF32) {
      f32_bytes = result.resident_bytes;
    }
    result.bytes_ratio_vs_f32 =
        f32_bytes > 0 ? static_cast<double>(result.resident_bytes) /
                            static_cast<double>(f32_bytes)
                      : 1.0;
    double recall_sum = 0;
    for (std::size_t i = 0; i < exact.topk.size(); ++i) {
      recall_sum += intersection_recall(exact.topk[i], ref_topk[i]);
    }
    result.recall_at_k = recall_sum / static_cast<double>(queries);
    results.push_back(result);

    table.add_row({result.dtype, format_float(result.recall_at_k, 4),
                   format_float(result.scan.p50_ms, 4),
                   format_float(result.scan.p95_ms, 4),
                   format_float(result.scan.mean_ms, 4),
                   format_float(static_cast<double>(result.resident_bytes) /
                                    (1024.0 * 1024.0),
                                3),
                   format_float(result.bytes_ratio_vs_f32, 3)});

    // Pruned frontier for this rung: the file's own index, probed at a
    // geometric nprobe sweep that ends at the full probe.
    const Index cells = compiled->catalog_index().clusters;
    std::vector<Index> sweep;
    for (const Index np :
         {Index{1}, cells / 64, cells / 32, cells / 16, cells / 8,
          cells * 3 / 16, cells / 4, cells / 2, cells}) {
      if (np >= 1 && (sweep.empty() || np > sweep.back())) {
        sweep.push_back(np);
      }
    }
    for (const Index np : sweep) {
      const Ranking pruned = rank_queries(context, queries, k, np);
      PrunedResult point;
      point.dtype = rung.label;
      point.clusters = cells;
      point.nprobe = np;
      point.scan = pruned.scan;
      double pruned_recall_sum = 0;
      for (std::size_t i = 0; i < pruned.topk.size(); ++i) {
        pruned_recall_sum += intersection_recall(pruned.topk[i], exact.topk[i]);
        if (np == cells && !same_ranking(pruned.topk[i], exact.topk[i])) {
          std::cerr << rung.label << ": full probe differs from the exact "
                    << "ranking on query " << i << "\n";
          exact_at_full_probe = false;
        }
      }
      point.recall_at_k = pruned_recall_sum / static_cast<double>(queries);
      point.mean_scanned_bytes = pruned.mean_scanned_bytes;
      point.bytes_fraction = point.mean_scanned_bytes /
                             static_cast<double>(result.resident_bytes);
      pruned_results.push_back(point);
    }
    std::filesystem::remove(path);
  }

  std::cout << table.to_string();

  TextTable pruned_table({"dtype", "nprobe", "recall@k", "scan p50 ms",
                          "mean ms", "scan KB/query", "% of catalog"});
  for (const PrunedResult& p : pruned_results) {
    pruned_table.add_row(
        {p.dtype, std::to_string(p.nprobe), format_float(p.recall_at_k, 4),
         format_float(p.scan.p50_ms, 4), format_float(p.scan.mean_ms, 4),
         format_float(p.mean_scanned_bytes / 1024.0, 1),
         format_float(p.bytes_fraction * 100.0, 1)});
  }
  std::cout << "\nclustered pruned scan (" << clusters
            << " clusters, recall vs same-rung exact scan):\n"
            << pruned_table.to_string();

  std::ofstream out(json_path, std::ios::trunc);
  out << "{\n  \"items\": " << items << ",\n  \"dim\": " << dim
      << ",\n  \"queries\": " << queries << ",\n  \"k\": " << k
      << ",\n  \"clusters\": " << clusters << ",\n  \"kernels\": \""
      << select_kernels().name << "\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RungResult& r = results[i];
    out << "    {\"dtype\": \"" << r.dtype << "\", "
        << "\"recall_at_k\": " << r.recall_at_k << ", "
        << "\"scan_p50_ms\": " << r.scan.p50_ms << ", "
        << "\"scan_p95_ms\": " << r.scan.p95_ms << ", "
        << "\"scan_mean_ms\": " << r.scan.mean_ms << ", "
        << "\"catalog_bytes\": " << r.resident_bytes << ", "
        << "\"bytes_ratio_vs_f32\": " << r.bytes_ratio_vs_f32 << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"pruned\": [\n";
  for (std::size_t i = 0; i < pruned_results.size(); ++i) {
    const PrunedResult& p = pruned_results[i];
    out << "    {\"dtype\": \"" << p.dtype << "\", "
        << "\"clusters\": " << p.clusters << ", "
        << "\"nprobe\": " << p.nprobe << ", "
        << "\"recall_at_k\": " << p.recall_at_k << ", "
        << "\"scan_p50_ms\": " << p.scan.p50_ms << ", "
        << "\"scan_mean_ms\": " << p.scan.mean_ms << ", "
        << "\"mean_scanned_bytes\": " << p.mean_scanned_bytes << ", "
        << "\"bytes_fraction\": " << p.bytes_fraction << "}"
        << (i + 1 < pruned_results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << json_path << "\n";
  if (!exact_at_full_probe) {
    std::cerr << "FAIL: a full-probe ranking differs from its rung's exact "
                 "ranking\n";
    return 1;
  }
  return 0;
}
