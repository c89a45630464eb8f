// Clustered pruned top-k catalog scan (ondevice/catalog_index.h): the
// deterministic k-means build, the .mcm v4 section round trip, the serving
// anchors — through run_batch, nprobe >= num_clusters is bit-identical to
// the exact ranked row, and the scan counters rise with nprobe — and the
// hardening contract — every corruption of the index section (truncation,
// checksum flip, hostile declared cluster count, permutation corruption)
// must decode as kStale with a diagnosable reason, and serving must fall
// back to the exact scan with BIT-IDENTICAL rankings. A bad index may
// never take down a loadable model, and may never perturb a score.
#include "ondevice/catalog_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/rng.h"
#include "ondevice/compiled_model.h"
#include "ondevice/engine.h"
#include "ondevice/plan.h"
#include "ondevice/serving.h"
#include "repro/model.h"
#include "test_util.h"

namespace memcom {
namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

// Recomputes the trailing checksum of the index section at [offset,
// offset+size) so structural corruptions survive the checksum gate and
// prove the CHECKS BEHIND IT fire, not just the checksum.
void reseal_index(std::vector<std::uint8_t>& file, std::uint64_t offset,
                  std::uint64_t size) {
  const std::uint64_t sum =
      section_checksum(file.data() + offset, static_cast<std::size_t>(size - 8));
  std::memcpy(file.data() + offset + size - 8, &sum, 8);
}

// A reproducible synthetic catalog with clusterable structure: `items`
// rows of width `dim`, drawn around a few well-separated anchors so
// k-means has real cells to find, plus noise so rows stay distinct.
Tensor synthetic_catalog(Index items, Index dim, std::uint64_t seed) {
  Tensor rows({items, dim});
  Rng rng(seed);
  const Index anchors = 7;
  std::vector<float> anchor(static_cast<std::size_t>(anchors * dim));
  for (auto& v : anchor) {
    v = rng.uniform(-2.0f, 2.0f);
  }
  for (Index i = 0; i < items; ++i) {
    const Index a = i % anchors;
    for (Index d = 0; d < dim; ++d) {
      rows.at2(i, d) =
          anchor[static_cast<std::size_t>(a * dim + d)] +
          rng.uniform(-0.25f, 0.25f);
    }
  }
  return rows;
}

class CatalogIndexFileTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : paths_) {
      std::filesystem::remove(p);
    }
  }

  std::string export_model(const std::string& tag, bool emit_index,
                           Index clusters = 0, DType dtype = DType::kI8,
                           bool emit_plan = false,
                           TechniqueKind kind = TechniqueKind::kMemcom) {
    ModelConfig config;
    config.embedding.kind = kind;
    config.embedding.vocab = 150;
    config.embedding.embed_dim = 16;
    config.embedding.knob = 24;
    config.arch = ModelArch::kClassification;
    config.output_vocab = 48;
    config.seed = 4711;
    RecModel model(config);
    auto p = std::filesystem::temp_directory_path() /
             ("memcom_cidx_" + tag + ".mcm");
    paths_.push_back(p);
    model.export_mcm(p.string(), dtype, "cidx", 5, /*group_size=*/0,
                     emit_plan, emit_index, clusters);
    return p.string();
  }

  // Asserts the corrupted file decodes as kStale with `reason_substr`, the
  // loader records the fallback, and session serving on it is BIT-IDENTICAL
  // to an index-less export of the same model — the exact scan contract.
  void expect_stale_exact_fallback(const std::string& path,
                                   const std::string& reason_substr) {
    auto mapped = std::make_shared<const MmapModel>(path);
    const CatalogIndexDecodeResult decoded = decode_catalog_index(*mapped);
    ASSERT_EQ(decoded.status, PlanStatus::kStale) << reason_substr;
    EXPECT_NE(decoded.reason.find(reason_substr), std::string::npos)
        << "actual reason: " << decoded.reason;
    auto compiled = std::make_shared<const CompiledModel>(mapped);
    EXPECT_FALSE(compiled->has_catalog_index());
    EXPECT_NE(compiled->index_fallback_reason().find(reason_substr),
              std::string::npos)
        << compiled->index_fallback_reason();

    // Serving still ranks, exactly: a pruned request on the defective file
    // silently takes the exact path and matches the index-less reference.
    const std::string clean = export_model("fallback_ref", false);
    const MmapModel clean_model(clean);
    std::vector<SessionEvent> events;
    for (std::uint64_t s = 1; s <= 4; ++s) {
      for (std::int32_t item = 1; item <= 5; ++item) {
        events.push_back({s, item * static_cast<std::int32_t>(s)});
      }
    }
    AsyncServerConfig config;
    config.threads = 1;
    config.max_batch = 4;
    config.session_capacity = 16;
    config.nprobe = 3;  // requested pruning, unavailable on both files
    std::vector<std::vector<Index>> corrupt_topk, clean_topk;
    {
      ModelRegistry registry;
      registry.publish("m", compiled);
      AsyncServer server(registry, "m", tflite_profile(), config);
      const ServingReport report =
          server.serve_sessions(events, 5, &corrupt_topk);
      // Exact fallback: nothing was pruned.
      EXPECT_EQ(report.pruned_fraction, 0.0) << reason_substr;
      EXPECT_EQ(report.scanned_rows, report.catalog_rows) << reason_substr;
    }
    {
      AsyncServer server(clean_model, tflite_profile(), config);
      server.serve_sessions(events, 5, &clean_topk);
    }
    ASSERT_EQ(corrupt_topk.size(), clean_topk.size());
    for (std::size_t i = 0; i < corrupt_topk.size(); ++i) {
      EXPECT_EQ(corrupt_topk[i], clean_topk[i])
          << reason_substr << " event " << i;
    }
  }

  std::vector<std::filesystem::path> paths_;
};

// --- IdBuffer semantics -----------------------------------------------------

TEST(IdBufferUnit, OwnedAndViewSemantics) {
  IdBuffer owned = IdBuffer::owned({3u, 1u, 2u});
  EXPECT_EQ(owned.size(), 3u);
  EXPECT_EQ(owned[0], 3u);
  EXPECT_FALSE(owned.zero_copy());

  const std::uint32_t backing[4] = {9u, 8u, 7u, 6u};
  IdBuffer view = IdBuffer::view(backing, 4);
  EXPECT_EQ(view.size(), 4u);
  EXPECT_EQ(view.data(), backing);
  EXPECT_TRUE(view.zero_copy());

  IdBuffer moved = std::move(owned);
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved[2], 2u);
}

// --- Deterministic k-means build --------------------------------------------

TEST(CatalogIndexBuild, DefaultClustersTracksSqrt) {
  EXPECT_THROW(default_catalog_clusters(0), std::exception);
  EXPECT_EQ(default_catalog_clusters(1), 1);
  EXPECT_EQ(default_catalog_clusters(100), 10);
  EXPECT_EQ(default_catalog_clusters(50000), 224);  // lround(sqrt)
  // Never more cells than items.
  EXPECT_LE(default_catalog_clusters(3), 3);
}

TEST(CatalogIndexBuild, TwoBuildsAreByteIdentical) {
  const Tensor rows = synthetic_catalog(96, 12, 11);
  CatalogIndexConfig config;
  config.clusters = 9;
  const CatalogIndex a = build_catalog_index(rows.data(), 96, 12, config);
  const CatalogIndex b = build_catalog_index(rows.data(), 96, 12, config);
  const std::vector<std::uint8_t> bytes_a = serialize_catalog_index(a);
  const std::vector<std::uint8_t> bytes_b = serialize_catalog_index(b);
  ASSERT_EQ(bytes_a.size(), bytes_b.size());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(CatalogIndexBuild, PermutationCoversEveryItemExactlyOnce) {
  const Tensor rows = synthetic_catalog(77, 10, 23);
  CatalogIndexConfig config;
  config.clusters = 8;
  const CatalogIndex index = build_catalog_index(rows.data(), 77, 10, config);
  ASSERT_EQ(index.items, 77);
  ASSERT_EQ(index.clusters, 8);
  ASSERT_EQ(index.perm.size(), 77u);
  ASSERT_EQ(index.offsets.size(), 9u);
  EXPECT_EQ(index.offsets[0], 0u);
  EXPECT_EQ(index.offsets[8], 77u);
  std::set<std::uint32_t> seen;
  Index total = 0;
  for (Index c = 0; c < index.clusters; ++c) {
    EXPECT_LE(index.offsets[static_cast<std::size_t>(c)],
              index.offsets[static_cast<std::size_t>(c) + 1]);
    total += index.cluster_size(c);
    // Ascending ids within a cluster (the deterministic layout).
    for (std::uint32_t i = index.offsets[static_cast<std::size_t>(c)] + 1;
         i < index.offsets[static_cast<std::size_t>(c) + 1]; ++i) {
      EXPECT_LT(index.perm[i - 1], index.perm[i]) << "cluster " << c;
    }
  }
  EXPECT_EQ(total, 77);
  for (std::size_t i = 0; i < index.perm.size(); ++i) {
    EXPECT_LT(index.perm[i], 77u);
    EXPECT_TRUE(seen.insert(index.perm[i]).second)
        << "duplicate id " << index.perm[i];
  }
}

TEST(CatalogIndexBuild, ClusterCountClampedToItems) {
  const Tensor rows = synthetic_catalog(5, 6, 3);
  CatalogIndexConfig config;
  config.clusters = 50;  // more cells than items
  const CatalogIndex index = build_catalog_index(rows.data(), 5, 6, config);
  EXPECT_EQ(index.clusters, 5);
  EXPECT_EQ(index.perm.size(), 5u);
}

// --- .mcm v4 section round trip ---------------------------------------------

TEST_F(CatalogIndexFileTest, V4RoundTripAdoptsZeroCopy) {
  const std::string path = export_model("roundtrip", true, 6);
  const MmapModel model(path);
  EXPECT_EQ(model.format_version(), 4u);
  ASSERT_TRUE(model.has_index_section());
  EXPECT_GT(model.index_size(), 0u);

  const CatalogIndexDecodeResult decoded = decode_catalog_index(model);
  ASSERT_EQ(decoded.status, PlanStatus::kValid) << decoded.reason;
  const CatalogIndex& index = decoded.index;
  EXPECT_TRUE(index.zero_copy);
  EXPECT_TRUE(index.perm.zero_copy());
  EXPECT_TRUE(index.offsets.zero_copy());
  EXPECT_EQ(index.model_name, "cidx");
  EXPECT_EQ(index.model_version, 5u);
  EXPECT_EQ(index.items, 48);
  // Classification head: out.weight is [hidden, items] with hidden = e/2,
  // and the index folds the bias in as one extra lane.
  EXPECT_EQ(index.dim, 16 / 2 + 1);
  EXPECT_EQ(index.clusters, 6);

  // The adopted view must match an in-process rebuild byte-for-byte.
  const CatalogIndex rebuilt = build_catalog_index_for_model(
      model, CatalogIndexConfig{6, index.iterations, index.seed});
  EXPECT_EQ(serialize_catalog_index(rebuilt),
            std::vector<std::uint8_t>(
                model.index_data(), model.index_data() + model.index_size()));
}

TEST_F(CatalogIndexFileTest, IndexlessExportStaysPreV4) {
  const std::string path = export_model("no_index", false);
  const MmapModel model(path);
  EXPECT_LT(model.format_version(), 4u);
  EXPECT_FALSE(model.has_index_section());
  EXPECT_EQ(decode_catalog_index(model).status, PlanStatus::kAbsent);
  auto compiled = std::make_shared<const CompiledModel>(
      std::make_shared<const MmapModel>(path));
  EXPECT_FALSE(compiled->has_catalog_index());
  EXPECT_EQ(compiled->index_fallback_reason(), "no catalog index section");
}

TEST_F(CatalogIndexFileTest, PlanAndIndexSectionsCoexist) {
  const std::string path = export_model("both", true, 6, DType::kI8, true);
  const MmapModel model(path);
  EXPECT_EQ(model.format_version(), 4u);
  EXPECT_TRUE(model.has_plan_section());
  EXPECT_TRUE(model.has_index_section());
  EXPECT_EQ(decode_plan(model).status, PlanStatus::kValid);
  EXPECT_EQ(decode_catalog_index(model).status, PlanStatus::kValid);

  // Index adoption is INDEPENDENT of plan policy: a kNeverAdopt compile
  // still serves the pruned scan.
  auto compiled = std::make_shared<const CompiledModel>(
      std::make_shared<const MmapModel>(path), PlanPolicy::kNeverAdopt);
  EXPECT_FALSE(compiled->plan_adopted());
  EXPECT_TRUE(compiled->has_catalog_index());
}

// Serving-level anchor: run_batch with every cluster probed is bit-identical
// to the exact ranked batch — ids AND scores — and the scan counters agree.
// An oversized nprobe (10x the cluster count) clamps to the full probe.
TEST_F(CatalogIndexFileTest, ServingFullProbeBitIdenticalToExact) {
  for (const DType dtype :
       {DType::kF32, DType::kI8, DType::kI4, DType::kI4G}) {
    const std::string path = export_model(
        std::string("serve_") + dtype_name(dtype), true, 6, dtype);
    auto compiled = std::make_shared<const CompiledModel>(
        std::make_shared<const MmapModel>(path));
    ASSERT_TRUE(compiled->has_catalog_index())
        << compiled->index_fallback_reason();
    ExecutionContext context(compiled, tflite_profile());
    const std::vector<std::vector<std::int32_t>> histories = {
        {1, 2, 3}, {}, {7, 7, 7, 7}, {42}};
    std::vector<std::vector<ScoredId>> exact_topk;
    const BatchResult exact = context.run_batch(histories, 8, &exact_topk);
    EXPECT_EQ(exact.scanned_rows, exact.catalog_rows);
    const Index clusters = compiled->catalog_index().clusters;
    for (const Index nprobe : {clusters, 10 * clusters}) {
      const std::string tag = std::string(dtype_name(dtype)) +
                              " nprobe=" + std::to_string(nprobe);
      std::vector<std::vector<ScoredId>> pruned_topk;
      const std::vector<Index> nprobes(histories.size(), nprobe);
      const BatchResult pruned =
          context.run_batch(histories, 8, &pruned_topk, &nprobes);
      ASSERT_EQ(exact_topk.size(), pruned_topk.size()) << tag;
      for (std::size_t b = 0; b < exact_topk.size(); ++b) {
        ASSERT_EQ(exact_topk[b].size(), pruned_topk[b].size()) << tag;
        for (std::size_t i = 0; i < exact_topk[b].size(); ++i) {
          EXPECT_EQ(exact_topk[b][i].id, pruned_topk[b][i].id)
              << tag << " row " << b << " pos " << i;
          EXPECT_EQ(exact_topk[b][i].score, pruned_topk[b][i].score)
              << tag << " row " << b << " pos " << i;
        }
      }
      // Full probe scans every row, and each row reads the exact row's
      // stored catalog bytes plus the centroid table it probed.
      EXPECT_EQ(pruned.scanned_rows, pruned.catalog_rows) << tag;
      EXPECT_EQ(pruned.ranked_rows, static_cast<std::uint64_t>(4)) << tag;
      EXPECT_EQ(pruned.scanned_bytes,
                exact.scanned_bytes +
                    4 * compiled->catalog_index().centroid_bytes())
          << tag;
    }
  }
}

// A genuinely pruned serving drain: fewer rows scanned, counters consistent.
TEST_F(CatalogIndexFileTest, PrunedDrainReportsPrunedFraction) {
  const std::string path = export_model("pruned_drain", true, 8);
  const MmapModel model(path);
  std::vector<SessionEvent> events;
  for (std::uint64_t s = 1; s <= 6; ++s) {
    for (std::int32_t i = 1; i <= 4; ++i) {
      events.push_back({s, static_cast<std::int32_t>(s * 7 + i)});
    }
  }
  AsyncServerConfig config;
  config.threads = 2;
  config.shards = 2;
  config.max_batch = 4;
  config.session_capacity = 16;
  config.nprobe = 2;  // 2 of 8 cells
  AsyncServer server(model, tflite_profile(), config);
  std::vector<std::vector<Index>> topk;
  const ServingReport report = server.serve_sessions(events, 5, &topk);
  EXPECT_EQ(report.session_requests, events.size());
  EXPECT_GT(report.catalog_rows, 0u);
  EXPECT_LT(report.scanned_rows, report.catalog_rows);
  EXPECT_GT(report.scanned_bytes, 0u);
  EXPECT_GT(report.pruned_fraction, 0.0);
  EXPECT_LT(report.pruned_fraction, 1.0);
  for (const auto& ids : topk) {
    EXPECT_EQ(ids.size(), 5u);
  }
  // A per-request nprobe override beats the config default: full probe
  // through the same server must match an exact-scan request exactly.
  auto full = server
                  .submit_next_item(AsyncServer::kDefaultModelId, 99, 3, 5,
                                    -1.0, /*nprobe=*/8)
                  .get();
  auto exact = server
                   .submit_next_item(AsyncServer::kDefaultModelId, 98, 3, 5,
                                     -1.0, /*nprobe=*/0)
                   .get();
  ASSERT_EQ(full.top_ids.size(), exact.top_ids.size());
  EXPECT_EQ(full.top_ids, exact.top_ids);
  EXPECT_EQ(full.top_scores, exact.top_scores);

  // The same drain at nprobe 1 < 4 < clusters scans strictly more catalog
  // rows and bytes each step, and the full probe scans every row.
  std::uint64_t last_rows = 0;
  std::uint64_t last_bytes = 0;
  for (const Index nprobe : {Index{1}, Index{4}, Index{8}}) {
    config.nprobe = nprobe;
    AsyncServer sweep(model, tflite_profile(), config);
    const ServingReport r = sweep.serve_sessions(events, 5);
    EXPECT_GT(r.scanned_rows, last_rows) << "nprobe " << nprobe;
    EXPECT_GT(r.scanned_bytes, last_bytes) << "nprobe " << nprobe;
    last_rows = r.scanned_rows;
    last_bytes = r.scanned_bytes;
    if (nprobe == 8) {
      EXPECT_EQ(r.scanned_rows, r.catalog_rows);
    }
  }
}

// --- Hardening: every defect decodes kStale and serves exact ----------------

TEST_F(CatalogIndexFileTest, TruncatedSectionFallsBack) {
  const std::string path = export_model("trunc", true, 6);
  std::vector<std::uint8_t> bytes = read_file(path);
  // Shrink the DECLARED section size (header locator at byte 32: magic u32,
  // version u32, plan offset/size u64s, index offset u64) below the minimum
  // a section prefix needs — an in-bounds but truncated section.
  const std::uint64_t tiny = 16;
  std::memcpy(bytes.data() + 32, &tiny, 8);
  write_file(path, bytes);
  expect_stale_exact_fallback(path, "truncated");
}

TEST_F(CatalogIndexFileTest, ChoppedFileFallsBack) {
  const std::string path = export_model("chop", true, 6);
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes.resize(bytes.size() - 16);  // the section now runs past EOF
  write_file(path, bytes);
  expect_stale_exact_fallback(path, "out of file bounds");
}

TEST_F(CatalogIndexFileTest, ChecksumFlipFallsBack) {
  const std::string path = export_model("checksum", true, 6);
  std::vector<std::uint8_t> bytes = read_file(path);
  {
    const MmapModel model(path);
    ASSERT_TRUE(model.has_index_section());
    // Flip one centroid byte mid-section; do NOT reseal.
    bytes[static_cast<std::size_t>(model.index_offset() +
                                   model.index_size() / 2)] ^= 0x5A;
  }
  write_file(path, bytes);
  expect_stale_exact_fallback(path, "checksum mismatch");
}

TEST_F(CatalogIndexFileTest, HostileClusterCountFallsBack) {
  const std::string path = export_model("hostile", true, 6);
  std::vector<std::uint8_t> bytes = read_file(path);
  std::uint64_t offset = 0, size = 0;
  {
    const MmapModel model(path);
    ASSERT_TRUE(model.has_index_section());
    offset = model.index_offset();
    size = model.index_size();
  }
  // The clusters i64 lives after the 16-byte prefix, the model_name string
  // (u64 length + "cidx"), the version u64, and items/dim i64s.
  const std::uint64_t clusters_at = offset + 16 + 8 + 4 + 8 + 8 + 8;
  const std::int64_t hostile = 1'000'000'000;  // far beyond items
  std::memcpy(bytes.data() + clusters_at, &hostile, 8);
  reseal_index(bytes, offset, size);
  write_file(path, bytes);
  expect_stale_exact_fallback(path, "cluster count out of range");
}

TEST_F(CatalogIndexFileTest, CorruptedPermutationFallsBack) {
  const std::string path = export_model("perm", true, 6);
  std::vector<std::uint8_t> bytes = read_file(path);
  std::uint64_t offset = 0, size = 0;
  {
    const MmapModel model(path);
    ASSERT_TRUE(model.has_index_section());
    offset = model.index_offset();
    size = model.index_size();
    const CatalogIndexDecodeResult decoded = decode_catalog_index(model);
    ASSERT_EQ(decoded.status, PlanStatus::kValid);
    // Duplicate the first permutation entry over the second — still
    // in-bounds ids, no longer a permutation.
    const std::uint8_t* perm_bytes =
        reinterpret_cast<const std::uint8_t*>(decoded.index.perm.data());
    const std::uint64_t perm_at =
        offset + static_cast<std::uint64_t>(perm_bytes - model.index_data());
    std::memcpy(bytes.data() + perm_at + 4, bytes.data() + perm_at, 4);
  }
  reseal_index(bytes, offset, size);
  write_file(path, bytes);
  expect_stale_exact_fallback(path, "not a permutation");
}

TEST_F(CatalogIndexFileTest, IdentitySkewFallsBack) {
  const std::string path = export_model("skew", true, 6);
  std::vector<std::uint8_t> bytes = read_file(path);
  std::uint64_t offset = 0, size = 0;
  {
    const MmapModel model(path);
    ASSERT_TRUE(model.has_index_section());
    offset = model.index_offset();
    size = model.index_size();
  }
  // model_version u64 sits after the prefix and the name string.
  const std::uint64_t version_at = offset + 16 + 8 + 4;
  const std::uint64_t wrong = 999;
  std::memcpy(bytes.data() + version_at, &wrong, 8);
  reseal_index(bytes, offset, size);
  write_file(path, bytes);
  expect_stale_exact_fallback(path, "model_version skew");
}

TEST_F(CatalogIndexFileTest, PrefixAndRegionDefectsFallBack) {
  // Each case XORs one u32 of the section (byte position relative to the
  // section start) and re-seals, so the frame check behind the checksum
  // has to catch it.
  // The centroid region's offset word follows the 16-byte prefix, the name
  // string (u64 length + "cidx"), the version u64, five i64/u64 header
  // fields and the centroid count u64.
  const std::uint64_t centroid_offset_at = 16 + 8 + 4 + 8 + 5 * 8 + 8;
  const struct {
    const char* tag;
    std::uint64_t at;
    std::uint32_t mask;
    const char* reason;
  } cases[] = {
      {"magic", 0, 0xFFu, "bad catalog index magic"},
      {"format", 4, 0x3u, "unsupported catalog index format version 2"},
      {"endian", 8, 0x05050505u, "catalog index endianness mismatch"},
      {"flag", 12, 0x1u, "not built from scalar dequantization"},
      // Aligned offsets have bit 2 clear: +4, still inside the section.
      {"misaligned", centroid_offset_at, 0x4u, "region misaligned"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.tag);
    const std::string path = export_model(std::string("prefix_") + c.tag,
                                          true, 6);
    std::vector<std::uint8_t> bytes = read_file(path);
    std::uint64_t offset = 0, size = 0;
    {
      const MmapModel model(path);
      ASSERT_TRUE(model.has_index_section());
      offset = model.index_offset();
      size = model.index_size();
    }
    std::uint32_t word = 0;
    std::memcpy(&word, bytes.data() + offset + c.at, 4);
    word ^= c.mask;
    std::memcpy(bytes.data() + offset + c.at, &word, 4);
    reseal_index(bytes, offset, size);
    write_file(path, bytes);
    expect_stale_exact_fallback(path, c.reason);
  }
}

}  // namespace
}  // namespace memcom
