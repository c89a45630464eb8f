// Enforcement tests for the zero-allocation inference fast path:
//   * steady-state run() performs NO string-keyed tensor lookups (the
//     execution plan resolves every handle at construction);
//   * steady-state run_view() performs NO heap allocations (scratch arena),
//     and neither does a ranked run_batch() — exact or pruned rows — into
//     a reused topk_out;
//   * run_batch() is bit-identical to sequential run() for every technique;
//   * the memory meter's resident-byte accounting is unchanged by the fast
//     path (batched and sequential runs meter the same pages).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "ondevice/engine.h"
#include "ondevice/serving.h"
#include "repro/model.h"
#include "test_util.h"

// --- Global allocation hook -------------------------------------------------
// Counts operator-new calls while g_count_allocs is set, in total and per
// thread. Replacing the global operator new is binary-wide, so the counter
// is only armed around the measured region.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};
thread_local std::size_t t_alloc_count = 0;

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    ++t_alloc_count;
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace memcom {
namespace {

class FastPathTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& tag) {
    auto p = std::filesystem::temp_directory_path() /
             ("memcom_fastpath_" + tag + ".mcm");
    paths_.push_back(p);
    return p.string();
  }
  void TearDown() override {
    for (const auto& p : paths_) {
      std::filesystem::remove(p);
    }
  }
  std::vector<std::filesystem::path> paths_;
};

ModelConfig small_config(TechniqueKind kind, ModelArch arch) {
  ModelConfig config;
  config.embedding.kind = kind;
  config.embedding.vocab = 120;
  config.embedding.embed_dim = 16;
  switch (kind) {
    case TechniqueKind::kFactorized:
    case TechniqueKind::kReduceDim:
      config.embedding.knob = 8;
      break;
    case TechniqueKind::kFull:
      config.embedding.knob = 0;
      break;
    default:
      config.embedding.knob = 24;
  }
  config.arch = arch;
  config.output_vocab = 40;
  config.seed = 1234;
  return config;
}

std::vector<std::vector<std::int32_t>> sample_histories() {
  return {
      {5, 17, 42, 100, 7, 0, 0, 0},
      {1, 2, 3, 4},
      {99, 98, 97, 96, 95, 94, 93, 92},
      {11, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 0},  // fully padded
      {64, 32, 16, 8, 4, 2},
  };
}

constexpr TechniqueKind kLookupTechniques[] = {
    TechniqueKind::kFull,        TechniqueKind::kMemcom,
    TechniqueKind::kMemcomBias,  TechniqueKind::kQrMult,
    TechniqueKind::kQrConcat,    TechniqueKind::kNaiveHash,
    TechniqueKind::kDoubleHash,  TechniqueKind::kFactorized,
    TechniqueKind::kReduceDim,   TechniqueKind::kTruncateRare,
    TechniqueKind::kWeinberger,
};

TEST_F(FastPathTest, SteadyStateRunPerformsNoEntryLookups) {
  for (const TechniqueKind kind :
       {TechniqueKind::kMemcom, TechniqueKind::kWeinberger,
        TechniqueKind::kFactorized}) {
    ModelConfig config = small_config(kind, ModelArch::kClassification);
    RecModel model(config);
    const std::string path =
        temp_path("lookups_" + std::string(technique_name(kind)));
    model.export_mcm(path);

    const MmapModel mapped(path);
    InferenceEngine engine(mapped, coreml_profile("cpuOnly"));
    // Plan compilation is allowed (and expected) to resolve names...
    EXPECT_GT(mapped.entry_lookup_count(), 0u) << technique_name(kind);
    const std::uint64_t after_compile = mapped.entry_lookup_count();
    // ...but steady-state forwards must not touch the string directory.
    const auto histories = sample_histories();
    for (const auto& history : histories) {
      engine.run(history);
      engine.run_view(history);
    }
    engine.run_batch(histories);
    engine.benchmark(histories.front(), 5);
    EXPECT_EQ(mapped.entry_lookup_count(), after_compile)
        << technique_name(kind);
  }
}

TEST_F(FastPathTest, SteadyStateRunViewIsAllocationFree) {
  for (const TechniqueKind kind :
       {TechniqueKind::kMemcom, TechniqueKind::kWeinberger}) {
    ModelConfig config = small_config(kind, ModelArch::kClassification);
    RecModel model(config);
    const std::string path =
        temp_path("allocs_" + std::string(technique_name(kind)));
    model.export_mcm(path);

    const MmapModel mapped(path);
    InferenceEngine engine(mapped, tflite_profile());
    const auto histories = sample_histories();
    // Warm up: the first runs fault weight pages into the meter's page set
    // (node allocations) — steady state begins once the set is populated.
    for (int i = 0; i < 2; ++i) {
      for (const auto& history : histories) {
        engine.run_view(history);
      }
    }
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    for (int i = 0; i < 3; ++i) {
      for (const auto& history : histories) {
        engine.run_view(history);
      }
    }
    g_count_allocs.store(false, std::memory_order_relaxed);
    EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
        << technique_name(kind);
  }
}

// The session path's ranked call: exact rows rank tile by tile into the
// caller's reused topk_out rows, so once warm it allocates nothing — at B=1
// and B=8, over a ragged last tile, and when the two sizes alternate on one
// reused topk_out (as paced B=1 batches and saturated B=8 batches do on a
// serving worker). Pruned rows probe into a context-owned heap and gather
// into reused arenas, so a batch mixing exact and pruned rows, repeated on
// the same histories, allocates nothing either.
TEST_F(FastPathTest, SteadyStateRankedRunBatchIsAllocationFree) {
  ModelConfig config =
      small_config(TechniqueKind::kMemcom, ModelArch::kRanking);
  config.output_vocab = 2 * ExecutionContext::kDenseTile + 13;
  RecModel model(config);
  const std::string path = temp_path("ranked_allocs");
  model.export_mcm(path, DType::kI4G, "ranked", 1, 32, /*emit_plan=*/false,
                   /*emit_index=*/true, /*index_clusters=*/8);
  auto compiled = std::make_shared<const CompiledModel>(
      std::make_shared<const MmapModel>(path));
  ASSERT_TRUE(compiled->has_catalog_index())
      << compiled->index_fallback_reason();
  ExecutionContext context(compiled, tflite_profile());
  const auto pool = sample_histories();
  const auto histories_of = [&](std::size_t batch) {
    std::vector<std::vector<std::int32_t>> histories;
    for (std::size_t b = 0; b < batch; ++b) {
      histories.push_back(pool[b % pool.size()]);
    }
    return histories;
  };
  const auto one = histories_of(1);
  const auto eight = histories_of(8);
  // Every other row pruned, at partial and full probes.
  const std::vector<Index> mixed = {0, 2, 0, 8, 0, 1, 0, 4};
  struct Call {
    const std::vector<std::vector<std::int32_t>>* histories;
    const std::vector<Index>* nprobes;
  };
  const std::pair<const char*, std::vector<Call>> cases[] = {
      {"B=1", {{&one, nullptr}, {&one, nullptr}, {&one, nullptr}}},
      {"B=8", {{&eight, nullptr}, {&eight, nullptr}, {&eight, nullptr}}},
      {"B=8,1,8",
       {{&eight, nullptr}, {&one, nullptr}, {&eight, nullptr},
        {&one, nullptr}}},
      {"B=8 mixed", {{&eight, &mixed}, {&eight, &mixed}}},
  };
  for (const auto& [label, sequence] : cases) {
    std::vector<std::vector<ScoredId>> topk;
    for (const Call& call : sequence) {
      context.run_batch(*call.histories, 10, &topk, call.nprobes);
    }
    for (const Call& call : sequence) {
      g_alloc_count.store(0, std::memory_order_relaxed);
      g_count_allocs.store(true, std::memory_order_relaxed);
      const BatchResult result =
          context.run_batch(*call.histories, 10, &topk, call.nprobes);
      g_count_allocs.store(false, std::memory_order_relaxed);
      const std::size_t batch = call.histories->size();
      EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
          << label << " at B=" << batch;
      if (call.nprobes != nullptr) {
        EXPECT_LT(result.scanned_rows, result.catalog_rows) << label;
      }
      // The reused rows hold this call's ranking, not a blend with an
      // earlier call's.
      std::vector<std::vector<ScoredId>> fresh;
      context.run_batch(*call.histories, 10, &fresh, call.nprobes);
      ASSERT_EQ(fresh.size(), batch);
      ASSERT_GE(topk.size(), batch);
      for (std::size_t b = 0; b < batch; ++b) {
        ASSERT_EQ(topk[b].size(), 10u) << label << " row " << b;
        for (std::size_t i = 0; i < topk[b].size(); ++i) {
          EXPECT_EQ(topk[b][i].id, fresh[b][i].id) << label << " row " << b;
          EXPECT_EQ(topk[b][i].score, fresh[b][i].score)
              << label << " row " << b;
        }
      }
    }
  }
}

TEST_F(FastPathTest, RunBatchLogitsBitIdenticalToSequentialRuns) {
  for (const TechniqueKind kind : kLookupTechniques) {
    for (const ModelArch arch :
         {ModelArch::kClassification, ModelArch::kRanking}) {
      ModelConfig config = small_config(kind, arch);
      RecModel model(config);
      const std::string path = temp_path(
          "batch_" + std::string(technique_name(kind)) +
          (arch == ModelArch::kClassification ? "_cls" : "_rank"));
      model.export_mcm(path);

      const MmapModel mapped(path);
      InferenceEngine sequential(mapped, coreml_profile("all"));
      InferenceEngine batched(mapped, coreml_profile("all"));
      const auto histories = sample_histories();
      const BatchResult batch = batched.run_batch(histories);
      ASSERT_EQ(batch.batch, static_cast<Index>(histories.size()));
      for (std::size_t b = 0; b < histories.size(); ++b) {
        const Tensor expected = sequential.run(histories[b]).logits;
        for (Index c = 0; c < expected.numel(); ++c) {
          EXPECT_EQ(batch.logits.at2(static_cast<Index>(b), c), expected[c])
              << technique_name(kind) << " request " << b << " logit " << c;
        }
      }
    }
  }
}

TEST_F(FastPathTest, MeterAccountingUnchangedByBatchedFastPath) {
  for (const TechniqueKind kind : kLookupTechniques) {
    ModelConfig config = small_config(kind, ModelArch::kRanking);
    RecModel model(config);
    const std::string path =
        temp_path("meter_" + std::string(technique_name(kind)));
    model.export_mcm(path);

    const MmapModel mapped(path);
    InferenceEngine sequential(mapped, tflite_profile());
    InferenceEngine batched(mapped, tflite_profile());
    const auto histories = sample_histories();
    for (const auto& history : histories) {
      sequential.run(history);
    }
    batched.run_batch(histories);
    EXPECT_EQ(sequential.meter().touched_pages(),
              batched.meter().touched_pages())
        << technique_name(kind);
    EXPECT_EQ(sequential.meter().weight_resident_bytes(),
              batched.meter().weight_resident_bytes())
        << technique_name(kind);
    EXPECT_EQ(sequential.meter().activation_peak_bytes(),
              batched.meter().activation_peak_bytes())
        << technique_name(kind);
  }
}

TEST_F(FastPathTest, BenchmarkReportsOrderedPercentiles) {
  ModelConfig config =
      small_config(TechniqueKind::kMemcom, ModelArch::kRanking);
  RecModel model(config);
  const std::string path = temp_path("percentiles");
  model.export_mcm(path);
  const MmapModel mapped(path);
  InferenceEngine engine(mapped, tflite_profile());
  const LatencyStats stats = engine.benchmark(sample_histories().front(), 50);
  EXPECT_EQ(stats.runs, 50);
  EXPECT_GT(stats.min_ms, 0.0);
  EXPECT_LE(stats.min_ms, stats.p50_ms);
  EXPECT_LE(stats.p50_ms, stats.p95_ms);
  EXPECT_LE(stats.p95_ms, stats.p99_ms);
  EXPECT_LE(stats.p99_ms, stats.max_ms);
  EXPECT_LE(stats.min_ms, stats.mean_ms);
  EXPECT_GE(stats.max_ms, stats.mean_ms);

  // Degenerate single-run distribution: every statistic collapses to the
  // one sample (this also covers the old 1e30 sentinel-min bug).
  const LatencyStats one = engine.benchmark(sample_histories().front(), 1);
  EXPECT_EQ(one.runs, 1);
  EXPECT_DOUBLE_EQ(one.min_ms, one.max_ms);
  EXPECT_DOUBLE_EQ(one.min_ms, one.mean_ms);
  EXPECT_DOUBLE_EQ(one.min_ms, one.p50_ms);
  EXPECT_DOUBLE_EQ(one.min_ms, one.p99_ms);
}

TEST_F(FastPathTest, QuantizedModelsUseTheSamePlanMachinery) {
  // Quantized blobs cannot take the direct-float shortcut; the dequantizing
  // fallback must still be batch-consistent and meter-identical.
  ModelConfig config =
      small_config(TechniqueKind::kMemcom, ModelArch::kClassification);
  RecModel model(config);
  const std::string path = temp_path("quant");
  model.export_mcm(path, DType::kI8);
  const MmapModel mapped(path);
  InferenceEngine sequential(mapped, coreml_profile("all"));
  InferenceEngine batched(mapped, coreml_profile("all"));
  const auto histories = sample_histories();
  const BatchResult batch = batched.run_batch(histories);
  for (std::size_t b = 0; b < histories.size(); ++b) {
    const Tensor expected = sequential.run(histories[b]).logits;
    for (Index c = 0; c < expected.numel(); ++c) {
      EXPECT_EQ(batch.logits.at2(static_cast<Index>(b), c), expected[c]);
    }
  }
  EXPECT_EQ(sequential.meter().weight_resident_bytes(),
            batched.meter().weight_resident_bytes());
}


// Runs every posted sweep part on one long-lived thread, as a parked serving
// worker does, and counts what that thread allocates inside the parts. It
// always claims: withdraw() waits until the thread has taken the part.
class CountingHelper : public SweepHelper {
 public:
  explicit CountingHelper(Index column)
      : column_(column), thread_([this] { loop(); }) {}
  ~CountingHelper() override {
    stop_.store(true);
    thread_.join();
  }
  Index split_column(Index) override { return column_; }
  bool post(SweepPart* part) override {
    slot_.store(part, std::memory_order_release);
    return true;
  }
  bool withdraw(SweepPart*) override {
    while (slot_.load(std::memory_order_acquire) != nullptr) {
      std::this_thread::yield();
    }
    return false;
  }
  std::size_t parts_run() const { return parts_run_.load(); }
  std::size_t part_allocs() const { return part_allocs_.load(); }

 private:
  void loop() {
    while (!stop_.load()) {
      SweepPart* part = slot_.exchange(nullptr, std::memory_order_acquire);
      if (part == nullptr) {
        std::this_thread::yield();
        continue;
      }
      const std::size_t before = t_alloc_count;
      part->run();
      part_allocs_ += t_alloc_count - before;
      ++parts_run_;
    }
  }

  Index column_;
  std::atomic<SweepPart*> slot_{nullptr};
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> parts_run_{0};
  std::atomic<std::size_t> part_allocs_{0};
  std::thread thread_;
};

// A lent part's scratch and heaps belong to the owner's context and are
// sized before the part is posted: once warm, the thread that sweeps it
// allocates nothing, for exact, pruned and plain rows alike.
TEST_F(FastPathTest, WarmSplitPartsAllocateNothingOnTheHelper) {
  ModelConfig config =
      small_config(TechniqueKind::kMemcom, ModelArch::kRanking);
  config.output_vocab = 2 * ExecutionContext::kDenseTile + 13;
  RecModel model(config);
  const std::string path = temp_path("split_allocs");
  model.export_mcm(path, DType::kI4G, "split", 1, 32, /*emit_plan=*/false,
                   /*emit_index=*/true, /*index_clusters=*/8);
  auto compiled = std::make_shared<const CompiledModel>(
      std::make_shared<const MmapModel>(path));
  ASSERT_TRUE(compiled->has_catalog_index());
  ExecutionContext context(compiled, tflite_profile());
  const auto pool = sample_histories();
  const std::vector<std::vector<std::int32_t>> eight(pool.begin(),
                                                     pool.begin() + 6);
  const std::vector<Index> mixed = {0, 2, 0, 8, 0, 1};
  CountingHelper helper(ExecutionContext::kDenseTile);
  std::vector<std::vector<ScoredId>> topk;
  const auto calls = [&] {
    context.run_batch(eight, 10, &topk, nullptr, &helper);
    context.run_batch(eight, 10, &topk, &mixed, &helper);
    context.run_batch({pool[0]}, 10, &topk, nullptr, &helper);
    context.run_batch(eight, 0, nullptr, nullptr, &helper);
  };
  calls();
  const std::size_t warm_runs = helper.parts_run();
  g_count_allocs.store(true);
  for (int i = 0; i < 3; ++i) {
    calls();
  }
  g_count_allocs.store(false);
  EXPECT_EQ(helper.parts_run(), 4 * warm_runs);
  EXPECT_EQ(helper.part_allocs(), 0u);
}

// A warm two-worker session server allocates nothing on its workers: not
// for lone requests whose sweeps the idle worker helps with, and not for a
// serve_sessions drain, whose start resets the workers' statistics in
// place. A ranked answer's buffers are reserved at submit, on the
// submitting thread.
TEST_F(FastPathTest, WarmSessionDrainAllocatesNothingOnWorkers) {
  ModelConfig config =
      small_config(TechniqueKind::kMemcom, ModelArch::kRanking);
  config.embedding.embed_dim = 64;
  config.output_vocab =
      ExecutionContext::kMinSplitTiles * ExecutionContext::kDenseTile + 13;
  RecModel model(config);
  const std::string path = temp_path("drain_allocs");
  model.export_mcm(path, DType::kI4G);
  const MmapModel mapped(path);
  AsyncServerConfig server_config;
  server_config.threads = 2;
  server_config.session_capacity = 64;
  AsyncServer server(mapped, tflite_profile(), server_config);
  const auto event = [](int i) {
    return SessionEvent{static_cast<std::uint64_t>(i % 8),
                        static_cast<std::int32_t>(1 + (i * 13) % 119)};
  };
  const auto answer = [&](int i) {
    const SessionEvent e = event(i);
    server
        .submit_next_item(AsyncServer::kDefaultModelId, e.session_id, e.item,
                          10)
        .get();
  };
  const std::vector<SessionEvent> lone = {event(7)};
  // Warm both workers: a burst gives each its own batches (its context,
  // meter pages and arenas), lone requests split their sweeps, and a
  // one-event drain runs the drain's own bookkeeping once.
  std::vector<SessionEvent> burst;
  for (int i = 0; i < 256; ++i) {
    burst.push_back(event(i));
  }
  server.serve_sessions(burst, 10);
  for (int i = 0; i < 64; ++i) {
    answer(i);
  }
  server.serve_sessions(lone, 10);
  // At least 64 answers, and on until one of them split (a loaded host can
  // wake the parked worker too late for a while).
  const std::uint64_t splits_before = server.split_count();
  int answers = 0;
  t_alloc_count = 0;
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  while (answers < 64 ||
         (server.split_count() == splits_before && answers < 4096)) {
    answer(answers++);
  }
  g_count_allocs.store(false);
  EXPECT_GT(server.split_count(), splits_before);
  EXPECT_EQ(g_alloc_count.load() - t_alloc_count, 0u)
      << "over " << answers << " lone answers";
  // A drain after a warm one.
  t_alloc_count = 0;
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  const ServingReport report = server.serve_sessions(lone, 10);
  g_count_allocs.store(false);
  EXPECT_EQ(report.session_requests, 1u);
  EXPECT_EQ(g_alloc_count.load() - t_alloc_count, 0u) << "one-event drain";
}

}  // namespace
}  // namespace memcom
