// Batch-1 AsyncServer drains (max_batch 1: the closed-loop
// configuration): threaded serving over one shared MmapModel must produce
// bit-identical logits to sequential single-engine runs, and the report
// (QPS, percentiles, request counts) must be internally consistent. The
// report's latency columns come from LatencyHistogram, whose buckets,
// quantiles and merge are pinned here too.
#include "ondevice/serving.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <vector>

#include "core/rng.h"
#include "ondevice/metrics.h"
#include "repro/model.h"
#include "test_util.h"

namespace memcom {
namespace {

class ServingTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& tag) {
    auto p = std::filesystem::temp_directory_path() /
             ("memcom_serving_" + tag + ".mcm");
    paths_.push_back(p);
    return p.string();
  }
  void TearDown() override {
    for (const auto& p : paths_) {
      std::filesystem::remove(p);
    }
  }

  std::string export_model(TechniqueKind kind, ModelArch arch,
                           const std::string& tag) {
    ModelConfig config;
    config.embedding.kind = kind;
    config.embedding.vocab = 200;
    config.embedding.embed_dim = 16;
    config.embedding.knob =
        kind == TechniqueKind::kFactorized ? 8 : 32;
    config.arch = arch;
    config.output_vocab = 24;
    config.seed = 4321;
    RecModel model(config);
    const std::string path = temp_path(tag);
    model.export_mcm(path);
    return path;
  }

  std::vector<std::filesystem::path> paths_;
};

std::vector<std::vector<std::int32_t>> make_requests(int count) {
  std::vector<std::vector<std::int32_t>> requests;
  Rng rng(5);
  for (int i = 0; i < count; ++i) {
    std::vector<std::int32_t> history(8, 0);
    const Index real = 2 + static_cast<Index>(rng.uniform_index(6));
    for (Index t = 0; t < real; ++t) {
      history[static_cast<std::size_t>(t)] =
          static_cast<std::int32_t>(1 + rng.uniform_index(199));
    }
    requests.push_back(std::move(history));
  }
  return requests;
}

// One request per micro-batch.
AsyncServerConfig batch_one(int threads) {
  AsyncServerConfig config;
  config.threads = threads;
  config.max_batch = 1;
  return config;
}

TEST_F(ServingTest, ThreadedBatchOneDrainMatchesSequentialEngineBitExact) {
  for (const TechniqueKind kind :
       {TechniqueKind::kMemcom, TechniqueKind::kQrConcat,
        TechniqueKind::kWeinberger}) {
    const std::string path = export_model(
        kind, ModelArch::kClassification,
        "parity_" + std::string(technique_name(kind)));
    const MmapModel mapped(path);
    const auto requests = make_requests(24);

    InferenceEngine sequential(mapped, tflite_profile());
    AsyncServer server(mapped, tflite_profile(), batch_one(4));
    Tensor served;
    const ServingReport report = server.serve(requests, 1, 0.0, &served);
    ASSERT_EQ(report.requests, 24u);
    ASSERT_EQ(served.dim(0), 24);
    for (std::size_t r = 0; r < requests.size(); ++r) {
      const Tensor expected = sequential.run(requests[r]).logits;
      for (Index c = 0; c < expected.numel(); ++c) {
        EXPECT_EQ(served.at2(static_cast<Index>(r), c), expected[c])
            << technique_name(kind) << " request " << r << " logit " << c;
      }
    }
  }
}

TEST_F(ServingTest, SingleThreadDrainMatchesToo) {
  const std::string path =
      export_model(TechniqueKind::kMemcom, ModelArch::kRanking, "single");
  const MmapModel mapped(path);
  const auto requests = make_requests(10);
  InferenceEngine sequential(mapped, coreml_profile("all"));
  AsyncServer server(mapped, coreml_profile("all"), batch_one(1));
  Tensor served;
  server.serve(requests, 1, 0.0, &served);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const Tensor expected = sequential.run(requests[r]).logits;
    for (Index c = 0; c < expected.numel(); ++c) {
      EXPECT_EQ(served.at2(static_cast<Index>(r), c), expected[c]);
    }
  }
}

TEST_F(ServingTest, RepeatedDrainsKeepLogitsStable) {
  const std::string path =
      export_model(TechniqueKind::kNaiveHash, ModelArch::kClassification,
                   "repeat");
  const MmapModel mapped(path);
  const auto requests = make_requests(6);
  AsyncServer server(mapped, tflite_profile(), batch_one(3));
  Tensor first, second;
  server.serve(requests, 4, 0.0, &first);
  const ServingReport report = server.serve(requests, 4, 0.0, &second);
  EXPECT_EQ(report.requests, 24u);  // 6 unique x 4 repeats
  EXPECT_TENSOR_NEAR(first, second, 0.0f);
}

TEST_F(ServingTest, ReportIsInternallyConsistent) {
  const std::string path =
      export_model(TechniqueKind::kMemcom, ModelArch::kClassification,
                   "report");
  const MmapModel mapped(path);
  const auto requests = make_requests(16);
  AsyncServer server(mapped, tflite_profile(), batch_one(2));
  const ServingReport report = server.serve(requests, 3);
  EXPECT_EQ(report.threads, 2);
  EXPECT_EQ(report.requests, 48u);
  EXPECT_EQ(report.latency.runs, 48);
  EXPECT_GT(report.wall_ms, 0.0);
  EXPECT_GT(report.qps, 0.0);
  EXPECT_LE(report.latency.min_ms, report.latency.p50_ms);
  EXPECT_LE(report.latency.p50_ms, report.latency.p95_ms);
  EXPECT_LE(report.latency.p95_ms, report.latency.p99_ms);
  EXPECT_LE(report.latency.p99_ms, report.latency.max_ms);
  // The whole drain can't be faster than its slowest request.
  EXPECT_GE(report.wall_ms, report.latency.max_ms);
  // Batch-1: every executed request rode its own micro-batch.
  EXPECT_EQ(report.batches, 48u);
  EXPECT_EQ(report.mean_batch, 1.0);
  EXPECT_GT(server.max_resident_megabytes(), 0.0);
}

TEST_F(ServingTest, NonPositiveThreadCountRejectedUpFront) {
  // The server must reject a 0/negative pool at construction, before any
  // thread spawns — a pool with no worker would never drain a request.
  const std::string path =
      export_model(TechniqueKind::kMemcom, ModelArch::kRanking, "degenerate");
  const MmapModel mapped(path);
  AsyncServerConfig config;
  config.threads = 0;
  EXPECT_THROW(AsyncServer(mapped, tflite_profile(), config),
               std::runtime_error);
  config.threads = -2;
  EXPECT_THROW(AsyncServer(mapped, tflite_profile(), config),
               std::runtime_error);
  // The checks reject before any thread spawns, so a valid construction
  // right after the failures works normally.
  AsyncServer server(mapped, tflite_profile(), batch_one(1));
  EXPECT_EQ(server.threads(), 1);
  EXPECT_GT(server.output_dim(), 0);
}

TEST_F(ServingTest, PlanCompiledOnceAndSharedAcrossWorkers) {
  // Factorized has the largest plan (the pre-dequantized [h, e] projection),
  // so plan duplication would be most visible here.
  const std::string path = export_model(
      TechniqueKind::kFactorized, ModelArch::kClassification, "sharedplan");
  const MmapModel mapped(path);

  InferenceEngine single(mapped, tflite_profile());
  const std::size_t one_plan = single.plan_resident_bytes();
  ASSERT_GT(one_plan, 0u);

  // The PR-3 layout compiled one private plan per worker: N x one_plan.
  constexpr int kWorkers = 4;
  std::size_t duplicated = 0;
  for (int i = 0; i < kWorkers; ++i) {
    InferenceEngine private_engine(mapped, tflite_profile());
    duplicated += private_engine.plan_resident_bytes();
  }
  EXPECT_EQ(duplicated, static_cast<std::size_t>(kWorkers) * one_plan);

  // The server shares ONE plan: the registry holds a single compile,
  // regardless of worker count...
  AsyncServer server(mapped, tflite_profile(), batch_one(kWorkers));
  EXPECT_EQ(server.registry().plan_resident_bytes(), one_plan);
  EXPECT_LT(server.registry().plan_resident_bytes(), duplicated);

  // ...and the shared plan still serves bit-identical logits.
  const auto requests = make_requests(12);
  InferenceEngine reference(mapped, tflite_profile());
  Tensor served;
  server.serve(requests, 1, 0.0, &served);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const Tensor expected = reference.run(requests[r]).logits;
    for (Index c = 0; c < expected.numel(); ++c) {
      EXPECT_EQ(served.at2(static_cast<Index>(r), c), expected[c]);
    }
  }
}


// A lone session request's output sweep spans enough catalog tiles to split:
// the worker that owns the batch lends the upper half to the parked worker.
// Every answer still carries the single-context run_batch ranking, ids and
// score bits; one worker never splits.
TEST_F(ServingTest, LoneSessionRequestsSplitTheirSweepAcrossTheParkedWorker) {
  ModelConfig config;
  config.embedding.kind = TechniqueKind::kMemcom;
  config.embedding.vocab = 200;
  config.embedding.embed_dim = 16;
  config.embedding.knob = 32;
  config.arch = ModelArch::kRanking;
  config.output_vocab =
      ExecutionContext::kMinSplitTiles * ExecutionContext::kDenseTile + 13;
  config.seed = 4322;
  const std::string path = temp_path("split");
  RecModel(config).export_mcm(path, DType::kI4G);
  const MmapModel mapped(path);
  ExecutionContext reference(std::make_shared<const CompiledModel>(mapped),
                             tflite_profile());
  constexpr Index kTopK = 10;
  for (const int threads : {2, 1}) {
    AsyncServerConfig server_config;
    server_config.threads = threads;
    AsyncServer server(mapped, tflite_profile(), server_config);
    std::map<std::uint64_t, std::vector<std::int32_t>> sessions;
    std::uint64_t split_batches = 0;
    // 24 requests, and with two workers on until one split (a loaded host
    // can wake the parked worker too late for a while).
    for (int i = 0; i < 24 || (threads > 1 && split_batches == 0 && i < 2048);
         ++i) {
      const std::uint64_t session = static_cast<std::uint64_t>(i % 4);
      const auto item = static_cast<std::int32_t>(1 + (i * 37) % 199);
      sessions[session].push_back(item);
      // One request at a time: the other worker is parked when it lands.
      std::vector<std::vector<Index>> drained;
      const ServingReport report = server.serve_sessions(
          {SessionEvent{session, item}}, kTopK, &drained);
      split_batches += report.split_batches;
      std::vector<std::vector<ScoredId>> want;
      reference.run_batch({sessions[session]}, kTopK, &want);
      ASSERT_EQ(drained[0].size(), want[0].size()) << "request " << i;
      for (std::size_t j = 0; j < want[0].size(); ++j) {
        EXPECT_EQ(drained[0][j], want[0][j].id) << "request " << i;
      }
      // The same interaction again, answered through a future with its
      // scores: the history grows by the same item on both sides.
      sessions[session].push_back(item);
      reference.run_batch({sessions[session]}, kTopK, &want);
      const AsyncResult got =
          server.submit_next_item(AsyncServer::kDefaultModelId, session, item,
                                  kTopK)
              .get();
      ASSERT_EQ(got.top_ids.size(), want[0].size()) << "request " << i;
      for (std::size_t j = 0; j < want[0].size(); ++j) {
        EXPECT_EQ(got.top_ids[j], want[0][j].id) << "request " << i;
        EXPECT_EQ(std::memcmp(&got.top_scores[j], &want[0][j].score,
                              sizeof(float)),
                  0)
            << "request " << i;
      }
    }
    EXPECT_EQ(split_batches > 0, threads > 1) << threads << " workers";
    EXPECT_LE(split_batches, server.split_count());
    if (threads == 1) {
      EXPECT_EQ(server.split_count(), 0u);
    }
  }
}

// --- LatencyHistogram ------------------------------------------------------

TEST(LatencyHistogramTest, BucketBoundaryGoldens) {
  using H = LatencyHistogram;
  const double unit = std::ldexp(1.0, -15);  // ms
  EXPECT_EQ(H::kBuckets, 1024u);
  EXPECT_EQ(H::bucket_of(0.0), 0u);
  EXPECT_EQ(H::bucket_of(-0.0), 0u);
  EXPECT_EQ(H::bucket_of(-1.0), 0u);
  EXPECT_EQ(H::bucket_of(std::nan("")), 0u);
  // One bucket per unit below 64 units.
  EXPECT_EQ(H::bucket_of(0.5 * unit), 0u);
  EXPECT_EQ(H::bucket_of(unit), 1u);
  EXPECT_EQ(H::bucket_of(63 * unit), 63u);
  // From 64 units, 32 buckets per power of two: [64, 66) units is one.
  EXPECT_EQ(H::bucket_of(64 * unit), 64u);
  EXPECT_EQ(H::bucket_of(65.9 * unit), 64u);
  EXPECT_EQ(H::bucket_of(66 * unit), 65u);
  EXPECT_EQ(H::bucket_of(127.9 * unit), 95u);
  EXPECT_EQ(H::bucket_of(128 * unit), 96u);
  // 1 ms = 2^15 units opens bucket 64 + (15 - 6) * 32; the next one starts
  // 1/32 higher.
  EXPECT_EQ(H::bucket_of(1.0), 352u);
  EXPECT_EQ(H::lower_ms(352), 1.0);
  EXPECT_EQ(H::bucket_of(std::nextafter(1.0 + 1.0 / 32, 0.0)), 352u);
  EXPECT_EQ(H::bucket_of(1.0 + 1.0 / 32), 353u);
  EXPECT_EQ(H::lower_ms(353), 1.0 + 1.0 / 32);
  // 2^21 ms and above share the last bucket with [2^21 - 2^15, 2^21) ms.
  const double last = std::ldexp(1.0, 21) - std::ldexp(1.0, 15);
  EXPECT_EQ(H::lower_ms(1023), last);
  EXPECT_EQ(H::bucket_of(std::nextafter(last, 0.0)), 1022u);
  EXPECT_EQ(H::bucket_of(last), 1023u);
  EXPECT_EQ(H::bucket_of(std::ldexp(1.0, 21)), 1023u);
  EXPECT_EQ(H::bucket_of(1e300), 1023u);
  EXPECT_EQ(H::bucket_of(INFINITY), 1023u);
  // Every bucket's lower bound lands in it, and from 32 units (2^-10 ms)
  // up no bucket is wider than 1/32 of its lower bound.
  for (std::size_t b = 0; b + 1 < H::kBuckets; ++b) {
    EXPECT_EQ(H::bucket_of(H::lower_ms(b)), b) << b;
    EXPECT_LT(H::lower_ms(b), H::lower_ms(b + 1)) << b;
    if (b >= 32) {
      EXPECT_LE(H::lower_ms(b + 1) - H::lower_ms(b), H::lower_ms(b) / 32)
          << b;
    }
  }
}

// Each column within 1/32 of the exact nearest-rank statistics; runs, min
// and max exact.
void expect_close_to_exact(const std::vector<double>& samples,
                           const std::string& tag) {
  LatencyHistogram h;
  for (const double s : samples) {
    h.record(s);
  }
  const LatencyStats got = h.stats();
  const LatencyStats want = latency_stats_from_samples(samples);
  EXPECT_EQ(got.runs, want.runs) << tag;
  EXPECT_EQ(h.count(), samples.size()) << tag;
  EXPECT_EQ(got.min_ms, want.min_ms) << tag;
  EXPECT_EQ(got.max_ms, want.max_ms) << tag;
  EXPECT_NEAR(got.mean_ms, want.mean_ms, want.mean_ms * 1e-12) << tag;
  const double pairs[][2] = {{got.p50_ms, want.p50_ms},
                             {got.p95_ms, want.p95_ms},
                             {got.p99_ms, want.p99_ms}};
  for (const auto& p : pairs) {
    EXPECT_NEAR(p[0], p[1], p[1] / 32) << tag;
  }
}

TEST(LatencyHistogramTest, QuantilesWithinOneThirtySecondOfExactStats) {
  Rng rng(2401);
  std::vector<double> random;
  for (int i = 0; i < 10007; ++i) {
    // Log-uniform over 1 µs .. 1 s.
    random.push_back(std::pow(10.0, rng.uniform(-3.0f, 3.0f)));
  }
  expect_close_to_exact(random, "random");
  expect_close_to_exact(std::vector<double>(101, 3.7), "all-equal");
  expect_close_to_exact(std::vector<double>(50, 0.0), "zero");
  expect_close_to_exact(std::vector<double>(20, 1e6), "1e6 ms");
  std::vector<double> mixed(40, 0.0);
  mixed.insert(mixed.end(), 60, 1e6);
  expect_close_to_exact(mixed, "zero and 1e6 ms");
  EXPECT_EQ(LatencyHistogram{}.stats().runs, 0);
  EXPECT_EQ(LatencyHistogram{}.stats().p99_ms, 0.0);
}

TEST(LatencyHistogramTest, MergeEqualsOneHistogramOverTheUnion) {
  Rng rng(2402);
  LatencyHistogram parts[3];
  LatencyHistogram whole;
  for (int i = 0; i < 3000; ++i) {
    const double ms = std::pow(10.0, rng.uniform(-2.0f, 2.0f)) * (1 + i % 3);
    parts[i % 3].record(ms);
    whole.record(ms);
  }
  LatencyHistogram merged;
  merged.merge(LatencyHistogram{});  // an empty part changes nothing
  for (const LatencyHistogram& part : parts) {
    merged.merge(part);
  }
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  EXPECT_NEAR(merged.sum(), whole.sum(), whole.sum() * 1e-12);
  for (int p = 0; p <= 100; ++p) {
    EXPECT_EQ(merged.percentile(p), whole.percentile(p)) << p;
  }
  merged.clear();
  EXPECT_EQ(merged.count(), 0u);
  EXPECT_EQ(merged.percentile(50), 0.0);
}

}  // namespace
}  // namespace memcom
