// On-device engine tests: parity with the training stack's inference,
// lookup vs one-hot memory behaviour, device profiles, quantized execution.
#include "ondevice/engine.h"

#include <gtest/gtest.h>

#include "test_util.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>

#include "data/synthetic.h"
#include "ondevice/kernels.h"
#include "repro/model.h"

namespace memcom {
namespace {

using test::ScopedEnv;

class EngineTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& tag) {
    auto p = std::filesystem::temp_directory_path() /
             ("memcom_engine_" + tag + ".mcm");
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

std::vector<std::int32_t> sample_history() {
  return {5, 17, 42, 100, 7, 0, 0, 0};  // padded tail
}

// The engine must produce the same logits as the training-stack forward in
// inference mode, for every lookup technique and both architectures.
struct ParityCase {
  TechniqueKind kind;
  ModelArch arch;
};

class EngineParity : public EngineTest,
                     public ::testing::WithParamInterface<ParityCase> {};

TEST_P(EngineParity, LogitsMatchTrainingStack) {
  const ParityCase param = GetParam();
  ModelConfig config = small_config(param.kind, param.arch);
  RecModel model(config);

  // Run one training batch so batchnorm has non-trivial running stats.
  Rng rng(7);
  IdBatch warm(8, 8);
  for (Index i = 0; i < warm.size(); ++i) {
    warm.ids[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>(rng.uniform_index(120));
  }
  model.forward(warm, /*training=*/true);

  const std::string path =
      temp_path(technique_name(param.kind) +
                (param.arch == ModelArch::kClassification ? "_cls" : "_rank"));
  model.export_mcm(path);

  const std::vector<std::int32_t> history = sample_history();
  IdBatch input(1, static_cast<Index>(history.size()));
  input.ids = history;
  const Tensor expected = model.forward(input, /*training=*/false);

  const MmapModel mapped(path);
  InferenceEngine engine(mapped, coreml_profile("cpuOnly"));
  const InferenceResult result = engine.run(history);
  ASSERT_EQ(result.logits.numel(), 40);
  for (Index c = 0; c < 40; ++c) {
    EXPECT_NEAR(result.logits[c], expected.at2(0, c), 5e-4f)
        << technique_name(param.kind) << " logit " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TechniquesAndArchs, EngineParity,
    ::testing::Values(
        ParityCase{TechniqueKind::kFull, ModelArch::kClassification},
        ParityCase{TechniqueKind::kFull, ModelArch::kRanking},
        ParityCase{TechniqueKind::kMemcom, ModelArch::kClassification},
        ParityCase{TechniqueKind::kMemcom, ModelArch::kRanking},
        ParityCase{TechniqueKind::kMemcomBias, ModelArch::kRanking},
        ParityCase{TechniqueKind::kQrMult, ModelArch::kRanking},
        ParityCase{TechniqueKind::kQrConcat, ModelArch::kRanking},
        ParityCase{TechniqueKind::kNaiveHash, ModelArch::kClassification},
        ParityCase{TechniqueKind::kDoubleHash, ModelArch::kRanking},
        ParityCase{TechniqueKind::kFactorized, ModelArch::kRanking},
        ParityCase{TechniqueKind::kReduceDim, ModelArch::kClassification},
        ParityCase{TechniqueKind::kTruncateRare, ModelArch::kRanking}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return technique_name(info.param.kind) +
             std::string(info.param.arch == ModelArch::kClassification
                             ? "_cls"
                             : "_rank");
    });

TEST_F(EngineTest, WeinbergerOneHotMatchesLookupMath) {
  // The one-hot compute path must produce the same pooled embedding (and
  // logits) as the sign-lookup formulation.
  ModelConfig config = small_config(TechniqueKind::kWeinberger,
                                    ModelArch::kRanking);
  RecModel model(config);
  const std::string path = temp_path("weinberger");
  model.export_mcm(path);

  const std::vector<std::int32_t> history = sample_history();
  IdBatch input(1, static_cast<Index>(history.size()));
  input.ids = history;
  const Tensor expected = model.forward(input, /*training=*/false);

  const MmapModel mapped(path);
  InferenceEngine engine(mapped, coreml_profile("all"));
  EXPECT_TRUE(engine.uses_onehot_path());
  const InferenceResult result = engine.run(history);
  for (Index c = 0; c < 40; ++c) {
    EXPECT_NEAR(result.logits[c], expected.at2(0, c), 5e-4f);
  }
}

TEST_F(EngineTest, MemcomTouchesFarFewerPagesThanWeinberger) {
  // The Table 3 memory mechanism, end to end.
  const auto build = [&](TechniqueKind kind, const std::string& tag) {
    ModelConfig config = small_config(kind, ModelArch::kRanking);
    config.embedding.vocab = 4000;
    config.embedding.embed_dim = 64;
    config.embedding.knob = 1000;
    RecModel model(config);
    const std::string path = temp_path(tag);
    model.export_mcm(path);
    return path;
  };
  const std::string memcom_path = build(TechniqueKind::kMemcom, "m_pages");
  const std::string wein_path = build(TechniqueKind::kWeinberger, "w_pages");

  const std::vector<std::int32_t> history = sample_history();
  const MmapModel memcom_model(memcom_path);
  InferenceEngine memcom_engine(memcom_model, tflite_profile());
  memcom_engine.run(history);

  const MmapModel wein_model(wein_path);
  InferenceEngine wein_engine(wein_model, tflite_profile());
  wein_engine.run(history);

  // Weinberger streams the whole 1000 x 64 x 4B table; memcom touches only
  // the history's rows (plus trunk weights, identical for both).
  EXPECT_LT(memcom_engine.meter().weight_resident_bytes(),
            wein_engine.meter().weight_resident_bytes());
  EXPECT_GT(static_cast<double>(wein_engine.meter().weight_resident_bytes()) /
                memcom_engine.meter().weight_resident_bytes(),
            1.15);
}

TEST_F(EngineTest, RepeatRunsDoNotGrowResidency) {
  ModelConfig config = small_config(TechniqueKind::kMemcom,
                                    ModelArch::kRanking);
  RecModel model(config);
  const std::string path = temp_path("repeat");
  model.export_mcm(path);
  const MmapModel mapped(path);
  InferenceEngine engine(mapped, coreml_profile("all"));
  const std::vector<std::int32_t> history = sample_history();
  engine.run(history);
  const Index after_one = engine.meter().weight_resident_bytes();
  engine.run(history);
  engine.run(history);
  EXPECT_EQ(engine.meter().weight_resident_bytes(), after_one);
}

// One memcom model at the movielens Table-3 dims (vocab 10000, e 64, 500
// outputs) exported as i8 and as i4g: the meter counts the pages each
// forward touches, so with sub-byte span accounting the 4-bit groupwise
// file (nibbles + per-group f32 scales) must stay below int8 for the same
// history.
TEST_F(EngineTest, GroupwiseInt4ResidesBelowInt8) {
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, 10000, 64, 10000 / 16};
  config.arch = ModelArch::kClassification;
  config.output_vocab = 500;
  config.seed = 99;
  RecModel model(config);
  Rng rng(13);
  std::vector<std::int32_t> history(32);
  for (auto& id : history) {
    id = static_cast<std::int32_t>(1 + rng.uniform_index(10000 - 1));
  }
  const auto resident = [&](DType dtype, Index group_size,
                            const std::string& tag) {
    const std::string path = temp_path(tag);
    model.export_mcm(path, dtype, /*model_name=*/"", /*model_version=*/1,
                     group_size);
    const MmapModel mapped(path);
    InferenceEngine engine(mapped, tflite_profile());
    engine.run(history);
    return engine.meter().weight_resident_bytes();
  };
  const Index i8 = resident(DType::kI8, 0, "resident_i8");
  const Index i4g = resident(DType::kI4G, kI4GroupDefault, "resident_i4g");
  EXPECT_GT(i4g, 0);
  EXPECT_LT(i4g, i8);
}

TEST_F(EngineTest, QuantizedModelsStayAccurate) {
  ModelConfig config = small_config(TechniqueKind::kMemcom,
                                    ModelArch::kRanking);
  RecModel model(config);
  const std::vector<std::int32_t> history = sample_history();
  IdBatch input(1, static_cast<Index>(history.size()));
  input.ids = history;
  const Tensor expected = model.forward(input, false);

  const std::string p16 = temp_path("q16");
  model.export_mcm(p16, DType::kF16);
  const MmapModel m16(p16);
  InferenceEngine e16(m16, coreml_profile("all"));
  const Tensor l16 = e16.run(history).logits;
  for (Index c = 0; c < 40; ++c) {
    EXPECT_NEAR(l16[c], expected.at2(0, c), 0.02f);
  }

  const std::string p8 = temp_path("q8");
  model.export_mcm(p8, DType::kI8);
  const MmapModel m8(p8);
  InferenceEngine e8(m8, coreml_profile("all"));
  const Tensor l8 = e8.run(history).logits;
  // int8 logits drift but the argmax ordering of the top item should
  // usually survive; assert bounded absolute drift.
  for (Index c = 0; c < 40; ++c) {
    EXPECT_NEAR(l8[c], expected.at2(0, c), 0.6f);
  }
}

TEST_F(EngineTest, QuantizationShrinksFile) {
  ModelConfig config = small_config(TechniqueKind::kFull, ModelArch::kRanking);
  RecModel model(config);
  const std::string p32 = temp_path("s32");
  const std::string p8 = temp_path("s8");
  model.export_mcm(p32, DType::kF32);
  model.export_mcm(p8, DType::kI8);
  const MmapModel m32(p32);
  const MmapModel m8(p8);
  EXPECT_GT(m32.file_size(), 3 * m8.file_size() / 2);
}

TEST_F(EngineTest, BenchmarkStatsAreConsistent) {
  ModelConfig config = small_config(TechniqueKind::kMemcom,
                                    ModelArch::kRanking);
  RecModel model(config);
  const std::string path = temp_path("bench");
  model.export_mcm(path);
  const MmapModel mapped(path);
  InferenceEngine engine(mapped, tflite_profile());
  const LatencyStats stats = engine.benchmark(sample_history(), 10);
  EXPECT_EQ(stats.runs, 10);
  EXPECT_GT(stats.mean_ms, 0.0);
  EXPECT_LE(stats.min_ms, stats.mean_ms);
  EXPECT_GE(stats.max_ms, stats.mean_ms);
}

TEST(LatencyStats, NearestRankPercentileIsExact) {
  // 20 samples 1..20: p95 must be the 19th sample. The old float rank math
  // computed ceil(0.95 * 20) over 19.000000000000004 -> 20 and silently
  // returned the max. (p99 of 100 samples was coincidentally fine.)
  std::vector<double> samples;
  for (int i = 1; i <= 20; ++i) {
    samples.push_back(static_cast<double>(i));
  }
  const LatencyStats stats = latency_stats_from_samples(std::move(samples));
  EXPECT_EQ(stats.runs, 20);
  EXPECT_DOUBLE_EQ(stats.p50_ms, 10.0);
  EXPECT_DOUBLE_EQ(stats.p95_ms, 19.0);
  EXPECT_DOUBLE_EQ(stats.p99_ms, 20.0);
  EXPECT_DOUBLE_EQ(stats.max_ms, 20.0);
}

TEST(LatencyStats, TinyAndEmptySampleSets) {
  // Empty: all-zero, runs 0 (the session report path hits this whenever a
  // drain carried no session traffic).
  const LatencyStats empty = latency_stats_from_samples({});
  EXPECT_EQ(empty.runs, 0);
  EXPECT_DOUBLE_EQ(empty.p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(empty.p95_ms, 0.0);
  EXPECT_DOUBLE_EQ(empty.p99_ms, 0.0);

  // n = 1: every percentile is the single sample.
  const LatencyStats one = latency_stats_from_samples({7.5});
  EXPECT_DOUBLE_EQ(one.p50_ms, 7.5);
  EXPECT_DOUBLE_EQ(one.p95_ms, 7.5);
  EXPECT_DOUBLE_EQ(one.p99_ms, 7.5);

  // n = 2 (n < 1/(1-p) for p95/p99): nearest-rank gives the max, p50 the
  // first sample — never an out-of-range index.
  const LatencyStats two = latency_stats_from_samples({3.0, 9.0});
  EXPECT_DOUBLE_EQ(two.p50_ms, 3.0);
  EXPECT_DOUBLE_EQ(two.p95_ms, 9.0);
  EXPECT_DOUBLE_EQ(two.p99_ms, 9.0);

  // Exact-boundary n for p50: 10 samples -> rank 5 (the 5th), not the 6th.
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) {
    ten.push_back(static_cast<double>(i));
  }
  const LatencyStats stats10 = latency_stats_from_samples(std::move(ten));
  EXPECT_DOUBLE_EQ(stats10.p50_ms, 5.0);
  EXPECT_DOUBLE_EQ(stats10.p95_ms, 10.0);
}

TEST_F(EngineTest, DeviceProfilesExposeTable3Columns) {
  const auto profiles = table3_profiles();
  ASSERT_EQ(profiles.size(), 4u);
  EXPECT_EQ(profiles[0].label(), "coreml/all");
  EXPECT_EQ(profiles[1].label(), "coreml/cpuOnly");
  EXPECT_EQ(profiles[2].label(), "coreml/cpuAndGPU");
  EXPECT_EQ(profiles[3].label(), "tflite/CPU");
  EXPECT_GT(tflite_profile().onehot_slowdown, 1.0);
  EXPECT_THROW(coreml_profile("gpuOnly"), std::runtime_error);
}

TEST_F(EngineTest, PaddedHistoryIgnoredInPooling) {
  ModelConfig config = small_config(TechniqueKind::kMemcom,
                                    ModelArch::kRanking);
  RecModel model(config);
  const std::string path = temp_path("pad");
  model.export_mcm(path);
  const MmapModel mapped(path);
  InferenceEngine engine(mapped, coreml_profile("all"));
  // Same real ids, different padding amounts -> identical logits.
  const Tensor a = engine.run({5, 9, 0, 0}).logits;
  const Tensor b = engine.run({5, 9, 0, 0, 0, 0, 0, 0}).logits;
  EXPECT_TENSOR_NEAR(a, b, 1e-5f);
}

// --- batch-shared output sweep vs an independent oracle --------------------

bool same_bits(const float* a, const float* b, Index n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

// Same ids in the same order, and the same score bits.
bool same_ranking(const std::vector<ScoredId>& a,
                  const std::vector<ScoredId>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || !same_bits(&a[i].score, &b[i].score, 1)) {
      return false;
    }
  }
  return true;
}

// A ranking model whose trunk the test can compute exactly: a one-item
// history pools to that item's embedding row, and bn1 folds to scale +1 on
// even features and -1 on odd ones, with shift -0 on both. So the trunk is
// relu(row) on even features and -relu(row) on odd ones, and every ReLU
// zero becomes an exact +0 (even) or -0 (odd) entry. Rows of ids ≡ 1 (mod
// 4) are positive, so their trunk has no zero and every whole k block takes
// axpy_block; ids ≡ 3 (mod 8) are positive but for one feature in the first
// block (+0 or -0), so that block takes the per-k path; the rest keep
// random signs, a zero in most blocks. The output catalog is 2 tiles + 13
// columns wide (ragged last tile) and carries a catalog index so a row can
// take the pruned path.
struct SweepModel {
  Index in = 0;
  Index out = 0;
  Tensor table;   // emb.table [vocab, in]
  Tensor weight;  // out.weight as stored, dequantized [in, out]
  Tensor bias;    // out.bias [out]
  std::vector<float> scale;  // folded bn1
  std::vector<float> shift;
};

constexpr Index kSweepVocab = 16;
constexpr Index kSweepClusters = 6;

SweepModel write_sweep_model(const std::string& path, Index in, DType dtype,
                             Rng& rng) {
  SweepModel m;
  m.in = in;
  m.out = 2 * ExecutionContext::kDenseTile + 13;
  m.table = Tensor::randn({kSweepVocab, in}, rng, 1.0f);
  for (Index id = 0; id < kSweepVocab; ++id) {
    if (id % 4 == 1 || id % 8 == 3) {
      for (Index s = 0; s < in; ++s) {
        m.table.at2(id, s) = std::fabs(m.table.at2(id, s)) + 0.125f;
      }
    }
    if (id % 8 == 3) {
      m.table.at2(id, 2 + (id / 8) % 2) = -1.0f;  // id 3: +0, id 11: -0
    }
  }
  const Tensor weight = Tensor::randn({in, m.out}, rng, 0.2f);
  m.bias = Tensor::randn({m.out}, rng, 0.1f);
  const float unit = std::sqrt(1.0f + 1e-5f);
  Tensor gamma({in});
  Tensor beta({in});
  Tensor mean({in});
  Tensor var({in});
  for (Index s = 0; s < in; ++s) {
    const bool odd = (s & 1) != 0;
    gamma[s] = odd ? -unit : unit;
    beta[s] = -0.0f;
    mean[s] = odd ? -0.0f : 0.0f;
    var[s] = 1.0f;
    // The plan's fold, so the test's trunk matches it bit for bit.
    m.scale.push_back(gamma[s] / std::sqrt(var[s] + 1e-5f));
    m.shift.push_back(beta[s] - mean[s] * m.scale.back());
  }
  ModelWriter writer(path);
  writer.set_metadata("arch", "ranking");
  writer.set_metadata("technique", "uncompressed");
  writer.set_metadata_int("vocab", kSweepVocab);
  writer.set_metadata_int("embed_dim", in);
  writer.set_metadata_int("knob", 0);
  writer.set_metadata_int("output_dim", m.out);
  writer.add_tensor("emb.table", m.table);
  writer.add_tensor("bn1.gamma", gamma);
  writer.add_tensor("bn1.beta", beta);
  writer.add_tensor("bn1.mean", mean);
  writer.add_tensor("bn1.var", var);
  writer.add_tensor("out.weight", weight, dtype);
  writer.add_tensor("out.bias", m.bias);
  writer.set_emit_catalog_index(true, kSweepClusters);
  writer.finish();
  m.weight = MmapModel(path).load_tensor("out.weight");
  return m;
}

std::vector<float> sweep_trunk(const SweepModel& m, std::int32_t id) {
  std::vector<float> x(static_cast<std::size_t>(m.in));
  for (Index s = 0; s < m.in; ++s) {
    const float pooled = (0.0f + m.table.at2(id, s)) * 1.0f;
    x[static_cast<std::size_t>(s)] =
        std::max(pooled, 0.0f) * m.scale[static_cast<std::size_t>(s)] +
        m.shift[static_cast<std::size_t>(s)];
  }
  return x;
}

// The plain triple loop: zero-init, increasing k, skip x == 0 on quantized
// weights, then + bias. Every mul and add rounds on its own (the modules
// build with -ffp-contract=off and this suite inherits it).
std::vector<float> sweep_oracle(const SweepModel& m, const std::vector<float>& x,
                                bool quantized) {
  std::vector<float> y(static_cast<std::size_t>(m.out));
  for (Index j = 0; j < m.out; ++j) {
    float acc = 0.0f;
    for (Index k = 0; k < m.in; ++k) {
      const float xv = x[static_cast<std::size_t>(k)];
      if (quantized && xv == 0.0f) {
        continue;
      }
      acc = acc + xv * m.weight.at2(k, j);
    }
    y[static_cast<std::size_t>(j)] = acc + m.bias[j];
  }
  return y;
}

constexpr DType kSweepDtypes[] = {DType::kF32, DType::kF16, DType::kI8,
                                  DType::kI4, DType::kI4G};

TEST_F(EngineTest, BatchedOutputSweepMatchesOracleBitForBit) {
  constexpr Index kTopK = 10;
  Rng rng(1907);
  // 29 leaves in % kBlock = 5 weight rows to the per-k step.
  for (const Index in : {Index{24}, Index{29}, Index{64}}) {
    for (const DType dtype : kSweepDtypes) {
      const std::string tag =
          std::string(dtype_name(dtype)) + "_" + std::to_string(in);
      const std::string path = temp_path("sweep_" + tag);
      const SweepModel m = write_sweep_model(path, in, dtype, rng);
      const bool quantized = dtype != DType::kF32;
      std::vector<std::vector<float>> oracle;
      bool pos_zero = false;
      bool neg_zero = false;
      for (std::int32_t id = 0; id < kSweepVocab; ++id) {
        const std::vector<float> x = sweep_trunk(m, id);
        for (const float v : x) {
          pos_zero = pos_zero || (v == 0.0f && !std::signbit(v));
          neg_zero = neg_zero || (v == 0.0f && std::signbit(v));
        }
        oracle.push_back(sweep_oracle(m, x, quantized));
      }
      ASSERT_TRUE(pos_zero && neg_zero) << tag << ": trunk lacks ±0 entries";
      const auto mapped = std::make_shared<const MmapModel>(path);
      for (const char* family : {"scalar", "dispatch", "fma"}) {
        ScopedEnv simd("MEMCOM_DISABLE_SIMD",
                       std::string(family) == "scalar" ? "1" : nullptr);
        ScopedEnv fma("MEMCOM_ENABLE_FMA",
                      std::string(family) == "fma" ? "1" : nullptr);
        auto compiled = std::make_shared<const CompiledModel>(mapped);
        const bool fused =
            std::string(compiled->kernels().name) == "avx2+fma";
        if (std::string(family) == "fma" && !fused) {
          continue;  // no FMA hardware dispatched
        }
        ASSERT_TRUE(compiled->has_catalog_index())
            << compiled->index_fallback_reason();
        ExecutionContext context(compiled, tflite_profile());
        const std::string where = tag + "/" + compiled->kernels().name;
        for (const Index batch : {Index{1}, Index{3}, Index{8}}) {
          std::vector<std::vector<std::int32_t>> histories;
          std::vector<Index> nprobes;
          for (Index b = 0; b < batch; ++b) {
            // Ids 1, 3, 5, ...: at B = 8 the exact rows mix zero-free
            // trunks (1, 5, 9, 13), one with a single ±0 (11) and random
            // ones (7, 15).
            histories.push_back({static_cast<std::int32_t>(1 + 2 * b)});
            // Row 1 takes the pruned path (full probe: it must still rank
            // exactly); every other row rides the shared sweep.
            nprobes.push_back(b == 1 ? kSweepClusters : 0);
          }
          // Ranked at k = out, a row's list carries every logit: the exact
          // rows rank them tile by tile, the full-probe row gathers them.
          std::vector<std::vector<ScoredId>> full;
          const BatchResult ranked =
              context.run_batch(histories, m.out, &full, &nprobes);
          EXPECT_EQ(ranked.logits.numel(), 0) << where;
          // At kTopK the heap's filter skips most scores.
          std::vector<std::vector<ScoredId>> topk;
          context.run_batch(histories, kTopK, &topk, &nprobes);
          const BatchResult plain = context.run_batch(histories);
          for (Index b = 0; b < batch; ++b) {
            const std::string row =
                where + " B=" + std::to_string(batch) + " row " +
                std::to_string(b);
            const InferenceView view =
                context.run_view(histories[static_cast<std::size_t>(b)]);
            // The fused family rounds each MAC once, so it answers to its
            // own run_view; the others answer to the mul-then-add oracle.
            const std::vector<float> want =
                fused ? std::vector<float>(view.logits, view.logits + m.out)
                      : oracle[static_cast<std::size_t>(histories[b][0])];
            EXPECT_TRUE(same_bits(view.logits, want.data(), m.out)) << row;
            EXPECT_TRUE(same_bits(plain.logits.data() + b * m.out, want.data(), m.out))
                << row;
            const std::vector<ScoredId> expect =
                topk_full_sort(want.data(), m.out, m.out);
            EXPECT_TRUE(same_ranking(full[static_cast<std::size_t>(b)], expect))
                << row;
            const std::vector<ScoredId> prefix(expect.begin(),
                                               expect.begin() + kTopK);
            EXPECT_TRUE(same_ranking(topk[static_cast<std::size_t>(b)], prefix))
                << row;
          }
        }
      }
    }
  }
}

// The opt-in fused family trades bit-identity with scalar for a documented
// tolerance, but the shared sweep must not change ITS results either: the
// same axpy per element, so batched rows equal per-row run_view exactly.
TEST_F(EngineTest, BatchedOutputSweepMatchesPerRowUnderFusedAxpy) {
  ScopedEnv simd("MEMCOM_DISABLE_SIMD", nullptr);
  ScopedEnv fma("MEMCOM_ENABLE_FMA", "1");
  if (std::string(select_kernels().name) != "avx2+fma") {
    GTEST_SKIP() << "no FMA hardware dispatched (" << select_kernels().name
                 << ")";
  }
  Rng rng(1908);
  // 29 leaves in % kBlock = 5 weight rows to the per-k step.
  for (const Index in : {Index{24}, Index{29}, Index{64}}) {
    for (const DType dtype : kSweepDtypes) {
      const std::string tag =
          std::string(dtype_name(dtype)) + "_" + std::to_string(in);
      const std::string path = temp_path("sweep_fma_" + tag);
      const SweepModel m = write_sweep_model(path, in, dtype, rng);
      auto compiled = std::make_shared<const CompiledModel>(
          std::make_shared<const MmapModel>(path));
      ASSERT_STREQ(compiled->kernels().name, "avx2+fma");
      ExecutionContext context(compiled, tflite_profile());
      std::vector<std::vector<std::int32_t>> histories;
      for (std::int32_t id = 1; id <= 8; ++id) {
        histories.push_back({id});
      }
      const BatchResult batched = context.run_batch(histories);
      for (Index b = 0; b < batched.batch; ++b) {
        const InferenceView view =
            context.run_view(histories[static_cast<std::size_t>(b)]);
        EXPECT_TRUE(same_bits(batched.logits.data() + b * m.out, view.logits, m.out))
            << tag << " row " << b;
      }
    }
  }
}

// Pruned rows gather their probed columns off the batch's shared sweep. A
// partial probe must give the same bits whatever shares the sweep: alone
// (a gather-only sweep), next to exact rows, or next to other pruned rows.
// Every probed logit equals the exact row's logit and the ranking is the
// probed columns' own top-k — under scalar, dispatch, and (when present)
// the fused family, whose gathers must fuse like its axpy.
TEST_F(EngineTest, PrunedRowsGatherTheSameBitsInAnyBatch) {
  constexpr Index kTopK = 10;
  constexpr Index kProbe = 2;
  Rng rng(1909);
  for (const DType dtype : kSweepDtypes) {
    const std::string tag = dtype_name(dtype);
    const std::string path = temp_path("gather_" + tag);
    const SweepModel m = write_sweep_model(path, 64, dtype, rng);
    const auto mapped = std::make_shared<const MmapModel>(path);
    for (const char* family : {"scalar", "dispatch", "fma"}) {
      ScopedEnv simd("MEMCOM_DISABLE_SIMD",
                     std::string(family) == "scalar" ? "1" : nullptr);
      ScopedEnv fma("MEMCOM_ENABLE_FMA",
                    std::string(family) == "fma" ? "1" : nullptr);
      auto compiled = std::make_shared<const CompiledModel>(mapped);
      if (std::string(family) == "fma" &&
          std::string(compiled->kernels().name) != "avx2+fma") {
        continue;  // no FMA hardware dispatched
      }
      ASSERT_TRUE(compiled->has_catalog_index());
      ExecutionContext context(compiled, tflite_profile());
      const Index out = compiled->output_dim();
      const std::string where = tag + "/" + compiled->kernels().name;
      // Rows 0, 3 and 5 are pruned; the rest rank exactly.
      std::vector<std::vector<std::int32_t>> mixed;
      std::vector<Index> nprobes;
      for (std::int32_t id = 1; id <= 8; ++id) {
        mixed.push_back({id});
        nprobes.push_back(id == 1 || id == 4 || id == 6 ? kProbe : 0);
      }
      // Ranked at k = out, a pruned row's list carries exactly its probed
      // columns; at kTopK it keeps that list's prefix.
      std::vector<std::vector<ScoredId>> mixed_all;
      context.run_batch(mixed, out, &mixed_all, &nprobes);
      std::vector<std::vector<ScoredId>> mixed_top;
      context.run_batch(mixed, kTopK, &mixed_top, &nprobes);
      std::vector<std::vector<std::int32_t>> pruned_only;
      for (std::size_t b = 0; b < mixed.size(); ++b) {
        if (nprobes[b] > 0) {
          pruned_only.push_back(mixed[b]);
        }
      }
      std::vector<std::vector<ScoredId>> together_all;
      const std::vector<Index> all_pruned(pruned_only.size(), kProbe);
      context.run_batch(pruned_only, out, &together_all, &all_pruned);
      std::size_t p = 0;
      for (std::size_t b = 0; b < mixed.size(); ++b) {
        const auto& history = mixed[b];
        if (nprobes[b] == 0) {
          continue;
        }
        const std::string row = where + " row " + std::to_string(b);
        std::vector<std::vector<ScoredId>> alone_all;
        const std::vector<Index> one{kProbe};
        context.run_batch({history}, out, &alone_all, &one);
        const std::vector<ScoredId>& got = mixed_all[b];
        EXPECT_TRUE(same_ranking(got, alone_all[0])) << row;
        EXPECT_TRUE(same_ranking(got, together_all[p])) << row;
        EXPECT_GT(got.size(), 0u) << row;
        EXPECT_LT(got.size(), static_cast<std::size_t>(out)) << row;
        EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), topk_better)) << row;
        // Each probed column carries the exact row's logit bits: run_view's
        // under every family, and the oracle's unless the MAC is fused.
        const InferenceView view = context.run_view(history);
        const bool fused =
            std::string(compiled->kernels().name) == "avx2+fma";
        const std::vector<float> oracle = sweep_oracle(
            m, sweep_trunk(m, history[0]), dtype != DType::kF32);
        for (const ScoredId& s : got) {
          EXPECT_TRUE(same_bits(&s.score, view.logits + s.id, 1))
              << row << " col " << s.id;
          if (!fused) {
            EXPECT_TRUE(same_bits(
                &s.score, &oracle[static_cast<std::size_t>(s.id)], 1))
                << row << " col " << s.id;
          }
        }
        const std::size_t kept =
            std::min(got.size(), static_cast<std::size_t>(kTopK));
        const std::vector<ScoredId> prefix(got.begin(), got.begin() + kept);
        EXPECT_TRUE(same_ranking(mixed_top[b], prefix)) << row;
        ++p;
      }
    }
  }
}


// A SweepHelper that splits every sweep at a fixed column. kThread hands
// the posted part to another thread, as a parked serving worker claims it;
// kUnclaimed never lets anyone claim it, so the owner takes it back and
// sweeps it itself.
class FixedSplit : public SweepHelper {
 public:
  enum class Mode { kThread, kUnclaimed };
  FixedSplit(Index column, Mode mode) : column_(column), mode_(mode) {}
  ~FixedSplit() override { join(); }
  Index split_column(Index) override { return column_; }
  bool post(SweepPart* part) override {
    join();
    ++posted;
    if (mode_ == Mode::kThread) {
      helper_ = std::thread([part] { part->run(); });
    }
    return true;
  }
  bool withdraw(SweepPart*) override { return mode_ == Mode::kUnclaimed; }
  void join() {
    if (helper_.joinable()) {
      helper_.join();
    }
  }
  int posted = 0;

 private:
  Index column_;
  Mode mode_;
  std::thread helper_;
};

// The output sweep split in two column ranges, at every tile boundary from
// 0 (the helper sweeps everything) to out (no split), scores every row
// exactly as the whole sweep does: plain logits, exact top-k and pruned
// gathers, with the part claimed by another thread or taken back.
TEST_F(EngineTest, SplitSweepMatchesTheWholeSweepAtEveryTileBoundary) {
  constexpr Index kTopK = 10;
  constexpr Index kTile = ExecutionContext::kDenseTile;
  Rng rng(1910);
  for (const DType dtype : {DType::kF32, DType::kI8, DType::kI4G}) {
    const std::string tag = dtype_name(dtype);
    const std::string path = temp_path("split_" + tag);
    const SweepModel m = write_sweep_model(path, 64, dtype, rng);
    ASSERT_GE(m.out, 2 * kTile + 1);  // >= 3 tiles, the last one ragged
    ASSERT_NE(m.out % kTile, 0);
    const auto mapped = std::make_shared<const MmapModel>(path);
    for (const char* family : {"scalar", "dispatch", "fma"}) {
      ScopedEnv simd("MEMCOM_DISABLE_SIMD",
                     std::string(family) == "scalar" ? "1" : nullptr);
      ScopedEnv fma("MEMCOM_ENABLE_FMA",
                    std::string(family) == "fma" ? "1" : nullptr);
      auto compiled = std::make_shared<const CompiledModel>(mapped);
      if (std::string(family) == "fma" && !compiled->kernels().fused) {
        continue;  // no FMA hardware dispatched
      }
      ASSERT_TRUE(compiled->has_catalog_index());
      ExecutionContext context(compiled, tflite_profile());
      std::vector<Index> splits;
      for (Index column = 0; column < m.out; column += kTile) {
        splits.push_back(column);
      }
      splits.push_back(m.out);
      for (const Index batch : {Index{1}, Index{8}}) {
        std::vector<std::vector<std::int32_t>> histories;
        for (Index b = 0; b < batch; ++b) {
          histories.push_back({static_cast<std::int32_t>(1 + b)});
        }
        // B = 1 runs exact, then pruned; B = 8 mixes a full probe, a
        // partial probe and exact rows.
        std::vector<std::vector<Index>> probe_sets;
        if (batch == 1) {
          probe_sets = {{0}, {2}};
        } else {
          probe_sets = {{0, kSweepClusters, 0, 2, 0, 0, 1, 0}};
        }
        const BatchResult whole_plain = context.run_batch(histories);
        for (const std::vector<Index>& nprobes : probe_sets) {
          std::vector<std::vector<ScoredId>> whole_top;
          std::vector<std::vector<ScoredId>> whole_all;
          context.run_batch(histories, kTopK, &whole_top, &nprobes);
          context.run_batch(histories, m.out, &whole_all, &nprobes);
          for (const Index split : splits) {
            for (const auto mode :
                 {FixedSplit::Mode::kThread, FixedSplit::Mode::kUnclaimed}) {
              const bool lent = split < m.out;
              const bool claimed = lent && mode == FixedSplit::Mode::kThread;
              const std::string where =
                  tag + "/" + compiled->kernels().name + " B=" +
                  std::to_string(batch) + " nprobe[0]=" +
                  std::to_string(nprobes[0]) + " split=" +
                  std::to_string(split) + (claimed ? " claimed" : " kept");
              FixedSplit helper(split, mode);
              const BatchResult plain =
                  context.run_batch(histories, 0, nullptr, nullptr, &helper);
              EXPECT_EQ(plain.split, claimed) << where;
              EXPECT_TRUE(same_bits(plain.logits.data(),
                                    whole_plain.logits.data(),
                                    batch * m.out))
                  << where;
              std::vector<std::vector<ScoredId>> top;
              const BatchResult ranked =
                  context.run_batch(histories, kTopK, &top, &nprobes, &helper);
              EXPECT_EQ(ranked.split, claimed) << where;
              std::vector<std::vector<ScoredId>> all;
              context.run_batch(histories, m.out, &all, &nprobes, &helper);
              EXPECT_EQ(helper.posted, lent ? 3 : 0) << where;
              for (std::size_t b = 0; b < histories.size(); ++b) {
                EXPECT_TRUE(same_ranking(top[b], whole_top[b]))
                    << where << " row " << b;
                EXPECT_TRUE(same_ranking(all[b], whole_all[b]))
                    << where << " row " << b;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace memcom
