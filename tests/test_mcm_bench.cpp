// CLI coverage for tools/mcm_bench: export a real model, invoke the binary,
// and assert on the latency + serving-throughput report it prints.
//
// The tool's binary path is injected by CMake via MCM_BENCH_PATH.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "test_util.h"

#include "repro/model.h"

namespace memcom {
namespace {

#ifndef MCM_BENCH_PATH
#error "MCM_BENCH_PATH must be defined by the build"
#endif

struct ToolResult {
  int exit_code = -1;
  std::string output;
};

ToolResult run_tool(const std::string& args) {
  // Appended piecewise: GCC 12 warns -Wrestrict on the chained operator+
  // form of this expression.
  std::string cmd = "\"";
  cmd += MCM_BENCH_PATH;
  cmd += "\" ";
  cmd += args;
  cmd += " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ToolResult result;
  if (pipe == nullptr) {
    return result;
  }
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    result.output += buf;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

class McmBenchTest : public ::testing::Test {
 protected:
  McmBenchTest()
      : path_((std::filesystem::temp_directory_path() /
               "memcom_bench_tool_test.mcm")
                  .string()) {}

  ~McmBenchTest() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  const std::string path_;
};

TEST_F(McmBenchTest, ReportsLatencyAndServingThroughput) {
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, 300, 16, 32};
  config.arch = ModelArch::kClassification;
  config.output_vocab = 24;
  config.seed = 7;
  RecModel model(config);
  model.export_mcm(path_);

  const ToolResult result = run_tool(
      "\"" + path_ + "\" --runs 20 --threads 2 --requests 16 --repeat 2");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("technique=memcom"), std::string::npos);
  // run_view's total_ms adds the profile's per-op dispatch overhead to the
  // wall time, so the table says it is modeled.
  EXPECT_NE(result.output.find("single-input latency, modeled (run_view wall "
                               "time + tflite/CPU dispatch overhead, 20 runs)"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("p99 ms"), std::string::npos);
  EXPECT_NE(result.output.find("serving throughput"), std::string::npos);
  EXPECT_NE(result.output.find("qps"), std::string::npos);
}

TEST_F(McmBenchTest, AsyncModeReportsPipelineColumns) {
  ModelConfig config;
  config.embedding = {TechniqueKind::kQrMult, 300, 16, 32};
  config.arch = ModelArch::kRanking;
  config.output_vocab = 8;
  config.seed = 8;
  RecModel model(config);
  model.export_mcm(path_);

  const ToolResult result = run_tool(
      "\"" + path_ +
      "\" --runs 10 --threads 2 --requests 16 --repeat 2 --async "
      "--max-batch 4 --cache-kb 32");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("async micro-batching pipeline"),
            std::string::npos);
  EXPECT_NE(result.output.find("wait p95 ms"), std::string::npos);
  EXPECT_NE(result.output.find("mean batch"), std::string::npos);
  EXPECT_NE(result.output.find("  late  "), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("hit%"), std::string::npos);
}

TEST_F(McmBenchTest, MultiModelModeReportsPerModelAndHotSwaps) {
  const std::string path_b =
      (std::filesystem::temp_directory_path() /
       "memcom_bench_tool_test_b.mcm")
          .string();
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, 300, 16, 32};
  config.arch = ModelArch::kClassification;
  config.output_vocab = 24;
  config.seed = 7;
  RecModel model_a(config);
  model_a.export_mcm(path_);
  config.embedding.kind = TechniqueKind::kQrMult;
  config.seed = 9;
  RecModel model_b(config);
  model_b.export_mcm(path_b);

  const ToolResult result = run_tool(
      "--models \"" + path_ + "," + path_b +
      "\" --threads 2 --requests 12 --repeat 2 --max-batch 4 "
      "--cache-kb 32 --swap-after 8");
  std::error_code ec;
  std::filesystem::remove(path_b, ec);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("technique=memcom"), std::string::npos);
  EXPECT_NE(result.output.find("technique=qr_mult"), std::string::npos);
  EXPECT_NE(result.output.find("multi-tenant serving (2 models"),
            std::string::npos);
  EXPECT_NE(result.output.find("per-model breakdown"), std::string::npos);
  // The exports carry no identity metadata, so the same-file republish is
  // a legal version bump and the swap must land mid-drain or right at its
  // end — either way the tool reports it.
  EXPECT_NE(result.output.find("hot-swapped"), std::string::npos);
  EXPECT_NE(result.output.find("to v2"), std::string::npos);
}

TEST_F(McmBenchTest, ShardedAsyncModeReportsSchedulerColumns) {
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, 300, 16, 32};
  config.arch = ModelArch::kClassification;
  config.output_vocab = 24;
  config.seed = 11;
  RecModel model(config);
  model.export_mcm(path_);

  const ToolResult result = run_tool(
      "\"" + path_ +
      "\" --runs 10 --threads 2 --requests 16 --repeat 2 --async "
      "--shards 2 --max-batch 4 --deadline-us 500000 --shed");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("async micro-batching pipeline"),
            std::string::npos);
  EXPECT_NE(result.output.find("shards"), std::string::npos);
  EXPECT_NE(result.output.find("goodput"), std::string::npos);
  EXPECT_NE(result.output.find("shed%"), std::string::npos);
  EXPECT_NE(result.output.find("miss%"), std::string::npos);
}

TEST_F(McmBenchTest, SessionModeReportsTopKTable) {
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, 300, 16, 32};
  config.arch = ModelArch::kClassification;
  config.output_vocab = 24;
  config.seed = 13;
  RecModel model(config);
  model.export_mcm(path_);

  const ToolResult result = run_tool(
      "\"" + path_ +
      "\" --runs 10 --threads 2 --requests 16 --repeat 2 --session --topk 5");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("session next-item serving"),
            std::string::npos);
  EXPECT_NE(result.output.find("full-catalog top-5"), std::string::npos);
  EXPECT_NE(result.output.find("top-k"), std::string::npos);
  EXPECT_NE(result.output.find("active"), std::string::npos);
  EXPECT_NE(result.output.find("evicted"), std::string::npos);
}

TEST_F(McmBenchTest, PrunedSessionModeReportsScanAndRecallColumns) {
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, 300, 16, 32};
  config.arch = ModelArch::kClassification;
  config.output_vocab = 24;
  config.seed = 13;
  RecModel model(config);
  model.export_mcm(path_);

  // Index built in process over the exported catalog (--clusters), then a
  // pruned drain plus the exact recall-reference replay.
  const ToolResult result = run_tool(
      "\"" + path_ +
      "\" --runs 10 --threads 2 --requests 16 --repeat 2 --session --topk 5 "
      "--nprobe 2 --clusters 4");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("catalog index: built in-process (4 clusters)"),
            std::string::npos);
  EXPECT_NE(result.output.find("nprobe"), std::string::npos);
  EXPECT_NE(result.output.find("scan MB"), std::string::npos);
  EXPECT_NE(result.output.find("pruned%"), std::string::npos);
  EXPECT_NE(result.output.find("recall@k"), std::string::npos);
}

TEST_F(McmBenchTest, PrunedSessionModeAdoptsFileIndex) {
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, 300, 16, 32};
  config.arch = ModelArch::kClassification;
  config.output_vocab = 24;
  config.seed = 13;
  RecModel model(config);
  model.export_mcm(path_, DType::kI8, "bench", 1, /*group_size=*/0,
                   /*emit_plan=*/false, /*emit_index=*/true,
                   /*index_clusters=*/4);

  const ToolResult result = run_tool(
      "\"" + path_ +
      "\" --runs 10 --threads 2 --requests 16 --repeat 2 --session --topk 5 "
      "--nprobe 2");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("catalog index: file-adopted (4 clusters)"),
            std::string::npos);
}

TEST_F(McmBenchTest, UnknownFlagFailsInsteadOfFallingBackToDefault) {
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, 300, 16, 32};
  config.arch = ModelArch::kClassification;
  config.output_vocab = 24;
  config.seed = 13;
  RecModel model(config);
  model.export_mcm(path_);

  // A typo for --nprobe: ignored, it would silently serve the exact scan.
  const ToolResult result = run_tool(
      "\"" + path_ +
      "\" --runs 10 --threads 2 --requests 16 --repeat 2 --session --topk 5 "
      "--nprobes 8");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("unknown flag --nprobes"), std::string::npos)
      << result.output;
}

TEST_F(McmBenchTest, NprobeWithoutSessionFailsCleanly) {
  const ToolResult result = run_tool("model.mcm --nprobe 2");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--session"), std::string::npos);
}

TEST_F(McmBenchTest, NonPositiveNprobeFailsCleanly) {
  const ToolResult result = run_tool("model.mcm --session --topk 5 --nprobe 0");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--nprobe"), std::string::npos);
}

TEST_F(McmBenchTest, ClustersWithoutNprobeFailsCleanly) {
  const ToolResult result =
      run_tool("model.mcm --session --topk 5 --clusters 4");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--nprobe"), std::string::npos);
}

TEST_F(McmBenchTest, NprobeExceedingClustersFailsCleanly) {
  const ToolResult result =
      run_tool("model.mcm --session --topk 5 --nprobe 8 --clusters 4");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--nprobe must not exceed --clusters"),
            std::string::npos);
}

TEST_F(McmBenchTest, TopkWithoutSessionFailsCleanly) {
  const ToolResult result = run_tool("model.mcm --topk 5");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--session"), std::string::npos);
}

TEST_F(McmBenchTest, NonPositiveTopkFailsCleanly) {
  const ToolResult result = run_tool("model.mcm --session --topk 0");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--topk"), std::string::npos);
}

TEST_F(McmBenchTest, SessionWithModelsModeFailsCleanly) {
  const ToolResult result = run_tool("--models a.mcm,b.mcm --session");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--session"), std::string::npos);
}

TEST_F(McmBenchTest, InvalidShardCountFailsCleanly) {
  const ToolResult zero = run_tool("model.mcm --shards 0");
  EXPECT_EQ(zero.exit_code, 2);
  EXPECT_NE(zero.output.find("--shards"), std::string::npos);
  // More shards than workers is rejected too (every shard needs a primary).
  const ToolResult over = run_tool("model.mcm --threads 2 --shards 4");
  EXPECT_EQ(over.exit_code, 2);
  EXPECT_NE(over.output.find("--shards"), std::string::npos);
}

TEST_F(McmBenchTest, ShedWithoutDeadlineFailsCleanly) {
  const ToolResult result = run_tool("model.mcm --shed");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--deadline-us"), std::string::npos);
}

TEST_F(McmBenchTest, ColdStartReportsBothLegsForPlanBearingFile) {
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, 300, 16, 32};
  config.arch = ModelArch::kClassification;
  config.output_vocab = 24;
  config.seed = 17;
  RecModel model(config);
  model.export_mcm(path_, DType::kI8, "cold", 1, /*group_size=*/0,
                   /*emit_plan=*/true);

  const ToolResult result = run_tool("\"" + path_ + "\" --cold-start 5");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("cold start (5 iterations): plan section "
                               "present and valid"),
            std::string::npos);
  EXPECT_NE(result.output.find("load -> first-inference phases"),
            std::string::npos);
  // Phase split columns plus one row per leg with its plan verdict.
  EXPECT_NE(result.output.find("adopt-or-compile p50"), std::string::npos);
  EXPECT_NE(result.output.find("first-infer p50"), std::string::npos);
  EXPECT_NE(result.output.find("plan-adopt"), std::string::npos);
  EXPECT_NE(result.output.find("full-compile"), std::string::npos);
  EXPECT_NE(result.output.find("adopted"), std::string::npos);
  EXPECT_NE(result.output.find("plan adoption disabled"), std::string::npos);
}

TEST_F(McmBenchTest, ColdStartReportsSingleLegForPlanlessFile) {
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, 300, 16, 32};
  config.arch = ModelArch::kClassification;
  config.output_vocab = 24;
  config.seed = 19;
  RecModel model(config);
  model.export_mcm(path_);

  const ToolResult result = run_tool("\"" + path_ + "\" --cold-start 3");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("cold start (3 iterations): no plan section"),
            std::string::npos);
  EXPECT_NE(result.output.find("full-compile"), std::string::npos);
  // No adoption leg to report without a plan.
  EXPECT_EQ(result.output.find("plan-adopt"), std::string::npos);
}

TEST_F(McmBenchTest, NonPositiveColdStartFailsCleanly) {
  const ToolResult result = run_tool("model.mcm --cold-start 0");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--cold-start"), std::string::npos);
}

TEST_F(McmBenchTest, ColdStartWithModelsModeFailsCleanly) {
  const ToolResult result = run_tool("--models a.mcm,b.mcm --cold-start 3");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--cold-start"), std::string::npos);
}

TEST_F(McmBenchTest, MissingArgumentFailsWithUsage) {
  const ToolResult result = run_tool("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST_F(McmBenchTest, InvalidAsyncFlagsFailCleanly) {
  const ToolResult result = run_tool("model.mcm --max-batch 0");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--max-batch"), std::string::npos);
}

}  // namespace
}  // namespace memcom
