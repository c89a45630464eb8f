// Round-trips a .mcm written by ondevice/format through the mcm_inspect
// command-line tool and asserts on the inspector's summary output.
//
// The tool's binary path is injected by CMake via MCM_INSPECT_PATH.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "test_util.h"

#include "core/rng.h"
#include "core/tensor.h"
#include "ondevice/format.h"

namespace memcom {
namespace {

#ifndef MCM_INSPECT_PATH
#error "MCM_INSPECT_PATH must be defined by the build"
#endif

struct ToolResult {
  int exit_code = -1;
  std::string output;
};

ToolResult run_tool(const std::string& args) {
  // Quote the binary path; build trees may live under paths with spaces.
  // Appended piecewise: GCC 12 warns -Wrestrict on the chained operator+
  // form of this expression.
  std::string cmd = "\"";
  cmd += MCM_INSPECT_PATH;
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

class McmInspectTest : public test::SeededTest {
 protected:
  McmInspectTest()
      : path_((std::filesystem::temp_directory_path() /
               "memcom_inspect_test.mcm")
                  .string()) {}

  ~McmInspectTest() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  const std::string path_;
};

TEST_F(McmInspectTest, SummarizesRoundTrippedModel) {
  ModelWriter writer(path_);
  writer.set_metadata("technique", "memcom");
  writer.set_metadata_int("embedding_dim", 8);
  const Tensor table = Tensor::randn({16, 8}, rng_);
  const Tensor bias = Tensor::full({8}, 0.25f);
  writer.add_tensor("embedding", table, DType::kI8);
  writer.add_tensor("bias", bias, DType::kF32);
  const std::uint64_t bytes_written = writer.finish();
  ASSERT_GT(bytes_written, 0u);

  const ToolResult result = run_tool("\"" + path_ + "\"");
  ASSERT_EQ(result.exit_code, 0) << result.output;

  // File summary line reports the on-disk size.
  EXPECT_NE(result.output.find("file: " + path_), std::string::npos);
  EXPECT_NE(result.output.find(std::to_string(bytes_written) + " bytes"),
            std::string::npos);

  // Metadata section echoes both entries.
  EXPECT_NE(result.output.find("technique = memcom"), std::string::npos);
  EXPECT_NE(result.output.find("embedding_dim = 8"), std::string::npos);

  // This writer stamped no identity: the inspector must say so (legacy
  // files keep working) rather than fail or print garbage.
  EXPECT_NE(result.output.find("legacy file"), std::string::npos);

  // Tensor directory lists both tensors with dtype and shape.
  EXPECT_NE(result.output.find("embedding"), std::string::npos);
  EXPECT_NE(result.output.find("bias"), std::string::npos);
  EXPECT_NE(result.output.find("i8"), std::string::npos);
  EXPECT_NE(result.output.find("f32"), std::string::npos);
  EXPECT_NE(result.output.find(shape_to_string({16, 8})), std::string::npos);

  // The payload total matches the directory entries read back directly.
  const MmapModel model(path_);
  const std::uint64_t payload = model.entry("embedding").byte_size +
                                model.entry("bias").byte_size;
  EXPECT_NE(
      result.output.find("total tensor payload: " + std::to_string(payload)),
      std::string::npos);
}

TEST_F(McmInspectTest, PrintsModelIdentityWhenStamped) {
  ModelWriter writer(path_);
  writer.set_model_identity("sessionrec", 12);
  writer.set_metadata("technique", "memcom");
  writer.add_tensor("bias", Tensor::full({4}, 0.5f));
  writer.finish();

  const ToolResult result = run_tool("\"" + path_ + "\"");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("model: sessionrec (version 12)"),
            std::string::npos);
  EXPECT_EQ(result.output.find("legacy file"), std::string::npos);
  // The identity also rides in the ordinary metadata listing.
  EXPECT_NE(result.output.find("model_name = sessionrec"), std::string::npos);
  EXPECT_NE(result.output.find("model_version = 12"), std::string::npos);
}

TEST_F(McmInspectTest, StatsFlagPrintsDequantizedStatistics) {
  ModelWriter writer(path_);
  const Tensor bias = Tensor::full({4}, 0.25f);
  writer.add_tensor("bias", bias, DType::kF32);
  writer.finish();

  const ToolResult result = run_tool("\"" + path_ + "\" --stats");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("per-tensor statistics"), std::string::npos);
  // f32 round-trips exactly: min == max == mean == 0.25.
  EXPECT_NE(result.output.find("0.25"), std::string::npos);

  // The f32 payload must also reload bit-exactly through the format API.
  const MmapModel model(path_);
  EXPECT_TENSOR_NEAR(model.load_tensor("bias"), bias, 0.0f);
}

TEST_F(McmInspectTest, SummarizesOutputCatalogDims) {
  ModelWriter writer(path_);
  writer.set_metadata("technique", "memcom");
  // Dense head layout is [in, items]: 16-dim item vectors, 24-item catalog.
  writer.add_tensor("out.weight", Tensor::randn({16, 24}, rng_), DType::kI8);
  writer.add_tensor("out.bias", Tensor::full({24}, 0.0f));
  writer.finish();

  const ToolResult result = run_tool("\"" + path_ + "\"");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("output catalog (out.weight): 24 items x 16 "
                               "dims"),
            std::string::npos);
  // The advertised compressed footprint is the directory entry's byte size.
  const MmapModel model(path_);
  EXPECT_NE(result.output.find(
                std::to_string(model.entry("out.weight").byte_size) +
                " bytes compressed"),
            std::string::npos);
}

TEST_F(McmInspectTest, NoCatalogLineWithoutOutputHead) {
  ModelWriter writer(path_);
  writer.add_tensor("bias", Tensor::full({4}, 0.5f));
  writer.finish();

  const ToolResult result = run_tool("\"" + path_ + "\"");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(result.output.find("output catalog"), std::string::npos);
}

namespace {
// A minimal model build_plan() can compile, so set_emit_plan can stage the
// v3 plan section the inspector reports on.
void add_plannable_model(ModelWriter& writer) {
  writer.set_metadata("arch", "ranking");
  writer.set_metadata("technique", "uncompressed");
  writer.set_metadata_int("vocab", 16);
  writer.set_metadata_int("embed_dim", 4);
  writer.set_metadata_int("knob", 0);
  writer.set_metadata_int("output_dim", 2);
  writer.add_tensor("emb.table", Tensor::full({16, 4}, 0.5f));
  writer.add_tensor("bn1.gamma", Tensor::full({4}, 1.0f));
  writer.add_tensor("bn1.beta", Tensor::full({4}, 0.0f));
  writer.add_tensor("bn1.mean", Tensor::full({4}, 0.0f));
  writer.add_tensor("bn1.var", Tensor::full({4}, 1.0f));
  writer.add_tensor("out.weight", Tensor::full({4, 2}, 0.25f));
  writer.add_tensor("out.bias", Tensor::full({2}, 0.0f));
}
}  // namespace

TEST_F(McmInspectTest, ReportsSectionsAndValidPlanVerdict) {
  ModelWriter writer(path_);
  add_plannable_model(writer);
  writer.set_emit_plan();
  writer.finish();

  const ToolResult result = run_tool("\"" + path_ + "\"");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("sections (format v3):"), std::string::npos);
  const MmapModel model(path_);
  EXPECT_NE(result.output.find("compiled plan: " +
                               std::to_string(model.plan_size()) + " bytes"),
            std::string::npos);
  EXPECT_NE(result.output.find(
                "plan: present (valid — loader adopts, skipping compile)"),
            std::string::npos);
}

TEST_F(McmInspectTest, ReportsAbsentPlanForPlanlessFile) {
  ModelWriter writer(path_);
  add_plannable_model(writer);
  writer.finish();

  const ToolResult result = run_tool("\"" + path_ + "\"");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("sections (format v1):"), std::string::npos);
  EXPECT_NE(result.output.find("compiled plan: 0 bytes"), std::string::npos);
  EXPECT_NE(result.output.find("plan: absent (loader runs a full compile)"),
            std::string::npos);
}

TEST_F(McmInspectTest, ReportsStalePlanWithReason) {
  {
    ModelWriter writer(path_);
    add_plannable_model(writer);
    writer.set_emit_plan();
    writer.finish();
  }
  // Flip one byte mid-section: the verdict must name the defect and say the
  // loader falls back, while the tool still prints the full report.
  const MmapModel model(path_);
  const std::uint64_t flip_at = model.plan_offset() + model.plan_size() / 2;
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(flip_at));
  char byte = 0;
  f.get(byte);
  f.seekp(static_cast<std::streamoff>(flip_at));
  f.put(static_cast<char>(byte ^ 0x01));
  f.close();

  const ToolResult result = run_tool("\"" + path_ + "\"");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("plan: stale"), std::string::npos);
  EXPECT_NE(result.output.find("checksum mismatch"), std::string::npos);
  EXPECT_NE(result.output.find("falls back to a full compile"),
            std::string::npos);
}

TEST_F(McmInspectTest, ReportsValidCatalogIndexVerdict) {
  ModelWriter writer(path_);
  add_plannable_model(writer);
  writer.set_emit_catalog_index(true, /*clusters=*/2);
  writer.finish();

  const ToolResult result = run_tool("\"" + path_ + "\"");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("sections (format v4):"), std::string::npos);
  const MmapModel model(path_);
  EXPECT_NE(result.output.find("catalog index: " +
                               std::to_string(model.index_size()) + " bytes"),
            std::string::npos);
  EXPECT_NE(result.output.find("catalog index: present (valid"),
            std::string::npos);
  EXPECT_NE(result.output.find("2 centroids over 2 items"), std::string::npos);
  EXPECT_NE(result.output.find("cluster size min/median/max"),
            std::string::npos);
  EXPECT_NE(result.output.find("pruned top-k available"), std::string::npos);
}

TEST_F(McmInspectTest, ReportsAbsentCatalogIndexForIndexlessFile) {
  ModelWriter writer(path_);
  add_plannable_model(writer);
  writer.finish();

  const ToolResult result = run_tool("\"" + path_ + "\"");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("catalog index: 0 bytes"), std::string::npos);
  EXPECT_NE(result.output.find("catalog index: absent (session ranking "
                               "scans the full catalog)"),
            std::string::npos);
}

TEST_F(McmInspectTest, ReportsStaleCatalogIndexWithReason) {
  {
    ModelWriter writer(path_);
    add_plannable_model(writer);
    writer.set_emit_catalog_index(true, /*clusters=*/2);
    writer.finish();
  }
  // Flip one byte mid-section (payload region, past the header prefix): the
  // verdict names the defect and the tool keeps printing the full report.
  const MmapModel model(path_);
  const std::uint64_t flip_at = model.index_offset() + model.index_size() / 2;
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(flip_at));
  char byte = 0;
  f.get(byte);
  f.seekp(static_cast<std::streamoff>(flip_at));
  f.put(static_cast<char>(byte ^ 0x01));
  f.close();

  const ToolResult result = run_tool("\"" + path_ + "\"");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("catalog index: stale"), std::string::npos);
  EXPECT_NE(result.output.find("falls back to the exact full scan"),
            std::string::npos);
}

TEST_F(McmInspectTest, RejectedFileExitsWithReason) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << std::string(4096, 'x');  // no .mcm magic
  }
  const ToolResult junk = run_tool("\"" + path_ + "\"");
  EXPECT_EQ(junk.exit_code, 1) << junk.output;
  EXPECT_NE(junk.output.find("error: "), std::string::npos) << junk.output;
  EXPECT_NE(junk.output.find("MmapModel magic"), std::string::npos)
      << junk.output;

  const ToolResult missing = run_tool("\"" + path_ + ".absent\"");
  EXPECT_EQ(missing.exit_code, 1) << missing.output;
  EXPECT_NE(missing.output.find("error: "), std::string::npos);
  EXPECT_NE(missing.output.find("cannot open"), std::string::npos)
      << missing.output;
}

TEST_F(McmInspectTest, MissingArgumentFailsWithUsage) {
  const ToolResult result = run_tool("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

}  // namespace
}  // namespace memcom
