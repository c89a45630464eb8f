#include "ondevice/format.h"

#include <gtest/gtest.h>

#include "test_util.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "ondevice/engine.h"
#include "ondevice/memory_meter.h"
#include "ondevice/section.h"

namespace memcom {
namespace {

class FormatTest : public ::testing::Test {
 protected:
  std::string temp_path() {
    path_ = std::filesystem::temp_directory_path() /
            ("memcom_format_test_" + std::to_string(counter_++) + ".mcm");
    return path_.string();
  }
  void TearDown() override {
    if (!path_.empty()) {
      std::filesystem::remove(path_);
    }
  }
  std::filesystem::path path_;
  static int counter_;
};
int FormatTest::counter_ = 0;

TEST_F(FormatTest, WriteReadRoundTripF32) {
  const std::string path = temp_path();
  Rng rng(161);
  const Tensor a = Tensor::randn({8, 4}, rng);
  const Tensor b = Tensor::randn({3}, rng);
  ModelWriter writer(path);
  writer.set_metadata("arch", "ranking");
  writer.set_metadata_int("vocab", 1234);
  writer.add_tensor("alpha", a);
  writer.add_tensor("beta", b);
  const std::uint64_t written = writer.finish();
  EXPECT_GT(written, a.numel() * 4u);

  const MmapModel model(path);
  EXPECT_EQ(model.file_size(), written);
  EXPECT_EQ(model.metadata_value("arch"), "ranking");
  EXPECT_EQ(model.metadata_int("vocab"), 1234);
  EXPECT_TRUE(model.has_tensor("alpha"));
  EXPECT_FALSE(model.has_tensor("gamma"));
  EXPECT_TRUE(model.load_tensor("alpha").equals(a));
  EXPECT_TRUE(model.load_tensor("beta").equals(b));
  EXPECT_EQ(model.tensor_names().size(), 2u);
}

TEST_F(FormatTest, ModelIdentityRoundTrips) {
  const std::string path = temp_path();
  ModelWriter writer(path);
  writer.set_model_identity("sessionrec", 7);
  writer.add_tensor("alpha", Tensor::full({4}, 1.0f));
  writer.finish();

  const MmapModel model(path);
  EXPECT_TRUE(model.has_model_identity());
  EXPECT_EQ(model.model_name(), "sessionrec");
  EXPECT_EQ(model.model_version(), 7u);
}

TEST_F(FormatTest, LegacyFileWithoutIdentityReportsSentinels) {
  // Files written before set_model_identity existed must keep loading; the
  // accessors report the "no identity" sentinels instead of throwing.
  const std::string path = temp_path();
  ModelWriter writer(path);
  writer.add_tensor("alpha", Tensor::full({4}, 1.0f));
  writer.finish();

  const MmapModel model(path);
  EXPECT_FALSE(model.has_model_identity());
  EXPECT_EQ(model.model_name(), "");
  EXPECT_EQ(model.model_version(), 0u);
}

TEST_F(FormatTest, InvalidModelIdentityRejected) {
  ModelWriter writer(temp_path());
  EXPECT_THROW(writer.set_model_identity("", 1), std::runtime_error);
  EXPECT_THROW(writer.set_model_identity("name", 0), std::runtime_error);
}

TEST_F(FormatTest, QuantizedTensorsRoundTripWithinBound) {
  const std::string path = temp_path();
  Rng rng(162);
  const Tensor t = Tensor::randn({32, 8}, rng, 0.2f);
  ModelWriter writer(path);
  writer.add_tensor("w32", t, DType::kF32);
  writer.add_tensor("w16", t, DType::kF16);
  writer.add_tensor("w8", t, DType::kI8);
  writer.add_tensor("w4", t, DType::kI4);
  writer.finish();

  const MmapModel model(path);
  EXPECT_TRUE(model.load_tensor("w32").equals(t));
  EXPECT_TENSOR_NEAR(model.load_tensor("w16"), t, 0.001f);
  const TensorEntry& e8 = model.entry("w8");
  EXPECT_TENSOR_NEAR(model.load_tensor("w8"), t, e8.scale * 0.5f + 1e-6f);
  const TensorEntry& e4 = model.entry("w4");
  EXPECT_TENSOR_NEAR(model.load_tensor("w4"), t, e4.scale * 0.5f + 1e-6f);
  // Stored sizes shrink with precision.
  EXPECT_GT(model.entry("w32").byte_size, model.entry("w16").byte_size);
  EXPECT_GT(model.entry("w16").byte_size, model.entry("w8").byte_size);
  EXPECT_GT(model.entry("w8").byte_size, model.entry("w4").byte_size);
}

TEST_F(FormatTest, GroupedTensorBumpsFormatToV2AndRoundTrips) {
  const std::string path = temp_path();
  Rng rng(164);
  const Tensor t = Tensor::randn({32, 8}, rng, 0.2f);
  ModelWriter writer(path);
  writer.add_tensor("flat", t, DType::kI8);
  writer.add_tensor("grouped", t, DType::kI4G, /*group_size=*/16);
  writer.add_tensor("grouped_default", t, DType::kI4G);
  writer.finish();

  // A grouped tensor bumps the container version to 2.
  {
    std::ifstream in(path, std::ios::binary);
    read_u32(in);  // magic
    EXPECT_EQ(read_u32(in), 2u);
  }
  const MmapModel model(path);
  const TensorEntry& grouped = model.entry("grouped");
  EXPECT_EQ(grouped.dtype, DType::kI4G);
  EXPECT_EQ(grouped.group_size, 16);
  EXPECT_EQ(model.entry("grouped_default").group_size, kI4GroupDefault);
  EXPECT_EQ(model.entry("flat").group_size, 0);
  EXPECT_EQ(grouped.byte_size,
            packed_byte_size(DType::kI4G, 32 * 8, 16));
  // Groupwise 4-bit is tighter than i8 but looser than flat i4 in bytes
  // (the scales header), and the per-group bound holds element-wise.
  EXPECT_LT(grouped.byte_size, model.entry("flat").byte_size);
  const Tensor back = model.load_tensor("grouped");
  const auto* scales =
      reinterpret_cast<const float*>(model.payload(grouped));
  for (Index i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::fabs(back[i] - t[i]), scales[i / 16] * 0.5f + 1e-6f) << i;
  }
}

TEST_F(FormatTest, UngroupedFilesStayVersion1) {
  // Legacy tolerance is two-way: files without grouped tensors keep the v1
  // layout byte-for-byte, so readers that predate v2 still open them.
  const std::string path = temp_path();
  ModelWriter writer(path);
  writer.add_tensor("w", Tensor::full({4}, 1.0f), DType::kI4);
  writer.finish();
  std::ifstream in(path, std::ios::binary);
  read_u32(in);  // magic
  EXPECT_EQ(read_u32(in), 1u);
}

// --- v3 plan section (container-level; plan semantics in test_plan.cpp) ----

namespace {
// A minimal model build_plan() can compile: ranking trunk, uncompressed
// embedding — enough for ModelWriter::set_emit_plan to stage a v3 file.
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

TEST_F(FormatTest, EmitPlanBumpsFormatToV3) {
  const std::string path = temp_path();
  ModelWriter writer(path);
  add_plannable_model(writer);
  writer.set_emit_plan();
  const std::uint64_t written = writer.finish();
  {
    std::ifstream in(path, std::ios::binary);
    read_u32(in);  // magic
    EXPECT_EQ(read_u32(in), 3u);
  }
  const MmapModel model(path);
  EXPECT_EQ(model.format_version(), 3u);
  ASSERT_TRUE(model.has_plan_section());
  EXPECT_GT(model.plan_size(), 0u);
  EXPECT_EQ(model.plan_offset() % 64, 0u);
  EXPECT_EQ(model.plan_offset() + model.plan_size(), written);
  EXPECT_NE(model.plan_data(), nullptr);
  // The tensors read back exactly as in a plan-less file.
  EXPECT_TRUE(model.load_tensor("emb.table").equals(
      Tensor::full({16, 4}, 0.5f)));
}

TEST_F(FormatTest, PlanlessWriterStaysV1WithNoPlanHeaderFields) {
  // v3 is opt-in per file: without set_emit_plan the container must stay
  // byte-compatible with pre-v3 readers (no plan offset/size fields).
  const std::string path = temp_path();
  ModelWriter writer(path);
  add_plannable_model(writer);
  writer.finish();
  std::ifstream in(path, std::ios::binary);
  read_u32(in);  // magic
  EXPECT_EQ(read_u32(in), 1u);
  const MmapModel model(path);
  EXPECT_FALSE(model.has_plan_section());
  EXPECT_EQ(model.plan_data(), nullptr);
}

TEST_F(FormatTest, PlanSectionPastEofToleratedAtOpen) {
  // A v3 header whose plan section reaches past EOF (truncated in transit)
  // must not fail the open: the tensors are intact and the loader falls
  // back to a compile. The plan is flagged unreachable with a reason.
  const std::string path = temp_path();
  {
    ModelWriter writer(path);
    add_plannable_model(writer);
    writer.set_emit_plan();
    writer.finish();
  }
  const std::uint64_t plan_offset = MmapModel(path).plan_offset();
  std::filesystem::resize_file(path, plan_offset + 8);
  const MmapModel model(path);
  EXPECT_TRUE(model.has_plan_section());
  EXPECT_EQ(model.plan_data(), nullptr);
  EXPECT_FALSE(model.plan_bounds_error().empty());
  EXPECT_TRUE(model.load_tensor("out.bias").equals(Tensor::full({2}, 0.0f)));
}

// --- v4 catalog-index section (container-level; index semantics live in
// test_catalog_index.cpp) -------------------------------------------------

TEST_F(FormatTest, EmitCatalogIndexBumpsFormatToV4) {
  const std::string path = temp_path();
  ModelWriter writer(path);
  add_plannable_model(writer);
  writer.set_emit_catalog_index();
  const std::uint64_t written = writer.finish();
  {
    std::ifstream in(path, std::ios::binary);
    read_u32(in);  // magic
    EXPECT_EQ(read_u32(in), 4u);
  }
  const MmapModel model(path);
  EXPECT_EQ(model.format_version(), 4u);
  ASSERT_TRUE(model.has_index_section());
  EXPECT_GT(model.index_size(), 0u);
  EXPECT_EQ(model.index_offset() % 64, 0u);
  EXPECT_EQ(model.index_offset() + model.index_size(), written);
  EXPECT_NE(model.index_data(), nullptr);
  // Index without plan: the v4 header carries zeroed plan locators and the
  // loader reports the plan absent, not corrupt.
  EXPECT_FALSE(model.has_plan_section());
  EXPECT_TRUE(model.plan_bounds_error().empty());
  // The tensors read back exactly as in a section-less file.
  EXPECT_TRUE(model.load_tensor("emb.table").equals(
      Tensor::full({16, 4}, 0.5f)));
}

TEST_F(FormatTest, PlanAndIndexSectionsCoexistInOneV4File) {
  const std::string path = temp_path();
  ModelWriter writer(path);
  add_plannable_model(writer);
  writer.set_emit_plan();
  writer.set_emit_catalog_index();
  const std::uint64_t written = writer.finish();
  const MmapModel model(path);
  EXPECT_EQ(model.format_version(), 4u);
  ASSERT_TRUE(model.has_plan_section());
  ASSERT_TRUE(model.has_index_section());
  EXPECT_NE(model.plan_data(), nullptr);
  EXPECT_NE(model.index_data(), nullptr);
  // Layout: plan first, index aligned after it, index closes the file.
  EXPECT_GE(model.index_offset(), model.plan_offset() + model.plan_size());
  EXPECT_EQ(model.index_offset() % 64, 0u);
  EXPECT_EQ(model.index_offset() + model.index_size(), written);
}

TEST_F(FormatTest, IndexSectionPastEofToleratedAtOpen) {
  // Same lenient contract as the plan: a v4 header whose index section
  // reaches past EOF must not fail the open — the tensors are intact and
  // session ranking falls back to the exact full scan.
  const std::string path = temp_path();
  {
    ModelWriter writer(path);
    add_plannable_model(writer);
    writer.set_emit_catalog_index();
    writer.finish();
  }
  const std::uint64_t index_offset = MmapModel(path).index_offset();
  std::filesystem::resize_file(path, index_offset + 8);
  const MmapModel model(path);
  EXPECT_TRUE(model.has_index_section());
  EXPECT_EQ(model.index_data(), nullptr);
  EXPECT_FALSE(model.index_bounds_error().empty());
  EXPECT_TRUE(model.load_tensor("out.bias").equals(Tensor::full({2}, 0.0f)));
}

TEST_F(FormatTest, GoldenBytesForPlanAndIndexSections) {
  // Pins the on-disk format, which the round-trip tests (self-consistency
  // only) cannot: any change to one byte of the container, the plan
  // section or the index section changes the digest. Every build-time
  // float operation is exact — batchnorm variances are powers of two far
  // above the 1e-5 epsilon, and each catalog item is its own k-means
  // cluster — so the digest does not depend on compiler or kernel family.
  const std::string path = temp_path();
  ModelWriter writer(path);
  writer.set_model_identity("golden", 2);
  writer.set_metadata("arch", "ranking");
  writer.set_metadata("technique", "uncompressed");
  writer.set_metadata_int("vocab", 4);
  writer.set_metadata_int("embed_dim", 2);
  writer.set_metadata_int("knob", 0);
  writer.set_metadata_int("output_dim", 2);
  writer.add_tensor("emb.table", Tensor::from_vector(
                                     {4, 2}, {1, 2, -1, 0.5f, 0, 3, 4, -2}));
  writer.add_tensor("bn1.gamma", Tensor::from_vector({2}, {2, 4}));
  writer.add_tensor("bn1.beta", Tensor::from_vector({2}, {1, -1}));
  writer.add_tensor("bn1.mean", Tensor::from_vector({2}, {8, 4}));
  writer.add_tensor("bn1.var", Tensor::from_vector({2}, {256, 1024}));
  writer.add_tensor("out.weight",
                    Tensor::from_vector({2, 2}, {0.5f, -0.25f, 1, 0.75f}));
  writer.add_tensor("out.bias", Tensor::from_vector({2}, {0.125f, -0.5f}));
  writer.set_emit_plan();
  writer.set_emit_catalog_index(true, /*clusters=*/2);
  const std::uint64_t written = writer.finish();

  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), written);
  // Digest of the file as first written; a deliberate format change must
  // bump the container or section version and update it.
  EXPECT_EQ(section_checksum(bytes.data(), bytes.size()),
            0xAED1340E4B952CF9ULL);
}

TEST_F(FormatTest, RejectedOpenReleasesItsMapping) {
  // The constructor's checks run after mmap(2): a throwing open must still
  // unmap the file, or every rejected publish leaks the whole mapping.
  const std::string path = temp_path();
  {
    std::ofstream out(path, std::ios::binary);
    out << std::string(std::size_t{1} << 20, 'x');  // bad magic
  }
  auto mapped_regions = [] {
    std::ifstream maps("/proc/self/maps");
    std::size_t lines = 0;
    for (std::string line; std::getline(maps, line);) {
      ++lines;
    }
    return lines;
  };
  if (mapped_regions() == 0) {
    GTEST_SKIP() << "/proc/self/maps is not available";
  }
  EXPECT_THROW(MmapModel{path}, std::runtime_error);
  const std::size_t before = mapped_regions();
  for (int i = 0; i < 200; ++i) {
    EXPECT_THROW(MmapModel{path}, std::runtime_error);
  }
  // Slack for unrelated allocator mappings; a leak adds one per open.
  EXPECT_LE(mapped_regions(), before + 16);
}

TEST_F(FormatTest, DirectoryEntriesKeepFileOrderForStableIndices) {
  // Plan handles serialize directory positions: entry_at/entry_index must
  // reflect WRITE order (file order), not the map's sorted order.
  const std::string path = temp_path();
  ModelWriter writer(path);
  writer.add_tensor("zeta", Tensor::full({2}, 1.0f));
  writer.add_tensor("alpha", Tensor::full({2}, 2.0f));
  writer.add_tensor("mid", Tensor::full({2}, 3.0f));
  writer.finish();
  const MmapModel model(path);
  ASSERT_EQ(model.entry_count(), 3u);
  EXPECT_EQ(model.entry_at(0).name, "zeta");
  EXPECT_EQ(model.entry_at(1).name, "alpha");
  EXPECT_EQ(model.entry_at(2).name, "mid");
  EXPECT_EQ(model.entry_index("mid"), 2u);
  EXPECT_THROW(model.entry_index("nope"), std::runtime_error);
  EXPECT_THROW(model.entry_at(3), std::runtime_error);
}

TEST_F(FormatTest, BlobsAreAligned) {
  const std::string path = temp_path();
  Rng rng(163);
  ModelWriter writer(path);
  writer.add_tensor("a", Tensor::randn({5}, rng));
  writer.add_tensor("b", Tensor::randn({7}, rng));
  writer.add_tensor("c", Tensor::randn({11}, rng));
  writer.finish();
  const MmapModel model(path);
  for (const std::string& name : model.tensor_names()) {
    EXPECT_EQ(model.entry(name).offset % 64, 0u) << name;
  }
}

TEST_F(FormatTest, DuplicateTensorNameRejected) {
  ModelWriter writer(temp_path());
  writer.add_tensor("x", Tensor({2}));
  EXPECT_THROW(writer.add_tensor("x", Tensor({3})), std::runtime_error);
}

TEST_F(FormatTest, DoubleFinishRejected) {
  ModelWriter writer(temp_path());
  writer.add_tensor("x", Tensor({2}));
  writer.finish();
  EXPECT_THROW(writer.finish(), std::runtime_error);
}

TEST_F(FormatTest, MissingTensorAndMetadataThrow) {
  const std::string path = temp_path();
  ModelWriter writer(path);
  writer.add_tensor("x", Tensor({2}));
  writer.finish();
  const MmapModel model(path);
  EXPECT_THROW(model.entry("y"), std::runtime_error);
  EXPECT_THROW(model.metadata_value("nope"), std::runtime_error);
  EXPECT_THROW(model.load_tensor("y"), std::runtime_error);
}

TEST_F(FormatTest, MissingFileThrows) {
  EXPECT_THROW(MmapModel missing("/nonexistent/path/model.mcm"),
               std::runtime_error);
}

TEST_F(FormatTest, CorruptMagicRejected) {
  const std::string path = temp_path();
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTM" << std::string(64, '\0');
  }
  EXPECT_THROW(MmapModel bad(path), std::runtime_error);
}

TEST_F(FormatTest, PayloadPointerIsZeroCopyView) {
  const std::string path = temp_path();
  const Tensor t = Tensor::from_vector({2}, {1.5f, -2.5f});
  ModelWriter writer(path);
  writer.add_tensor("x", t);
  writer.finish();
  const MmapModel model(path);
  const TensorEntry& entry = model.entry("x");
  const float* view = reinterpret_cast<const float*>(model.payload(entry));
  EXPECT_EQ(view[0], 1.5f);
  EXPECT_EQ(view[1], -2.5f);
}

// --- Malformed-model rejection ---------------------------------------------
// Every corruption below must fail with one clean std::runtime_error at
// open (or first use), never UB — the ASan/UBSan job runs this suite too.

namespace {
// Writes a file whose front matter follows the .mcm layout but with a
// caller-controlled directory entry, so individual fields can be corrupted.
void write_raw_model(const std::string& path, std::uint32_t dtype,
                     const std::vector<std::int64_t>& dims,
                     std::uint64_t offset, std::uint64_t byte_size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  write_u32(out, 0x314D434DU);  // "MCM1"
  write_u32(out, 1);            // version
  write_u64(out, 0);            // metadata count
  write_u64(out, 1);            // tensor count
  write_string(out, "x");
  write_u32(out, dtype);
  write_u64(out, dims.size());
  for (const std::int64_t d : dims) {
    write_i64(out, d);
  }
  write_f32(out, 1.0f);
  write_u64(out, offset);
  write_u64(out, byte_size);
  // Some trailing payload bytes, so only the field under test is wrong.
  for (int i = 0; i < 256; ++i) {
    out.put('\0');
  }
}
}  // namespace

TEST_F(FormatTest, TruncatedPayloadRejected) {
  const std::string path = temp_path();
  Rng rng(177);
  ModelWriter writer(path);
  writer.add_tensor("big", Tensor::randn({64, 16}, rng));
  writer.finish();
  const std::uint64_t blob_offset = MmapModel(path).entry("big").offset;
  // Cut the file mid-payload: the directory now promises bytes that are
  // not there.
  std::filesystem::resize_file(path, blob_offset + 8);
  EXPECT_THROW(MmapModel truncated(path), std::runtime_error);
}

TEST_F(FormatTest, TruncatedDirectoryRejected) {
  const std::string path = temp_path();
  Rng rng(178);
  ModelWriter writer(path);
  writer.add_tensor("t", Tensor::randn({8, 8}, rng));
  writer.finish();
  // Cut inside the front matter itself (header survives, directory does
  // not): parsing must fail on the truncated stream, not read garbage.
  // Descending sizes — resize_file only ever shrinks here (growing would
  // zero-fill and turn the directory into a valid empty one).
  for (const std::uintmax_t keep : {40u, 25u, 14u}) {
    std::filesystem::resize_file(path, keep);
    EXPECT_THROW(MmapModel cut(path), std::runtime_error) << keep;
  }
}

TEST_F(FormatTest, OutOfRangeTensorOffsetRejected) {
  const std::string path = temp_path();
  write_raw_model(path, /*dtype=*/0, {2, 2}, /*offset=*/1ULL << 40,
                  /*byte_size=*/16);
  EXPECT_THROW(MmapModel bad(path), std::runtime_error);
}

TEST_F(FormatTest, WrappingOffsetPlusSizeRejected) {
  // offset + byte_size overflows std::uint64_t back into range; the bound
  // check must be written subtraction-style to catch it.
  const std::string path = temp_path();
  write_raw_model(path, /*dtype=*/0, {2, 2},
                  /*offset=*/~std::uint64_t{0} - 8, /*byte_size=*/16);
  EXPECT_THROW(MmapModel bad(path), std::runtime_error);
}

TEST_F(FormatTest, UnknownDtypeRejected) {
  const std::string path = temp_path();
  write_raw_model(path, /*dtype=*/99, {2, 2}, /*offset=*/64,
                  /*byte_size=*/16);
  EXPECT_THROW(MmapModel bad(path), std::runtime_error);
}

TEST_F(FormatTest, NegativeDimensionRejected) {
  const std::string path = temp_path();
  write_raw_model(path, /*dtype=*/0, {2, -2}, /*offset=*/64,
                  /*byte_size=*/16);
  EXPECT_THROW(MmapModel bad(path), std::runtime_error);
}

TEST_F(FormatTest, ImplausibleRankRejected) {
  const std::string path = temp_path();
  write_raw_model(path, /*dtype=*/0, std::vector<std::int64_t>(9, 1),
                  /*offset=*/64, /*byte_size=*/4);
  EXPECT_THROW(MmapModel bad(path), std::runtime_error);
}

TEST_F(FormatTest, OverflowingShapeRejected) {
  // numel = 2^62: packed_byte_size(kF32, 2^62) wraps std::uint64_t to 0,
  // which would "match" a declared byte_size of 0 and pass the bounds
  // check trivially — the element count must be bounded before any byte
  // math happens.
  const std::string path = temp_path();
  write_raw_model(path, /*dtype=*/0, {std::int64_t{1} << 31,
                                      std::int64_t{1} << 31},
                  /*offset=*/64, /*byte_size=*/0);
  EXPECT_THROW(MmapModel bad(path), std::runtime_error);
}

TEST_F(FormatTest, Int64NumelOverflowRejected) {
  // dims whose product overflows std::int64_t itself (UB in shape_numel if
  // it were ever computed): the checked multiply must reject first.
  const std::string path = temp_path();
  write_raw_model(path, /*dtype=*/0, {std::int64_t{1} << 62,
                                      std::int64_t{1} << 62},
                  /*offset=*/64, /*byte_size=*/0);
  EXPECT_THROW(MmapModel bad(path), std::runtime_error);
}

TEST_F(FormatTest, BlobSizeShapeMismatchRejected) {
  // Directory says [2,2] f32 (16 bytes) but claims a 12-byte blob.
  const std::string path = temp_path();
  write_raw_model(path, /*dtype=*/0, {2, 2}, /*offset=*/64,
                  /*byte_size=*/12);
  EXPECT_THROW(MmapModel bad(path), std::runtime_error);
}

TEST_F(FormatTest, NonNumericMetadataIntRejected) {
  const std::string path = temp_path();
  ModelWriter writer(path);
  writer.set_metadata("vocab", "not-a-number");
  writer.set_metadata("embed_dim", "12abc");
  writer.add_tensor("x", Tensor({2}));
  writer.finish();
  const MmapModel model(path);
  EXPECT_THROW(model.metadata_int("vocab"), std::runtime_error);
  EXPECT_THROW(model.metadata_int("embed_dim"), std::runtime_error);
}

namespace {
// A structurally valid single-tensor model whose `technique` metadata is
// caller-chosen: enough for InferenceEngine construction to reach (and
// reject) the technique resolution.
void write_model_with_technique(const std::string& path,
                                const std::string& technique) {
  ModelWriter writer(path);
  writer.set_metadata("arch", "ranking");
  writer.set_metadata("technique", technique);
  writer.set_metadata_int("vocab", 16);
  writer.set_metadata_int("embed_dim", 4);
  writer.set_metadata_int("knob", 4);
  writer.set_metadata_int("output_dim", 2);
  writer.add_tensor("emb.table", Tensor({16, 4}));
  writer.finish();
}
}  // namespace

TEST_F(FormatTest, UnknownTechniqueStringRejectedByEngine) {
  const std::string path = temp_path();
  write_model_with_technique(path, "snake_oil");
  const MmapModel model(path);
  EXPECT_THROW(InferenceEngine engine(model, tflite_profile()),
               std::runtime_error);
}

TEST_F(FormatTest, RegistryTechniqueUnsupportedByEngineRejected) {
  // hashed_nets parses to a valid TechniqueKind but has no engine path;
  // the exhaustive switch must refuse it explicitly.
  const std::string path = temp_path();
  write_model_with_technique(path, "hashed_nets");
  const MmapModel model(path);
  EXPECT_THROW(InferenceEngine engine(model, tflite_profile()),
               std::runtime_error);
}

TEST(MemoryMeterUnit, PageCountingAndReset) {
  MemoryMeter meter(4096);
  meter.touch(0, 1);          // page 0
  meter.touch(4095, 2);       // pages 0 and 1
  meter.touch(4096 * 10, 1);  // page 10
  EXPECT_EQ(meter.touched_pages(), 3);
  EXPECT_EQ(meter.weight_resident_bytes(), 3 * 4096);
  meter.note_activation_bytes(1000);
  meter.note_activation_bytes(500);  // peak keeps the max
  EXPECT_EQ(meter.activation_peak_bytes(), 1000);
  EXPECT_EQ(meter.total_resident_bytes(), 3 * 4096 + 1000);
  meter.reset();
  EXPECT_EQ(meter.touched_pages(), 0);
  EXPECT_EQ(meter.activation_peak_bytes(), 0);
}

TEST(MemoryMeterUnit, ReadaheadAddsTrailingPages) {
  MemoryMeter meter(4096, /*readahead_pages=*/2);
  meter.touch(0, 1);
  EXPECT_EQ(meter.touched_pages(), 3);  // page 0 plus 2 readahead
}

TEST(MemoryMeterUnit, ZeroLengthTouchIgnored) {
  MemoryMeter meter(4096);
  meter.touch(100, 0);
  EXPECT_EQ(meter.touched_pages(), 0);
}

TEST(MemoryMeterUnit, DistinctPagesForLookupVsStream) {
  // The Table 3 mechanism in miniature: a 1000-row x 64-float table.
  const Index row_bytes = 64 * 4;
  MemoryMeter lookup(4096);
  for (const Index row : {3, 700, 999}) {  // three lookups
    lookup.touch(row * row_bytes, row_bytes);
  }
  MemoryMeter stream(4096);
  stream.touch(0, 1000 * row_bytes);  // one-hot path streams everything
  EXPECT_LT(lookup.weight_resident_bytes(), stream.weight_resident_bytes());
  EXPECT_EQ(stream.weight_resident_bytes(),
            ((1000 * row_bytes + 4095) / 4096) * 4096);
}

}  // namespace
}  // namespace memcom
