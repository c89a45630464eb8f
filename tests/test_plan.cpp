// Ahead-of-time compiled plans (ondevice/plan.h): build / serialize / decode
// round trip, PlanBuffer ownership semantics, checksum behaviour, and the
// hardening contract — every corruption of a v3 plan section (truncation,
// checksum mismatch, identity skew, hostile declared sizes, misalignment)
// must decode as kStale with a diagnosable reason and fall back to a full
// compile that serves BIT-IDENTICAL logits. A bad plan section may never
// take down a loadable model, and may never perturb a logit.
#include "ondevice/plan.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "ondevice/engine.h"
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

// Recomputes the trailing checksum of the plan section at [offset,
// offset+size) so structural corruptions survive the checksum gate and
// prove the CHECKS BEHIND IT fire, not just the checksum.
void reseal_plan(std::vector<std::uint8_t>& file, std::uint64_t offset,
                 std::uint64_t size) {
  const std::uint64_t sum =
      section_checksum(file.data() + offset, static_cast<std::size_t>(size - 8));
  std::memcpy(file.data() + offset + size - 8, &sum, 8);
}

std::vector<std::vector<std::int32_t>> small_corpus() {
  return {{}, {1}, {5, 0, 17, 0, 42}, {7, 7, 7, 7}, {1, 2, 3, 4, 5, 6, 7, 8}};
}

class PlanTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : paths_) {
      std::filesystem::remove(p);
    }
  }

  std::string export_model(const std::string& tag, bool emit_plan,
                           TechniqueKind kind = TechniqueKind::kMemcom,
                           const std::string& model_name = "aot",
                           std::uint64_t model_version = 3) {
    ModelConfig config;
    config.embedding.kind = kind;
    config.embedding.vocab = 150;
    config.embedding.embed_dim = 16;
    config.embedding.knob = kind == TechniqueKind::kFactorized ? 8 : 24;
    config.arch = ModelArch::kClassification;
    config.output_vocab = 24;
    config.seed = 20240;
    RecModel model(config);
    auto p = std::filesystem::temp_directory_path() /
             ("memcom_plan_" + tag + ".mcm");
    paths_.push_back(p);
    model.export_mcm(p.string(), DType::kI8, model_name, model_version,
                     /*group_size=*/0, emit_plan);
    return p.string();
  }

  // Asserts the corrupted file decodes as kStale with `reason_substr`, the
  // fallback loader still serves, and its logits match a forced compile of
  // the same (tensor-intact) file bit-for-bit.
  void expect_stale_fallback_identical(const std::string& path,
                                       const std::string& reason_substr) {
    auto mapped = std::make_shared<const MmapModel>(path);
    const PlanDecodeResult decoded = decode_plan(*mapped);
    ASSERT_EQ(decoded.status, PlanStatus::kStale) << reason_substr;
    EXPECT_NE(decoded.reason.find(reason_substr), std::string::npos)
        << "actual reason: " << decoded.reason;
    auto fallback = std::make_shared<const CompiledModel>(mapped);
    EXPECT_FALSE(fallback->plan_adopted());
    EXPECT_NE(fallback->plan_fallback_reason().find(reason_substr),
              std::string::npos)
        << fallback->plan_fallback_reason();
    auto forced = std::make_shared<const CompiledModel>(
        mapped, PlanPolicy::kNeverAdopt);
    InferenceEngine a(fallback, tflite_profile());
    InferenceEngine b(forced, tflite_profile());
    for (const auto& history : small_corpus()) {
      const Tensor got = a.run(history).logits;
      const Tensor want = b.run(history).logits;
      ASSERT_EQ(got.numel(), want.numel());
      for (Index c = 0; c < want.numel(); ++c) {
        EXPECT_EQ(got[c], want[c]) << reason_substr << " logit " << c;
      }
    }
  }

  std::vector<std::filesystem::path> paths_;
};

// --- PlanBuffer semantics ---------------------------------------------------

TEST(PlanBufferUnit, OwnedBufferCopiesAndReportsNotZeroCopy) {
  PlanBuffer buffer = PlanBuffer::owned({1.0f, 2.5f, -3.0f});
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.byte_size(), 12u);
  EXPECT_FALSE(buffer.empty());
  EXPECT_FALSE(buffer.zero_copy());
  EXPECT_EQ(buffer[1], 2.5f);
}

TEST(PlanBufferUnit, ViewBufferAliasesAndReportsZeroCopy) {
  const float backing[4] = {0.5f, 1.5f, 2.5f, 3.5f};
  PlanBuffer buffer = PlanBuffer::view(backing, 4);
  EXPECT_TRUE(buffer.zero_copy());
  EXPECT_EQ(buffer.data(), backing);
  EXPECT_EQ(buffer[3], 3.5f);
}

TEST(PlanBufferUnit, DefaultBufferIsEmpty) {
  PlanBuffer buffer;
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_FALSE(buffer.zero_copy());
}

TEST(PlanBufferUnit, MoveTransfersOwnedStorageWithoutDangling) {
  PlanBuffer a = PlanBuffer::owned(std::vector<float>(1024, 7.0f));
  PlanBuffer b = std::move(a);
  // The moved-to buffer must point into ITS OWN storage, not the moved-from
  // shell's — this is the reason PlanBuffer is move-only.
  EXPECT_EQ(b.size(), 1024u);
  for (std::size_t i = 0; i < b.size(); i += 257) {
    EXPECT_EQ(b[i], 7.0f);
  }
}

// --- Checksum ---------------------------------------------------------------

TEST(PlanChecksumUnit, SensitiveToEveryBytePosition) {
  std::vector<std::uint8_t> bytes(37);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 11 + 3);
  }
  const std::uint64_t base = section_checksum(bytes.data(), bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0x40;
    EXPECT_NE(section_checksum(bytes.data(), bytes.size()), base) << i;
    bytes[i] ^= 0x40;
  }
  EXPECT_EQ(section_checksum(bytes.data(), bytes.size()), base);
}

TEST(PlanChecksumUnit, LengthBoundRejectsZeroExtension) {
  // Trailing zeros change the checksum even though the word padding zero-
  // fills: a truncation that lands on zero bytes must not alias.
  std::vector<std::uint8_t> bytes(16, 0xAB);
  const std::uint64_t base = section_checksum(bytes.data(), bytes.size());
  bytes.push_back(0);
  EXPECT_NE(section_checksum(bytes.data(), bytes.size()), base);
}

// --- Round trip -------------------------------------------------------------

TEST_F(PlanTest, DecodeRoundTripsBuildBitExactly) {
  const std::string path = export_model("roundtrip", /*emit_plan=*/true);
  const MmapModel model(path);
  ASSERT_TRUE(model.has_plan_section());
  EXPECT_EQ(model.format_version(), 3u);
  EXPECT_EQ(model.plan_offset() % 64, 0u);

  const PlanDecodeResult decoded = decode_plan(model);
  ASSERT_EQ(decoded.status, PlanStatus::kValid) << decoded.reason;
  const CompiledPlan& got = decoded.plan;
  const CompiledPlan want = build_plan(model);

  EXPECT_EQ(got.model_name, "aot");
  EXPECT_EQ(got.model_version, 3u);
  EXPECT_EQ(got.arch, want.arch);
  EXPECT_EQ(got.technique, want.technique);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.vocab, want.vocab);
  EXPECT_EQ(got.embed_dim, want.embed_dim);
  EXPECT_EQ(got.hash_size, want.hash_size);
  EXPECT_EQ(got.hidden_dim, want.hidden_dim);
  EXPECT_EQ(got.output_dim, want.output_dim);
  ASSERT_EQ(got.handles.size(), want.handles.size());
  for (std::size_t i = 0; i < want.handles.size(); ++i) {
    EXPECT_EQ(got.handles[i].name, want.handles[i].name) << i;
    EXPECT_EQ(got.handles[i].index, want.handles[i].index) << i;
  }
  // The decoded buffers view the mapping (the cold-start win), and are
  // bit-identical to what the in-process builder produces.
  EXPECT_TRUE(got.zero_copy);
  const struct { const PlanBuffer* a; const PlanBuffer* b; } pairs[] = {
      {&got.bn1_scale, &want.bn1_scale}, {&got.bn1_shift, &want.bn1_shift},
      {&got.bn2_scale, &want.bn2_scale}, {&got.bn2_shift, &want.bn2_shift},
      {&got.dense1_bias, &want.dense1_bias}, {&got.out_bias, &want.out_bias},
      {&got.projection, &want.projection},
  };
  for (const auto& [a, b] : pairs) {
    ASSERT_EQ(a->size(), b->size());
    if (!a->empty()) {
      EXPECT_TRUE(a->zero_copy());
      EXPECT_FALSE(b->zero_copy());
      EXPECT_EQ(std::memcmp(a->data(), b->data(), a->byte_size()), 0);
    }
  }
}

TEST_F(PlanTest, FactorizedPlanCarriesProjectionAndFactorDim) {
  const std::string path = export_model("factorized", /*emit_plan=*/true,
                                        TechniqueKind::kFactorized);
  const MmapModel model(path);
  const PlanDecodeResult decoded = decode_plan(model);
  ASSERT_EQ(decoded.status, PlanStatus::kValid) << decoded.reason;
  EXPECT_EQ(decoded.plan.kind, Technique::kFactorized);
  EXPECT_EQ(decoded.plan.factor_dim, 8);
  EXPECT_EQ(decoded.plan.projection.size(),
            static_cast<std::size_t>(8 * decoded.plan.embed_dim));
}

TEST_F(PlanTest, SerializeDecodeIsDeterministic) {
  const std::string path = export_model("determinism", /*emit_plan=*/true);
  const MmapModel model(path);
  const std::vector<std::uint8_t> a = serialize_plan(build_plan(model));
  const std::vector<std::uint8_t> b = serialize_plan(build_plan(model));
  EXPECT_EQ(a, b);
  // And it is byte-identical to the section the writer embedded: the
  // fallback-equals-adoption guarantee is structural, not statistical.
  ASSERT_EQ(model.plan_size(), a.size());
  EXPECT_EQ(std::memcmp(model.plan_data(), a.data(), a.size()), 0);
}

// --- Adoption ---------------------------------------------------------------

TEST_F(PlanTest, AdoptedPlanServesBitIdenticalToFullCompile) {
  const std::string path = export_model("adopt", /*emit_plan=*/true);
  auto mapped = std::make_shared<const MmapModel>(path);
  auto adopted = std::make_shared<const CompiledModel>(mapped);
  EXPECT_TRUE(adopted->plan_adopted());
  EXPECT_TRUE(adopted->plan_fallback_reason().empty());
  auto compiled = std::make_shared<const CompiledModel>(
      mapped, PlanPolicy::kNeverAdopt);
  EXPECT_FALSE(compiled->plan_adopted());
  EXPECT_EQ(compiled->plan_fallback_reason(), "plan adoption disabled");
  InferenceEngine a(adopted, tflite_profile());
  InferenceEngine b(compiled, tflite_profile());
  for (const auto& history : small_corpus()) {
    const Tensor got = a.run(history).logits;
    const Tensor want = b.run(history).logits;
    ASSERT_EQ(got.numel(), want.numel());
    for (Index c = 0; c < want.numel(); ++c) {
      EXPECT_EQ(got[c], want[c]) << c;
    }
  }
}

TEST_F(PlanTest, PlanlessFileDecodesAbsentAndCompiles) {
  const std::string path = export_model("planless", /*emit_plan=*/false);
  auto mapped = std::make_shared<const MmapModel>(path);
  EXPECT_FALSE(mapped->has_plan_section());
  EXPECT_EQ(decode_plan(*mapped).status, PlanStatus::kAbsent);
  const CompiledModel compiled(*mapped);
  EXPECT_FALSE(compiled.plan_adopted());
  EXPECT_EQ(compiled.plan_fallback_reason(), "no plan section");
}

// --- Hardening: every corruption is kStale + bit-identical fallback ---------

TEST_F(PlanTest, TruncatedPlanSectionFallsBack) {
  const std::string path = export_model("truncated", /*emit_plan=*/true);
  std::uint64_t offset = 0, size = 0;
  {
    const MmapModel model(path);
    offset = model.plan_offset();
    size = model.plan_size();
  }
  // Cut mid-section: the v3 header still declares the full size, so the
  // section now reaches past EOF — flagged leniently at open, stale at
  // decode, and the tensors (all before the plan) keep serving.
  std::filesystem::resize_file(path, offset + size / 2);
  {
    const MmapModel model(path);  // must NOT throw
    EXPECT_TRUE(model.has_plan_section());
    EXPECT_EQ(model.plan_data(), nullptr);
  }
  expect_stale_fallback_identical(path, "out of file bounds");
}

TEST_F(PlanTest, ChecksumMismatchFallsBack) {
  const std::string path = export_model("checksum", /*emit_plan=*/true);
  std::vector<std::uint8_t> bytes = read_file(path);
  std::uint64_t offset = 0, size = 0;
  {
    const MmapModel model(path);
    offset = model.plan_offset();
    size = model.plan_size();
  }
  bytes[offset + size / 2] ^= 0x01;  // single bit, mid-section
  write_file(path, bytes);
  expect_stale_fallback_identical(path, "checksum mismatch");
}

TEST_F(PlanTest, ModelVersionSkewFallsBack) {
  const std::string path = export_model("verskew", /*emit_plan=*/true);
  std::vector<std::uint8_t> bytes = read_file(path);
  std::uint64_t offset = 0, size = 0;
  std::string name;
  {
    const MmapModel model(path);
    offset = model.plan_offset();
    size = model.plan_size();
    name = model.model_name();
  }
  // The plan's own model_version u64 sits right after the fixed prefix and
  // the model_name string (u64 length + bytes); bump it and re-seal,
  // simulating a plan from a different refresh of the model spliced in.
  const std::uint64_t version_at = offset + 16 + 8 + name.size();
  std::uint64_t version = 0;
  std::memcpy(&version, bytes.data() + version_at, 8);
  ASSERT_EQ(version, 3u);
  ++version;
  std::memcpy(bytes.data() + version_at, &version, 8);
  reseal_plan(bytes, offset, size);
  write_file(path, bytes);
  expect_stale_fallback_identical(path, "model_version skew");
}

// Walks the serialized plan header with the same primitives the decoder
// uses and returns the absolute file position of the first buffer-table
// (count, offset) pair.
std::uint64_t buffer_table_position(const std::vector<std::uint8_t>& bytes,
                                    std::uint64_t plan_offset,
                                    std::uint64_t plan_size) {
  std::istringstream is(std::string(
      reinterpret_cast<const char*>(bytes.data() + plan_offset),
      static_cast<std::size_t>(plan_size)));
  is.ignore(16);       // magic, format, endian, flags
  read_string(is);     // model_name
  read_u64(is);        // model_version
  read_string(is);     // arch
  read_string(is);     // technique
  for (int i = 0; i < 6; ++i) {
    read_i64(is);      // dims
  }
  const std::uint64_t handles = read_u64(is);
  for (std::uint64_t i = 0; i < handles; ++i) {
    read_string(is);
    read_u64(is);
  }
  read_u64(is);        // buffer count
  return plan_offset + static_cast<std::uint64_t>(is.tellg());
}

TEST_F(PlanTest, OversizedDeclaredBufferFallsBack) {
  const std::string path = export_model("oversized", /*emit_plan=*/true);
  std::vector<std::uint8_t> bytes = read_file(path);
  std::uint64_t offset = 0, size = 0;
  {
    const MmapModel model(path);
    offset = model.plan_offset();
    size = model.plan_size();
  }
  const std::uint64_t table = buffer_table_position(bytes, offset, size);
  // Declare the first buffer (bn1_scale, always present) absurdly large and
  // re-seal: the checksum now passes, so only the overflow-safe bounds
  // check stands between the loader and a wild read.
  const std::uint64_t huge = 1ULL << 60;
  std::memcpy(bytes.data() + table, &huge, 8);
  reseal_plan(bytes, offset, size);
  write_file(path, bytes);
  expect_stale_fallback_identical(path, "out of section bounds");
}

TEST_F(PlanTest, MisalignedBufferOffsetFallsBack) {
  const std::string path = export_model("misaligned", /*emit_plan=*/true);
  std::vector<std::uint8_t> bytes = read_file(path);
  std::uint64_t offset = 0, size = 0;
  {
    const MmapModel model(path);
    offset = model.plan_offset();
    size = model.plan_size();
  }
  const std::uint64_t table = buffer_table_position(bytes, offset, size);
  std::uint64_t buf_offset = 0;
  std::memcpy(&buf_offset, bytes.data() + table + 8, 8);
  buf_offset += 4;  // still in bounds, no longer 64-aligned
  std::memcpy(bytes.data() + table + 8, &buf_offset, 8);
  reseal_plan(bytes, offset, size);
  write_file(path, bytes);
  expect_stale_fallback_identical(path, "misaligned");
}

TEST_F(PlanTest, ClearedScalarPredequantFlagFallsBack) {
  const std::string path = export_model("flags", /*emit_plan=*/true);
  std::vector<std::uint8_t> bytes = read_file(path);
  std::uint64_t offset = 0, size = 0;
  {
    const MmapModel model(path);
    offset = model.plan_offset();
    size = model.plan_size();
  }
  // A future writer that drops the scalar-predequant guarantee clears the
  // flag; this reader must refuse rather than risk kernel-dependent logits.
  const std::uint32_t flags = 0;
  std::memcpy(bytes.data() + offset + 12, &flags, 4);
  reseal_plan(bytes, offset, size);
  write_file(path, bytes);
  expect_stale_fallback_identical(path, "not scalar-predequantized");
}

TEST_F(PlanTest, BadPlanMagicFallsBack) {
  const std::string path = export_model("magic", /*emit_plan=*/true);
  std::vector<std::uint8_t> bytes = read_file(path);
  std::uint64_t offset = 0, size = 0;
  {
    const MmapModel model(path);
    offset = model.plan_offset();
    size = model.plan_size();
  }
  bytes[offset] ^= 0xFF;
  reseal_plan(bytes, offset, size);
  write_file(path, bytes);
  expect_stale_fallback_identical(path, "bad plan magic");
}

}  // namespace
}  // namespace memcom
