// The kernel-layer contract (src/ondevice/kernels.h):
//   * packed_byte_span rounds sub-byte bit intervals OUT to whole bytes
//     (the touch() undercount regression);
//   * select_kernels honors MEMCOM_DISABLE_SIMD / MEMCOM_ENABLE_FMA;
//   * every dispatched kernel except the opt-in fused MACs is BIT-identical
//     to the scalar reference (compared with memcmp, not float ==, so
//     -0.0 vs +0.0 and NaN payload differences cannot hide);
//   * each family's axpy_block is bit-identical to kBlock sequential calls
//     of its own axpy;
//   * the fused axpy stays within the documented one-rounding tolerance.
#include "ondevice/kernels.h"

#include <gtest/gtest.h>

#include "test_util.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/rng.h"
#include "ondevice/execution_context.h"

namespace memcom {
namespace {

using test::ScopedEnv;

bool bits_equal(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// Codec view over an in-memory QuantizedTensor (mirrors what
// CompiledModel::resolve builds from a directory entry).
SpanSrc make_src(const QuantizedTensor& q) {
  SpanSrc src;
  src.dtype = q.dtype;
  src.scale = q.scale;
  src.payload = q.payload.data();
  if (q.dtype == DType::kI4G) {
    src.group_scales = reinterpret_cast<const float*>(q.payload.data());
    src.packed = q.payload.data() +
                 i4g_scales_bytes(static_cast<std::size_t>(q.numel()),
                                  q.group_size);
    src.group_size = q.group_size;
  }
  return src;
}


// --- packed_byte_span: the touch() undercount regression -------------------

TEST(PackedByteSpan, UnalignedI4SpanCoversBothBytes) {
  // Elements 1..2 at 4 bits occupy bits [4, 12): bytes 0 AND 1. The old
  // formula ceil(count*bits/8) = 1 byte was the undercount bug.
  const ByteSpan span = packed_byte_span(/*offset=*/1, /*count=*/2, 4);
  EXPECT_EQ(span.offset, 0);
  EXPECT_EQ(span.length, 2);
}

TEST(PackedByteSpan, MatchesExactBitIntervalForAllSmallSpans) {
  for (const int bits : {4, 8, 16, 32}) {
    for (Index offset = 0; offset <= 19; ++offset) {
      for (Index count = 0; count <= 19; ++count) {
        const ByteSpan span = packed_byte_span(offset, count, bits);
        const Index first_bit = offset * bits;
        const Index last_bit = (offset + count) * bits;
        EXPECT_EQ(span.offset, first_bit / 8);
        EXPECT_EQ(span.length, (last_bit + 7) / 8 - first_bit / 8)
            << "bits=" << bits << " offset=" << offset << " count=" << count;
      }
    }
  }
}

TEST(PackedByteSpan, ByteAlignedDtypesDegradeToPlainArithmetic) {
  const ByteSpan span = packed_byte_span(3, 5, 32);
  EXPECT_EQ(span.offset, 12);
  EXPECT_EQ(span.length, 20);
}

// --- dispatch selection ----------------------------------------------------

TEST(KernelDispatch, DisableSimdForcesScalar) {
  ScopedEnv disable("MEMCOM_DISABLE_SIMD", "1");
  EXPECT_STREQ(select_kernels().name, "scalar");
}

TEST(KernelDispatch, SelectedFamilyIsKnown) {
  ScopedEnv disable("MEMCOM_DISABLE_SIMD", nullptr);
  ScopedEnv fma("MEMCOM_ENABLE_FMA", nullptr);
  const std::string name = select_kernels().name;
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "neon-stub")
      << name;
}

TEST(KernelDispatch, FmaIsOptInOnTop) {
  ScopedEnv disable("MEMCOM_DISABLE_SIMD", nullptr);
  {
    ScopedEnv fma("MEMCOM_ENABLE_FMA", nullptr);
    EXPECT_STRNE(select_kernels().name, "avx2+fma");
  }
  ScopedEnv fma("MEMCOM_ENABLE_FMA", "1");
  const std::string name = select_kernels().name;
  if (std::string(scalar_kernels().name) != name && name.rfind("avx2", 0) == 0) {
    EXPECT_EQ(name, "avx2+fma");
  }
}

TEST(KernelDispatch, OnlyTheFmaSetIsFused) {
  ScopedEnv disable("MEMCOM_DISABLE_SIMD", nullptr);
  EXPECT_FALSE(scalar_kernels().fused);
  {
    ScopedEnv fma("MEMCOM_ENABLE_FMA", nullptr);
    EXPECT_FALSE(select_kernels().fused) << select_kernels().name;
  }
  ScopedEnv fma("MEMCOM_ENABLE_FMA", "1");
  const KernelSet& k = select_kernels();
  EXPECT_EQ(k.fused, std::string(k.name) == "avx2+fma") << k.name;
}

// The sweep's hot AVX2 kernels each start on a 64-byte line, wherever the
// linker puts the rest of the code.
TEST(KernelDispatch, HotAvx2KernelsStartOnACacheLine) {
  ScopedEnv disable("MEMCOM_DISABLE_SIMD", nullptr);
  const auto line_offset = [](auto fn) {
    return reinterpret_cast<std::uintptr_t>(fn) % 64;
  };
  {
    ScopedEnv fma("MEMCOM_ENABLE_FMA", nullptr);
    const KernelSet& k = select_kernels();
    if (std::string(k.name) != "avx2") {
      GTEST_SKIP() << "AVX2 not dispatched (" << k.name << ")";
    }
    EXPECT_EQ(line_offset(k.dequant_span), 0u);
    EXPECT_EQ(line_offset(k.axpy), 0u);
    EXPECT_EQ(line_offset(k.axpy_block), 0u);
    EXPECT_EQ(line_offset(k.acc_add), 0u);
    EXPECT_EQ(line_offset(k.first_ge), 0u);
  }
  ScopedEnv fma("MEMCOM_ENABLE_FMA", "1");
  const KernelSet& k = select_kernels();
  if (std::string(k.name) == "avx2+fma") {
    EXPECT_EQ(line_offset(k.axpy), 0u);
    EXPECT_EQ(line_offset(k.axpy_block), 0u);
  }
}

TEST(KernelDispatch, ScalarSetIsComplete) {
  const KernelSet& k = scalar_kernels();
  EXPECT_NE(k.dequant_span, nullptr);
  EXPECT_NE(k.acc_add, nullptr);
  EXPECT_NE(k.acc_scale_add, nullptr);
  EXPECT_NE(k.acc_scale_bias_add, nullptr);
  EXPECT_NE(k.acc_mult_add, nullptr);
  EXPECT_NE(k.axpy, nullptr);
  EXPECT_NE(k.axpy_block, nullptr);
  EXPECT_NE(k.dot, nullptr);
  EXPECT_NE(k.first_ge, nullptr);
}

// --- dispatched accumulate kernels: bit-identical to scalar ----------------

// Sizes straddle the 8-lane vector body: tails, exact multiples, tiny.
const Index kSizes[] = {1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 40, 63, 100};

std::vector<float> random_vec(Index n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) {
    x = rng.uniform(-2.0f, 2.0f);
  }
  // Sprinkle signed zeros and denormal-scale values: the cases where a
  // "same value" kernel can still differ in bit pattern.
  if (n >= 3) {
    v[0] = -0.0f;
    v[1] = 0.0f;
    v[2] = 1e-40f;
  }
  return v;
}

TEST(KernelBitIdentity, AccumulateFamilyMatchesScalarExactly) {
  ScopedEnv disable("MEMCOM_DISABLE_SIMD", nullptr);
  ScopedEnv fma("MEMCOM_ENABLE_FMA", nullptr);
  const KernelSet& simd = select_kernels();
  const KernelSet& ref = scalar_kernels();
  Rng rng(601);
  for (const Index n : kSizes) {
    const std::vector<float> row = random_vec(n, rng);
    const std::vector<float> other = random_vec(n, rng);
    const std::vector<float> base = random_vec(n, rng);
    for (const float m : {0.5f, -0.0f, 0.0f, -1.75f}) {
      std::vector<float> a = base;
      std::vector<float> b = base;
      ref.acc_scale_add(a.data(), row.data(), m, n);
      simd.acc_scale_add(b.data(), row.data(), m, n);
      EXPECT_TRUE(bits_equal(a.data(), b.data(), a.size()))
          << "acc_scale_add n=" << n << " m=" << m;

      a = base;
      b = base;
      ref.acc_scale_bias_add(a.data(), row.data(), m, 0.25f, n);
      simd.acc_scale_bias_add(b.data(), row.data(), m, 0.25f, n);
      EXPECT_TRUE(bits_equal(a.data(), b.data(), a.size()))
          << "acc_scale_bias_add n=" << n << " m=" << m;

      a = base;
      b = base;
      ref.axpy(a.data(), m, row.data(), n);
      simd.axpy(b.data(), m, row.data(), n);
      EXPECT_TRUE(bits_equal(a.data(), b.data(), a.size()))
          << "axpy n=" << n << " a=" << m;
    }
    std::vector<float> a = base;
    std::vector<float> b = base;
    ref.acc_add(a.data(), row.data(), n);
    simd.acc_add(b.data(), row.data(), n);
    EXPECT_TRUE(bits_equal(a.data(), b.data(), a.size())) << "acc_add n=" << n;

    a = base;
    b = base;
    ref.acc_mult_add(a.data(), row.data(), other.data(), n);
    simd.acc_mult_add(b.data(), row.data(), other.data(), n);
    EXPECT_TRUE(bits_equal(a.data(), b.data(), a.size()))
        << "acc_mult_add n=" << n;
  }
}

// --- axpy_block: kBlock sequential axpy calls, bit for bit ----------------

// Every family's blocked MAC against its own axpy called once per weight
// row (the fused family included: it must fuse each product the same way),
// and the unfused families against each other. Weight rows sit `stride`
// apart — the sweep's decoded tile and an odd stride — and both the
// coefficients and the weights carry ±0 and denormals.
TEST(KernelBitIdentity, AxpyBlockEqualsSequentialAxpyInEveryFamily) {
  ScopedEnv disable("MEMCOM_DISABLE_SIMD", nullptr);
  std::vector<const KernelSet*> families = {&scalar_kernels()};
  {
    ScopedEnv fma("MEMCOM_ENABLE_FMA", nullptr);
    families.push_back(&select_kernels());
  }
  {
    ScopedEnv fma("MEMCOM_ENABLE_FMA", "1");
    families.push_back(&select_kernels());
  }
  constexpr Index kB = KernelSet::kBlock;
  const std::vector<std::vector<float>> coefficient_sets = {
      {0.5f, -0.0f, 1e-40f, -1.75f, 0.0f, 3.0f, -2.5e-39f, 1.0f},
      {-0.0f, -0.0f, 0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f},
      {1.25f, -0.75f, 2.0f, -3.5f, 0.0625f, -1.0f, 0.3f, -0.9f},
  };
  Rng rng(604);
  for (const Index stride : {ExecutionContext::kDenseTile, Index{101}}) {
    for (const Index n : kSizes) {
      std::vector<float> w(static_cast<std::size_t>(kB * stride), 7.0f);
      for (Index j = 0; j < kB; ++j) {
        const std::vector<float> row = random_vec(n, rng);
        std::copy(row.begin(), row.end(), w.begin() + j * stride);
        w[static_cast<std::size_t>(j * stride + n - 1)] = -1e-39f;
      }
      const std::vector<float> base = random_vec(n, rng);
      for (const std::vector<float>& a : coefficient_sets) {
        std::vector<float> unfused;
        for (const KernelSet* k : families) {
          std::vector<float> want = base;
          for (Index j = 0; j < kB; ++j) {
            k->axpy(want.data(), a[static_cast<std::size_t>(j)],
                    w.data() + j * stride, n);
          }
          std::vector<float> got = base;
          k->axpy_block(got.data(), a.data(), w.data(), stride, n);
          EXPECT_TRUE(bits_equal(got.data(), want.data(), got.size()))
              << k->name << " stride=" << stride << " n=" << n;
          if (k->fused) {
            continue;
          }
          if (unfused.empty()) {
            unfused = got;
          }
          EXPECT_TRUE(bits_equal(got.data(), unfused.data(), got.size()))
              << k->name << " vs scalar, stride=" << stride << " n=" << n;
        }
      }
    }
  }
}

// --- dispatched dequant_span: bit-identical for every codec ----------------

TEST(KernelBitIdentity, DequantSpanMatchesScalarForEveryDtypeAndOffset) {
  ScopedEnv disable("MEMCOM_DISABLE_SIMD", nullptr);
  const KernelSet& simd = select_kernels();
  const KernelSet& ref = scalar_kernels();
  Rng rng(602);
  // 1003 elements: the last i4g group is partial for every group size
  // below. Offsets step by 3, so spans start mid-group, mid-byte and off
  // the 8-lane grid; the 3g+5 counts end mid-group after crossing at least
  // three group seams.
  const Tensor t = Tensor::randn({1003}, rng, 0.3f);
  struct Case {
    DType dtype;
    Index group_size;
  };
  for (const Case c : {Case{DType::kF32, 0}, Case{DType::kF16, 0},
                       Case{DType::kI8, 0}, Case{DType::kI4, 0},
                       Case{DType::kI4G, 8}, Case{DType::kI4G, 32},
                       Case{DType::kI4G, 64}, Case{DType::kI4G, 256}}) {
    const QuantizedTensor q = quantize(t, c.dtype, c.group_size);
    const SpanSrc src = make_src(q);
    const Index n = q.numel();
    const Index seams = 3 * std::max<Index>(c.group_size, 8) + 5;
    for (Index offset = 0; offset < n; offset += 3) {
      for (const Index count : {Index{1}, Index{2}, Index{7}, Index{8},
                                Index{17}, seams, n - offset}) {
        if (count <= 0 || offset + count > n) {
          continue;
        }
        std::vector<float> a(static_cast<std::size_t>(count), -7.0f);
        std::vector<float> b(static_cast<std::size_t>(count), 7.0f);
        ref.dequant_span(src, offset, count, a.data());
        simd.dequant_span(src, offset, count, b.data());
        EXPECT_TRUE(bits_equal(a.data(), b.data(), a.size()))
            << dtype_name(c.dtype) << "/" << c.group_size
            << " offset=" << offset << " count=" << count;
      }
    }
  }
}

// --- first_ge: the top-k filter's compare, identical across families -------

TEST(KernelBitIdentity, FirstGeMatchesScalarAtEveryOffset) {
  ScopedEnv disable("MEMCOM_DISABLE_SIMD", nullptr);
  const KernelSet& simd = select_kernels();
  const KernelSet& ref = scalar_kernels();
  Rng rng(606);
  const Index n = 203;
  std::vector<float> s = random_vec(n, rng);
  s[40] = -0.0f;
  s[90] = 0.0f;
  s[150] = s[151] = 1.0f;
  for (const float t : {-3.0f, -0.0f, 0.0f, 1.0f, s[7], 2.5f, 9.0f}) {
    for (Index offset = 0; offset <= n; ++offset) {
      const Index want = ref.first_ge(s.data() + offset, n - offset, t);
      Index plain = offset;
      while (plain < n && !(s[static_cast<std::size_t>(plain)] >= t)) {
        ++plain;
      }
      EXPECT_EQ(want, plain - offset) << "t=" << t << " offset=" << offset;
      EXPECT_EQ(simd.first_ge(s.data() + offset, n - offset, t), want)
          << simd.name << " t=" << t << " offset=" << offset;
    }
  }
}

// --- dot kernel: striped contract, bit-identical across families -----------

TEST(KernelBitIdentity, DotMatchesScalarExactly) {
  ScopedEnv disable("MEMCOM_DISABLE_SIMD", nullptr);
  ScopedEnv fma("MEMCOM_ENABLE_FMA", nullptr);
  const KernelSet& simd = select_kernels();
  const KernelSet& ref = scalar_kernels();
  Rng rng(604);
  for (const Index n : kSizes) {
    const std::vector<float> a = random_vec(n, rng);
    const std::vector<float> b = random_vec(n, rng);
    const float rs = ref.dot(a.data(), b.data(), n);
    const float vs = simd.dot(a.data(), b.data(), n);
    EXPECT_TRUE(bits_equal(&rs, &vs, 1)) << "dot n=" << n;
  }
  // Adversarial all-equal and signed-zero vectors: catches a reduce order
  // that happens to agree on random data but not on exact cancellation.
  for (const Index n : kSizes) {
    std::vector<float> a(static_cast<std::size_t>(n), 0.25f);
    std::vector<float> b(static_cast<std::size_t>(n), -0.0f);
    const float rs = ref.dot(a.data(), b.data(), n);
    const float vs = simd.dot(a.data(), b.data(), n);
    EXPECT_TRUE(bits_equal(&rs, &vs, 1)) << "dot signed-zero n=" << n;
  }
}

TEST(KernelBitIdentity, F16DequantMatchesForEveryFiniteBitPattern) {
  // Exhaustive over the half-precision space minus NaNs: hardware VCVTPH2PS
  // (the AVX2 path) quiets signaling NaNs where the software converter
  // preserves the payload, so NaN patterns are excluded by design — weights
  // are never NaN.
  ScopedEnv disable("MEMCOM_DISABLE_SIMD", nullptr);
  const KernelSet& simd = select_kernels();
  const KernelSet& ref = scalar_kernels();
  std::vector<std::uint16_t> halves;
  halves.reserve(1 << 16);
  for (std::uint32_t h = 0; h < (1u << 16); ++h) {
    const bool is_nan = (h & 0x7C00u) == 0x7C00u && (h & 0x03FFu) != 0;
    if (!is_nan) {
      halves.push_back(static_cast<std::uint16_t>(h));
    }
  }
  SpanSrc src;
  src.dtype = DType::kF16;
  src.payload = reinterpret_cast<const std::uint8_t*>(halves.data());
  const Index n = static_cast<Index>(halves.size());
  std::vector<float> a(halves.size()), b(halves.size());
  ref.dequant_span(src, 0, n, a.data());
  simd.dequant_span(src, 0, n, b.data());
  EXPECT_TRUE(bits_equal(a.data(), b.data(), a.size()));
}

// --- i4 / i4g golden spans -------------------------------------------------

TEST(DequantGolden, UnalignedI4SpanReadsTheRightNibbles) {
  // Payload bytes: 0x21 0x43 0x87 -> elements (low nibble first):
  //   1, 2, 3, 4, 7, -8  (0x8 sign-extends to -8)
  const std::uint8_t payload[] = {0x21, 0x43, 0x87};
  SpanSrc src;
  src.dtype = DType::kI4;
  src.scale = 0.5f;
  src.payload = payload;
  float out[6] = {};
  // Odd offset, even count: straddles byte 0 and byte 1.
  scalar_kernels().dequant_span(src, 1, 2, out);
  EXPECT_EQ(out[0], 1.0f);   // element 1 = 2 * 0.5
  EXPECT_EQ(out[1], 1.5f);   // element 2 = 3 * 0.5
  // Tail crossing into the sign-extended nibble.
  scalar_kernels().dequant_span(src, 4, 2, out);
  EXPECT_EQ(out[0], 3.5f);   // element 4 = 7 * 0.5
  EXPECT_EQ(out[1], -4.0f);  // element 5 = -8 * 0.5
  // Full span sanity.
  scalar_kernels().dequant_span(src, 0, 6, out);
  const float expect[] = {0.5f, 1.0f, 1.5f, 2.0f, 3.5f, -4.0f};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(out[i], expect[i]) << i;
  }
}

TEST(DequantGolden, I4GSpanAppliesPerGroupScales) {
  // Two groups of 8; group scales 1.0 and 0.25. Elements are i in group 0
  // and -1 in group 1.
  std::vector<float> values;
  for (int i = 0; i < 8; ++i) {
    values.push_back(static_cast<float>(i));
  }
  for (int i = 0; i < 8; ++i) {
    values.push_back(-1.0f);
  }
  Tensor t({16});
  std::copy(values.begin(), values.end(), t.data());
  const QuantizedTensor q = quantize(t, DType::kI4G, /*group_size=*/8);
  const SpanSrc src = make_src(q);
  // Group 0 absmax 7 -> scale 1.0; group 1 absmax 1 -> scale 1/7.
  EXPECT_EQ(src.group_scales[0], 1.0f);
  EXPECT_EQ(src.group_scales[1], 1.0f / 7.0f);
  float out[4] = {};
  // Span straddling the group boundary at an odd element offset.
  scalar_kernels().dequant_span(src, 7, 2, out);
  EXPECT_EQ(out[0], 7.0f);
  EXPECT_EQ(out[1], -1.0f);
  // Unaligned span entirely inside group 1.
  scalar_kernels().dequant_span(src, 9, 3, out);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i], -1.0f) << i;
  }
}

// --- fused axpy: documented tolerance, not bit-exactness -------------------

TEST(KernelTolerance, FusedAxpyStaysWithinOneRoundingOfScalar) {
  ScopedEnv disable("MEMCOM_DISABLE_SIMD", nullptr);
  ScopedEnv fma("MEMCOM_ENABLE_FMA", "1");
  const KernelSet& fused = select_kernels();
  if (std::string(fused.name) != "avx2+fma") {
    GTEST_SKIP() << "no FMA hardware dispatched (" << fused.name << ")";
  }
  const KernelSet& ref = scalar_kernels();
  Rng rng(603);
  for (const Index n : kSizes) {
    const std::vector<float> x = random_vec(n, rng);
    const std::vector<float> base = random_vec(n, rng);
    const float a = 1.3f;
    std::vector<float> ys = base;
    std::vector<float> yf = base;
    ref.axpy(ys.data(), a, x.data(), n);
    fused.axpy(yf.data(), a, x.data(), n);
    for (std::size_t i = 0; i < ys.size(); ++i) {
      // One fused vs two roundings: the difference is bounded by half an
      // ulp of the product magnitude.
      const float bound =
          std::fabs(a * x[i]) * 0x1.0p-23f + std::fabs(ys[i]) * 0x1.0p-23f +
          1e-38f;
      EXPECT_NEAR(ys[i], yf[i], bound) << "n=" << n << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace memcom
