#include "ondevice/kernels.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "core/check.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define MEMCOM_KERNELS_X86 1
#endif

namespace memcom {

ByteSpan packed_byte_span(Index offset, Index count, int bits) {
  // Cover bits [offset*bits, (offset+count)*bits) rounded OUT to bytes.
  // Computing the length as ceil(count*bits/8) would drop the partial byte
  // a mid-byte start adds (i4 offset=1 count=2 spans two bytes, not one).
  const Index first_bit = offset * static_cast<Index>(bits);
  const Index last_bit = (offset + count) * static_cast<Index>(bits);
  ByteSpan span;
  span.offset = first_bit / 8;
  span.length = (last_bit + 7) / 8 - span.offset;
  return span;
}

namespace {

// The pinned reduction of the dot kernel's 8 striped lanes. Shared by the
// scalar and AVX2 bodies so the final sum order can never drift apart.
inline float reduce8(const float lane[8]) {
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

}  // namespace

// ---------------------------------------------------------------------------
// Scalar reference family. These bodies ARE the contract: every other
// family must reproduce them bit-for-bit (except the opt-in fused axpy).
// ---------------------------------------------------------------------------
namespace scalar {

void dequant_span(const SpanSrc& src, Index offset, Index count, float* out) {
  if (src.dtype == DType::kI4G) {
    dequantize_span_i4g(src.group_scales, src.packed, src.group_size, offset,
                        count, out);
    return;
  }
  dequantize_span(src.dtype, src.scale, src.payload, offset, count, out);
}

void acc_add(float* acc, const float* row, Index n) {
  for (Index i = 0; i < n; ++i) {
    acc[i] += row[i];
  }
}

void acc_scale_add(float* acc, const float* row, float m, Index n) {
  for (Index i = 0; i < n; ++i) {
    acc[i] += row[i] * m;
  }
}

void acc_scale_bias_add(float* acc, const float* row, float m, float b,
                        Index n) {
  for (Index i = 0; i < n; ++i) {
    acc[i] += row[i] * m + b;
  }
}

void acc_mult_add(float* acc, const float* a, const float* b, Index n) {
  for (Index i = 0; i < n; ++i) {
    acc[i] += a[i] * b[i];
  }
}

void axpy(float* y, float a, const float* x, Index n) {
  for (Index i = 0; i < n; ++i) {
    y[i] += a * x[i];
  }
}

void axpy_block(float* y, const float* a, const float* w, Index stride,
                Index n) {
  for (Index i = 0; i < n; ++i) {
    float acc = y[i];
    for (Index j = 0; j < KernelSet::kBlock; ++j) {
      acc += a[j] * w[j * stride + i];
    }
    y[i] = acc;
  }
}

// 8-lane striped accumulation (see the KernelSet contract): element i lands
// in lane i&7, which is exactly the lane an 8-wide vector accumulator would
// give it, so the AVX2 body below is bit-identical by construction.
float dot(const float* a, const float* b, Index n) {
  float lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (Index i = 0; i < n; ++i) {
    lane[i & 7] += a[i] * b[i];
  }
  return reduce8(lane);
}

Index first_ge(const float* s, Index n, float t) {
  for (Index i = 0; i < n; ++i) {
    if (s[i] >= t) {
      return i;
    }
  }
  return n;
}

}  // namespace scalar

namespace {

const KernelSet kScalar = {
    "scalar",           scalar::dequant_span,       scalar::acc_add,
    scalar::acc_scale_add, scalar::acc_scale_bias_add, scalar::acc_mult_add,
    scalar::axpy,       scalar::axpy_block,         scalar::dot,
    scalar::first_ge,   /*fused=*/false,
};

}  // namespace

const KernelSet& scalar_kernels() { return kScalar; }

// ---------------------------------------------------------------------------
// AVX2 family (x86-64, runtime-dispatched via cpuid — nothing here assumes
// -mavx2 at compile time; each function carries its own target attribute).
// Element-wise kernels perform exactly the scalar per-element expression in
// 8 lanes: mul and add stay separate instructions, so results are
// bit-identical. Only axpy_fma fuses them, behind MEMCOM_ENABLE_FMA=1.
// ---------------------------------------------------------------------------
#if MEMCOM_KERNELS_X86
// The sweep's hot kernels start on a cache line, and src/CMakeLists.txt
// aligns this file's loops to 32 bytes: where the linker would otherwise
// place them moved their speed by 5-10% between unrelated builds.
#define MEMCOM_HOT __attribute__((aligned(64)))

namespace avx2 {

MEMCOM_HOT __attribute__((target("avx2"))) void acc_add(float* acc,
                                                         const float* row,
                                                         Index n) {
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 a = _mm256_loadu_ps(acc + i);
    const __m256 r = _mm256_loadu_ps(row + i);
    _mm256_storeu_ps(acc + i, _mm256_add_ps(a, r));
  }
  for (; i < n; ++i) {
    acc[i] += row[i];
  }
}

__attribute__((target("avx2"))) void acc_scale_add(float* acc,
                                                   const float* row, float m,
                                                   Index n) {
  const __m256 vm = _mm256_set1_ps(m);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 a = _mm256_loadu_ps(acc + i);
    const __m256 r = _mm256_loadu_ps(row + i);
    _mm256_storeu_ps(acc + i, _mm256_add_ps(a, _mm256_mul_ps(r, vm)));
  }
  for (; i < n; ++i) {
    acc[i] += row[i] * m;
  }
}

__attribute__((target("avx2"))) void acc_scale_bias_add(float* acc,
                                                        const float* row,
                                                        float m, float b,
                                                        Index n) {
  const __m256 vm = _mm256_set1_ps(m);
  const __m256 vb = _mm256_set1_ps(b);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 a = _mm256_loadu_ps(acc + i);
    const __m256 r = _mm256_loadu_ps(row + i);
    const __m256 term = _mm256_add_ps(_mm256_mul_ps(r, vm), vb);
    _mm256_storeu_ps(acc + i, _mm256_add_ps(a, term));
  }
  for (; i < n; ++i) {
    acc[i] += row[i] * m + b;
  }
}

__attribute__((target("avx2"))) void acc_mult_add(float* acc, const float* a,
                                                  const float* b, Index n) {
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    const __m256 vy = _mm256_loadu_ps(acc + i);
    _mm256_storeu_ps(acc + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vb)));
  }
  for (; i < n; ++i) {
    acc[i] += a[i] * b[i];
  }
}

MEMCOM_HOT __attribute__((target("avx2"))) void axpy(float* y, float a,
                                                      const float* x, Index n) {
  const __m256 va = _mm256_set1_ps(a);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
  }
  for (; i < n; ++i) {
    y[i] += a * x[i];
  }
}

// The 8 coefficients stay broadcast in registers; each 8-lane slice of y is
// loaded once, takes its 8 products in increasing j (mul, then add, as
// axpy does), and is stored once. The tail runs the scalar reference.
MEMCOM_HOT __attribute__((target("avx2"))) void axpy_block(float* y,
                                                            const float* a,
                                                            const float* w,
                                                            Index stride,
                                                            Index n) {
  static_assert(KernelSet::kBlock == 8, "one register per coefficient");
  const __m256 a0 = _mm256_set1_ps(a[0]);
  const __m256 a1 = _mm256_set1_ps(a[1]);
  const __m256 a2 = _mm256_set1_ps(a[2]);
  const __m256 a3 = _mm256_set1_ps(a[3]);
  const __m256 a4 = _mm256_set1_ps(a[4]);
  const __m256 a5 = _mm256_set1_ps(a[5]);
  const __m256 a6 = _mm256_set1_ps(a[6]);
  const __m256 a7 = _mm256_set1_ps(a[7]);
  const float* w1 = w + stride;
  const float* w2 = w1 + stride;
  const float* w3 = w2 + stride;
  const float* w4 = w3 + stride;
  const float* w5 = w4 + stride;
  const float* w6 = w5 + stride;
  const float* w7 = w6 + stride;
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vy = _mm256_loadu_ps(y + i);
    vy = _mm256_add_ps(vy, _mm256_mul_ps(a0, _mm256_loadu_ps(w + i)));
    vy = _mm256_add_ps(vy, _mm256_mul_ps(a1, _mm256_loadu_ps(w1 + i)));
    vy = _mm256_add_ps(vy, _mm256_mul_ps(a2, _mm256_loadu_ps(w2 + i)));
    vy = _mm256_add_ps(vy, _mm256_mul_ps(a3, _mm256_loadu_ps(w3 + i)));
    vy = _mm256_add_ps(vy, _mm256_mul_ps(a4, _mm256_loadu_ps(w4 + i)));
    vy = _mm256_add_ps(vy, _mm256_mul_ps(a5, _mm256_loadu_ps(w5 + i)));
    vy = _mm256_add_ps(vy, _mm256_mul_ps(a6, _mm256_loadu_ps(w6 + i)));
    vy = _mm256_add_ps(vy, _mm256_mul_ps(a7, _mm256_loadu_ps(w7 + i)));
    _mm256_storeu_ps(y + i, vy);
  }
  if (i < n) {
    scalar::axpy_block(y + i, a, w + i, stride, n - i);
  }
}

// Fused dense MAC: one rounding per element instead of two. NOT bit-exact
// vs scalar — |diff| <= ulp(|a*x|)/2 per element — which is why it is
// opt-in (MEMCOM_ENABLE_FMA=1) and documented in tests/test_kernels.cpp.
MEMCOM_HOT __attribute__((target("avx2,fma"))) void axpy_fma(float* y, float a,
                                                              const float* x,
                                                              Index n) {
  const __m256 va = _mm256_set1_ps(a);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, vx, vy));
  }
  for (; i < n; ++i) {
    y[i] = std::fma(a, x[i], y[i]);
  }
}

// axpy_block with one fma per product, in the same order: exactly 8
// sequential axpy_fma calls, so it carries axpy_fma's tolerance, no more.
MEMCOM_HOT __attribute__((target("avx2,fma"))) void axpy_block_fma(
    float* y, const float* a, const float* w, Index stride, Index n) {
  const __m256 a0 = _mm256_set1_ps(a[0]);
  const __m256 a1 = _mm256_set1_ps(a[1]);
  const __m256 a2 = _mm256_set1_ps(a[2]);
  const __m256 a3 = _mm256_set1_ps(a[3]);
  const __m256 a4 = _mm256_set1_ps(a[4]);
  const __m256 a5 = _mm256_set1_ps(a[5]);
  const __m256 a6 = _mm256_set1_ps(a[6]);
  const __m256 a7 = _mm256_set1_ps(a[7]);
  const float* w1 = w + stride;
  const float* w2 = w1 + stride;
  const float* w3 = w2 + stride;
  const float* w4 = w3 + stride;
  const float* w5 = w4 + stride;
  const float* w6 = w5 + stride;
  const float* w7 = w6 + stride;
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vy = _mm256_loadu_ps(y + i);
    vy = _mm256_fmadd_ps(a0, _mm256_loadu_ps(w + i), vy);
    vy = _mm256_fmadd_ps(a1, _mm256_loadu_ps(w1 + i), vy);
    vy = _mm256_fmadd_ps(a2, _mm256_loadu_ps(w2 + i), vy);
    vy = _mm256_fmadd_ps(a3, _mm256_loadu_ps(w3 + i), vy);
    vy = _mm256_fmadd_ps(a4, _mm256_loadu_ps(w4 + i), vy);
    vy = _mm256_fmadd_ps(a5, _mm256_loadu_ps(w5 + i), vy);
    vy = _mm256_fmadd_ps(a6, _mm256_loadu_ps(w6 + i), vy);
    vy = _mm256_fmadd_ps(a7, _mm256_loadu_ps(w7 + i), vy);
    _mm256_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) {
    float acc = y[i];
    for (Index j = 0; j < KernelSet::kBlock; ++j) {
      acc = std::fma(a[j], w[j * stride + i], acc);
    }
    y[i] = acc;
  }
}

// 8 int8 lanes -> 8 floats * scale. cvtepi32_ps + mul rounds exactly like
// `float(int8) * scale`, so this is bit-identical to the scalar path.
__attribute__((target("avx2"))) inline __m256 dequant8_i8(
    const std::int8_t* src, __m256 vscale) {
  const __m128i bytes =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src));
  const __m256i ints = _mm256_cvtepi8_epi32(bytes);
  return _mm256_mul_ps(_mm256_cvtepi32_ps(ints), vscale);
}

// 4 packed bytes -> 8 nibbles -> 8 floats * scale. The caller guarantees
// the first of the 8 elements sits on a byte boundary (even element index).
// Element i is bits [4i, 4i+4) of the little-endian 32-bit word (low nibble
// first): broadcast the word, shift each lane's nibble to the top, and an
// arithmetic shift back down sign-extends the 4-bit two's complement. The
// integers are exact, so cvtepi32_ps + mul rounds like the scalar path.
__attribute__((target("avx2"))) inline __m256 dequant8_i4(
    const std::uint8_t* src, __m256 vscale) {
  std::int32_t word;
  std::memcpy(&word, src, 4);
  const __m256i to_top = _mm256_setr_epi32(28, 24, 20, 16, 12, 8, 4, 0);
  const __m256i ints = _mm256_srai_epi32(
      _mm256_sllv_epi32(_mm256_set1_epi32(word), to_top), 28);
  return _mm256_mul_ps(_mm256_cvtepi32_ps(ints), vscale);
}

MEMCOM_HOT __attribute__((target("avx2,f16c"))) void dequant_span_impl(
    const SpanSrc& src, Index offset, Index count, float* out) {
  switch (src.dtype) {
    case DType::kF32: {
      std::memcpy(out, reinterpret_cast<const float*>(src.payload) + offset,
                  static_cast<std::size_t>(count) * 4);
      return;
    }
    case DType::kF16: {
      const auto* half =
          reinterpret_cast<const std::uint16_t*>(src.payload) + offset;
      Index i = 0;
      for (; i + 8 <= count; i += 8) {
        __m128i h;
        std::memcpy(&h, half + i, 16);
        _mm256_storeu_ps(out + i, _mm256_cvtph_ps(h));
      }
      for (; i < count; ++i) {
        out[i] = f16_to_f32(half[i]);
      }
      return;
    }
    case DType::kI8: {
      const auto* bytes =
          reinterpret_cast<const std::int8_t*>(src.payload) + offset;
      const __m256 vscale = _mm256_set1_ps(src.scale);
      Index i = 0;
      for (; i + 8 <= count; i += 8) {
        _mm256_storeu_ps(out + i, dequant8_i8(bytes + i, vscale));
      }
      for (; i < count; ++i) {
        out[i] = static_cast<float>(bytes[i]) * src.scale;
      }
      return;
    }
    case DType::kI4: {
      const __m256 vscale = _mm256_set1_ps(src.scale);
      Index i = 0;
      // Peel a mid-byte start so the vector body always begins on a byte
      // boundary.
      if ((offset & 1) != 0 && i < count) {
        dequantize_span(DType::kI4, src.scale, src.payload, offset, 1, out);
        ++i;
      }
      for (; i + 8 <= count; i += 8) {
        _mm256_storeu_ps(out + i,
                         dequant8_i4(src.payload + (offset + i) / 2, vscale));
      }
      if (i < count) {
        dequantize_span(DType::kI4, src.scale, src.payload, offset + i,
                        count - i, out + i);
      }
      return;
    }
    case DType::kI4G: {
      const Index g = src.group_size;
      Index i = 0;
      // Peel until 8-aligned within the tensor; group_size is a multiple
      // of 8, so aligned 8-blocks never straddle a group (one scale per
      // block) and always start on a byte boundary.
      const Index misalign = (offset + i) & 7;
      if (misalign != 0) {
        const Index peel = std::min<Index>(8 - misalign, count - i);
        dequantize_span_i4g(src.group_scales, src.packed, g, offset + i,
                            peel, out + i);
        i += peel;
      }
      // Walk the aligned body one scale group at a time: at most one
      // division per call (none for spans shorter than a block, such as the
      // pruned scan's single elements), and each group's scale is broadcast
      // once for all its blocks.
      if (i + 8 <= count) {
        Index group = (offset + i) / g;
        Index group_end = (group + 1) * g - offset;  // span index, 8-aligned
        while (i + 8 <= count) {
          const __m256 vscale = _mm256_set1_ps(src.group_scales[group]);
          const Index stop = std::min(group_end, count);
          for (; i + 8 <= stop; i += 8) {
            _mm256_storeu_ps(
                out + i, dequant8_i4(src.packed + (offset + i) / 2, vscale));
          }
          ++group;
          group_end += g;
        }
      }
      if (i < count) {
        dequantize_span_i4g(src.group_scales, src.packed, g, offset + i,
                            count - i, out + i);
      }
      return;
    }
  }
  check(false, "avx2 dequant_span: unknown dtype");
}

// The vector accumulator IS the 8 striped lanes of the contract: lane j of
// vacc collects elements with index ≡ j (mod 8) in increasing order, the
// tail continues scalar into the extracted lanes (the vector body leaves i
// 8-aligned, so i&7 is the right lane), and reduce8 pins the final sum
// order. mul and add stay separate — no FMA — so this matches scalar::dot
// bit-for-bit.
__attribute__((target("avx2"))) float dot(const float* a, const float* b,
                                          Index n) {
  __m256 vacc = _mm256_setzero_ps();
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    vacc = _mm256_add_ps(vacc, _mm256_mul_ps(va, vb));
  }
  float lane[8];
  _mm256_storeu_ps(lane, vacc);
  for (; i < n; ++i) {
    lane[i & 7] += a[i] * b[i];
  }
  return reduce8(lane);
}

// 8 scores per compare: _CMP_GE_OQ is float >= (false on NaN, true for
// -0.0 >= +0.0), and the movemask's lowest set bit is the first hit.
MEMCOM_HOT __attribute__((target("avx2"))) Index first_ge(const float* s,
                                                           Index n, float t) {
  const __m256 vt = _mm256_set1_ps(t);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const int hits = _mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(s + i), vt, _CMP_GE_OQ));
    if (hits != 0) {
      return i + __builtin_ctz(static_cast<unsigned>(hits));
    }
  }
  for (; i < n; ++i) {
    if (s[i] >= t) {
      return i;
    }
  }
  return n;
}

}  // namespace avx2

namespace {

const KernelSet kAvx2 = {
    "avx2",             avx2::dequant_span_impl,  avx2::acc_add,
    avx2::acc_scale_add, avx2::acc_scale_bias_add, avx2::acc_mult_add,
    avx2::axpy,         avx2::axpy_block,         avx2::dot,
    avx2::first_ge,     /*fused=*/false,
};

// Same set with the FUSED dense MAC swapped in (documented tolerance).
const KernelSet kAvx2Fma = {
    "avx2+fma",         avx2::dequant_span_impl,  avx2::acc_add,
    avx2::acc_scale_add, avx2::acc_scale_bias_add, avx2::acc_mult_add,
    avx2::axpy_fma,     avx2::axpy_block_fma,     avx2::dot,
    avx2::first_ge,     /*fused=*/true,
};

}  // namespace
#endif  // MEMCOM_KERNELS_X86

// ---------------------------------------------------------------------------
// NEON family (aarch64): a stub registered behind the same dispatch table.
// Every entry currently forwards to the scalar reference — the selection
// machinery, name reporting, and differential coverage run on ARM builds
// today; tuned NEON bodies can replace the forwards without touching any
// caller.
// ---------------------------------------------------------------------------
#if defined(__aarch64__)
namespace {

const KernelSet kNeonStub = {
    "neon-stub",        scalar::dequant_span,       scalar::acc_add,
    scalar::acc_scale_add, scalar::acc_scale_bias_add, scalar::acc_mult_add,
    scalar::axpy,       scalar::axpy_block,         scalar::dot,
    scalar::first_ge,   /*fused=*/false,
};

}  // namespace
#endif

namespace {

bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

}  // namespace

const KernelSet& select_kernels() {
  if (env_flag("MEMCOM_DISABLE_SIMD")) {
    return kScalar;
  }
#if MEMCOM_KERNELS_X86
  // f16c ships with every AVX2 part, but the dequant kernel uses it, so
  // check rather than assume.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c")) {
    if (env_flag("MEMCOM_ENABLE_FMA") && __builtin_cpu_supports("fma")) {
      return kAvx2Fma;
    }
    return kAvx2;
  }
#elif defined(__aarch64__)
  return kNeonStub;
#endif
  return kScalar;
}

}  // namespace memcom
