// SIMD kernel layer for the inference hot path.
//
// Every inner loop the forward pass executes per token or per dense row —
// gather/dequantize a packed span, accumulate it into the pooled vector,
// multiply-accumulate a dense weight row — is expressed as a function
// pointer in a `KernelSet`. Three families implement the set:
//
//   * scalar — the reference implementation; byte-for-byte the loops the
//     engine ran before this layer existed. Always available, and what the
//     differential harness compares everything else against.
//   * avx2   — x86-64 runtime-dispatched (checked via cpuid, never assumed
//     at compile time). Element-wise kernels are BIT-IDENTICAL to scalar:
//     they perform the same mul/add per element, just eight lanes at a
//     time, and never contract mul+add into an FMA (nor may the compiler:
//     every module builds with -ffp-contract=off, see src/CMakeLists.txt,
//     which keeps FMA-baseline builds such as -march=x86-64-v3 from fusing
//     the scalar reference). The only kernels allowed
//     to diverge are the fused dense MACs (`axpy` and `axpy_block` of the
//     avx2+fma set), which are opt-in via MEMCOM_ENABLE_FMA=1 and carry a
//     documented tolerance instead of the bit-exactness contract (fused
//     rounding differs from mul-then-add).
//   * neon   — aarch64 placeholder registered behind the same dispatch
//     table; its entries currently forward to the scalar reference so the
//     selection machinery is exercised on ARM builds before tuned NEON
//     bodies land.
//
// Selection happens ONCE per CompiledModel compile (select_kernels()):
// MEMCOM_DISABLE_SIMD=1 forces the scalar reference (the CI matrix leg that
// keeps both families green under sanitizers), otherwise the widest family
// the CPU supports wins. tests/test_kernels.cpp and the differential
// harness enforce the bit-exactness contract.
#pragma once

#include <cstdint>

#include "core/tensor.h"
#include "ondevice/quantize.h"

namespace memcom {

// Codec view of one packed tensor blob, resolved once at plan compile time
// (see TensorRef in compiled_model.h). For grouped dtypes the two payload
// regions — the per-group f32 scales header and the packed nibbles — are
// pre-split so the span kernels never re-derive layout per call.
struct SpanSrc {
  DType dtype = DType::kF32;
  float scale = 1.0f;                     // per-tensor scale (ungrouped)
  const std::uint8_t* payload = nullptr;  // full blob (scales header incl.)
  const float* group_scales = nullptr;    // i4g: per-group scales region
  const std::uint8_t* packed = nullptr;   // i4g: nibble region
  Index group_size = 0;                   // i4g: elements per scale group
};

struct KernelSet {
  const char* name = "scalar";
  // out[0..count) = dequantized elements [offset, offset+count) of src.
  void (*dequant_span)(const SpanSrc& src, Index offset, Index count,
                       float* out) = nullptr;
  // acc[i] += row[i]
  void (*acc_add)(float* acc, const float* row, Index n) = nullptr;
  // acc[i] += row[i] * m        (memcom multiplier)
  void (*acc_scale_add)(float* acc, const float* row, float m,
                        Index n) = nullptr;
  // acc[i] += row[i] * m + b    (memcom_bias)
  void (*acc_scale_bias_add)(float* acc, const float* row, float m, float b,
                             Index n) = nullptr;
  // acc[i] += a[i] * b[i]       (qr_mult compose)
  void (*acc_mult_add)(float* acc, const float* a, const float* b,
                       Index n) = nullptr;
  // y[i] += a * x[i]            (dense MAC row, factorized projection row,
  //                              one-hot z*row accumulate)
  void (*axpy)(float* y, float a, const float* x, Index n) = nullptr;
  // Weight rows per axpy_block call (the output sweep's k block).
  static constexpr Index kBlock = 8;
  // y[i] += a[j] * w[j*stride + i] for j = 0..kBlock-1 in turn — the dense
  // sweep's MAC over a block of kBlock weight rows.
  //
  // Bit-exactness contract: per element exactly kBlock sequential calls to
  // this family's own axpy, y[i] += a[0]*w[i], then a[1]*w[stride+i], ...
  // (mul then add, or one fma per product where `fused`). The body loads
  // y once, adds the kBlock products in increasing j and stores y once, so
  // it trades kBlock loads and stores of y for one without moving a bit.
  // `w` rows must not overlap `y`.
  void (*axpy_block)(float* y, const float* a, const float* w, Index stride,
                     Index n) = nullptr;
  // sum_i a[i]*b[i]             (probe query · catalog-index centroid)
  //
  // Bit-exactness contract: 8-lane STRIPED accumulation — element i is
  // multiplied and added into lane (i mod 8), each lane in increasing-i
  // order — followed by the pinned reduction
  // ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). That is exactly what an 8-wide
  // vector accumulator computes, so the scalar reference reproduces the
  // AVX2 result bit-for-bit (no FMA contraction, same as the element-wise
  // kernels). tests/test_kernels.cpp enforces it across families.
  float (*dot)(const float* a, const float* b, Index n) = nullptr;
  // Index of the first s[i] >= t in [0, n), or n when there is none — the
  // top-k threshold filter (ondevice/topk.h). A plain ordered compare
  // (-0.0 >= +0.0 holds, as float >= says), so every family returns the
  // same index.
  Index (*first_ge)(const float* s, Index n, float t) = nullptr;
  // True when `axpy` is the fused MAC (one rounding per element): a caller
  // that mirrors axpy element by element must then fuse too.
  bool fused = false;
};

// The scalar reference set (always available).
const KernelSet& scalar_kernels();

// Runtime dispatch: scalar when MEMCOM_DISABLE_SIMD=1, else the widest
// family the CPU reports. With MEMCOM_ENABLE_FMA=1 (and FMA hardware) the
// returned set's axpy is the FUSED dense MAC — faster, but only tolerance-
// accurate vs scalar; everything else stays bit-exact. Environment is read
// per call so a test (or the CI matrix) can flip it between plan compiles.
const KernelSet& select_kernels();

// Byte interval of a packed element span, sub-byte aware: covers bits
// [offset*bits, (offset+count)*bits) rounded OUT to whole bytes. The naive
// `ceil(count*bits/8)` undercounts when a 4-bit span starts mid-byte (e.g.
// offset=1, count=2 straddles two bytes); MemoryMeter page accounting goes
// through here so sub-byte rows meter every byte they actually touch.
struct ByteSpan {
  Index offset = 0;  // first byte touched, relative to the blob start
  Index length = 0;  // bytes touched
};
ByteSpan packed_byte_span(Index offset, Index count, int bits);

}  // namespace memcom
