// Ahead-of-time compiled plans: the build / serialize / adopt split behind
// CompiledModel and the .mcm v3 plan section.
//
// Compiling a model is three separable phases:
//
//   * build_plan()     — pure plan construction from an open MmapModel:
//     technique resolution, tensor handles as STABLE DIRECTORY INDICES,
//     folded batchnorm scale/shift, pre-dequantized trunk buffers. No
//     pointers — the plan is position-independent data.
//   * serialize_plan() — the plan as a section in the shared frame
//     (ondevice/section.h): identity + dimension header, handle table, and
//     seven f32 buffer regions. ModelWriter appends it to make a v3 file.
//   * decode_plan()    — the read side: the frame checks, then identity and
//     dimension agreement with the file's own metadata and directory;
//     returns zero-copy buffer views into the mapping. Any mismatch yields
//     a STALE verdict with a reason — never an exception — so the loader
//     can fall back to build_plan() on the same file; the fallback is
//     bit-identical by construction because the writer produced the section
//     with that very function.
//
// Kernel-independence guarantee: plan buffers are always produced by the
// SCALAR reference dequantizer (PR-6 contract), so one serialized plan
// serves every kernel dispatch family — the adopting process picks its own
// family at load and still computes bit-identical logits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "ondevice/format.h"
#include "ondevice/kernels.h"
#include "ondevice/section.h"

namespace memcom {

// Compiled form of the "technique" metadata string; resolved once at plan
// build so the forward pass never compares strings.
enum class Technique : std::uint8_t {
  kUncompressed,
  kReduceDim,
  kTruncateRare,
  kNaiveHash,
  kWeinberger,
  kMemcom,
  kMemcomBias,
  kQrMult,
  kQrConcat,
  kDoubleHash,
  kFactorized,
};

// Maps the "technique" metadata string to the engine's enum (the
// lookup/one-hot subset of the full registry); throws on unsupported names.
Technique technique_from_metadata(const std::string& name);

// Fused-op count of the batch-1 embedding stage for `kind` (dispatch
// overhead the simulated device model charges per forward).
Index embedding_stage_ops(Technique kind);

// A pre-dequantized float buffer: owned when built in-process, a
// zero-copy view of the plan section when adopted.
using PlanBuffer = SectionBuffer<float>;

// A tensor handle as a stable position in the file's directory: readers
// re-resolve `index` through MmapModel::entry_at() and verify the recorded
// name still lives there, turning handle resolution into pointer fixup.
struct PlanHandle {
  std::string name;
  std::uint64_t index = 0;
};

// The position-independent product of build_plan() / decode_plan().
struct CompiledPlan {
  // Identity + compatibility header.
  std::string model_name;            // empty for legacy-identity files
  std::uint64_t model_version = 0;   // 0 for legacy-identity files
  std::string arch;                  // "classification" | "ranking"
  std::string technique;
  Technique kind = Technique::kUncompressed;
  bool has_hidden = false;           // derived: arch == "classification"

  Index vocab = 0;
  Index embed_dim = 0;
  Index hash_size = 0;               // technique knob (m / h / keep / buckets)
  Index hidden_dim = 0;
  Index output_dim = 0;
  Index factor_dim = 0;              // factorized h (0 otherwise)

  // One handle per tensor the plan touches, in plan_tensor_roles() order.
  std::vector<PlanHandle> handles;

  // Pre-computed buffers (empty where the architecture has no such stage).
  PlanBuffer bn1_scale, bn1_shift;
  PlanBuffer bn2_scale, bn2_shift;
  PlanBuffer dense1_bias, out_bias;
  PlanBuffer projection;             // factorized: [h, e]

  // True when the buffers view a mmap'd plan section (adopted plan).
  bool zero_copy = false;
};

// The tensor names `kind` requires, in the fixed order handles are recorded
// and adopted in: embedding tensors, bn1, [dense1, bn2], out.
std::vector<std::string> plan_tensor_roles(Technique kind, bool has_hidden);

// Builds the plan from the file's metadata + directory, dequantizing with
// the scalar reference kernels. Throws (like CompiledModel always did) on a
// structurally broken model.
CompiledPlan build_plan(const MmapModel& model);

// Serializes `plan` into the byte section ModelWriter appends for v3 files.
std::vector<std::uint8_t> serialize_plan(const CompiledPlan& plan);

using PlanStatus = SectionStatus;

struct PlanDecodeResult : SectionVerdict {
  CompiledPlan plan;  // usable only when status == kValid
};

// Validates and decodes `model`'s plan section under the section codec's
// strict contract (ondevice/section.h): NEVER throws for a bad section —
// every defect (truncation, checksum mismatch, identity/dims skew,
// out-of-bounds buffer) comes back as kStale with a reason so the caller
// can fall back to build_plan().
PlanDecodeResult decode_plan(const MmapModel& model);

// Resolves a directory entry + mapped payload into the kernel layer's codec
// view (i4g scales/nibble split done once). Shared by CompiledModel's
// handle resolution and build_plan's dequantization.
SpanSrc make_span_src(const TensorEntry& entry, const std::uint8_t* payload);

}  // namespace memcom
