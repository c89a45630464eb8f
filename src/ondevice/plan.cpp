#include "ondevice/plan.h"

#include <cmath>

#include "core/check.h"
#include "core/serialize.h"
#include "embedding/factory.h"

namespace memcom {

namespace {
// Plan buffers were produced by the scalar reference dequantizer, so the
// plan is valid for every kernel dispatch family. A future writer that
// drops the guarantee must clear the flag, and this reader will refuse.
constexpr SectionKind kPlanSection = {
    0x4E414C50U,  // "PLAN" little-endian
    1,            // format version
    1U << 0,      // flag: buffers scalar-predequantized
    "plan",
    "plan buffers not scalar-predequantized",
    "buffer",
};
constexpr std::size_t kPlanBufferCount = 7;

// The seven buffer slots, in serialization order. Unused slots (e.g. bn2 on
// a ranking trunk) serialize as count 0 so the layout never branches.
template <typename Plan>  // CompiledPlan or const CompiledPlan
auto buffer_slots(Plan& plan) {
  return std::vector{&plan.bn1_scale,   &plan.bn1_shift, &plan.bn2_scale,
                     &plan.bn2_shift,   &plan.dense1_bias, &plan.out_bias,
                     &plan.projection};
}

// The plan's own header and semantic agreement with the file the plan
// rides in; the frame was checked by the reader.
std::string parse_plan(SectionReader& reader, const MmapModel& model,
                       CompiledPlan& plan) {
  std::istream& is = reader.header();
  plan.model_name = read_string(is);
  plan.model_version = read_u64(is);
  plan.arch = read_string(is);
  plan.technique = read_string(is);
  plan.vocab = read_i64(is);
  plan.embed_dim = read_i64(is);
  plan.hash_size = read_i64(is);
  plan.hidden_dim = read_i64(is);
  plan.output_dim = read_i64(is);
  plan.factor_dim = read_i64(is);
  const std::uint64_t handle_count = read_u64(is);
  if (handle_count > model.entry_count()) {
    return "plan declares more handles than the directory has";
  }
  for (std::uint64_t i = 0; i < handle_count; ++i) {
    PlanHandle handle;
    handle.name = read_string(is);
    handle.index = read_u64(is);
    plan.handles.push_back(std::move(handle));
  }
  const std::uint64_t buffer_count = read_u64(is);
  if (buffer_count != kPlanBufferCount) {
    return "unexpected plan buffer count " + std::to_string(buffer_count);
  }
  for (PlanBuffer* slot : buffer_slots(plan)) {
    if (!reader.view(reader.read_region(), *slot)) {
      return reader.error();
    }
  }

  // Identity, metadata dims, directory handles, buffer widths. Any skew
  // means the section belongs to a different refresh of the model.
  if (plan.model_name != model.model_name()) {
    return "plan model_name skew (plan '" + plan.model_name + "' vs file '" +
           model.model_name() + "')";
  }
  if (plan.model_version != model.model_version()) {
    return "plan model_version skew (plan " +
           std::to_string(plan.model_version) + " vs file " +
           std::to_string(model.model_version()) + ")";
  }
  if (plan.arch != model.metadata_value("arch") ||
      plan.technique != model.metadata_value("technique")) {
    return "plan arch/technique skew";
  }
  plan.kind = technique_from_metadata(plan.technique);
  plan.has_hidden = plan.arch == "classification";
  const Index file_hidden =
      model.has_metadata("hidden_dim") ? model.metadata_int("hidden_dim") : 0;
  if (plan.vocab != model.metadata_int("vocab") ||
      plan.embed_dim != model.metadata_int("embed_dim") ||
      plan.hash_size != model.metadata_int("knob") ||
      plan.output_dim != model.metadata_int("output_dim") ||
      plan.hidden_dim != file_hidden) {
    return "plan dimension skew";
  }
  const std::vector<std::string> roles =
      plan_tensor_roles(plan.kind, plan.has_hidden);
  if (plan.handles.size() != roles.size()) {
    return "plan handle count skew";
  }
  for (std::size_t i = 0; i < roles.size(); ++i) {
    const PlanHandle& handle = plan.handles[i];
    if (handle.name != roles[i] || handle.index >= model.entry_count() ||
        model.entry_at(static_cast<std::size_t>(handle.index)).name !=
            handle.name) {
      return "plan handle skew for " + roles[i];
    }
  }
  if (plan.kind == Technique::kFactorized &&
      plan.factor_dim != model.entry("emb.factors").shape[1]) {
    return "plan factor_dim skew";
  }
  const Index projection_count =
      plan.kind == Technique::kFactorized ? plan.factor_dim * plan.embed_dim
                                          : 0;
  const struct { const PlanBuffer* buffer; Index expect; } widths[] = {
      {&plan.bn1_scale, plan.embed_dim},
      {&plan.bn1_shift, plan.embed_dim},
      {&plan.bn2_scale, plan.has_hidden ? plan.hidden_dim : 0},
      {&plan.bn2_shift, plan.has_hidden ? plan.hidden_dim : 0},
      {&plan.dense1_bias, plan.has_hidden ? plan.hidden_dim : 0},
      {&plan.out_bias, plan.output_dim},
      {&plan.projection, projection_count},
  };
  for (const auto& [buffer, expect] : widths) {
    if (buffer->size() != static_cast<std::size_t>(expect)) {
      return "plan buffer width skew";
    }
  }
  plan.zero_copy = true;
  return "";
}
}  // namespace

Technique technique_from_metadata(const std::string& name) {
  // The engine supports the lookup/one-hot subset of the technique
  // registry; going through embedding/factory's TechniqueKind keeps the
  // metadata-string mapping in one place, and this exhaustive switch forces
  // an explicit supported/unsupported decision whenever the registry grows.
  switch (technique_from_string(name)) {
    case TechniqueKind::kFull: return Technique::kUncompressed;
    case TechniqueKind::kReduceDim: return Technique::kReduceDim;
    case TechniqueKind::kTruncateRare: return Technique::kTruncateRare;
    case TechniqueKind::kNaiveHash: return Technique::kNaiveHash;
    case TechniqueKind::kWeinberger: return Technique::kWeinberger;
    case TechniqueKind::kMemcom: return Technique::kMemcom;
    case TechniqueKind::kMemcomBias: return Technique::kMemcomBias;
    case TechniqueKind::kQrMult: return Technique::kQrMult;
    case TechniqueKind::kQrConcat: return Technique::kQrConcat;
    case TechniqueKind::kDoubleHash: return Technique::kDoubleHash;
    case TechniqueKind::kFactorized: return Technique::kFactorized;
    case TechniqueKind::kHashedNets:
    case TechniqueKind::kMixedDim:
    case TechniqueKind::kTtRec:
      break;
  }
  check(false, "engine: unsupported technique " + name);
  return Technique::kUncompressed;
}

Index embedding_stage_ops(Technique kind) {
  // The frameworks execute the WHOLE batch-1 embedding stage as a handful
  // of fused graph ops (gather per table + the composition op), not one op
  // per token — dispatch overhead must be charged accordingly.
  switch (kind) {
    case Technique::kUncompressed:
    case Technique::kReduceDim:
    case Technique::kNaiveHash:
    case Technique::kTruncateRare:
      return 1;  // gather
    case Technique::kMemcom:
      return 3;  // gather U, gather V, broadcast multiply
    case Technique::kMemcomBias:
      return 5;  // + gather W, broadcast add
    case Technique::kQrMult:
    case Technique::kQrConcat:
    case Technique::kDoubleHash:
      return 3;  // two gathers + compose
    case Technique::kFactorized:
      return 2;  // gather + projection matmul
    case Technique::kWeinberger:
      return 3;  // one_hot + matmul + reduce_sum (the un-fused §5.3 path)
  }
  return 1;
}

SpanSrc make_span_src(const TensorEntry& entry, const std::uint8_t* payload) {
  SpanSrc src;
  src.dtype = entry.dtype;
  src.scale = entry.scale;
  src.payload = payload;
  if (entry.dtype == DType::kI4G) {
    // Split the blob once: [f32 scales header][packed nibbles].
    src.group_scales = reinterpret_cast<const float*>(payload);
    src.packed =
        payload + i4g_scales_bytes(static_cast<std::size_t>(entry.numel()),
                                   entry.group_size);
    src.group_size = entry.group_size;
  }
  return src;
}

std::vector<std::string> plan_tensor_roles(Technique kind, bool has_hidden) {
  std::vector<std::string> names;
  switch (kind) {
    case Technique::kUncompressed:
    case Technique::kReduceDim:
    case Technique::kTruncateRare:
    case Technique::kNaiveHash:
    case Technique::kWeinberger:
      names = {"emb.table"};
      break;
    case Technique::kMemcom:
      names = {"emb.shared", "emb.multiplier"};
      break;
    case Technique::kMemcomBias:
      names = {"emb.shared", "emb.multiplier", "emb.bias"};
      break;
    case Technique::kQrMult:
    case Technique::kQrConcat:
      names = {"emb.remainder", "emb.quotient"};
      break;
    case Technique::kDoubleHash:
      names = {"emb.table_a", "emb.table_b"};
      break;
    case Technique::kFactorized:
      names = {"emb.factors", "emb.projection"};
      break;
  }
  for (const char* suffix : {".gamma", ".beta", ".mean", ".var"}) {
    names.push_back(std::string("bn1") + suffix);
  }
  if (has_hidden) {
    names.push_back("dense1.weight");
    names.push_back("dense1.bias");
    for (const char* suffix : {".gamma", ".beta", ".mean", ".var"}) {
      names.push_back(std::string("bn2") + suffix);
    }
  }
  names.push_back("out.weight");
  names.push_back("out.bias");
  return names;
}

CompiledPlan build_plan(const MmapModel& model) {
  CompiledPlan plan;
  plan.model_name = model.model_name();
  plan.model_version = model.model_version();
  plan.arch = model.metadata_value("arch");
  plan.technique = model.metadata_value("technique");
  check(plan.arch == "classification" || plan.arch == "ranking",
        "engine: unknown architecture " + plan.arch);
  plan.kind = technique_from_metadata(plan.technique);
  plan.has_hidden = plan.arch == "classification";
  plan.vocab = model.metadata_int("vocab");
  plan.embed_dim = model.metadata_int("embed_dim");
  plan.hash_size = model.metadata_int("knob");
  plan.output_dim = model.metadata_int("output_dim");
  plan.hidden_dim =
      model.has_metadata("hidden_dim") ? model.metadata_int("hidden_dim") : 0;

  for (const std::string& name : plan_tensor_roles(plan.kind, plan.has_hidden)) {
    plan.handles.push_back(
        PlanHandle{name, static_cast<std::uint64_t>(model.entry_index(name))});
  }

  // Always the scalar reference: pre-dequantized buffers feed every kernel
  // family, so their contents must not depend on the dispatch decision.
  auto dequantize = [&model](const std::string& name) {
    const TensorEntry& entry = model.entry(name);
    std::vector<float> out(static_cast<std::size_t>(entry.numel()));
    scalar_kernels().dequant_span(make_span_src(entry, model.payload(entry)),
                                  0, entry.numel(), out.data());
    return out;
  };
  auto fold_batchnorm = [&](const std::string& prefix, Index width,
                            PlanBuffer& scale_out, PlanBuffer& shift_out) {
    const std::vector<float> gamma = dequantize(prefix + ".gamma");
    const std::vector<float> beta = dequantize(prefix + ".beta");
    const std::vector<float> mean = dequantize(prefix + ".mean");
    const std::vector<float> var = dequantize(prefix + ".var");
    std::vector<float> scale(static_cast<std::size_t>(width));
    std::vector<float> shift(static_cast<std::size_t>(width));
    for (Index i = 0; i < width; ++i) {
      const std::size_t s = static_cast<std::size_t>(i);
      scale[s] = gamma[s] / std::sqrt(var[s] + 1e-5f);
      shift[s] = beta[s] - mean[s] * scale[s];
    }
    scale_out = PlanBuffer::owned(std::move(scale));
    shift_out = PlanBuffer::owned(std::move(shift));
  };

  if (plan.kind == Technique::kFactorized) {
    plan.factor_dim = model.entry("emb.factors").shape[1];
    plan.projection = PlanBuffer::owned(dequantize("emb.projection"));
  }
  fold_batchnorm("bn1", plan.embed_dim, plan.bn1_scale, plan.bn1_shift);
  if (plan.has_hidden) {
    plan.dense1_bias = PlanBuffer::owned(dequantize("dense1.bias"));
    fold_batchnorm("bn2", plan.hidden_dim, plan.bn2_scale, plan.bn2_shift);
  }
  plan.out_bias = PlanBuffer::owned(dequantize("out.bias"));
  return plan;
}

std::vector<std::uint8_t> serialize_plan(const CompiledPlan& plan) {
  SectionWriter writer(kPlanSection);
  std::ostream& os = writer.header();
  write_string(os, plan.model_name);
  write_u64(os, plan.model_version);
  write_string(os, plan.arch);
  write_string(os, plan.technique);
  write_i64(os, plan.vocab);
  write_i64(os, plan.embed_dim);
  write_i64(os, plan.hash_size);
  write_i64(os, plan.hidden_dim);
  write_i64(os, plan.output_dim);
  write_i64(os, plan.factor_dim);
  write_u64(os, plan.handles.size());
  for (const PlanHandle& handle : plan.handles) {
    write_string(os, handle.name);
    write_u64(os, handle.index);
  }
  const auto slots = buffer_slots(plan);
  write_u64(os, slots.size());
  for (const PlanBuffer* slot : slots) {
    writer.region(*slot);
  }
  return writer.finish();
}

PlanDecodeResult decode_plan(const MmapModel& model) {
  PlanDecodeResult result;
  decode_section(kPlanSection, model.plan_data(), model.plan_size(),
                 model.plan_bounds_error(), result,
                 [&](SectionReader& reader) {
                   return parse_plan(reader, model, result.plan);
                 });
  return result;
}

}  // namespace memcom
