// Seeded, deterministic fixture generator for the serving benchmark.
//
// Runs in its own process (run.py caches its output per fixture seed), so
// building models never shows in the measuring process's set-up time or peak
// RSS.
//
//   perfbench_fixtures --seed N --out DIR --set classify|session|update
//                      [--smoke]
//
// Files, each built only when missing:
//   cls_v{0,1,2}.mcm   MEmCom i8 classification, the paper's Table-3 trunk
//                      (e = 256, hash 10K) and 256 classes;
//   sess_v{0,1,2}.mcm  MEmCom i4g ranking model whose output layer is a
//                      50k-item x 64-dim anchored-mixture catalog.
// Variant 0 carries plan + index sections, variant 1 is plan-less (forces a
// full compile), variant 2 carries a plan and an index section with one
// flipped byte (the registry must fall back to the exact scan). Variants use
// different weights, so an answer names the version that produced it.
// `classify` builds cls_v0, `session` builds sess_v0, `update` builds all six.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/flags.h"
#include "core/rng.h"
#include "ondevice/catalog_index.h"
#include "ondevice/compiled_model.h"
#include "ondevice/format.h"
#include "repro/model.h"

using namespace memcom;
namespace fs = std::filesystem;

namespace {

struct Geometry {
  Index vocab, embed_dim, hash, outputs;
};

// Table 3 (§5.3): e = 256, hash size 10K, MEmCom without bias.
Geometry classify_geometry(bool smoke) {
  return smoke ? Geometry{5000, 64, 500, 64} : Geometry{100000, 256, 10000, 256};
}
// Session next-item model: input ids and output ids are both catalog items.
Geometry session_geometry(bool smoke) {
  return smoke ? Geometry{4000, 32, 400, 4000} : Geometry{50000, 64, 5000, 50000};
}

// Anchored-mixture catalog shape: items share one of kAnchors directions,
// each item spread around its anchor by kAnchorNoise (this sets recall@10 at
// a fixed nprobe).
constexpr Index kAnchors = 64;
constexpr float kAnchorNoise = 0.3f;

enum class Variant { kPlanIndex = 0, kPlanless = 1, kCorruptIndex = 2 };

// Re-exports `model` at `dtype` with the requested sections, optionally
// rewriting tensors first. Legacy (identity-free) files: the registry
// accepts any swap between them, so the rotation can cycle forever.
void write_variant(RecModel& model, const std::string& path, DType dtype,
                   Variant variant,
                   void (*edit)(std::vector<std::pair<std::string, Tensor>>&,
                                const MmapModel&, std::uint64_t),
                   std::uint64_t seed) {
  const std::string staged = path + ".f32";
  model.export_mcm(staged, DType::kF32);
  std::vector<std::pair<std::string, Tensor>> tensors;
  std::map<std::string, std::string> metadata;
  {
    const MmapModel f32(staged);
    metadata = f32.metadata();
    for (std::size_t i = 0; i < f32.entry_count(); ++i) {
      const std::string& name = f32.entry_at(i).name;
      tensors.emplace_back(name, f32.load_tensor(name));
    }
    if (edit != nullptr) {
      edit(tensors, f32, seed);
    }
  }
  fs::remove(staged);

  const std::string tmp = path + ".tmp";
  ModelWriter writer(tmp);
  for (const auto& [key, value] : metadata) {
    writer.set_metadata(key, value);
  }
  for (const auto& [name, tensor] : tensors) {
    writer.add_tensor(name, tensor, dtype);
  }
  writer.set_emit_plan(variant != Variant::kPlanless);
  writer.set_emit_catalog_index(true);
  writer.finish();

  if (variant == Variant::kCorruptIndex) {
    std::uint64_t at = 0;
    {
      const MmapModel written(tmp);
      check(written.index_size() > 0, "fixture: no index section to corrupt");
      at = written.index_offset() + written.index_size() / 2;
    }
    std::fstream file(tmp, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(at));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    file.seekp(static_cast<std::streamoff>(at));
    file.write(&byte, 1);
  }

  // The rotation relies on each variant taking its intended load path.
  {
    const MmapModel mapped(tmp);
    const CompiledModel compiled(mapped);
    check(compiled.plan_adopted() == (variant != Variant::kPlanless),
          "fixture: unexpected plan adoption in " + path);
    check(compiled.has_catalog_index() == (variant != Variant::kCorruptIndex),
          "fixture: unexpected index adoption in " + path);
  }
  fs::rename(tmp, path);
}

Tensor& tensor_named(std::vector<std::pair<std::string, Tensor>>& tensors,
                     const std::string& name) {
  for (auto& [n, t] : tensors) {
    if (n == name) {
      return t;
    }
  }
  throw std::runtime_error("fixture: missing tensor " + name);
}

// Session model edits: an anchored-mixture catalog (the clustered structure
// real item catalogs have and the IVF index exploits) and bn1 statistics
// calibrated on sample histories, so session vectors are centred and point in
// varied directions.
void edit_session(std::vector<std::pair<std::string, Tensor>>& tensors,
                  const MmapModel& model, std::uint64_t seed) {
  Rng rng(seed ^ 0xA11C0DEULL);
  Tensor& weight = tensor_named(tensors, "out.weight");  // [in, items]
  const Index in = weight.dim(0);
  const Index items = weight.dim(1);
  const Tensor anchors = Tensor::randn({kAnchors, in}, rng, 1.0f);
  for (Index j = 0; j < items; ++j) {
    const float* a = anchors.data() + (j % kAnchors) * in;
    for (Index d = 0; d < in; ++d) {
      weight.data()[d * items + j] = a[d] + kAnchorNoise * rng.normal();
    }
  }
  Tensor& bias = tensor_named(tensors, "out.bias");
  for (Index j = 0; j < items; ++j) {
    bias.data()[j] = 0.1f * rng.normal();
  }

  const Tensor& shared = tensor_named(tensors, "emb.shared");  // [m, e]
  const Tensor& mult = tensor_named(tensors, "emb.multiplier");
  const Index m = shared.dim(0);
  const Index vocab = model.metadata_int("vocab");
  std::vector<double> sum(static_cast<std::size_t>(in), 0.0);
  std::vector<double> sum_sq(static_cast<std::size_t>(in), 0.0);
  std::vector<float> pooled(static_cast<std::size_t>(in));
  constexpr int kSamples = 2048;
  for (int s = 0; s < kSamples; ++s) {
    const Index length = 1 + rng.uniform_index(32);
    std::fill(pooled.begin(), pooled.end(), 0.0f);
    for (Index t = 0; t < length; ++t) {
      const Index id = 1 + rng.uniform_index(vocab - 1);
      const float* row = shared.data() + (id % m) * in;
      for (Index d = 0; d < in; ++d) {
        pooled[static_cast<std::size_t>(d)] += row[d] * mult.data()[id];
      }
    }
    for (Index d = 0; d < in; ++d) {
      const double x =
          std::max(0.0f, pooled[static_cast<std::size_t>(d)] /
                             static_cast<float>(length));
      sum[static_cast<std::size_t>(d)] += x;
      sum_sq[static_cast<std::size_t>(d)] += x * x;
    }
  }
  Tensor& mean = tensor_named(tensors, "bn1.mean");
  Tensor& var = tensor_named(tensors, "bn1.var");
  for (Index d = 0; d < in; ++d) {
    const double mu = sum[static_cast<std::size_t>(d)] / kSamples;
    mean.data()[d] = static_cast<float>(mu);
    var.data()[d] = static_cast<float>(std::max(
        1e-6, sum_sq[static_cast<std::size_t>(d)] / kSamples - mu * mu));
  }
}

void build_classify(const fs::path& dir, std::uint64_t seed, int variant,
                    bool smoke) {
  const fs::path path = dir / ("cls_v" + std::to_string(variant) + ".mcm");
  if (fs::exists(path)) {
    return;
  }
  const Geometry g = classify_geometry(smoke);
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, g.vocab, g.embed_dim, g.hash};
  config.arch = ModelArch::kClassification;
  config.output_vocab = g.outputs;
  config.seed = seed * 16 + static_cast<std::uint64_t>(variant);
  RecModel model(config);
  write_variant(model, path.string(), DType::kI8, static_cast<Variant>(variant),
                nullptr, config.seed);
}

void build_session(const fs::path& dir, std::uint64_t seed, int variant,
                   bool smoke) {
  const fs::path path = dir / ("sess_v" + std::to_string(variant) + ".mcm");
  if (fs::exists(path)) {
    return;
  }
  const Geometry g = session_geometry(smoke);
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, g.vocab, g.embed_dim, g.hash};
  config.arch = ModelArch::kRanking;
  config.output_vocab = g.outputs;
  config.seed = seed * 16 + 8 + static_cast<std::uint64_t>(variant);
  RecModel model(config);
  write_variant(model, path.string(), DType::kI4G,
                static_cast<Variant>(variant), edit_session, config.seed);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string set = flags.get_string("set", "");
  const bool smoke = flags.get_bool("smoke", false);
  const fs::path dir = flags.get_string("out", "");
  if (dir.empty() || (set != "classify" && set != "session" && set != "update")) {
    std::cerr << "usage: perfbench_fixtures --seed N --out DIR "
                 "--set classify|session|update [--smoke]\n";
    return 2;
  }
  fs::create_directories(dir);
  const int variants = set == "update" ? 3 : 1;
  for (int v = 0; v < variants; ++v) {
    if (set != "session") {
      build_classify(dir, seed, v, smoke);
    }
    if (set != "classify") {
      build_session(dir, seed, v, smoke);
    }
  }
  return 0;
}
