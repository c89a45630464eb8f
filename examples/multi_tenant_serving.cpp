// Multi-tenant serving walkthrough: the production shape of the paper's
// deployment story. Two compressed models (different techniques, different
// output spaces) are trained, exported with deployment identity, published
// in a ModelRegistry, and served together by ONE AsyncServer that forms
// per-model micro-batches. Mid-traffic, a retrained v2 of one model is
// hot-swapped in with zero downtime: in-flight batches finish on v1, new
// batches ride v2, and v1's plan + mmap are released when the last holder
// drains.
//
//   ./multi_tenant_serving [--epochs 1] [--requests 200]
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/flags.h"
#include "core/rng.h"
#include "core/table.h"
#include "data/synthetic.h"
#include "ondevice/registry.h"
#include "ondevice/serving.h"
#include "repro/trainer.h"

using namespace memcom;

namespace {

std::string train_and_export(const SyntheticDataset& data,
                             TechniqueKind kind, Index output_vocab,
                             const TrainConfig& train,
                             const std::string& name,
                             std::uint64_t version, std::uint64_t seed) {
  ModelConfig config;
  config.embedding = {kind, data.input_vocab(), 32,
                      std::max<Index>(8, data.input_vocab() / 16)};
  config.arch = ModelArch::kRanking;
  config.output_vocab = output_vocab;
  config.seed = seed;
  RecModel model(config);
  train_and_evaluate(model, data, train);
  const std::string path = "/tmp/memcom_" + name + "_v" +
                           std::to_string(version) + ".mcm";
  model.export_mcm(path, DType::kF32, name, version);
  std::cout << "exported " << path << " (" << technique_name(kind) << ", v"
            << version << ")\n";
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  TrainConfig train;
  train.epochs = flags.get_int("epochs", 1);
  const int request_count = static_cast<int>(flags.get_int("requests", 200));

  std::cout << "== multi-tenant serving with zero-downtime hot swap ==\n\n";
  const SyntheticDataset data(movielens_spec(), /*seed=*/5);

  // Two tenants: a MEmCom ranker and a QR ranker, plus a retrained v2 of
  // the first (a later seed stands in for "yesterday's model, refreshed").
  const std::string ranker_v1 = train_and_export(
      data, TechniqueKind::kMemcom, data.output_vocab(), train, "ranker", 1,
      /*seed=*/21);
  const std::string ranker_v2 = train_and_export(
      data, TechniqueKind::kMemcom, data.output_vocab(), train, "ranker", 2,
      /*seed=*/22);
  const std::string related_v1 = train_and_export(
      data, TechniqueKind::kQrMult, data.output_vocab(), train, "related", 1,
      /*seed=*/23);

  ModelRegistry registry;
  registry.load("ranker", ranker_v1);
  registry.load("related", related_v1);
  std::cout << "\nregistry holds " << registry.size()
            << " models; compile-once plan bytes: "
            << registry.plan_resident_bytes() << "\n\n";

  // Interleaved traffic for both tenants.
  Rng rng(3);
  std::vector<RoutedRequest> requests;
  for (int i = 0; i < request_count; ++i) {
    std::vector<std::int32_t> history(16);
    for (auto& id : history) {
      id = static_cast<std::int32_t>(
          1 + rng.uniform_index(data.input_vocab() - 1));
    }
    requests.push_back(
        RoutedRequest{i % 2 == 0 ? "ranker" : "related", std::move(history)});
  }

  AsyncServerConfig config;
  config.threads = 2;
  config.max_batch = 8;
  config.queue_capacity = 64;
  config.cache_budget_bytes = 64 * 1024;
  AsyncServer server(registry, "ranker", tflite_profile(), config);

  const auto print_report = [](const char* title,
                               const ServingReport& report) {
    TextTable table({"model", "version", "requests", "p50 ms", "hit%"});
    for (const ModelReport& model : report.per_model) {
      table.add_row({model.model_id, std::to_string(model.version),
                     std::to_string(model.requests),
                     format_float(model.latency.p50_ms, 4),
                     model.cache.enabled
                         ? format_float(model.cache.hit_rate() * 100.0, 1)
                         : "off"});
    }
    std::cout << title << "\n" << table.to_string() << "\n";
  };

  print_report("drain 1 — both tenants on v1:", server.serve(requests, 2));

  // Zero-downtime refresh: publish ranker v2 while the server stays up.
  // (Under live traffic, in-flight micro-batches would finish on v1; the
  // hot-swap stress test exercises exactly that interleaving.)
  registry.swap("ranker", ranker_v2);
  std::cout << "hot-swapped ranker to v" << registry.version("ranker")
            << " — no restart, no dropped request\n\n";

  print_report("drain 2 — ranker serves v2, related untouched:",
               server.serve(requests, 2));

  std::remove(ranker_v1.c_str());
  std::remove(ranker_v2.c_str());
  std::remove(related_v1.c_str());
  return 0;
}
