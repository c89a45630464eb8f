// On-device deployment walkthrough (§3 + §5.3): train a compressed model,
// export it to the mmap-able .mcm format (optionally quantized, A.2), load
// it with the on-device inference engine under a CoreML-like and a
// TF-Lite-like device profile, and report latency + resident memory. The
// exported file is left in place for tools/mcm_bench and tools/mcm_inspect.
//
//   ./ondevice_deploy [--bits 32|16|8|4] [--epochs 2]
#include <iostream>

#include "core/flags.h"
#include "core/table.h"
#include "data/synthetic.h"
#include "ondevice/engine.h"
#include "repro/trainer.h"

using namespace memcom;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int bits = static_cast<int>(flags.get_int("bits", 32));
  TrainConfig train;
  train.epochs = flags.get_int("epochs", 2);

  const SyntheticDataset data(movielens_spec(), /*seed=*/5);
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, data.input_vocab(), 64,
                      std::max<Index>(8, data.input_vocab() / 16)};
  config.arch = ModelArch::kRanking;
  config.output_vocab = data.output_vocab();
  RecModel model(config);

  std::cout << "== on-device deployment ==\n";
  std::cout << "training memcom model (" << model.param_count()
            << " params)...\n";
  const EvalResult eval = train_and_evaluate(model, data, train);
  std::cout << "eval nDCG@32 = " << format_float(eval.ndcg, 4) << "\n";

  const std::string path = "/tmp/memcom_quickstart.mcm";
  model.export_mcm(path, dtype_from_bits(bits));
  std::cout << "exported " << path << " at " << bits << "-bit weights\n\n";

  const MmapModel mapped(path);
  std::cout << "model file: " << mapped.file_size() / 1024 << " KiB, "
            << mapped.tensor_names().size() << " tensors\n\n";

  // One realistic history from the eval split.
  const Batch sample = make_batch(data.eval(), 0, 1);

  TextTable table(
      {"device profile", "latency (ms)", "resident memory (MB)"});
  for (const DeviceProfile& profile :
       {coreml_profile("all"), coreml_profile("cpuOnly"), tflite_profile()}) {
    InferenceEngine engine(mapped, profile);
    const LatencyStats stats = engine.benchmark(sample.inputs.ids, 100);
    table.add_row({profile.label(), format_float(stats.mean_ms, 3),
                   format_float(engine.resident_megabytes(), 2)});
  }
  std::cout << table.to_string();
  std::cout << "\nLookup-path models touch O(history) table rows; see "
               "bench/table3_ondevice for the Weinberger one-hot contrast.\n"
            << "kept " << path << " (serve it with tools/mcm_bench)\n";
  return 0;
}
