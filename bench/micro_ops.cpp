// google-benchmark microbenchmarks for the substrate: matmul, softmax,
// alias sampling, quantization round trips, serialization, and the ranked
// output sweep of a session request.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include "core/ops.h"
#include "core/sampling.h"
#include "core/serialize.h"
#include "ondevice/engine.h"
#include "ondevice/format.h"
#include "ondevice/quantize.h"

namespace memcom {
namespace {

void BM_Matmul(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulTn(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(2);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_tn(a, b));
  }
}
BENCHMARK(BM_MatmulTn)->Arg(64)->Arg(128);

void BM_SoftmaxRows(benchmark::State& state) {
  const Index cols = state.range(0);
  Rng rng(3);
  const Tensor logits = Tensor::randn({64, cols}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(softmax_rows(logits));
  }
  state.SetItemsProcessed(state.iterations() * 64 * cols);
}
BENCHMARK(BM_SoftmaxRows)->Arg(128)->Arg(1024)->Arg(8192);

void BM_AliasSamplerBuild(benchmark::State& state) {
  const Index n = state.range(0);
  const std::vector<double> weights = zipf_weights(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AliasSampler(weights));
  }
}
BENCHMARK(BM_AliasSamplerBuild)->Arg(1000)->Arg(100000);

void BM_AliasSamplerSample(benchmark::State& state) {
  const AliasSampler sampler(zipf_weights(100000, 1.0));
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_AliasSamplerSample);

void BM_Quantize(benchmark::State& state) {
  const auto dtype = static_cast<DType>(state.range(0));
  Rng rng(5);
  const Tensor t = Tensor::randn({1000, 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quantize(t, dtype));
  }
  state.SetBytesProcessed(state.iterations() * t.numel() * 4);
  state.SetLabel(dtype_name(dtype));
}
BENCHMARK(BM_Quantize)
    ->Arg(static_cast<long long>(DType::kF16))
    ->Arg(static_cast<long long>(DType::kI8))
    ->Arg(static_cast<long long>(DType::kI4));

void BM_DequantizeSpan(benchmark::State& state) {
  const auto dtype = static_cast<DType>(state.range(0));
  Rng rng(6);
  const Tensor t = Tensor::randn({1000, 64}, rng);
  const QuantizedTensor q = quantize(t, dtype);
  std::vector<float> row(64);
  Index cursor = 0;
  for (auto _ : state) {
    dequantize_span(q.dtype, q.scale, q.payload.data(), (cursor % 1000) * 64,
                    64, row.data());
    benchmark::DoNotOptimize(row);
    ++cursor;
  }
  state.SetLabel(dtype_name(dtype));
}
BENCHMARK(BM_DequantizeSpan)
    ->Arg(static_cast<long long>(DType::kF32))
    ->Arg(static_cast<long long>(DType::kF16))
    ->Arg(static_cast<long long>(DType::kI8))
    ->Arg(static_cast<long long>(DType::kI4));

void BM_TensorSerializeRoundTrip(benchmark::State& state) {
  Rng rng(7);
  const Tensor t = Tensor::randn({256, 64}, rng);
  for (auto _ : state) {
    std::stringstream ss;
    write_tensor(ss, t);
    benchmark::DoNotOptimize(read_tensor(ss));
  }
  state.SetBytesProcessed(state.iterations() * t.numel() * 4);
}
BENCHMARK(BM_TensorSerializeRoundTrip);

// The output sweep of a session request: a ranked run_batch at k = 10 over
// a 50k-item x 64-dim i4g catalog, B rows at once (the trunk is one
// embedding row and a batchnorm, so the sweep is nearly all of the call).
// The .mcm is written in-process, mapped and unlinked, so a run leaves no
// file behind.
std::shared_ptr<const CompiledModel> output_sweep_model() {
  constexpr Index kItems = 50000;
  constexpr Index kDim = 64;
  constexpr Index kVocab = 9;  // id 0 is the pad id; one query per row
  const std::string path =
      (std::filesystem::temp_directory_path() / "memcom_bm_output_sweep.mcm")
          .string();
  Rng rng(5);
  ModelWriter writer(path);
  writer.set_metadata("arch", "ranking");
  writer.set_metadata("technique", "uncompressed");
  writer.set_metadata_int("vocab", kVocab);
  writer.set_metadata_int("embed_dim", kDim);
  writer.set_metadata_int("knob", 0);
  writer.set_metadata_int("output_dim", kItems);
  // Rows >= 0 pass the trunk's ReLU, and bn1 (mean 1) re-centres them.
  Tensor table = Tensor::randn({kVocab, kDim}, rng, 0.5f);
  for (Index i = 0; i < table.numel(); ++i) {
    table.data()[i] = std::abs(table.data()[i]);
  }
  writer.add_tensor("emb.table", table);
  writer.add_tensor("bn1.gamma", Tensor::full({kDim}, 1.0f));
  writer.add_tensor("bn1.beta", Tensor({kDim}));
  writer.add_tensor("bn1.mean", Tensor::full({kDim}, 1.0f));
  writer.add_tensor("bn1.var", Tensor::full({kDim}, 1.0f));
  writer.add_tensor("out.weight", Tensor::randn({kDim, kItems}, rng, 0.3f),
                    DType::kI4G);
  writer.add_tensor("out.bias", Tensor::randn({kItems}, rng, 0.1f),
                    DType::kI4G);
  writer.finish();
  auto compiled = std::make_shared<const CompiledModel>(
      std::make_shared<const MmapModel>(path));
  std::filesystem::remove(path);
  return compiled;
}

void BM_OutputSweep(benchmark::State& state) {
  static const std::shared_ptr<const CompiledModel> compiled =
      output_sweep_model();
  const Index batch = state.range(0);
  ExecutionContext context(compiled, tflite_profile());
  std::vector<std::vector<std::int32_t>> histories;
  for (Index b = 0; b < batch; ++b) {
    histories.push_back({static_cast<std::int32_t>(b + 1)});
  }
  std::vector<std::vector<ScoredId>> topk;
  context.run_batch(histories, 10, &topk);  // warm: page the file in
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.run_batch(histories, 10, &topk));
    benchmark::DoNotOptimize(topk.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_OutputSweep)->Arg(1)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace memcom

BENCHMARK_MAIN();
