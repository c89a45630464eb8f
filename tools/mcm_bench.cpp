// mcm_bench — latency + serving-throughput benchmark for exported .mcm
// models, driven through the zero-allocation inference fast path.
//
//   ./mcm_bench model.mcm [--runs 1000] [--threads 4] [--requests 256]
//               [--repeat 8] [--seq-len 32] [--profile coreml|tflite]
//               [--async] [--max-batch 8] [--queue-cap 256]
//               [--cache-kb 0] [--arrival-qps 0]
//               [--shards 1] [--deadline-us 0] [--shed]
//               [--session] [--topk K] [--nprobe N] [--clusters N]
//   ./mcm_bench model.mcm --cold-start N
//   ./mcm_bench --models a.mcm,b.mcm [--swap-after N] [serving flags above]
//
// Prints the single-input latency distribution (mean/min/p50/p95/p99/max,
// the paper's §5.3 metric) and the multi-threaded batch-1 serving report
// (QPS, per-request wall latency percentiles) of an AsyncServer at
// max_batch 1. With --async it also drives the open-loop micro-batching
// pipeline and reports the queue-wait vs service-time split and the
// hot-row cache hit rate.
//
// With --models the tool loads every file into a ModelRegistry, drives
// interleaved multi-tenant traffic through one AsyncServer, and prints the
// per-model breakdown. --swap-after N hot-swaps the FIRST model (its file
// re-published as a new version) once N requests have completed — a live
// demonstration of zero-downtime swap under traffic. Files that declare
// identity metadata must declare a higher model_version to be accepted.
//
// Scheduler knobs (both async modes): --shards N runs the sharded
// scheduler (one queue per shard, work-stealing workers; requires
// N <= threads), --deadline-us D attaches a completion deadline to every
// request (miss accounting), and --shed enables admission control
// (requests are refused with a shed status once a shard's queue-wait
// estimate exceeds the deadline). An unknown flag is an error (exit 2).
//
// --session drives the session-based next-item workload instead of replayed
// histories: events touch Zipf-less round-robin sessions through
// submit_next_item, each response carrying the top --topk item ids ranked
// over the full output catalog (single-model mode only). --nprobe N turns
// the ranking into the clustered PRUNED scan (N probed clusters per
// request) through the model's catalog index — the file's v4 section when
// it carries one, or an index built in process when --clusters N is given
// — and adds scanned-bytes / pruned-fraction / recall@k columns (recall
// measured against an exact-scan replay of the same events).
//
// --cold-start N replaces the benchmark with the fleet boot path: N times,
// load the file from scratch through to the first inference and report the
// p50/p95 split into mmap / validate / adopt-or-compile / first-inference
// phases. Plan-bearing (v3) files get two legs — the plan-adoption fast
// path and a forced full compile (PlanPolicy::kNeverAdopt) — so the table
// shows exactly what the serialized plan saves; plan-less files report the
// compile leg alone.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/flags.h"
#include "core/rng.h"
#include "core/table.h"
#include "ondevice/catalog_index.h"
#include "ondevice/clock.h"
#include "ondevice/plan.h"
#include "ondevice/registry.h"
#include "ondevice/serving.h"

using namespace memcom;

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

std::vector<std::vector<std::int32_t>> random_requests(Index vocab,
                                                       Index seq_len,
                                                       int count,
                                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::int32_t>> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::vector<std::int32_t> history(static_cast<std::size_t>(seq_len));
    for (auto& id : history) {
      id = static_cast<std::int32_t>(1 + rng.uniform_index(vocab - 1));
    }
    requests.push_back(std::move(history));
  }
  return requests;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string models_flag = flags.get_string("models", "");
  if (flags.positional().empty() && models_flag.empty()) {
    std::cerr << "usage: mcm_bench <model.mcm> [--runs N] [--threads N] "
                 "[--requests N] [--repeat N] [--seq-len L] "
                 "[--profile coreml|tflite] [--async] [--max-batch N] "
                 "[--queue-cap N] [--cache-kb K] "
                 "[--arrival-qps Q] [--shards N] [--deadline-us D] "
                 "[--shed] [--session] [--topk K] [--nprobe N] "
                 "[--clusters N] [--cold-start N]\n"
                 "       mcm_bench --models a.mcm,b.mcm [--swap-after N] "
                 "[serving flags]\n";
    return 2;
  }
  const int runs = static_cast<int>(flags.get_int("runs", 1000));
  const int threads = static_cast<int>(flags.get_int("threads", 4));
  const int request_count = static_cast<int>(flags.get_int("requests", 256));
  const int repeat = static_cast<int>(flags.get_int("repeat", 8));
  const Index seq_len = flags.get_int("seq-len", 32);
  const bool async = flags.get_bool("async", false);
  const Index max_batch = flags.get_int("max-batch", 8);
  const Index queue_cap = flags.get_int("queue-cap", 256);
  const Index cache_kb = flags.get_int("cache-kb", 0);
  const double arrival_qps = flags.get_double("arrival-qps", 0.0);
  const int shards = static_cast<int>(flags.get_int("shards", 1));
  const double deadline_us = flags.get_double("deadline-us", 0.0);
  const bool shed = flags.get_bool("shed", false);
  const bool session = flags.get_bool("session", false);
  const Index top_k = flags.get_int("topk", 10);
  const Index nprobe = flags.get_int("nprobe", 0);
  const Index clusters = flags.get_int("clusters", 0);
  const std::int64_t cold_start = flags.get_int("cold-start", 0);
  const std::string profile_name = flags.get_string("profile", "tflite");
  const std::int64_t swap_after = flags.get_int("swap-after", 0);
  // Every flag the tool reads is read above: anything left is a typo (say
  // --nprobes for --nprobe) that must not silently fall back to a default.
  if (const auto unknown = flags.unread(); !unknown.empty()) {
    std::cerr << "mcm_bench: unknown flag --" << unknown.front() << "\n";
    return 2;
  }
  if (runs < 1 || threads < 1 || request_count < 1 || repeat < 1 ||
      seq_len < 1) {
    std::cerr << "mcm_bench: --runs/--threads/--requests/--repeat/--seq-len "
                 "must all be positive\n";
    return 2;
  }
  if (max_batch < 1 || queue_cap < 1 || cache_kb < 0 || arrival_qps < 0.0) {
    std::cerr << "mcm_bench: --max-batch/--queue-cap must be positive; "
                 "--cache-kb/--arrival-qps non-negative\n";
    return 2;
  }
  if (shards < 1 || shards > threads) {
    std::cerr << "mcm_bench: --shards must satisfy 1 <= shards <= threads\n";
    return 2;
  }
  if (queue_cap < shards) {
    std::cerr << "mcm_bench: --queue-cap must be at least --shards (it is "
                 "the TOTAL admission bound, split across shards)\n";
    return 2;
  }
  if (deadline_us < 0.0) {
    std::cerr << "mcm_bench: --deadline-us must be non-negative\n";
    return 2;
  }
  if (shed && deadline_us <= 0.0) {
    std::cerr << "mcm_bench: --shed needs --deadline-us > 0 (admission "
                 "control sheds against a deadline)\n";
    return 2;
  }
  if (top_k < 1) {
    std::cerr << "mcm_bench: --topk must be positive\n";
    return 2;
  }
  if (flags.has("topk") && !session) {
    std::cerr << "mcm_bench: --topk only ranks the --session workload\n";
    return 2;
  }
  if (flags.has("nprobe") && !session) {
    std::cerr << "mcm_bench: --nprobe only prunes the --session workload\n";
    return 2;
  }
  if (flags.has("nprobe") && nprobe < 1) {
    std::cerr << "mcm_bench: --nprobe must be positive\n";
    return 2;
  }
  if (flags.has("clusters")) {
    if (!session) {
      std::cerr << "mcm_bench: --clusters only applies to the --session "
                   "workload\n";
      return 2;
    }
    if (clusters < 1) {
      std::cerr << "mcm_bench: --clusters must be positive\n";
      return 2;
    }
    if (!flags.has("nprobe")) {
      std::cerr << "mcm_bench: --clusters needs --nprobe (an index without "
                   "a probe count never prunes)\n";
      return 2;
    }
    if (nprobe > clusters) {
      std::cerr << "mcm_bench: --nprobe must not exceed --clusters\n";
      return 2;
    }
  }
  if (session && !models_flag.empty()) {
    std::cerr << "mcm_bench: --session drives the single-model mode, not "
                 "--models\n";
    return 2;
  }
  if (flags.has("cold-start") && cold_start < 1) {
    std::cerr << "mcm_bench: --cold-start must be positive\n";
    return 2;
  }
  if (cold_start > 0 && !models_flag.empty()) {
    std::cerr << "mcm_bench: --cold-start drives the single-model mode, not "
                 "--models\n";
    return 2;
  }
  if (profile_name != "tflite" && profile_name != "coreml") {
    std::cerr << "mcm_bench: unknown --profile " << profile_name
              << " (expected coreml|tflite)\n";
    return 2;
  }
  const DeviceProfile profile =
      profile_name == "tflite" ? tflite_profile() : coreml_profile("all");
  if (swap_after < 0) {
    std::cerr << "mcm_bench: --swap-after must be non-negative\n";
    return 2;
  }

  // ---- Multi-tenant mode: a registry of models behind one AsyncServer ----
  if (!models_flag.empty()) {
    const std::vector<std::string> model_paths = split_csv(models_flag);
    if (model_paths.empty()) {
      std::cerr << "mcm_bench: --models needs at least one path\n";
      return 2;
    }
    ModelRegistry registry;
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < model_paths.size(); ++i) {
      std::string id = std::filesystem::path(model_paths[i]).stem().string();
      if (registry.has_model(id)) {
        id.push_back('#');
        id += std::to_string(i);
      }
      registry.load(id, model_paths[i]);
      ids.push_back(std::move(id));
      const auto compiled = registry.acquire(ids.back());
      std::cout << "loaded " << ids.back() << " v" << registry.version(ids.back())
                << ": technique=" << compiled->technique()
                << " arch=" << compiled->architecture()
                << " vocab=" << compiled->vocab()
                << " e=" << compiled->embed_dim()
                << (compiled->model_name().empty()
                        ? std::string()
                        : "  (declares " + compiled->model_name() + " v" +
                              std::to_string(compiled->model_version()) + ")")
                << "\n";
    }
    std::cout << "profile=" << profile.label() << "  kernel dispatch="
              << registry.acquire(ids.front())->kernel_name()
              << "  plan bytes (all models, compiled once): "
              << registry.plan_resident_bytes() << "\n\n";

    // Interleaved traffic: request i goes to model i % M, with per-model
    // histories drawn from that model's vocabulary.
    std::vector<std::vector<std::vector<std::int32_t>>> per_model_requests;
    for (std::size_t m = 0; m < ids.size(); ++m) {
      per_model_requests.push_back(random_requests(
          registry.acquire(ids[m])->vocab(), seq_len, request_count,
          17 + m));
    }
    std::vector<RoutedRequest> routed;
    routed.reserve(static_cast<std::size_t>(request_count) * ids.size());
    for (int i = 0; i < request_count; ++i) {
      for (std::size_t m = 0; m < ids.size(); ++m) {
        routed.push_back(RoutedRequest{
            ids[m], per_model_requests[m][static_cast<std::size_t>(i)]});
      }
    }

    AsyncServerConfig config;
    config.threads = threads;
    config.shards = shards;
    config.max_batch = max_batch;
    config.deadline_us = deadline_us;
    config.shed = shed;
    config.queue_capacity = static_cast<std::size_t>(queue_cap);
    config.cache_budget_bytes = static_cast<std::size_t>(cache_kb) * 1024;
    AsyncServer server(registry, ids.front(), profile, config);

    // Optional hot swap under traffic: once N requests completed, republish
    // the first model's file as its next version.
    std::atomic<bool> stop{false};
    std::string swap_note;
    std::thread swapper;
    if (swap_after > 0) {
      swapper = std::thread([&] {
        while (!stop.load() && server.completed_requests() <
                                   static_cast<std::uint64_t>(swap_after)) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        // Re-check the THRESHOLD, not the stop flag: the drain can finish
        // (setting stop) in the same instant the threshold is crossed, and
        // a legitimately reached threshold must still swap.
        if (server.completed_requests() <
            static_cast<std::uint64_t>(swap_after)) {
          return;
        }
        try {
          const std::uint64_t version =
              registry.swap(ids.front(), model_paths.front());
          swap_note = "hot-swapped " + ids.front() + " to v" +
                      std::to_string(version) + " after " +
                      std::to_string(server.completed_requests()) +
                      " completed requests (in-flight batches finished on "
                      "the old version)";
        } catch (const std::exception& e) {
          swap_note = std::string("swap rejected: ") + e.what();
        }
      });
    }

    const ServingReport report = server.serve(routed, repeat, arrival_qps);
    stop.store(true);
    if (swapper.joinable()) {
      swapper.join();
    }
    if (!swap_note.empty()) {
      std::cout << swap_note << "\n\n";
    }

    TextTable overall({"threads", "shards", "models", "requests", "qps",
                       "goodput", "p50 ms", "mean batch", "shed%", "miss%",
                       "steals", "hit%"});
    overall.add_row(
        {std::to_string(report.threads), std::to_string(report.shards),
         std::to_string(ids.size()), std::to_string(report.requests),
         format_float(report.qps, 0), format_float(report.goodput_qps, 0),
         format_float(report.latency.p50_ms, 4),
         format_float(report.mean_batch, 1),
         format_float(report.shed_rate * 100.0, 1),
         format_float(report.deadline_miss_rate * 100.0, 1),
         std::to_string(report.steals),
         report.cache.enabled
             ? format_float(report.cache.hit_rate() * 100.0, 1)
             : "off"});
    std::cout << "multi-tenant serving (" << ids.size() << " models, "
              << "interleaved traffic):\n"
              << overall.to_string() << "\n";

    TextTable per_model({"model", "version", "requests", "p50 ms", "p95 ms",
                         "hit%"});
    for (const ModelReport& model : report.per_model) {
      per_model.add_row(
          {model.model_id, std::to_string(model.version),
           std::to_string(model.requests),
           format_float(model.latency.p50_ms, 4),
           format_float(model.latency.p95_ms, 4),
           model.cache.enabled
               ? format_float(model.cache.hit_rate() * 100.0, 1)
               : "off"});
    }
    std::cout << "per-model breakdown:\n" << per_model.to_string();
    return 0;
  }

  const std::string path = flags.positional()[0];
  const MmapModel model(path);
  const Index vocab = model.metadata_int("vocab");
  std::cout << "model: " << path << "  technique="
            << model.metadata_value("technique")
            << " arch=" << model.metadata_value("arch") << " vocab=" << vocab
            << " e=" << model.metadata_int("embed_dim")
            << "  profile=" << profile.label() << "\n\n";

  // ---- Cold-start mode: load -> first inference, phase by phase --------
  if (cold_start > 0) {
    // One fixed request: the first inference a freshly booted process runs.
    Rng cold_rng(17);
    std::vector<std::int32_t> first_request(
        static_cast<std::size_t>(seq_len));
    for (auto& id : first_request) {
      id = static_cast<std::int32_t>(1 + cold_rng.uniform_index(vocab - 1));
    }

    struct ColdLeg {
      const char* label;
      PlanPolicy policy;
      std::vector<double> mmap_ms, validate_ms, build_ms, infer_ms, total_ms;
      std::string verdict;
    };
    std::vector<ColdLeg> legs;
    {
      const PlanDecodeResult probe = decode_plan(model);
      if (probe.status == PlanStatus::kValid) {
        legs.push_back({"plan-adopt", PlanPolicy::kAdoptIfPresent,
                        {}, {}, {}, {}, {}, ""});
        legs.push_back({"full-compile", PlanPolicy::kNeverAdopt,
                        {}, {}, {}, {}, {}, ""});
        std::cout << "cold start (" << cold_start
                  << " iterations): plan section present and valid\n";
      } else {
        legs.push_back({"full-compile", PlanPolicy::kAdoptIfPresent,
                        {}, {}, {}, {}, {}, ""});
        std::cout << "cold start (" << cold_start << " iterations): "
                  << (probe.status == PlanStatus::kAbsent
                          ? std::string("no plan section")
                          : "plan stale — " + probe.reason)
                  << "\n";
      }
    }
    for (ColdLeg& leg : legs) {
      for (std::int64_t i = 0; i < cold_start; ++i) {
        const SteadyClock::time_point t_total = SteadyClock::now();
        const MmapModel cold(path);
        leg.mmap_ms.push_back(elapsed_ms(t_total));
        // Standalone validation timing; the CompiledModel constructor
        // repeats it internally on the adopt leg, so "adopt-or-compile"
        // below includes its own validate pass (what a loader pays).
        const SteadyClock::time_point t_validate = SteadyClock::now();
        const PlanDecodeResult decoded = decode_plan(cold);
        (void)decoded;
        leg.validate_ms.push_back(elapsed_ms(t_validate));
        const SteadyClock::time_point t_build = SteadyClock::now();
        const auto compiled =
            std::make_shared<const CompiledModel>(cold, leg.policy);
        leg.build_ms.push_back(elapsed_ms(t_build));
        const SteadyClock::time_point t_infer = SteadyClock::now();
        InferenceEngine engine(compiled, profile);
        engine.run_view(first_request);
        leg.infer_ms.push_back(elapsed_ms(t_infer));
        leg.total_ms.push_back(elapsed_ms(t_total));
        leg.verdict = compiled->plan_adopted()
                          ? "adopted"
                          : compiled->plan_fallback_reason();
      }
    }

    TextTable cold_table({"leg", "runs", "mmap p50", "validate p50",
                          "adopt-or-compile p50", "p95", "first-infer p50",
                          "total p50", "total p95", "plan"});
    for (ColdLeg& leg : legs) {
      const LatencyStats mmap = latency_stats_from_samples(leg.mmap_ms);
      const LatencyStats validate =
          latency_stats_from_samples(leg.validate_ms);
      const LatencyStats build = latency_stats_from_samples(leg.build_ms);
      const LatencyStats infer = latency_stats_from_samples(leg.infer_ms);
      const LatencyStats total = latency_stats_from_samples(leg.total_ms);
      cold_table.add_row({leg.label, std::to_string(cold_start),
                          format_float(mmap.p50_ms, 4),
                          format_float(validate.p50_ms, 4),
                          format_float(build.p50_ms, 4),
                          format_float(build.p95_ms, 4),
                          format_float(infer.p50_ms, 4),
                          format_float(total.p50_ms, 4),
                          format_float(total.p95_ms, 4), leg.verdict});
    }
    std::cout << "load -> first-inference phases (ms):\n"
              << cold_table.to_string();
    return 0;
  }

  Rng rng(17);
  std::vector<std::vector<std::int32_t>> requests;
  requests.reserve(static_cast<std::size_t>(request_count));
  for (int i = 0; i < request_count; ++i) {
    std::vector<std::int32_t> history(static_cast<std::size_t>(seq_len));
    for (auto& id : history) {
      id = static_cast<std::int32_t>(1 + rng.uniform_index(vocab - 1));
    }
    requests.push_back(std::move(history));
  }

  // Single-input latency (the paper's Table 3 metric).
  InferenceEngine engine(model, profile);
  std::cout << "kernel dispatch: " << engine.compiled().kernel_name()
            << " (set MEMCOM_DISABLE_SIMD=1 to force the scalar "
               "reference)\n\n";
  const LatencyStats stats = engine.benchmark(requests.front(), runs);
  TextTable latency({"runs", "mean ms", "min ms", "p50 ms", "p95 ms",
                     "p99 ms", "max ms", "resident MB"});
  latency.add_row({std::to_string(stats.runs), format_float(stats.mean_ms, 4),
                   format_float(stats.min_ms, 4),
                   format_float(stats.p50_ms, 4),
                   format_float(stats.p95_ms, 4),
                   format_float(stats.p99_ms, 4),
                   format_float(stats.max_ms, 4),
                   format_float(engine.resident_megabytes(), 2)});
  std::cout << "single-input latency (" << runs << " runs):\n"
            << latency.to_string() << "\n";

  // Threaded batch-1 serving throughput: one request per micro-batch.
  TextTable serving({"threads", "requests", "qps", "p50 ms", "p95 ms",
                     "p99 ms", "wall ms"});
  std::vector<int> thread_counts = {1};
  if (threads > 1) {
    thread_counts.push_back(threads);
  }
  for (const int t : thread_counts) {
    AsyncServerConfig config;
    config.threads = t;
    config.max_batch = 1;
    AsyncServer server(model, profile, config);
    server.serve(requests, 1);  // warm-up
    const ServingReport report = server.serve(requests, repeat);
    serving.add_row({std::to_string(report.threads),
                     std::to_string(report.requests),
                     format_float(report.qps, 0),
                     format_float(report.latency.p50_ms, 4),
                     format_float(report.latency.p95_ms, 4),
                     format_float(report.latency.p99_ms, 4),
                     format_float(report.wall_ms, 1)});
  }
  std::cout << "serving throughput:\n" << serving.to_string();

  if (async) {
    AsyncServerConfig config;
    config.threads = threads;
    config.shards = shards;
    config.max_batch = max_batch;
    config.deadline_us = deadline_us;
    config.shed = shed;
    config.queue_capacity = static_cast<std::size_t>(queue_cap);
    config.cache_budget_bytes = static_cast<std::size_t>(cache_kb) * 1024;
    AsyncServer server(model, profile, config);
    server.serve(requests, 1);  // warm-up (also warms the row cache)
    const ServingReport report = server.serve(requests, repeat, arrival_qps);
    TextTable table({"threads", "shards", "batch<=", "offered", "qps",
                     "goodput", "p50 ms", "wait p50 ms", "wait p95 ms",
                     "svc p50 ms", "mean batch", "shed%", "miss%", "hit%"});
    table.add_row(
        {std::to_string(report.threads), std::to_string(report.shards),
         std::to_string(max_batch),
         arrival_qps > 0 ? format_float(arrival_qps, 0) : "max",
         format_float(report.qps, 0), format_float(report.goodput_qps, 0),
         format_float(report.latency.p50_ms, 4),
         format_float(report.queue_wait.p50_ms, 4),
         format_float(report.queue_wait.p95_ms, 4),
         format_float(report.service.p50_ms, 4),
         format_float(report.mean_batch, 1),
         format_float(report.shed_rate * 100.0, 1),
         format_float(report.deadline_miss_rate * 100.0, 1),
         report.cache.enabled
             ? format_float(report.cache.hit_rate() * 100.0, 1)
             : "off"});
    std::cout << "\nasync micro-batching pipeline:\n" << table.to_string();
  }

  if (session) {
    AsyncServerConfig config;
    config.threads = threads;
    config.shards = shards;
    config.max_batch = max_batch;
    config.deadline_us = deadline_us;
    config.shed = shed;
    config.queue_capacity = static_cast<std::size_t>(queue_cap);
    config.cache_budget_bytes = static_cast<std::size_t>(cache_kb) * 1024;
    config.nprobe = nprobe;
    // Half as many session slots as distinct sessions: the tool always
    // demonstrates LRU eviction under churn, not just the hot path.
    const Index distinct_sessions =
        std::max<Index>(4, static_cast<Index>(request_count) / 2);
    config.session_capacity = std::max<Index>(shards, distinct_sessions / 2);

    // One shared plan behind a private registry so the pruned leg and the
    // exact recall-reference leg below serve the SAME CompiledModel.
    auto compiled =
        std::make_shared<CompiledModel>(model, PlanPolicy::kAdoptIfPresent);
    std::string index_note;
    if (clusters > 0) {
      CatalogIndexConfig index_config;
      index_config.clusters = clusters;
      compiled->attach_catalog_index(
          build_catalog_index_for_model(model, index_config));
      index_note =
          "built in-process (" + std::to_string(clusters) + " clusters)";
    } else if (compiled->has_catalog_index()) {
      index_note = "file-adopted (" +
                   std::to_string(compiled->catalog_index().clusters) +
                   " clusters)";
    } else {
      index_note =
          "none - exact scan (" + compiled->index_fallback_reason() + ")";
    }
    ModelRegistry session_registry;
    session_registry.publish(AsyncServer::kDefaultModelId, compiled);
    AsyncServer server(session_registry, AsyncServer::kDefaultModelId,
                       profile, config);

    // request_count * repeat events round-robin over the session pool, each
    // touching a fresh random item.
    Rng session_rng(29);
    std::vector<SessionEvent> events;
    events.reserve(static_cast<std::size_t>(request_count) *
                   static_cast<std::size_t>(repeat));
    for (int r = 0; r < repeat; ++r) {
      for (int i = 0; i < request_count; ++i) {
        SessionEvent event;
        event.session_id =
            static_cast<std::uint64_t>(i % distinct_sessions) + 1;
        event.item = static_cast<std::int32_t>(
            1 + session_rng.uniform_index(vocab - 1));
        events.push_back(event);
      }
    }

    server.serve_sessions(events, top_k);  // warm-up
    std::vector<std::vector<Index>> pruned_topk;
    const ServingReport report =
        server.serve_sessions(events, top_k, &pruned_topk);

    // Recall@k against an exact replay: a second server over the SAME plan
    // runs the identical event stream with pruning off. Session routing and
    // eviction are deterministic per event order, so row i of both drains
    // ranked the same history — the only difference is the scan.
    std::string recall_cell = "exact";
    if (nprobe > 0) {
      AsyncServerConfig exact_config = config;
      exact_config.nprobe = 0;
      AsyncServer exact_server(session_registry,
                               AsyncServer::kDefaultModelId, profile,
                               exact_config);
      exact_server.serve_sessions(events, top_k);  // mirror the warm-up
      std::vector<std::vector<Index>> exact_topk;
      exact_server.serve_sessions(events, top_k, &exact_topk);
      double overlap_sum = 0.0;
      std::size_t counted = 0;
      for (std::size_t i = 0;
           i < exact_topk.size() && i < pruned_topk.size(); ++i) {
        if (exact_topk[i].empty()) {
          continue;  // shed
        }
        std::vector<Index> exact_ids = exact_topk[i];
        std::sort(exact_ids.begin(), exact_ids.end());
        std::size_t hit = 0;
        for (const Index id : pruned_topk[i]) {
          hit += std::binary_search(exact_ids.begin(), exact_ids.end(), id)
                     ? 1u
                     : 0u;
        }
        overlap_sum +=
            static_cast<double>(hit) / static_cast<double>(exact_ids.size());
        ++counted;
      }
      recall_cell = format_float(
          counted > 0 ? overlap_sum / static_cast<double>(counted) : 1.0, 4);
    }

    TextTable table({"threads", "shards", "top-k", "nprobe", "events", "qps",
                     "p50 ms", "p95 ms", "scan MB", "pruned%",
                     "recall@k", "active", "evicted", "shed%", "miss%"});
    table.add_row(
        {std::to_string(report.threads), std::to_string(report.shards),
         std::to_string(top_k),
         nprobe > 0 ? std::to_string(nprobe) : "exact",
         std::to_string(report.session_requests), format_float(report.qps, 0),
         format_float(report.session_latency.p50_ms, 4),
         format_float(report.session_latency.p95_ms, 4),
         format_float(static_cast<double>(report.scanned_bytes) /
                          (1024.0 * 1024.0),
                      1),
         format_float(report.pruned_fraction * 100.0, 1), recall_cell,
         std::to_string(report.active_sessions),
         std::to_string(report.session_evictions),
         format_float(report.shed_rate * 100.0, 1),
         format_float(report.deadline_miss_rate * 100.0, 1)});
    std::cout << "\nsession next-item serving (" << distinct_sessions
              << " sessions, capacity " << config.session_capacity
              << ", history " << config.session_history
              << ", full-catalog top-" << top_k << ", catalog index: "
              << index_note << "):\n"
              << table.to_string();
  }
  return 0;
}
