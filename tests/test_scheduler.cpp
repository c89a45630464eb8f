// Deadline-aware sharded scheduler tests: admission control (shedding),
// deadline-miss accounting, SLO report plumbing, and the work-stealing
// sharded pipeline under skewed multi-tenant load.
//
// Contracts locked down here:
//   * A shed request's future resolves IMMEDIATELY with RequestStatus::kShed
//     and empty logits — and every submitted request resolves exactly once,
//     shed or not (zero loss, zero double-completion).
//   * try_submit failures are fully accounted: each one is either a
//     full-queue rejection (rejected()) or an admission-control shed
//     (shed_total()), never silently dropped.
//   * deadline_missed is marked on executed requests that complete past
//     their deadline, and the report's miss/shed/goodput columns add up.
//   * The sharded scheduler (shards > 1) steals batches across shards under
//     skewed per-model load, drains every shard, and produces logits
//     bit-identical to the single-queue schedule.
//   * Workers form micro-batches themselves: a busy worker comes back to a
//     queued burst and takes it as batches of at most max_batch.
//
// The CI ThreadSanitizer job runs this suite (MEMCOM_SANITIZE=thread), and
// the Release flake job repeats it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <future>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "ondevice/registry.h"
#include "ondevice/serving.h"
#include "ondevice/topk.h"
#include "repro/model.h"
#include "test_util.h"

namespace memcom {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : paths_) {
      std::filesystem::remove(p);
    }
  }

  std::string export_model(TechniqueKind kind, const std::string& tag,
                           std::uint64_t seed = 515, Index output_vocab = 20) {
    ModelConfig config;
    config.embedding.kind = kind;
    config.embedding.vocab = 200;
    config.embedding.embed_dim = 16;
    config.embedding.knob = 32;
    config.arch = ModelArch::kClassification;
    config.output_vocab = output_vocab;
    config.seed = seed;
    RecModel model(config);
    auto p = std::filesystem::temp_directory_path() /
             ("memcom_scheduler_" + tag + ".mcm");
    paths_.push_back(p);
    model.export_mcm(p.string());
    return p.string();
  }

  std::vector<std::filesystem::path> paths_;
};

std::vector<std::int32_t> random_history(std::mt19937& rng) {
  std::uniform_int_distribution<int> len(1, 12);
  std::uniform_int_distribution<std::int32_t> id(1, 199);
  std::vector<std::int32_t> history(static_cast<std::size_t>(len(rng)));
  for (auto& v : history) {
    v = id(rng);
  }
  return history;
}

// --- Admission control / shedding ----------------------------------------

TEST_F(SchedulerTest, ShedPropagatesThroughFuturesWithZeroLoss) {
  const std::string path = export_model(TechniqueKind::kMemcom, "shed");
  const MmapModel model(path);

  // A deadline of ~0 slack makes EVERY positive wait estimate an SLO
  // violation, so shedding arms as soon as the worker has fed the
  // estimator once AND a real backlog exists (queue >= max_batch).
  AsyncServerConfig config;
  config.threads = 1;
  config.max_batch = 1;
  config.deadline_us = 0.001;  // ~zero slack
  config.shed = true;
  config.queue_capacity = 2;
  AsyncServer server(model, tflite_profile(), config);

  InferenceEngine reference(model, tflite_profile());
  std::mt19937 rng(21);
  struct Submitted {
    std::vector<std::int32_t> history;
    std::future<AsyncResult> future;
  };
  std::vector<Submitted> submitted;
  std::uint64_t try_failed = 0;
  constexpr int kAttempts = 300;
  for (int i = 0; i < kAttempts; ++i) {
    Submitted s;
    s.history = random_history(rng);
    if (i % 2 == 0) {
      s.future = server.submit(s.history);  // blocks or sheds, never fails
      submitted.push_back(std::move(s));
    } else if (server.try_submit(s.history, &s.future)) {
      submitted.push_back(std::move(s));
    } else {
      ++try_failed;  // full queue OR shed — accounted below
    }
  }

  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  for (Submitted& s : submitted) {
    const AsyncResult result = s.future.get();  // throws on double-get
    if (result.status == RequestStatus::kShed) {
      ++shed;
      // Shed at the front door: never executed, no logits, no timings.
      EXPECT_TRUE(result.logits.empty());
      EXPECT_EQ(result.service_ms, 0.0);
    } else {
      ++ok;
      const Tensor expected = reference.run(s.history).logits;
      ASSERT_EQ(static_cast<Index>(result.logits.size()), expected.numel());
      for (Index c = 0; c < expected.numel(); ++c) {
        EXPECT_EQ(result.logits[static_cast<std::size_t>(c)], expected[c]);
      }
    }
  }
  // Zero loss, zero double-completion: every accepted future resolved once.
  EXPECT_EQ(ok + shed, submitted.size());
  // The near-zero deadline plus a single slow worker guarantees shedding
  // engaged — and some requests still executed (the backlog guard admits
  // until a full micro-batch is queued).
  EXPECT_GT(shed, 0u);
  EXPECT_GT(ok, 0u);
  // Full accounting of non-admissions: every submit()-shed resolved kShed,
  // and every try_submit failure was either a counted full-queue rejection
  // or a counted shed.
  EXPECT_EQ(server.shed_total() + server.rejected(), shed + try_failed);
}

TEST_F(SchedulerTest, ShedDisabledNeverSheds) {
  const std::string path = export_model(TechniqueKind::kMemcom, "noshed");
  const MmapModel model(path);

  AsyncServerConfig config;
  config.threads = 1;
  config.max_batch = 2;
  config.deadline_us = 0.001;  // hopeless deadline, but shed is OFF
  config.shed = false;
  config.queue_capacity = 4;
  AsyncServer server(model, tflite_profile(), config);

  std::mt19937 rng(22);
  std::vector<std::future<AsyncResult>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(server.submit(random_history(rng)));
  }
  for (auto& f : futures) {
    const AsyncResult result = f.get();
    EXPECT_EQ(result.status, RequestStatus::kOk);
    // Executed past an impossible deadline: missed, not shed.
    EXPECT_TRUE(result.deadline_missed);
  }
  EXPECT_EQ(server.shed_total(), 0u);
}

// --- Deadline accounting --------------------------------------------------

TEST_F(SchedulerTest, DeadlineMissAccountingPerRequestAndInReport) {
  const std::string path = export_model(TechniqueKind::kMemcom, "deadline");
  const MmapModel model(path);

  AsyncServerConfig config;
  config.threads = 2;
  config.max_batch = 4;
  config.queue_capacity = 16;
  AsyncServer server(model, tflite_profile(), config);

  std::mt19937 rng(23);
  // Per-request override beats the config default (0 = none here):
  //   deadline ~0  -> guaranteed miss;  explicit 0 -> no deadline, no miss;
  //   10 seconds   -> guaranteed met.
  const AsyncResult missed =
      server.submit(AsyncServer::kDefaultModelId, random_history(rng), 0.001)
          .get();
  EXPECT_TRUE(missed.deadline_missed);
  const AsyncResult none =
      server.submit(AsyncServer::kDefaultModelId, random_history(rng), 0.0)
          .get();
  EXPECT_FALSE(none.deadline_missed);
  const AsyncResult met =
      server.submit(AsyncServer::kDefaultModelId, random_history(rng), 1e7)
          .get();
  EXPECT_FALSE(met.deadline_missed);

  // Report plumbing, all-miss drain: a config-default ~zero deadline without
  // shedding executes everything past its deadline.
  std::vector<std::vector<std::int32_t>> corpus;
  for (int i = 0; i < 16; ++i) {
    corpus.push_back(random_history(rng));
  }
  AsyncServerConfig hopeless = config;
  hopeless.deadline_us = 0.001;
  {
    AsyncServer miss_server(model, tflite_profile(), hopeless);
    const ServingReport report = miss_server.serve(corpus, 2);
    EXPECT_EQ(report.requests, 32u);
    EXPECT_EQ(report.shed, 0u);
    EXPECT_EQ(report.deadline_misses, 32u);
    EXPECT_EQ(report.deadline_miss_rate, 1.0);
    EXPECT_EQ(report.goodput_qps, 0.0);  // nothing met its SLO
    EXPECT_GT(report.qps, 0.0);
  }
  // All-met drain: a generous deadline makes goodput == throughput.
  AsyncServerConfig generous = config;
  generous.deadline_us = 1e7;
  {
    AsyncServer met_server(model, tflite_profile(), generous);
    const ServingReport report = met_server.serve(corpus, 2);
    EXPECT_EQ(report.deadline_misses, 0u);
    EXPECT_EQ(report.deadline_miss_rate, 0.0);
    EXPECT_EQ(report.shed_rate, 0.0);
    EXPECT_DOUBLE_EQ(report.goodput_qps, report.qps);
  }
}

TEST_F(SchedulerTest, ShedRateAndGoodputReportedUnderOverload) {
  const std::string path = export_model(TechniqueKind::kMemcom, "goodput");
  const MmapModel model(path);

  AsyncServerConfig config;
  config.threads = 1;
  config.max_batch = 1;
  config.deadline_us = 0.001;
  config.shed = true;
  config.queue_capacity = 2;
  AsyncServer server(model, tflite_profile(), config);

  std::mt19937 rng(24);
  std::vector<std::vector<std::int32_t>> corpus;
  for (int i = 0; i < 32; ++i) {
    corpus.push_back(random_history(rng));
  }
  const ServingReport report = server.serve(corpus, 8);
  EXPECT_EQ(report.requests, 256u);
  // Shed + executed must cover the drain; latency stats cover executed only.
  EXPECT_GT(report.shed, 0u);
  EXPECT_LT(report.shed, report.requests);
  EXPECT_EQ(static_cast<std::uint64_t>(report.latency.runs),
            report.requests - report.shed);
  EXPECT_DOUBLE_EQ(
      report.shed_rate,
      static_cast<double>(report.shed) / static_cast<double>(report.requests));
  // Every executed request missed the ~zero deadline, so goodput is zero
  // while raw throughput is not: the columns measure different things.
  EXPECT_EQ(report.deadline_miss_rate, 1.0);
  EXPECT_EQ(report.goodput_qps, 0.0);
  EXPECT_GT(report.qps, 0.0);
  // mean_batch averages the requests that rode a batch: shed ones never
  // did, so it cannot exceed the batch bound.
  EXPECT_LE(report.mean_batch, config.max_batch);
}

// --- Sharded scheduler / work stealing ------------------------------------

TEST_F(SchedulerTest, ShardedSkewedLoadStealsDrainsAndMatchesSingleQueue) {
  // Four tenants, one of them taking ~70% of the traffic: the shape that
  // strands capacity without stealing. Contract: every future resolves,
  // batches are stolen across shards, and each request's logits are
  // bit-identical to the single-queue schedule (composition-independent).
  ModelRegistry registry;
  std::vector<std::string> ids;
  for (int m = 0; m < 4; ++m) {
    const std::string id = "tenant" + std::to_string(m);
    registry.load(id, export_model(TechniqueKind::kMemcom, "skew_" + id,
                                   600 + static_cast<std::uint64_t>(m)));
    ids.push_back(id);
  }

  std::mt19937 rng(25);
  std::vector<RoutedRequest> routed;
  for (int i = 0; i < 240; ++i) {
    // i%10 < 7 -> hot tenant; the rest rotate through the cold ones.
    const std::size_t tenant = i % 10 < 7 ? 0 : 1 + i % 3;
    routed.push_back(RoutedRequest{ids[tenant], random_history(rng)});
  }

  const auto drain = [&](int shards, std::uint64_t* steals) {
    AsyncServerConfig config;
    config.threads = 4;
    config.shards = shards;
    config.max_batch = 2;  // many small batches: plenty to steal
    config.queue_capacity = 16;
    AsyncServer server(registry, ids.front(), tflite_profile(), config);
    std::vector<std::vector<float>> logits;
    const ServingReport report = server.serve(routed, 1, 0.0, &logits);
    EXPECT_EQ(report.requests, routed.size());
    EXPECT_EQ(static_cast<std::size_t>(report.latency.runs), routed.size());
    EXPECT_EQ(report.shards, shards);
    if (steals != nullptr) {
      *steals = report.steals;
    }
    return logits;
  };

  std::uint64_t steals = 0;
  const auto sharded = drain(4, &steals);
  const auto single = drain(1, nullptr);

  // All shards drained: one row of logits per request, none empty.
  ASSERT_EQ(sharded.size(), routed.size());
  for (std::size_t r = 0; r < sharded.size(); ++r) {
    EXPECT_FALSE(sharded[r].empty()) << "request " << r << " never resolved";
  }
  // Skew + 4 workers on 4 shards: idle primaries MUST have stolen from the
  // hot shard at some point across 100+ formed batches.
  EXPECT_GT(steals, 0u);
  // Bit-identity across schedules, per request (stronger than the multiset:
  // rows align with the request corpus in both drains).
  ASSERT_EQ(single.size(), sharded.size());
  for (std::size_t r = 0; r < sharded.size(); ++r) {
    EXPECT_EQ(sharded[r], single[r]) << "request " << r;
  }
  // ... and as a schedule-independent multiset, the sorted rows agree too.
  auto sorted_sharded = sharded;
  auto sorted_single = single;
  std::sort(sorted_sharded.begin(), sorted_sharded.end());
  std::sort(sorted_single.begin(), sorted_single.end());
  EXPECT_EQ(sorted_sharded, sorted_single);
}

TEST_F(SchedulerTest, BusyWorkerFormsBatchesFromTheQueuedBurst) {
  // No thread holds requests back to batch them: an idle worker takes what
  // is queued. A lone worker facing a burst therefore takes, each time it
  // comes back, the FIFO run that queued up behind its last batch — capped
  // at max_batch. A wide output layer keeps each forward far slower than a
  // submit, so the burst outruns the worker — unless the host preempts the
  // submitting thread, so a burst may be retried. A worker that pops one
  // request at a time reads mean_batch == 1 on every burst.
  const std::string path = export_model(TechniqueKind::kMemcom, "burst",
                                        /*seed=*/516, /*output_vocab=*/4096);
  const MmapModel model(path);
  AsyncServerConfig config;
  config.threads = 1;
  config.max_batch = 8;
  AsyncServer server(model, tflite_profile(), config);

  std::mt19937 rng(27);
  std::vector<std::vector<std::int32_t>> burst;
  for (int i = 0; i < 64; ++i) {
    burst.push_back(random_history(rng));
  }
  double mean_batch = 0.0;
  for (int attempt = 0; attempt < 5 && mean_batch < 2.0; ++attempt) {
    const ServingReport report = server.serve(burst, 1);
    EXPECT_EQ(static_cast<std::size_t>(report.latency.runs), burst.size());
    EXPECT_LE(report.mean_batch, static_cast<double>(config.max_batch));
    mean_batch = report.mean_batch;
  }
  EXPECT_GE(mean_batch, 2.0);

  std::vector<std::future<AsyncResult>> futures;
  for (const auto& history : burst) {
    futures.push_back(server.submit(history));
  }
  for (auto& f : futures) {
    const AsyncResult result = f.get();
    EXPECT_GE(result.batch, 1);
    EXPECT_LE(result.batch, config.max_batch);
  }
}

TEST_F(SchedulerTest, ShardConfigIsValidated) {
  const std::string path = export_model(TechniqueKind::kMemcom, "config");
  const MmapModel model(path);
  AsyncServerConfig config;
  config.threads = 2;
  config.shards = 3;  // more shards than workers: some shard has no primary
  EXPECT_THROW(AsyncServer(model, tflite_profile(), config),
               std::runtime_error);
  config.shards = 0;
  EXPECT_THROW(AsyncServer(model, tflite_profile(), config),
               std::runtime_error);
  config.shards = 2;
  config.queue_capacity = 1;  // cannot split one slot across two shards
  EXPECT_THROW(AsyncServer(model, tflite_profile(), config),
               std::runtime_error);
  config.queue_capacity = 2;
  AsyncServer server(model, tflite_profile(), config);  // minimal legal split
  EXPECT_EQ(server.shards(), 2);
  EXPECT_EQ(server.queue_capacity(), 2u);
  std::mt19937 rng(26);
  EXPECT_EQ(server.submit(random_history(rng)).get().status,
            RequestStatus::kOk);
}

TEST_F(SchedulerTest, ShardedCapacitySplitsAcrossShardsWithRemainder) {
  const std::string path = export_model(TechniqueKind::kMemcom, "split");
  const MmapModel model(path);
  AsyncServerConfig config;
  config.threads = 3;
  config.shards = 3;
  config.queue_capacity = 8;  // 3+3+2: remainder handed to the first shards
  AsyncServer server(model, tflite_profile(), config);
  // The TOTAL admission bound is preserved exactly, not rounded away.
  EXPECT_EQ(server.queue_capacity(), 8u);
}

// --- Session-based next-item serving --------------------------------------

TEST_F(SchedulerTest, SessionHistoryAccumulatesAndRanksAgainstEngine) {
  const std::string path = export_model(TechniqueKind::kMemcom, "session");
  const MmapModel model(path);
  AsyncServerConfig config;
  config.threads = 1;
  config.session_capacity = 8;
  config.session_history = 4;
  AsyncServer server(model, tflite_profile(), config);
  InferenceEngine reference(model, tflite_profile());

  // Four interactions of one session: request t must be served on the
  // history [items 0..t] (capped at session_history), and the returned
  // top-k must equal ranking the sequential engine's logits for that exact
  // history — ids and score bits, including the lower-id tie-break. Session
  // answers carry the ranking only, never the logits row.
  const std::vector<std::int32_t> items = {3, 17, 42, 101, 7};
  std::vector<std::int32_t> window;
  for (std::size_t t = 0; t < items.size(); ++t) {
    AsyncResult result =
        server
            .submit_next_item(AsyncServer::kDefaultModelId, /*session_id=*/9,
                              items[t], /*k=*/5)
            .get();
    ASSERT_EQ(result.status, RequestStatus::kOk);
    window.push_back(items[t]);
    if (window.size() > 4) {
      window.erase(window.begin());
    }
    EXPECT_TRUE(result.logits.empty()) << "t=" << t;
    const Tensor logits = reference.run(window).logits;
    const std::vector<ScoredId> expect =
        topk_select(logits.data(), logits.numel(), 5);
    ASSERT_EQ(result.top_ids.size(), expect.size()) << "t=" << t;
    ASSERT_EQ(result.top_scores.size(), expect.size()) << "t=" << t;
    for (std::size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(result.top_ids[j], expect[j].id) << "t=" << t << " pos " << j;
      EXPECT_EQ(std::memcmp(&result.top_scores[j], &expect[j].score,
                            sizeof(float)),
                0)
          << "t=" << t << " pos " << j;
    }
  }
  EXPECT_EQ(server.active_sessions(), 1);
  EXPECT_EQ(server.evicted_sessions(), 0u);
}

TEST_F(SchedulerTest, SessionEvictionCountsAndReportSliceFills) {
  const std::string path = export_model(TechniqueKind::kMemcom, "sess_evict");
  const MmapModel model(path);
  AsyncServerConfig config;
  config.threads = 1;
  config.session_capacity = 4;
  config.session_history = 3;
  AsyncServer server(model, tflite_profile(), config);

  // 12 distinct sessions through a 4-slot store: at least 8 evictions.
  std::vector<SessionEvent> events;
  for (std::uint64_t s = 0; s < 12; ++s) {
    events.push_back({s, static_cast<std::int32_t>(1 + s)});
    events.push_back({s, static_cast<std::int32_t>(2 + s)});
  }
  std::vector<std::vector<Index>> topk;
  const ServingReport report = server.serve_sessions(events, 3, &topk);
  EXPECT_EQ(report.requests, events.size());
  EXPECT_EQ(report.session_requests, events.size());
  EXPECT_EQ(report.shed, 0u);
  EXPECT_GT(report.session_latency.p50_ms, 0.0);
  EXPECT_GE(report.session_latency.p99_ms, report.session_latency.p50_ms);
  EXPECT_EQ(report.active_sessions, 4);
  EXPECT_GE(report.session_evictions, 8u);
  EXPECT_EQ(server.active_sessions(), report.active_sessions);
  ASSERT_EQ(topk.size(), events.size());
  for (const auto& ids : topk) {
    EXPECT_EQ(ids.size(), 3u);
  }
  // Mixed plain serve() after session traffic: report still carries the
  // store counters but no new session requests.
  const ServingReport plain = server.serve({{1, 2, 3}}, 1);
  EXPECT_EQ(plain.session_requests, 0u);
  EXPECT_EQ(plain.active_sessions, 4);
}

// (threads, shards): three shards with a primary worker each, and three
// workers popping one shard's session stream.
class SessionLayoutTest
    : public SchedulerTest,
      public ::testing::WithParamInterface<std::pair<int, int>> {};

TEST_P(SessionLayoutTest, SessionAffinityKeepsUpdatesOrderedAcrossShards) {
  const std::string path = export_model(TechniqueKind::kMemcom, "sess_shard");
  const MmapModel model(path);
  AsyncServerConfig config;
  config.threads = GetParam().first;
  config.shards = GetParam().second;
  config.session_capacity = 64;
  config.session_history = 16;
  AsyncServer server(model, tflite_profile(), config);
  InferenceEngine reference(model, tflite_profile());

  // Interleave many sessions' updates; every session's FINAL top-k must
  // match the engine run on that session's full in-order history, which
  // can only hold if per-session updates never reorder across workers.
  const int sessions = 12;
  const int rounds = 6;
  std::vector<std::vector<std::future<AsyncResult>>> futures(
      static_cast<std::size_t>(sessions));
  for (int r = 0; r < rounds; ++r) {
    for (int s = 0; s < sessions; ++s) {
      futures[static_cast<std::size_t>(s)].push_back(server.submit_next_item(
          AsyncServer::kDefaultModelId, static_cast<std::uint64_t>(s),
          static_cast<std::int32_t>(1 + s * 7 + r), /*k=*/4));
    }
  }
  for (int s = 0; s < sessions; ++s) {
    std::vector<std::int32_t> history;
    AsyncResult last;
    for (int r = 0; r < rounds; ++r) {
      history.push_back(static_cast<std::int32_t>(1 + s * 7 + r));
      last = futures[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)]
                 .get();
      ASSERT_EQ(last.status, RequestStatus::kOk);
    }
    const Tensor logits = reference.run(history).logits;
    const std::vector<ScoredId> expect =
        topk_select(logits.data(), logits.numel(), 4);
    ASSERT_EQ(last.top_ids.size(), expect.size()) << "session " << s;
    for (std::size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(last.top_ids[j], expect[j].id) << "session " << s;
    }
  }
  EXPECT_EQ(server.active_sessions(), sessions);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, SessionLayoutTest,
    ::testing::Values(std::pair<int, int>{3, 3}, std::pair<int, int>{3, 1}),
    [](const ::testing::TestParamInfo<std::pair<int, int>>& info) {
      return "threads" + std::to_string(info.param.first) + "_shards" +
             std::to_string(info.param.second);
    });

TEST_F(SchedulerTest, SessionConfigValidated) {
  const std::string path = export_model(TechniqueKind::kMemcom, "sess_cfg");
  const MmapModel model(path);
  AsyncServerConfig config;
  config.threads = 2;
  config.shards = 2;
  config.session_capacity = 1;  // cannot split one session slot two ways
  EXPECT_THROW(AsyncServer(model, tflite_profile(), config),
               std::runtime_error);
  config.session_capacity = 0;  // legal: session serving disabled...
  AsyncServer disabled(model, tflite_profile(), config);
  EXPECT_THROW(  // ...but then submit_next_item must refuse, not crash
      disabled.submit_next_item(AsyncServer::kDefaultModelId, 1, 2, 3),
      std::runtime_error);
  config.session_capacity = 5;  // 3+2 split with remainder
  config.session_history = 4;
  AsyncServer server(model, tflite_profile(), config);
  EXPECT_EQ(server.active_sessions(), 0);
  EXPECT_EQ(server
                .submit_next_item(AsyncServer::kDefaultModelId, 1, 2,
                                  /*k=*/0)
                .get()
                .status,
            RequestStatus::kOk);
}

}  // namespace
}  // namespace memcom
