// Measuring program of the serving benchmark (one workload per process).
//
// Drives the public serving API end to end — ModelRegistry publication,
// AsyncServer::submit / submit_next_item, and (in the traced run's layer
// replay) ExecutionContext::run_batch and topk_select — from one generator
// thread plus one completion thread, checks every answer against references
// computed at set-up by this same build through the sequential path
// (InferenceEngine::run + topk_full_sort), and prints the metrics as one JSON
// line. run.py builds this program and the fixtures and passes the workload's
// fixed parameters (perfbench/workloads.json); see perfbench/README.md.
//
// Phases, after the timed boots:
//   paced     open-loop Poisson arrivals at --rate with a kDeadlineMs SLO;
//             latency runs from when each request was DUE, not when it was
//             sent, so a stalled generator cannot hide queueing.
//   saturate  closed loop keeping kInflight requests outstanding.
// --trace 0 runs both once and reports the end-to-end metrics. --trace 1 runs
// them untraced, then traced (spans kept in memory, dumped at exit), then a
// single-thread layer replay, and reports the per-layer metrics.
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <semaphore>
#include <sstream>
#include <tuple>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/flags.h"
#include "core/rng.h"
#include "core/sampling.h"
#include "ondevice/compiled_model.h"
#include "ondevice/device_profile.h"
#include "ondevice/engine.h"
#include "ondevice/execution_context.h"
#include "ondevice/format.h"
#include "ondevice/registry.h"
#include "ondevice/serving.h"
#include "ondevice/topk.h"
#include "trace.h"

using namespace memcom;
using perfbench::now_us;
using perfbench::SpanBuffer;

namespace {

constexpr Index kTopK = 10;
// Server shape and session store size are fixed by the benchmark; the
// reference LRU simulation below must use the same session numbers.
constexpr int kWorkers = 2;
constexpr Index kMaxBatch = 8;
constexpr std::size_t kQueueCapacity = 1024;
constexpr std::size_t kCacheBudgetBytes = 256 * 1024;
constexpr Index kSessionCapacity = 128;
constexpr Index kSessionHistory = 32;
// Load shape shared by every workload (the rates live in workloads.json).
constexpr int kInflight = 32;            // saturation closed-loop depth
constexpr double kDeadlineMs = 100;      // paced per-request SLO
constexpr double kSwapMs = 100;          // model_update hot-swap cadence
constexpr double kClassifyShare = 0.25;  // classify requests, two tenants
constexpr int kBoots = 31;               // setup_s is their median
constexpr int kIdleSwaps = 41;           // publish_to_serve without traffic
// Pause before each boot and idle swap, so one burst of host contention moves
// few samples.
constexpr double kSampleGapMs = 20;
// Pruned leg of the layer replay; the nprobe the pruned workloads serve.
constexpr Index kReplayNprobe = 8;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string fixtures;
  std::string trace_out;
  std::string commit;
  bool smoke = false;
  bool perturb = false;  // self-test: corrupt one reference, gate must trip
  double rate = 1000;       // paced arrivals per second
  Index nprobe = 0;         // clusters probed by pruned session requests
  double pruned_share = 1;  // share of session requests that are pruned
};

// ---------------------------------------------------------------------------
// Statistics helpers.

// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Peak resident set of this process (VmHWM), from getrusage.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB
}

// Keeps every CPU out of its idle (halt) state while the benchmark measures
// latency (boots, idle swaps, the paced phase). One SCHED_IDLE thread per CPU
// spins; it runs only when no other thread wants that CPU, and a thread that
// wakes preempts it at once. On a shared VM host, waking a halted vCPU waits
// for the host to reschedule it, which took milliseconds in busy periods and
// doubled the p50 of every hand-off; with the pollers a wake-up is a guest
// context switch, as on a dedicated device.
class IdlePollers {
 public:
  IdlePollers() {
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < cpus; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          return;  // never spin at normal priority: it would steal CPU
        }
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~IdlePollers() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) {
      t.join();
    }
  }
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// Tenants and their references.

struct SessionRef {
  std::vector<ScoredId> exact;       // topk_full_sort of the exact logits
  std::vector<ScoredId> candidates;  // exact top-k + reference pruned ids,
                                     // each with its EXACT logit
};

struct Tenant {
  std::string id;  // registry model id
  bool session = false;
  std::vector<std::string> files;  // swap rotation; files[0] boots
  Index output_dim = 0;
  // References per rotation variant.
  std::vector<std::vector<float>> logits;       // classify: [R * output_dim]
  std::vector<std::vector<SessionRef>> ranked;  // session: [E + 1] (last = probe)
};

// Seeded inputs. Session events carry the base-pass session index; pass p of
// the event list uses session id ((p + 1) << 32) | index, so every pass starts
// from sessions the server has never seen and its histories repeat exactly.
struct Inputs {
  std::vector<std::vector<std::int32_t>> histories;  // classify pool
  std::vector<SessionEvent> events;                  // one pass
  std::vector<std::vector<std::int32_t>> event_histories;
  std::int32_t probe_item = 1;
};

std::vector<std::int32_t> zipf_ids(AliasSampler& sampler, Rng& rng, Index n) {
  std::vector<std::int32_t> ids(static_cast<std::size_t>(n));
  for (auto& id : ids) {
    id = static_cast<std::int32_t>(1 + sampler.sample(rng));  // 0 is padding
  }
  return ids;
}

// Mirrors SessionStore: LRU over `capacity` sessions, each keeping its last
// kSessionHistory items, evicted sessions restart empty.
std::vector<std::vector<std::int32_t>> simulate_sessions(
    const std::vector<SessionEvent>& events, Index capacity) {
  std::vector<std::vector<std::int32_t>> out;
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> live;
  std::deque<std::uint64_t> lru;  // front = most recent
  for (const SessionEvent& ev : events) {
    auto it = live.find(ev.session_id);
    if (it != live.end()) {
      lru.erase(std::find(lru.begin(), lru.end(), ev.session_id));
    } else {
      if (static_cast<Index>(live.size()) == capacity) {
        live.erase(lru.back());
        lru.pop_back();
      }
      it = live.emplace(ev.session_id, std::vector<std::int32_t>{}).first;
    }
    lru.push_front(ev.session_id);
    auto& h = it->second;
    h.push_back(ev.item);
    if (static_cast<Index>(h.size()) > kSessionHistory) {
      h.erase(h.begin());
    }
    out.push_back(h);
  }
  return out;
}

Inputs make_inputs(const Options& opt, Index classify_vocab, Index items) {
  Inputs in;
  Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 17);
  if (classify_vocab > 1) {
    AliasSampler ids(zipf_weights(classify_vocab - 1, 1.0));
    const Index pool = opt.smoke ? 256 : 4096;
    const Index min_len = opt.smoke ? 8 : 32;
    const Index max_len = opt.smoke ? 32 : 128;
    for (Index r = 0; r < pool; ++r) {
      const Index len = min_len + rng.uniform_index(max_len - min_len + 1);
      in.histories.push_back(zipf_ids(ids, rng, len));
    }
  }
  if (items > 1) {
    AliasSampler item_ids(zipf_weights(items - 1, 1.0));
    const Index sessions = opt.smoke ? 64 : 512;
    AliasSampler session_pick(zipf_weights(sessions, 0.7));
    const Index events = opt.smoke ? 96 : 1024;
    for (Index e = 0; e < events; ++e) {
      SessionEvent ev;
      ev.session_id = static_cast<std::uint64_t>(session_pick.sample(rng));
      ev.item = static_cast<std::int32_t>(1 + item_ids.sample(rng));
      in.events.push_back(ev);
    }
    in.event_histories = simulate_sessions(in.events, kSessionCapacity);
    in.probe_item = static_cast<std::int32_t>(1 + item_ids.sample(rng));
  }
  return in;
}

// References through the sequential path, spread over a few threads (set-up
// only; nothing is measured while they run).
void compute_references(Tenant& t, const Inputs& in, Index nprobe) {
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  for (const std::string& file : t.files) {
    auto mapped = std::make_shared<const MmapModel>(file);
    auto compiled = std::make_shared<const CompiledModel>(mapped);
    t.output_dim = compiled->output_dim();
    const Index dim = t.output_dim;
    std::vector<std::vector<std::int32_t>> inputs =
        t.session ? in.event_histories : in.histories;
    if (t.session) {
      inputs.push_back({in.probe_item});
    }
    std::vector<float> logits;
    std::vector<SessionRef> ranked;
    if (t.session) {
      ranked.resize(inputs.size());
    } else {
      logits.resize(inputs.size() * static_cast<std::size_t>(dim));
    }
    // Worker `w` takes inputs w, w + threads, ...
    const auto work = [&](std::size_t w) {
      InferenceEngine engine(compiled, tflite_profile());
      ExecutionContext pruned(compiled, tflite_profile());
      std::vector<std::vector<ScoredId>> top;
      const std::vector<Index> probes{nprobe};
      for (std::size_t i = w; i < inputs.size();
           i += static_cast<std::size_t>(threads)) {
        const Tensor row = engine.run(inputs[i]).logits;
        if (!t.session) {
          std::copy(row.data(), row.data() + dim,
                    logits.begin() + static_cast<std::ptrdiff_t>(i * dim));
          continue;
        }
        SessionRef& ref = ranked[i];
        // Copy: topk_full_sort's result keeps the capacity of its full sort
        // (one slot per catalog item).
        const auto sorted = topk_full_sort(row.data(), dim, kTopK);
        ref.exact.assign(sorted.begin(), sorted.end());
        ref.candidates = ref.exact;
        if (nprobe > 0) {
          pruned.run_batch({inputs[i]}, kTopK, &top, &probes);
          for (const ScoredId& s : top[0]) {
            const bool known = std::any_of(
                ref.candidates.begin(), ref.candidates.end(),
                [&](const ScoredId& c) { return c.id == s.id; });
            if (!known) {
              ref.candidates.push_back({row.data()[s.id], s.id});
            }
          }
        }
      }
    };
    std::vector<std::thread> pool;
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
    for (std::size_t w = 0; w < errors.size(); ++w) {
      pool.emplace_back([&, w] {
        try {
          work(w);
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
    for (auto& th : pool) {
      th.join();
    }
    for (const auto& e : errors) {
      if (e) {
        std::rethrow_exception(e);
      }
    }
    t.logits.push_back(std::move(logits));
    t.ranked.push_back(std::move(ranked));
  }
}

bool same_bits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// The correctness gate. Answers to `pruned` requests may come from the pruned
// scan; all others must be the exact top-10. `recall` receives the answer's
// recall@10 against the exact top-10 of the version that served it.
bool check_answer(const Tenant& t, const AsyncResult& r, std::size_t variant,
                  std::size_t index, bool pruned, double* recall) {
  *recall = 0.0;
  if (variant >= t.files.size()) {
    return false;
  }
  if (!t.session) {
    const Index dim = t.output_dim;
    if (static_cast<Index>(r.logits.size()) != dim) {
      return false;
    }
    const float* want =
        t.logits[variant].data() + index * static_cast<std::size_t>(dim);
    if (std::memcmp(r.logits.data(), want, sizeof(float) * dim) == 0) {
      *recall = 1.0;
      return true;
    }
    const auto got = topk_select(r.logits.data(), dim, kTopK);
    const auto ref = topk_select(want, dim, kTopK);
    for (const ScoredId& g : got) {
      for (const ScoredId& w : ref) {
        *recall += g.id == w.id ? 1.0 / static_cast<double>(ref.size()) : 0.0;
      }
    }
    return false;
  }
  const SessionRef& ref = t.ranked[variant][index];
  if (r.top_ids.size() != ref.exact.size() ||
      r.top_scores.size() != r.top_ids.size()) {
    return false;
  }
  bool ok = true;
  std::size_t hits = 0;
  for (std::size_t j = 0; j < r.top_ids.size(); ++j) {
    const ScoredId got{r.top_scores[j], r.top_ids[j]};
    if (j > 0 && !topk_better({r.top_scores[j - 1], r.top_ids[j - 1]}, got)) {
      ok = false;  // not best-first
    }
    const auto c = std::find_if(
        ref.candidates.begin(), ref.candidates.end(),
        [&](const ScoredId& s) { return s.id == got.id; });
    ok = ok && c != ref.candidates.end() && same_bits(c->score, got.score) &&
         (pruned || got.id == ref.exact[j].id);
    for (const ScoredId& e : ref.exact) {
      hits += e.id == got.id ? 1 : 0;
    }
  }
  *recall = static_cast<double>(hits) / static_cast<double>(ref.exact.size());
  return ok;
}

// Self-test hook: one bit flipped in every variant's reference for classify
// history 0 and session event 0 — both are served early in every run.
void perturb_references(Tenant& t) {
  for (std::size_t v = 0; v < t.files.size(); ++v) {
    if (!t.session) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, t.logits[v].data(), sizeof bits);
      bits ^= 1u;
      std::memcpy(t.logits[v].data(), &bits, sizeof bits);
    } else {
      for (ScoredId& c : t.ranked[v][0].candidates) {
        c.score = std::nextafter(c.score, 1e30f);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Loading: open -> CompiledModel -> publish, each step timed on its own.

struct LoadRecord {
  double open_ms = 0, build_ms = 0, publish_ms = 0, total_ms = 0;
  bool plan_adopted = false, index_adopted = false;
  std::uint64_t version = 0;
};

LoadRecord publish_file(ModelRegistry& registry, const std::string& id,
                        const std::string& path, SpanBuffer& spans,
                        std::int64_t parent) {
  LoadRecord rec;
  const double t0 = now_us();
  auto mapped = std::make_shared<const MmapModel>(path);
  const double t1 = now_us();
  auto compiled = std::make_shared<const CompiledModel>(mapped);
  const double t2 = now_us();
  rec.plan_adopted = compiled->plan_adopted();
  rec.index_adopted = compiled->has_catalog_index();
  rec.version = registry.publish(id, std::move(compiled));
  const double t3 = now_us();
  spans.add("format.open", parent, 0, t0, t1);
  spans.add("compiled_model.build", parent, 0, t1, t2);
  spans.add("registry.publish", parent, 0, t2, t3);
  rec.open_ms = (t1 - t0) / 1e3;
  rec.build_ms = (t2 - t1) / 1e3;
  rec.publish_ms = (t3 - t2) / 1e3;
  rec.total_ms = (t3 - t0) / 1e3;
  return rec;
}

AsyncServerConfig server_config() {
  AsyncServerConfig config;
  config.threads = kWorkers;
  config.shards = 1;
  config.max_batch = kMaxBatch;
  config.deadline_us = 0;  // deadlines are per request (paced phase only)
  config.shed = false;
  config.queue_capacity = kQueueCapacity;
  config.cache_budget_bytes = kCacheBudgetBytes;
  config.session_capacity = kSessionCapacity;
  config.session_history = kSessionHistory;
  return config;
}

// ---------------------------------------------------------------------------
// Traffic.

struct Op {
  std::size_t tenant = 0;
  std::size_t index = 0;  // classify pool index | session event index
  std::uint64_t session_id = 0;
  std::int32_t item = 0;
  Index nprobe = 0;  // session ranking: 0 = exact sweep
};

class OpSource {
 public:
  OpSource(const Options& opt, const Inputs& in,
           const std::vector<Tenant>& tenants)
      : rng_(opt.seed * 31 + 7),
        pruned_share_(opt.pruned_share),
        nprobe_(opt.nprobe),
        in_(in),
        tenants_(tenants) {}

  Op next() {
    Op op;
    op.tenant = tenants_.size() > 1 && !rng_.bernoulli(kClassifyShare) ? 1 : 0;
    if (!tenants_[op.tenant].session) {
      op.index = static_cast<std::size_t>(
          rng_.uniform_index(static_cast<std::int64_t>(in_.histories.size())));
      return op;
    }
    const std::uint64_t n = in_.events.size();
    op.index = static_cast<std::size_t>(session_ops_ % n);
    op.session_id = ((session_ops_ / n + 1) << 32) | in_.events[op.index].session_id;
    op.item = in_.events[op.index].item;
    op.nprobe = rng_.bernoulli(pruned_share_) ? nprobe_ : 0;
    ++session_ops_;
    return op;
  }

 private:
  Rng rng_;
  double pruned_share_;
  Index nprobe_;
  const Inputs& in_;
  const std::vector<Tenant>& tenants_;
  std::uint64_t session_ops_ = 0;
};

std::uint64_t next_probe_session() {
  static std::uint64_t counter = 0;
  return (1ULL << 62) | counter++;
}

// Everything one phase measured. Samples cover completed requests.
struct PhaseStats {
  std::uint64_t attempted = 0, completed = 0, shed = 0, rejected = 0,
                missed = 0, wrong = 0;  // wrong includes failed futures
  std::vector<double> latency_ms, gen_lag_ms, submit_us, queue_wait_ms,
      service_ms;
  double batches = 0;  // sum of 1/batch over completions
  // recall@10 of answers to pruned requests | of every other answer.
  double recall_sum = 0, exact_recall_sum = 0;
  std::uint64_t recall_n = 0, exact_recall_n = 0;
  double start_us = 0, seconds = 0;
  std::vector<double> due_us;     // paced: parallel to latency_ms
  std::vector<double> result_us;  // every completion
  std::uint64_t steals = 0;
  // Earliest completion per (tenant, version) as (result, send) times, for
  // publish_to_serve.
  std::map<std::pair<std::size_t, std::uint64_t>, std::pair<double, double>>
      first_result_us;

  double batch_mean() const {
    return batches > 0 ? static_cast<double>(completed) / batches : 0.0;
  }
};

struct SwapRecord {
  std::size_t tenant = 0;
  double start_us = 0;
  LoadRecord load;
};

struct Pending {
  Op op;
  double due_us = 0, send_us = 0, ret_us = 0;
  std::uint64_t request = 0;
  std::future<AsyncResult> future;
};

// Rotation variant that registry `version` of a tenant serves: the boot
// publishes variant 0 as version 1 and every swap advances the rotation.
std::size_t variant_of(const Tenant& t, std::uint64_t version) {
  return static_cast<std::size_t>((version - 1) % t.files.size());
}

// One probe request to `t` (classify history 0, or a fresh session touching
// the probe item), checked against the version that must serve it. Session
// probes rank exactly, so their cost does not depend on which clusters one
// query happens to probe.
bool probe_answer(AsyncServer& server, const Tenant& t, const Inputs& in,
                  std::uint64_t expect_version,
                  double* result_us) {
  const double send = now_us();
  std::future<AsyncResult> f =
      t.session ? server.submit_next_item(t.id, next_probe_session(),
                                          in.probe_item, kTopK, 0.0, 0)
                : server.submit(t.id, in.histories[0], 0.0);
  const AsyncResult r = f.get();
  *result_us = send + r.total_ms * 1e3;
  double recall = 0;
  const std::size_t index = t.session ? t.ranked[0].size() - 1 : 0;
  return r.model_version == expect_version &&
         check_answer(t, r, variant_of(t, r.model_version), index, false,
                      &recall);
}

class Runner {
 public:
  Runner(const Options& opt, const Inputs& in, std::vector<Tenant>& tenants,
         ModelRegistry& registry, AsyncServer& server)
      : opt_(opt), in_(in), tenants_(tenants), registry_(registry),
        server_(server), ops_(opt, in, tenants) {}

  std::vector<SwapRecord> swaps;
  std::uint64_t gate_failures = 0;  // includes boot and probe answers

  // Runs one phase. `paced` selects open loop at opt.rate with deadlines,
  // otherwise closed loop at kInflight. `swap_count` > 0 hot-swaps the
  // tenants in rotation from this thread while traffic runs.
  // Request spans are recorded by the completion thread into
  // `request_spans`, swap spans by this thread into `main_spans`.
  PhaseStats run_phase(bool paced, double seconds, SpanBuffer& request_spans,
                       SpanBuffer& main_spans, int swap_count) {
    const bool traced = request_spans.enabled();
    PhaseStats stats;
    std::deque<Pending> queue;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::counting_semaphore<1 << 20> slots(paced ? 0 : kInflight);
    // Latency phases only: in the saturated phase every CPU is busy anyway,
    // and spinning siblings cost throughput.
    std::optional<IdlePollers> pollers;
    if (paced) {
      pollers.emplace();
    }
    const std::uint64_t steals_before = server_.steal_count();

    stats.start_us = now_us() + 1000.0;
    stats.seconds = seconds;
    const double end_us = stats.start_us + seconds * 1e6;

    std::thread completion([&] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) {
            return;
          }
          p = std::move(queue.front());
          queue.pop_front();
        }
        complete(p, paced, stats, request_spans);
        if (!paced) {
          slots.release();
        }
      }
    });

    std::uint64_t rejected = 0, submitted = 0;
    std::thread generator([&] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // precise pacing sleeps
      // One fixed Poisson schedule for every seed: runs differ in what is
      // asked, not when, so the tail reflects the server rather than which
      // bursts one seed's schedule happened to contain.
      Rng arrivals(0xA5517A1ULL);
      double due = stats.start_us;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(due - now_us()));
      while (true) {
        if (paced) {
          due += -std::log(1.0 - arrivals.next_double()) * 1e6 / opt_.rate;
          if (due >= end_us) {
            break;
          }
          std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
              due - now_us()));
        } else {
          slots.acquire();
          due = now_us();
          if (due >= end_us) {
            break;
          }
        }
        Pending p;
        p.op = ops_.next();
        p.request = ++request_counter_;
        p.due_us = due;
        p.send_us = now_us();
        const bool accepted = submit(p, paced);
        p.ret_us = traced ? now_us() : p.send_us;
        if (!accepted) {
          ++rejected;
          continue;
        }
        ++submitted;
        {
          std::lock_guard<std::mutex> lock(mu);
          queue.push_back(std::move(p));
        }
        cv.notify_one();
      }
    });

    if (swap_count > 0) {
      const double spacing = seconds * 1e6 / (swap_count + 1);
      for (int i = 0; i < swap_count; ++i) {
        const double at = stats.start_us + spacing * (i + 1);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(at - now_us()));
        swap_next(static_cast<std::size_t>(i) % tenants_.size(), main_spans);
      }
    }

    generator.join();
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
    completion.join();
    stats.rejected = rejected;
    stats.attempted = submitted + rejected;
    stats.steals = server_.steal_count() - steals_before;
    return stats;
  }

  // Idle publish -> serve: republish the boot file, send one probe, and time
  // swap start -> that probe's completion.
  std::vector<double> idle_swaps(int count, SpanBuffer& spans) {
    std::vector<double> out;
    for (int i = 0; i < count; ++i) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(kSampleGapMs));
      const double t0 = now_us();
      const std::int64_t span = spans.add("registry.swap", -1, 0, t0, t0);
      Tenant& t = tenants_[0];
      SwapRecord rec{0, t0, publish_file(registry_, t.id, t.files[0], spans, span)};
      spans.close(span, t0 + rec.load.total_ms * 1e3);
      swaps.push_back(rec);
      double result_us = 0;
      if (!probe_answer(server_, t, in_, rec.load.version, &result_us)) {
        ++gate_failures;
      }
      out.push_back((result_us - t0) / 1e3);
    }
    return out;
  }

 private:
  bool submit(Pending& p, bool paced) {
    const Tenant& t = tenants_[p.op.tenant];
    const double deadline_us = paced ? kDeadlineMs * 1e3 : 0.0;
    if (t.session) {
      p.future = server_.submit_next_item(t.id, p.op.session_id, p.op.item,
                                          kTopK, deadline_us, p.op.nprobe);
      return true;
    }
    if (paced) {
      return server_.try_submit(t.id, in_.histories[p.op.index], &p.future,
                                deadline_us);
    }
    p.future = server_.submit(t.id, in_.histories[p.op.index], deadline_us);
    return true;
  }

  void complete(Pending& p, bool paced, PhaseStats& stats, SpanBuffer& spans) {
    AsyncResult r;
    try {
      r = p.future.get();
    } catch (const std::exception&) {
      ++stats.wrong;
      return;
    }
    if (r.status == RequestStatus::kShed) {
      ++stats.shed;
      return;
    }
    ++stats.completed;
    const Tenant& t = tenants_[p.op.tenant];
    const double result_us = p.send_us + r.total_ms * 1e3;
    stats.result_us.push_back(result_us);
    stats.batches += r.batch > 0 ? 1.0 / static_cast<double>(r.batch) : 0.0;
    stats.missed += r.deadline_missed ? 1 : 0;
    double recall = 0;
    if (r.model_id != t.id ||
        !check_answer(t, r, variant_of(t, r.model_version), p.op.index,
                      p.op.nprobe > 0, &recall)) {
      ++stats.wrong;
    }
    (p.op.nprobe > 0 ? stats.recall_sum : stats.exact_recall_sum) += recall;
    ++(p.op.nprobe > 0 ? stats.recall_n : stats.exact_recall_n);
    const auto key = std::make_pair(p.op.tenant, r.model_version);
    auto [it, inserted] =
        stats.first_result_us.emplace(key, std::make_pair(result_us, p.send_us));
    if (!inserted && result_us < it->second.first) {
      it->second = {result_us, p.send_us};
    }
    if (paced) {
      stats.latency_ms.push_back((result_us - p.due_us) / 1e3);
      stats.due_us.push_back(p.due_us);
      stats.gen_lag_ms.push_back((p.send_us - p.due_us) / 1e3);
    }
    stats.queue_wait_ms.push_back(r.queue_wait_ms);
    stats.service_ms.push_back(r.service_ms);
    if (spans.enabled()) {
      stats.submit_us.push_back(p.ret_us - p.send_us);
      if (p.request % 4 == 0) {  // one request in four is dumped
        const std::int64_t root =
            spans.add("bench.request", -1, p.request, p.due_us, result_us);
        if (paced) {
          spans.add("bench.gen_lag", root, p.request, p.due_us, p.send_us);
        }
        spans.add("serving.submit", root, p.request, p.send_us, p.ret_us);
        spans.add("serving.queue_wait", root, p.request, p.send_us,
                  p.send_us + r.queue_wait_ms * 1e3);
        spans.add("serving.service", root, p.request,
                  result_us - r.service_ms * 1e3, result_us);
      }
    }
  }

  void swap_next(std::size_t tenant, SpanBuffer& spans) {
    Tenant& t = tenants_[tenant];
    const std::size_t next = ++rotation_[tenant] % t.files.size();
    const double t0 = now_us();
    const std::int64_t span = spans.add("registry.swap", -1, 0, t0, t0);
    swaps.push_back(
        SwapRecord{tenant, t0, publish_file(registry_, t.id, t.files[next], spans, span)});
    spans.close(span, t0 + swaps.back().load.total_ms * 1e3);
  }

  const Options& opt_;
  const Inputs& in_;
  std::vector<Tenant>& tenants_;
  ModelRegistry& registry_;
  AsyncServer& server_;
  OpSource ops_;
  std::uint64_t request_counter_ = 0;
  std::map<std::size_t, std::size_t> rotation_;
};

// publish_to_serve samples grouped by (tenant, rotation file). The groups
// differ by milliseconds (a classify answer vs a catalog sweep), and a few
// swaps in each land behind a busy worker, so each group reports its median
// and the figure is the mean over groups.
using PublishGroups =
    std::map<std::pair<std::size_t, std::size_t>, std::vector<double>>;

double mean_of_medians(const PublishGroups& groups) {
  double sum = 0;
  for (const auto& [group, samples] : groups) {
    sum += median(samples);
  }
  return groups.empty() ? 0.0 : sum / static_cast<double>(groups.size());
}

// Time from each swap (index `from` on) to the first completed response
// stamped with the version it published, less any time after the publish
// during which no request for that tenant had been sent yet: the wait for the
// next open-loop arrival is the schedule's, not the server's.
void publish_to_serve(const PhaseStats& phase,
                      const std::vector<Tenant>& tenants,
                      const std::vector<SwapRecord>& swaps, std::size_t from,
                      PublishGroups* groups) {
  for (std::size_t i = from; i < swaps.size(); ++i) {
    const SwapRecord& s = swaps[i];
    const auto it = phase.first_result_us.find(
        std::make_pair(s.tenant, s.load.version));
    if (it == phase.first_result_us.end()) {
      continue;
    }
    const auto [result_us, send_us] = it->second;
    const double published_us = s.start_us + s.load.total_ms * 1e3;
    const std::size_t file = variant_of(tenants[s.tenant], s.load.version);
    (*groups)[{s.tenant, file}].push_back(
        (result_us - s.start_us - std::max(0.0, send_us - published_us)) / 1e3);
  }
}

// End-to-end figures are medians over kWindows equal slices of a phase: a
// burst of host contention moves one slice, not the reported value.
constexpr int kWindows = 5;

std::size_t window_of(const PhaseStats& p, double t_us) {
  const double w = (t_us - p.start_us) / (p.seconds * 1e6 / kWindows);
  return static_cast<std::size_t>(std::clamp(w, 0.0, kWindows - 1.0));
}

// Per-window (by due time) latency quantile.
std::vector<double> windowed_latency(const PhaseStats& p, double q) {
  std::vector<std::vector<double>> windows(kWindows);
  for (std::size_t i = 0; i < p.latency_ms.size(); ++i) {
    windows[window_of(p, p.due_us[i])].push_back(p.latency_ms[i]);
  }
  std::vector<double> per_window;
  for (const auto& w : windows) {
    if (!w.empty()) {
      per_window.push_back(quantile(w, q));
    }
  }
  return per_window;
}

// Per-window completions per second.
std::vector<double> windowed_throughput(const PhaseStats& p) {
  std::vector<double> counts(kWindows, 0.0);
  const double end_us = p.start_us + p.seconds * 1e6;
  for (const double t : p.result_us) {
    if (t >= p.start_us && t < end_us) {
      counts[window_of(p, t)] += 1;
    }
  }
  for (double& c : counts) {
    c /= p.seconds / kWindows;
  }
  return counts;
}

std::string join(const std::vector<double>& values) {
  std::ostringstream out;
  out << std::setprecision(4);
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i ? " " : "") << values[i];
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Layer replay (traced run only): one thread, the workload's own inputs, the
// served plans, batches of the served mean size.

struct ReplayResult {
  double classify_row_us = 0;
  double ranked_exact_us = 0, ranked_pruned_us = 0;
  double scan_bytes_exact = 0;
  double pruned_fraction = 0;
  double topk_us = 0;
};

template <typename Fn>
std::vector<double> timed_loop(double seconds, SpanBuffer& spans,
                               const char* leg, Fn&& step) {
  std::vector<double> samples;
  const double t0 = now_us();
  const std::int64_t parent = spans.add(leg, -1, 0, t0, t0);
  const double end = t0 + seconds * 1e6;
  for (std::size_t i = 0; samples.size() < 3 || now_us() < end; ++i) {
    samples.push_back(step(i, parent));
  }
  spans.close(parent, now_us());
  return samples;
}

ReplayResult replay(const Inputs& in,
                    const std::vector<Tenant>& tenants,
                    const ModelRegistry& registry, Index batch,
                    double seconds, SpanBuffer& spans) {
  ReplayResult out;
  const int legs = std::accumulate(
      tenants.begin(), tenants.end(), 0,
      [](int n, const Tenant& t) { return n + (t.session ? 3 : 1); });
  const double leg_s = seconds / legs;
  for (const Tenant& t : tenants) {
    ExecutionContext ctx(registry.acquire(t.id), tflite_profile());
    ctx.enable_row_cache(kCacheBudgetBytes);
    const auto& pool = t.session ? in.event_histories : in.histories;
    std::vector<std::vector<std::int32_t>> rows(static_cast<std::size_t>(batch));
    const auto fill = [&](std::size_t i) {
      for (std::size_t b = 0; b < rows.size(); ++b) {
        rows[b] = pool[(i * rows.size() + b) % pool.size()];
      }
    };
    const double per_row = 1.0 / static_cast<double>(batch);
    if (!t.session) {
      out.classify_row_us = median(timed_loop(
          leg_s, spans, "bench.replay", [&](std::size_t i, std::int64_t parent) {
            fill(i);
            const double t0 = now_us();
            ctx.run_batch(rows);
            const double t1 = now_us();
            spans.add("execution_context.run_batch", parent, 0, t0, t1);
            return (t1 - t0) * per_row;
          }));
      continue;
    }
    std::vector<std::vector<ScoredId>> top;
    const std::vector<Index> probes(static_cast<std::size_t>(batch),
                                    kReplayNprobe);
    for (const bool pruned : {false, true}) {
      std::vector<double> bytes;
      std::uint64_t scanned = 0, catalog = 0;
      const double row_us = median(timed_loop(
          leg_s, spans, "bench.replay", [&](std::size_t i, std::int64_t parent) {
            fill(i);
            const double t0 = now_us();
            const BatchResult r =
                ctx.run_batch(rows, kTopK, &top, pruned ? &probes : nullptr);
            const double t1 = now_us();
            spans.add("execution_context.run_batch", parent, 0, t0, t1);
            if (!pruned) {
              bytes.push_back(static_cast<double>(r.scanned_bytes) /
                              static_cast<double>(r.ranked_rows));
            }
            scanned += r.scanned_rows;
            catalog += r.catalog_rows;
            return (t1 - t0) * per_row;
          }));
      (pruned ? out.ranked_pruned_us : out.ranked_exact_us) = row_us;
      if (!pruned) {
        out.scan_bytes_exact = median(bytes);
      } else {
        out.pruned_fraction =
            1.0 - static_cast<double>(scanned) / static_cast<double>(catalog);
      }
    }
    const Index dim = ctx.compiled().output_dim();
    out.topk_us = median(timed_loop(
        leg_s, spans, "bench.replay", [&](std::size_t i, std::int64_t parent) {
          const auto& h = pool[i % pool.size()];
          const double t0 = now_us();
          const BatchResult r = ctx.run_batch({h});
          const double t1 = now_us();
          static_cast<void>(topk_select(r.logits.data(), dim, kTopK));
          const double t2 = now_us();
          spans.add("execution_context.run_batch", parent, 0, t0, t1);
          spans.add("topk.select", parent, 0, t1, t2);
          return t2 - t1;
        }));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(38) << m.name << " "
              << std::setprecision(6) << m.value << " " << m.unit << "\n";
  }
  std::ostringstream json;
  json << std::setprecision(10) << "{\"correct\": "
       << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << v << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

Options parse_options(int argc, char** argv) {
  const Flags flags(argc, argv);
  Options opt;
  opt.workload = flags.get_string("workload", "");
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opt.seconds = flags.get_double("seconds", 10);
  opt.trace = flags.get_int("trace", 0) != 0;
  opt.fixtures = flags.get_string("fixtures", "");
  opt.trace_out = flags.get_string("trace-out", "");
  opt.commit = flags.get_string("commit", "unknown");
  opt.smoke = flags.get_bool("smoke", false);
  opt.perturb = flags.get_bool("perturb-reference", false);
  opt.rate = flags.get_double("rate", opt.rate);
  opt.nprobe = flags.get_int("nprobe", 0);
  opt.pruned_share = flags.get_double("pruned-share", opt.pruned_share);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const bool update = opt.workload == "model_update";
  const bool has_classify = opt.workload == "classify" || update;
  const bool has_session = opt.workload == "session_exact" ||
                           opt.workload == "session_pruned" || update;
  if ((!has_classify && !has_session) || opt.fixtures.empty() ||
      opt.seconds <= 0 || opt.rate <= 0) {
    std::cerr << "usage: perfbench_serve --workload classify|session_exact|"
                 "session_pruned|model_update --fixtures DIR --seconds S "
                 "--rate R [--nprobe P --pruned-share F] [--trace 0|1] ...\n";
    return 2;
  }
  const int rotation = update ? 3 : 1;
  std::vector<Tenant> tenants;
  for (const auto& [id, session, prefix] :
       {std::tuple{"cls", false, "cls_v"}, std::tuple{"sess", true, "sess_v"}}) {
    if (session ? !has_session : !has_classify) {
      continue;
    }
    Tenant t;
    t.id = id;
    t.session = session;
    for (int v = 0; v < rotation; ++v) {
      t.files.push_back(
          (std::filesystem::path(opt.fixtures) / (prefix + std::to_string(v) + ".mcm"))
              .string());
    }
    tenants.push_back(std::move(t));
  }

  // --- Set-up: inputs and references (not part of setup_s) ---------------
  Index classify_vocab = 0, items = 0;
  std::string kernel_name;
  for (const Tenant& t : tenants) {
    const MmapModel m(t.files[0]);
    (t.session ? items : classify_vocab) =
        m.metadata_int(t.session ? "output_dim" : "vocab");
    kernel_name = CompiledModel(m).kernel_name();
  }
  const Inputs in = make_inputs(opt, classify_vocab, items);
  for (Tenant& t : tenants) {
    compute_references(t, in, opt.nprobe);
    if (opt.perturb) {
      perturb_references(t);
    }
  }

  SpanBuffer main_spans('m', opt.trace ? (1u << 17) : 0);
  SpanBuffer request_spans('c', opt.trace ? (1u << 19) : 0);
  SpanBuffer untraced('u', 0);
  std::uint64_t gate_failures = 0, probes = 0;

  // --- Boots: registry load -> server start -> first correct answer --------
  std::vector<double> boot_s;
  std::vector<LoadRecord> loads;
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<AsyncServer> server;
  auto pollers = std::make_unique<IdlePollers>();  // boots and idle swaps
  for (int b = 0; b < kBoots; ++b) {
    server.reset();  // tear the previous boot down, untimed
    registry.reset();
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(kSampleGapMs));
    const double t0 = now_us();
    const std::int64_t span = main_spans.add("bench.boot", -1, 0, t0, t0);
    registry = std::make_unique<ModelRegistry>();
    for (const Tenant& t : tenants) {
      loads.push_back(publish_file(*registry, t.id, t.files[0], main_spans, span));
    }
    const double ts = now_us();
    server = std::make_unique<AsyncServer>(*registry, tenants[0].id,
                                           tflite_profile(), server_config());
    main_spans.add("serving.start", span, 0, ts, now_us());
    for (const Tenant& t : tenants) {
      const double tf = now_us();
      double result_us = 0;
      gate_failures += probe_answer(*server, t, in, 1, &result_us) ? 0 : 1;
      ++probes;
      main_spans.add("bench.first_answer", span, 0, tf, now_us());
    }
    const double t1 = now_us();
    main_spans.close(span, t1);
    boot_s.push_back((t1 - t0) / 1e6);
  }

  Runner runner(opt, in, tenants, *registry, *server);
  PublishGroups publish_ms;
  if (!update) {
    const int idle = opt.smoke ? 2 : kIdleSwaps;
    publish_ms[{0, 0}] = runner.idle_swaps(idle, main_spans);
    probes += static_cast<std::uint64_t>(idle);
  }
  pollers.reset();
  const auto swaps_for = [&](double seconds) {
    if (!update) {
      return 0;
    }
    const int rounds = static_cast<int>(seconds * 1e3 / (kSwapMs * 6));
    return 6 * std::max(1, rounds);  // whole rotations: ends on variant 0
  };

  // --- Traffic ---------------------------------------------------------------
  std::vector<PhaseStats> phases;
  const auto run = [&](bool paced, double seconds, bool traced) {
    SpanBuffer& spans = traced ? request_spans : untraced;
    const std::size_t swaps_before = runner.swaps.size();
    phases.push_back(runner.run_phase(paced, seconds, spans,
                                      traced ? main_spans : untraced,
                                      paced ? swaps_for(seconds) : 0));
    if (update && paced) {
      publish_to_serve(phases.back(), tenants, runner.swaps, swaps_before,
                       &publish_ms);
    }
    return phases.size() - 1;
  };
  // Shares of --seconds. Untraced: half paced, half saturated. Traced: a
  // short untraced pair (the overhead baseline), the traced pair, the replay.
  const double s = opt.seconds;
  const std::size_t paced = run(true, s * (opt.trace ? 0.2 : 0.5), false);
  const std::size_t saturate = run(false, s * (opt.trace ? 0.1 : 0.5), false);
  std::size_t traced_paced = paced, traced_saturate = saturate;
  ReplayResult layers;
  if (opt.trace) {
    traced_paced = run(true, s * 0.3, true);
    traced_saturate = run(false, s * 0.2, true);
    const Index batch = std::max<Index>(
        1, static_cast<Index>(std::lround(phases[traced_saturate].batch_mean())));
    layers = replay(in, tenants, *registry, batch, s * 0.2, main_spans);
  }

  // --- Metrics ---------------------------------------------------------------
  PhaseStats total;
  for (const PhaseStats& p : phases) {
    total.attempted += p.attempted;
    total.shed += p.shed;
    total.rejected += p.rejected;
    total.missed += p.missed;
    total.wrong += p.wrong;
    total.recall_sum += p.recall_sum;
    total.recall_n += p.recall_n;
    total.exact_recall_sum += p.exact_recall_sum;
    total.exact_recall_n += p.exact_recall_n;
  }
  total.wrong += gate_failures + runner.gate_failures;
  const std::uint64_t attempted = total.attempted + probes;
  const bool correct = total.wrong == 0;
  const PhaseStats& tp = phases[traced_paced];
  const PhaseStats& ts = phases[traced_saturate];

  double model_bytes = 0;
  for (const Tenant& t : tenants) {
    model_bytes += static_cast<double>(registry->acquire(t.id)->model().file_size());
  }
  std::vector<double> open_ms, build_ms, publish_only_ms, swap_ms;
  double plan_adopted = 0, index_adopted = 0;
  const auto add_load = [&](const LoadRecord& r) {
    open_ms.push_back(r.open_ms);
    build_ms.push_back(r.build_ms);
    publish_only_ms.push_back(r.publish_ms);
    plan_adopted += r.plan_adopted ? 1 : 0;
    index_adopted += r.index_adopted ? 1 : 0;
  };
  for (const LoadRecord& r : loads) {
    add_load(r);
  }
  for (const SwapRecord& s : runner.swaps) {
    add_load(s.load);
    swap_ms.push_back(s.load.total_ms);
  }
  const double load_count = static_cast<double>(open_ms.size());

  std::cout << "provenance {\"workload\": \"" << opt.workload
            << "\", \"seed\": " << opt.seed << ", \"nproc\": "
            << std::thread::hardware_concurrency() << ", \"kernels\": \""
            << kernel_name << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"commit\": \"" << opt.commit
            << "\", \"server\": {\"threads\": " << kWorkers
            << ", \"shards\": 1, \"max_batch\": " << kMaxBatch
            << ", \"queue_capacity\": " << kQueueCapacity
            << ", \"cache_budget_bytes\": " << kCacheBudgetBytes
            << ", \"session_capacity\": " << kSessionCapacity
            << ", \"session_history\": " << kSessionHistory
            << "}, \"load\": {\"rate_per_s\": " << opt.rate
            << ", \"inflight\": " << kInflight
            << ", \"deadline_ms\": " << kDeadlineMs
            << ", \"nprobe\": " << opt.nprobe
            << ", \"pruned_share\": " << opt.pruned_share
            << ", \"classify_share\": " << kClassifyShare
            << ", \"swap_ms\": " << kSwapMs
            << ", \"seconds\": " << opt.seconds << ", \"boots\": " << kBoots
            << ", \"trace\": " << (opt.trace ? 1 : 0) << "}}\n";
  std::cout << "paced: " << tp.latency_ms.size() << " latency samples, "
            << tp.completed << " completed; saturate: " << ts.completed
            << " completed; failed: shed " << total.shed << ", rejected "
            << total.rejected << ", deadline miss " << total.missed
            << ", wrong answer " << total.wrong << " of " << attempted << "\n";

  const std::vector<double> p50s = windowed_latency(phases[paced], 0.50);
  const std::vector<double> p95s = windowed_latency(phases[paced], 0.95);
  const std::vector<double> p99s = windowed_latency(phases[paced], 0.99);
  const std::vector<double> rps = windowed_throughput(phases[saturate]);
  std::cout << "windows: p50 ms [" << join(p50s) << "] p90 ms ["
            << join(windowed_latency(phases[paced], 0.90)) << "] p95 ms ["
            << join(p95s) << "] p99 ms [" << join(p99s)
            << "] throughput [" << join(rps) << "]\n";

  std::vector<Metric> metrics;
  if (!opt.trace) {
    const double recall =
        total.recall_n > 0
            ? total.recall_sum / static_cast<double>(total.recall_n)
            : total.exact_recall_sum /
                  static_cast<double>(std::max<std::uint64_t>(1, total.exact_recall_n));
    metrics = {
        {"latency_p50_ms", median(p50s), "ms"},
        {"throughput_rps", median(rps), "1/s"},
        {"setup_s", median(boot_s), "s"},
        {"resident_mb", server->max_resident_megabytes(), "MB"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"model_mb", model_bytes / (1024.0 * 1024.0), "MB"},
        {"recall_at_10", recall, "ratio"},
        {"publish_to_serve_ms", mean_of_medians(publish_ms), "ms"},
    };
  } else {
    const double untraced_p50 = quantile(phases[paced].latency_ms, 0.5);
    const double traced_p50 = quantile(tp.latency_ms, 0.5);
    const double overhead_pct = 100.0 * (traced_p50 / untraced_p50 - 1.0);
    // The kernel figures describe the exact sweep.
    const double scan_bytes = layers.scan_bytes_exact;
    const double scan_row_us = layers.ranked_exact_us;
    metrics = {
        {"format.open_ms", median(open_ms), "ms"},
        {"compiled_model.build_ms", median(build_ms), "ms"},
        {"compiled_model.plan_adopt_ratio", plan_adopted / load_count, "ratio"},
        {"compiled_model.index_adopt_ratio", index_adopted / load_count, "ratio"},
        {"registry.publish_ms", median(publish_only_ms), "ms"},
        {"registry.swap_ms", median(swap_ms), "ms"},
        {"registry.swaps", static_cast<double>(swap_ms.size()), "count"},
        {"serving.submit_us_p50", quantile(tp.submit_us, 0.50), "us"},
        {"serving.submit_us_p99", quantile(tp.submit_us, 0.99), "us"},
        {"serving.queue_wait_ms_p50", quantile(tp.queue_wait_ms, 0.50), "ms"},
        {"serving.queue_wait_ms_p99", quantile(tp.queue_wait_ms, 0.99), "ms"},
        {"serving.service_ms_p50", quantile(tp.service_ms, 0.50), "ms"},
        {"serving.service_ms_p99", quantile(tp.service_ms, 0.99), "ms"},
        {"serving.batch_mean", ts.batch_mean(), "requests"},
        {"serving.steals", static_cast<double>(ts.steals), "count"},
        {"serving.attempted", static_cast<double>(attempted), "count"},
        {"serving.failed",
         static_cast<double>(total.shed + total.rejected + total.missed + total.wrong),
         "count"},
        {"serving.shed", static_cast<double>(total.shed), "count"},
        {"serving.rejected", static_cast<double>(total.rejected), "count"},
        {"serving.deadline_miss", static_cast<double>(total.missed), "count"},
        {"serving.wrong_answer", static_cast<double>(total.wrong), "count"},
        {"bench.gen_lag_ms_p99", quantile(tp.gen_lag_ms, 0.99), "ms"},
        {"bench.latency_p95_ms", median(p95s), "ms"},
        {"bench.latency_p99_ms", median(p99s), "ms"},
        {"bench.latency_samples", static_cast<double>(tp.latency_ms.size()), "count"},
        {"bench.trace_overhead_pct", overhead_pct, "%"},
        {"execution_context.classify_row_us", layers.classify_row_us, "us"},
        {"execution_context.ranked_row_us_exact", layers.ranked_exact_us, "us"},
        {"execution_context.ranked_row_us_pruned", layers.ranked_pruned_us, "us"},
        {"execution_context.pruned_fraction", layers.pruned_fraction, "ratio"},
        {"kernels.scan_bytes_per_req", scan_bytes, "bytes"},
        {"kernels.scan_gbps",
         scan_row_us > 0 ? scan_bytes / scan_row_us / 1e3 : 0.0, "GB/s"},
        {"topk.select_us", layers.topk_us, "us"},
        {"session.evictions", static_cast<double>(server->evicted_sessions()), "count"},
        {"session.active", static_cast<double>(server->active_sessions()), "count"},
        {"hot_row_cache.hit_ratio", server->cache_stats().hit_rate(), "ratio"},
    };
    if (!opt.trace_out.empty()) {
      std::ofstream out(opt.trace_out, std::ios::trunc);
      out << std::fixed << std::setprecision(3) << "{\"workload\":\""
          << opt.workload << "\",\"seed\":" << opt.seed
          << ",\"untraced_latency_p50_ms\":" << untraced_p50
          << ",\"traced_latency_p50_ms\":" << traced_p50
          << ",\"trace_overhead_pct\":" << overhead_pct << ",\"dropped\":"
          << main_spans.dropped() + request_spans.dropped() << "}\n";
      main_spans.write(out);
      request_spans.write(out);
    }
  }
  const std::uint64_t failed =
      total.shed + total.rejected + total.missed + total.wrong;
  print_result(correct, attempted, failed, metrics);
  return 0;
}
