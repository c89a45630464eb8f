// AsyncServer: the serving loop over the on-device inference engine.
//
// One worker pool serves every drain. Plans are shared, not recompiled per
// worker: a CompiledModel is built ONCE per model version and every worker
// executes it through a private ExecutionContext (scratch arena, memory
// meter, optional hot-row cache), so a plan's pre-dequantized buffers are
// paid for once per version, not once per thread.
//
// The pipeline is SHARDED and multi-tenant: producers enqueue requests
// (each optionally routed to a `model_id`) into one of `shards` bounded
// RequestQueues (shard = hash(model_id), so a model's traffic lands on one
// shard), and the `threads` workers take micro-batches straight off those
// queues — there is no other thread. An idle worker pops the FIFO run of
// same-model requests at the head of its primary shard's queue (at most
// `max_batch`; a run is all ranked session requests or all unranked ones,
// since a ranked batch keeps no logits rows); when that queue is empty it
// takes a run from another shard (a steal, so a skewed model mix cannot
// strand capacity on an idle shard), and when every queue is empty it
// sweeps a part posted to its primary's help slot (below), or parks on its
// primary until a request or a part arrives, re-scanning the other shards
// every millisecond. No request is held back to grow a batch: batches grow
// only while every worker is busy. max_batch = 1 is the closed-loop batch-1
// drain.
//
// A parked worker also lends a hand. Each shard has one help slot: a
// worker whose batch sweeps at least ExecutionContext::kMinSplitTiles
// catalog tiles while another worker is parked on the batch's shard posts
// the upper half of the tiles there and wakes the parked worker, which
// claims and sweeps it. The owner sweeps the lower half, then takes the
// part back if nobody claimed it, or waits for the helper and merges the
// two top-k lists. So a lone request's sweep runs on two cores, the answer
// keeps its bits, and a saturated server (no parked worker) never splits.
//
// Deadline awareness runs end to end: every request carries a deadline
// (default `deadline_us` after enqueue; 0 = none), and completions past it
// are counted as misses. With `shed` enabled the front door applies
// admission control: once a shard's queue-wait p99 estimate exceeds a
// request's deadline (and real backlog confirms it), `try_submit` rejects
// and `submit` fails fast with a future that resolves to
// RequestStatus::kShed — bounded-latency goodput instead of unbounded
// queueing.
//
// Models live in a ModelRegistry; a `swap()` there is zero-downtime:
// micro-batches pin their model version when a worker forms them, in-flight
// work finishes on the old version, new batches pick up the new one, and
// the old plan (plus its mmap) is destroyed when its refcount drains.
// Worker-side hot-row caches are rebuilt cold on the first batch of a new
// version so stale rows can never serve.
//
// The drivers serve(), serve(routed) and serve_sessions() all run through
// one drain loop, and the ServingReport it builds carries measured wall
// clock only: QPS, goodput, end-to-end / queue-wait / service latency, and
// a per-model breakdown. The DeviceProfile's simulated per-forward latency
// belongs to the on-device Table 3 reproduction (bench_table3_ondevice);
// serving keeps the profile only for the memory meter behind resident_mb.
//
// Logits are bit-identical to sequential InferenceEngine::run() on every
// path — direct, registry-served, and post-swap — cache cold or warm;
// tests/test_serving.cpp and tests/test_differential.cpp enforce this.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/tensor.h"
#include "ondevice/clock.h"
#include "ondevice/engine.h"
#include "ondevice/metrics.h"
#include "ondevice/registry.h"
#include "ondevice/request_queue.h"
#include "ondevice/session.h"

namespace memcom {

// Per-model slice of a drain.
struct ModelReport {
  std::string model_id;
  std::uint64_t version = 0;   // latest registry version that served traffic
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;   // micro-batches executed for THIS model
  double mean_batch = 0;       // requests / batches
  LatencyStats latency;        // end-to-end wall latency of this model's reqs
  // Peak per-worker context footprint of this model plus its shared plan —
  // what THIS tenant adds to the device, not the whole server's figure.
  double resident_mb = 0;
  RowCacheStats cache;
};

struct ServingReport {
  int threads = 0;
  std::uint64_t requests = 0;  // requests submitted (shed ones included)
  double wall_ms = 0;          // wall clock of the whole drain
  double qps = 0;              // requests / wall seconds (real clock)
  // The latency columns come from the workers' merged LatencyHistograms
  // (ondevice/metrics.h): runs, min, max and mean are exact, percentiles
  // are the nearest-rank sample to within 1/32 of its value.
  LatencyStats latency;        // per-request end-to-end wall latency (ms)
  LatencyStats queue_wait;  // enqueue -> micro-batch picked up by a worker
  LatencyStats service;     // micro-batch execution wall time
  std::uint64_t batches = 0;   // micro-batches executed
  double mean_batch = 0;       // executed requests / batches
  int shards = 0;              // scheduler shards the drain ran with
  std::uint64_t steals = 0;    // batches a worker took off a non-primary shard
  // Batches whose output sweep's upper half a parked worker swept.
  std::uint64_t split_batches = 0;

  // Deadline / admission-control accounting.
  // `requests` counts everything submitted; shed requests never execute,
  // so executed = requests - shed and the latency stats cover executed
  // requests only.
  std::uint64_t shed = 0;             // rejected at the front door
  double shed_rate = 0;               // shed / requests
  std::uint64_t deadline_misses = 0;  // executed but completed past deadline
  double deadline_miss_rate = 0;      // misses / executed
  // Goodput under the SLO: completions that met their deadline per wall
  // second. With no deadline configured this equals `qps`.
  double goodput_qps = 0;
  // Open-loop pacer honesty: arrivals the driver released more than one
  // inter-arrival period behind their absolute schedule (a slow/blocked
  // submit lowers TRUE offered load; this counts by how many).
  std::uint64_t late_arrivals = 0;

  // Session workload slice (submit_next_item traffic; all zero when the
  // drain carried none). session_latency reads its percentiles off the
  // same kind of histogram as `latency`.
  std::uint64_t session_requests = 0;
  LatencyStats session_latency;        // end-to-end wall latency (ms)
  Index active_sessions = 0;           // live sessions at report assembly
  std::uint64_t session_evictions = 0; // lifetime LRU evictions, all shards

  // Catalog-scan accounting over the drain's RANKED rows (top_k > 0; all
  // zero when the drain carried none). scanned_rows counts catalog items
  // actually scored; catalog_rows counts what an exact scan would have
  // scored (ranked rows x catalog size); scanned_bytes is the stored
  // catalog read (the full weight/bias blobs per row on the exact path, the
  // probed columns' share of them plus the centroid table on the pruned
  // path).
  // pruned_fraction = 1 - scanned_rows / catalog_rows (0 when every ranked
  // row scanned exact).
  std::uint64_t catalog_rows = 0;
  std::uint64_t scanned_rows = 0;
  std::uint64_t scanned_bytes = 0;
  double pruned_fraction = 0;

  // Hot-row cache totals across workers (enabled=false when no cache).
  RowCacheStats cache;

  // Cold-start accounting for the plan the drain served (the default
  // model): whether load took the v3 plan-section fast
  // path, the wall time of that adopt-or-compile step, and — when adoption
  // was skipped — why (empty when adopted). Fleet story: this is the
  // per-device boot tax the serialized plan removes.
  bool plan_adopted = false;
  double plan_compile_ms = 0;
  std::string plan_fallback_reason;

  // Per-model breakdown, sorted by model id.
  std::vector<ModelReport> per_model;
};

// ---------------------------------------------------------------------------
// Asynchronous multi-tenant micro-batching pipeline:
//   shard queues -> workers (one ExecutionContext per (worker, model id),
//   re-bound on version swap).

struct AsyncServerConfig {
  int threads = 2;
  // Scheduler shards: one admission queue each. Requests route by
  // hash(model_id); idle workers steal batches across shards. Must satisfy
  // 1 <= shards <= threads (every shard needs a primary worker or a loaded
  // shard could starve between steal scans).
  int shards = 1;
  Index max_batch = 8;  // most requests a worker takes as one micro-batch
  // Default per-request deadline, measured from enqueue. 0 disables
  // deadline handling (no miss accounting, no shedding).
  double deadline_us = 0.0;
  // Admission control: shed at submit()/try_submit() once the target
  // shard's queue-wait p99 estimate exceeds the request's deadline AND the
  // shard has a real backlog (>= max_batch queued). Requires deadline_us
  // (or a per-request deadline) to have any effect.
  bool shed = false;
  std::size_t queue_capacity = 1024;  // admission bound, TOTAL across shards
  std::size_t cache_budget_bytes = 0;  // per-context hot-row cache; 0 = off
  // Session workload (submit_next_item). `session_capacity` is the TOTAL
  // number of live sessions, split across shards like queue_capacity
  // (remainder to the first shards); beyond it the least-recently-used
  // session on the arriving shard is evicted. Each session keeps its last
  // `session_history` item ids. Both knobs only size the per-shard
  // SessionStores — plain submit() traffic never touches them.
  Index session_capacity = 1024;
  Index session_history = 32;
  // Default clusters-to-probe for session ranking (submit_next_item): 0 =
  // exact full-catalog scan; > 0 = pruned scan through the model's adopted
  // catalog index (see ondevice/catalog_index.h). A model without a valid
  // index serves exact regardless — the pruned path is an optimization,
  // never an availability risk. Per-request override on submit_next_item.
  Index nprobe = 0;
};

// How a submitted request left the server.
enum class RequestStatus {
  kOk = 0,    // executed; logits (or the session top-k) valid
  kShed = 1,  // rejected by admission control; logits empty, never executed
};

// What a request's future resolves to.
struct AsyncResult {
  RequestStatus status = RequestStatus::kOk;
  // [output_dim of the serving model] for submit()/try_submit() answers;
  // empty for submit_next_item() answers, which carry top_ids/top_scores.
  std::vector<float> logits;
  std::string model_id;       // which registry entry served the request
  std::uint64_t model_version = 0;  // which version of it (swap audit trail)
  double queue_wait_ms = 0;   // enqueue -> worker picked the batch up
  double service_ms = 0;      // fused micro-batch execution (wall)
  double total_ms = 0;        // enqueue -> completion
  Index batch = 0;            // size of the micro-batch this request rode in
  // True when the request carried a deadline and completed after it (only
  // meaningful for kOk — shed requests never execute).
  bool deadline_missed = false;
  // Top-k ranking over the logits row, filled only for submit_next_item
  // requests with k > 0: item ids best-first with the deterministic
  // tie-break of ondevice/topk.h (equal scores -> lower id), plus their
  // scores. Bit-identical across kernel families and shard counts
  // (tests/test_differential.cpp enforces it).
  std::vector<Index> top_ids;
  std::vector<float> top_scores;
};

// A request explicitly routed to a registry model (the serve() overload
// that drives mixed multi-model traffic).
struct RoutedRequest {
  std::string model_id;
  std::vector<std::int32_t> history;
};

// One session interaction for the serve_sessions() driver: "session
// `session_id` just touched item `item`".
struct SessionEvent {
  std::uint64_t session_id = 0;
  std::int32_t item = 0;
};

class AsyncServer {
 public:
  // Model id used by the single-model convenience constructor and by the
  // submit()/serve() overloads that do not name a model.
  static constexpr const char* kDefaultModelId = "default";

  // Single-model convenience: wraps `model` in a private registry under
  // kDefaultModelId. The model must outlive the server.
  AsyncServer(const MmapModel& model, const DeviceProfile& profile,
              AsyncServerConfig config);

  // Multi-tenant: serves every model in `registry`, which must outlive the
  // server. `default_model_id` (which must be registered) answers the
  // un-routed submit()/serve() calls and output_dim().
  AsyncServer(ModelRegistry& registry, std::string default_model_id,
              const DeviceProfile& profile, AsyncServerConfig config);

  // Closes the queue, drains every accepted request, joins all threads.
  ~AsyncServer();

  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  // Enqueues a request; BLOCKS while its shard's queue is at capacity
  // (backpressure). The future resolves once a worker completed the
  // request's micro-batch. The routed overload fails (check) for a model id
  // the registry does not currently hold.
  //
  // `deadline_us` overrides the config default for THIS request (< 0 = use
  // the config; 0 = explicitly no deadline). When shedding is enabled and
  // the target shard's queue-wait p99 estimate exceeds the deadline,
  // submit() does NOT block: it fails fast with a future already resolved
  // to RequestStatus::kShed.
  std::future<AsyncResult> submit(std::vector<std::int32_t> history);
  std::future<AsyncResult> submit(std::string model_id,
                                  std::vector<std::int32_t> history,
                                  double deadline_us = -1.0);

  // Non-blocking admission: false (and no future) when the shard queue is
  // full, the request was shed (counted separately — see shed_total()),
  // the server is shutting down, or the model id is unknown.
  bool try_submit(std::vector<std::int32_t> history,
                  std::future<AsyncResult>* out);
  bool try_submit(std::string model_id, std::vector<std::int32_t> history,
                  std::future<AsyncResult>* out, double deadline_us = -1.0);

  // Session-based next-item serving: appends `new_item` to the session's
  // bounded history ring (evicting the LRU session if the store is full),
  // runs `model_id` on the post-append history, and resolves the future
  // with the top-`k` item ids/scores over its logits — the full-catalog
  // scan, executed against the model's compressed output table by the
  // normal dense path. With k > 0 the request batches only with other
  // ranked requests, whose rows rank tile by tile inside the sweep, so no
  // logits row exists to copy out (AsyncResult::logits stays empty).
  //
  // Routing is SESSION-affine, not model-affine: hash(session_id) picks
  // the shard, so one session's updates all land in one queue in
  // submission order, and the worker that pops a request appends its item
  // under that queue's lock — two updates of a session can never reorder.
  // Deadlines and admission control behave exactly like submit() (a shed
  // request does NOT append its item).
  // `nprobe` < 0 uses the config default; 0 forces the exact full scan;
  // > 0 probes that many clusters through the model's catalog index (exact
  // scan when the model carries no valid index).
  std::future<AsyncResult> submit_next_item(std::string model_id,
                                            std::uint64_t session_id,
                                            std::int32_t new_item, Index k,
                                            double deadline_us = -1.0,
                                            Index nprobe = -1);

  // Convenience driver: submits `requests` (repeated `repeat` times) from
  // this thread — paced at `arrival_qps` when nonzero (open-loop arrivals),
  // as fast as backpressure admits otherwise — waits for every completion,
  // and aggregates the report. When `logits_out` is non-null it is filled
  // with the first repetition's logits, row r = requests[r]. All requests
  // go to the default model.
  ServingReport serve(const std::vector<std::vector<std::int32_t>>& requests,
                      int repeat = 1, double arrival_qps = 0.0,
                      Tensor* logits_out = nullptr);

  // Mixed-traffic driver: like serve(), but each request names its model.
  // Output dims may differ per model, so first-repetition logits (when
  // requested) come back as one vector per request instead of a Tensor.
  ServingReport serve(const std::vector<RoutedRequest>& requests,
                      int repeat = 1, double arrival_qps = 0.0,
                      std::vector<std::vector<float>>* logits_out = nullptr);

  // Session-traffic driver: submits `events` in order through
  // submit_next_item (default model, top-`k` per request), waits for every
  // completion, and aggregates the report — including its session slice
  // (session_requests, session_latency, active_sessions,
  // session_evictions). When `topk_out` is non-null it is filled with each
  // event's ranked item ids (empty for shed events).
  //
  // All three drivers are thin adapters over one drain loop (drive()).
  ServingReport serve_sessions(
      const std::vector<SessionEvent>& events, Index k,
      std::vector<std::vector<Index>>* topk_out = nullptr);

  const AsyncServerConfig& config() const { return config_; }
  int threads() const { return config_.threads; }
  const ModelRegistry& registry() const { return *registry_; }
  const std::string& default_model_id() const { return default_model_; }
  // Default model's output width (plan-derived; never touches a worker).
  Index output_dim() const;

  // Lifetime count of requests whose futures have been resolved (including
  // failed ones). Lets external observers — e.g. a deploy driver deciding
  // when to swap() — watch progress without joining the drain.
  std::uint64_t completed_requests() const {
    return completed_.load(std::memory_order_relaxed);
  }

  // Backpressure / admission observability (lifetime totals, summed over
  // shards). high_water sums per-shard peaks — they need not have been
  // simultaneous, but each shard's peak is bounded by its slice of
  // queue_capacity, so the sum never exceeds queue_capacity().
  std::size_t queue_capacity() const;
  std::size_t queue_high_water() const;
  std::uint64_t rejected() const;
  // Requests rejected by admission control (distinct from full-queue
  // rejections above): the estimated queue wait exceeded their deadline.
  std::uint64_t shed_total() const;
  // Batches a worker took from a shard other than its primary (lifetime).
  std::uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }
  // Batches whose output sweep a parked worker split with their owner
  // (lifetime).
  std::uint64_t split_count() const {
    return splits_.load(std::memory_order_relaxed);
  }
  int shards() const { return static_cast<int>(shards_.size()); }

  // Session-store observability, summed over shards (atomic counters — safe
  // to read while the pipeline runs).
  Index active_sessions() const;
  std::uint64_t evicted_sessions() const;

  // Aggregated hot-row cache counters across worker contexts since the
  // last serve() began (all counters flow through the stats mutex, so this
  // is safe to call whenever the caller holds no in-flight futures).
  RowCacheStats cache_stats() const;
  double max_resident_megabytes() const;

 private:
  struct QueuedRequest {
    std::string model_id;
    std::vector<std::int32_t> history;
    std::promise<AsyncResult> promise;
    SteadyClock::time_point enqueue_tp;
    // time_point::max() when the request carries no deadline.
    SteadyClock::time_point deadline_tp;
    // Session workload (submit_next_item): `history` starts empty (with
    // session_history reserved) and is filled from the shard's SessionStore
    // when a worker pops the request.
    bool is_session = false;
    std::uint64_t session_id = 0;
    std::int32_t new_item = 0;
    Index top_k = 0;  // rank the logits when > 0
    Index nprobe = 0;  // pruned scan when > 0 and the model has an index
    // A ranked request's answer, reserved to top_k at submit so the worker
    // fills it without allocating.
    std::vector<Index> top_ids;
    std::vector<float> top_scores;
  };
  // A micro-batch a worker formed: the FIFO run of same-model requests it
  // popped from one shard, with the model version pinned at formation so a
  // concurrent swap() cannot retarget it.
  struct Batch {
    std::shared_ptr<const CompiledModel> compiled;
    std::uint64_t version = 0;
    std::size_t shard = 0;  // origin shard (estimator feedback + stealing)
    std::vector<QueuedRequest> requests;
  };
  // One scheduler shard: its admission queue, its sessions, and the online
  // queue-wait estimator admission control feeds on. The estimator is a
  // plain atomic updated by workers with racy read-modify-write — a lost
  // update skews an ESTIMATE, never correctness.
  //
  // A shard is also the SweepHelper of the batches formed from it: it
  // splits a sweep only while a worker is parked on its queue, and its one
  // help slot holds a posted part until a worker claims it or its owner
  // takes it back.
  struct Shard : SweepHelper {
    explicit Shard(std::size_t queue_cap) : queue(queue_cap) {}
    Index split_column(Index out) override;
    bool post(SweepPart* part) override;
    bool withdraw(SweepPart* part) override;
    // Claims and sweeps a posted part; false when none was posted.
    bool help();
    RequestQueue<QueuedRequest> queue;
    std::atomic<int> parked{0};  // workers blocked on `queue`
    std::atomic<SweepPart*> lent{nullptr};  // the help slot
    // Peak-decay queue-wait p99 estimate (µs): jumps to any new maximum,
    // decays 1/8 toward each smaller sample. Admission control compares
    // this against a request's deadline.
    std::atomic<std::int64_t> wait_p99_est_us{0};
    std::atomic<std::uint64_t> shed{0};  // admission-control rejections
    // Per-shard session state. Session-affine routing puts every update of
    // a session in this shard's queue, and workers append under the queue
    // lock as they pop, so updates apply in admission order; its counters
    // are atomics for cross-thread observers.
    std::unique_ptr<SessionStore> sessions;
  };
  // Per-(worker, model) slice of the per-batch accounting below.
  struct ModelLane {
    std::uint64_t version = 0;
    std::uint64_t requests = 0;
    std::uint64_t batches = 0;
    LatencyHistogram total_ms;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    bool cache_enabled = false;
    std::size_t cache_resident_bytes = 0;  // post-batch snapshot
    std::size_t cache_capacity_bytes = 0;  // post-batch snapshot
    double resident_mb = 0;                // post-batch snapshot
    std::size_t plan_bytes = 0;            // served plan (shared, not per worker)
  };
  // Per-batch accounting a worker records under stats_mutex_; serve()
  // snapshots these after every future it waits on has resolved. Latencies
  // go into fixed-size histograms, so a long-running server's statistics
  // do not grow with the requests it has served.
  struct WorkerStats {
    LatencyHistogram queue_wait_ms;
    LatencyHistogram service_ms;
    LatencyHistogram total_ms;
    std::uint64_t batches = 0;
    std::uint64_t requests = 0;
    // Session slice: submit_next_item requests this worker completed and
    // their end-to-end latencies (feeds ServingReport::session_latency).
    std::uint64_t session_requests = 0;
    LatencyHistogram session_total_ms;
    // Catalog-scan slice (ranked rows only; see ServingReport).
    std::uint64_t ranked_rows = 0;
    std::uint64_t catalog_rows = 0;
    std::uint64_t scanned_rows = 0;
    std::uint64_t scanned_bytes = 0;
    std::map<std::string, ModelLane> models;
    // Zeroes every counter in place. Lanes stay (zeroed) so the next drain
    // of the same models allocates nothing on the workers; a lane with no
    // batches is left out of reports.
    void reset();
  };

  QueuedRequest make_request(std::string model_id,
                             std::vector<std::int32_t> history,
                             double deadline_us) const;
  // Validates config + default model and spawns the worker threads; the
  // shared tail of both constructors.
  void start();
  // Model-affine shard routing: one model's requests land on one shard so
  // its micro-batches stay dense; stealing rebalances execution.
  std::size_t shard_for(const std::string& model_id) const;
  // Session-affine routing for submit_next_item: a session's updates must
  // all reach the shard that owns its history ring, in order.
  std::size_t shard_for_session(std::uint64_t session_id) const;
  // True when admission control should reject a request with this deadline
  // on this shard right now.
  bool should_shed(const Shard& shard,
                   SteadyClock::time_point enqueue_tp,
                   SteadyClock::time_point deadline_tp) const;
  std::future<AsyncResult> resolve_shed(QueuedRequest request, Shard& shard);
  void worker_loop(std::size_t worker);
  // Thread-local state a worker threads through execute_batch: the batch it
  // formed, one ExecutionContext per model id (re-bound on version swap),
  // and a reused history scratch buffer.
  struct WorkerState {
    Batch batch;
    std::unordered_map<std::string, std::unique_ptr<ExecutionContext>>
        contexts;
    std::vector<std::vector<std::int32_t>> histories;
    std::vector<std::vector<ScoredId>> ranked;  // run_batch's top-k rows
    std::vector<Index> nprobes;                 // per-row probe counts
  };
  // Pops a micro-batch from shard `s` into state.batch (waiting until
  // `deadline` for a first request) and pins its model version; false when
  // nothing was popped. The batch is the head's FIFO run of requests for
  // the same model that are all ranked (top_k > 0) or all plain, so
  // admission order and session appends are untouched.
  bool form_batch(std::size_t s, SteadyClock::time_point deadline,
                  WorkerState& state);
  void execute_batch(std::size_t worker, WorkerState& state);
  void reset_stats();
  // Non-owning view of one request of a drain corpus: every driver
  // flattens to these, so none copies its corpus into a temporary just to
  // attach the default model id (submit() copies per repetition anyway).
  // `event` set = a session interaction for submit_next_item; otherwise
  // `history` is submitted as a plain request.
  struct RequestRef {
    const std::string* model_id = nullptr;
    const std::vector<std::int32_t>* history = nullptr;
    const SessionEvent* event = nullptr;
  };
  // Receives each first-repetition request that executed (shed ones are
  // skipped): its corpus row and its result.
  using ResultSink = std::function<void(std::size_t, AsyncResult&&)>;
  // The one drain loop behind every driver: submits `requests` (repeated
  // `repeat` times, paced at `arrival_qps` when nonzero, session events
  // ranked at top-`k`), waits for every completion, and builds the report.
  ServingReport drive(const std::vector<RequestRef>& requests, int repeat,
                      double arrival_qps, Index k, const ResultSink& sink);
  // Report-assembly tail of drive(): folds the worker stats accumulated
  // since the last reset_stats() into `report` (latency/batch/per-model/
  // cache columns plus the session slice).
  void collect_stats(ServingReport& report);

  AsyncServerConfig config_;
  DeviceProfile profile_;
  // Single-model mode owns its registry; multi-tenant mode points at the
  // caller's.
  std::unique_ptr<ModelRegistry> owned_registry_;
  ModelRegistry* registry_ = nullptr;
  std::string default_model_;
  // One entry per scheduler shard (producers -> queue -> workers).
  // unique_ptr: Shard holds a queue with const members and atomics, so the
  // vector needs stable, non-movable storage.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<WorkerStats> worker_stats_;
  mutable std::mutex stats_mutex_;
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> splits_{0};
  std::vector<std::thread> workers_;
};

}  // namespace memcom
