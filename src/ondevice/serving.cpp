#include "ondevice/serving.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <latch>
#include <stdexcept>
#include <utility>

#include "core/check.h"

namespace memcom {

namespace {
using Clock = SteadyClock;
}  // namespace

// ---------------------------------------------------------------------------
// AsyncServer

AsyncServer::AsyncServer(const MmapModel& model, const DeviceProfile& profile,
                         AsyncServerConfig config)
    : config_(config),
      profile_(profile),
      owned_registry_(std::make_unique<ModelRegistry>()),
      registry_(owned_registry_.get()),
      default_model_(kDefaultModelId) {
  // The caller owns the mapping (it must outlive the server, as before);
  // the private registry only owns the compiled plan.
  owned_registry_->publish(default_model_,
                           std::make_shared<const CompiledModel>(model));
  start();
}

AsyncServer::AsyncServer(ModelRegistry& registry,
                         std::string default_model_id,
                         const DeviceProfile& profile,
                         AsyncServerConfig config)
    : config_(config),
      profile_(profile),
      registry_(&registry),
      default_model_(std::move(default_model_id)) {
  start();
}

// Shared tail of both constructors: validate the configuration and the
// default model, build the shards, then bring the pipeline threads up.
// Checks run BEFORE any thread spawns, so a failed construction never leaks
// a running thread.
void AsyncServer::start() {
  check(config_.threads > 0, "AsyncServer: thread count must be positive");
  check(config_.shards > 0, "AsyncServer: shard count must be positive");
  check(config_.shards <= config_.threads,
        "AsyncServer: shards must not exceed threads (every shard needs a "
        "primary worker)");
  check(config_.max_batch > 0, "AsyncServer: max_batch must be positive");
  check(config_.deadline_us >= 0.0,
        "AsyncServer: deadline_us must be non-negative");
  check(config_.queue_capacity >= static_cast<std::size_t>(config_.shards),
        "AsyncServer: queue_capacity must be at least the shard count");
  check(config_.session_capacity >= 0,
        "AsyncServer: session_capacity must be non-negative");
  check(config_.session_capacity == 0 ||
            config_.session_capacity >= static_cast<Index>(config_.shards),
        "AsyncServer: session_capacity must be at least the shard count");
  check(config_.session_history > 0,
        "AsyncServer: session_history must be positive");
  check(config_.nprobe >= 0, "AsyncServer: nprobe must be non-negative");
  check(registry_->has_model(default_model_),
        "AsyncServer: default model not in registry: " + default_model_);

  const std::size_t shards = static_cast<std::size_t>(config_.shards);
  // queue_capacity is the TOTAL admission bound: split it across shards,
  // first `remainder` shards take one extra slot.
  const std::size_t per_shard = config_.queue_capacity / shards;
  const std::size_t remainder = config_.queue_capacity % shards;
  shards_.reserve(shards);
  // session_capacity is TOTAL too, split the same way (first shards take
  // the remainder). Stores are built up front so the session path never
  // allocates after start().
  const std::size_t sess_per_shard =
      static_cast<std::size_t>(config_.session_capacity) / shards;
  const std::size_t sess_remainder =
      static_cast<std::size_t>(config_.session_capacity) % shards;
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(
        std::make_unique<Shard>(per_shard + (s < remainder ? 1 : 0)));
    if (config_.session_capacity > 0) {
      shards_.back()->sessions = std::make_unique<SessionStore>(
          static_cast<Index>(sess_per_shard + (s < sess_remainder ? 1 : 0)),
          config_.session_history);
    }
  }

  worker_stats_.resize(static_cast<std::size_t>(config_.threads));
  // Return only once every worker is running. A request submitted right
  // after construction would otherwise be popped by a thread still in its
  // first time slice; with other tasks (even idle-priority ones) on its CPU,
  // a multi-millisecond first forward then often stalled for a whole
  // scheduler tick.
  workers_.reserve(static_cast<std::size_t>(config_.threads));
  std::latch started(config_.threads);
  for (int w = 0; w < config_.threads; ++w) {
    workers_.emplace_back([this, w, &started] {
      started.count_down();
      worker_loop(static_cast<std::size_t>(w));
    });
  }
  started.wait();
}

AsyncServer::~AsyncServer() {
  // Close every admission queue: pops drain what was accepted, and the
  // workers exit once every queue is closed and empty.
  for (auto& shard : shards_) {
    shard->queue.close();
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

std::size_t AsyncServer::shard_for(const std::string& model_id) const {
  if (shards_.size() == 1) {
    return 0;
  }
  // splitmix64 finisher over the string hash: std::hash on short strings
  // can be weak in the low bits, and the low bits are all modulo sees.
  std::uint64_t h = static_cast<std::uint64_t>(
      std::hash<std::string>{}(model_id));
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<std::size_t>(h % shards_.size());
}

std::size_t AsyncServer::shard_for_session(std::uint64_t session_id) const {
  if (shards_.size() == 1) {
    return 0;
  }
  // Same splitmix64 finisher as shard_for: sequential session ids must not
  // pile onto one shard.
  std::uint64_t h = session_id;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<std::size_t>(h % shards_.size());
}

Index AsyncServer::output_dim() const {
  const auto compiled = registry_->acquire(default_model_);
  check(compiled != nullptr,
        "AsyncServer: default model retired: " + default_model_);
  return compiled->output_dim();
}

AsyncServer::QueuedRequest AsyncServer::make_request(
    std::string model_id, std::vector<std::int32_t> history,
    double deadline_us) const {
  QueuedRequest request;
  request.model_id = std::move(model_id);
  request.history = std::move(history);
  request.enqueue_tp = Clock::now();
  const double effective =
      deadline_us < 0.0 ? config_.deadline_us : deadline_us;
  request.deadline_tp =
      effective > 0.0
          ? request.enqueue_tp +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::micro>(effective))
          : Clock::time_point::max();
  return request;
}

bool AsyncServer::should_shed(const Shard& shard,
                              Clock::time_point enqueue_tp,
                              Clock::time_point deadline_tp) const {
  if (!config_.shed || deadline_tp == Clock::time_point::max()) {
    return false;
  }
  // Estimate alone is not enough: after a burst drains, the peak-decay
  // estimator can stay above the deadline with an empty queue. Demand a
  // real backlog (at least one full micro-batch queued) so admission
  // always recovers once the shard catches up.
  if (shard.queue.size() < static_cast<std::size_t>(config_.max_batch)) {
    return false;
  }
  const auto slack_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            deadline_tp - enqueue_tp)
                            .count();
  return shard.wait_p99_est_us.load(std::memory_order_relaxed) > slack_us;
}

// Fail fast with the distinct shed status: the promise resolves NOW, on the
// submitting thread — the request never occupies a queue slot.
std::future<AsyncResult> AsyncServer::resolve_shed(QueuedRequest request,
                                                   Shard& shard) {
  shard.shed.fetch_add(1, std::memory_order_relaxed);
  std::future<AsyncResult> future = request.promise.get_future();
  AsyncResult result;
  result.status = RequestStatus::kShed;
  result.model_id = std::move(request.model_id);
  request.promise.set_value(std::move(result));
  completed_.fetch_add(1, std::memory_order_relaxed);
  return future;
}

std::future<AsyncResult> AsyncServer::submit(
    std::vector<std::int32_t> history) {
  return submit(default_model_, std::move(history));
}

std::future<AsyncResult> AsyncServer::submit(
    std::string model_id, std::vector<std::int32_t> history,
    double deadline_us) {
  check(registry_->has_model(model_id),
        "AsyncServer: submit to unknown model " + model_id);
  Shard& shard = *shards_[shard_for(model_id)];
  QueuedRequest request = make_request(std::move(model_id),
                                       std::move(history), deadline_us);
  if (should_shed(shard, request.enqueue_tp, request.deadline_tp)) {
    return resolve_shed(std::move(request), shard);
  }
  std::future<AsyncResult> future = request.promise.get_future();
  check(shard.queue.push(std::move(request)),
        "AsyncServer: submit after shutdown");
  return future;
}

std::future<AsyncResult> AsyncServer::submit_next_item(std::string model_id,
                                                       std::uint64_t session_id,
                                                       std::int32_t new_item,
                                                       Index k,
                                                       double deadline_us,
                                                       Index nprobe) {
  check(config_.session_capacity > 0,
        "AsyncServer: submit_next_item needs session_capacity > 0");
  check(k >= 0, "AsyncServer: negative top-k");
  check(registry_->has_model(model_id),
        "AsyncServer: submit to unknown model " + model_id);
  // SESSION-affine routing: the shard owning this session's history ring,
  // not the model's home shard. Admission FIFO + the append under the queue
  // lock at pop time give the ordered-updates guarantee.
  Shard& shard = *shards_[shard_for_session(session_id)];
  QueuedRequest request = make_request(std::move(model_id), {}, deadline_us);
  // Reserved here so the append under the queue lock never allocates.
  request.history.reserve(static_cast<std::size_t>(config_.session_history));
  request.is_session = true;
  request.session_id = session_id;
  request.new_item = new_item;
  request.top_k = k;
  request.top_ids.reserve(static_cast<std::size_t>(k));
  request.top_scores.reserve(static_cast<std::size_t>(k));
  request.nprobe = nprobe < 0 ? config_.nprobe : nprobe;
  if (should_shed(shard, request.enqueue_tp, request.deadline_tp)) {
    // Shed BEFORE the append: a rejected interaction must not mutate the
    // session (the caller is expected to retry it).
    return resolve_shed(std::move(request), shard);
  }
  std::future<AsyncResult> future = request.promise.get_future();
  check(shard.queue.push(std::move(request)),
        "AsyncServer: submit after shutdown");
  return future;
}

bool AsyncServer::try_submit(std::vector<std::int32_t> history,
                             std::future<AsyncResult>* out) {
  return try_submit(default_model_, std::move(history), out);
}

bool AsyncServer::try_submit(std::string model_id,
                             std::vector<std::int32_t> history,
                             std::future<AsyncResult>* out,
                             double deadline_us) {
  if (!registry_->has_model(model_id)) {
    return false;
  }
  Shard& shard = *shards_[shard_for(model_id)];
  QueuedRequest request = make_request(std::move(model_id),
                                       std::move(history), deadline_us);
  if (should_shed(shard, request.enqueue_tp, request.deadline_tp)) {
    shard.shed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::future<AsyncResult> future = request.promise.get_future();
  if (!shard.queue.try_push(std::move(request))) {
    return false;
  }
  if (out != nullptr) {
    *out = std::move(future);
  }
  return true;
}

Index AsyncServer::Shard::split_column(Index out) {
  return parked.load(std::memory_order_relaxed) > 0
             ? ExecutionContext::half_split(out)
             : out;
}

bool AsyncServer::Shard::post(SweepPart* part) {
  SweepPart* empty = nullptr;
  if (!lent.compare_exchange_strong(empty, part, std::memory_order_release,
                                    std::memory_order_relaxed)) {
    return false;  // another batch's part holds the slot
  }
  queue.notify_consumers();
  return true;
}

bool AsyncServer::Shard::withdraw(SweepPart* part) {
  return lent.compare_exchange_strong(part, nullptr, std::memory_order_relaxed);
}

bool AsyncServer::Shard::help() {
  if (lent.load(std::memory_order_relaxed) == nullptr) {
    return false;
  }
  // The exchange is the claim: it races the owner's withdraw, and exactly
  // one of them takes the part.
  SweepPart* part = lent.exchange(nullptr, std::memory_order_acquire);
  if (part == nullptr) {
    return false;
  }
  part->run();
  return true;
}

bool AsyncServer::form_batch(std::size_t s, Clock::time_point deadline,
                             WorkerState& state) {
  Shard& shard = *shards_[s];
  Batch& batch = state.batch;
  const std::size_t popped = shard.queue.pop_run_until(
      batch.requests, static_cast<std::size_t>(config_.max_batch), deadline,
      [](const QueuedRequest& first, const QueuedRequest& r) {
        // A batch holds one model, and is all ranked or all plain: a ranked
        // call keeps no logits rows, a plain one ranks nothing.
        return r.model_id == first.model_id &&
               (r.top_k > 0) == (first.top_k > 0);
      },
      [&shard](QueuedRequest& r) {
        // Under the queue lock, in admission order: with several workers
        // popping one shard, this is what keeps a session's appends ordered
        // and each request's history snapshot well-defined.
        if (r.is_session) {
          shard.sessions->append_and_snapshot(r.session_id, r.new_item,
                                              r.history);
        }
      },
      [&shard] {
        // A posted sweep part wakes a parked worker, which then helps.
        return shard.lent.load(std::memory_order_relaxed) != nullptr;
      });
  if (popped == 0) {
    return false;
  }
  // Version pinned HERE, in one atomic snapshot: plan and version label
  // come from the same registry state, and a later swap() cannot retarget
  // the batch.
  batch.compiled = registry_->acquire(batch.requests.front().model_id,
                                      &batch.version);
  batch.shard = s;
  return true;
}

void AsyncServer::worker_loop(std::size_t worker) {
  WorkerState state;
  state.batch.requests.reserve(static_cast<std::size_t>(config_.max_batch));
  const std::size_t nshards = shards_.size();
  const std::size_t primary = worker % nshards;
  Shard& home = *shards_[primary];
  const auto drained = [&] {
    // Closed and empty is terminal: no push can follow a close().
    return std::all_of(shards_.begin(), shards_.end(), [](const auto& shard) {
      return shard->queue.closed() && shard->queue.size() == 0;
    });
  };
  for (;;) {
    // Primary shard first, then the others (a steal); never park on a scan.
    bool got = false;
    for (std::size_t k = 0; k < nshards && !got; ++k) {
      got = form_batch((primary + k) % nshards, Clock::time_point{}, state);
    }
    if (!got) {
      // Every queue is empty: sweep a part another worker posted, or park
      // on the primary until a request or a part arrives. The timeout
      // bounds how stale the next steal scan can get.
      if (home.help()) {
        continue;
      }
      if (drained()) {
        break;
      }
      home.parked.fetch_add(1, std::memory_order_relaxed);
      got = form_batch(primary, Clock::now() + std::chrono::milliseconds(1),
                       state);
      home.parked.fetch_sub(1, std::memory_order_relaxed);
      if (!got) {
        continue;
      }
    }
    if (state.batch.shard != primary) {
      steals_.fetch_add(1, std::memory_order_relaxed);
    }
    execute_batch(worker, state);
    // Drop the plan reference (and the request buffers) NOW rather than at
    // the next pop: a hot-swapped old version must drain as soon as its
    // last batch completes, not when the worker happens to pick up new
    // work.
    state.batch.compiled.reset();
    state.batch.requests.clear();
  }
}

void AsyncServer::execute_batch(std::size_t worker, WorkerState& state) {
  // One context per model id, owned by the CALLING thread (never shared):
  // the scratch arena, meter, and row cache are private, and bind()
  // re-targets a lane to a freshly swapped version (cache rebuilt cold).
  auto& contexts = state.contexts;
  auto& histories = state.histories;
  auto& ranked = state.ranked;
  auto& nprobes = state.nprobes;
  Batch& task = state.batch;
  const std::string& model_id = task.requests.front().model_id;
  {
    if (task.compiled == nullptr) {
      // The model was retired between admission and batch formation; the
      // futures must still resolve — with the failure, not a hang.
      for (QueuedRequest& r : task.requests) {
        r.promise.set_exception(std::make_exception_ptr(std::runtime_error(
            "AsyncServer: model retired before execution: " + model_id)));
      }
      completed_.fetch_add(task.requests.size(),
                           std::memory_order_relaxed);
      return;
    }
    std::unique_ptr<ExecutionContext>& slot = contexts[model_id];
    if (slot == nullptr) {
      slot = std::make_unique<ExecutionContext>(task.compiled, profile_);
      if (config_.cache_budget_bytes > 0) {
        slot->enable_row_cache(config_.cache_budget_bytes);
      }
    } else {
      slot->bind(task.compiled);  // no-op unless the version changed
    }
    ExecutionContext& context = *slot;

    const auto service_start = Clock::now();
    histories.clear();
    histories.reserve(task.requests.size());
    Index top_k = 0;
    bool any_pruned = false;
    for (QueuedRequest& r : task.requests) {
      // The history is not read again after execution (only the promise
      // and timestamps are), so hand the buffer over instead of copying.
      histories.push_back(std::move(r.history));
      top_k = std::max(top_k, r.top_k);
      any_pruned = any_pruned || (r.nprobe > 0 && r.top_k > 0);
    }
    // A ranked micro-batch may mix k values: rank every row at the largest
    // k and truncate per request below (safe on the pruned path too —
    // nprobe is per ROW, so ranking row b at a larger k scans the same
    // probed clusters and yields a superset). `ranked` and `nprobes` are
    // the worker's, so their capacity carries over between batches of any
    // size (run_batch grows `ranked` but never shrinks it).
    nprobes.clear();
    if (any_pruned) {
      for (const QueuedRequest& r : task.requests) {
        nprobes.push_back(r.nprobe);
      }
    }
    // The batch's shard may lend half of its sweep to a worker parked there.
    BatchResult batch =
        context.run_batch(histories, top_k, top_k > 0 ? &ranked : nullptr,
                          any_pruned ? &nprobes : nullptr,
                          shards_[task.shard].get());
    const auto service_end = Clock::now();
    if (batch.split) {
      splits_.fetch_add(1, std::memory_order_relaxed);
    }
    // Derive service_ms from the SAME end timestamp the per-request totals
    // use: a second Clock::now() here could land after a preemption and
    // report service_ms > total_ms for every request in the batch.
    const double service_ms =
        std::chrono::duration<double, std::milli>(service_end - service_start)
            .count();

    // Feed the origin shard's queue-wait estimator: a racy-lossy
    // read-modify-write on a relaxed atomic by design — it steers admission,
    // never correctness.
    {
      Shard& origin = *shards_[task.shard];
      std::int64_t wait_est =
          origin.wait_p99_est_us.load(std::memory_order_relaxed);
      for (const QueuedRequest& r : task.requests) {
        const std::int64_t wait_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                service_start - r.enqueue_tp)
                .count();
        // Peak-decay high-quantile estimate: jump to any new maximum,
        // decay 1/8 toward smaller samples.
        wait_est = wait_us >= wait_est ? wait_us
                                       : wait_est + (wait_us - wait_est) / 8;
      }
      origin.wait_p99_est_us.store(wait_est, std::memory_order_relaxed);
    }

    // Record stats BEFORE resolving the promises: anyone who has observed
    // every future of a drain is guaranteed to see its samples.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      WorkerStats& stats = worker_stats_[worker];
      ++stats.batches;
      stats.ranked_rows += batch.ranked_rows;
      stats.catalog_rows += batch.catalog_rows;
      stats.scanned_rows += batch.scanned_rows;
      stats.scanned_bytes += batch.scanned_bytes;
      ModelLane& lane = stats.models[model_id];
      lane.version = task.version;
      ++lane.batches;
      lane.cache_hits += batch.cache_hits;
      lane.cache_misses += batch.cache_misses;
      const RowCacheStats cache = context.row_cache_stats();
      lane.cache_enabled = cache.enabled;
      lane.cache_resident_bytes = cache.resident_bytes;
      lane.cache_capacity_bytes = cache.capacity_bytes;
      lane.resident_mb = context.resident_megabytes();
      lane.plan_bytes = task.compiled->plan_resident_bytes();
      for (const QueuedRequest& r : task.requests) {
        const double wait_ms =
            std::chrono::duration<double, std::milli>(service_start -
                                                      r.enqueue_tp)
                .count();
        const double total_ms =
            std::chrono::duration<double, std::milli>(service_end -
                                                      r.enqueue_tp)
                .count();
        stats.queue_wait_ms.record(wait_ms);
        stats.service_ms.record(service_ms);
        stats.total_ms.record(total_ms);
        ++stats.requests;
        if (r.is_session) {
          ++stats.session_requests;
          stats.session_total_ms.record(total_ms);
        }
        lane.total_ms.record(total_ms);
        ++lane.requests;
      }
    }

    const Index dim = context.compiled().output_dim();
    for (std::size_t i = 0; i < task.requests.size(); ++i) {
      QueuedRequest& r = task.requests[i];
      AsyncResult result;
      result.model_id = model_id;
      result.model_version = task.version;
      result.batch = batch.batch;
      result.service_ms = service_ms;
      result.queue_wait_ms = std::chrono::duration<double, std::milli>(
                                 service_start - r.enqueue_tp)
                                 .count();
      result.total_ms = std::chrono::duration<double, std::milli>(
                            service_end - r.enqueue_tp)
                            .count();
      result.deadline_missed = r.deadline_tp != Clock::time_point::max() &&
                               service_end > r.deadline_tp;
      if (!r.is_session) {
        // Session answers are their top-k; only plain requests — always in
        // a plain batch, which keeps its logits — pay for a copy of the
        // full logits row.
        const float* row = &batch.logits.at2(static_cast<Index>(i), 0);
        result.logits.assign(row, row + dim);
      }
      if (r.top_k > 0) {
        // The batch was ranked at the largest requested k; this request
        // keeps its own prefix (the ordering is total, so a prefix of a
        // larger ranking IS the smaller ranking).
        const auto& ids = ranked[i];
        const std::size_t keep = std::min(static_cast<std::size_t>(r.top_k),
                                          ids.size());
        for (std::size_t j = 0; j < keep; ++j) {
          r.top_ids.push_back(ids[j].id);
          r.top_scores.push_back(ids[j].score);
        }
        result.top_ids = std::move(r.top_ids);
        result.top_scores = std::move(r.top_scores);
      }
      r.promise.set_value(std::move(result));
    }
    completed_.fetch_add(task.requests.size(), std::memory_order_relaxed);
    // Prune every lane whose bound plan the registry has moved past (swap
    // or retire) — including lanes of OTHER models that went idle. Without
    // this a lane that sees no further traffic would pin the old plan (and
    // its mmap) until the server is destroyed; with it a superseded version
    // drains as soon as this worker completes its next batch of any model.
    for (auto it = contexts.begin(); it != contexts.end();) {
      if (registry_->acquire(it->first) != it->second->compiled_ptr()) {
        it = contexts.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void AsyncServer::WorkerStats::reset() {
  std::map<std::string, ModelLane> lanes = std::move(models);
  *this = WorkerStats{};
  models = std::move(lanes);
  for (auto& [model_id, lane] : models) {
    lane = ModelLane{};
  }
}

void AsyncServer::reset_stats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  for (WorkerStats& stats : worker_stats_) {
    stats.reset();
  }
}

ServingReport AsyncServer::serve(
    const std::vector<std::vector<std::int32_t>>& requests, int repeat,
    double arrival_qps, Tensor* logits_out) {
  std::vector<RequestRef> refs;
  refs.reserve(requests.size());
  for (const auto& history : requests) {
    refs.push_back(RequestRef{&default_model_, &history, nullptr});
  }
  std::vector<std::vector<float>> rows;
  if (logits_out != nullptr) {
    rows.assign(requests.size(), {});
  }
  ServingReport report = drive(
      refs, repeat, arrival_qps, 0,
      logits_out == nullptr
          ? ResultSink()
          : [&rows](std::size_t r, AsyncResult&& result) {
              rows[r] = std::move(result.logits);
            });
  if (logits_out != nullptr) {
    // Row width comes from the rows actually SERVED, not from the current
    // registry state: a concurrent swap()/retire() of the default model
    // after the drain must not invalidate (or abort) 100% successful
    // results. A mid-drain width change still fails the per-row check.
    // Shed requests have no logits: their rows stay zero.
    Index dim = 0;
    for (const auto& row : rows) {
      if (!row.empty()) {
        dim = static_cast<Index>(row.size());
        break;
      }
    }
    *logits_out = Tensor({static_cast<Index>(requests.size()), dim});
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (rows[r].empty()) {
        continue;  // shed
      }
      check_eq(dim, static_cast<long long>(rows[r].size()),
               "AsyncServer: logit row width");
      std::memcpy(&logits_out->at2(static_cast<Index>(r), 0), rows[r].data(),
                  static_cast<std::size_t>(dim) * sizeof(float));
    }
  }
  return report;
}

ServingReport AsyncServer::serve(const std::vector<RoutedRequest>& requests,
                                 int repeat, double arrival_qps,
                                 std::vector<std::vector<float>>* logits_out) {
  std::vector<RequestRef> refs;
  refs.reserve(requests.size());
  for (const RoutedRequest& r : requests) {
    refs.push_back(RequestRef{&r.model_id, &r.history, nullptr});
  }
  if (logits_out != nullptr) {
    logits_out->assign(requests.size(), {});
  }
  return drive(refs, repeat, arrival_qps, 0,
               logits_out == nullptr
                   ? ResultSink()
                   : [logits_out](std::size_t r, AsyncResult&& result) {
                       (*logits_out)[r] = std::move(result.logits);
                     });
}

ServingReport AsyncServer::serve_sessions(
    const std::vector<SessionEvent>& events, Index k,
    std::vector<std::vector<Index>>* topk_out) {
  check(config_.session_capacity > 0,
        "AsyncServer: serve_sessions needs session_capacity > 0");
  std::vector<RequestRef> refs;
  refs.reserve(events.size());
  for (const SessionEvent& e : events) {
    refs.push_back(RequestRef{&default_model_, nullptr, &e});
  }
  if (topk_out != nullptr) {
    topk_out->assign(events.size(), {});
  }
  return drive(refs, 1, 0.0, k,
               topk_out == nullptr
                   ? ResultSink()
                   : [topk_out](std::size_t r, AsyncResult&& result) {
                       (*topk_out)[r] = std::move(result.top_ids);
                     });
}

ServingReport AsyncServer::drive(const std::vector<RequestRef>& requests,
                                 int repeat, double arrival_qps, Index k,
                                 const ResultSink& sink) {
  check(repeat > 0, "AsyncServer: repeat must be positive");
  const std::size_t unique = requests.size();
  const std::uint64_t total =
      static_cast<std::uint64_t>(unique) * static_cast<std::uint64_t>(repeat);

  ServingReport report;
  report.threads = threads();
  report.shards = shards();
  report.requests = total;
  // Cold-start slice: the default model's CURRENT plan (may legitimately
  // be gone mid-drain if a test retires it; report then stays zeroed).
  if (const auto compiled = registry_->acquire(default_model_)) {
    report.plan_adopted = compiled->plan_adopted();
    report.plan_compile_ms = compiled->compile_ms();
    report.plan_fallback_reason = compiled->plan_fallback_reason();
  }
  if (total == 0) {
    report.active_sessions = active_sessions();
    report.session_evictions = evicted_sessions();
    return report;
  }
  reset_stats();

  // Open-loop arrivals: with a nonzero rate, request i is released at
  // i/arrival_qps seconds regardless of completions (only admission-queue
  // backpressure can stall the producer). rate 0 = as fast as admitted.
  //
  // The schedule is ABSOLUTE (wall_start + i * inter_arrival), never
  // per-gap: a slow submit must not silently stretch every later arrival
  // (coordinated omission — offered load would sag exactly when the server
  // struggles). An arrival more than one period behind its slot is counted
  // in late_arrivals so the report is honest about the load it delivered.
  // sleep_until alone caps the pacer at OS timer granularity (~ms), far
  // below the offered rates the sharded path must absorb — so sleep covers
  // the bulk of a long gap and a spin loop lands the final stretch.
  const auto inter_arrival =
      arrival_qps > 0.0
          ? std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(1.0 / arrival_qps))
          : Clock::duration::zero();
  constexpr std::chrono::microseconds kSpinWindow{200};

  const std::uint64_t steals_before = steals_.load(std::memory_order_relaxed);
  const std::uint64_t splits_before = splits_.load(std::memory_order_relaxed);
  std::uint64_t late = 0;
  std::vector<std::future<AsyncResult>> futures;
  futures.reserve(static_cast<std::size_t>(total));
  const auto wall_start = Clock::now();
  for (std::uint64_t i = 0; i < total; ++i) {
    if (inter_arrival.count() > 0) {
      const auto scheduled =
          wall_start + inter_arrival * static_cast<std::int64_t>(i);
      auto now = Clock::now();
      if (now < scheduled) {
        if (scheduled - now > kSpinWindow) {
          std::this_thread::sleep_until(scheduled - kSpinWindow);
        }
        while (Clock::now() < scheduled) {
          // spin the last stretch
        }
      } else if (now - scheduled > inter_arrival) {
        ++late;  // a full period behind schedule: true offered load sagged
      }
    }
    const RequestRef& r = requests[static_cast<std::size_t>(i % unique)];
    futures.push_back(r.event != nullptr
                          ? submit_next_item(*r.model_id, r.event->session_id,
                                             r.event->item, k)
                          : submit(*r.model_id, *r.history));
  }

  std::uint64_t shed_count = 0;
  std::uint64_t miss_count = 0;
  std::uint64_t ok_in_slo = 0;
  for (std::uint64_t i = 0; i < total; ++i) {
    AsyncResult result = futures[static_cast<std::size_t>(i)].get();
    if (result.status == RequestStatus::kShed) {
      ++shed_count;
      continue;
    }
    if (result.deadline_missed) {
      ++miss_count;
    } else {
      ++ok_in_slo;  // no deadline configured counts as within SLO
    }
    if (sink && i < unique) {
      sink(static_cast<std::size_t>(i), std::move(result));
    }
  }
  report.wall_ms = elapsed_ms(wall_start);
  report.qps = report.wall_ms > 0.0
                   ? static_cast<double>(total) / (report.wall_ms / 1000.0)
                   : 0.0;
  report.steals = steals_.load(std::memory_order_relaxed) - steals_before;
  report.split_batches =
      splits_.load(std::memory_order_relaxed) - splits_before;
  report.late_arrivals = late;
  report.shed = shed_count;
  report.shed_rate =
      static_cast<double>(shed_count) / static_cast<double>(total);
  const std::uint64_t executed = total - shed_count;
  report.deadline_misses = miss_count;
  report.deadline_miss_rate =
      executed > 0
          ? static_cast<double>(miss_count) / static_cast<double>(executed)
          : 0.0;
  report.goodput_qps =
      report.wall_ms > 0.0
          ? static_cast<double>(ok_in_slo) / (report.wall_ms / 1000.0)
          : 0.0;
  collect_stats(report);
  return report;
}

void AsyncServer::collect_stats(ServingReport& report) {
  std::uint64_t executed = 0;
  LatencyHistogram waits, services, totals, session_totals;
  std::map<std::string, ModelReport> models;
  std::map<std::string, LatencyHistogram> model_totals;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    for (const WorkerStats& stats : worker_stats_) {
      waits.merge(stats.queue_wait_ms);
      services.merge(stats.service_ms);
      totals.merge(stats.total_ms);
      report.session_requests += stats.session_requests;
      session_totals.merge(stats.session_total_ms);
      report.catalog_rows += stats.catalog_rows;
      report.scanned_rows += stats.scanned_rows;
      report.scanned_bytes += stats.scanned_bytes;
      report.batches += stats.batches;
      executed += stats.requests;
      for (const auto& [model_id, lane] : stats.models) {
        if (lane.batches == 0) {
          continue;  // a lane kept from an earlier drain
        }
        ModelReport& model = models[model_id];
        model.model_id = model_id;
        model.version = std::max(model.version, lane.version);
        model.requests += lane.requests;
        model.batches += lane.batches;
        // Per-tenant footprint: peak per-worker context state plus the
        // plan, which is shared by every worker and counted once.
        model.resident_mb = std::max(
            model.resident_mb,
            lane.resident_mb + static_cast<double>(lane.plan_bytes) /
                                   (1024.0 * 1024.0));
        if (lane.cache_enabled) {
          model.cache.enabled = true;
          model.cache.hits += lane.cache_hits;
          model.cache.misses += lane.cache_misses;
          model.cache.resident_bytes += lane.cache_resident_bytes;
          model.cache.capacity_bytes += lane.cache_capacity_bytes;
        }
        model_totals[model_id].merge(lane.total_ms);
      }
    }
  }
  report.latency = totals.stats();
  report.queue_wait = waits.stats();
  report.service = services.stats();
  report.session_latency = session_totals.stats();
  report.active_sessions = active_sessions();
  report.session_evictions = evicted_sessions();
  report.pruned_fraction =
      report.catalog_rows > 0
          ? 1.0 - static_cast<double>(report.scanned_rows) /
                      static_cast<double>(report.catalog_rows)
          : 0.0;
  // Shed requests never ride a batch: divide what actually executed.
  report.mean_batch =
      report.batches > 0
          ? static_cast<double>(executed) / static_cast<double>(report.batches)
          : 0.0;
  for (auto& [model_id, model] : models) {
    model.latency = model_totals[model_id].stats();
    model.mean_batch = model.batches > 0
                           ? static_cast<double>(model.requests) /
                                 static_cast<double>(model.batches)
                           : 0.0;
    report.cache.enabled = report.cache.enabled || model.cache.enabled;
    report.cache.hits += model.cache.hits;
    report.cache.misses += model.cache.misses;
    report.cache.resident_bytes += model.cache.resident_bytes;
    report.cache.capacity_bytes += model.cache.capacity_bytes;
    report.per_model.push_back(std::move(model));
  }
}

std::size_t AsyncServer::queue_capacity() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->queue.capacity();
  }
  return total;
}

std::size_t AsyncServer::queue_high_water() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->queue.high_water();
  }
  return total;
}

std::uint64_t AsyncServer::rejected() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->queue.rejected();
  }
  return total;
}

Index AsyncServer::active_sessions() const {
  Index total = 0;
  for (const auto& shard : shards_) {
    if (shard->sessions != nullptr) {
      total += shard->sessions->active_sessions();
    }
  }
  return total;
}

std::uint64_t AsyncServer::evicted_sessions() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->sessions != nullptr) {
      total += shard->sessions->evicted_sessions();
    }
  }
  return total;
}

std::uint64_t AsyncServer::shed_total() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->shed.load(std::memory_order_relaxed);
  }
  return total;
}

RowCacheStats AsyncServer::cache_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  RowCacheStats total;
  for (const WorkerStats& stats : worker_stats_) {
    for (const auto& [model_id, lane] : stats.models) {
      if (!lane.cache_enabled) {
        continue;
      }
      total.enabled = true;
      total.hits += lane.cache_hits;
      total.misses += lane.cache_misses;
      total.resident_bytes += lane.cache_resident_bytes;
      total.capacity_bytes += lane.cache_capacity_bytes;
    }
  }
  return total;
}

double AsyncServer::max_resident_megabytes() const {
  double max_mb = 0.0;
  std::map<std::string, std::size_t> plan_bytes;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    for (const WorkerStats& stats : worker_stats_) {
      double worker_mb = 0.0;
      for (const auto& [model_id, lane] : stats.models) {
        // One context per model on this worker; their state coexists.
        worker_mb += lane.resident_mb;
        // Plan footprint of the models THIS server served — the registry
        // may host models other servers own, which are not our memory.
        auto& bytes = plan_bytes[model_id];
        bytes = std::max(bytes, lane.plan_bytes);
      }
      max_mb = std::max(max_mb, worker_mb);
    }
  }
  // Plans are compiled once per model version and shared by every worker.
  std::size_t shared_plan_bytes = 0;
  for (const auto& [model_id, bytes] : plan_bytes) {
    shared_plan_bytes += bytes;
  }
  return max_mb +
         static_cast<double>(shared_plan_bytes) / (1024.0 * 1024.0);
}

}  // namespace memcom
