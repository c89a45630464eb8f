// Fixed-capacity per-session history store for the stateful next-item
// serving workload (ROADMAP item 3).
//
// Each session id owns a bounded ring of the last `history_capacity` item
// ids; append_and_snapshot() appends one interaction and hands back the
// post-append history oldest-first, which AsyncServer feeds through the
// normal inference path. Everything — the ring slab, the open-addressing
// id→slot map (linear probing with backward-shift deletion, so no
// tombstone buildup), and the intrusive LRU links — is sized once at
// construction: zero steady-state allocation, matching the engine's
// fast-path guarantee. When all slots are occupied the least-recently-used
// session is evicted (counted in evicted_sessions()); its slot is scrubbed
// before reuse so a recycled slot can never leak another session's items.
//
// Threading: the store itself takes no lock. AsyncServer keeps one
// SessionStore per shard and touches it only under that shard's admission
// queue lock, as a worker pops a request — session-affine routing
// (hash(session_id) picks the shard) puts a session's updates in that one
// queue in submission order, so appends apply in that order whichever
// worker pops them. The two counters are atomics so report assembly can
// read them from another thread without the queue lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/tensor.h"

namespace memcom {

class SessionStore {
 public:
  SessionStore(Index max_sessions, Index history_capacity);

  // Appends `item` to the session's ring — creating the session (evicting
  // the LRU one if full) when absent — then copies the post-append history
  // oldest-first into `out` and returns its length (<= history_capacity).
  // `out` is resized, never re-reserved beyond history_capacity: a caller
  // that reserved history_capacity up front stays allocation-free.
  Index append_and_snapshot(std::uint64_t session_id, std::int32_t item,
                            std::vector<std::int32_t>& out);

  // Snapshot without appending; returns 0 (and clears `out`) when the
  // session is unknown. Does not touch LRU order.
  Index history(std::uint64_t session_id, std::vector<std::int32_t>& out) const;

  bool contains(std::uint64_t session_id) const;

  Index max_sessions() const { return max_sessions_; }
  Index history_capacity() const { return history_capacity_; }

  // Cross-thread observable counters.
  Index active_sessions() const {
    return active_.load(std::memory_order_relaxed);
  }
  std::uint64_t evicted_sessions() const {
    return evicted_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t probe_start(std::uint64_t session_id) const;
  // Hash-table index holding `session_id`, or SIZE_MAX when absent.
  std::size_t find_bucket(std::uint64_t session_id) const;
  void hash_insert(std::uint64_t session_id, Index slot);
  void hash_erase(std::uint64_t session_id);
  void lru_unlink(Index slot);
  void lru_push_front(Index slot);

  Index max_sessions_ = 0;
  Index history_capacity_ = 0;

  // Open-addressing table, capacity a power of two >= 2 * max_sessions.
  std::size_t mask_ = 0;
  std::vector<std::uint8_t> bucket_used_;
  std::vector<std::uint64_t> bucket_key_;
  std::vector<Index> bucket_slot_;

  // Per-slot session state over one preallocated slab.
  std::vector<std::int32_t> ring_;      // [max_sessions * history_capacity]
  std::vector<std::uint64_t> slot_id_;  // owning session id per slot
  std::vector<Index> len_;
  std::vector<Index> head_;

  // Intrusive LRU (head = most recent, tail = eviction victim).
  std::vector<Index> lru_prev_;
  std::vector<Index> lru_next_;
  Index lru_head_ = -1;
  Index lru_tail_ = -1;

  std::vector<Index> free_slots_;

  std::atomic<Index> active_{0};
  std::atomic<std::uint64_t> evicted_{0};
};

}  // namespace memcom
