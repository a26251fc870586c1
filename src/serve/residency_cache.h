// LRU residency cache of built matrices — the serving-layer embodiment of
// the paper's core economics: programming a matrix into ReRAM (here:
// quantizing into a RefloatMatrix, partitioning the TiledPlan, probing
// definiteness, building the backend — a bit-true crossbar image) is the
// expensive step, and it should be paid once per resident matrix, then
// amortized across every solve that hits it.
//
// Capacity is byte-accounted (RefloatMatrix::resident_bytes — the packed
// dequantized operand plus its block index — + the tiled shard index + the
// backend's SweepBackend::resident_bytes, which is 0 for value and noisy
// residents), not entry-counted, so one huge matrix and many small ones
// budget against the same limit. A miss builds outside the lock, so other
// keys stay servable meanwhile. The daemon never builds one key on two
// threads at once (a key is its batch key, solved by one worker at a time);
// should two callers race on a cold key anyway, both build, the first
// insert wins and both get its entry (tests/test_lru_cache.cc pins this
// under TSan).
//
// Entries are handed out as shared_ptr<const ...>: eviction removes a
// matrix from the byte budget immediately, but in-flight solves keep their
// entry alive until they finish — eviction can never invalidate a batch
// mid-solve.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/refloat_matrix.h"
#include "src/core/sweep_backend.h"
#include "src/core/tiled_plan.h"

namespace refloat::serve {

// One resident matrix: the built RefloatMatrix, its tile partition (shard
// offsets; empty when running untiled), and the execution backend the
// residency key names (value / noisy / bit-true — value and noisy backends
// sweep rf itself, the bit-true one owns its programmed crossbar image,
// which is exactly the cost the residency amortizes). The backend borrows
// `rf` and `tiled`, so it MUST be built only after the entry reached its
// final address. The backend's per-sweep scratch is per-instance, and the
// daemon solves at most one batch per resident key at a time (batches of
// distinct keys run concurrently on its solve workers), so the shared-const
// entry handing out a mutable sweep is safe.
struct ResidentEntry {
  explicit ResidentEntry(core::RefloatMatrix matrix) : rf(std::move(matrix)) {}

  core::RefloatMatrix rf;
  core::TiledPlan tiled;
  std::unique_ptr<core::SweepBackend> backend;
  // ABFT checksum row over the dequantized operator (empty colsum when
  // checked sweeps are off). Taken while the operand is still clean, before
  // the fault injector's `plan` site can damage rf's packed operand (and,
  // through it, the crossbar image a bit-true backend programs), so silent
  // corruption of that operand fails verification. The backend holds a
  // pointer to this member — the entry's address is pinned by shared_ptr.
  core::AbftChecksum abft;
  std::size_t bytes = 0;       // what the cache budgets for this entry
  bool indefinite = false;     // probe_definiteness routing verdict
};

class ResidencyCache {
 public:
  using EntryPtr = std::shared_ptr<const ResidentEntry>;
  using Builder = std::function<EntryPtr()>;

  explicit ResidencyCache(std::size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  // Returns the resident entry for `key`, building it via `build` on a
  // miss (see file comment for a racing miss). An entry whose bytes exceed
  // the whole capacity is returned but never cached (counted as oversize).
  // If the builder throws, the exception propagates and nothing is cached.
  EntryPtr get_or_build(const std::string& key, const Builder& build,
                        bool* cache_hit = nullptr);

  struct CacheStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t builds = 0;      // builder invocations that completed
    std::size_t evictions = 0;
    std::size_t oversize = 0;    // built entries too large to ever cache
    std::size_t resident_count = 0;
    std::size_t resident_bytes = 0;
    std::size_t capacity_bytes = 0;
  };
  [[nodiscard]] CacheStats stats() const;

  // Resident keys in eviction order (least recently used first) — the
  // observable the LRU tests pin.
  [[nodiscard]] std::vector<std::string> keys_lru_to_mru() const;

  // Drops one resident entry — the recovery ladder's "rebuild" rung evicts
  // a key whose resident image keeps failing verification so the next
  // get_or_build re-runs the builder. Returns false when the key is not
  // resident. In-flight solves holding
  // the old entry keep it alive until they finish.
  bool erase(const std::string& key);

 private:
  struct Slot {
    EntryPtr entry;
    std::list<std::string>::iterator lru_it;
  };

  // Evicts least-recently-used entries until the budget fits. Caller holds
  // mutex_.
  void evict_to_fit();

  const std::size_t capacity_bytes_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Slot> slots_;
  std::list<std::string> lru_;  // front = least recently used
  CacheStats stats_;
};

}  // namespace refloat::serve
