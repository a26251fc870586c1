#include "src/serve/residency_cache.h"

#include "src/util/log.h"

namespace refloat::serve {

ResidencyCache::EntryPtr ResidencyCache::get_or_build(const std::string& key,
                                                      const Builder& build,
                                                      bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto it = slots_.find(key);
    if (it == slots_.end()) break;  // cold: this thread builds
    if (it->second.entry != nullptr) {
      ++stats_.hits;
      if (cache_hit != nullptr) *cache_hit = true;
      // Touch: move to the MRU end.
      lru_.splice(lru_.end(), lru_, it->second.lru_it);
      return it->second.entry;
    }
    // A builder for this key is in flight on another thread; wait for it
    // rather than building the same matrix twice.
    built_cv_.wait(lock);
  }

  // Claim the build (slot with a null entry = in-flight marker).
  slots_.emplace(key, Slot{nullptr, lru_.end()});
  ++stats_.misses;
  lock.unlock();

  EntryPtr built;
  try {
    built = build();
  } catch (...) {
    lock.lock();
    slots_.erase(key);
    built_cv_.notify_all();
    throw;
  }

  lock.lock();
  ++stats_.builds;
  if (built == nullptr || built->bytes > capacity_bytes_) {
    // Never cacheable: hand it to the caller (their shared_ptr keeps it
    // alive for this batch) but do not let it wipe the whole cache.
    if (built != nullptr) {
      ++stats_.oversize;
      RF_LOG_WARN("residency cache: \"%s\" (%zu bytes) exceeds the %zu-byte "
                  "capacity; serving uncached",
                  key.c_str(), built->bytes, capacity_bytes_);
    }
    slots_.erase(key);
    built_cv_.notify_all();
    return built;
  }

  Slot& slot = slots_[key];
  slot.entry = built;
  lru_.push_back(key);
  slot.lru_it = std::prev(lru_.end());
  stats_.resident_bytes += built->bytes;
  evict_to_fit();
  built_cv_.notify_all();
  return built;
}

void ResidencyCache::evict_to_fit() {
  while (stats_.resident_bytes > capacity_bytes_ && !lru_.empty()) {
    const std::string victim = lru_.front();
    auto it = slots_.find(victim);
    lru_.pop_front();
    if (it == slots_.end() || it->second.entry == nullptr) continue;
    stats_.resident_bytes -= it->second.entry->bytes;
    slots_.erase(it);
    ++stats_.evictions;
  }
}

ResidencyCache::CacheStats ResidencyCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats out = stats_;
  out.capacity_bytes = capacity_bytes_;
  // In-flight builds hold slots too; report only completed residents.
  std::size_t resident = 0;
  for (const auto& [key, slot] : slots_) {
    if (slot.entry != nullptr) ++resident;
  }
  out.resident_count = resident;
  return out;
}

std::vector<std::string> ResidencyCache::keys_lru_to_mru() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {lru_.begin(), lru_.end()};
}

bool ResidencyCache::erase(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(key);
  if (it == slots_.end() || it->second.entry == nullptr) return false;
  stats_.resident_bytes -= it->second.entry->bytes;
  lru_.erase(it->second.lru_it);
  slots_.erase(it);
  return true;
}

}  // namespace refloat::serve
