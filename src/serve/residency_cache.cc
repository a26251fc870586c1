#include "src/serve/residency_cache.h"

#include "src/util/log.h"

namespace refloat::serve {

ResidencyCache::EntryPtr ResidencyCache::get_or_build(const std::string& key,
                                                      const Builder& build,
                                                      bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(key);
    if (it != slots_.end()) {
      ++stats_.hits;
      if (cache_hit != nullptr) *cache_hit = true;
      // Touch: move to the MRU end.
      lru_.splice(lru_.end(), lru_, it->second.lru_it);
      return it->second.entry;
    }
    ++stats_.misses;
  }

  // Built unlocked: other keys stay servable meanwhile.
  EntryPtr built = build();

  std::lock_guard<std::mutex> lock(mutex_);
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
    return built;
  }
  auto [it, inserted] = slots_.try_emplace(key);
  if (!inserted) return it->second.entry;  // a racing caller's build won
  it->second.entry = built;
  it->second.lru_it = lru_.insert(lru_.end(), key);
  stats_.resident_bytes += built->bytes;
  evict_to_fit();
  return built;
}

void ResidencyCache::evict_to_fit() {
  while (stats_.resident_bytes > capacity_bytes_ && !lru_.empty()) {
    auto it = slots_.find(lru_.front());
    stats_.resident_bytes -= it->second.entry->bytes;
    slots_.erase(it);
    lru_.pop_front();
    ++stats_.evictions;
  }
}

ResidencyCache::CacheStats ResidencyCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats out = stats_;
  out.capacity_bytes = capacity_bytes_;
  out.resident_count = slots_.size();
  return out;
}

std::vector<std::string> ResidencyCache::keys_lru_to_mru() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {lru_.begin(), lru_.end()};
}

bool ResidencyCache::erase(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(key);
  if (it == slots_.end()) return false;
  stats_.resident_bytes -= it->second.entry->bytes;
  lru_.erase(it->second.lru_it);
  slots_.erase(it);
  return true;
}

}  // namespace refloat::serve
