// ResidencyCache contract: least-recently-used eviction in byte-accounted
// capacity, oversize entries served but never cached, rebuilds after
// eviction, and racing cold misses of one key — both build, one resident
// is kept and budgeted once, both callers get it (run under TSan in CI).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "src/gen/grid.h"
#include "src/serve/residency_cache.h"

namespace refloat::serve {
namespace {

// A tiny real entry whose byte charge the test controls explicitly, so
// capacity scenarios are exact instead of depending on resident layout.
ResidencyCache::EntryPtr make_entry(std::size_t bytes) {
  core::Format fmt = core::default_format();
  fmt.b = 2;
  auto entry = std::make_shared<ResidentEntry>(
      core::RefloatMatrix(gen::build_stencil(gen::laplace2d_5pt(4, 3)), fmt));
  entry->bytes = bytes;
  return entry;
}

ResidencyCache::Builder builder_of(std::size_t bytes, int* count = nullptr) {
  return [bytes, count]() -> ResidencyCache::EntryPtr {
    if (count != nullptr) ++*count;
    return make_entry(bytes);
  };
}

TEST(ResidencyCache, EvictsLeastRecentlyUsed) {
  ResidencyCache cache(3000);
  cache.get_or_build("A", builder_of(1000));
  cache.get_or_build("B", builder_of(1000));
  cache.get_or_build("C", builder_of(1000));
  EXPECT_EQ(cache.keys_lru_to_mru(), (std::vector<std::string>{"A", "B", "C"}));

  // Touch A: B becomes the eviction candidate.
  bool hit = false;
  cache.get_or_build("A", builder_of(1000), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.keys_lru_to_mru(), (std::vector<std::string>{"B", "C", "A"}));

  cache.get_or_build("D", builder_of(1000));
  EXPECT_EQ(cache.keys_lru_to_mru(), (std::vector<std::string>{"C", "A", "D"}));

  const ResidencyCache::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_count, 3u);
  EXPECT_EQ(stats.resident_bytes, 3000u);
}

TEST(ResidencyCache, ByteCapacityNotEntryCount) {
  ResidencyCache cache(3800);
  cache.get_or_build("small1", builder_of(500));
  cache.get_or_build("small2", builder_of(500));
  cache.get_or_build("small3", builder_of(500));
  EXPECT_EQ(cache.stats().resident_count, 3u);

  // One 3000-byte entry displaces two small ones (1500 + 3000 > 3800,
  // 1000 + 3000 > 3800, 500 + 3000 <= 3800) — the budget is bytes, not
  // slots.
  cache.get_or_build("large", builder_of(3000));
  const ResidencyCache::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.resident_count, 2u);
  EXPECT_EQ(stats.resident_bytes, 3500u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(cache.keys_lru_to_mru(),
            (std::vector<std::string>{"small3", "large"}));
}

TEST(ResidencyCache, OversizeServedButNeverCached) {
  ResidencyCache cache(1000);
  int builds = 0;
  const ResidencyCache::EntryPtr entry =
      cache.get_or_build("huge", builder_of(5000, &builds));
  ASSERT_NE(entry, nullptr);  // the caller still gets a working entry
  EXPECT_EQ(entry->bytes, 5000u);
  const ResidencyCache::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.oversize, 1u);
  EXPECT_EQ(stats.resident_count, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_TRUE(cache.keys_lru_to_mru().empty());

  // Every request re-runs the builder: oversize never becomes resident.
  cache.get_or_build("huge", builder_of(5000, &builds));
  EXPECT_EQ(builds, 2);
}

TEST(ResidencyCache, RebuildsAfterEviction) {
  ResidencyCache cache(1000);
  int builds_a = 0;
  cache.get_or_build("A", builder_of(800, &builds_a));
  cache.get_or_build("B", builder_of(800));  // evicts A
  EXPECT_EQ(cache.keys_lru_to_mru(), (std::vector<std::string>{"B"}));

  bool hit = true;
  cache.get_or_build("A", builder_of(800, &builds_a), &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds_a, 2);  // evicted -> full rebuild, not a stale handle
  const ResidencyCache::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.builds, 3u);
}

TEST(ResidencyCache, RacingColdMissesLeaveOneResidentBudgetedOnce) {
  ResidencyCache cache(1 << 20);
  // Each build waits (bounded) for the other to start, so both callers
  // are past the lookup and both miss.
  std::mutex mutex;
  std::condition_variable cv;
  int building = 0;
  const ResidencyCache::Builder racing_builder =
      [&]() -> ResidencyCache::EntryPtr {
    {
      std::unique_lock<std::mutex> lock(mutex);
      ++building;
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return building == 2; });
    }
    return make_entry(1000);
  };

  ResidencyCache::EntryPtr first;
  ResidencyCache::EntryPtr second;
  bool hit_first = true;
  bool hit_second = true;
  std::thread t1([&] { first = cache.get_or_build("M", racing_builder,
                                                  &hit_first); });
  std::thread t2([&] { second = cache.get_or_build("M", racing_builder,
                                                   &hit_second); });
  t1.join();
  t2.join();

  EXPECT_EQ(building, 2);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, second);  // the loser gets the winner's entry
  EXPECT_FALSE(hit_first);
  EXPECT_FALSE(hit_second);
  const ResidencyCache::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.resident_count, 1u);
  EXPECT_EQ(stats.resident_bytes, 1000u);  // budgeted once
  EXPECT_EQ(cache.keys_lru_to_mru(), (std::vector<std::string>{"M"}));

  bool hit = false;
  EXPECT_EQ(cache.get_or_build("M", racing_builder, &hit), first);
  EXPECT_TRUE(hit);
}

}  // namespace
}  // namespace refloat::serve
