#include "src/util/fault_injector.h"

#include <bit>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <type_traits>

#include "src/util/log.h"
#include "src/util/random.h"

namespace refloat::util {

namespace {

// Salt separating the "which element / what kind" stream from the firing
// decision stream at the same (seed, event, site).
constexpr std::uint64_t kCorruptionSalt = 0xfa0175ULL;

}  // namespace

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kPlanBuild: return "plan";
    case FaultSite::kSweep: return "sweep";
    case FaultSite::kCacheBuild: return "build";
    case FaultSite::kAdmission: return "admission";
  }
  return "?";
}

bool parse_fault_site(std::string_view name, FaultSite* out) {
  if (name == "plan") {
    *out = FaultSite::kPlanBuild;
  } else if (name == "sweep") {
    *out = FaultSite::kSweep;
  } else if (name == "build") {
    *out = FaultSite::kCacheBuild;
  } else if (name == "admission") {
    *out = FaultSite::kAdmission;
  } else {
    return false;
  }
  return true;
}

bool parse_fault_spec(std::string_view text, FaultSpec* out,
                      std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "bad fault spec \"" + std::string(text) + "\": " + why;
    }
    return false;
  };
  FaultSpec spec;
  // Split on ':' into at most 4 fields: site:rate[:seed[:budget]].
  std::string_view fields[4];
  std::size_t count = 0;
  std::string_view rest = text;
  while (count < 4) {
    const std::size_t colon = rest.find(':');
    fields[count++] = rest.substr(0, colon);
    if (colon == std::string_view::npos) break;
    rest = rest.substr(colon + 1);
    if (count == 4) return fail("too many ':' fields");
  }
  if (count < 2) return fail("want <site>:<rate>[:<seed>[:<budget>]]");
  if (!parse_fault_site(fields[0], &spec.site)) {
    return fail("unknown site (plan|sweep|build|admission)");
  }
  char* end = nullptr;
  const std::string rate_text(fields[1]);
  spec.rate = std::strtod(rate_text.c_str(), &end);
  if (end == rate_text.c_str() || *end != '\0' ||
      !(spec.rate >= 0.0 && spec.rate <= 1.0)) {
    return fail("rate must be in [0, 1]");
  }
  if (count >= 3) {
    const std::string seed_text(fields[2]);
    spec.seed = std::strtoull(seed_text.c_str(), &end, 10);
    if (end == seed_text.c_str() || *end != '\0') {
      return fail("seed must be a u64");
    }
  }
  if (count >= 4) {
    const std::string budget_text(fields[3]);
    spec.budget = std::strtoll(budget_text.c_str(), &end, 10);
    if (end == budget_text.c_str() || *end != '\0') {
      return fail("budget must be an integer");
    }
  }
  *out = spec;
  return true;
}

FaultInjector& FaultInjector::global() {
  static FaultInjector* instance = [] {
    auto* injector = new FaultInjector();
    if (const char* text = std::getenv("REFLOAT_FAULTS");
        text != nullptr && text[0] != '\0') {
      std::string error;
      if (!injector->configure_from_text(text, &error)) {
        RF_LOG_WARN("REFLOAT_FAULTS: %s", error.c_str());
      } else {
        RF_LOG_INFO("fault injection armed: %s",
                    injector->describe().c_str());
      }
    }
    return injector;
  }();
  return *instance;
}

void FaultInjector::configure(const FaultSpec& spec) {
  Site& site = sites_[index(spec.site)];
  const bool was_armed = site.armed.load(std::memory_order_relaxed);
  site.rate.store(spec.rate, std::memory_order_relaxed);
  site.seed.store(spec.seed, std::memory_order_relaxed);
  site.budget.store(spec.budget, std::memory_order_relaxed);
  site.events.store(0, std::memory_order_relaxed);
  site.fired.store(0, std::memory_order_relaxed);
  const bool arm = spec.rate > 0.0 && spec.budget != 0;
  site.armed.store(arm, std::memory_order_release);
  if (arm != was_armed) {
    armed_count_.fetch_add(arm ? 1 : -1, std::memory_order_relaxed);
  }
}

bool FaultInjector::configure_from_text(std::string_view text,
                                        std::string* error) {
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string_view one = text.substr(0, comma);
    text = comma == std::string_view::npos ? std::string_view{}
                                           : text.substr(comma + 1);
    if (one.empty()) continue;
    FaultSpec spec;
    if (!parse_fault_spec(one, &spec, error)) return false;
    configure(spec);
  }
  return true;
}

void FaultInjector::disable(FaultSite which) {
  Site& site = sites_[index(which)];
  if (site.armed.exchange(false, std::memory_order_release)) {
    armed_count_.fetch_add(-1, std::memory_order_relaxed);
  }
}

void FaultInjector::disable_all() {
  for (std::size_t s = 0; s < kFaultSiteCount; ++s) {
    disable(static_cast<FaultSite>(s));
  }
}

bool FaultInjector::should_fire(FaultSite which) {
  std::uint64_t event = 0;
  return fire(which, &event);
}

bool FaultInjector::fire(FaultSite which, std::uint64_t* event_out) {
  Site& site = sites_[index(which)];
  if (!site.armed.load(std::memory_order_acquire)) return false;
  const std::uint64_t event =
      site.events.fetch_add(1, std::memory_order_relaxed);
  *event_out = event;
  const std::uint64_t draw = stream_seed(
      site.seed.load(std::memory_order_relaxed), event, index(which));
  const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
  if (u >= site.rate.load(std::memory_order_relaxed)) return false;
  // Consume budget; a race past zero un-consumes and disarms.
  long long budget = site.budget.load(std::memory_order_relaxed);
  while (budget >= 0) {
    if (budget == 0) {
      disable(which);
      return false;
    }
    if (site.budget.compare_exchange_weak(budget, budget - 1,
                                          std::memory_order_relaxed)) {
      if (budget == 1) disable(which);  // last one fires, then disarm
      break;
    }
  }
  site.fired.fetch_add(1, std::memory_order_relaxed);
  return true;
}

template <typename T>
bool FaultInjector::corrupt_one(FaultSite which, T* y, std::size_t n,
                                std::size_t stride) {
  // The IEEE bit pattern of T and its top exponent bit (just below the
  // sign): bit 62 of a double, bit 30 of a float.
  using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t,
                                  std::uint32_t>;
  constexpr Bits kTopExponentBit = Bits{1} << (sizeof(T) * 8 - 2);
  std::uint64_t event = 0;
  if (n == 0 || !fire(which, &event)) return false;
  Site& site = sites_[index(which)];
  Rng rng(stream_seed(site.seed.load(std::memory_order_relaxed), event,
                      kCorruptionSalt));
  const std::size_t idx =
      static_cast<std::size_t>(rng.below(n)) * stride;
  if (rng.below(4) == 3) {
    y[idx] = std::numeric_limits<T>::quiet_NaN();
  } else {
    // Flip the highest exponent bit below the sign: a silent but huge
    // magnitude error — the ABFT checksum's target, invisible to a single
    // isfinite() guard.
    y[idx] = std::bit_cast<T>(std::bit_cast<Bits>(y[idx]) ^ kTopExponentBit);
  }
  return true;
}

bool FaultInjector::maybe_corrupt(FaultSite which, std::span<double> y,
                                  std::size_t k, std::size_t column) {
  return corrupt_one(which, y.data() + column, y.size() / k, k);
}

bool FaultInjector::maybe_corrupt(FaultSite which, std::span<float> y) {
  return corrupt_one(which, y.data(), y.size(), 1);
}

FaultInjector::SiteStats FaultInjector::site_stats(FaultSite which) const {
  const Site& site = sites_[index(which)];
  return {site.events.load(std::memory_order_relaxed),
          site.fired.load(std::memory_order_relaxed)};
}

std::uint64_t FaultInjector::total_fired() const {
  std::uint64_t total = 0;
  for (const Site& site : sites_) {
    total += site.fired.load(std::memory_order_relaxed);
  }
  return total;
}

std::string FaultInjector::describe() const {
  std::ostringstream out;
  bool first = true;
  for (std::size_t s = 0; s < kFaultSiteCount; ++s) {
    const Site& site = sites_[s];
    const std::uint64_t fired = site.fired.load(std::memory_order_relaxed);
    if (!site.armed.load(std::memory_order_relaxed) && fired == 0) continue;
    if (!first) out << " ";
    first = false;
    out << fault_site_name(static_cast<FaultSite>(s)) << ":"
        << site.rate.load(std::memory_order_relaxed) << ":"
        << site.seed.load(std::memory_order_relaxed)
        << " budget=" << site.budget.load(std::memory_order_relaxed)
        << " fired=" << fired << "/"
        << site.events.load(std::memory_order_relaxed);
  }
  return out.str();
}

}  // namespace refloat::util
