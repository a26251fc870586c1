// Deterministic fault injection for the fault-tolerance ladder
// (docs/ARCHITECTURE.md "Fault tolerance").
//
// Every injection decision is counter-based like the noisy-sweep RNG: site
// `s` keeps a monotone event counter, and event number e fires iff the
// uniform draw from stream_seed(seed, e, s) lands below the configured
// rate. The decision depends only on (seed, site, event number) — never on
// which thread asked or how the matrix is tiled — so a fault trace replays
// bit-for-bit at any REFLOAT_THREADS and tile count, and a test can arm
// exactly one fault with rate = 1, budget = 1.
//
// Sites (where the serving stack consults the injector):
//   plan      — resident operand corruption right after a residency build
//               quantizes the matrix: one stored value code (fp32 or fp64)
//               of the packed dequantized operand (silent: only the ABFT
//               checksum, taken before the damage, can see it)
//   sweep     — one element of a sweep's output column flipped or NaN'd
//               (what the ABFT checked mode exists to catch)
//   build     — residency-cache builder throws (loud build failure)
//   admission — a request is dropped at the daemon queue
//
// Configuration: REFLOAT_FAULTS=<site>:<rate>[:<seed>[:<budget>]][,...]
// parsed once into the process-global instance, or the TCP `FAULT` verb /
// configure() at runtime. budget < 0 (default) = unlimited firings.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace refloat::util {

enum class FaultSite {
  kPlanBuild = 0,
  kSweep = 1,
  kCacheBuild = 2,
  kAdmission = 3,
};
inline constexpr std::size_t kFaultSiteCount = 4;

// Short site token ("plan", "sweep", "build", "admission") — the spec
// grammar and the stats/log vocabulary.
const char* fault_site_name(FaultSite site);
bool parse_fault_site(std::string_view name, FaultSite* out);

struct FaultSpec {
  FaultSite site = FaultSite::kSweep;
  double rate = 0.0;          // firing probability per event, in [0, 1]
  std::uint64_t seed = 0x5eedfau;
  long long budget = -1;      // max firings; < 0 = unlimited
};

// Parses "<site>:<rate>[:<seed>[:<budget>]]". On failure returns false and
// (when `error` is non-null) a one-line reason.
bool parse_fault_spec(std::string_view text, FaultSpec* out,
                      std::string* error);

class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // The process-wide instance every injection site consults. First use
  // parses REFLOAT_FAULTS (bad specs warn and are skipped).
  static FaultInjector& global();

  // Arms `spec.site` (replacing any previous config) and resets its event
  // and firing counters so a fresh spec replays from event 0.
  void configure(const FaultSpec& spec);
  // Parses and applies a comma-separated spec list (the REFLOAT_FAULTS
  // grammar). Returns false on the first bad spec (earlier ones applied).
  bool configure_from_text(std::string_view text, std::string* error = nullptr);
  void disable(FaultSite site);
  void disable_all();

  // Cheap disarmed-path check — one relaxed atomic load.
  [[nodiscard]] bool armed(FaultSite site) const {
    return sites_[index(site)].armed.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool any_armed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  // Deterministic decision for the next event at `site`; always advances
  // the site's event counter, consumes budget only when it fires.
  bool should_fire(FaultSite site);

  // Corrupts one element of `y` when the site fires: a deterministic
  // element gets its top exponent bit below the sign flipped, or (every 4th
  // firing) NaN. Returns true when a corruption landed. The float overload
  // corrupts a resident operand stored in the fp32 code (bit 30 instead of
  // bit 62); both pick the same element and outcome for the same event.
  // With k > 1, y holds k row-major interleaved vectors (element i of
  // column `column` at y[i*k + column]) and the corruption lands in that
  // column: the element and outcome it would get extracted.
  bool maybe_corrupt(FaultSite site, std::span<double> y, std::size_t k = 1,
                     std::size_t column = 0);
  bool maybe_corrupt(FaultSite site, std::span<float> y);

  struct SiteStats {
    std::uint64_t events = 0;
    std::uint64_t fired = 0;
  };
  [[nodiscard]] SiteStats site_stats(FaultSite site) const;
  [[nodiscard]] std::uint64_t total_fired() const;

  // "sweep:0.001:42 budget=-1 fired=3/2041 ..." — the FAULT verb's status
  // reply and the bench_faults banner. Empty when nothing is armed.
  [[nodiscard]] std::string describe() const;

 private:
  // should_fire plus the event number that fired (keys the corruption
  // stream so a firing replays identically).
  bool fire(FaultSite site, std::uint64_t* event_out);
  template <typename T>
  bool corrupt_one(FaultSite site, T* y, std::size_t n, std::size_t stride);

  struct Site {
    std::atomic<bool> armed{false};
    std::atomic<double> rate{0.0};
    std::atomic<std::uint64_t> seed{0};
    std::atomic<long long> budget{-1};  // firings left; -1 = unlimited
    std::atomic<std::uint64_t> events{0};
    std::atomic<std::uint64_t> fired{0};
  };

  static std::size_t index(FaultSite site) {
    return static_cast<std::size_t>(site);
  }

  Site sites_[kFaultSiteCount];
  std::atomic<int> armed_count_{0};
};

}  // namespace refloat::util
