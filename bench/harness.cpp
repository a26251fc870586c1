#include "bench/harness.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#define REFLOAT_HAVE_FLOCK 1
#endif

#include "src/arch/cost.h"
#include "src/solvers/batched.h"
#include "src/solvers/operator.h"
#include "src/util/log.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace refloat::bench {

const char* platform_name(Platform platform) {
  switch (platform) {
    case Platform::kDouble: return "double";
    case Platform::kRefloat: return "refloat";
    case Platform::kFeinberg: return "feinberg";
  }
  return "?";
}

const char* solver_name(SolverKind solver) {
  return solver == SolverKind::kCg ? "CG" : "BiCGSTAB";
}

MatrixBundle load_bundle(const gen::SuiteSpec& spec) {
  sparse::Csr a = gen::load_or_build(spec, gen::default_data_dir());
  std::vector<double> b = solve::make_rhs(a, spec.b_norm);
  const core::Format format = spec.fv_override != 0
                                  ? core::default_format_fv16()
                                  : core::default_format();
  core::RefloatMatrix rf(a, format);
  return {&spec, std::move(a), std::move(b), format, std::move(rf)};
}

namespace {

constexpr const char kResultHeader[] =
    "matrix,solver,platform,iterations,status,final_residual,"
    "true_residual,wall_seconds\n";

// Matrix names become shard filenames; anything outside [A-Za-z0-9._-]
// (there is nothing today) is mapped to '_' rather than trusted as a path.
std::string shard_filename(const std::string& matrix) {
  std::string name;
  for (const char c : matrix) {
    const bool safe = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                      c == '-' || c == '_' || c == '.';
    name += safe ? c : '_';
  }
  if (name.empty() || name[0] == '.') name = "_" + name;
  return name + ".csv";
}

bool parse_record_line(const std::string& line, SolveRecord* rec) {
  std::istringstream ss(line);
  std::string iter_s, fr_s, tr_s, ws_s;
  // Every field must be present: a row torn mid-write (crash, full disk)
  // must read as a cache miss, not as a record with zeroed numerics.
  if (!std::getline(ss, rec->matrix, ',') ||
      !std::getline(ss, rec->solver, ',') ||
      !std::getline(ss, rec->platform, ',') ||
      !std::getline(ss, iter_s, ',') ||
      !std::getline(ss, rec->status, ',') ||
      !std::getline(ss, fr_s, ',') ||
      !std::getline(ss, tr_s, ',') ||
      !std::getline(ss, ws_s)) {
    return false;
  }
  rec->iterations = std::strtol(iter_s.c_str(), nullptr, 10);
  rec->final_residual = std::strtod(fr_s.c_str(), nullptr);
  rec->true_residual = std::strtod(tr_s.c_str(), nullptr);
  rec->wall_seconds = std::strtod(ws_s.c_str(), nullptr);
  return !rec->matrix.empty() && rec->matrix != "matrix";
}

std::string format_record_line(const SolveRecord& rec) {
  // Only the bounded numeric tail goes through snprintf; the name fields
  // concatenate, so an arbitrarily long matrix name cannot truncate the row
  // (a torn row would merge with the next append in the append-only shard).
  char nums[112];
  std::snprintf(nums, sizeof(nums), "%.17g,%.17g,%.6g", rec.final_residual,
                rec.true_residual, rec.wall_seconds);
  return rec.matrix + "," + rec.solver + "," + rec.platform + "," +
         std::to_string(rec.iterations) + "," + rec.status + "," + nums +
         "\n";
}

std::string record_key(const std::string& matrix, const std::string& solver,
                       const std::string& platform) {
  return matrix + "|" + solver + "|" + platform;
}

// Reads one shard (or legacy) file into `records`, last row wins per key.
// Readers take a shared flock so a concurrent append cannot be seen torn.
void load_record_file(const std::string& path,
                      std::map<std::string, SolveRecord>* records) {
#ifdef REFLOAT_HAVE_FLOCK
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::flock(fd, LOCK_SH);
#endif
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      SolveRecord rec;
      if (!parse_record_line(line, &rec)) continue;  // header / torn row
      (*records)[record_key(rec.matrix, rec.solver, rec.platform)] = rec;
    }
  }
#ifdef REFLOAT_HAVE_FLOCK
  ::flock(fd, LOCK_UN);
  ::close(fd);
#endif
}

// Appends one row (plus the header when the file is empty) under an
// exclusive flock. O_APPEND + a single write per row keeps rows atomic even
// against writers that skip the lock.
void append_record_row(const std::string& path, const SolveRecord& rec) {
  const std::string row = format_record_line(rec);
#ifdef REFLOAT_HAVE_FLOCK
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return;
  ::flock(fd, LOCK_EX);
  const ::off_t start = ::lseek(fd, 0, SEEK_END);
  std::string payload = row;
  if (start == 0) payload = kResultHeader + row;
  const char* p = payload.data();
  std::size_t left = payload.size();
  while (left > 0) {
    const ::ssize_t n = ::write(fd, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (left > 0 && start >= 0) {
    // Short write (e.g. full disk): roll the torn tail back while still
    // holding the lock — a row is either fully present or absent, never a
    // stub the next append would merge into.
    [[maybe_unused]] const int rc = ::ftruncate(fd, start);
  }
  ::flock(fd, LOCK_UN);
  ::close(fd);
#else
  const bool fresh =
      !std::filesystem::exists(path) || std::filesystem::file_size(path) == 0;
  std::ofstream out(path, std::ios::app);
  if (fresh) out << kResultHeader;
  out << row;
#endif
}

}  // namespace

ResultCache::ResultCache(const std::string& dir) : dir_(dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // Legacy single-file layout first, so per-matrix shards override it.
  load_record_file((std::filesystem::path(dir_) / "solves.csv").string(),
                   &records_);
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::filesystem::path& p = entry.path();
    if (p.extension() != ".csv" || p.filename() == "solves.csv") continue;
    load_record_file(p.string(), &records_);
  }
}

std::optional<SolveRecord> ResultCache::get(const std::string& matrix,
                                            const std::string& solver,
                                            const std::string& platform) const {
  const auto it = records_.find(record_key(matrix, solver, platform));
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

void ResultCache::put(const SolveRecord& record) {
  records_[record_key(record.matrix, record.solver, record.platform)] =
      record;
  append_record_row(
      (std::filesystem::path(dir_) / shard_filename(record.matrix)).string(),
      record);
}

solve::SolveOptions evaluation_options() {
  solve::SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 25000;
  opts.divergence_factor = 1e10;
  opts.stall_window = 1500;
  return opts;
}

namespace {

void write_trace(const std::string& path, const std::vector<double>& trace) {
  util::CsvWriter csv(path);
  csv.row({"iteration", "residual"});
  for (std::size_t i = 0; i < trace.size(); ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.8e", trace[i]);
    csv.row({std::to_string(i), buf});
  }
}

}  // namespace

SolveRecord run_solve(const MatrixBundle& bundle, SolverKind solver,
                      Platform platform, ResultCache& cache,
                      const std::string& trace_csv, bool need_trace) {
  // The SpMV paths shard over the global pool; say so once per process so a
  // recorded wall_seconds is attributable to its thread count.
  static const int pool_threads = [] {
    const int threads = util::ThreadPool::global().size();
    RF_LOG_INFO("SpMV thread pool: %d thread%s (REFLOAT_THREADS overrides)",
                threads, threads == 1 ? "" : "s");
    return threads;
  }();
  (void)pool_threads;

  const std::string m = bundle.spec->name;
  const std::string s = solver_name(solver);
  const std::string p = platform_name(platform);
  if (auto cached = cache.get(m, s, p)) {
    const bool trace_ok =
        !need_trace || trace_csv.empty() ||
        std::filesystem::exists(trace_csv);
    if (trace_ok) return *cached;
  }

  // Platform operator; the refloat one sweeps the bundle's conversion.
  std::unique_ptr<core::SweepBackend> backend;
  std::unique_ptr<solve::MultiOperator> op;
  switch (platform) {
    case Platform::kDouble:
      op = std::make_unique<solve::CsrOperator>(bundle.a);
      break;
    case Platform::kRefloat: {
      // A few Lanczos steps on the quantized operator predict the
      // quantization-induced indefiniteness behind the documented
      // Dubcova2/BiCGSTAB stall — before spending the iteration budget.
      const core::ConversionStats& cs = bundle.rf.probe_definiteness();
      if (cs.likely_indefinite()) {
        RF_LOG_WARN(
            "%s/refloat: quantized operator is indefinite (lanczos "
            "lambda_min %.3g after %d steps) — CG/BiCGSTAB convergence "
            "theory does not apply; expect a stall unless the solve "
            "terminates in a handful of iterations",
            m.c_str(), cs.probe_lambda_min, cs.probe_steps);
      }
      backend = core::make_value_backend(bundle.rf);
      op = std::make_unique<solve::BackendMultiOperator>(*backend, 1);
      break;
    }
    case Platform::kFeinberg:
      op = std::make_unique<solve::FeinbergOperator>(bundle.a);
      break;
  }

  solve::SolveOptions opts = evaluation_options();
  util::Timer timer;
  solve::SolveResult result =
      (solver == SolverKind::kCg
           ? solve::cg_multi(*op, bundle.b, 1, opts)
           : solve::bicgstab_multi(*op, bundle.b, 1, opts))
          .columns[0];
  const double wall = timer.seconds();
  solve::attach_true_residual(bundle.a, bundle.b, result);

  SolveRecord rec;
  rec.matrix = m;
  rec.solver = s;
  rec.platform = p;
  rec.iterations = result.iterations;
  rec.status = solve::status_name(result.status);
  rec.final_residual = result.final_residual;
  rec.true_residual = result.true_residual;
  rec.wall_seconds = wall;
  cache.put(rec);

  if (!trace_csv.empty()) write_trace(trace_csv, result.trace);
  RF_LOG_INFO("%s/%s/%s: %s in %ld iterations (%.2fs host)", m.c_str(),
              s.c_str(), p.c_str(), rec.status.c_str(), rec.iterations, wall);
  return rec;
}

SpeedupRow compute_speedups(const MatrixBundle& bundle, SolverKind solver,
                            const SolveRecord& rec_double,
                            const SolveRecord& rec_feinberg,
                            const SolveRecord& rec_refloat) {
  const arch::SolverProfile profile = solver == SolverKind::kCg
                                          ? arch::cg_profile()
                                          : arch::bicgstab_profile();
  const arch::GpuModel gpu;
  const long n = bundle.a.rows();

  SpeedupRow row;
  row.gpu_seconds = arch::gpu_solve_seconds(gpu, bundle.a.nnz(), n,
                                            rec_double.iterations, profile);

  const double t_fc =
      arch::accelerator_solve_time(arch::feinberg_config(),
                                   bundle.rf.nonzero_blocks(), n,
                                   rec_double.iterations, profile)
          .total_seconds;
  row.feinberg_fc = row.gpu_seconds / t_fc;

  if (rec_feinberg.converged()) {
    const double t_fb =
        arch::accelerator_solve_time(arch::feinberg_config(),
                                     bundle.rf.nonzero_blocks(), n,
                                     rec_feinberg.iterations, profile)
            .total_seconds;
    row.feinberg = row.gpu_seconds / t_fb;
  }
  if (rec_refloat.converged()) {
    const double t_rf =
        arch::accelerator_solve_time(arch::refloat_config(bundle.format),
                                     bundle.rf.nonzero_blocks(), n,
                                     rec_refloat.iterations, profile)
            .total_seconds;
    row.refloat = row.gpu_seconds / t_rf;
  }
  return row;
}

std::string results_dir() {
  const std::string dir = "results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

std::string solves_cache_dir() {
  // Rides with the matrix cache: $REFLOAT_DATA_DIR/results when redirected.
  const std::string dir = gen::default_data_dir() + "/results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

}  // namespace refloat::bench
