#include "src/serve/tcp_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/serve/daemon.h"
#include "src/util/fault_injector.h"
#include "src/util/log.h"
#include "src/util/table.h"

namespace refloat::serve {

namespace {

// Loopback-only listener; never binds a routable interface.
int make_listener(std::uint16_t port, std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    ::close(fd);
    throw std::runtime_error("serve: bind/listen on 127.0.0.1 failed");
  }
  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) < 0) {
    ::close(fd);
    throw std::runtime_error("serve: getsockname failed");
  }
  *bound_port = ntohs(actual.sin_port);
  return fd;
}

bool send_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::send(fd, text.data() + off, text.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

double ms(double seconds) { return seconds * 1e3; }

std::string shed_reason(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kShedQueueFull: return "queue_full";
    case ResponseStatus::kShedDeadline: return "deadline";
    case ResponseStatus::kShutdown: return "shutdown";
    default: return response_status_name(status);
  }
}

// Any loopback client could otherwise arm the process-wide fault injector
// of a production daemon: arming over the wire is opt-in, enabled only by
// REFLOAT_FAULTS_ALLOW=1 (tests and fault drills set it).
bool fault_arming_allowed() {
  const char* allow = std::getenv("REFLOAT_FAULTS_ALLOW");
  return allow != nullptr && std::strcmp(allow, "1") == 0;
}

}  // namespace

TcpServer::TcpServer(SolverDaemon& daemon, std::uint16_t port,
                     double idle_timeout_seconds)
    : daemon_(daemon), idle_timeout_seconds_(idle_timeout_seconds) {
  listen_fd_ = make_listener(port, &port_);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() {
  if (stopping_.exchange(true)) return;
  // shutdown() unblocks accept()/recv() so every thread exits promptly.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    // A connection still in workers_ has not closed its fd yet.
    std::lock_guard<std::mutex> lock(workers_mutex_);
    for (auto& [fd, thread] : workers_) {
      ::shutdown(fd, SHUT_RDWR);
      threads.push_back(std::move(thread));
    }
    workers_.clear();
    threads.push_back(std::move(finished_));
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TcpServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load() || (errno != EINTR && errno != ECONNABORTED)) {
        return;
      }
      continue;
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    std::lock_guard<std::mutex> lock(workers_mutex_);
    workers_.emplace(fd, std::thread([this, fd] { serve_connection(fd); }));
  }
}

void TcpServer::serve_connection(int fd) {
  // Idle timeout: a silent peer unblocks recv() with EAGAIN and the
  // connection is dropped — a stalled client cannot pin this worker.
  if (idle_timeout_seconds_ > 0.0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(idle_timeout_seconds_);
    tv.tv_usec = static_cast<suseconds_t>(
        (idle_timeout_seconds_ - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  std::string buffer;
  char chunk[1024];
  bool quit = false;
  while (!quit && !stopping_.load()) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // closed, error, or idle timeout (EAGAIN)
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (buffer.size() > kMaxLineBytes &&
        buffer.find('\n') == std::string::npos) {
      // Bounded receive buffer: a newline-free flood cannot grow memory.
      send_all(fd, "ERR line too long\n");
      break;
    }
    std::size_t nl;
    while (!quit && (nl = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.size() > kMaxLineBytes) {
        send_all(fd, "ERR line too long\n");
        quit = true;
        break;
      }
      const std::string reply = handle_line(daemon_, line, &quit);
      if (!send_all(fd, reply + "\n")) {
        quit = true;
      }
    }
  }
  // Reap: park this thread for the next connection that ends (or stop())
  // to join, and join the one parked before it. Once stop() has taken the
  // entry, stop() joins this thread itself.
  std::thread previous;
  {
    std::lock_guard<std::mutex> lock(workers_mutex_);
    auto it = workers_.find(fd);
    if (it != workers_.end()) {
      previous = std::exchange(finished_, std::move(it->second));
      workers_.erase(it);
    }
  }
  ::close(fd);
  if (previous.joinable()) previous.join();
}

std::string TcpServer::handle_line(SolverDaemon& daemon,
                                   const std::string& line, bool* quit) {
  *quit = false;
  std::istringstream in(line);
  std::string verb;
  in >> verb;
  if (verb.empty()) return "ERR empty line";
  if (verb == "PING") return "PONG";
  if (verb == "QUIT") {
    *quit = true;
    return "BYE";
  }
  if (verb == "STATS") {
    const ServeStats s = daemon.stats();
    std::ostringstream out;
    out << "STATS submitted=" << s.submitted << " completed=" << s.completed
        << " shed_queue=" << s.shed_queue_full
        << " shed_deadline=" << s.shed_deadline << " failed=" << s.failed
        << " batches=" << s.batches << " mean_k=" << s.mean_batch_k()
        << " cache_hits=" << s.cache.hits << " cache_misses=" << s.cache.misses
        << " resident=" << s.cache.resident_count
        << " abft_failures=" << s.abft_failures << " retries=" << s.retries
        << " recovered=" << s.recovered << " degraded=" << s.degraded
        << " reprograms=" << s.reprograms << " rebuilds=" << s.rebuilds
        << " p50_ms=" << s.p50_total_ms << " p99_ms=" << s.p99_total_ms
        << " workers=" << s.solve_workers;
    return out.str();
  }
  if (verb == "FAULT") {
    // FAULT                -> report injector state
    // FAULT off            -> disarm every site
    // FAULT <spec>[,<spec>] -> arm sites (REFLOAT_FAULTS grammar), only
    //                          when REFLOAT_FAULTS_ALLOW=1
    util::FaultInjector& inj = util::FaultInjector::global();
    std::string text;
    in >> text;
    if (text.empty()) return "FAULT " + inj.describe();
    if (text == "off") {
      inj.disable_all();
      return "FAULT " + inj.describe();
    }
    if (!fault_arming_allowed()) return "ERR fault injection disabled";
    if (!inj.configure_from_text(text)) {
      return "ERR bad fault spec \"" + text +
             "\" (want <site>:<rate>[:<seed>[:<budget>]], site in "
             "plan|sweep|build|admission)";
    }
    return "FAULT " + inj.describe();
  }
  if (verb != "SOLVE") return "ERR unknown verb \"" + verb + "\"";

  SolveRequest request;
  request.want_solution = false;  // the wire carries the verdict, not x
  in >> request.matrix;
  if (request.matrix.empty()) return "ERR SOLVE needs a matrix name";
  std::string option;
  while (in >> option) {
    const std::size_t eq = option.find('=');
    if (eq == std::string::npos) return "ERR malformed option \"" + option + "\"";
    const std::string key = option.substr(0, eq);
    const std::string value = option.substr(eq + 1);
    char* end = nullptr;
    if (key == "tol") {
      request.tolerance = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(request.tolerance > 0)) {
        return "ERR bad tol \"" + value + "\"";
      }
    } else if (key == "deadline_ms") {
      const double dms = std::strtod(value.c_str(), &end);
      // now() + dms must still be a TimePoint: Clock counts int64
      // nanoseconds, so the bound is ~9.2e12 ms less the clock's current
      // reading (one second of slack absorbs the double rounding). Larger
      // or infinite values would overflow the cast below.
      const TimePoint now = Clock::now();
      const Duration headroom =
          TimePoint::max() - now - std::chrono::seconds(1);
      const double max_ms =
          std::chrono::duration<double, std::milli>(headroom).count();
      if (end == value.c_str() || *end != '\0' || !(dms >= 0) ||
          !(dms <= max_ms)) {
        return "ERR bad deadline_ms \"" + value + "\"";
      }
      request.deadline =
          now + std::chrono::duration_cast<Duration>(
                    std::chrono::duration<double, std::milli>(dms));
    } else if (key == "rhs") {
      if (value.rfind("seed:", 0) != 0) {
        return "ERR rhs must be seed:<u64>";
      }
      const std::string seed_text = value.substr(5);
      request.rhs_seed = std::strtoull(seed_text.c_str(), &end, 10);
      if (end == seed_text.c_str() || *end != '\0') {
        return "ERR bad rhs seed \"" + seed_text + "\"";
      }
    } else if (key == "backend") {
      if (!core::parse_backend_kind(value, &request.backend)) {
        return "ERR bad backend \"" + value + "\" (value|noisy|bittrue)";
      }
    } else if (key == "sigma") {
      request.noise_sigma = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' ||
          !(request.noise_sigma >= 0)) {
        return "ERR bad sigma \"" + value + "\"";
      }
    } else if (key == "noise_seed") {
      request.noise_seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return "ERR bad noise_seed \"" + value + "\"";
      }
    } else {
      return "ERR unknown option \"" + key + "\"";
    }
  }

  SolveResponse response = daemon.submit(std::move(request)).get();
  if (response.status == ResponseStatus::kOk) {
    std::ostringstream out;
    out << "OK status=" << solve::status_name(response.solve_status)
        << " iters=" << response.iterations
        << " residual=" << response.final_residual
        << " k=" << response.batch_k << " solver=" << response.solver
        << " backend=" << response.backend
        << " hit=" << (response.cache_hit ? 1 : 0);
    if (response.retries > 0) out << " retries=" << response.retries;
    if (response.degraded) out << " degraded=" << response.backend;
    out
        << " queue_ms=" << ms(response.latency.queue_seconds)
        << " build_ms=" << ms(response.latency.build_seconds)
        << " solve_ms=" << ms(response.latency.solve_seconds)
        << " total_ms=" << ms(response.latency.total_seconds);
    return out.str();
  }
  if (response.status == ResponseStatus::kShedQueueFull ||
      response.status == ResponseStatus::kShedDeadline ||
      response.status == ResponseStatus::kShutdown) {
    return "SHED reason=" + shed_reason(response.status);
  }
  return std::string("ERR ") + response_status_name(response.status);
}

}  // namespace refloat::serve
