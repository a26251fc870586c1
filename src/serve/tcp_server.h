// Minimal TCP line-protocol front-end over a SolverDaemon (loopback only —
// this is the "requests arrive over a wire" demonstrator of ROADMAP item 1,
// not a hardened network service).
//
// Protocol: one request per '\n'-terminated line, one response line each.
//   SOLVE <matrix> [tol=<double>] [deadline_ms=<double>] [rhs=seed:<u64>]
//     -> OK status=ok iters=... residual=... k=... solver=... hit=0|1
//           queue_ms=... build_ms=... solve_ms=... total_ms=...
//        (queue_ms: submit to batcher admission)
//     -> SHED reason=queue_full|deadline|shutdown
//     -> ERR <message>
//   STATS  -> one line of counters
//   FAULT <site>:<rate>[:<seed>[:<budget>]] | FAULT off | FAULT
//          -> arm / disarm / report the process-wide fault injector
//             (same grammar as REFLOAT_FAULTS; util/fault_injector.h).
//             Arming needs REFLOAT_FAULTS_ALLOW=1 in the server's
//             environment; otherwise it answers ERR fault injection disabled
//   PING   -> PONG
//   QUIT   -> BYE (closes the connection)
//
// Solutions never travel over the wire (want_solution = false): the wire
// carries the solve verdict, the vector stays server-side — matching the
// accelerator story where x lives next to the crossbars.
//
// Connection hardening: a line longer than kMaxLineBytes answers ERR and
// closes the connection (the receive buffer never grows unbounded), and a
// connection idle longer than the constructor's idle timeout is dropped
// (SO_RCVTIMEO — a stalled client cannot pin a worker thread forever).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace refloat::serve {

class SolverDaemon;

class TcpServer {
 public:
  // Hard cap on one request line (and thus on the per-connection receive
  // buffer). SOLVE lines are tens of bytes; 64 KiB is beyond generous.
  static constexpr std::size_t kMaxLineBytes = 64 * 1024;

  // Binds 127.0.0.1:port (port 0 picks an ephemeral port — read it back
  // via port()) and starts the accept thread. Throws std::runtime_error
  // when the socket cannot be bound. idle_timeout_seconds bounds how long
  // a connection may sit silent between bytes (0 disables the timeout).
  TcpServer(SolverDaemon& daemon, std::uint16_t port = 0,
            double idle_timeout_seconds = 60.0);
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  // Stops accepting, closes the listener and every open connection, joins
  // all threads. Idempotent; the destructor calls it.
  void stop();

  // Parses one request line and produces the response line (no trailing
  // newline). Factored out of the connection loop so tests can exercise
  // the protocol without sockets.
  static std::string handle_line(SolverDaemon& daemon, const std::string& line,
                                 bool* quit);

 private:
  void accept_loop();
  void serve_connection(int fd);

  SolverDaemon& daemon_;
  double idle_timeout_seconds_ = 60.0;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  // Live connections by fd. An ending connection removes its own entry
  // before it closes the fd (so stop() never shuts down a reused fd
  // number), parks its thread in finished_ and joins the thread parked
  // there before it: at most one ended connection is ever left unjoined.
  std::mutex workers_mutex_;
  std::map<int, std::thread> workers_;
  std::thread finished_;
};

}  // namespace refloat::serve
