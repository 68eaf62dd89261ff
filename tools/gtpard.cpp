// tools/gtpard.cpp
//
// gtpard — the game-tree search daemon. Puts the batched evaluation
// engine behind a socket: length-prefixed binary frames (net/wire.hpp)
// over TCP or a Unix-domain socket, an accept loop feeding
// Engine::submit, structured error frames for shed/overload/stall, and
// graceful drain on SIGTERM/SIGINT (stop accepting, finish or cancel
// in-flight requests, flush final frames, print stats).
//
// Usage:
//   gtpard --tcp PORT | --unix PATH   endpoint (exactly one; PORT 0 =
//                                     ephemeral, printed on stdout)
//          [--workers N]              engine worker threads (default 4)
//          [--max-in-flight N]        admission bound (default 0 = off)
//          [--shed reject|caller]     shed policy at the bound
//                                     (default reject; the blocking
//                                     policy is not offered — streamed
//                                     stages submit from completion
//                                     callbacks, which must not block)
//          [--stall-ms N]             watchdog: fail jobs running > N ms
//          [--tt-entries N]           shared transposition table size
//          [--stream-stages N]        stages for stream=true requests
//          [--allow-fault-injection]  accept WireRequest fault plans
//                                     (test/chaos only)
//          [--drain-cancel]           cancel in-flight on drain instead
//                                     of waiting them out
//          [--write-deadline-ms N]    disconnect a peer whose reads stall
//                                     a send this long (default 5000;
//                                     0 = never)
//          [--idle-timeout-ms N]      reap connections idle this long
//                                     (default 0 = never)
//          [--max-per-conn N]         per-connection in-flight cap
//                                     (default 0 = off)
//
// The process prints "gtpard listening ..." once ready (gtpload and the
// CI smoke gate wait for that line) and exits 0 after a clean drain.
// SIGUSR1 dumps server/engine stats to stdout without disturbing the
// service, so operators can inspect a live daemon.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

#include "gtpar/net/server.hpp"

namespace {

// Signal handler -> self-pipe, so main can block in read() and act on
// the main thread (the handler itself stays async-signal-safe). The byte
// tags the signal: 1 = drain (SIGTERM/SIGINT), 2 = stats dump (SIGUSR1).
int g_wake_pipe[2] = {-1, -1};

void on_signal(int sig) {
  const char b = sig == SIGUSR1 ? 2 : 1;
  [[maybe_unused]] const ssize_t n = ::write(g_wake_pipe[1], &b, 1);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--tcp PORT | --unix PATH) [--workers N] "
               "[--max-in-flight N] [--shed reject|caller] [--stall-ms N] "
               "[--tt-entries N] [--stream-stages N] "
               "[--allow-fault-injection] [--drain-cancel] "
               "[--write-deadline-ms N] [--idle-timeout-ms N] "
               "[--max-per-conn N]\n",
               argv0);
  return 2;
}

void print_stats(const gtpar::net::ServiceServer& server) {
  const auto s = server.stats();
  const auto e = server.engine_stats();
  std::printf(
      "gtpard stats: connections=%llu requests=%llu results=%llu "
      "partials=%llu errors=%llu shed=%llu draining=%llu bad_frames=%llu "
      "cancels=%llu\n",
      static_cast<unsigned long long>(s.connections_accepted),
      static_cast<unsigned long long>(s.requests_received),
      static_cast<unsigned long long>(s.results_sent),
      static_cast<unsigned long long>(s.partials_sent),
      static_cast<unsigned long long>(s.errors_sent),
      static_cast<unsigned long long>(s.requests_shed),
      static_cast<unsigned long long>(s.requests_draining),
      static_cast<unsigned long long>(s.bad_frames),
      static_cast<unsigned long long>(s.cancels_received));
  std::printf(
      "net stats: accepts_dropped=%llu partials_dropped=%llu "
      "slow_peer_disconnects=%llu idle_reaped=%llu conn_capped=%llu "
      "dedupe_hits=%llu dedupe_replays=%llu\n",
      static_cast<unsigned long long>(s.accepts_dropped),
      static_cast<unsigned long long>(s.partials_dropped),
      static_cast<unsigned long long>(s.slow_peer_disconnects),
      static_cast<unsigned long long>(s.idle_reaped),
      static_cast<unsigned long long>(s.conn_capped),
      static_cast<unsigned long long>(s.dedupe_hits),
      static_cast<unsigned long long>(s.dedupe_replays));
  std::printf(
      "engine stats: submitted=%llu completed=%llu incomplete=%llu "
      "rejected=%llu watchdog=%llu retries=%llu faults=%llu parks=%llu "
      "backstop_rescues=%llu avg_dispatch_us=%.1f\n",
      static_cast<unsigned long long>(e.submitted),
      static_cast<unsigned long long>(e.completed),
      static_cast<unsigned long long>(e.incomplete),
      static_cast<unsigned long long>(e.rejected),
      static_cast<unsigned long long>(e.watchdog_failed),
      static_cast<unsigned long long>(e.total_retries),
      static_cast<unsigned long long>(e.total_faults),
      static_cast<unsigned long long>(e.scheduler.parks),
      static_cast<unsigned long long>(e.scheduler.backstop_rescues),
      e.completed ? static_cast<double>(e.total_dispatch_ns) / 1e3 /
                        static_cast<double>(e.completed)
                  : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  gtpar::net::ServiceOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--tcp") == 0) {
      opt.tcp_port = std::atoi(next());
    } else if (std::strcmp(a, "--unix") == 0) {
      opt.unix_path = next();
    } else if (std::strcmp(a, "--workers") == 0) {
      opt.engine.workers = static_cast<unsigned>(std::atoi(next()));
    } else if (std::strcmp(a, "--max-in-flight") == 0) {
      opt.engine.max_in_flight =
          static_cast<std::uint64_t>(std::atoll(next()));
    } else if (std::strcmp(a, "--shed") == 0) {
      const char* v = next();
      if (std::strcmp(v, "reject") == 0)
        opt.engine.shed = gtpar::ShedPolicy::kRejectNew;
      else if (std::strcmp(v, "caller") == 0)
        opt.engine.shed = gtpar::ShedPolicy::kCallerRuns;
      else
        return usage(argv[0]);
    } else if (std::strcmp(a, "--stall-ms") == 0) {
      opt.engine.stall_timeout_ns =
          static_cast<std::uint64_t>(std::atoll(next())) * 1000000ull;
    } else if (std::strcmp(a, "--tt-entries") == 0) {
      opt.engine.tt_entries = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(a, "--stream-stages") == 0) {
      opt.stream_stages = static_cast<unsigned>(std::atoi(next()));
    } else if (std::strcmp(a, "--allow-fault-injection") == 0) {
      opt.allow_fault_injection = true;
    } else if (std::strcmp(a, "--drain-cancel") == 0) {
      opt.cancel_on_drain = true;
    } else if (std::strcmp(a, "--write-deadline-ms") == 0) {
      opt.write_deadline_ns =
          static_cast<std::uint64_t>(std::atoll(next())) * 1000000ull;
    } else if (std::strcmp(a, "--idle-timeout-ms") == 0) {
      opt.idle_timeout_ns =
          static_cast<std::uint64_t>(std::atoll(next())) * 1000000ull;
    } else if (std::strcmp(a, "--max-per-conn") == 0) {
      opt.max_in_flight_per_conn = static_cast<unsigned>(std::atoi(next()));
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.unix_path.empty() == (opt.tcp_port < 0)) return usage(argv[0]);

  if (::pipe(g_wake_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGUSR1, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    gtpar::net::ServiceServer server(opt);
    server.start();
    if (!server.unix_path().empty())
      std::printf("gtpard listening on unix:%s (workers=%u)\n",
                  server.unix_path().c_str(), opt.engine.workers);
    else
      std::printf("gtpard listening on tcp:%s:%u (workers=%u)\n",
                  opt.tcp_host.c_str(), server.port(), opt.engine.workers);
    std::fflush(stdout);

    // Park until SIGTERM/SIGINT; SIGUSR1 dumps live stats and parks
    // again (the shutdown stats-dump path, reused mid-flight).
    for (;;) {
      char b = 1;
      const ssize_t n = ::read(g_wake_pipe[0], &b, 1);
      if (n < 0 && errno == EINTR) continue;
      if (n == 1 && b == 2) {
        print_stats(server);
        std::fflush(stdout);
        continue;
      }
      break;
    }
    std::printf("gtpard: draining (%s in-flight requests)...\n",
                opt.cancel_on_drain ? "cancelling" : "finishing");
    std::fflush(stdout);
    server.drain();
    print_stats(server);
    std::printf("gtpard: drained, bye\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gtpard: fatal: %s\n", e.what());
    return 1;
  }
}
