// csim_serve: the sweep-service daemon (docs/SERVICE.md). Accepts newline-
// framed JSON sweep requests over a local AF_UNIX socket, schedules rows on
// the shared worker pool via run_sweep (one row per host core,
// sweep_pool_width), streams `row` response lines as rows complete, and
// memoizes results in a two-tier digest-keyed cache (memory in front of the
// write-ahead journal directory) so a repeated request is served without
// simulating.
//
//   csim_serve --socket /tmp/csim.sock --journal-dir jdir &
//   tools/serve_client.py /tmp/csim.sock '{"app":"fft","scale":"test"}'
//
// All protocol logic lives in src/report/service.{hpp,cpp}; this file is only
// the socket plumbing: bind/listen/accept, line framing, and signal-driven
// cleanup. No third-party dependencies.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/core/error.hpp"
#include "src/report/cli_args.hpp"
#include "src/report/service.hpp"

namespace {

using namespace csim;

// One request line may carry a full sweep spec but never megabytes; a client
// that streams garbage without a newline is cut off at this cap.
constexpr std::size_t kMaxLineBytes = 1u << 20;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

void usage() {
  std::fprintf(
      stderr,
      "usage: csim_serve --socket PATH [options]\n"
      "  --socket PATH       AF_UNIX socket path to listen on (required;\n"
      "                      a stale socket file at PATH is replaced)\n"
      "  --journal-dir DIR   back the result cache with the write-ahead\n"
      "                      journal in DIR (rows persist across restarts)\n"
      "  --shard k/N         serve only the rows whose config digest maps\n"
      "                      to shard k of N (multi-host deployments)\n"
      "  --cache-max N       keep at most N results in the in-memory cache\n"
      "                      (LRU eviction; 0 = unbounded, the default —\n"
      "                      with --journal-dir evicted rows still cost\n"
      "                      only one file probe)\n"
      "  --once              exit after the first connection closes\n");
}

/// Writes the whole buffer, retrying on short writes and EINTR. Returns
/// false on a dead peer (EPIPE with SIGPIPE ignored) or other write error.
bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Serves one connection: reads newline-framed requests, hands each to the
/// session, writes the emitted response lines back. Returns true if the
/// session asked the daemon to shut down.
bool serve_connection(int fd, serve::ServiceSession& session) {
  std::string buf;
  bool peer_dead = false;
  bool shutdown = false;
  const serve::ServiceSession::Emit emit = [&](const std::string& line) {
    if (peer_dead) return;  // keep simulating; just stop writing
    std::string framed = line;
    framed.push_back('\n');
    if (!write_all(fd, framed.data(), framed.size())) {
      peer_dead = true;
      std::fprintf(stderr, "csim_serve: client went away mid-response\n");
    }
  };
  char chunk[4096];
  while (!g_stop && !shutdown) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "csim_serve: read: %s\n", std::strerror(errno));
      break;
    }
    if (n == 0) break;  // client closed its end
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buf.find('\n', start); nl != std::string::npos;
         nl = buf.find('\n', start)) {
      const std::string_view line(buf.data() + start, nl - start);
      if (session.handle_line(line, emit) ==
          serve::LineAction::Shutdown) {
        shutdown = true;
        break;
      }
      start = nl + 1;
    }
    buf.erase(0, start);
    if (buf.size() > kMaxLineBytes) {
      emit("{\"type\": \"error\", \"error\": \"request line exceeds 1 MiB\"}");
      break;
    }
  }
  return shutdown;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string journal_dir;
  serve::ShardSpec shard;
  std::size_t cache_max = 0;
  bool once = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", a.c_str());
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (a == "--socket") {
        socket_path = next();
      } else if (a == "--journal-dir") {
        journal_dir = next();
      } else if (a == "--shard") {
        shard = serve::parse_shard(next());
      } else if (a == "--cache-max") {
        cache_max = cli::parse_u64(a, next());
      } else if (a == "--once") {
        once = true;
      } else {
        usage();
        return a == "--help" || a == "-h" ? 0 : 2;
      }
    } catch (const ConfigError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "--socket is required\n");
    usage();
    return 2;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "--socket: path too long (max %zu bytes)\n",
                 sizeof addr.sun_path - 1);
    return 2;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  // A dead peer must surface as a write error, not kill the daemon; SIGINT /
  // SIGTERM stop the accept loop so the socket file is cleaned up.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::fprintf(stderr, "csim_serve: socket: %s\n", std::strerror(errno));
    return 1;
  }
  ::unlink(socket_path.c_str());  // replace a stale socket from a past run
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0 ||
      ::listen(listen_fd, 8) < 0) {
    std::fprintf(stderr, "csim_serve: bind/listen %s: %s\n",
                 socket_path.c_str(), std::strerror(errno));
    ::close(listen_fd);
    return 1;
  }

  serve::ServiceConfig cfg;
  cfg.journal_dir = journal_dir;
  cfg.shard = shard;
  cfg.cache_max = cache_max;
  serve::ServiceSession session(cfg);
  std::fprintf(stderr, "csim_serve: listening on %s (journal: %s, shard %s)\n",
               socket_path.c_str(),
               journal_dir.empty() ? "<memory only>" : journal_dir.c_str(),
               shard.label().c_str());

  int exit_code = 0;
  while (!g_stop) {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;  // a signal; the loop condition decides
      std::fprintf(stderr, "csim_serve: accept: %s\n", std::strerror(errno));
      exit_code = 1;
      break;
    }
    const bool shutdown = serve_connection(conn, session);
    ::close(conn);
    if (shutdown || once) break;
  }
  ::close(listen_fd);
  ::unlink(socket_path.c_str());
  std::fprintf(stderr, "csim_serve: exiting\n");
  return exit_code;
}
