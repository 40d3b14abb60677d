#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"

namespace obd::serve {
namespace {

// Longest idle wait between stop-flag checks [ms].
constexpr int kIdlePollMs = 200;

// Writes `line` + '\n' to `fd`, retrying short writes. A failed write —
// typically a client that hung up before its reply — is reported to the
// caller but is never fatal: the reply was produced, delivery is
// best-effort once the peer is gone.
bool write_line(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  const char* data = framed.data();
  std::size_t left = framed.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

int make_listen_socket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(!path.empty() && path.size() < sizeof(addr.sun_path),
          ErrorCode::kConfig,
          "serve: socket path must be 1.." +
              std::to_string(sizeof(addr.sun_path) - 1) +
              " characters, got '" + path + "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(fd >= 0, ErrorCode::kIo,
          std::string("serve: cannot create socket: ") +
              std::strerror(errno));
  // A previous daemon instance (or an unclean kill) leaves the socket file
  // behind; binding over it is the expected restart path.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw Error("serve: cannot listen on '" + path + "': " + reason,
                ErrorCode::kIo);
  }
  return fd;
}

}  // namespace

int accept_client(int listen_fd) {
  if (fault::should_fire(fault::site::kServeAccept)) {
    diagnostics().warn("serve.accept",
                       "injected accept failure; the connection stays "
                       "queued for the next poll wakeup");
    return -1;
  }
  int fd = -1;
  do {
    fd = ::accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0)
    diagnostics().warn("serve.accept", std::string("accept failed: ") +
                                           std::strerror(errno));
  return fd;
}

Server::Server(QueryEngine& engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

int Server::run() {
  // A client that disconnects mid-reply must cost one failed write, not
  // the process.
  std::signal(SIGPIPE, SIG_IGN);

  struct Admitted {
    PendingQuery query;
    int reply_fd;
  };
  std::deque<Admitted> pending;
  std::map<int, std::string> clients;  // connected fd -> partial-line buffer
  std::string stdin_buffer;
  bool stdin_eof = false;
  int listen_fd = -1;
  if (options_.use_stdin) {
    std::fprintf(stderr, "serve: reading queries from stdin\n");
  } else {
    listen_fd = make_listen_socket(options_.socket_path);
    std::fprintf(stderr, "serve: listening on '%s'\n",
                 options_.socket_path.c_str());
  }

  const auto stopping = [&] {
    return options_.stop_flag != nullptr && *options_.stop_flag != 0;
  };

  const auto health_line = [&](const std::string& id) {
    const EngineStats& es = engine_.stats();
    const CacheStats& cs = engine_.cache().stats();
    std::ostringstream os;
    if (!id.empty()) os << "id=" << id << ' ';
    os << "ok=1 health=1 pending=" << pending.size()
       << " received=" << stats_.received << " answered=" << es.answered
       << " degraded=" << es.degraded
       << " errors=" << es.errors + stats_.parse_errors
       << " shed=" << stats_.shed
       << " cache_entries=" << engine_.cache().entries()
       << " cache_bytes=" << engine_.cache().bytes()
       << " hits=" << cs.hits << " disk_hits=" << cs.disk_hits
       << " misses=" << cs.misses << " evictions=" << cs.evictions
       << " corrupt=" << cs.corrupt
       << " write_failures=" << cs.write_failures;
    // Appended only when the features are in play, so a daemon run that
    // never uses them reports byte-identical health lines to one predating
    // the surrogate tier.
    if (engine_.options().surrogate)
      os << " surrogate_hits=" << es.surrogate_hits
         << " surrogate_fallthrough=" << es.surrogate_fallthrough;
    if (es.incremental_hits > 0)
      os << " incremental_hits=" << es.incremental_hits;
    return os.str();
  };

  // Admission control happens here, at ingest: a parsed query is either
  // admitted to the bounded queue or answered `overloaded=1` on the spot.
  // Health probes bypass the queue entirely.
  const auto handle_line = [&](std::string line, int reply_fd) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) return;
    Request req;
    try {
      req = parse_request(line);
    } catch (const Error& e) {
      ++stats_.parse_errors;
      write_line(reply_fd, std::string("id=? error=") + to_string(e.code()) +
                               " msg=" + e.what());
      return;
    }
    if (req.op == Request::Op::kHealth) {
      ++stats_.health;
      write_line(reply_fd, health_line(req.id));
      return;
    }
    ++stats_.received;
    if (pending.size() >= options_.queue_limit) {
      ++stats_.shed;
      write_line(reply_fd, "id=" + req.id + " overloaded=1");
      return;
    }
    // The reply fd doubles as the session id scoping incremental-corner
    // reuse (stdin mode is the single session 1).
    pending.push_back(Admitted{
        PendingQuery{std::move(req), std::chrono::steady_clock::now(),
                     reply_fd},
        reply_fd});
  };

  // Splits every complete line out of `buffer` (a trailing partial line
  // stays buffered until its newline arrives).
  const auto drain_lines = [&](std::string& buffer, int reply_fd) {
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos; nl = buffer.find('\n', start)) {
      handle_line(buffer.substr(start, nl - start), reply_fd);
      start = nl + 1;
    }
    buffer.erase(0, start);
  };

  const auto evaluate_batch = [&] {
    const std::size_t n = std::min(options_.batch_max, pending.size());
    if (n == 0) return;
    std::vector<PendingQuery> batch;
    std::vector<int> reply_fds;
    batch.reserve(n);
    reply_fds.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(pending[i].query);
      reply_fds.push_back(pending[i].reply_fd);
    }
    const std::vector<std::string> replies = engine_.evaluate(batch);
    for (std::size_t i = 0; i < n; ++i)
      write_line(reply_fds[i], replies[i]);
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(n));
  };

  while (!stopping()) {
    // Natural end of input: stdin closed and everything answered.
    if (options_.use_stdin && stdin_eof && pending.empty()) break;

    std::vector<pollfd> fds;
    if (options_.use_stdin) {
      if (!stdin_eof) fds.push_back({0, POLLIN, 0});
    } else {
      fds.push_back({listen_fd, POLLIN, 0});
      for (const auto& [fd, buffer] : clients)
        fds.push_back({fd, POLLIN, 0});
    }
    // Wait only when idle; with work queued just glance at the fds so
    // ingest (and thus shedding) stays current while batches evaluate.
    // The idle wait is bounded: a stop signal whose handler runs after
    // the stop-flag check above, or on another thread, does not interrupt
    // this poll, so the flag is rechecked at least every kIdlePollMs.
    const int timeout_ms = pending.empty() ? kIdlePollMs : 0;
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;  // re-check the stop flag
      diagnostics().warn("serve.accept", std::string("poll failed: ") +
                                             std::strerror(errno));
    }

    if (ready > 0) {
      std::vector<int> closed;
      for (const pollfd& p : fds) {
        if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        if (options_.use_stdin) {
          char chunk[4096];
          const ssize_t r = ::read(0, chunk, sizeof chunk);
          if (r > 0)
            stdin_buffer.append(chunk, static_cast<std::size_t>(r));
          else if (r == 0 || errno != EINTR)
            stdin_eof = true;
          drain_lines(stdin_buffer, 1);
        } else if (p.fd == listen_fd) {
          const int fd = accept_client(listen_fd);
          if (fd >= 0) clients.emplace(fd, std::string());
        } else {
          char chunk[4096];
          const ssize_t r = ::read(p.fd, chunk, sizeof chunk);
          if (r > 0) {
            clients[p.fd].append(chunk, static_cast<std::size_t>(r));
            drain_lines(clients[p.fd], p.fd);
          } else if (r == 0 || errno != EINTR) {
            drain_lines(clients[p.fd], p.fd);
            closed.push_back(p.fd);
          }
        }
      }
      for (const int fd : closed) {
        ::close(fd);
        clients.erase(fd);
        engine_.end_session(fd);
      }
    }

    evaluate_batch();
  }

  // Graceful drain: stop accepting first, then answer everything already
  // admitted, then make the cache durable. Order matters — a drain that
  // flushed before answering could be killed into a state where replies
  // were owed but the accept socket was already gone.
  if (listen_fd >= 0) {
    ::close(listen_fd);
    ::unlink(options_.socket_path.c_str());
  }
  while (!pending.empty()) evaluate_batch();
  const bool flushed = engine_.cache().flush();

  for (const auto& [fd, buffer] : clients) ::close(fd);
  if (stats_.shed > 0)
    diagnostics().stat("serve.shed",
                       "shed " + std::to_string(stats_.shed) +
                           " request(s) at the admission queue bound of " +
                           std::to_string(options_.queue_limit));
  const EngineStats& es = engine_.stats();
  if (engine_.options().surrogate)
    diagnostics().stat(
        "serve.surrogate",
        "surrogate answered " + std::to_string(es.surrogate_hits) +
            " request(s), " + std::to_string(es.surrogate_fallthrough) +
            " fell through to the exact engine");
  if (es.incremental_hits > 0)
    diagnostics().stat("serve.incremental",
                       std::to_string(es.incremental_hits) +
                           " cond evaluation(s) reused incremental rows");
  const CacheStats& cs = engine_.cache().stats();
  std::ostringstream summary;
  summary << "answered " << es.answered << " (degraded " << es.degraded
          << ", errors " << es.errors + stats_.parse_errors << ", shed "
          << stats_.shed << "); cache hits " << cs.hits << ", disk hits "
          << cs.disk_hits << ", misses " << cs.misses << ", evictions "
          << cs.evictions << ", corrupt " << cs.corrupt << ", shared builds "
          << cs.shared_builds;
  diagnostics().stat("serve", summary.str());
  std::fprintf(stderr, "serve: drained; %s%s\n", summary.str().c_str(),
               flushed ? "" : " (disk cache flush incomplete)");
  return 0;
}

}  // namespace obd::serve
