/// \file veriqcd.cpp
/// \brief The veriqc daemon: a long-running equivalence-checking service.
///
/// Reads newline-delimited JSON job requests ({"id","file1","file2",
/// "config":{...}}) from stdin — or from clients of a Unix stream socket
/// with --socket — runs them through serve::JobService on a shared task
/// pool, and streams one compact veriqc-report/v1 object per job to stdout
/// (NDJSON out, in completion order).
///
/// Usage: veriqcd [--socket <path>] [--max-active <n>] [--queue <n>]
///                [--pool-slots <n>] [--max-memory-mb <n>] [--max-dd-nodes <n>]
///                [--max-line-bytes <n>] [--timeout-ms <n>] [--sims <n>]
///                [--allow-fault-plans] [--metrics-fd <fd>]
///
/// Signals: SIGINT/SIGTERM drain-and-cancel (in-flight jobs report verdict
/// "cancelled", queued jobs are rejected "shutting_down"); SIGUSR1 requests
/// a metrics dump ({"schema":"veriqc-metrics/v1",...}) to the metrics fd
/// (default stderr, or --metrics-fd). A final metrics dump is written at
/// exit.
#include "check/result.hpp"
#include "numeric_flag.hpp"
#include "obs/json.hpp"
#include "serve/service.hpp"
#include "support/mutex.hpp"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define VERIQCD_HAVE_SOCKETS 1
#endif

namespace {

// Signal flags: handlers only set them; the serving loops poll.
volatile std::sig_atomic_t gShutdownRequested = 0;
volatile std::sig_atomic_t gMetricsRequested = 0;

void onShutdownSignal(int /*signum*/) { gShutdownRequested = 1; }
void onMetricsSignal(int /*signum*/) { gMetricsRequested = 1; }

void usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [--socket <path>] [--max-active <n>] [--queue <n>]\n"
      "          [--pool-slots <n>] [--max-memory-mb <n>] [--max-dd-nodes <n>]\n"
      "          [--max-line-bytes <n>] [--timeout-ms <n>] [--sims <n>]\n"
      "          [--allow-fault-plans] [--metrics-fd <fd>]\n"
      "reads NDJSON job requests from stdin (or socket clients), writes one\n"
      "veriqc-report/v1 JSON line per job to stdout\n",
      prog);
}

/// stdout report writer: one compact JSON object per line, flushed so a
/// piped consumer sees each report as soon as the job finishes.
class LineSink {
public:
  void write(const veriqc::obs::Json& report) {
    const veriqc::support::LockGuard lock(mutex_);
    std::fputs(report.dump().c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }

private:
  veriqc::support::Mutex mutex_;
};

void dumpMetrics(const veriqc::serve::JobService& service, const int fd) {
  const std::string text = service.metricsJson().dump() + "\n";
#if defined(__unix__) || defined(__APPLE__)
  std::size_t written = 0;
  while (written < text.size()) {
    const auto n = ::write(fd, text.data() + written, text.size() - written);
    if (n <= 0) {
      return;
    }
    written += static_cast<std::size_t>(n);
  }
#else
  std::fputs(text.c_str(), stderr);
#endif
}

#ifdef VERIQCD_HAVE_SOCKETS

/// One connected client: read lines, feed the service. Reports still go to
/// stdout — the socket is an ingress, not a session; a short reply with the
/// admission outcome is written back per line so clients can flow-control.
void serveClient(const int fd, veriqc::serve::JobService& service) {
  std::string buffer;
  std::vector<char> chunk(4096);
  while (true) {
    const auto n = ::read(fd, chunk.data(), chunk.size());
    if (n <= 0) {
      break;
    }
    buffer.append(chunk.data(), static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (std::size_t nl = buffer.find('\n', begin); nl != std::string::npos;
         nl = buffer.find('\n', begin)) {
      const std::string_view line(buffer.data() + begin, nl - begin);
      if (!line.empty()) {
        const bool admitted = service.submitLine(line);
        const char* reply = admitted ? "admitted\n" : "rejected\n";
        if (::write(fd, reply, std::strlen(reply)) < 0) {
          ::close(fd);
          return;
        }
      }
      begin = nl + 1;
    }
    buffer.erase(0, begin);
  }
  // A trailing un-terminated line still counts as a submission.
  if (!buffer.empty()) {
    service.submitLine(buffer);
  }
  ::close(fd);
}

int serveSocket(const std::string& path, veriqc::serve::JobService& service,
                const int metricsFd) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("veriqcd: socket");
    return 3;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "veriqcd: socket path too long: %s\n", path.c_str());
    ::close(listener);
    return 3;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 16) != 0) {
    std::perror("veriqcd: bind/listen");
    ::close(listener);
    return 3;
  }
  std::vector<std::thread> clients;
  while (gShutdownRequested == 0) {
    if (gMetricsRequested != 0) {
      gMetricsRequested = 0;
      dumpMetrics(service, metricsFd);
    }
    // accept() without SA_RESTART returns EINTR on SIGINT/SIGTERM/SIGUSR1,
    // which is exactly the wakeup the flag polls need.
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    clients.emplace_back(
        [client, &service] { serveClient(client, service); });
  }
  ::close(listener);
  ::unlink(path.c_str());
  for (auto& client : clients) {
    if (client.joinable()) {
      client.join();
    }
  }
  return 0;
}

#endif // VERIQCD_HAVE_SOCKETS

/// stdin ingress: a reader thread pumps lines into the service while the
/// main thread polls the signal flags, so SIGUSR1 dumps metrics even while
/// the reader blocks on a quiet pipe.
int serveStdin(veriqc::serve::JobService& service, const int metricsFd) {
  std::atomic<bool> eof{false};
  std::thread reader([&service, &eof] {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) {
        service.submitLine(line);
      }
      if (gShutdownRequested != 0) {
        break;
      }
    }
    eof.store(true, std::memory_order_release);
  });
  while (!eof.load(std::memory_order_acquire) && gShutdownRequested == 0) {
    if (gMetricsRequested != 0) {
      gMetricsRequested = 0;
      dumpMetrics(service, metricsFd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (gShutdownRequested != 0) {
    // Cancel in-flight work; their reports record verdict "cancelled". The
    // reader thread stays blocked on stdin until the pipe closes — detach
    // is unsafe (it captures `service`), so close(0) unblocks it.
    service.shutdown(/*cancelInFlight=*/true);
#if defined(__unix__) || defined(__APPLE__)
    ::close(0);
#endif
  } else {
    service.drain();
  }
  if (reader.joinable()) {
    reader.join();
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  using namespace veriqc;

  serve::ServiceLimits limits;
  check::Configuration defaults;
  defaults.simulationRuns = 16;
  defaults.timeout = std::chrono::seconds(60);
  std::string socketPath;
  int metricsFd = 2;

  std::chrono::milliseconds::rep timeoutMs = 0;
  const auto numeric = [&](int& i, auto& out) {
    examples::readNumericFlag(i, argc, argv, out, usage);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      socketPath = argv[++i];
    } else if (std::strcmp(argv[i], "--max-active") == 0) {
      numeric(i, limits.maxActiveJobs);
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      numeric(i, limits.maxQueuedJobs);
    } else if (std::strcmp(argv[i], "--pool-slots") == 0) {
      numeric(i, limits.poolSlots);
    } else if (std::strcmp(argv[i], "--max-memory-mb") == 0) {
      numeric(i, limits.maxMemoryMB);
    } else if (std::strcmp(argv[i], "--max-dd-nodes") == 0) {
      numeric(i, limits.maxDDNodes);
    } else if (std::strcmp(argv[i], "--max-line-bytes") == 0) {
      numeric(i, limits.maxLineBytes);
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      numeric(i, timeoutMs);
      defaults.timeout = std::chrono::milliseconds(timeoutMs);
    } else if (std::strcmp(argv[i], "--sims") == 0) {
      numeric(i, defaults.simulationRuns);
    } else if (std::strcmp(argv[i], "--allow-fault-plans") == 0) {
      limits.allowFaultPlans = true;
    } else if (std::strcmp(argv[i], "--metrics-fd") == 0) {
      numeric(i, metricsFd);
    } else {
      usage(argv[0]);
      return 3;
    }
  }

#if defined(__unix__) || defined(__APPLE__)
  // No SA_RESTART: blocking accept()/read() must return EINTR so the serving
  // loops observe the flags promptly.
  struct sigaction action {};
  action.sa_handler = onShutdownSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  action.sa_handler = onMetricsSignal;
  ::sigaction(SIGUSR1, &action, nullptr);
#endif

  LineSink sink;
  serve::JobService service(
      limits, defaults,
      [&sink](const std::string& /*jobId*/, const obs::Json& report) {
        sink.write(report);
      });

  int exitCode = 0;
  if (!socketPath.empty()) {
#ifdef VERIQCD_HAVE_SOCKETS
    exitCode = serveSocket(socketPath, service, metricsFd);
    service.shutdown(/*cancelInFlight=*/gShutdownRequested != 0);
#else
    std::fprintf(stderr, "veriqcd: sockets unavailable on this platform\n");
    return 3;
#endif
  } else {
    exitCode = serveStdin(service, metricsFd);
  }
  service.shutdown(/*cancelInFlight=*/false); // idempotent; joins workers
  dumpMetrics(service, metricsFd);
  return exitCode;
}
