// HttpEndpoint: a dependency-free blocking HTTP/1.0 server for the
// observability surface (/metrics, /metrics.json, /healthz, /slowlog,
// /statusz, /flightz) plus small POST control routes (`mctc serve`
// registers POST /update).
//
// Design constraints, in order:
//   * zero dependencies — raw POSIX sockets, no event loop;
//   * clean shutdown under TSAN — the listener thread poll()s the
//     listening socket with a short timeout and re-checks a stop flag,
//     so Stop() never races an accept() and always joins;
//   * bounded resource use — connections are handled serially on the
//     listener thread with send/receive timeouts on the accepted socket,
//     so a stalled scraper can delay other scrapes but can never pile up
//     threads or wedge shutdown; POST bodies are capped at
//     Options::max_body_bytes (413 beyond it). Scrapers are few
//     (Prometheus, curl); this is an observability/control port, not a
//     data plane.
//
// The handler runs on the listener thread; it must be thread-safe with
// respect to the traffic it reports on (QueryService's exporters are).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "common/status.h"

namespace mctsvc {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// One parsed request, as much of HTTP as this surface speaks: the
/// method ("GET" or "POST" — anything else is answered 405 before the
/// handler runs), the path with its query string split off, and the body
/// (POST only, bounded by Options::max_body_bytes).
struct HttpRequest {
  std::string method;
  std::string path;
  std::string query;  ///< text after '?', without the '?'; may be empty
  std::string body;
};

class HttpEndpoint {
 public:
  struct Options {
    /// Port to bind on 127.0.0.1; 0 asks the OS for an ephemeral port
    /// (read it back from port() after Start).
    uint16_t port = 0;
    /// listen() backlog — pending connections beyond it are refused by
    /// the kernel, which is the connection bound.
    int backlog = 8;
    /// Per-connection socket send/receive timeout.
    int io_timeout_ms = 2000;
    /// How often the listener re-checks the stop flag.
    int poll_interval_ms = 50;
    /// Largest accepted POST body; longer requests are answered 413
    /// without reaching the handler.
    size_t max_body_bytes = 1 << 20;
  };

  /// Maps a request to a response; called once per GET or POST. Other
  /// methods are answered 405 before the handler runs.
  using Handler = std::function<HttpResponse(const HttpRequest& request)>;

  HttpEndpoint(Options options, Handler handler);
  /// Stops and joins if still running.
  ~HttpEndpoint();

  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// Binds, listens, and spawns the listener thread. Fails (IoError) if
  /// the port is taken.
  mctdb::Status Start();
  /// Signals the listener, closes the socket, joins the thread.
  /// Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The actually bound port (resolves port 0 after Start).
  uint16_t port() const { return bound_port_; }
  /// Requests served since Start (including 404/405s).
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void ListenLoop();
  void HandleConnection(int fd);

  Options options_;
  Handler handler_;
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> requests_{0};
  std::thread thread_;
};

}  // namespace mctsvc
