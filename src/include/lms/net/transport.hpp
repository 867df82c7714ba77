#pragma once

// Transport abstraction decoupling components from the wire.
//
// Every LMS service exposes an HttpHandler. A handler can be bound to
//  - an InprocNetwork endpoint ("inproc://name") for deterministic
//    single-process tests and the cluster simulator, or
//  - a TcpHttpServer (see tcp_http.hpp) for real socket deployments.
// Clients call through HttpClient, resolved from a URL; the scheme selects
// the transport. This keeps the paper's "loosely coupled components talking
// HTTP" property while letting the full stack run deterministically.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "lms/core/sync.hpp"
#include "lms/net/http.hpp"

namespace lms::obs {
class Registry;
}

namespace lms::net {

/// A service entry point: map request -> response. Must be thread-safe.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Small method+path dispatcher used by the services to organize endpoints.
/// Paths match exactly or by "/prefix/*" wildcard.
class HttpDispatcher {
 public:
  void handle(std::string method, std::string path, HttpHandler handler);
  HttpResponse dispatch(const HttpRequest& req) const;

  /// Adapter so the dispatcher itself can be used as an HttpHandler.
  HttpHandler as_handler() const;

 private:
  struct Route {
    std::string method;
    std::string path;  // exact, or ends with "/*"
    HttpHandler handler;
  };
  std::vector<Route> routes_;
};

/// Client-side interface: send a request to an endpoint URL.
class HttpClient {
 public:
  virtual ~HttpClient() = default;
  /// Send the request to `url` (the request's path/query are overridden by
  /// `url`'s path/query when the request path is "/").
  virtual util::Result<HttpResponse> send(const std::string& url, HttpRequest req) = 0;

  util::Result<HttpResponse> post(const std::string& url, std::string body,
                                  std::string_view content_type);
  util::Result<HttpResponse> get(const std::string& url);
};

/// POST a line-protocol body to "<base_url>/write?db=<db>" (db URL-encoded).
/// OK on a 2xx reply; otherwise the transport error, or "HTTP <status>".
util::Status post_write(HttpClient& client, const std::string& base_url, std::string_view db,
                        const std::string& body);

/// In-process "network": a registry of named HTTP endpoints.
///
/// URLs look like "inproc://router/write?db=lms": the authority is the
/// registered endpoint name. Calls execute the handler synchronously on the
/// caller's thread.
class InprocNetwork {
 public:
  void bind(const std::string& name, HttpHandler handler);
  void unbind(const std::string& name);
  bool has(const std::string& name) const;

  /// Execute a request against a named endpoint. Adopts the X-LMS-Trace
  /// context (if present) for the handler's duration and times the request
  /// into the configured registry, labeled by endpoint.
  util::Result<HttpResponse> request(const std::string& name, const HttpRequest& req) const;

  /// Metrics registry for http_server_* instruments (nullptr = global).
  void set_registry(obs::Registry* registry) { registry_ = registry; }

 private:
  // request() copies the handler out and invokes it unlocked, so the whole
  // downstream stack can run on the caller's thread without nesting under
  // this lock.
  mutable core::sync::Mutex mu_{core::sync::Rank::kNet, "net.inproc"};
  std::map<std::string, HttpHandler> endpoints_ LMS_GUARDED_BY(mu_);
  obs::Registry* registry_ = nullptr;
};

/// HttpClient over an InprocNetwork ("inproc://" scheme only).
class InprocHttpClient final : public HttpClient {
 public:
  explicit InprocHttpClient(InprocNetwork& network) : network_(network) {}
  util::Result<HttpResponse> send(const std::string& url, HttpRequest req) override;

 private:
  InprocNetwork& network_;
};

/// Apply the URL's path and query onto a request whose path is "/".
void apply_url_target(const Url& url, HttpRequest& req);

}  // namespace lms::net
