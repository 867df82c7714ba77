#include "lms/net/transport.hpp"

#include "lms/obs/metrics.hpp"
#include "lms/obs/trace.hpp"
#include "lms/util/strings.hpp"

namespace lms::net {

void HttpDispatcher::handle(std::string method, std::string path, HttpHandler handler) {
  routes_.push_back(Route{std::move(method), std::move(path), std::move(handler)});
}

HttpResponse HttpDispatcher::dispatch(const HttpRequest& req) const {
  bool path_matched = false;
  for (const auto& route : routes_) {
    const bool wildcard = util::ends_with(route.path, "/*");
    const bool match =
        wildcard ? util::starts_with(req.path, route.path.substr(0, route.path.size() - 1))
                 : req.path == route.path;
    if (!match) continue;
    path_matched = true;
    if (route.method == req.method || route.method == "*") {
      return route.handler(req);
    }
  }
  if (path_matched) return HttpResponse::text(405, "method not allowed");
  return HttpResponse::not_found();
}

HttpHandler HttpDispatcher::as_handler() const {
  return [this](const HttpRequest& req) { return dispatch(req); };
}

util::Result<HttpResponse> HttpClient::post(const std::string& url, std::string body,
                                            std::string_view content_type) {
  return send(url, HttpRequest::post("/", std::move(body), content_type));
}

util::Result<HttpResponse> HttpClient::get(const std::string& url) {
  return send(url, HttpRequest::get("/"));
}

util::Status post_write(HttpClient& client, const std::string& base_url, std::string_view db,
                        const std::string& body) {
  auto resp = client.post(base_url + "/write?db=" + util::url_encode(db), body, "text/plain");
  if (!resp.ok()) return util::Status::error(resp.message());
  if (!resp->ok()) return util::Status::error("HTTP " + std::to_string(resp->status));
  return {};
}

void InprocNetwork::bind(const std::string& name, HttpHandler handler) {
  const core::sync::LockGuard lock(mu_);
  endpoints_[name] = std::move(handler);
}

void InprocNetwork::unbind(const std::string& name) {
  const core::sync::LockGuard lock(mu_);
  endpoints_.erase(name);
}

bool InprocNetwork::has(const std::string& name) const {
  const core::sync::LockGuard lock(mu_);
  return endpoints_.count(name) > 0;
}

util::Result<HttpResponse> InprocNetwork::request(const std::string& name,
                                                  const HttpRequest& req) const {
  HttpHandler handler;
  {
    const core::sync::LockGuard lock(mu_);
    const auto it = endpoints_.find(name);
    if (it == endpoints_.end()) {
      return util::Result<HttpResponse>::error("inproc endpoint '" + name + "' not bound");
    }
    handler = it->second;
  }
  // Server-side observability, mirroring TcpHttpServer: adopt the caller's
  // trace context and time the handler. Handlers run on the caller's thread,
  // so adopting from the header (not just inheriting the thread-local)
  // exercises the same propagation path as the TCP transport.
  obs::TraceContext remote_ctx;
  if (const auto header = req.headers.get(obs::kTraceHeader)) {
    if (const auto parsed = obs::parse_trace_header(*header)) remote_ctx = *parsed;
  }
  const obs::ScopedTraceContext adopt(remote_ctx);
  obs::Span span("http.server " + req.method + " " + req.path, "net");
  const util::TimeNs t0 = util::monotonic_now_ns();
  util::Result<HttpResponse> result = [&]() -> util::Result<HttpResponse> {
    try {
      return handler(req);
    } catch (const std::exception& e) {
      return HttpResponse::text(500, std::string("handler error: ") + e.what());
    }
  }();
  obs::Registry& reg = registry_ != nullptr ? *registry_ : obs::Registry::global();
  const obs::Labels labels{{"endpoint", name}, {"route", req.path}, {"transport", "inproc"}};
  reg.counter("http_server_requests", labels).inc();
  reg.histogram("http_server_request_ns", labels).record_since(t0);
  span.set_ok(result.ok() && result->status < 500);
  return result;
}

void apply_url_target(const Url& url, HttpRequest& req) {
  if (req.path == "/" || req.path.empty()) {
    req.path = url.path.empty() ? "/" : url.path;
    if (!url.query.empty()) {
      // Merge: URL params first, request params override.
      QueryParams merged = QueryParams::parse(url.query);
      for (const auto& [k, v] : req.query.items()) merged.set(k, v);
      req.query = std::move(merged);
    }
  }
}

util::Result<HttpResponse> InprocHttpClient::send(const std::string& url, HttpRequest req) {
  auto parsed = Url::parse(url);
  if (!parsed.ok()) return util::Result<HttpResponse>::error(parsed.message());
  if (parsed->scheme != "inproc") {
    return util::Result<HttpResponse>::error("InprocHttpClient: unsupported scheme '" +
                                             parsed->scheme + "'");
  }
  apply_url_target(*parsed, req);
  // Client span for the hop; the context travels in the X-LMS-Trace header
  // exactly as over TCP, so recorded traces look the same on both transports.
  obs::Span span("http.client " + req.method + " " + req.path, "net");
  if (span.active() && !req.headers.contains(obs::kTraceHeader)) {
    req.headers.set(obs::kTraceHeader, obs::format_trace_header(span.context()));
  }
  auto result = network_.request(parsed->host, req);
  if (!result.ok()) {
    span.set_ok(false);
    span.set_note(result.message());
  } else {
    span.set_ok(result->status < 500);
  }
  return result;
}

}  // namespace lms::net
