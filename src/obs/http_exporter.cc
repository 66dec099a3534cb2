#include "obs/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "util/env.h"

namespace dpdp::obs {
namespace {

using internal::FormatDouble;

bool LegalChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

/// Splits "serve.shard<k>.rest" into family "serve.rest" + shard label k.
/// Returns -1 (no label) for every other shape.
int ExtractShardLabel(const std::string& name, std::string* family) {
  const size_t at = name.find(".shard");
  if (at == std::string::npos) return -1;
  size_t digits = at + 6;  // Past ".shard".
  size_t end = digits;
  while (end < name.size() &&
         std::isdigit(static_cast<unsigned char>(name[end]))) {
    ++end;
  }
  if (end == digits || end >= name.size() || name[end] != '.') return -1;
  *family = name.substr(0, at) + name.substr(end);
  return std::stoi(name.substr(digits, end - digits));
}

/// One exposition series: the snapshot plus its rendered label set.
struct Series {
  std::string labels;  ///< Either "" or `shard="3"`.
  int shard = -1;
  const MetricSnapshot* metric = nullptr;
};

std::string LabeledName(const std::string& prom_name,
                        const std::string& suffix,
                        const std::string& labels,
                        const std::string& extra = "") {
  std::string out = prom_name + suffix;
  if (labels.empty() && extra.empty()) return out;
  out += "{" + labels;
  if (!labels.empty() && !extra.empty()) out += ",";
  out += extra + "}";
  return out;
}

}  // namespace

std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && std::isdigit(static_cast<unsigned char>(name[0]))) {
    out += '_';
  }
  for (char c : name) out += LegalChar(c) ? c : '_';
  return out;
}

std::string PrometheusFromSnapshot(
    const std::vector<MetricSnapshot>& snapshot) {
  // Group by family so each "# TYPE" header is emitted exactly once even
  // though per-shard series are alphabetically scattered in the snapshot.
  std::map<std::string, std::vector<Series>> families;
  for (const MetricSnapshot& m : snapshot) {
    Series series;
    series.metric = &m;
    std::string family;
    series.shard = ExtractShardLabel(m.name, &family);
    if (series.shard < 0) {
      family = m.name;
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "shard=\"%d\"", series.shard);
      series.labels = buf;
    }
    families[SanitizeMetricName(family)].push_back(series);
  }

  std::ostringstream os;
  for (auto& [prom_name, series_list] : families) {
    std::sort(series_list.begin(), series_list.end(),
              [](const Series& a, const Series& b) {
                return a.shard < b.shard;
              });
    const MetricSnapshot& first = *series_list.front().metric;
    const char* type = first.kind == MetricSnapshot::Kind::kCounter
                           ? "counter"
                           : (first.kind == MetricSnapshot::Kind::kGauge
                                  ? "gauge"
                                  : "histogram");
    os << "# TYPE " << prom_name << " " << type << "\n";
    for (const Series& series : series_list) {
      const MetricSnapshot& m = *series.metric;
      switch (m.kind) {
        case MetricSnapshot::Kind::kCounter:
        case MetricSnapshot::Kind::kGauge:
          os << LabeledName(prom_name, "", series.labels) << " "
             << FormatDouble(m.value) << "\n";
          break;
        case MetricSnapshot::Kind::kHistogram: {
          uint64_t cumulative = 0;
          for (size_t b = 0; b < m.buckets.size(); ++b) {
            cumulative += m.buckets[b];
            const std::string le =
                b < m.bounds.size()
                    ? "le=\"" + FormatDouble(m.bounds[b]) + "\""
                    : std::string("le=\"+Inf\"");
            os << LabeledName(prom_name, "_bucket", series.labels, le)
               << " " << cumulative << "\n";
          }
          os << LabeledName(prom_name, "_sum", series.labels) << " "
             << FormatDouble(m.sum) << "\n";
          os << LabeledName(prom_name, "_count", series.labels) << " "
             << m.count << "\n";
          break;
        }
      }
    }
  }
  return os.str();
}

HttpExporter::HttpExporter(int port) : configured_port_(port) {
  if (configured_port_ < 0) {
    configured_port_ = EnvIntStrict("DPDP_OBS_HTTP_PORT", -1, -1, 65535);
  }
  endpoints_["/metrics"] = [] {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body =
        PrometheusFromSnapshot(MetricsRegistry::Global().Snapshot());
    return response;
  };
  endpoints_["/healthz"] = [] {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  };
}

HttpExporter::~HttpExporter() { Stop(); }

Status HttpExporter::Start() {
  if (configured_port_ < 0 || running()) return Status::OK();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("obs exporter: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(configured_port_));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::Internal("obs exporter: cannot bind 127.0.0.1:" +
                            std::to_string(configured_port_));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_.store(ntohs(bound.sin_port), std::memory_order_release);
  }
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&HttpExporter::AcceptLoop, this);
  return Status::OK();
}

void HttpExporter::Stop() {
  if (!running()) return;
  stopping_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  bound_port_.store(-1, std::memory_order_release);
  running_.store(false, std::memory_order_release);
}

void HttpExporter::AddEndpoint(const std::string& path,
                               std::function<HttpResponse()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_[path] = std::move(fn);
}

HttpResponse HttpExporter::HandlePath(const std::string& path) const {
  // Strip the query string: scrapers add ?format= style noise.
  const size_t query = path.find('?');
  const std::string clean =
      query == std::string::npos ? path : path.substr(0, query);
  std::function<HttpResponse()> handler;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = endpoints_.find(clean);
    if (it != endpoints_.end()) handler = it->second;
  }
  if (!handler) {
    HttpResponse response;
    response.status = 404;
    response.body = "not found: " + clean + "\n";
    return response;
  }
  return handler();
}

int HttpExporter::ParseRequestPath(const std::string& head,
                                   std::string* path) {
  const size_t line_end = head.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return 400;
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return 400;
  const std::string method = line.substr(0, sp1);
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') return 400;
  if (method != "GET") return 405;
  *path = target;
  return 0;
}

void HttpExporter::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // Timeout or EINTR: re-check the stop flag.
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    ServeConnection(client);
    ::close(client);
  }
}

void HttpExporter::ServeConnection(int fd) {
  // Read until the end of the request head, tolerating partial reads. A
  // short per-connection deadline (~2 s total) bounds stuck clients.
  std::string head;
  char buf[1024];
  for (int spins = 0; spins < 20; ++spins) {
    if (head.find("\r\n\r\n") != std::string::npos) break;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, /*timeout_ms=*/100) <= 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    head.append(buf, static_cast<size_t>(n));
    if (head.size() > 16384) break;  // Absurd head: reject below.
  }

  std::string path;
  const int parse_error = ParseRequestPath(head, &path);
  HttpResponse response;
  if (head.find("\r\n\r\n") == std::string::npos) {
    response.status = 400;
    response.body = "incomplete request\n";
  } else if (parse_error != 0) {
    response.status = parse_error;
    response.body =
        parse_error == 405 ? "method not allowed\n" : "bad request\n";
  } else {
    response = HandlePath(path);
  }

  const char* reason = response.status == 200
                           ? "OK"
                           : (response.status == 404
                                  ? "Not Found"
                                  : (response.status == 405
                                         ? "Method Not Allowed"
                                         : "Bad Request"));
  std::ostringstream os;
  os << "HTTP/1.1 " << response.status << " " << reason << "\r\n"
     << "Content-Type: " << response.content_type << "\r\n"
     << "Content-Length: " << response.body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << response.body;
  const std::string wire = os.str();
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace dpdp::obs
