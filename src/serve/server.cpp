#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "obs/exposition.hpp"
#include "runner/job_spec.hpp"
#include "serve/protocol.hpp"

namespace stackscope::serve {

namespace {

/** Longest accepted NDJSON request line / HTTP request (head + body). */
constexpr std::size_t kMaxRequestBytes = 1u << 20;

constexpr double kLatencyBounds[] = {1e-6, 1e-5, 1e-4, 1e-3,
                                     1e-2, 1e-1, 1.0,  10.0, 100.0};

std::uint64_t
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
}

double
elapsedSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         since)
        .count();
}

int
bindUnixSocket(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw BindError("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    // A leftover socket file from a crashed daemon must not block
    // restart, but an actively served path must: probe with connect().
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
        const int rc = ::connect(
            probe, reinterpret_cast<const sockaddr *>(&addr), sizeof(addr));
        const int err = errno;
        ::close(probe);
        if (rc == 0)
            throw BindError("socket path already served by another daemon: " +
                            path);
        if (err == ECONNREFUSED)
            ::unlink(path.c_str());  // stale socket file
    }

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw BindError(std::string("socket(): ") + std::strerror(errno));
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        const std::string detail = std::strerror(errno);
        ::close(fd);
        throw BindError("cannot listen on " + path + ": " + detail);
    }
    return fd;
}

int
bindTcpSocket(int port, int *bound_port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw BindError(std::string("socket(): ") + std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        const std::string detail = std::strerror(errno);
        ::close(fd);
        throw BindError("cannot listen on 127.0.0.1:" +
                        std::to_string(port) + ": " + detail);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len) == 0)
        *bound_port = ntohs(bound.sin_port);
    return fd;
}

std::string
httpResponse(int status, const std::string &reason, const std::string &body,
             const std::string &content_type = "application/json")
{
    return "HTTP/1.1 " + std::to_string(status) + " " + reason +
           "\r\nContent-Type: " + content_type +
           "\r\nContent-Length: " + std::to_string(body.size()) +
           "\r\nConnection: close\r\n\r\n" + body;
}

/** Prometheus text format 0.0.4 media type (the /metricsz body). */
constexpr const char *kPromContentType =
    "text/plain; version=0.0.4; charset=utf-8";

/** Value of query parameter @p name in @p query ("a=1&b=2"), or "". No
 *  percent-decoding: request ids and format names never need it. */
std::string
queryParam(const std::string &query, std::string_view name)
{
    std::size_t pos = 0;
    while (pos < query.size()) {
        std::size_t amp = query.find('&', pos);
        if (amp == std::string::npos)
            amp = query.size();
        const std::string_view pair =
            std::string_view(query).substr(pos, amp - pos);
        const std::size_t eq = pair.find('=');
        if (eq != std::string_view::npos && pair.substr(0, eq) == name)
            return std::string(pair.substr(eq + 1));
        pos = amp + 1;
    }
    return "";
}

SloTracker::Options
sloOptions(const ServeOptions &options)
{
    SloTracker::Options slo;
    slo.objective_ms = options.slo_ms;
    return slo;
}

int
httpStatusFor(ErrorCategory category)
{
    switch (category) {
      case ErrorCategory::kUsage:
      case ErrorCategory::kConfig:
        return 400;
      case ErrorCategory::kValidation:
      case ErrorCategory::kWatchdog:
        return 422;
      case ErrorCategory::kInternal:
        return 500;
    }
    return 500;
}

}  // namespace

Server::Server(const ServeOptions &options)
    : options_(options),
      cache_(options.cache_bytes),
      pool_(options.threads),
      traces_(options.trace_capacity),
      slo_(sloOptions(options))
{
    if (options_.socket_path.empty() && options_.tcp_port < 0) {
        throw StackscopeError(ErrorCategory::kConfig,
                              "serve needs --socket and/or --tcp");
    }

    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    m_connections_ = reg.counter("serve.connections_total");
    m_requests_ = reg.counter("serve.requests_total");
    m_errors_ = reg.counter("serve.errors_total");
    m_http_requests_ = reg.counter("serve.http_requests_total");
    m_slow_requests_ = reg.counter("serve.slow_requests_total");
    m_traced_requests_ = reg.counter("serve.traced_requests_total");
    m_conservation_failures_ =
        reg.counter("serve.trace_conservation_failures_total");
    m_inflight_ = reg.gauge("serve.inflight_requests");
    m_queue_depth_ = reg.gauge("serve.queue_depth");
    const std::vector<double> bounds(std::begin(kLatencyBounds),
                                     std::end(kLatencyBounds));
    m_analyze_seconds_ = reg.histogram("serve.analyze_seconds", bounds);
    m_status_seconds_ = reg.histogram("serve.status_seconds", bounds);

    int pipefd[2];
    if (::pipe(pipefd) != 0) {
        throw StackscopeError(ErrorCategory::kInternal,
                              std::string("pipe(): ") +
                                  std::strerror(errno));
    }
    wake_rd_ = pipefd[0];
    wake_wr_ = pipefd[1];
    // Non-blocking read side: the accept loop drains it without risking
    // a block when a second requestStop() never arrives.
    ::fcntl(wake_rd_, F_SETFL, O_NONBLOCK);

    if (!options_.socket_path.empty())
        uds_fd_ = bindUnixSocket(options_.socket_path);
    if (options_.tcp_port >= 0) {
        try {
            tcp_fd_ = bindTcpSocket(options_.tcp_port, &tcp_port_);
        } catch (...) {
            if (uds_fd_ >= 0) {
                ::close(uds_fd_);
                ::unlink(options_.socket_path.c_str());
            }
            ::close(wake_rd_);
            ::close(wake_wr_);
            throw;
        }
    }
}

Server::~Server()
{
    requestStop();
    // Hard stop: force every remaining connection off its socket, then
    // wait (unbounded — they exit within one heartbeat) so no detached
    // thread can outlive this object.
    {
        std::unique_lock<std::mutex> lock(conn_mutex_);
        for (const int fd : conn_fds_)
            ::shutdown(fd, SHUT_RDWR);
        conn_cv_.wait(lock, [this] { return active_conns_ == 0; });
    }
    if (uds_fd_ >= 0) {
        ::close(uds_fd_);
        ::unlink(options_.socket_path.c_str());
    }
    if (tcp_fd_ >= 0)
        ::close(tcp_fd_);
    ::close(wake_rd_);
    ::close(wake_wr_);
}

void
Server::requestStop()
{
    stopping_.store(true, std::memory_order_relaxed);
    const char byte = 'x';
    // Async-signal-safe wakeup; the pipe buffer absorbs repeats.
    [[maybe_unused]] ssize_t rc = ::write(wake_wr_, &byte, 1);
}

bool
Server::run()
{
    log::info("serve", "listening",
              {{"socket", options_.socket_path},
               {"tcp", tcp_port_},
               {"threads", pool_.threads()},
               {"cache_bytes",
                static_cast<std::uint64_t>(options_.cache_bytes)}});
    acceptLoop();

    // Stop accepting before draining: close the listeners so late
    // clients fail fast instead of queueing behind the drain.
    if (uds_fd_ >= 0) {
        ::close(uds_fd_);
        ::unlink(options_.socket_path.c_str());
        uds_fd_ = -1;
    }
    if (tcp_fd_ >= 0) {
        ::close(tcp_fd_);
        tcp_fd_ = -1;
    }

    bool drained = false;
    std::size_t remaining = 0;
    {
        std::unique_lock<std::mutex> lock(conn_mutex_);
        // Half-close: idle connections read EOF and leave; connections
        // mid-analyze still flush their result frame.
        for (const int fd : conn_fds_)
            ::shutdown(fd, SHUT_RD);
        drained = conn_cv_.wait_for(lock, options_.drain_timeout, [this] {
            return active_conns_ == 0;
        });
        remaining = active_conns_;
    }
    log::info("serve", drained ? "drained" : "drain timeout",
              {{"active", static_cast<std::uint64_t>(remaining)}});
    return drained;
}

void
Server::acceptLoop()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        pollfd fds[3];
        bool is_http[3] = {false, false, false};
        nfds_t n = 0;
        fds[n++] = {wake_rd_, POLLIN, 0};
        if (uds_fd_ >= 0)
            fds[n++] = {uds_fd_, POLLIN, 0};
        if (tcp_fd_ >= 0) {
            is_http[n] = true;
            fds[n++] = {tcp_fd_, POLLIN, 0};
        }

        if (::poll(fds, n, -1) < 0) {
            if (errno == EINTR)
                continue;
            log::warn("serve", "poll failed", {{"errno", errno}});
            return;
        }
        if (fds[0].revents != 0) {
            char drain[64];
            while (::read(wake_rd_, drain, sizeof(drain)) > 0) {
            }
            continue;  // loop condition re-checks stopping_
        }
        for (nfds_t slot = 1; slot < n; ++slot) {
            if ((fds[slot].revents & POLLIN) == 0)
                continue;
            const bool http = is_http[slot];
            const int conn = ::accept(fds[slot].fd, nullptr, nullptr);
            if (conn < 0)
                continue;
            {
                std::lock_guard<std::mutex> lock(conn_mutex_);
                conn_fds_.insert(conn);
                ++active_conns_;
            }
            m_connections_.inc();
            try {
                std::thread(&Server::connectionMain, this, conn, http)
                    .detach();
            } catch (...) {
                std::lock_guard<std::mutex> lock(conn_mutex_);
                conn_fds_.erase(conn);
                --active_conns_;
                ::close(conn);
                conn_cv_.notify_all();
            }
        }
    }
}

void
Server::connectionMain(int fd, bool http)
{
    try {
        if (http)
            httpConnection(fd);
        else
            ndjsonConnection(fd);
    } catch (...) {
        // A connection must never take the daemon down; the socket is
        // simply closed and the client sees EOF.
        m_errors_.inc();
    }
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conn_fds_.erase(fd);
    ::close(fd);
    --active_conns_;
    conn_cv_.notify_all();
}

bool
Server::sendAll(int fd, std::string_view bytes)
{
    while (!bytes.empty()) {
        // MSG_NOSIGNAL: a vanished client must produce EPIPE, not kill
        // the daemon with SIGPIPE.
        const ssize_t n =
            ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

std::string
Server::mintRequestId()
{
    return "r-" + std::to_string(
                      request_seq_.fetch_add(1, std::memory_order_relaxed) +
                      1);
}

std::shared_ptr<RequestTrace>
Server::openTrace(const std::string &endpoint,
                  RequestTrace::Clock::time_point accept_time)
{
    m_inflight_.add(1.0);
    return std::make_shared<RequestTrace>(mintRequestId(), endpoint,
                                          accept_time);
}

void
Server::finishRequest(RequestTrace &trace)
{
    const std::shared_ptr<const TraceSummary> s = trace.finish();
    m_inflight_.add(-1.0);
    m_traced_requests_.inc();
    if (!s->conservation_ok) {
        m_conservation_failures_.inc();
        log::warn("serve", "span conservation violated",
                  {{"request", s->id},
                   {"wall_us", s->wall_us},
                   {"error_us", s->conservation_error_us}});
    }
    const double wall_ms = static_cast<double>(s->wall_us) / 1000.0;
    slo_.record(wall_ms, s->status != "ok" && s->status != "abandoned");
    traces_.add(s);

    const bool slow =
        options_.slow_ms > 0.0 && wall_ms >= options_.slow_ms;
    if (slow)
        m_slow_requests_.inc();
    const bool log_access = log::enabled(log::Level::kInfo);
    if (!log_access && !(slow && log::enabled(log::Level::kWarn)))
        return;

    std::vector<log::Field> fields;
    fields.reserve(6 + s->spans.size());
    fields.emplace_back("request", s->id);
    if (!s->client_id.empty())
        fields.emplace_back("id", s->client_id);
    fields.emplace_back("endpoint", s->endpoint);
    if (!s->outcome.empty())
        fields.emplace_back("cache", s->outcome);
    fields.emplace_back("status", s->status);
    fields.emplace_back("wall_us", s->wall_us);
    for (const TraceSummary::SpanValue &sv : s->spans)
        fields.emplace_back(toString(sv.span), sv.dur_us);
    if (log_access)
        log::message(log::Level::kInfo, "serve", "access", fields);
    if (slow) {
        fields.emplace_back("slow_ms", options_.slow_ms);
        log::message(log::Level::kWarn, "serve", "slow request", fields);
    }
}

ResultCache::Handle
Server::scheduleAnalyze(const std::string &key, const runner::JobSpec &spec,
                        const std::shared_ptr<RequestTrace> &trace)
{
    trace->begin(Span::kCacheLookup);
    ResultCache::Handle handle = cache_.lookup(key);
    trace->setOutcome(toString(handle.outcome));
    // Hits skip the wait phase entirely: the future already holds the
    // bytes, so a hit trace has no queue_wait/simulate/singleflight_wait.
    if (handle.outcome != CacheOutcome::kHit)
        trace->begin(Span::kSingleflightWait);
    if (handle.leader()) {
        // The simulation runs on the shared pool, not this connection
        // thread, so the result lands in the cache even if every
        // requesting client disconnects first. Job spans go to the
        // leader's trace and are published before complete()/fail()
        // resolve the future (the leader's finish() happens after).
        const auto submitted = RequestTrace::Clock::now();
        pool_.submit([this, key, spec, trace, submitted] {
            trace->addJobSpan(Span::kQueueWait, submitted,
                              RequestTrace::Clock::now());
            try {
                cache_.complete(key, simulateSpec(spec, trace.get()));
            } catch (...) {
                cache_.fail(key, std::current_exception());
            }
            m_queue_depth_.set(static_cast<double>(pool_.pending()));
        });
        m_queue_depth_.set(static_cast<double>(pool_.pending()));
    }
    return handle;
}

void
Server::analyze(int fd, const std::string &id, const runner::JobSpec &spec,
                const std::shared_ptr<RequestTrace> &trace)
{
    const auto start = std::chrono::steady_clock::now();
    const std::string key = runner::specHash(spec);
    ResultCache::Handle handle = scheduleAnalyze(key, spec, trace);

    bool client_alive = true;
    while (handle.future.wait_for(options_.heartbeat) ==
           std::future_status::timeout) {
        if (client_alive &&
            !sendAll(fd,
                     progressFrame(id, trace->id(), key, elapsedMs(start))))
            client_alive = false;
        if (!client_alive) {
            trace->setStatus("abandoned");
            return;  // abandoned; the pool task still populates the cache
        }
    }
    try {
        const CachedBytes bytes = handle.future.get();
        trace->begin(Span::kWrite);
        if (!sendAll(fd, resultFrame(id, trace->id(), key, handle.outcome,
                                     *bytes)))
            trace->setStatus("abandoned");
    } catch (const StackscopeError &e) {
        m_errors_.inc();
        trace->setStatus(std::string(toString(e.category())));
        trace->begin(Span::kWrite);
        sendAll(fd, errorFrame(id, e.category(), e.describe()));
    } catch (const std::exception &e) {
        m_errors_.inc();
        trace->setStatus("internal");
        trace->begin(Span::kWrite);
        sendAll(fd, errorFrame(id, ErrorCategory::kInternal, e.what()));
    }
    m_analyze_seconds_.record(elapsedSeconds(start));
}

void
Server::ndjsonConnection(int fd)
{
    // The first request's accept span starts at the connection accept;
    // later requests on the same connection start when their bytes are
    // complete (client think-time must not pollute their wall time).
    const auto accept_time = RequestTrace::Clock::now();
    bool first_request = true;
    if (!sendAll(fd, helloFrame()))
        return;
    std::string pending;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (n == 0)
            return;  // EOF (also how the drain half-close ends a session)
        pending.append(buf, static_cast<std::size_t>(n));
        // Lines are parsed in place; the consumed prefix is dropped once
        // the buffer holds no complete line.
        std::size_t begin = 0;
        std::size_t pos;
        while ((pos = pending.find('\n', begin)) != std::string::npos) {
            const std::string_view line(pending.data() + begin, pos - begin);
            begin = pos + 1;
            if (line.find_first_not_of(" \t\r") == std::string_view::npos)
                continue;
            m_requests_.inc();
            const auto read_done = RequestTrace::Clock::now();
            const std::shared_ptr<RequestTrace> trace = openTrace(
                "ndjson", first_request ? accept_time : read_done);
            first_request = false;
            trace->begin(Span::kParse);
            Request req;
            try {
                req = parseRequest(line);
            } catch (const StackscopeError &e) {
                m_errors_.inc();
                trace->setStatus(std::string(toString(e.category())));
                trace->begin(Span::kWrite);
                const bool ok =
                    sendAll(fd, errorFrame("", e.category(), e.describe()));
                finishRequest(*trace);
                if (!ok)
                    return;
                continue;
            }
            trace->setClientId(req.id);
            switch (req.kind) {
              case Request::Kind::kPing: {
                trace->setEndpoint("ping");
                trace->begin(Span::kWrite);
                const bool ok = sendAll(fd, pongFrame(req.id));
                finishRequest(*trace);
                if (!ok)
                    return;
                break;
              }
              case Request::Kind::kStatusz: {
                trace->setEndpoint("statusz");
                const auto start = std::chrono::steady_clock::now();
                trace->begin(Span::kWrite);
                const std::string frame =
                    statusFrame(req.id, cache_.stats(), slo_.summary(),
                                obs::MetricsRegistry::global().snapshot());
                const bool ok = sendAll(fd, frame);
                m_status_seconds_.record(elapsedSeconds(start));
                finishRequest(*trace);
                if (!ok)
                    return;
                break;
              }
              case Request::Kind::kAnalyze:
                trace->setEndpoint("analyze");
                try {
                    analyze(fd, req.id, parseSpec(req.spec), trace);
                } catch (const StackscopeError &e) {
                    m_errors_.inc();
                    trace->setStatus(std::string(toString(e.category())));
                    trace->begin(Span::kWrite);
                    if (!sendAll(fd, errorFrame(req.id, e.category(),
                                                e.describe()))) {
                        finishRequest(*trace);
                        return;
                    }
                }
                finishRequest(*trace);
                break;
            }
        }
        pending.erase(0, begin);
        if (pending.size() > kMaxRequestBytes) {
            m_errors_.inc();
            sendAll(fd, errorFrame("", ErrorCategory::kUsage,
                                   "request line exceeds 1 MiB"));
            return;
        }
    }
}

void
Server::httpConnection(int fd)
{
    m_http_requests_.inc();
    // One request per connection, so the request timeline starts here
    // (effectively at accept) and kAccept covers reading head + body.
    const std::shared_ptr<RequestTrace> trace =
        openTrace("http", RequestTrace::Clock::now());
    // Every exit path responds through here so the write span, status
    // bookkeeping and access log stay consistent across the router.
    const auto respond = [&](int status, const std::string &reason,
                             const std::string &body,
                             const std::string &content_type =
                                 "application/json") {
        trace->begin(Span::kWrite);
        if (!sendAll(fd, httpResponse(status, reason, body, content_type)))
            trace->setStatus("abandoned");
        finishRequest(*trace);
    };

    std::string raw;
    char buf[4096];
    std::size_t head_end = std::string::npos;
    while (head_end == std::string::npos) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            trace->setStatus("abandoned");
            finishRequest(*trace);
            return;
        }
        raw.append(buf, static_cast<std::size_t>(n));
        head_end = raw.find("\r\n\r\n");
        if (raw.size() > kMaxRequestBytes)
            break;
    }
    if (head_end == std::string::npos) {
        trace->setStatus("usage");
        respond(400, "Bad Request",
                errorFrame("", ErrorCategory::kUsage,
                           "malformed or oversized HTTP request"));
        return;
    }

    trace->begin(Span::kParse);
    const std::string head = raw.substr(0, head_end);
    const std::size_t m_end = head.find(' ');
    const std::size_t t_end =
        m_end == std::string::npos ? std::string::npos
                                   : head.find(' ', m_end + 1);
    if (t_end == std::string::npos) {
        trace->setStatus("usage");
        respond(400, "Bad Request",
                errorFrame("", ErrorCategory::kUsage,
                           "malformed request line"));
        return;
    }
    const std::string method = head.substr(0, m_end);
    const std::string target = head.substr(m_end + 1, t_end - m_end - 1);
    const std::size_t q_pos = target.find('?');
    const std::string path =
        q_pos == std::string::npos ? target : target.substr(0, q_pos);
    const std::string query =
        q_pos == std::string::npos ? "" : target.substr(q_pos + 1);
    trace->setEndpoint("http:" + path);

    // Sole header we honour; names are case-insensitive per RFC 9112.
    // The name must open a header line, so X-Content-Length is not it.
    std::size_t content_length = 0;
    std::string lower = head;
    for (char &c : lower)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    constexpr std::string_view kContentLength = "\r\ncontent-length:";
    const std::size_t cl = lower.find(kContentLength);
    if (cl != std::string::npos)
        content_length = static_cast<std::size_t>(std::strtoull(
            head.c_str() + cl + kContentLength.size(), nullptr, 10));
    if (content_length > kMaxRequestBytes) {
        trace->setStatus("usage");
        respond(400, "Bad Request",
                errorFrame("", ErrorCategory::kUsage,
                           "request body exceeds 1 MiB"));
        return;
    }

    std::string body = raw.substr(head_end + 4);
    while (body.size() < content_length) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            trace->setStatus("abandoned");
            finishRequest(*trace);
            return;
        }
        body.append(buf, static_cast<std::size_t>(n));
    }

    if (method == "GET" && path == "/healthz") {
        respond(200, "OK", "{\"status\":\"ok\"}\n");
        return;
    }
    if (method == "GET" && path == "/statusz") {
        const auto start = std::chrono::steady_clock::now();
        const std::string frame =
            statusFrame("", cache_.stats(), slo_.summary(),
                        obs::MetricsRegistry::global().snapshot());
        respond(200, "OK", frame);
        m_status_seconds_.record(elapsedSeconds(start));
        return;
    }
    if (method == "GET" && path == "/metricsz") {
        respond(200, "OK",
                obs::prometheusText(
                    obs::MetricsRegistry::global().snapshot()),
                kPromContentType);
        return;
    }
    if (method == "GET" && path == "/tracez") {
        const std::string id = queryParam(query, "id");
        if (id.empty()) {
            respond(200, "OK", traceIndexJson(traces_.recent(64)) + "\n");
            return;
        }
        const std::shared_ptr<const TraceSummary> found = traces_.find(id);
        if (found == nullptr) {
            trace->setStatus("usage");
            respond(404, "Not Found",
                    errorFrame("", ErrorCategory::kUsage,
                               "no trace for request '" + id + "'"));
            return;
        }
        if (queryParam(query, "format") == "chrome") {
            respond(200, "OK", traceChromeJson(*found) + "\n");
            return;
        }
        respond(200, "OK", traceJson(*found) + "\n");
        return;
    }
    if (method == "POST" && path == "/analyze") {
        m_requests_.inc();
        const auto start = std::chrono::steady_clock::now();
        try {
            const runner::JobSpec spec = parseSpec(obs::parseJson(body));
            const std::string key = runner::specHash(spec);
            // HTTP has no progress stream: block until the result.
            ResultCache::Handle handle = scheduleAnalyze(key, spec, trace);
            const CachedBytes bytes = handle.future.get();
            respond(200, "OK",
                    resultFrame("", trace->id(), key, handle.outcome,
                                *bytes));
        } catch (const StackscopeError &e) {
            m_errors_.inc();
            trace->setStatus(std::string(toString(e.category())));
            const int status = httpStatusFor(e.category());
            respond(status,
                    status == 400 ? "Bad Request" : "Analysis Failed",
                    errorFrame("", e.category(), e.describe()));
        } catch (const std::exception &e) {
            m_errors_.inc();
            trace->setStatus("internal");
            respond(500, "Internal Server Error",
                    errorFrame("", ErrorCategory::kInternal, e.what()));
        }
        m_analyze_seconds_.record(elapsedSeconds(start));
        return;
    }
    trace->setStatus("usage");
    respond(404, "Not Found",
            errorFrame("", ErrorCategory::kUsage,
                       "unknown endpoint " + method + " " + target));
}

}  // namespace stackscope::serve
