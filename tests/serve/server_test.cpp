/**
 * @file
 * In-process integration tests for the serve daemon: a real Server
 * bound to a temp Unix socket (and an ephemeral loopback TCP port),
 * spoken to over real sockets exactly as docs/serving.md documents the
 * wire exchanges. Covers the session shape (hello first, pong, analyze
 * miss→hit byte-identity, statusz counters), error isolation (a bad
 * request answers with an error frame and the connection survives),
 * bind-conflict reporting and the clean requestStop() drain.
 */

#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <netinet/in.h>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "obs/json_parse.hpp"
#include "serve/protocol.hpp"
#include "serve/request_trace.hpp"

namespace stackscope::serve {
namespace {

std::string
tempSocketPath(const char *tag)
{
    // Keep it short: sun_path is ~108 bytes.
    return "/tmp/ss-test-" + std::string(tag) + "-" +
           std::to_string(::getpid()) + ".sock";
}

int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, std::string_view bytes)
{
    while (!bytes.empty()) {
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

/** Read one '\n'-terminated frame using @p pending as carry-over. */
bool
readFrame(int fd, std::string &pending, std::string &frame)
{
    char buf[65536];
    for (;;) {
        const std::size_t pos = pending.find('\n');
        if (pos != std::string::npos) {
            frame = pending.substr(0, pos + 1);
            pending.erase(0, pos + 1);
            return true;
        }
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        pending.append(buf, static_cast<std::size_t>(n));
    }
}

obs::JsonValue
parseFrame(const std::string &frame)
{
    return obs::parseJson(
        std::string_view(frame.data(), frame.size() - 1));
}

/** Skip progress frames; return the first non-progress frame. */
bool
readResponse(int fd, std::string &pending, std::string &frame)
{
    for (;;) {
        if (!readFrame(fd, pending, frame))
            return false;
        if (parseFrame(frame).at("type").string != "progress")
            return true;
    }
}

/** A Server running on its own thread, torn down on scope exit. */
class ServerFixture
{
  public:
    explicit ServerFixture(ServeOptions options)
        : server_(options), thread_([this] { drained_ = server_.run(); })
    {
    }

    ~ServerFixture()
    {
        if (thread_.joinable())
            stop();
    }

    bool stop()
    {
        server_.requestStop();
        thread_.join();
        return drained_;
    }

    Server &server() { return server_; }

  private:
    Server server_;
    bool drained_ = false;
    std::thread thread_;
};

ServeOptions
smallOptions(const std::string &socket_path)
{
    ServeOptions opt;
    opt.socket_path = socket_path;
    opt.threads = 2;
    opt.heartbeat = std::chrono::milliseconds(50);
    opt.drain_timeout = std::chrono::milliseconds(10'000);
    return opt;
}

std::string_view
reportBytes(const std::string &frame)
{
    const std::size_t start = frame.find("\"report\":");
    const std::size_t end = frame.rfind('}');
    if (start == std::string::npos || end == std::string::npos)
        return {};
    return std::string_view(frame).substr(start + 9, end - start - 9);
}

constexpr const char *kSmallSpec =
    "{\"workload\":\"mcf\",\"machine\":\"bdw\",\"instrs\":2000}";

TEST(ServerTest, NdjsonSessionFollowsDocumentedShape)
{
    const std::string path = tempSocketPath("session");
    ServerFixture fixture(smallOptions(path));

    const int fd = connectUnix(path);
    ASSERT_GE(fd, 0) << "daemon not accepting on " << path;
    std::string pending;
    std::string frame;

    // The server speaks first: a hello frame identifying the protocol.
    ASSERT_TRUE(readFrame(fd, pending, frame));
    EXPECT_EQ(frame, helloFrame());

    ASSERT_TRUE(
        sendAll(fd, "{\"type\":\"ping\",\"id\":\"p1\"}\n"));
    ASSERT_TRUE(readFrame(fd, pending, frame));
    EXPECT_EQ(frame, pongFrame("p1"));

    // Cold analyze: a miss that computes; warm repeat: a hit with
    // byte-identical report bytes.
    const std::string analyze =
        std::string("{\"type\":\"analyze\",\"id\":\"a1\",\"spec\":") +
        kSmallSpec + "}\n";
    ASSERT_TRUE(sendAll(fd, analyze));
    ASSERT_TRUE(readResponse(fd, pending, frame));
    obs::JsonValue result = parseFrame(frame);
    ASSERT_EQ(result.at("type").string, "result");
    EXPECT_EQ(result.at("id").string, "a1");
    EXPECT_EQ(result.at("cache").string, "miss");
    const std::string key = result.at("key").string;
    EXPECT_EQ(key.size(), 16u);
    const std::string cold(reportBytes(frame));
    ASSERT_FALSE(cold.empty());

    ASSERT_TRUE(sendAll(fd, analyze));
    ASSERT_TRUE(readResponse(fd, pending, frame));
    result = parseFrame(frame);
    ASSERT_EQ(result.at("type").string, "result");
    EXPECT_EQ(result.at("cache").string, "hit");
    EXPECT_EQ(result.at("key").string, key);
    EXPECT_EQ(std::string(reportBytes(frame)), cold)
        << "hit must serve the cold bytes verbatim";

    // statusz reflects the exchange we just had.
    ASSERT_TRUE(sendAll(fd, "{\"type\":\"statusz\",\"id\":\"s1\"}\n"));
    ASSERT_TRUE(readFrame(fd, pending, frame));
    const obs::JsonValue status = parseFrame(frame);
    ASSERT_EQ(status.at("type").string, "status");
    const obs::JsonValue &cache = status.at("cache");
    EXPECT_EQ(cache.at("hits").number, 1.0);
    EXPECT_EQ(cache.at("misses").number, 1.0);
    EXPECT_EQ(cache.at("entries").number, 1.0);

    ::close(fd);
    EXPECT_TRUE(fixture.stop()) << "drain timed out";
}

TEST(ServerTest, BadRequestsGetErrorFramesAndTheConnectionSurvives)
{
    const std::string path = tempSocketPath("errors");
    ServerFixture fixture(smallOptions(path));

    const int fd = connectUnix(path);
    ASSERT_GE(fd, 0);
    std::string pending;
    std::string frame;
    ASSERT_TRUE(readFrame(fd, pending, frame));  // hello

    // Unparseable line → usage error with empty id.
    ASSERT_TRUE(sendAll(fd, "this is not json\n"));
    ASSERT_TRUE(readFrame(fd, pending, frame));
    obs::JsonValue err = parseFrame(frame);
    EXPECT_EQ(err.at("type").string, "error");
    EXPECT_EQ(err.at("category").string, "usage");

    // Unknown workload → usage error carrying the request id.
    ASSERT_TRUE(sendAll(fd,
                        "{\"type\":\"analyze\",\"id\":\"bad\",\"spec\":"
                        "{\"workload\":\"nope\",\"machine\":\"bdw\"}}\n"));
    ASSERT_TRUE(readResponse(fd, pending, frame));
    err = parseFrame(frame);
    EXPECT_EQ(err.at("type").string, "error");
    EXPECT_EQ(err.at("id").string, "bad");
    EXPECT_EQ(err.at("category").string, "usage");

    // The same connection still serves good requests afterwards.
    ASSERT_TRUE(sendAll(fd, "{\"type\":\"ping\",\"id\":\"still-up\"}\n"));
    ASSERT_TRUE(readFrame(fd, pending, frame));
    EXPECT_EQ(frame, pongFrame("still-up"));

    ::close(fd);
    EXPECT_TRUE(fixture.stop());
}

TEST(ServerTest, ConcurrentClientsShareOneSimulation)
{
    const std::string path = tempSocketPath("herd");
    ServerFixture fixture(smallOptions(path));

    constexpr unsigned kClients = 6;
    const std::string analyze =
        std::string("{\"type\":\"analyze\",\"id\":\"h\",\"spec\":") +
        kSmallSpec + "}\n";
    std::vector<std::thread> clients;
    std::vector<std::string> reports(kClients);
    clients.reserve(kClients);
    for (unsigned i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            const int fd = connectUnix(path);
            ASSERT_GE(fd, 0);
            std::string pending;
            std::string frame;
            ASSERT_TRUE(readFrame(fd, pending, frame));  // hello
            ASSERT_TRUE(sendAll(fd, analyze));
            ASSERT_TRUE(readResponse(fd, pending, frame));
            ASSERT_EQ(parseFrame(frame).at("type").string, "result");
            reports[i] = std::string(reportBytes(frame));
            ::close(fd);
        });
    }
    for (std::thread &t : clients)
        t.join();

    for (unsigned i = 1; i < kClients; ++i)
        EXPECT_EQ(reports[i], reports[0]);
    // Single-flight: the herd produced exactly one simulation.
    const ResultCache::Stats stats = fixture.server().cache().stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits + stats.coalesced, kClients - 1);
    EXPECT_TRUE(fixture.stop());
}

/** One-shot loopback HTTP exchange: send @p request, read to EOF. */
std::string
httpExchange(int port, const std::string &request)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    // A daemon that never answers fails the test instead of hanging it.
    timeval timeout{};
    timeout.tv_sec = 10;
    EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    EXPECT_TRUE(sendAll(fd, request));
    std::string response;
    char buf[65536];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
}

TEST(ServerTest, HttpEndpointsAnswerOnEphemeralPort)
{
    ServeOptions opt = smallOptions(tempSocketPath("http"));
    opt.tcp_port = 0;  // ephemeral
    ServerFixture fixture(opt);
    const int port = fixture.server().tcpPort();
    ASSERT_GT(port, 0);

    const auto httpRequest = [&](const std::string &request) {
        return httpExchange(port, request);
    };

    const std::string health =
        httpRequest("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_EQ(health.substr(0, 15), "HTTP/1.1 200 OK");

    const std::string body = kSmallSpec;
    const std::string analyzed = httpRequest(
        "POST /analyze HTTP/1.1\r\nHost: x\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body);
    EXPECT_EQ(analyzed.substr(0, 15), "HTTP/1.1 200 OK");
    EXPECT_NE(analyzed.find("\"report\":"), std::string::npos);
    // Only a header line that starts with Content-Length sets the body
    // length: an X-Content-Length header before it must not make the
    // daemon wait for 100000 body bytes that never come.
    const std::string lookalike = httpRequest(
        "POST /analyze HTTP/1.1\r\nHost: x\r\nX-Content-Length: 100000"
        "\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body);
    EXPECT_EQ(lookalike.substr(0, 15), "HTTP/1.1 200 OK");
    EXPECT_NE(lookalike.find("\"report\":"), std::string::npos);

    const std::string status =
        httpRequest("GET /statusz HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_EQ(status.substr(0, 15), "HTTP/1.1 200 OK");
    EXPECT_NE(status.find("\"cache\":"), std::string::npos);

    // Bad spec → 400, unknown path → 404; the daemon shrugs both off.
    const std::string bad = httpRequest(
        "POST /analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n"
        "\r\n{}");
    EXPECT_EQ(bad.substr(0, 12), "HTTP/1.1 400");
    const std::string lost =
        httpRequest("GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_EQ(lost.substr(0, 12), "HTTP/1.1 404");

    EXPECT_TRUE(fixture.stop());
}

std::string
httpBody(const std::string &response)
{
    const std::size_t pos = response.find("\r\n\r\n");
    return pos == std::string::npos ? std::string()
                                    : response.substr(pos + 4);
}

TEST(ServerTest, TracezShowsColdVersusHitSpanShapes)
{
    ServeOptions opt = smallOptions(tempSocketPath("tracez"));
    opt.tcp_port = 0;
    ServerFixture fixture(opt);
    const int port = fixture.server().tcpPort();
    ASSERT_GT(port, 0);

    const std::string body = kSmallSpec;
    const std::string analyze_req =
        "POST /analyze HTTP/1.1\r\nHost: x\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;

    // Cold request: the leader runs the simulation, so its trace must
    // attribute time to queue_wait and simulate.
    const std::string cold = httpExchange(port, analyze_req);
    ASSERT_EQ(cold.substr(0, 15), "HTTP/1.1 200 OK");
    const obs::JsonValue cold_result = obs::parseJson(httpBody(cold));
    const std::string cold_id = cold_result.at("request").string;
    ASSERT_FALSE(cold_id.empty());

    const std::string cold_trace_rsp = httpExchange(
        port, "GET /tracez?id=" + cold_id + " HTTP/1.1\r\nHost: x\r\n\r\n");
    ASSERT_EQ(cold_trace_rsp.substr(0, 15), "HTTP/1.1 200 OK");
    const obs::JsonValue cold_trace =
        obs::parseJson(httpBody(cold_trace_rsp));
    EXPECT_EQ(cold_trace.at("request").string, cold_id);
    EXPECT_EQ(cold_trace.at("outcome").string, "miss");
    EXPECT_TRUE(cold_trace.at("conservation_ok").boolean);
    std::int64_t queue_wait = -1;
    std::int64_t simulate = -1;
    std::int64_t span_sum = 0;
    for (const obs::JsonValue &s : cold_trace.at("spans").array) {
        span_sum += static_cast<std::int64_t>(s.at("dur_us").number);
        if (s.at("span").string == "queue_wait")
            queue_wait = static_cast<std::int64_t>(s.at("dur_us").number);
        if (s.at("span").string == "simulate")
            simulate = static_cast<std::int64_t>(s.at("dur_us").number);
    }
    EXPECT_GE(queue_wait, 0) << "cold trace must carry queue_wait";
    EXPECT_GT(simulate, 0) << "cold trace must carry a nonzero simulate";
    // Spans are additive: they sum to wall time within the tolerance.
    const auto wall =
        static_cast<std::int64_t>(cold_trace.at("wall_us").number);
    EXPECT_LE(std::abs(span_sum - wall), RequestTrace::kToleranceUs);

    // Warm repeat: a pure cache hit never opens the wait phase.
    const std::string hit = httpExchange(port, analyze_req);
    const obs::JsonValue hit_result = obs::parseJson(httpBody(hit));
    ASSERT_EQ(hit_result.at("cache").string, "hit");
    const std::string hit_id = hit_result.at("request").string;
    const obs::JsonValue hit_trace = obs::parseJson(httpBody(httpExchange(
        port, "GET /tracez?id=" + hit_id + " HTTP/1.1\r\nHost: x\r\n\r\n")));
    EXPECT_EQ(hit_trace.at("outcome").string, "hit");
    EXPECT_TRUE(hit_trace.at("conservation_ok").boolean);
    for (const obs::JsonValue &s : hit_trace.at("spans").array) {
        EXPECT_NE(s.at("span").string, "queue_wait");
        EXPECT_NE(s.at("span").string, "simulate");
        EXPECT_NE(s.at("span").string, "singleflight_wait");
    }

    // The index lists both requests, newest first.
    const obs::JsonValue index = obs::parseJson(httpBody(
        httpExchange(port, "GET /tracez HTTP/1.1\r\nHost: x\r\n\r\n")));
    ASSERT_GE(index.at("traces").array.size(), 2u);

    // Chrome rendering and unknown-id 404.
    const std::string chrome_rsp = httpExchange(
        port, "GET /tracez?id=" + cold_id +
                  "&format=chrome HTTP/1.1\r\nHost: x\r\n\r\n");
    ASSERT_EQ(chrome_rsp.substr(0, 15), "HTTP/1.1 200 OK");
    EXPECT_NE(httpBody(chrome_rsp).find("\"traceEvents\""),
              std::string::npos);
    EXPECT_EQ(httpExchange(port,
                           "GET /tracez?id=r-999999 HTTP/1.1\r\nHost: "
                           "x\r\n\r\n")
                  .substr(0, 12),
              "HTTP/1.1 404");

    EXPECT_TRUE(fixture.stop());
}

TEST(ServerTest, MetricszServesValidPrometheusText)
{
    ServeOptions opt = smallOptions(tempSocketPath("metricsz"));
    opt.tcp_port = 0;
    ServerFixture fixture(opt);
    const int port = fixture.server().tcpPort();
    ASSERT_GT(port, 0);

    const std::string body = kSmallSpec;
    httpExchange(port,
                 "POST /analyze HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                     std::to_string(body.size()) + "\r\n\r\n" + body);

    const std::string rsp =
        httpExchange(port, "GET /metricsz HTTP/1.1\r\nHost: x\r\n\r\n");
    ASSERT_EQ(rsp.substr(0, 15), "HTTP/1.1 200 OK");
    EXPECT_NE(rsp.find("Content-Type: text/plain; version=0.0.4"),
              std::string::npos);
    const std::string text = httpBody(rsp);
    EXPECT_NE(text.find("# TYPE serve_requests_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE serve_analyze_seconds histogram\n"),
              std::string::npos);
    EXPECT_NE(text.find("serve_analyze_seconds_bucket{le=\"+Inf\"} "),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE serve_inflight_requests gauge\n"),
              std::string::npos);
    // No request in this test may violate span conservation.
    EXPECT_NE(text.find("serve_trace_conservation_failures_total 0\n"),
              std::string::npos);

    EXPECT_TRUE(fixture.stop());
}

TEST(ServerTest, AccessLogEmitsOneStructuredLinePerRequest)
{
    std::mutex log_mutex;
    std::vector<std::string> records;
    log::setWriterForTest([&](const std::string &line) {
        std::lock_guard<std::mutex> lock(log_mutex);
        records.push_back(line);
    });
    const log::Level saved = log::threshold();
    log::setThreshold(log::Level::kInfo);
    const bool saved_json = log::jsonOutput();
    log::setJsonOutput(true);

    {
        const std::string path = tempSocketPath("accesslog");
        ServerFixture fixture(smallOptions(path));
        const int fd = connectUnix(path);
        ASSERT_GE(fd, 0);
        std::string pending;
        std::string frame;
        ASSERT_TRUE(readFrame(fd, pending, frame));  // hello
        ASSERT_TRUE(sendAll(fd, "{\"type\":\"ping\",\"id\":\"p9\"}\n"));
        ASSERT_TRUE(readFrame(fd, pending, frame));
        ::close(fd);
        EXPECT_TRUE(fixture.stop());
    }

    log::setWriterForTest(nullptr);
    log::setThreshold(saved);
    log::setJsonOutput(saved_json);

    std::lock_guard<std::mutex> lock(log_mutex);
    bool found = false;
    for (const std::string &line : records) {
        if (line.find("\"msg\":\"access\"") == std::string::npos)
            continue;
        found = true;
        const obs::JsonValue record = obs::parseJson(line);
        EXPECT_EQ(record.at("module").string, "serve");
        EXPECT_EQ(record.at("endpoint").string, "ping");
        EXPECT_EQ(record.at("id").string, "p9");
        EXPECT_EQ(record.at("status").string, "ok");
        EXPECT_FALSE(record.at("request").string.empty());
        EXPECT_NE(record.find("wall_us"), nullptr);
    }
    EXPECT_TRUE(found) << "no access record for the ping request";
}

TEST(ServerTest, BindConflictsThrowBindError)
{
    const std::string path = tempSocketPath("conflict");
    ServeOptions opt = smallOptions(path);
    opt.tcp_port = 0;
    ServerFixture fixture(opt);

    // Same UDS path, live daemon behind it → BindError, and the
    // original socket is left untouched (still connectable).
    EXPECT_THROW(Server(smallOptions(path)), BindError);
    const int fd = connectUnix(path);
    EXPECT_GE(fd, 0) << "conflict handling clobbered the live socket";
    if (fd >= 0)
        ::close(fd);

    // Same TCP port → BindError too.
    ServeOptions tcp_clash = smallOptions(tempSocketPath("conflict2"));
    tcp_clash.tcp_port = fixture.server().tcpPort();
    EXPECT_THROW(Server{tcp_clash}, BindError);

    // No listener at all is a plain config error, not a bind failure.
    ServeOptions none;
    none.threads = 1;
    EXPECT_THROW(Server{none}, StackscopeError);

    EXPECT_TRUE(fixture.stop());
}

TEST(ServerTest, StaleSocketFileIsReclaimed)
{
    const std::string path = tempSocketPath("stale");
    // Fabricate a stale socket file: bind and close without unlinking,
    // as a crashed daemon would leave behind.
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ::close(fd);
    }

    ServerFixture fixture(smallOptions(path));
    const int fd = connectUnix(path);
    EXPECT_GE(fd, 0) << "stale socket file was not reclaimed";
    if (fd >= 0) {
        std::string pending;
        std::string frame;
        EXPECT_TRUE(readFrame(fd, pending, frame));
        EXPECT_EQ(frame, helloFrame());
        ::close(fd);
    }
    EXPECT_TRUE(fixture.stop());
    // Clean shutdown removes the socket file.
    EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

}  // namespace
}  // namespace stackscope::serve
