/**
 * @file
 * serve_mixed: a closed loop of two client connections drives a fresh
 * `stackscope serve` daemon (two worker threads) over its Unix socket.
 *
 *  - The hot connection cycles through a hot spec set that fits the
 *    result cache (warmed before timing), so its requests are hits.
 *  - The cold connection sends seeded unique specs with short `instrs`,
 *    so its requests are misses.
 *  - Every kBurstEvery-th cold spec is a burst: the hot connection sends
 *    it first and the cold connection the same spec right after, so one
 *    request leads the simulation and the other coalesces onto it.
 *
 * Every hit must be byte-identical to the cold response that filled the
 * cache, both halves of a burst must match, every report must satisfy
 * the stack laws, and a sample of cold specs is recomputed in-process
 * with serve::simulateSpec and compared byte for byte.
 */

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "layers.hpp"
#include "obs/json.hpp"
#include "runner/job_spec.hpp"
#include "serve/protocol.hpp"
#include "serve/request_trace.hpp"
#include "serve/result_cache.hpp"
#include "sim/presets.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"
#include "workloads.hpp"

extern char **environ;

namespace perfbench {

namespace {

namespace obs = stackscope::obs;
namespace runner = stackscope::runner;
namespace serve = stackscope::serve;
namespace sim = stackscope::sim;
namespace trace = stackscope::trace;

constexpr const char *kSocket = "serve.sock";
constexpr unsigned kDaemonThreads = 2;
/**
 * Result-cache budget: the hot set stays resident (LRU) while old cold
 * entries are evicted, so the daemon's memory does not grow with how
 * many cold requests a run completes.
 */
constexpr unsigned kCacheMb = 1;
constexpr int kSetups = 9;
constexpr const char *kHotWorkloads[] = {"gcc", "mcf", "x264", "imagick"};
constexpr std::uint64_t kHotInstrs = 20'000;
constexpr const char *kColdWorkloads[] = {"gcc",     "exchange2", "x264",
                                          "imagick", "bwaves",    "lbm"};
constexpr const char *kMachines[] = {"bdw", "knl"};
/** Cold specs take instrs in [kColdInstrs, kColdInstrs + kColdRange). */
constexpr std::uint64_t kColdInstrs = 9'000;
constexpr std::uint64_t kColdRange = 2'000;
constexpr std::size_t kColdCombos =
    std::size(kColdWorkloads) * std::size(kMachines);
constexpr std::size_t kBurstEvery = 8;
/** Cold specs recomputed in-process (and probed, when traced). */
constexpr std::size_t kSampled = 8;
/** Cold specs whose outputs the expected-value file records. */
constexpr std::size_t kRecordedColds = 16;

struct Spec
{
    std::string workload;
    std::string machine;
    std::uint64_t instrs = 0;

    std::string label() const
    {
        return workload + "/" + machine + "/" + std::to_string(instrs);
    }
    /** Instructions the daemon simulates: measured plus instrs/2 warmup. */
    double simulated() const { return double(instrs + instrs / 2); }
    std::string line(const std::string &id) const
    {
        obs::JsonWriter w;
        w.beginObject()
            .key("type").value("analyze")
            .key("id").value(id)
            .key("spec").beginObject()
            .key("workload").value(workload)
            .key("machine").value(machine)
            .key("instrs").value(instrs)
            .endObject()
            .endObject();
        return w.str() + "\n";
    }
};

std::vector<Spec>
hotSpecs()
{
    std::vector<Spec> specs;
    for (const char *w : kHotWorkloads)
        for (const char *m : kMachines)
            specs.push_back({w, m, kHotInstrs});
    return specs;
}

/**
 * Cold spec @p j of the seed's stream: the (workload, machine) pair
 * rotates, and the k-th visit of a pair gets a distinct instrs value, so
 * the first kColdCombos * kColdRange specs are all different.
 */
Spec
coldSpec(std::uint64_t seed, std::size_t j)
{
    const std::size_t combo = (j + mixSeed(seed, 0)) % kColdCombos;
    const std::uint64_t visit = j / kColdCombos;
    const std::uint64_t offset =
        (mixSeed(seed, 1 + combo) + visit * 7) % kColdRange;
    return {kColdWorkloads[combo / 2], kMachines[combo % 2],
            kColdInstrs + offset};
}

/** A newline-delimited JSON connection to the daemon. */
class Conn
{
  public:
    /** Connect and read the hello frame; throws when either fails. */
    explicit Conn(const char *path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path, sizeof(addr.sun_path) - 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                                 sizeof(addr)) != 0) {
            close();
            throw std::runtime_error("cannot connect to the daemon");
        }
        if (readFrame().find("\"hello\"") == std::string::npos)
            throw std::runtime_error("no hello frame");
    }
    ~Conn() { close(); }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    void
    send(std::string_view bytes)
    {
        while (!bytes.empty()) {
            const ssize_t n =
                ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("send failed");
            bytes.remove_prefix(static_cast<std::size_t>(n));
        }
    }

    /** Read frames until one that is not a progress frame. */
    std::string
    readResult()
    {
        for (;;) {
            std::string f = readFrame();
            if (f.rfind("{\"type\":\"progress\"", 0) != 0)
                return f;
        }
    }

    std::string
    readFrame()
    {
        char buf[65536];
        for (;;) {
            const std::size_t pos = pending_.find('\n');
            if (pos != std::string::npos) {
                std::string frame = pending_.substr(0, pos);
                pending_.erase(0, pos + 1);
                return frame;
            }
            const ssize_t n = ::read(fd_, buf, sizeof(buf));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("daemon closed the connection");
            pending_.append(buf, static_cast<std::size_t>(n));
        }
    }

  private:
    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    int fd_ = -1;
    std::string pending_;
};

/** The value of string member @p key in a flat frame prefix. */
std::string_view
member(std::string_view frame, std::string_view key)
{
    const std::string pat = "\"" + std::string(key) + "\":\"";
    const std::size_t at = frame.find(pat);
    if (at == std::string_view::npos)
        return {};
    const std::size_t start = at + pat.size();
    return frame.substr(start, frame.find('"', start) - start);
}

/** The verbatim report bytes: "report" is the last member. */
std::string_view
reportOf(std::string_view frame)
{
    const std::size_t at = frame.find("\"report\":");
    if (at == std::string_view::npos || frame.size() < at + 10)
        return {};
    return frame.substr(at + 9, frame.size() - at - 10);
}

/** A `stackscope serve` child process. */
class Daemon
{
  public:
    Daemon(const std::string &binary, int tcp_port,
           std::size_t trace_capacity)
    {
        ::unlink(kSocket);
        std::vector<std::string> args = {binary,
                                         "serve",
                                         "--socket",
                                         kSocket,
                                         "--threads",
                                         std::to_string(kDaemonThreads),
                                         "--cache-mb",
                                         std::to_string(kCacheMb),
                                         "--trace-capacity",
                                         std::to_string(trace_capacity)};
        if (tcp_port > 0) {
            args.push_back("--tcp");
            args.push_back(std::to_string(tcp_port));
        }
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, "serve.log",
                                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot start " + binary + ": " +
                                     std::strerror(rc));
        }
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Connect once the socket accepts, within 10 s. */
    std::unique_ptr<Conn>
    connect() const
    {
        const auto give_up = Clock::now() + std::chrono::seconds(10);
        for (;;) {
            try {
                return std::make_unique<Conn>(kSocket);
            } catch (const std::runtime_error &) {
                int status = 0;
                if (::waitpid(pid_, &status, WNOHANG) == pid_)
                    throw std::runtime_error("the daemon exited at start");
                if (Clock::now() > give_up)
                    throw;
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        }
    }

    /** Peak resident set (VmHWM) in MiB. */
    double
    peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(in, line))
            if (line.rfind("VmHWM:", 0) == 0)
                return std::stod(line.substr(6)) / 1024.0;
        return 0.0;
    }

    /** SIGTERM (SIGKILL after 10 s) and reap; returns true on exit 0. */
    bool
    stop()
    {
        if (pid_ < 0)
            return true;
        ::kill(pid_, SIGTERM);
        int status = 0;
        const auto give_up = Clock::now() + std::chrono::seconds(10);
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (Clock::now() > give_up) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    pid_t pid_ = -1;
};

/** A free loopback TCP port for the daemon's HTTP listener. */
int
freePort()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    int port = -1;
    if (fd >= 0 &&
        ::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) == 0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) == 0)
        port = ntohs(addr.sin_port);
    if (fd >= 0)
        ::close(fd);
    if (port <= 0)
        throw std::runtime_error("no free loopback port");
    return port;
}

/** Body of `GET path` on the daemon's loopback HTTP listener. */
std::string
httpGet(int port, const std::string &path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    std::string response;
    if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                             sizeof(addr)) == 0) {
        const std::string req =
            "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
        if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(req.size())) {
            char buf[65536];
            ssize_t n = 0;
            while ((n = ::read(fd, buf, sizeof(buf))) > 0)
                response.append(buf, static_cast<std::size_t>(n));
        }
    }
    if (fd >= 0)
        ::close(fd);
    const std::size_t body = response.find("\r\n\r\n");
    return body == std::string::npos ? std::string() : response.substr(body + 4);
}

/** One completed cold request (miss or coalesced). */
struct ColdRec
{
    Spec spec;
    std::string client_id;
    std::string request;  ///< daemon-minted id, keys /tracez
    std::string cache;    ///< "miss" or "coalesced" (a late burst: "hit")
    double ms = 0.0;
    std::string report;
    Clock::time_point start;
};

ColdRec
coldRec(const Spec &spec, std::string client_id)
{
    ColdRec r;
    r.spec = spec;
    r.client_id = std::move(client_id);
    return r;
}

/** What one client thread saw. */
struct ClientLog
{
    std::vector<double> hit_ms;
    std::vector<ColdRec> colds;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    /** Traced phase only: start and end of every hit. */
    bool traced = false;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> hit_spans;
};

/** The burst hand-off from the cold connection to the hot one. */
struct Burst
{
    std::mutex mutex;
    std::condition_variable cv;
    std::optional<Spec> pending;
    bool sent = false;
    bool hot_done = false;
};

struct Phase
{
    double wall_s = 0.0;
    ClientLog hot;
    ClientLog cold;
    std::size_t next_cold = 0;
};

/**
 * Send @p line, run @p sent, and classify the result frame into @p log:
 * a hit is compared with @p hot_report; anything else is a cold record.
 * The second request of a burst may legitimately hit, when the leader
 * finished before it arrived (@p may_hit).
 */
void
call(Conn &conn, const std::string &line, ClientLog &log,
     const std::string *hot_report, ColdRec cold, bool may_hit = false,
     const std::function<void()> &sent = {})
{
    ++log.attempted;
    const auto t0 = Clock::now();
    conn.send(line);
    if (sent)
        sent();
    const std::string frame = conn.readResult();
    const auto t1 = Clock::now();
    const double ms = msBetween(t0, t1);
    const std::string_view cache = member(frame, "cache");
    if (frame.rfind("{\"type\":\"result\"", 0) != 0) {
        ++log.failed;
        if (log.errors.size() < 5)
            log.errors.push_back("request failed: " + frame.substr(0, 200));
        return;
    }
    if (cache == "hit" && hot_report != nullptr) {
        log.hit_ms.push_back(ms);
        if (log.traced)
            log.hit_spans.emplace_back(t0, t1);
        if (reportOf(frame) != *hot_report) {
            ++log.failed;
            if (log.errors.size() < 5)
                log.errors.push_back("hit differs from its cold response");
        }
        return;
    }
    if (hot_report != nullptr || (cache == "hit" && !may_hit)) {
        ++log.failed;
        if (log.errors.size() < 5)
            log.errors.push_back("unexpected cache outcome " +
                                 std::string(cache) + " for " +
                                 cold.spec.label());
        return;
    }
    cold.request = member(frame, "request");
    cold.cache = cache;
    cold.ms = ms;
    cold.report = reportOf(frame);
    cold.start = t0;
    log.colds.push_back(std::move(cold));
}

/** Run both connections until @p seconds have passed. */
Phase
runPhase(const Args &args, const std::vector<Spec> &hot,
         const std::vector<std::string> &hot_reports, std::size_t first_cold,
         double seconds, bool traced)
{
    Phase phase;
    phase.next_cold = first_cold;
    phase.hot.traced = traced;
    phase.cold.traced = traced;
    Burst burst;
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration<double>(seconds);

    std::thread hot_thread([&] {
        ClientLog &log = phase.hot;
        try {
            Conn conn(kSocket);
            for (std::size_t i = 0; Clock::now() < deadline; ++i) {
                std::optional<Spec> b;
                {
                    std::lock_guard<std::mutex> lock(burst.mutex);
                    b.swap(burst.pending);
                }
                if (!b) {
                    const std::size_t k = i % hot.size();
                    call(conn, hot[k].line("h-" + std::to_string(i)), log,
                         &hot_reports[k], {});
                    continue;
                }
                // Lead the burst: send first, then release the cold
                // connection to send the same spec.
                const std::string id = "h-" + std::to_string(i);
                call(conn, b->line(id), log, nullptr, coldRec(*b, id), false,
                     [&burst] {
                         std::lock_guard<std::mutex> lock(burst.mutex);
                         burst.sent = true;
                         burst.cv.notify_all();
                     });
            }
        } catch (const std::exception &e) {
            ++log.failed;
            log.errors.push_back(std::string("hot connection: ") + e.what());
        }
        std::lock_guard<std::mutex> lock(burst.mutex);
        burst.hot_done = true;
        burst.cv.notify_all();
    });

    ClientLog &log = phase.cold;
    try {
        Conn conn(kSocket);
        while (Clock::now() < deadline) {
            const std::size_t j = phase.next_cold++;
            const Spec spec = coldSpec(args.seed, j);
            const bool in_burst = j % kBurstEvery == kBurstEvery - 1;
            if (in_burst) {
                std::unique_lock<std::mutex> lock(burst.mutex);
                if (!burst.hot_done) {
                    burst.pending = spec;
                    burst.sent = false;
                    burst.cv.wait(lock,
                                  [&] { return burst.sent || burst.hot_done; });
                    burst.pending.reset();
                }
            }
            const std::string id = "c-" + std::to_string(j);
            call(conn, spec.line(id), log, nullptr, coldRec(spec, id),
                 in_burst);
        }
    } catch (const std::exception &e) {
        ++log.failed;
        log.errors.push_back(std::string("cold connection: ") + e.what());
    }
    hot_thread.join();
    phase.wall_s = secondsBetween(start, Clock::now());
    return phase;
}

/** The daemon's statusz frame, parsed. */
obs::JsonValue
statusz()
{
    Conn conn(kSocket);
    conn.send("{\"type\":\"statusz\",\"id\":\"perfbench\"}\n");
    return obs::parseJson(conn.readResult());
}

std::uint64_t
counter(const obs::JsonValue &status, const char *name)
{
    const obs::JsonValue *v =
        status.at("host_metrics").at("counters").find(name);
    return v == nullptr ? 0 : static_cast<std::uint64_t>(v->number);
}

runner::JobSpec
jobSpecOf(const Spec &spec)
{
    return serve::parseSpec(serve::parseRequest(spec.line("probe")).spec);
}

CoreJob
coreJobOf(const runner::JobSpec &spec)
{
    trace::SyntheticParams params = trace::findWorkload(spec.workload).params;
    params.num_instrs = spec.instrs;
    CoreJob job;
    job.label = spec.workload + "/" + spec.machine;
    job.machine = sim::machineByName(spec.machine);
    job.trace = std::make_unique<trace::SyntheticGenerator>(params);
    job.options = spec.options;
    return job;
}

void
merge(Outcome &out, const ClientLog &log)
{
    out.attempted += log.attempted;
    out.failed += log.failed;
    for (const std::string &e : log.errors)
        out.fail(e);
}

}  // namespace

Outcome
runServeMixed(const Args &args)
{
    Outcome out;
    out.workload = "serve_mixed";
    const int tcp_port = args.trace ? freePort() : -1;
    // Traced, the trace ring must still hold the last cold requests
    // after the hits that follow them.
    const std::size_t trace_capacity = args.trace ? 65536 : 256;

    // Set-up: start a daemon and read its hello, several times; the last
    // daemon serves the run.
    std::vector<double> setups;
    std::unique_ptr<Daemon> daemon;
    for (int i = 0; i < kSetups; ++i) {
        if (daemon && !daemon->stop())
            out.fail("daemon did not drain cleanly");
        daemon.reset();
        const auto t0 = Clock::now();
        daemon = std::make_unique<Daemon>(args.daemon, tcp_port,
                                          trace_capacity);
        daemon->connect();
        setups.push_back(secondsBetween(t0, Clock::now()));
    }

    // Fill the cache with the hot set (untimed); these cold responses
    // are what every later hit must repeat byte for byte.
    const std::vector<Spec> hot = hotSpecs();
    std::vector<std::string> hot_reports;
    {
        std::unique_ptr<Conn> conn = daemon->connect();
        for (std::size_t k = 0; k < hot.size(); ++k) {
            conn->send(hot[k].line("warm-" + std::to_string(k)));
            const std::string frame = conn->readResult();
            if (member(frame, "cache") != "miss")
                out.fail("hot spec " + hot[k].label() + " was not a miss");
            hot_reports.emplace_back(reportOf(frame));
        }
    }

    const double timed_s = args.trace ? args.seconds / 2 : args.seconds;
    Phase plain = runPhase(args, hot, hot_reports, 0, timed_s, false);
    std::optional<Phase> traced;
    if (args.trace)
        traced = runPhase(args, hot, hot_reports, plain.next_cold, timed_s,
                          true);

    const obs::JsonValue status = statusz();
    const double rss_mb = daemon->peakRssMb();
    std::map<std::string, std::string> queue_wait_traces;
    if (traced) {
        // The daemon's own spans of the last leader requests, which its
        // trace ring still holds.
        std::vector<const ColdRec *> leaders;
        for (const ClientLog *log : {&traced->hot, &traced->cold})
            for (const ColdRec &r : log->colds)
                if (r.cache == "miss")
                    leaders.push_back(&r);
        std::sort(leaders.begin(), leaders.end(),
                  [](const ColdRec *a, const ColdRec *b) {
                      return a->start > b->start;
                  });
        leaders.resize(std::min<std::size_t>(leaders.size(), 32));
        for (const ColdRec *r : leaders) {
            std::string body = httpGet(tcp_port, "/tracez?id=" + r->request);
            if (body.find("\"spans\"") != std::string::npos)
                queue_wait_traces[r->client_id] = std::move(body);
        }
    }
    if (!daemon->stop())
        out.fail("daemon did not drain cleanly");
    daemon.reset();

    // Output checks.
    std::vector<const ColdRec *> colds;
    for (const Phase *p : {&plain, traced ? &*traced : nullptr}) {
        if (p == nullptr)
            continue;
        merge(out, p->hot);
        merge(out, p->cold);
        for (const ClientLog *log : {&p->hot, &p->cold})
            for (const ColdRec &r : log->colds)
                colds.push_back(&r);
    }
    std::map<std::string, const ColdRec *> by_label;
    for (const ColdRec *r : colds) {
        std::string why;
        try {
            why = checkReportLaws(obs::parseJson(r->report));
        } catch (const std::exception &e) {
            why = std::string("unparsable report: ") + e.what();
        }
        auto [it, inserted] = by_label.emplace(r->spec.label(), r);
        if (!inserted && it->second->report != r->report)
            why = "burst responses differ";
        if (!why.empty()) {
            ++out.failed;
            out.fail(r->spec.label() + ": " + why);
        }
    }
    for (const std::string &report : hot_reports) {
        const std::string why = checkReportLaws(obs::parseJson(report));
        if (!why.empty())
            out.fail("hot report: " + why);
    }
    // The daemon's cold responses equal in-process serve::simulateSpec.
    std::vector<const ColdRec *> sampled;
    for (std::size_t j = 0; j < kSampled || j < kRecordedColds; ++j) {
        const auto it = by_label.find(coldSpec(args.seed, j).label());
        if (it == by_label.end()) {
            out.fail("cold spec " + std::to_string(j) + " never completed");
            return out;
        }
        sampled.push_back(it->second);
    }
    for (std::size_t j = 0; j < kSampled; ++j)
        if (serve::simulateSpec(jobSpecOf(sampled[j]->spec)) !=
            sampled[j]->report)
            out.fail(sampled[j]->spec.label() +
                     ": daemon report differs from serve::simulateSpec");
    {
        Expected actual;
        std::string all;
        const auto record = [&](const std::string &label,
                                const std::string &report) {
            const obs::JsonValue r = obs::parseJson(report)
                                         .at("jobs").array.at(0)
                                         .at("results").array.at(0);
            actual.jobs[label] = {
                static_cast<std::uint64_t>(r.at("cycles").number),
                static_cast<std::uint64_t>(r.at("instrs").number)};
            all += report;
        };
        for (std::size_t k = 0; k < hot.size(); ++k)
            record("hot/" + hot[k].label(), hot_reports[k]);
        for (std::size_t j = 0; j < kRecordedColds; ++j)
            record("cold/" + std::to_string(j) + "/" +
                       sampled[j]->spec.label(),
                   sampled[j]->report);
        actual.digest = digest(all);
        checkExpected(args, actual, out);
    }
    // The daemon's cache counters agree with what the clients saw.
    std::uint64_t hits = plain.hot.hit_ms.size() +
                         (traced ? traced->hot.hit_ms.size() : 0);
    std::uint64_t misses = hot.size();
    std::uint64_t coalesced = 0;
    for (const ColdRec *r : colds)
        (r->cache == "miss" ? misses
                            : r->cache == "hit" ? hits : coalesced) += 1;
    const obs::JsonValue &cache = status.at("cache");
    if (std::uint64_t(cache.at("hits").number) != hits ||
        std::uint64_t(cache.at("misses").number) != misses ||
        std::uint64_t(cache.at("coalesced").number) != coalesced)
        out.fail("daemon cache counters differ from the clients' outcomes");
    if (counter(status, "serve.trace_conservation_failures_total") != 0)
        out.fail("daemon request spans failed conservation");

    // End-to-end metrics, from the untraced phase.
    std::vector<double> cold_ms;
    std::vector<double> miss_ms;
    double sim_instrs = 0.0;
    for (const ClientLog *log : {&plain.hot, &plain.cold}) {
        for (const ColdRec &r : log->colds) {
            if (r.cache == "hit")
                continue;
            cold_ms.push_back(r.ms);
            if (r.cache == "miss") {
                miss_ms.push_back(r.ms);
                sim_instrs += r.spec.simulated();
            }
        }
    }
    const std::size_t ops = plain.hot.hit_ms.size() + cold_ms.size();
    addEndToEnd(out.end_to_end, setups, plain.wall_s, ops, cold_ms,
                sim_instrs, rss_mb);
    Metric hit50 = percentileMetric("hit_p50_ms", plain.hot.hit_ms, 0.50);
    out.extra.push_back(hit50);
    out.extra.push_back(percentileMetric("hit_p99_ms", plain.hot.hit_ms, 0.99));
    out.extra.push_back(percentileMetric("miss_p50_ms", cold_ms, 0.50));
    out.extra.push_back(percentileMetric("miss_p90_ms", cold_ms, 0.90));
    out.extra.push_back(valueMetric("hits", "count",
                                    double(plain.hot.hit_ms.size()), 1));
    out.extra.push_back(valueMetric("misses", "count", double(miss_ms.size()),
                                    1));
    out.extra.push_back(valueMetric("coalesced", "count",
                                    double(cold_ms.size() - miss_ms.size()),
                                    1));
    if (!traced)
        return out;

    // Per-layer metrics: in-process probes on the sampled cold specs,
    // the daemon's counters and /tracez spans, and the traced phase.
    SpanLog spans;
    CoreLayers layers;
    double simulate_ms = 0.0;
    double serialize_us = 0.0;
    double report_bytes = 0.0;
    for (std::size_t j = 0; j < kSampled; ++j) {
        const ColdRec &r = *sampled[j];
        const runner::JobSpec spec = jobSpecOf(r.spec);
        const CoreJob job = coreJobOf(spec);
        const auto p0 = Clock::now();
        const ProfiledRun p = runProfiled(job);
        const auto p1 = Clock::now();
        const obs::JsonValue res = obs::parseJson(r.report)
                                       .at("jobs").array.at(0)
                                       .at("results").array.at(0);
        if (double(p.cycles) != res.at("cycles").number ||
            double(p.instrs) != res.at("instrs").number)
            out.fail(r.spec.label() +
                     ": profiled core loop differs from the daemon's report");
        layers.addProfiled(p);
        std::uint64_t drained = 0;
        layers.addDrain(drained, drainTrace(*job.trace, drained));
        const auto p2 = Clock::now();
        sim::simulate(job.machine, *job.trace, job.options);
        const auto p3 = Clock::now();
        sim::SimOptions off = job.options;
        off.accounting = false;
        sim::simulate(job.machine, *job.trace, off);
        const auto p4 = Clock::now();
        layers.addAccountingPair(secondsBetween(p2, p3),
                                 secondsBetween(p3, p4));
        // As on a pool worker: the job spans are carved out of the
        // requester's wait phase.
        serve::RequestTrace rt(r.client_id, "analyze", p4);
        rt.begin(serve::Span::kSingleflightWait);
        serve::simulateSpec(spec, &rt);
        const auto p5 = Clock::now();
        const std::shared_ptr<const serve::TraceSummary> sum = rt.finish();
        simulate_ms += double(sum->spanUs(serve::Span::kSimulate)) * 1e-3;
        serialize_us += double(sum->spanUs(serve::Span::kSerialize));
        report_bytes += double(r.report.size());
        const int ps = spans.add("probe", p0, p5, -1, r.client_id);
        spans.add("core.run", p0, p1, ps, r.client_id);
        spans.add("trace.drain", p1, p2, ps, r.client_id);
        spans.add("sim.simulate", p2, p3, ps, r.client_id);
        spans.add("sim.simulate(accounting off)", p3, p4, ps, r.client_id);
        spans.add("serve.simulateSpec", p4, p5, ps, r.client_id);
    }
    const SimCounters daemon_sim{counter(status, "sim.warmup_micros_total"),
                                 counter(status, "sim.measure_micros_total"),
                                 counter(status, "sim.report_micros_total")};
    layers.addSimCounters(daemon_sim);
    layers.emit(out.layers);
    const double n = double(kSampled);
    out.layers.push_back(valueMetric("obs.report_us_per_job", "us",
                                     serialize_us / n, kSampled));
    out.layers.push_back(valueMetric("obs.report_bytes_per_job", "bytes",
                                     report_bytes / n, kSampled));
    const double plain_rate = double(ops) / plain.wall_s;
    const double traced_rate =
        double(traced->hot.hit_ms.size() + traced->hot.colds.size() +
               traced->cold.colds.size()) /
        traced->wall_s;
    out.layers.push_back(valueMetric("tracing_overhead", "share",
                                     plain_rate / traced_rate - 1.0, 2));

    // serve.*: what a hit costs in-process (parse, lookup), the rest of
    // its latency (transport), and the daemon's own spans.
    constexpr int kReplays = 2000;
    const auto q0 = Clock::now();
    for (int i = 0; i < kReplays; ++i)
        jobSpecOf(hot[i % hot.size()]);
    const double parse_us = msBetween(q0, Clock::now()) * 1e3 / kReplays;
    serve::ResultCache cache_replay(64u << 20);
    std::vector<std::string> keys;
    for (std::size_t k = 0; k < hot.size(); ++k) {
        keys.push_back(runner::specHash(jobSpecOf(hot[k])));
        cache_replay.lookup(keys.back());
        cache_replay.complete(keys.back(), hot_reports[k]);
    }
    const auto l0 = Clock::now();
    for (int i = 0; i < kReplays; ++i)
        cache_replay.lookup(keys[i % keys.size()]);
    const double lookup_us = msBetween(l0, Clock::now()) * 1e3 / kReplays;
    double queue_wait_ms = 0.0;
    std::size_t queue_waits = 0;
    for (const auto &entry : queue_wait_traces) {
        const obs::JsonValue trace = obs::parseJson(entry.second);
        for (const obs::JsonValue &s : trace.at("spans").array) {
            if (s.at("span").string == "queue_wait") {
                queue_wait_ms += s.at("dur_us").number * 1e-3;
                ++queue_waits;
            }
        }
    }
    if (queue_waits == 0)
        out.fail("no queue_wait span in the daemon's /tracez");
    const double requests = cache.at("hits").number +
                            cache.at("misses").number +
                            cache.at("coalesced").number;
    out.layers.push_back(valueMetric("serve.parse_us", "us", parse_us,
                                     kReplays));
    out.layers.push_back(valueMetric("serve.lookup_us", "us", lookup_us,
                                     kReplays));
    out.layers.push_back(valueMetric("serve.simulate_ms", "ms",
                                     simulate_ms / n, kSampled));
    out.layers.push_back(valueMetric(
        "serve.transport_us", "us", hit50.value * 1e3 - parse_us - lookup_us,
        hit50.samples));
    out.layers.push_back(valueMetric(
        "serve.queue_wait_ms", "ms",
        queue_waits ? queue_wait_ms / double(queue_waits) : 0.0, queue_waits));
    out.layers.push_back(valueMetric("serve.hit_ratio", "share",
                                     cache.at("hits").number / requests,
                                     std::size_t(requests)));
    out.layers.push_back(valueMetric("serve.coalesced_ratio", "share",
                                     cache.at("coalesced").number / requests,
                                     std::size_t(requests)));

    // Spans of the traced phase: every request, plus the daemon's spans
    // of the leaders fetched from /tracez (same request id).
    for (const ClientLog *log : {&traced->hot, &traced->cold}) {
        for (const auto &[t0, t1] : log->hit_spans)
            spans.add("request(hit)", t0, t1, -1, "");
        for (const ColdRec &r : log->colds) {
            const auto t1 =
                r.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(r.ms));
            const int rs = spans.add("request(" + r.cache + ")", r.start, t1,
                                     -1, r.client_id);
            const auto it = queue_wait_traces.find(r.client_id);
            if (it == queue_wait_traces.end())
                continue;
            const obs::JsonValue trace = obs::parseJson(it->second);
            for (const obs::JsonValue &s : trace.at("spans").array) {
                const auto at = [&](double us) {
                    return r.start +
                           std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::micro>(us));
                };
                const double s0 = s.at("start_us").number;
                spans.add("serve." + s.at("span").string, at(s0),
                          at(s0 + s.at("dur_us").number), rs, r.client_id);
            }
        }
    }
    spans.write(args.out_dir + "/spans-serve_mixed-seed" +
                std::to_string(args.seed) + ".json");
    return out;
}

}  // namespace perfbench
