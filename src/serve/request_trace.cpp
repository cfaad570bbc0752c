#include "serve/request_trace.hpp"

#include <algorithm>
#include <utility>

#include "obs/json.hpp"
#include "obs/trace_events.hpp"

namespace stackscope::serve {

namespace {

std::int64_t
toUs(RequestTrace::Clock::duration d)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

}  // namespace

std::string_view
toString(Span span)
{
    switch (span) {
      case Span::kAccept: return "accept";
      case Span::kParse: return "parse";
      case Span::kCacheLookup: return "cache_lookup";
      case Span::kQueueWait: return "queue_wait";
      case Span::kSimulate: return "simulate";
      case Span::kSerialize: return "serialize";
      case Span::kSingleflightWait: return "singleflight_wait";
      case Span::kWrite: return "write";
    }
    return "unknown";
}

std::int64_t
TraceSummary::spanUs(Span span) const
{
    std::int64_t total = 0;
    for (const SpanValue &s : spans)
        if (s.span == span)
            total += s.dur_us;
    return total;
}

bool
TraceSummary::hasSpan(Span span) const
{
    for (const SpanValue &s : spans)
        if (s.span == span)
            return true;
    return false;
}

RequestTrace::RequestTrace(std::string id, std::string endpoint,
                           Clock::time_point accept_time)
    : id_(std::move(id)),
      endpoint_(std::move(endpoint)),
      origin_(accept_time),
      open_start_(accept_time)
{
}

void
RequestTrace::begin(Span span)
{
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    phases_.push_back({open_span_, open_start_, now});
    open_span_ = span;
    open_start_ = now;
}

void
RequestTrace::addJobSpan(Span span, Clock::time_point start,
                         Clock::time_point end)
{
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back({span, start, end});
}

void
RequestTrace::setClientId(std::string client_id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    client_id_ = std::move(client_id);
}

void
RequestTrace::setEndpoint(std::string endpoint)
{
    std::lock_guard<std::mutex> lock(mutex_);
    endpoint_ = std::move(endpoint);
}

void
RequestTrace::setOutcome(std::string outcome)
{
    std::lock_guard<std::mutex> lock(mutex_);
    outcome_ = std::move(outcome);
}

void
RequestTrace::setStatus(std::string status)
{
    std::lock_guard<std::mutex> lock(mutex_);
    status_ = std::move(status);
}

std::shared_ptr<const TraceSummary>
RequestTrace::finish()
{
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    phases_.push_back({open_span_, open_start_, now});

    auto out = std::make_shared<TraceSummary>();
    out->id = id_;
    out->client_id = client_id_;
    out->endpoint = endpoint_;
    out->outcome = outcome_;
    out->status = status_;
    out->wall_us = toUs(now - origin_);

    // Durations are differences of origin-relative truncated
    // timestamps, so consecutive phases telescope: their sum equals
    // wall_us *exactly*, with no per-phase rounding residue.
    const auto rel = [this](Clock::time_point t) {
        return toUs(t - origin_);
    };

    // Job spans are carved out of the wait phase they executed inside;
    // everything they don't cover is genuine singleflight_wait.
    std::int64_t job_total_us = 0;
    for (const Phase &j : jobs_)
        job_total_us += rel(j.end) - rel(j.start);

    for (const Phase &p : phases_) {
        const std::int64_t dur = rel(p.end) - rel(p.start);
        if (p.span != Span::kSingleflightWait) {
            if (dur > 0 || p.span != Span::kAccept)
                out->spans.push_back({p.span, rel(p.start), dur});
            continue;
        }
        // The wait phase: emit the worker's spans (leader) then the
        // remainder. A coalesced waiter has no job spans, so the whole
        // phase is singleflight_wait — exactly the right attribution.
        for (const Phase &j : jobs_) {
            out->spans.push_back(
                {j.span, rel(j.start), rel(j.end) - rel(j.start)});
        }
        const std::int64_t remainder = dur - job_total_us;
        out->spans.push_back(
            {Span::kSingleflightWait, rel(p.start),
             std::max<std::int64_t>(remainder, 0)});
    }

    // Conservation: phases partition wall time by construction, so the
    // only residue is a job overshoot past its wait phase (cross-thread
    // clock jitter) or the dropped zero-length accept phase.
    std::int64_t sum = 0;
    for (const TraceSummary::SpanValue &s : out->spans)
        sum += s.dur_us;
    out->conservation_error_us =
        sum > out->wall_us ? sum - out->wall_us : out->wall_us - sum;
    out->conservation_ok = out->conservation_error_us <= kToleranceUs;

    // Canonical stack order for the JSON rendering (timeline order and
    // stack order differ only in where singleflight_wait sits).
    std::stable_sort(out->spans.begin(), out->spans.end(),
                     [](const TraceSummary::SpanValue &a,
                        const TraceSummary::SpanValue &b) {
                         return static_cast<int>(a.span) <
                                static_cast<int>(b.span);
                     });
    return out;
}

TraceStore::TraceStore(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

void
TraceStore::add(std::shared_ptr<const TraceSummary> trace)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.push_back(std::move(trace));
    while (ring_.size() > capacity_)
        ring_.pop_front();
}

std::shared_ptr<const TraceSummary>
TraceStore::find(std::string_view id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = ring_.rbegin(); it != ring_.rend(); ++it)
        if ((*it)->id == id)
            return *it;
    return nullptr;
}

std::vector<std::shared_ptr<const TraceSummary>>
TraceStore::recent(std::size_t limit) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::shared_ptr<const TraceSummary>> out;
    for (auto it = ring_.rbegin(); it != ring_.rend() && out.size() < limit;
         ++it)
        out.push_back(*it);
    return out;
}

std::string
traceJson(const TraceSummary &trace)
{
    obs::JsonWriter w;
    w.beginObject()
        .key("schema").value("stackscope-request-trace")
        .key("version").value(1)
        .key("request").value(trace.id)
        .key("id").value(trace.client_id)
        .key("endpoint").value(trace.endpoint)
        .key("outcome").value(trace.outcome)
        .key("status").value(trace.status)
        .key("wall_us").value(trace.wall_us)
        .key("spans").beginArray();
    for (const TraceSummary::SpanValue &s : trace.spans) {
        w.beginObject()
            .key("span").value(toString(s.span))
            .key("start_us").value(s.start_us)
            .key("dur_us").value(s.dur_us)
            .endObject();
    }
    w.endArray()
        .key("conservation_ok").value(trace.conservation_ok)
        .key("conservation_error_us").value(trace.conservation_error_us)
        .endObject();
    return w.take();
}

std::string
traceChromeJson(const TraceSummary &trace)
{
    // Lane 0: the connection thread's phases (plus the singleflight
    // remainder, which never overlaps the next phase). Lane 1: the pool
    // worker's job spans, carved out of the wait window.
    std::vector<obs::HostSpan> spans;
    spans.reserve(trace.spans.size());
    for (const TraceSummary::SpanValue &s : trace.spans) {
        const bool job = s.span == Span::kQueueWait ||
                         s.span == Span::kSimulate ||
                         s.span == Span::kSerialize;
        spans.push_back({std::string(toString(s.span)),
                         job ? "job" : "request", s.start_us, s.dur_us,
                         job ? 1 : 0});
    }
    return obs::hostSpansChromeJson("request " + trace.id,
                                    {"connection", "job"}, spans);
}

std::string
traceIndexJson(const std::vector<std::shared_ptr<const TraceSummary>> &traces)
{
    obs::JsonWriter w;
    w.beginObject().key("traces").beginArray();
    for (const auto &t : traces) {
        w.beginObject()
            .key("request").value(t->id)
            .key("endpoint").value(t->endpoint)
            .key("outcome").value(t->outcome)
            .key("status").value(t->status)
            .key("wall_us").value(t->wall_us)
            .endObject();
    }
    w.endArray().endObject();
    return w.take();
}

}  // namespace stackscope::serve
