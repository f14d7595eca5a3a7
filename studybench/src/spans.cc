#include "spans.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace studybench {

namespace {

std::mutex gMutex;
std::vector<Span> gSpans;                          // guarded by gMutex
std::map<std::thread::id, uint32_t> gThreadIds;    // guarded by gMutex
std::atomic<uint64_t> gNextId{1};

// Open spans of this thread, innermost last: the parent of a new span.
thread_local std::vector<uint64_t> tOpen;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

double
Span::arg(const std::string &key, double fallback) const
{
    for (const auto &[k, v] : args)
        if (k == key)
            return v;
    return fallback;
}

const std::vector<std::string> &
namedLayers()
{
    static const std::vector<std::string> layers = {
        "workload", "analysis", "core", "sim",
        "sample",   "experiment", "svc",
    };
    return layers;
}

std::string
layerOf(const std::string &spanName)
{
    return spanName.substr(0, spanName.find('.'));
}

bool
isNamedLayer(const std::string &spanName)
{
    const auto &layers = namedLayers();
    return std::find(layers.begin(), layers.end(), layerOf(spanName)) !=
           layers.end();
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

uint32_t
Tracer::threadId()
{
    std::lock_guard<std::mutex> lock(gMutex);
    auto [it, inserted] = gThreadIds.try_emplace(
        std::this_thread::get_id(),
        static_cast<uint32_t>(gThreadIds.size() + 1));
    return it->second;
}

void
Tracer::close(Span &&span)
{
    std::lock_guard<std::mutex> lock(gMutex);
    gSpans.push_back(std::move(span));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(gMutex);
    return gSpans;
}

Tracer::Scope::Scope(std::string name)
{
    Tracer &t = Tracer::instance();
    if (!t.enabled())
        return;
    live_ = true;
    span_.name = std::move(name);
    span_.id = gNextId.fetch_add(1);
    span_.parent = tOpen.empty() ? 0 : tOpen.back();
    span_.tid = t.threadId();
    tOpen.push_back(span_.id);
    span_.startNs = t.nowNs();
}

Tracer::Scope::~Scope()
{
    if (!live_)
        return;
    Tracer &t = Tracer::instance();
    span_.endNs = t.nowNs();
    tOpen.pop_back();
    t.close(std::move(span_));
}

void
Tracer::Scope::arg(std::string key, double value)
{
    if (live_)
        span_.args.emplace_back(std::move(key), value);
}

void
writeChromeTrace(const std::vector<Span> &all, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write trace file " + path);
    os << "[\n";
    bool first = true;
    for (const Span &s : all) {
        os << (first ? "" : ",\n") << "{\"name\":\"" << jsonEscape(s.name)
           << "\",\"cat\":\"" << jsonEscape(layerOf(s.name))
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
           << ",\"ts\":" << double(s.startNs) / 1e3
           << ",\"dur\":" << double(s.endNs - s.startNs) / 1e3
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent;
        for (const auto &[k, v] : s.args)
            os << ",\"" << jsonEscape(k) << "\":" << v;
        os << "}}";
        first = false;
    }
    os << "\n]\n";
    if (!os)
        throw std::runtime_error("short write to trace file " + path);
}

std::vector<double>
selfSeconds(const std::vector<Span> &spans)
{
    std::unordered_map<uint64_t, size_t> index;
    for (size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].seconds();
    for (const Span &s : spans) {
        auto it = index.find(s.parent);
        if (it != index.end())
            self[it->second] -= s.seconds();
    }
    return self;
}

double
layerCoverage(const std::vector<Span> &spans, const Span &phase)
{
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (const Span &s : spans) {
        if (!isNamedLayer(s.name))
            continue;
        int64_t a = std::max(s.startNs, phase.startNs);
        int64_t b = std::min(s.endNs, phase.endNs);
        if (b > a)
            iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, reach = phase.startNs;
    for (auto [a, b] : iv) {
        a = std::max(a, reach);
        if (b > a) {
            covered += b - a;
            reach = b;
        }
    }
    int64_t wall = phase.endNs - phase.startNs;
    return wall > 0 ? double(covered) / double(wall) : 0.0;
}

} // namespace studybench
