#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {

std::uint64_t
derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                      (b * 0xc2b2ae3d27d4eb4fULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z == 0 ? 1 : z;
}

double
ns_between(Clock::time_point a, Clock::time_point b)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double
ns_since(Clock::time_point t)
{
    return ns_between(t, Clock::now());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peak_rss_mib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
current_rss_mib()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0;
    std::uint64_t resident = 0;
    statm >> size >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------

namespace {

std::int64_t
stamp(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

} // namespace

Tracer&
tracer()
{
    static Tracer instance;
    return instance;
}

int
Tracer::begin(const char* name, std::uint64_t unit, std::int64_t start_ns)
{
    spans_.push_back(SpanRecord{name, start_ns, start_ns, current_, unit});
    current_ = static_cast<int>(spans_.size() - 1);
    return current_;
}

void
Tracer::end(int id, std::int64_t end_ns)
{
    SpanRecord& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = end_ns;
    current_ = s.parent;
}

std::string
Tracer::self_time_table() const
{
    struct Row
    {
        std::uint64_t count = 0;
        double total_ns = 0.0;
        double child_ns = 0.0;
    };
    std::map<std::string, Row> rows;
    for (const SpanRecord& s : spans_) {
        Row& row = rows[s.name];
        ++row.count;
        row.total_ns += static_cast<double>(s.end_ns - s.start_ns);
        if (s.parent >= 0)
            rows[spans_[static_cast<std::size_t>(s.parent)].name].child_ns +=
                static_cast<double>(s.end_ns - s.start_ns);
    }
    std::ostringstream os;
    char line[256];
    std::snprintf(line, sizeof line, "  %-34s %8s %12s %12s\n", "span",
                  "count", "total ms", "self ms");
    os << line;
    for (const auto& [name, row] : rows) {
        std::snprintf(line, sizeof line, "  %-34s %8" PRIu64 " %12.3f %12.3f\n",
                      name.c_str(), row.count, row.total_ns / 1e6,
                      (row.total_ns - row.child_ns) / 1e6);
        os << line;
    }
    return os.str();
}

bool
Tracer::write(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
            << ",\"parent\":" << s.parent << ",\"unit\":" << s.unit << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

Span::Span(const char* name, std::uint64_t unit) : start_(Clock::now())
{
    if (tracer().on())
        id_ = tracer().begin(name, unit, stamp(start_));
}

double
Span::end()
{
    if (elapsed_ns_ >= 0.0)
        return elapsed_ns_;
    const Clock::time_point stop = Clock::now();
    elapsed_ns_ = ns_between(start_, stop);
    if (id_ >= 0)
        tracer().end(id_, stamp(stop));
    return elapsed_ns_;
}

// ---------------------------------------------------------------------------

void
Report::set(const std::string& name, double value, const std::string& unit)
{
    for (Metric& m : metrics_)
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    metrics_.push_back(Metric{name, value, unit});
}

bool
Report::has(const std::string& name) const
{
    return std::any_of(metrics_.begin(), metrics_.end(),
                       [&](const Metric& m) { return m.name == name; });
}

void
Report::fail_unit(const std::string& what)
{
    ++failed_;
    if (failed_ <= 10)
        note("FAILED unit: " + what);
}

void
Report::fail_check(const std::string& what)
{
    correct_ = false;
    note("FAILED check: " + what);
}

void
RoundLog::setup(std::size_t index, double seconds)
{
    if (warming_)
        return;
    if (setup_s_.size() <= index)
        setup_s_.resize(index + 1);
    setup_s_[index].push_back(seconds);
}

void
RoundLog::unit(double us)
{
    if (warming_)
        return;
    ++units_;
    if (reservoir_.size() < kReservoir) {
        reservoir_.push_back(us);
        return;
    }
    rng_ = derive(rng_, units_);
    const std::uint64_t slot = rng_ % units_;
    if (slot < kReservoir)
        reservoir_[slot] = us;
}

void
RoundLog::emit(Report& rep, const std::string& work_unit,
               const std::string& latency_unit) const
{
    double total_s = 0.0;
    for (const double w : wall_s_)
        total_s += w;
    rep.set("wall_s", total_s / static_cast<double>(wall_s_.size()), "s");
    rep.set("work_per_s", work_ / total_s, "1/s");
    rep.set("latency_p50_us", quantile(reservoir_, 0.5), "us");
    rep.set("latency_p95_us", quantile(reservoir_, 0.95), "us");
    double setup = 0.0;
    for (const std::vector<double>& samples : setup_s_)
        setup += median(samples);
    rep.set("setup_s", setup, "s");
    rep.set("peak_rss_mb", peak_rss_mib(), "MiB");
    char line[320];
    std::snprintf(line, sizeof line,
                  "timed rounds: %zu; work unit: %s; "
                  "latency unit: %s, %" PRIu64 " samples (%zu kept)%s",
                  wall_s_.size(), work_unit.c_str(), latency_unit.c_str(),
                  units_, reservoir_.size(),
                  units_ >= 200 ? ""
                                : " (fewer than 200: p95 has fewer than 10 "
                                  "samples beyond it)");
    rep.note(line);
    std::string walls = "timed rounds, wall s:";
    for (const double w : wall_s_) {
        std::snprintf(line, sizeof line, " %.4f", w);
        walls += line;
    }
    rep.note(walls);
    std::snprintf(line, sizeof line,
                  "set-ups per round: %zu (setup_s sums their medians)",
                  setup_s_.size());
    rep.note(line);
}

void
set_trace_overhead(Report& rep, double traced_wall_s, double untraced_wall_s)
{
    rep.set("trace.overhead_frac", traced_wall_s / untraced_wall_s - 1.0,
            "ratio");
}

} // namespace perfbench
