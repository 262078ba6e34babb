/**
 * @file
 * Shared plumbing of the nucalock benchmark program: arguments, seeds,
 * timing, in-memory spans, round bookkeeping and the metric report.
 *
 * The benchmark measures the library from outside: it only calls public
 * functions of src/ and times those calls. Nothing here is linked into the
 * library itself.
 */
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seed that the committed trajectory and the pinned hashes use. */
inline constexpr std::uint64_t kDefaultSeed = 1;
/** Seed kept out of every tuning run; confirm later claims on it. */
inline constexpr std::uint64_t kHeldOutSeed = 7919;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny inputs and a single round: the self-tests' mode. */
    bool smoke = false;
    /** Stop after this many rounds whatever the time (0 = no cap). */
    int max_rounds = 0;
    /** "broken-tatas": add planted-bug units that the oracle must count
     *  as failures (proves the oracle can fail). */
    std::string plant;
    /** Where the traced run writes its spans (empty = not written). */
    std::string span_file;
    /** Directory of pinned default-seed hashes (empty = no drift count). */
    std::string pins_dir;
    /** Rewrite the pinned hashes instead of comparing against them. */
    bool write_pins = false;
};

/** A sub-seed derived from the workload seed (SplitMix64 finalizer). */
std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

double ns_between(Clock::time_point a, Clock::time_point b);
double ns_since(Clock::time_point t);

/** Linear-interpolated quantile (q in [0,1]) of @p v; 0 when empty. */
double quantile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Peak resident set of this process so far, MiB. */
double peak_rss_mib();
/** Current resident set of this process, MiB. */
double current_rss_mib();

// ---------------------------------------------------------------------------
// Spans: recorded only when tracing is on, kept in memory, written at exit.
// ---------------------------------------------------------------------------

struct SpanRecord
{
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t unit = 0;
};

class Tracer
{
  public:
    void enable(bool on) { on_ = on; }
    bool on() const { return on_; }
    int begin(const char* name, std::uint64_t unit, std::int64_t start_ns);
    void end(int id, std::int64_t end_ns);
    /** Per-name count, total and self time (span minus child coverage). */
    std::string self_time_table() const;
    /** Write every span as JSON to @p path; false on an I/O error. */
    bool write(const std::string& path) const;

  private:
    bool on_ = false;
    int current_ = -1;
    std::vector<SpanRecord> spans_;
};

Tracer& tracer();

/**
 * Times one call into a layer. Always reads the clock (the untraced run
 * needs the duration too); records a span only when tracing is on.
 */
class Span
{
  public:
    explicit Span(const char* name, std::uint64_t unit = 0);
    ~Span() { end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /** Close the span (idempotent); returns its duration in ns. */
    double end();

  private:
    Clock::time_point start_;
    double elapsed_ns_ = -1.0;
    int id_ = -1;
};

// ---------------------------------------------------------------------------
// The report a run prints.
// ---------------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Report
{
  public:
    void set(const std::string& name, double value, const std::string& unit);
    bool has(const std::string& name) const;
    const std::vector<Metric>& metrics() const { return metrics_; }

    /** A human-readable line printed above the JSON result. */
    void note(const std::string& line) { notes_.push_back(line); }
    const std::vector<std::string>& notes() const { return notes_; }

    /** Count units; a failed unit also records why. */
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    void fail_unit(const std::string& what);
    /** A whole-run check failed (determinism, probe neutrality). */
    void fail_check(const std::string& what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return correct_ && failed_ == 0; }

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
};

/**
 * One run's repeated rounds of a workload's fixed work. Every round
 * repeats the same inputs, so round-to-round spread is host noise only.
 *
 * wall_s and work_per_s are totals over the run's timed rounds (mean round
 * time, total work / total time): on a host whose speed switches between
 * modes every few seconds, a total moves smoothly with the share of time
 * spent in each mode where a median over rounds jumps. setup_s is the sum
 * over a round's set-ups of each set-up's median over rounds: a single
 * set-up is tens of µs, so page faults and interrupts make round sums
 * spiky, while per-set-up medians keep every set-up's typical cost.
 * Unit latencies go into a fixed-size uniform reservoir, so memory does
 * not grow with the number of rounds (peak RSS is itself a metric).
 */
class RoundLog
{
  public:
    static constexpr std::size_t kReservoir = 50'000;

    /** @p warm_up: the first round only warms caches and pools and is not
     *  timed (its correctness checks still count). */
    explicit RoundLog(bool warm_up) : warming_(warm_up) {}

    /** End of a round: its wall time and work done. */
    void
    add_round(double wall, double work)
    {
        if (warming_) {
            warming_ = false;
            return;
        }
        wall_s_.push_back(wall);
        work_ += work;
    }

    /** Set-up @p index of the current round took @p seconds. */
    void setup(std::size_t index, double seconds);

    /** One unit's host latency, µs. */
    void unit(double us);

    /** Set the six end-to-end metrics and note the sample counts. */
    void emit(Report& rep, const std::string& work_unit,
              const std::string& latency_unit) const;

  private:
    bool warming_ = false;
    std::vector<double> wall_s_;
    double work_ = 0.0;
    /** Set-up times by set-up index, one entry per timed round. */
    std::vector<std::vector<double>> setup_s_;
    std::vector<double> reservoir_;
    std::uint64_t units_ = 0;
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL; // fixed: same picks per run
};

/** Whether a run of @p args starts with an untimed warm-up round. */
inline bool
warms_up(const Args& args)
{
    return !args.smoke;
}

/**
 * Run rounds until @p args.seconds have elapsed, with at least
 * @p min_rounds and at most @p args.max_rounds (0 = no cap) timed rounds
 * after the warm-up; exactly one round in smoke mode.
 */
template <typename F>
void
for_rounds(const Args& args, int min_rounds, F&& round)
{
    const auto start = Clock::now();
    const int warm = warms_up(args) ? 1 : 0;
    min_rounds += warm;
    const int cap = args.smoke              ? 1
                    : args.max_rounds == 0 ? 0
                                           : args.max_rounds + warm;
    for (int r = 0;; ++r) {
        if (cap != 0 && r >= cap)
            return;
        if (r >= min_rounds && ns_since(start) >= args.seconds * 1e9)
            return;
        round(r);
    }
}

// ---------------------------------------------------------------------------
// Workloads. measure() is the untraced run; layers() the traced pass that
// sets per-layer metrics (and its own trace.overhead_frac when it is the
// named workload, given that workload's untraced round wall time).
// ---------------------------------------------------------------------------

void sim_spin_measure(const Args& args, Report& rep);
void sim_spin_layers(const Args& args, Report& rep, double untraced_wall_s);
void sim_handover_measure(const Args& args, Report& rep);
void sim_handover_layers(const Args& args, Report& rep,
                         double untraced_wall_s);
void check_explore_measure(const Args& args, Report& rep);
void check_explore_layers(const Args& args, Report& rep,
                          double untraced_wall_s);
void native_kv_measure(const Args& args, Report& rep);
void native_kv_layers(const Args& args, Report& rep, double untraced_wall_s);

/** Set trace.overhead_frac from a traced and an untraced round wall. */
void set_trace_overhead(Report& rep, double traced_wall_s,
                        double untraced_wall_s);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
