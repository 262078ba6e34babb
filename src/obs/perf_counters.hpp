/**
 * @file
 * The hardware-counter observatory: grouped per-thread perf_event counters
 * (cycles, instructions, LLC load misses, node/remote accesses) read at the
 * probe layer's phase-transition sites on the native backend, so counter
 * deltas are attributed per lock and per sim::TxPhase — the real-hardware
 * counterpart of the simulator's coherence-traffic attribution.
 *
 * Layering: CounterSource abstracts where samples come from (the
 * perf_event_open backend, or a deterministic FakeCounterSource for tests);
 * NativeCounterSession implements native::PhaseHooks on top of any source
 * and folds the per-thread recordings into a NativeTrafficStats, which maps
 * onto the existing sim::TrafficAttribution shape via to_attribution() so
 * fold_traffic, `nucabench --traffic`, and the fig7-style per-phase tables
 * work unmodified on real hardware.
 *
 * Counters are a *proxy*, not a ground truth: LLC load misses stand in for
 * coherence transactions and node/remote-access events (where the PMU
 * exposes them) for global ones. The subsystem degrades gracefully —
 * perf_event_paranoid, missing PMUs, and containers produce a
 * machine-readable "unavailable" marker, never a failed run.
 */
#ifndef NUCALOCK_OBS_PERF_COUNTERS_HPP
#define NUCALOCK_OBS_PERF_COUNTERS_HPP

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "native/phase_hooks.hpp"
#include "sim/traffic.hpp"

namespace nucalock::obs {

/** The events every counter group requests, in slot order. */
enum class CounterEvent : std::uint8_t
{
    Cycles = 0,     ///< PERF_COUNT_HW_CPU_CYCLES
    Instructions,   ///< PERF_COUNT_HW_INSTRUCTIONS
    LlcLoadMisses,  ///< HW_CACHE LL | READ | MISS — the traffic proxy
    RemoteAccesses, ///< HW_CACHE NODE | READ | MISS — the *global* proxy
};

inline constexpr int kNumCounterEvents = 4;

/** Stable event mnemonic (used in reports, --counters output, tests). */
inline const char*
counter_event_name(CounterEvent event)
{
    switch (event) {
      case CounterEvent::Cycles: return "cycles";
      case CounterEvent::Instructions: return "instructions";
      case CounterEvent::LlcLoadMisses: return "llc_load_misses";
      case CounterEvent::RemoteAccesses: return "remote_accesses";
    }
    return "?";
}

/** Per-event availability verdict from a capability probe or session. */
enum class CounterState : std::uint8_t
{
    Available = 0, ///< opened and counting full-time
    Multiplexed,   ///< opened, but the PMU rotated it (scaled values)
    Denied,        ///< EACCES/EPERM — perf_event_paranoid or LSM policy
    Unsupported,   ///< the PMU (or kernel) does not expose the event
};

inline const char*
counter_state_name(CounterState state)
{
    switch (state) {
      case CounterState::Available: return "available";
      case CounterState::Multiplexed: return "multiplexed";
      case CounterState::Denied: return "denied";
      case CounterState::Unsupported: return "unsupported";
    }
    return "?";
}

/** One event's verdict, with an errno/paranoid explanation when negative. */
struct CounterEventStatus
{
    CounterEvent event = CounterEvent::Cycles;
    CounterState state = CounterState::Unsupported;
    /** Empty when available; otherwise e.g. "EACCES (perf_event_paranoid=4)". */
    std::string detail;

    bool
    counting() const
    {
        return state == CounterState::Available ||
               state == CounterState::Multiplexed;
    }
};

/** paranoid_level sentinel: /proc/sys/kernel/perf_event_paranoid unreadable. */
inline constexpr int kParanoidUnknown = -1000;

/** What a source can deliver on this host, probed before any run. */
struct CounterCapabilities
{
    /** True when at least one event of a trial group opened and counted. */
    bool available = false;
    /** Required (non-empty) when !available; machine-readable-ish prose. */
    std::string unavailable_reason;
    /** /proc/sys/kernel/perf_event_paranoid, or kParanoidUnknown. */
    int paranoid_level = kParanoidUnknown;
    /** Source identity: "perf_event" or "fake". */
    std::string source;
    /** One entry per CounterEvent, in slot order. */
    std::vector<CounterEventStatus> events;
};

/** One cumulative reading of a thread's counter group. */
struct CounterSample
{
    std::array<std::uint64_t, kNumCounterEvents> value{};
    std::uint64_t time_enabled_ns = 0;
    std::uint64_t time_running_ns = 0;

    std::uint64_t
    at(CounterEvent event) const
    {
        return value[static_cast<std::size_t>(event)];
    }
};

/**
 * A per-thread counter group. read() fills cumulative event values (slots
 * that failed to open stay 0) plus the group's enabled/running times —
 * running < enabled means the kernel multiplexed the group and values are
 * undercounted by roughly running/enabled.
 */
class ThreadCounters
{
  public:
    virtual ~ThreadCounters() = default;
    virtual bool read(CounterSample& out) = 0;
};

/**
 * Where counter samples come from. open_current_thread() must be called on
 * the thread to be counted (perf groups bind to the calling thread) and
 * returns nullptr when no counters can be opened there.
 */
class CounterSource
{
  public:
    virtual ~CounterSource() = default;
    virtual CounterCapabilities capabilities() = 0;
    virtual std::unique_ptr<ThreadCounters> open_current_thread() = 0;
};

/**
 * The perf_event_open(2) backend. Opens one group per thread (leader =
 * first event that opens; siblings join it) with PERF_FORMAT_GROUP +
 * TOTAL_TIME_ENABLED/RUNNING, exclude_kernel, no inherit. On non-Linux
 * builds, and wherever perf_event_open is denied or unsupported, it
 * reports unavailable instead of failing.
 */
class PerfCounterSource final : public CounterSource
{
  public:
    CounterCapabilities capabilities() override;
    std::unique_ptr<ThreadCounters> open_current_thread() override;
};

/**
 * Deterministic source for tests: every read() advances each event by a
 * fixed per-read step (time_enabled == time_running, never multiplexed),
 * so phase attribution is exactly predictable from the number of
 * transitions a thread performed.
 */
class FakeCounterSource final : public CounterSource
{
  public:
    struct Steps
    {
        /** Added to {cycles, instructions, llc, remote} on every read. */
        std::array<std::uint64_t, kNumCounterEvents> per_read = {1000, 500,
                                                                 10, 3};
        /** time_enabled_ns == time_running_ns advance per read. */
        std::uint64_t time_per_read_ns = 100;
        /** Report the remote-access slot as unsupported (proxy-math test). */
        bool remote_unsupported = false;
    };

    FakeCounterSource() = default;
    explicit FakeCounterSource(Steps steps) : steps_(steps) {}

    CounterCapabilities capabilities() override;
    std::unique_ptr<ThreadCounters> open_current_thread() override;

  private:
    Steps steps_;
};

/** Counter deltas accumulated into one (lock, phase) attribution cell. */
struct PhaseCounters
{
    std::array<std::uint64_t, kNumCounterEvents> value{};

    std::uint64_t
    at(CounterEvent event) const
    {
        return value[static_cast<std::size_t>(event)];
    }

    PhaseCounters&
    operator+=(const PhaseCounters& rhs)
    {
        for (int i = 0; i < kNumCounterEvents; ++i)
            value[static_cast<std::size_t>(i)] +=
                rhs.value[static_cast<std::size_t>(i)];
        return *this;
    }

    bool
    empty() const
    {
        for (std::uint64_t v : value)
            if (v != 0)
                return false;
        return true;
    }
};

/** Hardware-counter deltas attributed to one lock, split by phase. */
struct NativeLockTraffic
{
    /** The lock's probe identity (NativeRef::token()); 0 = unattributed. */
    std::uint64_t lock_id = 0;
    /** Indexed by sim::TxPhase. */
    std::array<PhaseCounters, sim::kNumTxPhases> by_phase{};

    const PhaseCounters&
    phase(sim::TxPhase p) const
    {
        return by_phase[static_cast<std::size_t>(p)];
    }

    PhaseCounters
    totals() const
    {
        PhaseCounters t;
        for (const PhaseCounters& c : by_phase)
            t += c;
        return t;
    }
};

/**
 * The hardware-counter traffic picture of one native run — schema v6's
 * per-run `native_traffic` object. Always well-formed: when counters are
 * unavailable the marker fields say why and per_lock is empty, and the run
 * that produced it exits identically either way.
 */
struct NativeTrafficStats
{
    /** False ⇒ unavailable_reason says why and no counts were taken. */
    bool available = false;
    std::string unavailable_reason;
    /** /proc/sys/kernel/perf_event_paranoid, or kParanoidUnknown. */
    int paranoid_level = kParanoidUnknown;
    /** "perf_event" or "fake". */
    std::string source;
    /** Per-event verdicts (upgraded to Multiplexed when the group rotated). */
    std::vector<CounterEventStatus> events;

    /** Phase transitions recorded (counter reads − per-thread priming). */
    std::uint64_t samples = 0;
    /** Threads that successfully opened a counter group. */
    std::uint64_t threads = 0;
    /** Group scheduling times summed over threads (multiplex detection). */
    std::uint64_t time_enabled_ns = 0;
    std::uint64_t time_running_ns = 0;

    /**
     * Sorted by lock_id. A lock_id-0 row carries deltas outside any lock
     * operation (workload compute, harness bookkeeping) — the native
     * analogue of fold_traffic's unattributed remainder.
     */
    std::vector<NativeLockTraffic> per_lock;

    bool
    multiplexed() const
    {
        return time_running_ns < time_enabled_ns;
    }

    /** True when the node/remote-access slot actually counted. */
    bool
    remote_counted() const
    {
        for (const CounterEventStatus& e : events)
            if (e.event == CounterEvent::RemoteAccesses)
                return e.counting();
        return false;
    }

    /**
     * Map one cell's counters onto the local/global transaction proxy:
     * with a node-access event, global = remote misses and local = the
     * remaining LLC misses; without one, every LLC miss is conservatively
     * counted global (remote-vs-local is exactly what the missing event
     * would distinguish).
     */
    sim::TxCount
    proxy_tx(const PhaseCounters& cell) const
    {
        const std::uint64_t llc = cell.at(CounterEvent::LlcLoadMisses);
        const std::uint64_t remote = cell.at(CounterEvent::RemoteAccesses);
        sim::TxCount tx;
        if (remote_counted()) {
            tx.global_tx = remote;
            tx.local_tx = llc > remote ? llc - remote : 0;
        } else {
            tx.global_tx = llc;
            tx.local_tx = 0;
        }
        return tx;
    }

    /**
     * Fold into the simulator's attribution shape (per-lock rows only; the
     * lock_id-0 row is excluded so fold_traffic reports it as unattributed,
     * and per_node stays empty — perf counts threads, not home nodes).
     */
    sim::TrafficAttribution to_attribution() const;

    /** Proxy totals over every row including lock 0 (TrafficStats shape). */
    sim::TrafficStats totals() const;
};

/**
 * A recording session: install on a NativeMachine via install_phase_hooks,
 * run threads, then finish() once all threads have joined. bind_thread
 * opens this thread's counter group through the source and hands the
 * machine a recorder that snapshots the group at every phase transition,
 * accumulating the delta into the cell the thread was in *until* the
 * transition. finish() flushes each thread's tail, merges all threads,
 * and renders the verdicts (multiplexing, availability) into the stats.
 */
class NativeCounterSession final : public native::PhaseHooks
{
  public:
    explicit NativeCounterSession(CounterSource& source);
    ~NativeCounterSession() override;

    NativeCounterSession(const NativeCounterSession&) = delete;
    NativeCounterSession& operator=(const NativeCounterSession&) = delete;

    /** Called by NativeMachine::make_context on the context's own thread. */
    native::PhaseRecorder* bind_thread(int tid, int cpu) override;

    /**
     * Collect the merged stats. Call only after every recording thread has
     * joined; idempotent (subsequent calls return the same snapshot).
     */
    NativeTrafficStats finish();

  private:
    class ThreadTrafficRecorder;

    CounterSource& source_;
    CounterCapabilities caps_;
    std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadTrafficRecorder>> recorders_;
    NativeTrafficStats finished_;
    bool done_ = false;
};

/**
 * Capability triage for `nucabench --counters`: one line per event
 * (available / multiplexed / denied / unsupported with detail), prefixed
 * by the paranoid level. Returns 0 when any event counts, 1 otherwise —
 * informational, callers must not fail runs on it.
 */
int print_counter_capabilities(CounterSource& source, std::FILE* out);

} // namespace nucalock::obs

#endif // NUCALOCK_OBS_PERF_COUNTERS_HPP
