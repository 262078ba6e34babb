#include "obs/perf_counters.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#if defined(__linux__)
#include <cerrno>
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace nucalock::obs {

// ---------------------------------------------------------------------------
// perf_event_open backend
// ---------------------------------------------------------------------------

#if defined(__linux__)

namespace {

struct EventSpec
{
    CounterEvent event;
    std::uint32_t type;
    std::uint64_t config;
};

constexpr EventSpec kEventSpecs[kNumCounterEvents] = {
    {CounterEvent::Cycles, PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {CounterEvent::Instructions, PERF_TYPE_HARDWARE,
     PERF_COUNT_HW_INSTRUCTIONS},
    {CounterEvent::LlcLoadMisses, PERF_TYPE_HW_CACHE,
     PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
         (PERF_COUNT_HW_CACHE_RESULT_MISS << 16)},
    {CounterEvent::RemoteAccesses, PERF_TYPE_HW_CACHE,
     PERF_COUNT_HW_CACHE_NODE | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
         (PERF_COUNT_HW_CACHE_RESULT_MISS << 16)},
};

int
read_paranoid_level()
{
    std::FILE* f = std::fopen("/proc/sys/kernel/perf_event_paranoid", "re");
    if (f == nullptr)
        return kParanoidUnknown;
    int level = kParanoidUnknown;
    if (std::fscanf(f, "%d", &level) != 1)
        level = kParanoidUnknown;
    std::fclose(f);
    return level;
}

long
perf_event_open_syscall(struct perf_event_attr* attr, pid_t pid, int cpu,
                        int group_fd, unsigned long flags)
{
    return ::syscall(__NR_perf_event_open, attr, pid, cpu, group_fd, flags);
}

std::string
errno_detail(int err, int paranoid)
{
    std::string detail = std::strerror(err);
    if (err == EACCES || err == EPERM) {
        detail += " (perf_event_paranoid=";
        detail += paranoid == kParanoidUnknown ? std::string("?")
                                               : std::to_string(paranoid);
        detail += ")";
    }
    return detail;
}

/**
 * One group on the calling thread: the leader is the first event that
 * opens; later events join it so the kernel schedules (and, under PMU
 * pressure, multiplexes) them as a unit. Events that fail to open are
 * recorded and skipped — their sample slots stay 0.
 */
struct OpenGroup
{
    int leader = -1;
    std::array<int, kNumCounterEvents> fd = {-1, -1, -1, -1};
    /** value_order[k] = event slot of the k-th value in a GROUP read. */
    std::vector<int> value_order;
    std::vector<CounterEventStatus> events;

    void
    close_all()
    {
        for (int& f : fd) {
            if (f >= 0)
                ::close(f);
            f = -1;
        }
        leader = -1;
    }
};

OpenGroup
open_group(int paranoid)
{
    OpenGroup group;
    for (int slot = 0; slot < kNumCounterEvents; ++slot) {
        const EventSpec& spec = kEventSpecs[slot];
        struct perf_event_attr attr;
        std::memset(&attr, 0, sizeof(attr));
        attr.size = sizeof(attr);
        attr.type = spec.type;
        attr.config = spec.config;
        if (group.leader < 0)
            attr.disabled = 1; // siblings stay enabled; the group ioctl arms all
        attr.exclude_kernel = 1;
        attr.exclude_hv = 1;
        attr.inherit = 0;
        attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                           PERF_FORMAT_TOTAL_TIME_RUNNING;
        errno = 0;
        const long fd = perf_event_open_syscall(&attr, 0, -1, group.leader,
                                                PERF_FLAG_FD_CLOEXEC);
        CounterEventStatus status;
        status.event = spec.event;
        if (fd >= 0) {
            status.state = CounterState::Available;
            group.fd[static_cast<std::size_t>(slot)] = static_cast<int>(fd);
            group.value_order.push_back(slot);
            if (group.leader < 0)
                group.leader = static_cast<int>(fd);
        } else if (errno == EACCES || errno == EPERM) {
            status.state = CounterState::Denied;
            status.detail = errno_detail(errno, paranoid);
        } else {
            status.state = CounterState::Unsupported;
            status.detail = errno_detail(errno, paranoid);
        }
        group.events.push_back(status);
    }
    if (group.leader >= 0) {
        ::ioctl(group.leader, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
        ::ioctl(group.leader, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
    }
    return group;
}

class PerfThreadCounters final : public ThreadCounters
{
  public:
    explicit PerfThreadCounters(OpenGroup group) : group_(std::move(group)) {}

    ~PerfThreadCounters() override { group_.close_all(); }

    PerfThreadCounters(const PerfThreadCounters&) = delete;
    PerfThreadCounters& operator=(const PerfThreadCounters&) = delete;

    bool
    read(CounterSample& out) override
    {
        // GROUP layout: nr, time_enabled, time_running, value[nr].
        std::uint64_t buf[3 + kNumCounterEvents] = {};
        const ssize_t n = ::read(group_.leader, buf, sizeof(buf));
        if (n < static_cast<ssize_t>(3 * sizeof(std::uint64_t)))
            return false;
        out = CounterSample{};
        out.time_enabled_ns = buf[1];
        out.time_running_ns = buf[2];
        const std::uint64_t nr = buf[0];
        for (std::uint64_t k = 0; k < nr && k < group_.value_order.size(); ++k)
            out.value[static_cast<std::size_t>(group_.value_order[k])] =
                buf[3 + k];
        return true;
    }

  private:
    OpenGroup group_;
};

std::string
group_unavailable_reason(const OpenGroup& group, int paranoid)
{
    // Prefer the denial story — that is the actionable one.
    for (const CounterEventStatus& e : group.events)
        if (e.state == CounterState::Denied)
            return "perf_event_open denied: " + e.detail;
    (void)paranoid;
    return "no requested hardware event is supported on this host";
}

} // namespace

CounterCapabilities
PerfCounterSource::capabilities()
{
    CounterCapabilities caps;
    caps.source = "perf_event";
    caps.paranoid_level = read_paranoid_level();
    OpenGroup group = open_group(caps.paranoid_level);
    caps.events = group.events;
    if (group.leader < 0) {
        caps.available = false;
        caps.unavailable_reason =
            group_unavailable_reason(group, caps.paranoid_level);
        return caps;
    }
    // Burn a little user time so a read can tell scheduled from rotated.
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 50'000; ++i)
        sink = sink + 1;
    PerfThreadCounters counters(std::move(group));
    CounterSample sample;
    if (counters.read(sample) &&
        sample.time_running_ns < sample.time_enabled_ns) {
        for (CounterEventStatus& e : caps.events)
            if (e.state == CounterState::Available)
                e.state = CounterState::Multiplexed;
    }
    caps.available = true;
    return caps;
}

std::unique_ptr<ThreadCounters>
PerfCounterSource::open_current_thread()
{
    OpenGroup group = open_group(read_paranoid_level());
    if (group.leader < 0)
        return nullptr;
    return std::make_unique<PerfThreadCounters>(std::move(group));
}

#else // !__linux__

CounterCapabilities
PerfCounterSource::capabilities()
{
    CounterCapabilities caps;
    caps.source = "perf_event";
    caps.available = false;
    caps.unavailable_reason = "perf_event_open is Linux-only";
    for (int slot = 0; slot < kNumCounterEvents; ++slot)
        caps.events.push_back(CounterEventStatus{
            static_cast<CounterEvent>(slot), CounterState::Unsupported,
            "not a Linux host"});
    return caps;
}

std::unique_ptr<ThreadCounters>
PerfCounterSource::open_current_thread()
{
    return nullptr;
}

#endif // __linux__

// ---------------------------------------------------------------------------
// FakeCounterSource
// ---------------------------------------------------------------------------

namespace {

class FakeThreadCounters final : public ThreadCounters
{
  public:
    explicit FakeThreadCounters(FakeCounterSource::Steps steps)
        : steps_(steps)
    {
    }

    bool
    read(CounterSample& out) override
    {
        for (int slot = 0; slot < kNumCounterEvents; ++slot) {
            if (steps_.remote_unsupported &&
                slot == static_cast<int>(CounterEvent::RemoteAccesses))
                continue;
            cumulative_.value[static_cast<std::size_t>(slot)] +=
                steps_.per_read[static_cast<std::size_t>(slot)];
        }
        cumulative_.time_enabled_ns += steps_.time_per_read_ns;
        cumulative_.time_running_ns += steps_.time_per_read_ns;
        out = cumulative_;
        return true;
    }

  private:
    FakeCounterSource::Steps steps_;
    CounterSample cumulative_;
};

} // namespace

CounterCapabilities
FakeCounterSource::capabilities()
{
    CounterCapabilities caps;
    caps.source = "fake";
    caps.available = true;
    caps.paranoid_level = kParanoidUnknown;
    for (int slot = 0; slot < kNumCounterEvents; ++slot) {
        CounterEventStatus status;
        status.event = static_cast<CounterEvent>(slot);
        status.state = CounterState::Available;
        if (steps_.remote_unsupported &&
            status.event == CounterEvent::RemoteAccesses) {
            status.state = CounterState::Unsupported;
            status.detail = "disabled by FakeCounterSource::Steps";
        }
        caps.events.push_back(status);
    }
    return caps;
}

std::unique_ptr<ThreadCounters>
FakeCounterSource::open_current_thread()
{
    return std::make_unique<FakeThreadCounters>(steps_);
}

// ---------------------------------------------------------------------------
// NativeTrafficStats folding
// ---------------------------------------------------------------------------

sim::TrafficAttribution
NativeTrafficStats::to_attribution() const
{
    sim::TrafficAttribution attr;
    for (const NativeLockTraffic& lock : per_lock) {
        if (lock.lock_id == 0)
            continue; // fold_traffic reports lock 0 as the unattributed rest
        sim::LockTrafficStats row;
        row.lock_id = lock.lock_id;
        for (int p = 0; p < sim::kNumTxPhases; ++p)
            row.by_phase[static_cast<std::size_t>(p)] =
                proxy_tx(lock.by_phase[static_cast<std::size_t>(p)]);
        attr.per_lock.push_back(row);
    }
    return attr; // per_lock is already sorted by lock_id
}

sim::TrafficStats
NativeTrafficStats::totals() const
{
    sim::TrafficStats t;
    for (const NativeLockTraffic& lock : per_lock) {
        for (const PhaseCounters& cell : lock.by_phase) {
            const sim::TxCount tx = proxy_tx(cell);
            t.local_tx += tx.local_tx;
            t.global_tx += tx.global_tx;
        }
    }
    // Proxy kinding: every counted miss is a fetch; the PMU cannot see
    // invalidations or RMW upgrades separately.
    t.data_fetch_tx = t.local_tx + t.global_tx;
    return t;
}

// ---------------------------------------------------------------------------
// NativeCounterSession
// ---------------------------------------------------------------------------

/**
 * Per-thread recorder: a priming read in the constructor anchors the first
 * window; every transition reads the group, attributes the delta since the
 * previous read to the cell the thread was in, then switches cells.
 * Single-threaded by construction (the owning thread is the only caller),
 * so no locking on the hot path.
 */
class NativeCounterSession::ThreadTrafficRecorder final
    : public native::PhaseRecorder
{
  public:
    explicit ThreadTrafficRecorder(std::unique_ptr<ThreadCounters> counters)
        : counters_(std::move(counters))
    {
        counters_->read(last_);
    }

    void
    on_phase(std::uint64_t lock_id, sim::TxPhase phase) override
    {
        advance(lock_id, phase);
    }

    void
    on_transient_phase(sim::TxPhase phase) override
    {
        advance(cur_lock_, phase); // window ends at the next transition
    }

    /** Attribute the tail window; called once after the thread joined. */
    void
    flush()
    {
        advance(cur_lock_, cur_phase_);
    }

    const std::vector<NativeLockTraffic>& rows() const { return rows_; }
    std::uint64_t samples() const { return samples_; }
    std::uint64_t time_enabled_ns() const { return last_.time_enabled_ns; }
    std::uint64_t time_running_ns() const { return last_.time_running_ns; }

  private:
    void
    advance(std::uint64_t new_lock, sim::TxPhase new_phase)
    {
        CounterSample sample;
        if (!counters_->read(sample))
            return;
        PhaseCounters& cell =
            row_for(cur_lock_)
                .by_phase[static_cast<std::size_t>(cur_phase_)];
        for (int i = 0; i < kNumCounterEvents; ++i) {
            const auto slot = static_cast<std::size_t>(i);
            cell.value[slot] += sample.value[slot] - last_.value[slot];
        }
        last_ = sample;
        cur_lock_ = new_lock;
        cur_phase_ = new_phase;
        ++samples_;
    }

    NativeLockTraffic&
    row_for(std::uint64_t lock_id)
    {
        for (NativeLockTraffic& row : rows_)
            if (row.lock_id == lock_id)
                return row;
        rows_.push_back(NativeLockTraffic{lock_id, {}});
        return rows_.back();
    }

    std::unique_ptr<ThreadCounters> counters_;
    CounterSample last_;
    std::uint64_t cur_lock_ = 0;
    sim::TxPhase cur_phase_ = sim::TxPhase::None;
    std::uint64_t samples_ = 0;
    std::vector<NativeLockTraffic> rows_;
};

NativeCounterSession::NativeCounterSession(CounterSource& source)
    : source_(source), caps_(source.capabilities())
{
}

NativeCounterSession::~NativeCounterSession() = default;

native::PhaseRecorder*
NativeCounterSession::bind_thread(int /*tid*/, int /*cpu*/)
{
    std::unique_ptr<ThreadCounters> counters = source_.open_current_thread();
    if (counters == nullptr)
        return nullptr;
    auto recorder =
        std::make_unique<ThreadTrafficRecorder>(std::move(counters));
    native::PhaseRecorder* raw = recorder.get();
    std::lock_guard<std::mutex> guard(mutex_);
    recorders_.push_back(std::move(recorder));
    return raw;
}

NativeTrafficStats
NativeCounterSession::finish()
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (done_)
        return finished_;
    done_ = true;

    NativeTrafficStats stats;
    stats.paranoid_level = caps_.paranoid_level;
    stats.source = caps_.source;
    stats.events = caps_.events;
    stats.threads = recorders_.size();

    for (auto& recorder : recorders_) {
        recorder->flush();
        stats.samples += recorder->samples();
        stats.time_enabled_ns += recorder->time_enabled_ns();
        stats.time_running_ns += recorder->time_running_ns();
        for (const NativeLockTraffic& row : recorder->rows()) {
            auto it = std::find_if(
                stats.per_lock.begin(), stats.per_lock.end(),
                [&](const NativeLockTraffic& r) {
                    return r.lock_id == row.lock_id;
                });
            if (it == stats.per_lock.end()) {
                stats.per_lock.push_back(row);
            } else {
                for (int p = 0; p < sim::kNumTxPhases; ++p)
                    it->by_phase[static_cast<std::size_t>(p)] +=
                        row.by_phase[static_cast<std::size_t>(p)];
            }
        }
    }
    std::sort(stats.per_lock.begin(), stats.per_lock.end(),
              [](const NativeLockTraffic& a, const NativeLockTraffic& b) {
                  return a.lock_id < b.lock_id;
              });

    if (stats.multiplexed())
        for (CounterEventStatus& e : stats.events)
            if (e.state == CounterState::Available)
                e.state = CounterState::Multiplexed;

    if (!caps_.available) {
        stats.available = false;
        stats.unavailable_reason = caps_.unavailable_reason;
    } else if (stats.threads == 0) {
        stats.available = false;
        stats.unavailable_reason = "no thread opened a counter group";
    } else {
        stats.available = true;
    }

    finished_ = stats;
    return finished_;
}

// ---------------------------------------------------------------------------
// Capability triage (`nucabench --counters`)
// ---------------------------------------------------------------------------

int
print_counter_capabilities(CounterSource& source, std::FILE* out)
{
    const CounterCapabilities caps = source.capabilities();
    std::fprintf(out, "source: %s\n", caps.source.c_str());
    if (caps.paranoid_level == kParanoidUnknown)
        std::fprintf(out, "perf_event_paranoid: unknown\n");
    else
        std::fprintf(out, "perf_event_paranoid: %d\n", caps.paranoid_level);
    bool any_counting = false;
    for (const CounterEventStatus& e : caps.events) {
        if (e.detail.empty())
            std::fprintf(out, "%s: %s\n", counter_event_name(e.event),
                         counter_state_name(e.state));
        else
            std::fprintf(out, "%s: %s (%s)\n", counter_event_name(e.event),
                         counter_state_name(e.state), e.detail.c_str());
        any_counting = any_counting || e.counting();
    }
    if (!caps.available)
        std::fprintf(out, "unavailable: %s\n",
                     caps.unavailable_reason.c_str());
    return any_counting ? 0 : 1;
}

} // namespace nucalock::obs
