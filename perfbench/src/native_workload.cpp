/**
 * @file
 * native-kv: real threads on a 2-logical-node NativeMachine. Contended
 * acquire/touch/release for TATAS, MCS, HBO_GT, HBO_GT_SD and ADAPTIVE;
 * then a Zipf read/write/scan/insert mix on structs::StripedMap; then
 * single-thread uncontended acquire/release per lock. The only workload
 * where the locks' own atomics, backoff and fences are the cost and the
 * simulator does no work.
 *
 * Thread count: 4 on hosts with at least 8 cpus, else 2, so the spinning
 * threads never outnumber the cpus and a preempted holder is rare. A
 * unit is one sampled op: every 16th contended acquire..release and every
 * 4th map op is timed.
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/workload.hpp"
#include "bench.hpp"
#include "locks/any_lock.hpp"
#include "native/machine.hpp"
#include "structs/stats.hpp"
#include "structs/striped_map.hpp"

namespace perfbench {

namespace {

using nucalock::Placement;
using nucalock::Topology;
using nucalock::locks::AnyLock;
using nucalock::locks::LockKind;
using nucalock::native::NativeContext;
using nucalock::native::NativeMachine;
using nucalock::native::NativeRef;

constexpr LockKind kLocks[] = {LockKind::Tatas, LockKind::Mcs, LockKind::HboGt,
                               LockKind::HboGtSd, LockKind::Adaptive};
constexpr LockKind kMapLocks[] = {LockKind::Tatas, LockKind::HboGt};
constexpr std::uint64_t kKeyspace = 512;
constexpr std::uint64_t kFreshBase = 1'000'000;

int
native_threads()
{
    return std::thread::hardware_concurrency() >= 8 ? 4 : 2;
}

struct Sizes
{
    std::uint64_t contended_iters; // per thread per lock
    std::uint64_t map_ops;         // per thread per map
    std::uint64_t uncontended;     // per lock
};

Sizes
sizes_of(const Args& args)
{
    if (args.smoke)
        return {2000, 2000, 2000};
    return {100'000, 40'000, 200'000};
}

/** Per-thread samples, merged after the threads join. */
struct Samples
{
    std::vector<double> acquire_ns;
    std::vector<double> cs_ns;
    std::vector<double> release_ns;
    std::vector<double> op_us; // whole sampled op, µs (the latency unit)
    std::vector<double> read_ns;
    std::vector<double> write_ns;
    std::vector<double> scan_ns;

    /** Size every buffer up front, on the calling thread, so the timed
     *  threads never allocate (allocation would grow per-thread malloc
     *  arenas and make peak RSS vary from run to run). */
    void
    reserve(std::size_t ops, std::size_t map_ops)
    {
        acquire_ns.reserve(ops);
        cs_ns.reserve(ops);
        release_ns.reserve(ops);
        op_us.reserve(ops + map_ops);
        read_ns.reserve(map_ops);
        write_ns.reserve(map_ops);
        scan_ns.reserve(map_ops);
    }

    void
    merge(const Samples& o)
    {
        auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
            a.insert(a.end(), b.begin(), b.end());
        };
        cat(acquire_ns, o.acquire_ns);
        cat(cs_ns, o.cs_ns);
        cat(release_ns, o.release_ns);
        cat(op_us, o.op_us);
        cat(read_ns, o.read_ns);
        cat(write_ns, o.write_ns);
        cat(scan_ns, o.scan_ns);
    }
};

/** Releases every thread at once after all have started; records when the
 *  last one arrived (the end of thread spawning). */
class StartGate
{
  public:
    explicit StartGate(int threads) : threads_(threads) {}

    void
    arrive()
    {
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == threads_) {
            last_arrival_ = Clock::now();
            open_.store(true, std::memory_order_release);
        }
        while (!open_.load(std::memory_order_acquire))
            std::this_thread::yield();
    }

    Clock::time_point last_arrival() const { return last_arrival_; }

  private:
    const int threads_;
    std::atomic<int> arrived_{0};
    std::atomic<bool> open_{false};
    Clock::time_point last_arrival_{};
};

struct RoundOut
{
    std::uint64_t acquisitions = 0;
    /** Each machine's construction (+ preload), in build order. */
    std::vector<double> setup_ns;
    double spawn_ns = 0.0;
    std::uint64_t spawned = 0;
    double uncontended_ns = 0.0; // mean per acquire+release pair
    nucalock::structs::KvStructsStats kv;
    Samples samples;
};

void
contended(LockKind kind, const Sizes& sz, int threads, RoundOut& out,
          Report& rep)
{
    Span span("native.contended");
    const Clock::time_point t0 = Clock::now();
    NativeMachine machine(Topology::symmetric(2, threads / 2));
    AnyLock<NativeContext> lock(machine, kind);
    const NativeRef shared = machine.alloc_array(4, 0);
    std::uint64_t counter = 0; // guarded by the lock: the lost-update oracle
    StartGate gate(threads);
    std::vector<Samples> per_thread(static_cast<std::size_t>(threads));
    for (Samples& s : per_thread)
        s.reserve(sz.contended_iters / 16 + 1, 0);
    const Clock::time_point spawn = Clock::now();
    out.setup_ns.push_back(ns_between(t0, spawn));
    machine.run_threads(
        threads, Placement::RoundRobinNodes, [&](NativeContext& ctx, int t) {
            Samples& local = per_thread[static_cast<std::size_t>(t)];
            gate.arrive();
            for (std::uint64_t i = 0; i < sz.contended_iters; ++i) {
                if ((i & 15) != 0) {
                    lock.acquire(ctx);
                    ctx.touch_array(shared, 4, /*write=*/true);
                    ++counter;
                    lock.release(ctx);
                } else {
                    const Clock::time_point a = Clock::now();
                    lock.acquire(ctx);
                    const Clock::time_point b = Clock::now();
                    ctx.touch_array(shared, 4, /*write=*/true);
                    ++counter;
                    const Clock::time_point c = Clock::now();
                    lock.release(ctx);
                    const Clock::time_point d = Clock::now();
                    local.acquire_ns.push_back(ns_between(a, b));
                    local.cs_ns.push_back(ns_between(b, c));
                    local.release_ns.push_back(ns_between(c, d));
                    local.op_us.push_back(ns_between(a, d) / 1e3);
                }
                ctx.delay(64); // private work between critical sections
            }
        });
    for (const Samples& local : per_thread)
        out.samples.merge(local);
    out.spawn_ns += ns_between(spawn, gate.last_arrival());
    out.spawned += static_cast<std::uint64_t>(threads);
    const std::uint64_t expected =
        static_cast<std::uint64_t>(threads) * sz.contended_iters;
    out.acquisitions += expected;
    rep.attempt();
    if (counter != expected)
        rep.fail_unit(std::string(nucalock::locks::lock_name(kind)) +
                      ": lost update (" + std::to_string(counter) + " of " +
                      std::to_string(expected) + ")");
}

void
kv_map(LockKind kind, std::uint64_t seed, const Sizes& sz, int threads,
       RoundOut& out, Report& rep)
{
    using Map = nucalock::structs::StripedMap<NativeContext>;
    Span span("native.kv");
    const Clock::time_point t0 = Clock::now();
    nucalock::native::NativeConfig ncfg;
    ncfg.seed = seed;
    NativeMachine machine(Topology::symmetric(2, threads / 2), ncfg);
    Map::Config cfg;
    cfg.stripes = 4;
    cfg.initial_buckets = 8;
    cfg.max_load_factor = 2.0; // cooperative resizes happen mid-run
    Map map(machine, kind, cfg);
    {
        NativeContext warm = machine.make_context(0, 0);
        for (std::uint64_t k = 0; k < kKeyspace; ++k)
            map.put(warm, k, k);
    }
    const nucalock::apps::ZipfSampler zipf(kKeyspace, 0.9);
    StartGate gate(threads);
    std::vector<Samples> per_thread(static_cast<std::size_t>(threads));
    for (Samples& s : per_thread)
        s.reserve(0, sz.map_ops / 4 + 1);
    std::vector<std::uint64_t> fresh_per_thread(
        static_cast<std::size_t>(threads), 0);
    std::vector<nucalock::structs::KvStructsStats> per_thread_counts(
        static_cast<std::size_t>(threads));
    const Clock::time_point spawn = Clock::now();
    out.setup_ns.push_back(ns_between(t0, spawn));
    machine.run_threads(
        threads, Placement::RoundRobinNodes, [&](NativeContext& ctx, int t) {
            Samples& local = per_thread[static_cast<std::size_t>(t)];
            nucalock::structs::KvStructsStats& counts =
                per_thread_counts[static_cast<std::size_t>(t)];
            std::uint64_t fresh = 0;
            gate.arrive();
            for (std::uint64_t i = 0; i < sz.map_ops; ++i) {
                const auto key =
                    static_cast<std::uint64_t>(zipf.sample(ctx.rng()));
                const std::uint64_t dice = ctx.rng().next_below(100);
                const bool sampled = (i & 3) == 0;
                const Clock::time_point a =
                    sampled ? Clock::now() : Clock::time_point{};
                std::vector<double>* bucket = nullptr;
                if (dice < 70) {
                    if (map.get(ctx, key).has_value())
                        ++counts.hits;
                    else
                        ++counts.misses;
                    ++counts.reads;
                    bucket = &local.read_ns;
                } else if (dice < 90) {
                    map.put(ctx, key, i);
                    ++counts.writes;
                    bucket = &local.write_ns;
                } else if (dice < 95) {
                    map.scan(ctx, key, 16);
                    ++counts.scans;
                    bucket = &local.scan_ns;
                } else {
                    map.put(ctx,
                            kFreshBase * (2 + static_cast<std::uint64_t>(t)) +
                                fresh,
                            fresh);
                    ++fresh;
                    ++counts.inserts;
                    bucket = &local.write_ns;
                }
                if (sampled) {
                    const double ns = ns_since(a);
                    bucket->push_back(ns);
                    local.op_us.push_back(ns / 1e3);
                }
            }
            fresh_per_thread[static_cast<std::size_t>(t)] = fresh;
        });
    out.spawn_ns += ns_between(spawn, gate.last_arrival());
    nucalock::structs::KvStructsStats kv;
    for (int t = 0; t < threads; ++t) {
        const auto& counts = per_thread_counts[static_cast<std::size_t>(t)];
        out.samples.merge(per_thread[static_cast<std::size_t>(t)]);
        kv.reads += counts.reads;
        kv.writes += counts.writes;
        kv.scans += counts.scans;
        kv.inserts += counts.inserts;
    }
    out.spawned += static_cast<std::uint64_t>(threads);
    map.collect(kv);

    // Audit: every preloaded and every freshly inserted key must be there,
    // fresh keys with their last value, and nothing else.
    rep.attempt();
    NativeContext audit = machine.make_context(0, 0);
    std::uint64_t missing = 0;
    std::uint64_t expected_size = kKeyspace;
    for (std::uint64_t k = 0; k < kKeyspace; ++k)
        missing += map.get(audit, k).has_value() ? 0 : 1;
    for (int t = 0; t < threads; ++t) {
        const std::uint64_t n = fresh_per_thread[static_cast<std::size_t>(t)];
        expected_size += n;
        for (std::uint64_t f = 0; f < n; ++f) {
            const std::optional<std::uint64_t> v = map.get(
                audit, kFreshBase * (2 + static_cast<std::uint64_t>(t)) + f);
            missing += v.has_value() && *v == f ? 0 : 1;
        }
    }
    if (missing != 0 || map.host_size() != expected_size)
        rep.fail_unit(std::string("map over ") +
                      nucalock::locks::lock_name(kind) + ": " +
                      std::to_string(missing) + " audit misses, size " +
                      std::to_string(map.host_size()) + " of " +
                      std::to_string(expected_size));
    out.acquisitions += kv.stripe_acquisitions_total();
    out.kv.reads += kv.reads;
    out.kv.writes += kv.writes;
    out.kv.scans += kv.scans;
    out.kv.inserts += kv.inserts;
    out.kv.resize_epochs += kv.resize_epochs;
    for (const auto& s : kv.per_stripe)
        out.kv.per_stripe.push_back(s);
}

void
uncontended(const Sizes& sz, RoundOut& out)
{
    NativeMachine machine(Topology::symmetric(2, 1));
    double total = 0.0;
    for (const LockKind kind : kLocks) {
        AnyLock<NativeContext> lock(machine, kind);
        NativeContext ctx = machine.make_context(0, 0);
        Span span("native.uncontended");
        for (std::uint64_t i = 0; i < sz.uncontended; ++i) {
            lock.acquire(ctx);
            lock.release(ctx);
        }
        total += span.end() / static_cast<double>(sz.uncontended);
        out.acquisitions += sz.uncontended;
    }
    out.uncontended_ns = total / static_cast<double>(std::size(kLocks));
}

RoundOut
native_round(const Args& args, Report& rep)
{
    const Sizes sz = sizes_of(args);
    const int threads = native_threads();
    RoundOut out;
    for (const LockKind kind : kLocks)
        contended(kind, sz, threads, out, rep);
    std::uint64_t salt = 0;
    for (const LockKind kind : kMapLocks)
        kv_map(kind, derive(args.seed, 20, salt++), sz, threads, out, rep);
    uncontended(sz, out);
    return out;
}

} // namespace

void
native_kv_measure(const Args& args, Report& rep)
{
    RoundLog log(warms_up(args));
    for_rounds(args, 3, [&](int) {
        const Clock::time_point start = Clock::now();
        RoundOut out = native_round(args, rep);
        log.add_round(ns_since(start) / 1e9,
                      static_cast<double>(out.acquisitions));
        for (std::size_t k = 0; k < out.setup_ns.size(); ++k)
            log.setup(k, out.setup_ns[k] / 1e9);
        for (const double us : out.samples.op_us)
            log.unit(us);
    });
    log.emit(rep, "lock acquisition", "one sampled lock or map op");
    rep.note("threads: " + std::to_string(native_threads()) +
             " on a 2-logical-node NativeMachine");
    rep.note("sim_ns_per_acq, global_tx_per_acq, table1_err_pct: not "
             "applicable (real threads, no simulation)");
}

void
native_kv_layers(const Args& args, Report& rep, double untraced_wall_s)
{
    const Clock::time_point start = Clock::now();
    const RoundOut out = native_round(args, rep);
    if (untraced_wall_s > 0.0)
        set_trace_overhead(rep, ns_since(start) / 1e9, untraced_wall_s);
    const Samples& s = out.samples;
    rep.set("locks.acquire_ns", median(s.acquire_ns), "ns");
    rep.set("locks.release_ns", median(s.release_ns), "ns");
    rep.set("locks.uncontended_ns", out.uncontended_ns, "ns");
    rep.set("native.cs_ns", median(s.cs_ns), "ns");
    rep.set("native.spawn_ns_per_thread",
            out.spawn_ns / static_cast<double>(out.spawned), "ns");
    rep.set("structs.read_ns", median(s.read_ns), "ns");
    rep.set("structs.write_ns", median(s.write_ns), "ns");
    rep.set("structs.scan_ns", median(s.scan_ns), "ns");
    rep.set("structs.stripe_acq_per_op",
            static_cast<double>(out.kv.stripe_acquisitions_total()) /
                static_cast<double>(out.kv.ops_total()),
            "count");
    rep.set("structs.resizes", static_cast<double>(out.kv.resize_epochs),
            "count");
}

} // namespace perfbench
