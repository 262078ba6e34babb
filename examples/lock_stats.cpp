/**
 * @file
 * Domain example: profile a contended lock with a MetricsRegistry probe
 * sink and the simulator's access tracer — the workflow for answering "is
 * this lock a bottleneck, and does it keep handovers local?" before
 * touching production code.
 *
 * Scenario: a shared LRU-ish metadata table protected by one lock, updated
 * by 16 threads across two NUCA nodes. We print wait/hold-time percentiles
 * and local/remote handover counts for two candidate locks, plus the first
 * lines of a raw lock-word trace. The registry folds the locks' own probe
 * events, so the locks run unmodified and the run is bit-identical to an
 * unobserved one.
 */
#include <iostream>
#include <sstream>

#include "locks/hbo_gt_sd.hpp"
#include "locks/mcs.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "stats/table.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::locks;
using namespace nucalock::sim;

/** Profile @p Lock into @p table; false when the registry saw no lock
 *  (the probe sites are compiled out under -DNUCALOCK_NO_PROBES). */
template <typename Lock>
bool
profile(const char* name, stats::Table& table, bool dump_trace)
{
    SimMachine machine(Topology::wildfire(8));
    const std::uint32_t first_line = machine.memory().num_lines();
    Lock lock(machine);
    obs::MetricsRegistry registry;
    machine.install_probe(&registry);

    TraceRecorder recorder;
    recorder.watch_only({MemRef{first_line}});
    if (dump_trace)
        machine.memory().set_trace_hook(recorder.hook());

    const MemRef table_data = machine.alloc_array(24, 0, 0);
    machine.add_threads(16, Placement::RoundRobinNodes,
                        [&](SimContext& ctx, int) {
                            ctx.delay(ctx.rng().next_below(6000));
                            for (int i = 0; i < 120; ++i) {
                                lock.acquire(ctx);
                                ctx.touch_array(table_data, 24, true);
                                lock.release(ctx);
                                ctx.delay(3000);
                                ctx.delay(ctx.rng().next_below(3000));
                            }
                        });
    machine.run();

    registry.finalize();
    if (registry.primary() == nullptr)
        return false;
    const obs::LockMetrics& m = *registry.primary();
    table.row()
        .cell(name)
        .cell(m.acquisitions)
        .cell(m.wait_ns.percentile(50), 0)
        .cell(m.wait_ns.percentile(99), 0)
        .cell(m.hold_ns.percentile(50), 0)
        .cell(m.handovers_local)
        .cell(m.handovers_remote)
        .cell(100.0 * m.local_handover_fraction(), 1);

    if (dump_trace) {
        std::ostringstream oss;
        recorder.dump_csv(oss);
        std::istringstream lines(oss.str());
        std::string line;
        std::cout << "first lock-word trace records (" << name << "):\n";
        for (int i = 0; i < 6 && std::getline(lines, line); ++i)
            std::cout << "  " << line << "\n";
        std::cout << "  ... (" << recorder.events().size() << " events)\n\n";
    }
    return true;
}

} // namespace

int
main()
{
    stats::Table table({"Lock", "acquires", "wait p50 (ns)", "wait p99 (ns)",
                        "hold p50 (ns)", "local ho", "remote ho",
                        "local ho %"});
    if (!profile<McsLock<SimContext>>("MCS", table, false)) {
        std::cout << "lock_stats: probe metrics are compiled out "
                     "(-DNUCALOCK_NO_PROBES); nothing to profile\n";
        return 0;
    }
    std::cout << "Lock profile: shared metadata table, 16 threads, 2-node "
                 "NUCA\n\n";
    (void)profile<HboGtSdLock<SimContext>>("HBO_GT_SD", table, true);
    table.print(std::cout);
    return 0;
}
