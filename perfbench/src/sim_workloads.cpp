/**
 * @file
 * The two timed-simulator workloads.
 *
 *  - sim-spin: the Fig 4/5 microbenchmark (harness::run_newbench) on the
 *    2x14 WildFire with 28 threads, the spin locks at critical work
 *    0/250/500. Every release invalidates a line all spinners watch, so
 *    the wake/refill storm (sim.memory, sim.resource, ReadyQueue bulk
 *    pushes) dominates host time.
 *  - sim-handover: MCS and CLH at the Fig 4 default work on 2x14 and on
 *    16x64 (1024 threads), plus the Table 1 uncontested cells. Each
 *    waiter spins on its own line: no invalidation storm, but fiber
 *    switches into cold stacks, one-thread wakes, a 1024-entry ready
 *    queue and big-machine set-up.
 *
 * A unit is one simulated run (a cell). Every round repeats the same
 * cells, so simulated results must repeat bit-for-bit between rounds.
 */
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "harness/newbench.hpp"
#include "harness/uncontested.hpp"
#include "locks/any_lock.hpp"
#include "obs/probe.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/invariants.hpp"
#include "sim/memory.hpp"
#include "sim/ready_queue.hpp"
#include "sim/trace.hpp"

namespace perfbench {

namespace {

using nucalock::Placement;
using nucalock::Topology;
using nucalock::harness::BenchResult;
using nucalock::harness::NewBenchConfig;
using nucalock::locks::AnyLock;
using nucalock::locks::LockKind;
namespace sim = nucalock::sim;
namespace obs = nucalock::obs;

volatile std::uint64_t g_keep = 0;

struct Cell
{
    std::string label;
    LockKind kind = LockKind::Tatas;
    NewBenchConfig cfg;
};

/*
 * Many short cells rather than a few long ones, and each work level is a
 * band (level .. level + 94, evenly over the 16 seeds) rather than a
 * point: the cell times of a (lock, level) pair then form a continuum, so
 * the p50/p95 of the mixed grid fall inside dense clusters instead of on
 * the gap between two tight ones, where a quantile flips with host noise.
 */
std::vector<Cell>
spin_cells(const Args& args)
{
    const int seeds = args.smoke ? 1 : 16;
    const std::vector<std::uint32_t> works =
        args.smoke ? std::vector<std::uint32_t>{0, 250}
                   : std::vector<std::uint32_t>{0, 250, 500};
    std::vector<Cell> cells;
    for (const LockKind kind :
         {LockKind::Tatas, LockKind::TatasExp, LockKind::Hbo, LockKind::HboGt,
          LockKind::HboGtSd})
        for (const std::uint32_t work : works)
            for (int s = 0; s < seeds; ++s) {
                Cell c;
                c.kind = kind;
                c.cfg.threads = 28;
                c.cfg.critical_work =
                    work + static_cast<std::uint32_t>(100 * s / seeds);
                c.cfg.iterations_per_thread = args.smoke ? 4 : 15;
                c.cfg.seed = derive(args.seed, 1, static_cast<std::uint64_t>(s));
                c.label = std::string(nucalock::locks::lock_name(kind)) +
                          "/2x14/cw" + std::to_string(c.cfg.critical_work) +
                          "/s" + std::to_string(s);
                cells.push_back(c);
            }
    return cells;
}

/* 48 short 2x14 cells, their critical work spread over 1500..1596 (the
 * Fig 4 default and up), keep the two 16x64 cells under 5% of the units,
 * so p95 lands inside the 2x14 continuum rather than between clusters. */
std::vector<Cell>
handover_cells(const Args& args)
{
    const int seeds = args.smoke ? 1 : 24;
    std::vector<Cell> cells;
    for (const LockKind kind : {LockKind::Mcs, LockKind::Clh}) {
        for (int s = 0; s < seeds; ++s) {
            Cell c;
            c.kind = kind;
            c.cfg.threads = 28;
            c.cfg.critical_work += static_cast<std::uint32_t>(100 * s / seeds);
            c.cfg.iterations_per_thread = args.smoke ? 4 : 10;
            c.cfg.seed = derive(args.seed, 2, static_cast<std::uint64_t>(s));
            c.label = std::string(nucalock::locks::lock_name(kind)) +
                      "/2x14/s" + std::to_string(s);
            cells.push_back(c);
        }
        Cell big;
        big.kind = kind;
        big.cfg.topology = Topology::symmetric(16, 64);
        big.cfg.threads = 1024;
        big.cfg.iterations_per_thread = args.smoke ? 1 : 4;
        big.cfg.seed = derive(args.seed, 3);
        big.label = std::string(nucalock::locks::lock_name(kind)) + "/16x64";
        cells.push_back(big);
    }
    return cells;
}

/** The paper's Table 1 (WildFire, ns): same processor / node / remote. */
struct PaperRow
{
    LockKind kind;
    double same_cpu, same_node, remote;
};
constexpr PaperRow kTable1[] = {
    {LockKind::Tatas, 150, 660, 2050},   {LockKind::TatasExp, 143, 613, 2070},
    {LockKind::Mcs, 210, 732, 2120},     {LockKind::Clh, 234, 806, 2630},
    {LockKind::Rh, 198, 672, 4480},      {LockKind::Hbo, 152, 652, 2010},
    {LockKind::HboGt, 152, 643, 2010},   {LockKind::HboGtSd, 149, 638, 2010},
};

/**
 * Counting probe sink owned by the benchmark: event counts for the locks
 * and obs layers, plus the critical-section sequence the invariant-checker
 * replay needs. Single-threaded (the simulator runs on one host thread).
 */
class CountingSink final : public obs::ProbeSink
{
  public:
    struct CsRecord
    {
        sim::CsEventKind kind;
        int tid;
        int node;
        std::uint64_t time_ns;
    };

    void
    on_event(const obs::ProbeRecord& r) override
    {
        ++events;
        switch (r.event) {
          case obs::LockEvent::AcquireAttempt:
            cs.push_back({sim::CsEventKind::WaitBegin, r.thread, r.node,
                          r.time_ns});
            break;
          case obs::LockEvent::Acquired: {
            ++acquired;
            auto [it, fresh] = last_node_.try_emplace(r.lock_id, r.node);
            if (!fresh) {
                ++handovers;
                if (it->second != r.node)
                    ++remote_handovers;
                it->second = r.node;
            }
            cs.push_back({sim::CsEventKind::Enter, r.thread, r.node,
                          r.time_ns});
            break;
          }
          case obs::LockEvent::Released:
            cs.push_back({sim::CsEventKind::Exit, r.thread, r.node,
                          r.time_ns});
            break;
          case obs::LockEvent::BackoffBegin: ++backoff_rounds; break;
          case obs::LockEvent::GateBlocked: ++gate_blocked; break;
          case obs::LockEvent::GatePassed: ++gate_passed; break;
          default: break;
        }
    }

    /** Start a new cell: lock identities are per machine. */
    void new_cell() { last_node_.clear(); }

    std::uint64_t events = 0;
    std::uint64_t acquired = 0;
    std::uint64_t handovers = 0;
    std::uint64_t remote_handovers = 0;
    std::uint64_t backoff_rounds = 0;
    std::uint64_t gate_blocked = 0;
    std::uint64_t gate_passed = 0;
    std::vector<CsRecord> cs;

  private:
    std::unordered_map<std::uint64_t, int> last_node_;
};

struct CellRun
{
    BenchResult result;
    double wall_ns = 0.0;
};

/** Oracle for one simulated cell; false (and a failed unit) on a defect. */
bool
check_cell(const Cell& cell, const BenchResult& r, Report& rep)
{
    rep.attempt();
    const std::uint64_t expected =
        static_cast<std::uint64_t>(cell.cfg.threads) *
        cell.cfg.iterations_per_thread;
    if (r.mutex_violations != 0 || r.total_acquires != expected) {
        rep.fail_unit(cell.label + ": " + std::to_string(r.mutex_violations) +
                      " mutex violations, " +
                      std::to_string(r.total_acquires) + " of " +
                      std::to_string(expected) + " acquisitions");
        return false;
    }
    return true;
}

CellRun
run_cell(const Cell& cell, std::uint64_t unit, obs::ProbeSink* probe = nullptr,
         sim::TraceRecorder* memtrace = nullptr)
{
    NewBenchConfig cfg = cell.cfg;
    cfg.probe = probe;
    cfg.memory_trace = memtrace;
    Span span("harness.run_newbench", unit);
    CellRun run;
    run.result = nucalock::harness::run_newbench(cell.kind, cfg);
    run.wall_ns = span.end();
    return run;
}

/**
 * The 8 Table 1 cells (one run_uncontested per lock, three scenarios
 * each): mean |sim - paper| / paper over the 24 latencies, in percent.
 * Each cell is a unit; its host latency goes to @p log when given.
 */
double
table1_err_pct(const Args& args, Report& rep, RoundLog* log)
{
    nucalock::harness::UncontestedConfig cfg;
    cfg.iterations = args.smoke ? 50 : 1000;
    cfg.seed = derive(args.seed, 4);
    double err = 0.0;
    for (const PaperRow& p : kTable1) {
        Span span("harness.run_uncontested");
        const nucalock::harness::UncontestedResult r =
            nucalock::harness::run_uncontested(p.kind, cfg);
        const double ns = span.end();
        if (log != nullptr)
            log->unit(ns / 1e3);
        rep.attempt();
        err += std::fabs(r.same_processor_ns - p.same_cpu) / p.same_cpu;
        err += std::fabs(r.same_node_ns - p.same_node) / p.same_node;
        err += std::fabs(r.remote_node_ns - p.remote) / p.remote;
    }
    return 100.0 * err / (3.0 * static_cast<double>(std::size(kTable1)));
}

struct Aggregate
{
    std::uint64_t acquires = 0;
    std::uint64_t events = 0;
    std::uint64_t switches = 0;
    std::uint64_t threads = 0;
    std::uint64_t global_tx = 0;
    std::uint64_t inval_tx = 0;
    double iteration_ns_sum = 0.0;
    std::uint64_t cells = 0;
    double host_run_ns = 0.0;
    double setup_ns = 0.0;
    double link_busy_ns = 0.0;
    double sim_time_ns = 0.0;
    double link_queue_ns = 0.0;
    std::uint64_t link_tx = 0;

    void
    add(const Cell& cell, const CellRun& run)
    {
        const BenchResult& r = run.result;
        acquires += r.total_acquires;
        events += r.sim_memory_accesses;
        switches += r.sim_fiber_switches;
        threads += static_cast<std::uint64_t>(cell.cfg.threads);
        global_tx += r.traffic.global_tx;
        inval_tx += r.traffic.invalidation_tx;
        iteration_ns_sum += r.avg_iteration_ns;
        ++cells;
        host_run_ns += r.host_run_ns;
        setup_ns += run.wall_ns - r.host_run_ns;
        sim_time_ns += static_cast<double>(r.total_time);
        if (const sim::ResourceUsage* link = r.contention.global_link()) {
            link_busy_ns += static_cast<double>(link->busy_ns);
            link_queue_ns += static_cast<double>(link->queue_ns);
            link_tx += link->transactions;
        }
    }

    double
    per_acq(double v) const
    {
        return v / static_cast<double>(acquires);
    }
};

// ----- pinned default-seed hashes -------------------------------------------

std::string
pin_path(const Args& args)
{
    return args.pins_dir + "/" + args.workload + ".txt";
}

void
hash_drift(const Args& args, const std::vector<Cell>& cells,
           const std::vector<std::uint64_t>& hashes, Report& rep)
{
    if (args.pins_dir.empty() || args.smoke || args.seed != kDefaultSeed) {
        rep.note("hash drift: not computed (pins exist for the full-size "
                 "default seed " +
                 std::to_string(kDefaultSeed) + " only)");
        return;
    }
    if (args.write_pins) {
        std::ofstream out(pin_path(args));
        for (std::size_t i = 0; i < cells.size(); ++i) {
            char hex[32];
            std::snprintf(hex, sizeof hex, "%016" PRIx64, hashes[i]);
            out << cells[i].label << ' ' << hex << '\n';
        }
        rep.note("hash drift: pins written to " + pin_path(args));
        return;
    }
    std::ifstream in(pin_path(args));
    if (!in) {
        rep.note("hash drift: no pinned hashes at " + pin_path(args));
        return;
    }
    std::map<std::string, std::string> pinned;
    std::string label;
    std::string hex;
    while (in >> label >> hex)
        pinned[label] = hex;
    std::uint64_t drift = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        char now[32];
        std::snprintf(now, sizeof now, "%016" PRIx64, hashes[i]);
        const auto it = pinned.find(cells[i].label);
        if (it == pinned.end() || it->second != now)
            ++drift;
    }
    rep.note("hash drift: " + std::to_string(drift) + " of " +
             std::to_string(cells.size()) +
             " cells differ from the pinned default-seed acquisition-order "
             "hashes (informational, not a failure)");
}

void
note_model(Report& rep, const Aggregate& agg)
{
    char line[256];
    std::snprintf(line, sizeof line,
                  "sim_ns_per_acq %.3f sim ns, global_tx_per_acq %.6f tx "
                  "(simulated, deterministic per seed)",
                  agg.iteration_ns_sum / static_cast<double>(agg.cells),
                  agg.per_acq(static_cast<double>(agg.global_tx)));
    rep.note(line);
}

/** Untraced rounds over @p cells; optional Table 1 cells per round. */
void
measure_cells(const Args& args, Report& rep, const std::vector<Cell>& cells,
              bool with_table1)
{
    // Enough rounds that the p95 latency has at least 200 units under it.
    const std::size_t units = cells.size() + (with_table1 ? 8 : 0);
    const int min_rounds = static_cast<int>((200 + units - 1) / units);
    RoundLog log(warms_up(args));
    std::vector<std::uint64_t> first_hash;
    std::vector<sim::SimTime> first_time;
    std::vector<double> first_table1;
    Aggregate first;
    for_rounds(args, min_rounds, [&](int round) {
        const Clock::time_point start = Clock::now();
        double events = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellRun run = run_cell(cells[i], i);
            const BenchResult& r = run.result;
            log.unit(run.wall_ns / 1e3);
            events += static_cast<double>(r.sim_memory_accesses);
            log.setup(i, (run.wall_ns - r.host_run_ns) / 1e9);
            const bool ok = check_cell(cells[i], r, rep);
            if (round == 0) {
                first_hash.push_back(r.acquisition_order_hash);
                first_time.push_back(r.total_time);
                if (ok)
                    first.add(cells[i], run);
            } else if (ok && (r.acquisition_order_hash != first_hash[i] ||
                              r.total_time != first_time[i])) {
                rep.fail_unit(cells[i].label +
                              ": simulated result changed between rounds");
            }
        }
        if (with_table1) {
            const double err = table1_err_pct(args, rep, &log);
            if (round == 0)
                first_table1.push_back(err);
            else if (err != first_table1.front())
                rep.fail_unit("Table 1 latencies changed between rounds");
        }
        log.add_round(ns_since(start) / 1e9, events);
    });
    log.emit(rep, "simulated memory event", "one simulated run (cell)");
    if (first.cells != 0)
        note_model(rep, first);
    if (with_table1 && !first_table1.empty()) {
        char line[200];
        std::snprintf(line, sizeof line,
                      "table1_err_pct %.4f %% (mean |sim - paper| / paper "
                      "over 24 Table 1 latencies; the model is calibrated on "
                      "Table 1 and otherwise numerically unvalidated)",
                      first_table1.front());
        rep.note(line);
    }
    hash_drift(args, cells, first_hash, rep);
}

// ----- layer replays ----------------------------------------------------------

/**
 * sim.memory: replay a cell's recorded access stream through a fresh
 * SimMemory whose lines carry the homes a mirror machine (built the way
 * run_newbench builds it) gives them. Returns ns per access.
 */
double
replay_memory(const Cell& cell, const std::vector<sim::TraceEvent>& events)
{
    std::uint32_t lines = 0;
    for (const sim::TraceEvent& e : events)
        lines = std::max(lines, e.line + 1);
    std::vector<int> homes(lines, 0);
    {
        sim::SimConfig simcfg;
        simcfg.seed = cell.cfg.seed;
        sim::SimMachine mirror(cell.cfg.topology, cell.cfg.latency, simcfg);
        AnyLock<sim::SimContext> lock(mirror, cell.kind, cell.cfg.params);
        const std::uint32_t ipl = cell.cfg.ints_per_line;
        const std::uint32_t cs_lines = (cell.cfg.critical_work + ipl - 1) / ipl;
        mirror.alloc_array(cs_lines == 0 ? 1 : cs_lines, 0, 0);
        const std::uint32_t known =
            std::min(lines, mirror.memory().num_lines());
        for (std::uint32_t l = 0; l < known; ++l)
            homes[l] = mirror.memory().home_node(sim::MemRef{l});
    }
    sim::SimMemory memory(cell.cfg.topology, cell.cfg.latency);
    for (std::uint32_t l = 0; l < lines; ++l)
        memory.alloc(0, homes[l]);
    Span span("sim.memory.access.replay");
    for (const sim::TraceEvent& e : events)
        memory.access(e.op, e.cpu, e.start, sim::MemRef{e.line}, e.new_value,
                      e.new_value);
    return span.end() / static_cast<double>(events.size());
}

/**
 * sim.ready_queue: replay the per-cpu completion times as re-keys of a
 * standalone ReadyQueue sized to the workload's threads; one op is a
 * push_or_update plus a top() peek. Returns ns per op.
 */
double
replay_ready_queue(const std::vector<sim::TraceEvent>& events, int threads)
{
    std::unordered_map<int, int> tid_of_cpu;
    std::vector<std::pair<int, sim::SimTime>> ops;
    ops.reserve(events.size());
    for (const sim::TraceEvent& e : events) {
        auto [it, fresh] = tid_of_cpu.try_emplace(
            e.cpu, static_cast<int>(tid_of_cpu.size()));
        (void)fresh;
        ops.emplace_back(it->second, e.complete);
    }
    sim::ReadyQueue queue;
    queue.reset(static_cast<std::size_t>(
        std::max(threads, static_cast<int>(tid_of_cpu.size()))));
    std::uint64_t sink = 0;
    Span span("sim.ready_queue.replay");
    for (const auto& [tid, wake] : ops) {
        queue.push_or_update(tid, wake);
        sink += static_cast<std::uint64_t>(queue.top_tid());
    }
    const double ns = span.end();
    g_keep = sink; // keeps the timed loop from being optimized away
    return ns / static_cast<double>(ops.size());
}

/** sim.fiber: resume/yield round robin over @p n StackPool-backed fibers,
 *  on a fresh host thread (cold pool). Returns ns per resume+yield. */
double
fiber_round_robin(int n, int rounds)
{
    double ns_per_switch = 0.0;
    std::thread worker([&] {
        std::vector<sim::Fiber*> selves(static_cast<std::size_t>(n), nullptr);
        std::vector<std::unique_ptr<sim::Fiber>> fibers;
        fibers.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            sim::Fiber** self = &selves[static_cast<std::size_t>(i)];
            fibers.push_back(std::make_unique<sim::Fiber>([self, rounds] {
                for (int r = 0; r < rounds; ++r)
                    (*self)->yield();
            }));
            *self = fibers.back().get();
        }
        for (auto& f : fibers)
            f->resume(); // start: runs to the first yield
        Span span("sim.fiber.resume_yield");
        for (int r = 1; r < rounds; ++r)
            for (auto& f : fibers)
                f->resume();
        const double ns = span.end();
        for (auto& f : fibers)
            while (!f->finished())
                f->resume();
        ns_per_switch = ns / (static_cast<double>(rounds - 1) *
                              static_cast<double>(n));
    });
    worker.join();
    return ns_per_switch;
}

/** sim.invariants: replay the probe-recorded CS sequence through a
 *  standalone InvariantChecker. Returns ns per acquisition. */
double
replay_invariants(const std::vector<CountingSink::CsRecord>& cs, Report& rep)
{
    sim::InvariantChecker checker;
    std::uint64_t enters = 0;
    Span span("sim.invariants.replay");
    for (const CountingSink::CsRecord& e : cs) {
        const auto t = static_cast<sim::SimTime>(e.time_ns);
        switch (e.kind) {
          case sim::CsEventKind::WaitBegin:
            checker.on_wait_begin(e.tid, e.node, t);
            break;
          case sim::CsEventKind::Enter:
            checker.on_enter(e.tid, e.node, t);
            ++enters;
            break;
          case sim::CsEventKind::Exit:
            checker.on_exit(e.tid, e.node, t);
            break;
          default: break;
        }
    }
    const double ns = span.end();
    if (checker.mutual_exclusion_violations() != 0)
        rep.fail_check("invariant replay of the probe-recorded CS sequence "
                       "found a mutual-exclusion violation");
    return enters == 0 ? 0.0 : ns / static_cast<double>(enters);
}

/** sim.setup_rss_mb: RSS growth across building one machine of @p cell's
 *  shape with its threads, on a fresh host thread (empty stack pool). */
double
setup_rss_growth(const Cell& cell)
{
    double grown = 0.0;
    std::thread worker([&] {
        const double before = current_rss_mib();
        Span span("sim.machine.construct");
        sim::SimMachine machine(cell.cfg.topology, cell.cfg.latency);
        AnyLock<sim::SimContext> lock(machine, cell.kind, cell.cfg.params);
        machine.add_threads(cell.cfg.threads, Placement::RoundRobinNodes,
                            [&](sim::SimContext& ctx, int) {
                                lock.acquire(ctx);
                                lock.release(ctx);
                            });
        span.end();
        grown = current_rss_mib() - before;
        machine.run();
    });
    worker.join();
    return grown;
}

/**
 * The traced pass shared by both sim workloads: one plain round with
 * spans, one round with the counting sink (probe neutrality + probe
 * metrics), then the layer replays on @p replay_cells.
 */
void
sim_layers(const Args& args, Report& rep, const std::vector<Cell>& cells,
           const std::vector<std::size_t>& replay_cells, int threads,
           double untraced_wall_s)
{
    Aggregate plain;
    std::vector<std::uint64_t> hashes;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellRun run = run_cell(cells[i], i);
        if (check_cell(cells[i], run.result, rep))
            plain.add(cells[i], run);
        hashes.push_back(run.result.acquisition_order_hash);
    }
    const double traced_wall_s = ns_since(start) / 1e9;
    if (untraced_wall_s > 0.0)
        set_trace_overhead(rep, traced_wall_s, untraced_wall_s);

    CountingSink sink;
    Aggregate probed;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        sink.new_cell();
        const CellRun run = run_cell(cells[i], i, &sink);
        if (check_cell(cells[i], run.result, rep))
            probed.add(cells[i], run);
        if (run.result.acquisition_order_hash != hashes[i])
            rep.fail_check(cells[i].label +
                           ": acquisition-order hash changed when a probe "
                           "sink was installed (probe neutrality)");
    }

    const double acq = static_cast<double>(plain.acquires);
    const double events = static_cast<double>(plain.events);
    const double run_ns_per_event = plain.host_run_ns / events;
    rep.set("sim.events_per_acq", events / acq, "count");
    rep.set("sim.switches_per_acq", static_cast<double>(plain.switches) / acq,
            "count");
    rep.set("sim.run_ns_per_event", run_ns_per_event, "ns");
    rep.set("sim.setup_ns_per_thread",
            plain.setup_ns / static_cast<double>(plain.threads), "ns");
    rep.set("sim.memory.inval_per_acq",
            static_cast<double>(plain.inval_tx) / acq, "count");
    rep.set("sim.resource.link_util", plain.link_busy_ns / plain.sim_time_ns,
            "ratio");
    rep.set("sim.resource.link_queue_ns_per_tx",
            plain.link_tx == 0 ? 0.0
                               : plain.link_queue_ns /
                                     static_cast<double>(plain.link_tx),
            "sim_ns");
    rep.set("model.sim_ns_per_acq",
            plain.iteration_ns_sum / static_cast<double>(plain.cells),
            "sim_ns");
    rep.set("model.global_tx_per_acq",
            static_cast<double>(plain.global_tx) / acq, "tx");

    rep.set("locks.remote_handover_frac",
            sink.handovers == 0 ? 0.0
                                : static_cast<double>(sink.remote_handovers) /
                                      static_cast<double>(sink.handovers),
            "ratio");
    rep.set("locks.backoff_rounds_per_acq",
            static_cast<double>(sink.backoff_rounds) / acq, "count");
    const std::uint64_t gate = sink.gate_blocked + sink.gate_passed;
    rep.set("locks.gate_blocked_frac",
            gate == 0 ? 0.0
                      : static_cast<double>(sink.gate_blocked) /
                            static_cast<double>(gate),
            "ratio");
    rep.set("obs.probe_events_per_acq",
            static_cast<double>(sink.events) / acq, "count");
    rep.set("obs.sink_ns_per_event",
            (probed.host_run_ns - plain.host_run_ns) /
                static_cast<double>(sink.events),
            "ns");
    if (sink.acquired != plain.acquires)
        rep.fail_check("probe Acquired events disagree with the harness's "
                       "acquisition count");

    // Replays: the recorded stream of representative cells.
    double mem_ns = 0.0;
    double rq_ns = 0.0;
    for (const std::size_t i : replay_cells) {
        sim::TraceRecorder recorder;
        const CellRun run = run_cell(cells[i], i, nullptr, &recorder);
        check_cell(cells[i], run.result, rep);
        if (run.result.acquisition_order_hash != hashes[i])
            rep.fail_check(cells[i].label + ": hash changed under a memory "
                                            "trace recorder");
        mem_ns += replay_memory(cells[i], recorder.events());
        rq_ns += replay_ready_queue(recorder.events(), cells[i].cfg.threads);
    }
    mem_ns /= static_cast<double>(replay_cells.size());
    rq_ns /= static_cast<double>(replay_cells.size());
    const double fiber_ns = fiber_round_robin(threads, args.smoke ? 20 : 400);
    const double inv_ns = replay_invariants(sink.cs, rep);
    rep.set("sim.memory.ns_per_access", mem_ns, "ns");
    rep.set("sim.ready_queue.ns_per_op", rq_ns, "ns");
    rep.set("sim.fiber.ns_per_switch", fiber_ns, "ns");
    rep.set("sim.invariants.ns_per_acq", inv_ns, "ns");
    // Engine time left after the replayed shares: one memory access and
    // one ready-queue op per event, the run's switches and acquisitions.
    const double other =
        run_ns_per_event - mem_ns - rq_ns -
        fiber_ns * static_cast<double>(plain.switches) / events -
        inv_ns * acq / events;
    rep.set("sim.engine_other_ns_per_event", other, "ns");
}

} // namespace

void
sim_spin_measure(const Args& args, Report& rep)
{
    measure_cells(args, rep, spin_cells(args), false);
}

void
sim_spin_layers(const Args& args, Report& rep, double untraced_wall_s)
{
    const std::vector<Cell> cells = spin_cells(args);
    // One replay cell per lock: the first seed at critical work 250.
    const std::size_t per_lock = cells.size() / 5;
    const std::size_t cw250 = per_lock / (args.smoke ? 2 : 3);
    std::vector<std::size_t> replay;
    for (std::size_t k = 0; k < 5; ++k)
        replay.push_back(k * per_lock + cw250);
    sim_layers(args, rep, cells, replay, 28, untraced_wall_s);
}

void
sim_handover_measure(const Args& args, Report& rep)
{
    measure_cells(args, rep, handover_cells(args), true);
}

void
sim_handover_layers(const Args& args, Report& rep, double untraced_wall_s)
{
    const std::vector<Cell> cells = handover_cells(args);
    // Replay the 16x64 cells: their 1024-entry ready queue and cold fibers.
    std::vector<std::size_t> replay;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (cells[i].cfg.threads == 1024)
            replay.push_back(i);
    rep.set("sim.setup_rss_mb", setup_rss_growth(cells[replay.front()]),
            "MiB");
    sim_layers(args, rep, cells, replay, 1024, untraced_wall_s);

    rep.set("model.table1_err_pct", table1_err_pct(args, rep, nullptr), "%");
}

} // namespace perfbench
