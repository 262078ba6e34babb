/**
 * @file
 * check-explore: the simulator in controlled mode. Every lock under the
 * nucacheck default bounded DFS (check::explore, 2x2 cpus, preemption
 * bound 2), the planted BrokenTatas/BrokenAdaptive setups (which must be
 * caught), the standard fault campaign (check::run_campaign), and seeded
 * executions the benchmark drives itself through check::run_one under a
 * Scheduler wrapper it owns. Each execution is tiny and rebuilds its
 * machine, so set-up and per-decision cost dominate here.
 *
 * A unit is one controlled execution for work and latency; the oracle's
 * units are lock verdicts, planted-bug verdicts, campaign cells and seeded
 * executions.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "check/campaign.hpp"
#include "check/explore.hpp"
#include "check/harness.hpp"
#include "check/schedule.hpp"
#include "common/rng.hpp"
#include "locks/any_lock.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

namespace {

namespace check = nucalock::check;
namespace sim = nucalock::sim;
using nucalock::locks::LockKind;

constexpr std::uint64_t kSeededMaxSteps = 20000;

/** DefaultPolicy with seeded random switches: every decision has a 1-in-4
 *  chance of going to a uniformly drawn runnable thread instead. */
class SeededScheduler final : public sim::Scheduler
{
  public:
    explicit SeededScheduler(std::uint64_t seed) : rng_(seed) {}

    int
    pick(sim::SimTime, const std::vector<sim::SchedChoice>& runnable) override
    {
        if (steps_++ >= kSeededMaxSteps)
            return sim::kStopRun;
        if (runnable.size() > 1 && rng_.next_below(4) == 0) {
            const int tid = runnable[rng_.next_below(runnable.size())].tid;
            policy_.note(tid);
            return tid;
        }
        return policy_.pick(runnable);
    }

  private:
    nucalock::Xoshiro256 rng_;
    check::DefaultPolicy policy_;
    std::uint64_t steps_ = 0;
};

/** Wraps a scheduler: stamps the first pick (end of run_one's set-up) and,
 *  when tracing, times every pick of the inner scheduler. */
class TimedScheduler final : public sim::Scheduler
{
  public:
    TimedScheduler(sim::Scheduler& inner, bool time_picks)
        : inner_(inner), time_picks_(time_picks)
    {
    }

    int
    pick(sim::SimTime now, const std::vector<sim::SchedChoice>& runnable) override
    {
        if (picks_++ == 0)
            first_pick_ = Clock::now();
        if (!time_picks_)
            return inner_.pick(now, runnable);
        const Clock::time_point t0 = Clock::now();
        const int tid = inner_.pick(now, runnable);
        pick_ns_ += ns_since(t0);
        return tid;
    }

    Clock::time_point first_pick() const { return first_pick_; }
    std::uint64_t picks() const { return picks_; }
    double pick_ns() const { return pick_ns_; }

  private:
    sim::Scheduler& inner_;
    bool time_picks_ = false;
    Clock::time_point first_pick_{};
    std::uint64_t picks_ = 0;
    double pick_ns_ = 0.0;
};

struct SeededExec
{
    check::RunReport report;
    double wall_ns = 0.0;
    double setup_ns = 0.0;
    double pick_ns = 0.0;
    std::uint64_t picks = 0;
};

SeededExec
run_seeded(const check::CheckSetup& setup, std::uint64_t sched_seed,
           bool time_picks, std::uint64_t unit)
{
    SeededScheduler inner(sched_seed);
    TimedScheduler timed(inner, time_picks);
    SeededExec out;
    Span span("check.run_one", unit);
    const Clock::time_point entry = Clock::now();
    out.report = check::run_one(setup, timed);
    out.wall_ns = span.end();
    out.setup_ns = timed.picks() == 0 ? out.wall_ns
                                      : ns_between(entry, timed.first_pick());
    out.pick_ns = timed.pick_ns();
    out.picks = timed.picks();
    return out;
}

struct Plan
{
    std::vector<check::CheckSetup> locks;   // explored and seeded
    std::vector<check::CheckSetup> planted; // must be caught by explore
    std::vector<check::CheckSetup> seeded;  // run_one units
    std::vector<std::uint64_t> sched_seeds;
    std::vector<std::string> seeded_names;
    check::CampaignConfig campaign;
};

Plan
make_plan(const Args& args)
{
    Plan plan;
    check::CheckSetup base; // nucacheck defaults: 2x2 cpus, 2 iterations
    base.seed = derive(args.seed, 10) % 1'000'000 + 1;
    const std::vector<LockKind> kinds =
        args.smoke ? std::vector<LockKind>{LockKind::Tatas, LockKind::Mcs}
                   : nucalock::locks::all_lock_kinds();
    for (const LockKind kind : kinds) {
        check::CheckSetup s = base;
        s.kind = kind;
        plan.locks.push_back(s);
    }
    check::CheckSetup broken = base;
    broken.use_broken_tatas = true;
    plan.planted.push_back(broken);
    broken.use_broken_tatas = false;
    broken.use_broken_adaptive = true;
    plan.planted.push_back(broken);

    auto add_seeded = [&](const check::CheckSetup& s, const std::string& name,
                          std::uint64_t salt, int count) {
        for (int k = 0; k < count; ++k) {
            check::CheckSetup e = s;
            e.seed = derive(args.seed, 12 + salt, static_cast<std::uint64_t>(k)) %
                         1'000'000 +
                     1;
            plan.seeded.push_back(e);
            plan.sched_seeds.push_back(
                derive(args.seed, 13 + salt, static_cast<std::uint64_t>(k)));
            plan.seeded_names.push_back(name);
        }
    };
    for (std::size_t i = 0; i < plan.locks.size(); ++i)
        add_seeded(plan.locks[i], nucalock::locks::lock_name(kinds[i]), 0,
                   args.smoke ? 2 : 16);
    if (args.plant == "broken-tatas")
        add_seeded(plan.planted.front(), "BROKEN_TATAS (planted)", 100, 16);

    // The standard campaign (nucacheck --campaign): fixed presets, locks,
    // shapes and seeds 1-2, the sweep CI pins as passing. Its cells do not
    // vary with the workload seed; see known_defect() for why.
    plan.campaign.jobs = 1;
    if (args.smoke) {
        plan.campaign.presets = {"none", "holderdeath"};
        plan.campaign.kinds = {LockKind::Mcs};
        plan.campaign.shapes = {check::CampaignShape{2, 2}};
        plan.campaign.num_seeds = 1;
    }
    return plan;
}

/** Explore every real lock and the planted ones; returns executions. */
std::uint64_t
explore_all(const Plan& plan, Report& rep, check::ExploreResult* total)
{
    std::uint64_t executions = 0;
    const check::ExploreConfig cfg; // max 1000 schedules, preemption bound 2
    for (const check::CheckSetup& s : plan.locks) {
        Span span("check.explore");
        const check::ExploreResult r = check::explore(s, cfg);
        span.end();
        executions += r.executions;
        rep.attempt();
        if (r.failures != 0)
            rep.fail_unit(std::string(nucalock::locks::lock_name(s.kind)) +
                          " failed under bounded DFS: " +
                          r.first_failure.what);
        if (total != nullptr) {
            total->executions += r.executions;
            total->pruned += r.pruned;
            total->truncated += r.truncated;
        }
    }
    for (const check::CheckSetup& s : plan.planted) {
        Span span("check.explore.planted");
        const check::ExploreResult r = check::explore(s, cfg);
        span.end();
        executions += r.executions;
        rep.attempt();
        if (r.failures == 0)
            rep.fail_unit(std::string(s.use_broken_tatas ? "BrokenTatas"
                                                         : "BrokenAdaptive") +
                          " planted bug was not caught");
    }
    return executions;
}

std::uint64_t
campaign(const Plan& plan, Report& rep)
{
    Span span("check.run_campaign");
    const check::CampaignResult r = check::run_campaign(plan.campaign);
    span.end();
    for (const check::CampaignCell& cell : r.cells) {
        rep.attempt();
        if (cell.failed)
            rep.fail_unit("campaign cell " + cell.lock + "/" + cell.preset +
                          " failed its audit: " + cell.what);
    }
    return r.cells.size();
}

/**
 * A campaign cell outside the standard sweep that fails at this tree:
 * ADAPTIVE under holderdeath on 2x4 at seed 533695 returns from a timed
 * acquire 103338 ns past its deadline, over the campaign's 100000 ns
 * overshoot bound. Reported on every run, not counted as a failed unit
 * (the counted campaign is the standard one), so a fix shows here.
 */
void
known_defect(Report& rep)
{
    check::CampaignConfig cfg;
    cfg.presets = {"holderdeath"};
    cfg.kinds = {LockKind::Adaptive};
    cfg.shapes = {check::CampaignShape{2, 4}};
    cfg.first_seed = 533695;
    cfg.num_seeds = 1;
    cfg.shrink = false;
    cfg.jobs = 1;
    const check::CampaignResult r = check::run_campaign(cfg);
    rep.note(std::string("known defect (not counted): ADAPTIVE/holderdeath "
                         "2x4 seed 533695 campaign cell ") +
             (r.failures != 0 ? "still fails: " + r.cells.front().what
                              : "now passes"));
}

bool
check_seeded(const Plan& plan, std::size_t i, const SeededExec& e,
             Report& rep)
{
    rep.attempt();
    if (e.report.failed) {
        rep.fail_unit(plan.seeded_names[i] + " seeded execution failed: " +
                      e.report.what);
        return false;
    }
    return true;
}

} // namespace

void
check_explore_measure(const Args& args, Report& rep)
{
    const Plan plan = make_plan(args);
    RoundLog log(warms_up(args));
    std::vector<std::uint64_t> first_steps;
    for_rounds(args, 2, [&](int round) {
        const Clock::time_point start = Clock::now();
        std::uint64_t executions = explore_all(plan, rep, nullptr);
        executions += campaign(plan, rep);
        for (std::size_t i = 0; i < plan.seeded.size(); ++i) {
            const SeededExec e =
                run_seeded(plan.seeded[i], plan.sched_seeds[i], false, i);
            log.unit(e.wall_ns / 1e3);
            log.setup(i, e.setup_ns / 1e9);
            ++executions;
            check_seeded(plan, i, e, rep);
            if (round == 0)
                first_steps.push_back(e.report.steps);
            else if (e.report.steps != first_steps[i])
                rep.fail_unit(plan.seeded_names[i] +
                              " seeded execution changed between rounds");
        }
        log.add_round(ns_since(start) / 1e9, static_cast<double>(executions));
    });
    log.emit(rep, "controlled execution",
             "one seeded run_one execution");
    known_defect(rep);
    rep.note("sim_ns_per_acq, global_tx_per_acq, table1_err_pct: not "
             "applicable (controlled mode: the scheduler, not simulated "
             "time, orders events)");
}

void
check_explore_layers(const Args& args, Report& rep, double untraced_wall_s)
{
    const Plan plan = make_plan(args);
    const Clock::time_point start = Clock::now();
    check::ExploreResult total;
    explore_all(plan, rep, &total);
    campaign(plan, rep);
    std::uint64_t steps = 0;
    std::uint64_t picks = 0;
    std::uint64_t truncated = 0;
    std::uint64_t threads = 0;
    double setup_ns = 0.0;
    double run_ns = 0.0;
    double pick_ns = 0.0;
    for (std::size_t i = 0; i < plan.seeded.size(); ++i) {
        const SeededExec e =
            run_seeded(plan.seeded[i], plan.sched_seeds[i], true, i);
        check_seeded(plan, i, e, rep);
        steps += e.report.steps;
        picks += e.picks;
        truncated += e.report.truncated() ? 1 : 0;
        threads += static_cast<std::uint64_t>(check::threads_of(plan.seeded[i]));
        setup_ns += e.setup_ns;
        run_ns += e.wall_ns - e.setup_ns;
        pick_ns += e.pick_ns;
    }
    if (untraced_wall_s > 0.0)
        set_trace_overhead(rep, ns_since(start) / 1e9, untraced_wall_s);
    const double execs = static_cast<double>(plan.seeded.size());
    rep.set("check.steps_per_exec", static_cast<double>(steps) / execs,
            "count");
    // Pruned re-executions are wasted work: their share of all DFS runs.
    rep.set("check.pruned_frac",
            static_cast<double>(total.pruned) /
                static_cast<double>(total.executions + total.pruned),
            "ratio");
    rep.set("check.truncated_frac",
            static_cast<double>(total.truncated + truncated) /
                static_cast<double>(total.executions + plan.seeded.size()),
            "ratio");
    rep.set("check.ns_per_step", run_ns / static_cast<double>(steps), "ns");
    rep.set("check.pick_ns", pick_ns / static_cast<double>(picks), "ns");
    rep.set("check.setup_ns_per_exec", setup_ns / execs, "ns");
    rep.set("sim.setup_ns_per_thread",
            setup_ns / static_cast<double>(threads), "ns");
}

} // namespace perfbench
