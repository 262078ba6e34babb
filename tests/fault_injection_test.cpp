/**
 * @file
 * Robustness-subsystem tests: the deterministic fault injector and the
 * online invariant checker (sim/faults.hpp, sim/invariants.hpp), plus the
 * try_acquire/acquire_for surface they rely on for recovery.
 *
 *  - A matrix of every LockKind under every fault-plan preset asserts
 *    mutual exclusion and eventual progress under adversarial preemption,
 *    link congestion, stalls, and thread death with lock abandonment.
 *  - Same-seed runs must produce byte-identical fault logs and results.
 *  - HBO_GT_SD's bounded-starvation claim is asserted against TATAS under
 *    an identical node-local hammer workload.
 *  - acquire_for edge cases: zero timeout, deadline mid-backoff, timeout
 *    while the holder is preempted by an injected fault.
 *  - The timed (try_acquire_for) paths are pinned bit-for-bit: a hash of
 *    the standard fault campaign and of a holderdeath run per lock.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "check/campaign.hpp"
#include "harness/newbench.hpp"
#include "locks/any_lock.hpp"
#include "locks/timed.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/invariants.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::harness;
using namespace nucalock::locks;
using namespace nucalock::sim;

// ---------------------------------------------------------------------------
// FaultPlan parsing
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesEveryPreset)
{
    for (const char* spec :
         {"none", "holder", "publish", "spinner", "spike", "stall", "death",
          "chaos", "holder+spike+death"}) {
        const auto plan = FaultPlan::parse(spec, 1, 8);
        ASSERT_TRUE(plan.has_value()) << spec;
        EXPECT_FALSE(plan->describe().empty());
    }
    EXPECT_FALSE(FaultPlan::parse("bogus", 1, 8).has_value());
    EXPECT_FALSE(FaultPlan::parse("holder+bogus", 1, 8).has_value());
}

TEST(FaultPlanTest, EmptySpecsYieldEmptyPlans)
{
    EXPECT_TRUE(FaultPlan::parse("", 1, 8)->empty());
    EXPECT_TRUE(FaultPlan::parse("none", 1, 8)->empty());
    EXPECT_FALSE(FaultPlan::parse("death", 1, 8)->empty());
}

TEST(FaultPlanTest, ParseIsDeterministicInSeed)
{
    const auto a = FaultPlan::parse("chaos+death+stall", 42, 16);
    const auto b = FaultPlan::parse("chaos+death+stall", 42, 16);
    const auto c = FaultPlan::parse("chaos+death+stall", 43, 16);
    ASSERT_TRUE(a && b && c);
    EXPECT_EQ(a->describe(), b->describe());
    EXPECT_NE(a->describe(), c->describe()); // different seed, different victims
}

TEST(FaultPlanTest, HasReportsEventKinds)
{
    const auto plan = FaultPlan::parse("holder+death", 1, 8);
    ASSERT_TRUE(plan);
    EXPECT_TRUE(plan->has(FaultKind::HolderPreempt));
    EXPECT_TRUE(plan->has(FaultKind::ThreadDeath));
    EXPECT_FALSE(plan->has(FaultKind::LinkSpike));
}

// ---------------------------------------------------------------------------
// InvariantChecker unit behavior (no machine required)
// ---------------------------------------------------------------------------

TEST(InvariantCheckerTest, DetectsMutualExclusionViolation)
{
    InvariantChecker checker;
    checker.on_enter(0, 0, 100);
    EXPECT_EQ(checker.mutual_exclusion_violations(), 0u);
    checker.on_enter(1, 1, 200); // overlapping holders
    EXPECT_EQ(checker.mutual_exclusion_violations(), 1u);
    EXPECT_NE(checker.report().find("mutual exclusion violated"),
              std::string::npos);
}

TEST(InvariantCheckerTest, CleanHandoversAreNotViolations)
{
    InvariantChecker checker;
    for (int i = 0; i < 10; ++i) {
        checker.on_enter(i % 3, 0, static_cast<SimTime>(100 * i));
        checker.on_exit(i % 3, 0, static_cast<SimTime>(100 * i + 50));
    }
    EXPECT_EQ(checker.mutual_exclusion_violations(), 0u);
    EXPECT_EQ(checker.acquisitions(), 10u);
    EXPECT_EQ(checker.current_holder(), -1);
}

TEST(InvariantCheckerTest, WatchdogFiresOnlyWhileWaitersAreStuck)
{
    InvariantConfig cfg;
    cfg.watchdog_window_ns = 1000;
    InvariantChecker checker(cfg);
    EXPECT_FALSE(checker.watchdog_expired(100'000)); // no activity yet
    checker.on_wait_begin(0, 0, 100);
    EXPECT_FALSE(checker.watchdog_expired(1000));
    EXPECT_TRUE(checker.watchdog_expired(2000));
    checker.on_enter(0, 0, 1500); // progress resets the window
    EXPECT_FALSE(checker.watchdog_expired(2000));
}

TEST(InvariantCheckerTest, BypassAccountingTracksStarvation)
{
    InvariantConfig cfg;
    cfg.fairness_window = 2;
    InvariantChecker checker(cfg);
    checker.on_wait_begin(3, 1, 0);
    for (int i = 0; i < 5; ++i) {
        checker.on_enter(0, 0, static_cast<SimTime>(10 * i));
        checker.on_exit(0, 0, static_cast<SimTime>(10 * i + 5));
    }
    EXPECT_EQ(checker.max_bypasses(3), 5u);
    EXPECT_EQ(checker.fairness_violations(), 1u); // window of 2 exceeded once
    EXPECT_EQ(checker.max_node_streak(), 5u);     // same node, remote waiter
}

TEST(InvariantCheckerTest, DeadHolderIsDiagnosedAsAbandonment)
{
    InvariantChecker checker;
    checker.on_enter(2, 0, 100);
    checker.on_thread_death(2, 200);
    EXPECT_EQ(checker.current_holder(), 2);
    EXPECT_NE(checker.report().find("DEAD - lock abandoned"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Full matrix: every lock under every fault preset
// ---------------------------------------------------------------------------

struct FaultCase
{
    LockKind kind;
    const char* spec;
};

std::string
fault_case_name(const testing::TestParamInfo<FaultCase>& info)
{
    return std::string(lock_name(info.param.kind)) + "_" + info.param.spec;
}

NewBenchConfig
small_faulty_config(const char* spec)
{
    NewBenchConfig config;
    config.topology = Topology::symmetric(2, 4);
    config.threads = 8;
    config.iterations_per_thread = 12;
    config.critical_work = 64;
    config.private_work = 600;
    config.seed = 7;
    config.fault_plan = *FaultPlan::parse(spec, config.seed, config.threads);
    return config;
}

class FaultMatrixTest : public testing::TestWithParam<FaultCase>
{
};

/**
 * Under every fault plan, every lock must preserve mutual exclusion and
 * the run must terminate (eventual progress). Non-death plans only delay
 * threads, so the exact iteration count must also survive.
 */
TEST_P(FaultMatrixTest, MutualExclusionAndProgressUnderFaults)
{
    const FaultCase& c = GetParam();
    const NewBenchConfig config = small_faulty_config(c.spec);
    const BenchResult r = run_newbench(c.kind, config);

    EXPECT_EQ(r.mutex_violations, 0u) << r.fault_log;
    const auto expected =
        static_cast<std::uint64_t>(config.threads) *
        config.iterations_per_thread;
    if (config.fault_plan.has(FaultKind::ThreadDeath)) {
        EXPECT_LE(r.total_acquires, expected);
        EXPECT_GT(r.total_acquires, 0u);
    } else {
        EXPECT_EQ(r.total_acquires, expected);
        EXPECT_EQ(r.lock_timeouts, 0u);
    }
}

std::vector<FaultCase>
fault_cases()
{
    std::vector<FaultCase> cases;
    for (LockKind kind : all_lock_kinds())
        for (const char* spec :
             {"holder", "publish", "spinner", "spike", "stall", "death",
              "chaos"})
            cases.push_back({kind, spec});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllLocks, FaultMatrixTest,
                         testing::ValuesIn(fault_cases()), fault_case_name);

// ---------------------------------------------------------------------------
// Determinism: same seed => byte-identical fault schedule and results
// ---------------------------------------------------------------------------

class FaultDeterminismTest : public testing::TestWithParam<LockKind>
{
};

TEST_P(FaultDeterminismTest, SameSeedSameFaultLogAndResults)
{
    const NewBenchConfig config = small_faulty_config("chaos+death");
    const BenchResult a = run_newbench(GetParam(), config);
    const BenchResult b = run_newbench(GetParam(), config);

    EXPECT_GT(a.faults_injected, 0u);
    EXPECT_EQ(a.fault_log, b.fault_log); // byte-identical schedule
    EXPECT_EQ(a.total_time, b.total_time);
    EXPECT_EQ(a.total_acquires, b.total_acquires);
    EXPECT_EQ(a.lock_timeouts, b.lock_timeouts);
    EXPECT_EQ(a.traffic.global_tx, b.traffic.global_tx);
}

std::string
kind_name(const testing::TestParamInfo<LockKind>& param_info)
{
    return std::string(lock_name(param_info.param));
}

INSTANTIATE_TEST_SUITE_P(SampleLocks, FaultDeterminismTest,
                         testing::Values(LockKind::Tatas, LockKind::Mcs,
                                         LockKind::HboGtSd, LockKind::Cohort),
                         kind_name);

// ---------------------------------------------------------------------------
// Structural trigger points hit the right algorithms
// ---------------------------------------------------------------------------

std::uint64_t
injected_under(LockKind kind, const char* spec)
{
    const NewBenchConfig config = small_faulty_config(spec);
    return run_newbench(kind, config).faults_injected;
}

TEST(StructuralTriggerTest, PublishWindowOnlyExistsForQueueEnqueues)
{
    // The publish window is the interval after a lock-word swap; only the
    // queue locks (MCS/CLH tail swap) execute one on the acquire path.
    EXPECT_GT(injected_under(LockKind::Mcs, "publish"), 0u);
    EXPECT_GT(injected_under(LockKind::Clh, "publish"), 0u);
    EXPECT_EQ(injected_under(LockKind::Tatas, "publish"), 0u);
    EXPECT_EQ(injected_under(LockKind::Ticket, "publish"), 0u);
}

TEST(StructuralTriggerTest, SpinnerGateOnlyExistsForGateLocks)
{
    // is_spinning gates exist only in the HBO_GT family.
    EXPECT_GT(injected_under(LockKind::HboGt, "spinner"), 0u);
    EXPECT_GT(injected_under(LockKind::HboGtSd, "spinner"), 0u);
    EXPECT_EQ(injected_under(LockKind::Mcs, "spinner"), 0u);
    EXPECT_EQ(injected_under(LockKind::Tatas, "spinner"), 0u);
}

TEST(StructuralTriggerTest, HolderPreemptHitsEveryLock)
{
    for (LockKind kind : {LockKind::Tatas, LockKind::Mcs, LockKind::HboGtSd})
        EXPECT_GT(injected_under(kind, "holder"), 0u) << lock_name(kind);
}

TEST(StructuralTriggerTest, LinkSpikeSlowsTheRunDown)
{
    NewBenchConfig clean = small_faulty_config("none");
    const BenchResult before = run_newbench(LockKind::Mcs, clean);
    NewBenchConfig spiked = small_faulty_config("spike");
    const BenchResult after = run_newbench(LockKind::Mcs, spiked);
    EXPECT_GT(after.faults_injected, 0u);
    EXPECT_GT(after.total_time, before.total_time);
}

// ---------------------------------------------------------------------------
// try_acquire correctness across all locks (checker-audited)
// ---------------------------------------------------------------------------

class TryAcquireTest : public testing::TestWithParam<LockKind>
{
};

/** Mixed blocking/non-blocking workload: the counter and the checker must
 *  both agree that every successful entry was exclusive. */
TEST_P(TryAcquireTest, MixedTryAndBlockingAcquiresStayExclusive)
{
    SimMachine m(Topology::symmetric(2, 5), LatencyModel::wildfire(),
                 SimConfig{.seed = 11});
    AnyLock<SimContext> lock(m, GetParam());
    InvariantChecker checker;
    m.install_invariants(&checker);
    const MemRef counter = m.alloc(0, 0);
    std::uint64_t successes = 0;

    m.add_threads(10, Placement::RoundRobinNodes, [&](SimContext& ctx, int) {
        ctx.delay(ctx.rng().next_below(3000));
        for (int i = 0; i < 40; ++i) {
            ctx.cs_wait_begin();
            bool got;
            if (ctx.rng().next_below(2) == 0) {
                got = lock.try_acquire(ctx);
                if (!got)
                    ctx.cs_wait_abort();
            } else {
                lock.acquire(ctx);
                got = true;
            }
            if (got) {
                ctx.cs_enter();
                const std::uint64_t v = ctx.load(counter);
                ctx.delay(ctx.rng().next_below(300));
                ctx.store(counter, v + 1);
                ++successes;
                ctx.cs_exit();
                lock.release(ctx);
            }
            ctx.delay(ctx.rng().next_below(1500));
        }
    });
    m.run();

    EXPECT_EQ(m.memory().peek(counter), successes);
    EXPECT_EQ(checker.mutual_exclusion_violations(), 0u);
    EXPECT_EQ(checker.acquisitions(), successes);
    EXPECT_GT(successes, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllLocks, TryAcquireTest,
                         testing::ValuesIn(all_lock_kinds()), kind_name);

TEST(TryAcquireTest, TryOnFreeLockSucceedsAndOnHeldLockFails)
{
    for (LockKind kind : all_lock_kinds()) {
        SimMachine m(Topology::symmetric(2, 2), LatencyModel::wildfire(),
                     SimConfig{.seed = 3});
        AnyLock<SimContext> lock(m, kind);
        bool t0_first = false;
        bool t1_failed = false;
        // t0 takes the lock immediately and holds it for 1 ms; t1 tries
        // at 0.5 ms (while held) and must fail.
        m.add_thread(0, [&](SimContext& ctx) {
            t0_first = lock.try_acquire(ctx);
            ctx.delay_ns(1'000'000);
            lock.release(ctx);
        });
        m.add_thread(1, [&](SimContext& ctx) {
            ctx.delay_ns(500'000);
            t1_failed = !lock.try_acquire(ctx);
            if (!t1_failed)
                lock.release(ctx);
        });
        m.run();
        EXPECT_TRUE(t0_first) << lock_name(kind);
        EXPECT_TRUE(t1_failed) << lock_name(kind);
    }
}

// ---------------------------------------------------------------------------
// acquire_for edge cases (satellite: timed-acquisition semantics)
// ---------------------------------------------------------------------------

TEST(AcquireForTest, ZeroTimeoutIsASingleTry)
{
    for (LockKind kind : {LockKind::Tatas, LockKind::Mcs, LockKind::ClhTry}) {
        SimMachine m(Topology::symmetric(2, 2), LatencyModel::wildfire(),
                     SimConfig{.seed = 5});
        AnyLock<SimContext> lock(m, kind);
        bool free_ok = false;
        bool held_fails = false;
        m.add_thread(0, [&](SimContext& ctx) {
            free_ok = lock.acquire_for(ctx, 0); // free: first try wins
            ctx.delay_ns(1'000'000);
            if (free_ok)
                lock.release(ctx);
        });
        m.add_thread(1, [&](SimContext& ctx) {
            ctx.delay_ns(400'000);
            held_fails = !lock.acquire_for(ctx, 0); // held: no second try
            if (!held_fails)
                lock.release(ctx);
        });
        m.run();
        EXPECT_TRUE(free_ok) << lock_name(kind);
        EXPECT_TRUE(held_fails) << lock_name(kind);
    }
}

TEST(AcquireForTest, DeadlineMidBackoffHasBoundedOvershoot)
{
    SimMachine m(Topology::symmetric(2, 2), LatencyModel::wildfire(),
                 SimConfig{.seed = 5});
    AnyLock<SimContext> lock(m, LockKind::TatasExp);
    constexpr SimTime kTimeout = 200'000; // expires inside a backoff period
    SimTime waited = 0;
    bool timed_out = false;
    m.add_thread(0, [&](SimContext& ctx) {
        lock.acquire(ctx);
        ctx.delay_ns(5'000'000); // hold far past the waiter's deadline
        lock.release(ctx);
    });
    m.add_thread(1, [&](SimContext& ctx) {
        ctx.delay_ns(100'000); // let t0 take the lock first
        const SimTime start = ctx.now();
        timed_out = !lock.acquire_for(ctx, kTimeout);
        waited = ctx.now() - start;
    });
    m.run();
    EXPECT_TRUE(timed_out);
    EXPECT_GE(waited, kTimeout);
    // Overshoot is bounded by one backoff period plus one attempt; the
    // generic loop's cap is 4096 iterations (~16 us simulated).
    EXPECT_LT(waited, kTimeout + 200'000);
}

TEST(AcquireForTest, TimesOutWhileHolderIsPreemptedByInjectedFault)
{
    // The injected fault preempts the holder inside the critical section
    // for 5 ms; a 1 ms bounded wait must fail, and a later retry (after
    // the holder resumes and releases) must succeed.
    SimMachine m(Topology::symmetric(2, 2), LatencyModel::wildfire(),
                 SimConfig{.seed = 5});
    FaultInjector injector(FaultPlan::holder_preempt(5'000'000, 1, 0, 0));
    m.install_faults(&injector);
    AnyLock<SimContext> lock(m, LockKind::Hbo);
    bool first_timed_out = false;
    bool retry_succeeded = false;
    m.add_thread(0, [&](SimContext& ctx) {
        lock.acquire(ctx);
        ctx.cs_enter(); // holder-preempt trigger point: descheduled 5 ms
        ctx.cs_exit();
        lock.release(ctx);
    });
    m.add_thread(1, [&](SimContext& ctx) {
        ctx.delay_ns(200'000);
        first_timed_out = !lock.acquire_for(ctx, 1'000'000);
        if (!first_timed_out)
            lock.release(ctx);
        retry_succeeded = lock.acquire_for(ctx, 50'000'000);
        if (retry_succeeded)
            lock.release(ctx);
    });
    m.run();
    EXPECT_EQ(injector.injected(), 1u);
    EXPECT_TRUE(first_timed_out);
    EXPECT_TRUE(retry_succeeded);
}

// ---------------------------------------------------------------------------
// Thread death and lock abandonment recovery
// ---------------------------------------------------------------------------

TEST(ThreadDeathTest, SurvivorsRecoverFromAbandonedLockViaBoundedWaits)
{
    // Kill thread 0 early; if it dies holding the lock, survivors' bounded
    // waits fail and they stop — either way the run terminates and no
    // mutual exclusion violation occurs.
    NewBenchConfig config = small_faulty_config("none");
    config.fault_plan = FaultPlan::thread_death(0, 200'000);
    const BenchResult r = run_newbench(LockKind::Tatas, config);
    EXPECT_EQ(r.mutex_violations, 0u);
    EXPECT_EQ(r.faults_injected, 1u);
    EXPECT_LE(r.total_acquires,
              static_cast<std::uint64_t>(config.threads) *
                  config.iterations_per_thread);
}

TEST(ThreadDeathTest, DeathWhileSpinningDoesNotHurtOthers)
{
    // Kill a thread late, while it is most likely waiting its turn; the
    // other threads must still complete every iteration.
    NewBenchConfig config = small_faulty_config("none");
    config.fault_plan = FaultPlan::thread_death(3, 2'000'000);
    const BenchResult r = run_newbench(LockKind::Mcs, config);
    EXPECT_EQ(r.mutex_violations, 0u);
    EXPECT_GT(r.total_acquires, 0u);
}

// ---------------------------------------------------------------------------
// HBO_GT_SD's starvation bound vs TATAS (the paper's fairness claim)
// ---------------------------------------------------------------------------

/**
 * Adversarial workload: four node-0 threads hammer the (node-0 homed)
 * lock with minimal private work while one node-1 thread competes.
 * Returns the worst bypass count the remote thread suffered.
 */
std::uint64_t
remote_starvation(LockKind kind, const LockParams& params,
                  const FaultPlan& plan)
{
    SimMachine m(Topology::symmetric(2, 5), LatencyModel::wildfire(),
                 SimConfig{.seed = 21});
    FaultInjector injector(plan);
    m.install_faults(&injector);
    AnyLock<SimContext> lock(m, kind, params);
    InvariantChecker checker;
    m.install_invariants(&checker);

    const auto body = [&](SimContext& ctx, int iters) {
        for (int i = 0; i < iters; ++i) {
            ctx.cs_wait_begin();
            lock.acquire(ctx);
            ctx.cs_enter();
            ctx.delay(100);
            ctx.cs_exit();
            lock.release(ctx);
            ctx.delay(5); // barely any private work: node-local hammering
        }
    };
    int victim_tid = -1;
    for (int cpu = 0; cpu < 5; ++cpu)
        m.add_thread(cpu, [&](SimContext& ctx) { body(ctx, 150); });
    victim_tid = m.add_thread(5, [&](SimContext& ctx) {
        ctx.delay(5000); // arrive once the hammer is running
        body(ctx, 25);
    });
    m.run();
    EXPECT_EQ(checker.mutual_exclusion_violations(), 0u) << lock_name(kind);
    return checker.max_bypasses(victim_tid);
}

TEST(StarvationBoundTest, HboGtSdBoundsRemoteStarvationWhereTatasDoesNot)
{
    LockParams params;
    params.get_angry_limit = 8; // get angry quickly: tight starvation bound
    // Keep TATAS spinners aggressive: with the huge default cap a failed
    // waiter sleeps so long the lock goes idle and nobody starves.
    params.tatas = BackoffParams{16, 2, 128};
    // Identical adversarial plan for both locks: a long link spike makes
    // every cross-node transaction expensive, so the local node's refills
    // win each handover race unless the lock itself intervenes.
    const FaultPlan plan = FaultPlan::link_spike(0, 50'000'000, 20'000);
    const std::uint64_t sd = remote_starvation(LockKind::HboGtSd, params, plan);
    const std::uint64_t tatas = remote_starvation(LockKind::Tatas, params, plan);

    // The same fairness window separates the two: TATAS lets the local
    // node bypass the remote waiter essentially without bound, HBO_GT_SD's
    // anger mechanism cuts the streak off.
    const std::uint64_t kFairnessWindow = 100;
    EXPECT_LT(sd, kFairnessWindow)
        << "HBO_GT_SD starved the remote thread for " << sd << " bypasses";
    EXPECT_GT(tatas, kFairnessWindow)
        << "TATAS unexpectedly fair: " << tatas << " bypasses";
    EXPECT_LT(sd, tatas);
}

// ---------------------------------------------------------------------------
// Timed-path pins: the deadline-bounded slowpaths must not drift
// ---------------------------------------------------------------------------

class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void
    add(std::string_view s)
    {
        for (const char c : s) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= 0x100000001b3ULL;
        }
        add(s.size());
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/**
 * Exact fingerprints of the timed acquisition paths. The untimed paths are
 * pinned by the acquisition-order hashes elsewhere; these two pin every
 * lock's try_acquire_for: the standard fault campaign (224 cells, every
 * abandonment exit) and a holderdeath run, where survivors time out
 * behind the dead holder. Both are probe-independent, so the constants
 * hold with and without -DNUCALOCK_NO_PROBES.
 */
TEST(TimedPathTest, TimedPathsArePinned)
{
    check::CampaignConfig cfg;
    cfg.jobs = 1;
    const check::CampaignResult campaign = check::run_campaign(cfg);
    ASSERT_EQ(campaign.cells.size(), 224u);
    EXPECT_EQ(campaign.failures, 0u);
    Fnv cells;
    for (const check::CampaignCell& c : campaign.cells) {
        cells.add(c.lock);
        cells.add(c.preset);
        for (const std::uint64_t v :
             {c.steps, c.acquisitions, c.timeouts, c.max_overshoot_ns,
              c.abandon.abandons, c.abandon.parked, c.abandon.grant_races,
              c.abandon.reclaims, c.abandon.rejoins, c.abandon.unparks})
            cells.add(v);
    }
    EXPECT_EQ(cells.value(), 0x464378db1359427aULL) << std::hex << cells.value();

    // holderdeath: survivors time out behind the dead holder. death: a
    // thread dies outside the lock and every later acquire is a timed
    // one under live contention (the only one of the two that exercises
    // a lock migrating away from a timed local waiter).
    struct Pin
    {
        LockKind kind;
        std::uint64_t order_hash;
        std::uint64_t memory_accesses;
        std::uint64_t total_time;
    };
    const auto check_pins = [](const char* plan, const std::vector<Pin>& pins) {
        NewBenchConfig config;
        config.topology = Topology::symmetric(2, 4);
        config.threads = 8;
        config.iterations_per_thread = 30;
        config.seed = 1;
        config.fault_plan =
            *FaultPlan::parse(plan, config.seed, config.threads);
        for (const Pin& pin : pins) {
            ASSERT_TRUE(lock_supports_native_timeout(pin.kind));
            const BenchResult r = run_newbench(pin.kind, config);
            EXPECT_EQ(r.acquisition_order_hash, pin.order_hash)
                << plan << " " << lock_name(pin.kind) << " 0x" << std::hex
                << r.acquisition_order_hash;
            EXPECT_EQ(r.sim_memory_accesses, pin.memory_accesses)
                << plan << " " << lock_name(pin.kind);
            EXPECT_EQ(r.total_time, pin.total_time)
                << plan << " " << lock_name(pin.kind);
        }
        const std::vector<LockKind> kinds = all_lock_kinds();
        EXPECT_EQ(static_cast<std::ptrdiff_t>(pins.size()),
                  std::count_if(kinds.begin(), kinds.end(),
                                lock_supports_native_timeout));
    };
    check_pins("holderdeath",
               {
                   {LockKind::Mcs, 0xb023709ee230383dULL, 510785, 20645921},
                   {LockKind::HboGt, 0x1396e9a716250d37ULL, 161072, 20277900},
                   {LockKind::HboGtSd, 0x1396e9a716250d37ULL, 301783, 20275869},
                   {LockKind::HboHier, 0x7638f9b7d6364757ULL, 175660, 20277651},
                   {LockKind::Reactive, 0x137f20a71610d8cbULL, 5135, 20498355},
                   {LockKind::Cohort, 0x823571c86531cbddULL, 26945, 20343243},
                   {LockKind::ClhTry, 0xb023709ee230383dULL, 510558, 20624726},
                   {LockKind::Adaptive, 0x137f20a71610d8cbULL, 5138, 20500881},
               });
    check_pins("death",
               {
                   {LockKind::Mcs, 0xb023709ee230383dULL, 511567, 20717657},
                   {LockKind::HboGt, 0x404fe565e11ddefbULL, 75618, 14568873},
                   {LockKind::HboGtSd, 0x7c17f6ebd0717f6dULL, 162940, 21910406},
                   {LockKind::HboHier, 0xd115614d686f5dbULL, 84129, 14341914},
                   {LockKind::Reactive, 0xfec48f261fd4b0bfULL, 46948, 34010862},
                   {LockKind::Cohort, 0x908b86db0bdbc1efULL, 56264, 17926653},
                   {LockKind::ClhTry, 0xb023709ee230383dULL, 511344, 20691896},
                   {LockKind::Adaptive, 0x4869e44c64855593ULL, 91506, 17600219},
               });
}

} // namespace
