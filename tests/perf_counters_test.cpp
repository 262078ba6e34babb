/**
 * @file
 * The hardware-counter observatory (obs/perf_counters.hpp): deterministic
 * phase attribution through FakeCounterSource, the proxy mapping onto
 * local/global transactions, graceful degradation when no counters open,
 * the native end-to-end path (NativeMachine -> phase hooks -> session),
 * and the v6 report round trip with and without the native_traffic object.
 *
 * Everything here runs on FakeCounterSource — the perf_event backend needs
 * a PMU and a permissive perf_event_paranoid, neither of which CI
 * guarantees; its capability triage is exercised (non-fatally) by
 * `nucabench --counters` in the perf-smoke job.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "locks/any_lock.hpp"
#include "native/machine.hpp"
#include "obs/json.hpp"
#include "obs/perf_counters.hpp"
#include "obs/report.hpp"

using namespace nucalock;
using namespace nucalock::obs;
using nucalock::locks::AnyLock;
using nucalock::locks::LockKind;
using nucalock::native::NativeContext;
using nucalock::native::NativeMachine;

namespace {

/** Per-read step of the default FakeCounterSource::Steps. */
constexpr std::uint64_t kCycStep = 1000;
constexpr std::uint64_t kInsStep = 500;
constexpr std::uint64_t kLlcStep = 10;
constexpr std::uint64_t kRemStep = 3;

const NativeLockTraffic*
find_row(const NativeTrafficStats& stats, std::uint64_t lock_id)
{
    for (const NativeLockTraffic& row : stats.per_lock)
        if (row.lock_id == lock_id)
            return &row;
    return nullptr;
}

void
expect_one_step(const PhaseCounters& cell)
{
    EXPECT_EQ(cell.at(CounterEvent::Cycles), kCycStep);
    EXPECT_EQ(cell.at(CounterEvent::Instructions), kInsStep);
    EXPECT_EQ(cell.at(CounterEvent::LlcLoadMisses), kLlcStep);
    EXPECT_EQ(cell.at(CounterEvent::RemoteAccesses), kRemStep);
}

// ------------------------------------------------- phase attribution ---

TEST(PerfCounters, FakeSessionAttributesPhasesExactly)
{
    FakeCounterSource source;
    NativeCounterSession session(source);

    // Drive the recorder the way note_op_phase would for one acquisition
    // of lock 0x10 with a GT gate publish inside the critical section.
    native::PhaseRecorder* rec = session.bind_thread(0, 0);
    ASSERT_NE(rec, nullptr);
    rec->on_phase(0x10, sim::TxPhase::AcquireSpin); // delta -> (0, None)
    rec->on_phase(0x10, sim::TxPhase::Critical);    // -> (0x10, AcquireSpin)
    rec->on_transient_phase(sim::TxPhase::GatePublish); // -> (0x10, Critical)
    rec->on_phase(0x10, sim::TxPhase::Release); // -> (0x10, GatePublish)
    const NativeTrafficStats stats = session.finish(); // tail -> Release

    EXPECT_TRUE(stats.available);
    EXPECT_EQ(stats.source, "fake");
    EXPECT_EQ(stats.threads, 1u);
    EXPECT_EQ(stats.samples, 5u);
    EXPECT_FALSE(stats.multiplexed());
    EXPECT_TRUE(stats.remote_counted());

    // Sorted rows: the unattributed window first, then the lock.
    ASSERT_EQ(stats.per_lock.size(), 2u);
    EXPECT_EQ(stats.per_lock[0].lock_id, 0u);
    EXPECT_EQ(stats.per_lock[1].lock_id, 0x10u);

    // Exactly one read's worth of counts lands in each visited cell.
    expect_one_step(stats.per_lock[0].phase(sim::TxPhase::None));
    const NativeLockTraffic& lock_row = stats.per_lock[1];
    expect_one_step(lock_row.phase(sim::TxPhase::AcquireSpin));
    expect_one_step(lock_row.phase(sim::TxPhase::Critical));
    expect_one_step(lock_row.phase(sim::TxPhase::GatePublish));
    expect_one_step(lock_row.phase(sim::TxPhase::Release));
    EXPECT_TRUE(lock_row.phase(sim::TxPhase::Handover).empty());
    EXPECT_TRUE(lock_row.phase(sim::TxPhase::None).empty());

    // finish() is idempotent.
    const NativeTrafficStats again = session.finish();
    EXPECT_EQ(again.samples, stats.samples);
    EXPECT_EQ(again.per_lock.size(), stats.per_lock.size());
}

TEST(PerfCounters, ProxyMappingSplitsLocalAndGlobal)
{
    FakeCounterSource source;
    NativeCounterSession session(source);
    native::PhaseRecorder* rec = session.bind_thread(0, 0);
    ASSERT_NE(rec, nullptr);
    rec->on_phase(7, sim::TxPhase::Critical);
    const NativeTrafficStats stats = session.finish();

    // With the remote slot counting: global = remote misses, local = the
    // remaining LLC misses.
    const NativeLockTraffic* row = find_row(stats, 7);
    ASSERT_NE(row, nullptr);
    const sim::TxCount tx = stats.proxy_tx(row->phase(sim::TxPhase::Critical));
    EXPECT_EQ(tx.global_tx, kRemStep);
    EXPECT_EQ(tx.local_tx, kLlcStep - kRemStep);

    // totals() covers both visited cells (the lock-7 critical window and
    // the unattributed priming window) in TrafficStats shape.
    const sim::TrafficStats totals = stats.totals();
    EXPECT_EQ(totals.global_tx, 2 * kRemStep);
    EXPECT_EQ(totals.local_tx, 2 * (kLlcStep - kRemStep));
    EXPECT_EQ(totals.data_fetch_tx, totals.local_tx + totals.global_tx);

    // to_attribution() drops the lock-0 row, so fold_traffic sees that
    // window as unattributed; per_node stays empty.
    const sim::TrafficAttribution attr = stats.to_attribution();
    ASSERT_EQ(attr.per_lock.size(), 1u);
    EXPECT_EQ(attr.per_lock[0].lock_id, 7u);
    EXPECT_EQ(attr.per_lock[0]
                  .by_phase[static_cast<std::size_t>(sim::TxPhase::Critical)]
                  .global_tx,
              kRemStep);
    EXPECT_TRUE(attr.per_node.empty());
}

TEST(PerfCounters, ProxyWithoutRemoteEventCountsAllMissesGlobal)
{
    FakeCounterSource::Steps steps;
    steps.remote_unsupported = true;
    FakeCounterSource source(steps);
    NativeCounterSession session(source);
    native::PhaseRecorder* rec = session.bind_thread(0, 0);
    ASSERT_NE(rec, nullptr);
    rec->on_phase(7, sim::TxPhase::Critical);
    const NativeTrafficStats stats = session.finish();

    EXPECT_FALSE(stats.remote_counted());
    const NativeLockTraffic* row = find_row(stats, 7);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->phase(sim::TxPhase::Critical).at(
                  CounterEvent::RemoteAccesses),
              0u);

    // Without a node-access event every LLC miss is conservatively global
    // — remote-vs-local is exactly what the missing event distinguishes.
    const sim::TxCount tx = stats.proxy_tx(row->phase(sim::TxPhase::Critical));
    EXPECT_EQ(tx.global_tx, kLlcStep);
    EXPECT_EQ(tx.local_tx, 0u);
}

// --------------------------------------------- graceful degradation ----

/** A host where nothing opens: denied capabilities, no thread counters. */
class DeniedSource final : public CounterSource
{
  public:
    CounterCapabilities
    capabilities() override
    {
        CounterCapabilities caps;
        caps.available = false;
        caps.unavailable_reason = "denied by test policy";
        caps.paranoid_level = 4;
        caps.source = "fake";
        for (int i = 0; i < kNumCounterEvents; ++i)
            caps.events.push_back(
                {static_cast<CounterEvent>(i), CounterState::Denied,
                 "EACCES (perf_event_paranoid=4)"});
        return caps;
    }

    std::unique_ptr<ThreadCounters>
    open_current_thread() override
    {
        return nullptr;
    }
};

TEST(PerfCounters, DeniedSourceYieldsUnavailableMarker)
{
    DeniedSource source;
    NativeCounterSession session(source);
    EXPECT_EQ(session.bind_thread(0, 0), nullptr);
    const NativeTrafficStats stats = session.finish();

    EXPECT_FALSE(stats.available);
    EXPECT_EQ(stats.unavailable_reason, "denied by test policy");
    EXPECT_EQ(stats.paranoid_level, 4);
    EXPECT_EQ(stats.threads, 0u);
    EXPECT_TRUE(stats.per_lock.empty());
    ASSERT_EQ(stats.events.size(),
              static_cast<std::size_t>(kNumCounterEvents));
    for (const CounterEventStatus& e : stats.events) {
        EXPECT_EQ(e.state, CounterState::Denied);
        EXPECT_FALSE(e.counting());
    }

    // The unavailable marker still round-trips through a schema-valid
    // report — degradation must never fail a run or its artifact.
    ReportConfig config;
    config.tool = "bench_native_locks";
    config.bench = "native";
    ReportRun run{"TATAS", harness::BenchResult{}, nullptr};
    run.native_traffic = &stats;
    std::ostringstream oss;
    write_report(oss, config, {run});
    std::string error;
    EXPECT_TRUE(validate_report_text(oss.str(), &error)) << error;

    const auto parsed = json_parse(oss.str());
    ASSERT_TRUE(parsed.has_value());
    const JsonValue* nt = parsed->find("runs")->array[0].find("native_traffic");
    ASSERT_NE(nt, nullptr);
    EXPECT_EQ(nt->find("available")->type, JsonValue::Type::Bool);
    EXPECT_FALSE(nt->find("available")->boolean);
    EXPECT_EQ(nt->find("unavailable_reason")->string, "denied by test policy");
    EXPECT_DOUBLE_EQ(nt->find("perf_event_paranoid")->number, 4.0);
}

TEST(PerfCounters, FakeCapabilitiesReportRemoteSlotVerdict)
{
    FakeCounterSource all_on;
    const CounterCapabilities caps = all_on.capabilities();
    EXPECT_TRUE(caps.available);
    EXPECT_EQ(caps.source, "fake");
    ASSERT_EQ(caps.events.size(), static_cast<std::size_t>(kNumCounterEvents));
    for (const CounterEventStatus& e : caps.events)
        EXPECT_EQ(e.state, CounterState::Available);

    FakeCounterSource::Steps steps;
    steps.remote_unsupported = true;
    FakeCounterSource no_remote(steps);
    const CounterCapabilities partial = no_remote.capabilities();
    EXPECT_TRUE(partial.available);
    for (const CounterEventStatus& e : partial.events) {
        if (e.event == CounterEvent::RemoteAccesses) {
            EXPECT_EQ(e.state, CounterState::Unsupported);
        } else {
            EXPECT_EQ(e.state, CounterState::Available);
        }
    }
}

// The perf backend must degrade, not crash, whatever this host offers:
// capability probing and the triage printer run everywhere, and on hosts
// without a usable PMU they return the machine-readable denial.
TEST(PerfCounters, PerfBackendProbesWithoutCrashing)
{
    PerfCounterSource source;
    const CounterCapabilities caps = source.capabilities();
    EXPECT_FALSE(caps.source.empty());
    EXPECT_EQ(caps.events.size(), static_cast<std::size_t>(kNumCounterEvents));
    if (!caps.available) {
        EXPECT_FALSE(caps.unavailable_reason.empty());
    }

    std::FILE* sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    const int rc = print_counter_capabilities(source, sink);
    EXPECT_TRUE(rc == 0 || rc == 1);
    std::fclose(sink);
}

// ------------------------------------------------- native end to end ---

TEST(PerfCounters, NativeRunAttributesCountersToTheLock)
{
    NativeMachine machine(Topology::symmetric(2, 2));
    FakeCounterSource source;
    NativeCounterSession session(source);
    machine.install_phase_hooks(&session);

    AnyLock<NativeContext> lock(machine, LockKind::Tatas);
    constexpr int kThreads = 4;
    constexpr int kIters = 50;
    machine.run_threads(kThreads, Placement::RoundRobinNodes,
                        [&](NativeContext& ctx, int) {
                            for (int i = 0; i < kIters; ++i) {
                                lock.acquire(ctx);
                                lock.release(ctx);
                            }
                        });
    const NativeTrafficStats stats = session.finish();

    EXPECT_TRUE(stats.available);
    EXPECT_EQ(stats.threads, static_cast<std::uint64_t>(kThreads));
    // Every acquisition produces at least the attempt/acquired/released
    // transitions on its thread.
    EXPECT_GE(stats.samples,
              static_cast<std::uint64_t>(3 * kThreads * kIters));

    // The lock's probe identity owns a row, and its spin/critical/release
    // phases all saw counter deltas.
    const NativeLockTraffic* row = find_row(stats, lock.lock_id());
    ASSERT_NE(row, nullptr);
    EXPECT_GT(row->phase(sim::TxPhase::AcquireSpin).at(CounterEvent::Cycles),
              0u);
    EXPECT_GT(row->phase(sim::TxPhase::Critical).at(CounterEvent::Cycles), 0u);
    EXPECT_GT(row->phase(sim::TxPhase::Release).at(CounterEvent::Cycles), 0u);

    // Rows come out sorted by lock_id.
    for (std::size_t i = 1; i < stats.per_lock.size(); ++i)
        EXPECT_LT(stats.per_lock[i - 1].lock_id, stats.per_lock[i].lock_id);
}

// ------------------------------------------------- report round trip ---

TEST(PerfCounters, ReportRoundTripCarriesPerPhaseDeltas)
{
    FakeCounterSource source;
    NativeCounterSession session(source);
    native::PhaseRecorder* rec = session.bind_thread(0, 0);
    ASSERT_NE(rec, nullptr);
    rec->on_phase(0x20, sim::TxPhase::AcquireSpin);
    rec->on_phase(0x20, sim::TxPhase::Critical);
    rec->on_phase(0x20, sim::TxPhase::Release);
    const NativeTrafficStats stats = session.finish();

    ReportConfig config;
    config.tool = "bench_native_locks";
    config.bench = "native";
    harness::BenchResult result;
    result.total_acquires = 1;
    ReportRun with{"TATAS", result, nullptr};
    with.native_traffic = &stats;
    ReportRun without{"MCS", result, nullptr};

    std::ostringstream oss;
    write_report(oss, config, {with, without});
    std::string error;
    ASSERT_TRUE(validate_report_text(oss.str(), &error)) << error;

    const auto parsed = json_parse(oss.str());
    ASSERT_TRUE(parsed.has_value());
    const JsonValue* runs = parsed->find("runs");
    ASSERT_EQ(runs->array.size(), 2u);

    // Run without counters simply omits the object and stays valid.
    EXPECT_EQ(runs->array[1].find("native_traffic"), nullptr);

    const JsonValue* nt = runs->array[0].find("native_traffic");
    ASSERT_NE(nt, nullptr);
    EXPECT_TRUE(nt->find("available")->boolean);
    EXPECT_EQ(nt->find("source")->string, "fake");
    EXPECT_FALSE(nt->find("multiplexed")->boolean);

    const JsonValue* per_lock = nt->find("per_lock");
    ASSERT_NE(per_lock, nullptr);
    ASSERT_EQ(per_lock->array.size(), 2u); // lock 0 (unattributed) + 0x20
    const JsonValue& lock_row = per_lock->array[1];
    EXPECT_EQ(lock_row.find("lock_id")->string, "0x0000000000000020");
    const JsonValue* phases = lock_row.find("phases");
    ASSERT_NE(phases, nullptr);
    const JsonValue* critical = phases->find("critical");
    ASSERT_NE(critical, nullptr);
    EXPECT_DOUBLE_EQ(critical->find("cycles")->number,
                     static_cast<double>(kCycStep));
    EXPECT_DOUBLE_EQ(critical->find("llc_load_misses")->number,
                     static_cast<double>(kLlcStep));
    EXPECT_DOUBLE_EQ(critical->find("remote_accesses")->number,
                     static_cast<double>(kRemStep));

    // Per-acquisition proxy rates come from the same totals/proxy math.
    const sim::TrafficStats totals = stats.totals();
    EXPECT_DOUBLE_EQ(nt->find("global_tx_per_acquisition")->number,
                     static_cast<double>(totals.global_tx));
    EXPECT_DOUBLE_EQ(nt->find("local_tx_per_acquisition")->number,
                     static_cast<double>(totals.local_tx));
}

} // namespace
