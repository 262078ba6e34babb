/**
 * @file
 * Tests for the observability subsystem (src/obs/): JSON writer/parser
 * round trips, the metrics registry's event folding, timeline
 * reconstruction and Chrome-trace export, report schema validation, and —
 * the load-bearing guarantee — that installing probes does not change the
 * simulated run (bit-identical acquisition order per seed).
 */
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "harness/newbench.hpp"
#include "locks/hbo_gt.hpp"
#include "native/machine.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"
#include "sim/faults.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::obs;
using harness::BenchResult;
using harness::NewBenchConfig;
using locks::LockKind;

// ---------------------------------------------------------------- JSON --

TEST(Json, WriterBasicShapes)
{
    std::ostringstream oss;
    JsonWriter w(oss, /*pretty=*/false);
    w.begin_object()
        .kv("s", "hi")
        .kv("n", 3.5)
        .kv("i", std::uint64_t{7})
        .kv("b", true)
        .key("a")
        .begin_array()
        .value(1)
        .value(2)
        .end_array()
        .key("z")
        .null()
        .end_object();
    EXPECT_EQ(oss.str(),
              R"({"s":"hi","n":3.5,"i":7,"b":true,"a":[1,2],"z":null})");
}

TEST(Json, EscapesControlAndQuotes)
{
    EXPECT_EQ(json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
    std::ostringstream oss;
    JsonWriter w(oss, false);
    w.begin_object().kv("k\"ey", "v\nal").end_object();
    const auto parsed = json_parse(oss.str());
    ASSERT_TRUE(parsed.has_value());
    const JsonValue* v = parsed->find("k\"ey");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->string, "v\nal");
}

TEST(Json, NonFiniteBecomesNull)
{
    std::ostringstream oss;
    JsonWriter w(oss, false);
    w.begin_array()
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(std::numeric_limits<double>::infinity())
        .end_array();
    EXPECT_EQ(oss.str(), "[null,null]");
}

TEST(Json, ParserRoundTrip)
{
    const std::string text =
        R"({"a": [1, 2.5, -3e2], "b": {"c": "x", "d": null}, "e": false})";
    const auto parsed = json_parse(text);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->is_object());
    const JsonValue* a = parsed->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->is_array());
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
    const JsonValue* d = parsed->find("b")->find("d");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->type, JsonValue::Type::Null);
}

TEST(Json, ParserRejectsMalformed)
{
    std::string error;
    EXPECT_FALSE(json_parse("{", &error).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(json_parse("[1,]").has_value());
    EXPECT_FALSE(json_parse("{\"a\" 1}").has_value());
    EXPECT_FALSE(json_parse("[1] trailing").has_value());
}

TEST(Json, ParserDecodesUnicodeEscapes)
{
    const auto parsed = json_parse(R"(["Aé"])");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->array[0].string, "A\xc3\xa9");
}

// ---------------------------------------------------- metrics registry --

ProbeRecord
rec(LockEvent event, std::uint64_t t, std::uint64_t lock_id, int thread,
    int cpu, int node, std::uint64_t a0 = 0, std::uint64_t a1 = 0)
{
    return ProbeRecord{event, t, lock_id, thread, cpu, node, a0, a1};
}

TEST(MetricsRegistry, ClassifiesHandovers)
{
    // Threads 0 (node 0), 1 (node 0), 2 (node 1) take the lock in turn:
    // t0 -> t1 is a local handover, t1 -> t2 remote, t2 -> t2 a repeat.
    MetricsRegistry reg;
    const std::uint64_t L = 42;
    std::uint64_t t = 0;
    const auto acquire_release = [&](int thread, int cpu, int node) {
        reg.on_event(rec(LockEvent::AcquireAttempt, ++t, L, thread, cpu, node));
        reg.on_event(rec(LockEvent::Acquired, ++t, L, thread, cpu, node));
        reg.on_event(rec(LockEvent::Released, ++t, L, thread, cpu, node));
    };
    acquire_release(0, 0, 0);
    acquire_release(1, 1, 0);
    acquire_release(2, 4, 1);
    acquire_release(2, 4, 1);
    reg.finalize();

    const LockMetrics& m = reg.lock(L);
    EXPECT_EQ(m.attempts, 4u);
    EXPECT_EQ(m.acquisitions, 4u);
    EXPECT_EQ(m.releases, 4u);
    EXPECT_EQ(m.handovers_local, 1u);
    EXPECT_EQ(m.handovers_remote, 1u);
    EXPECT_EQ(m.repeats, 1u);
    EXPECT_DOUBLE_EQ(m.local_handover_fraction(), 0.5);
    EXPECT_DOUBLE_EQ(m.remote_handover_fraction(), 0.5);
    // Node batches: node 0 held twice, then node 1 twice.
    EXPECT_EQ(m.node_batch_lengths.count(), 2u);
    EXPECT_DOUBLE_EQ(m.node_batch_lengths.mean(), 2.0);
    ASSERT_GE(m.per_node.size(), 2u);
    EXPECT_EQ(m.per_node[0].acquisitions, 2u);
    EXPECT_EQ(m.per_node[1].acquisitions, 2u);
    EXPECT_EQ(m.per_node[1].handovers_in, 1u);
}

TEST(MetricsRegistry, WaitAndHoldTimes)
{
    MetricsRegistry reg;
    const std::uint64_t L = 9;
    reg.on_event(rec(LockEvent::AcquireAttempt, 100, L, 0, 0, 0));
    reg.on_event(rec(LockEvent::Acquired, 160, L, 0, 0, 0));
    reg.on_event(rec(LockEvent::Released, 260, L, 0, 0, 0));
    reg.finalize();

    const LockMetrics& m = reg.lock(L);
    EXPECT_EQ(m.wait_ns.count(), 1u);
    EXPECT_DOUBLE_EQ(m.wait_ns.mean(), 60.0);
    EXPECT_EQ(m.hold_ns.count(), 1u);
    EXPECT_DOUBLE_EQ(m.hold_ns.mean(), 100.0);
    ASSERT_GT(reg.cpus().size(), 0u);
    EXPECT_EQ(reg.cpus()[0].cs_ns, 100u);
}

TEST(MetricsRegistry, BackoffAttributedToOpenAttempt)
{
    MetricsRegistry reg;
    const std::uint64_t L = 7;
    reg.on_event(rec(LockEvent::AcquireAttempt, 10, L, 3, 2, 1));
    // Backoff events carry lock_id 0 (the shared helper has no lock);
    // the registry attributes them to the thread's open attempt on L.
    reg.on_event(rec(LockEvent::BackoffBegin, 20, 0, 3, 2, 1, /*a0=*/64,
                     /*a1=*/static_cast<std::uint64_t>(BackoffClass::Remote)));
    reg.on_event(rec(LockEvent::BackoffEnd, 84, 0, 3, 2, 1));
    reg.on_event(rec(LockEvent::Acquired, 90, L, 3, 2, 1));
    reg.on_event(rec(LockEvent::Released, 95, L, 3, 2, 1));
    reg.finalize();

    const LockMetrics& m = reg.lock(L);
    const auto remote = static_cast<std::size_t>(BackoffClass::Remote);
    EXPECT_EQ(m.backoff[remote].episodes, 1u);
    EXPECT_EQ(m.backoff[remote].total_ns, 64u);
    EXPECT_EQ(m.backoff_ns_total(), 64u);
    EXPECT_EQ(reg.cpus()[2].backoff_episodes, 1u);
    EXPECT_EQ(reg.cpus()[2].backoff_ns, 64u);
}

TEST(MetricsRegistry, GateAndAngryCounters)
{
    MetricsRegistry reg;
    const std::uint64_t L = 5;
    reg.on_event(rec(LockEvent::AcquireAttempt, 1, L, 0, 0, 1));
    reg.on_event(rec(LockEvent::GateBlocked, 2, L, 0, 0, 1));
    reg.on_event(rec(LockEvent::GatePassed, 3, L, 0, 0, 1));
    reg.on_event(rec(LockEvent::GatePublish, 4, L, 0, 0, 1, /*node=*/1));
    reg.on_event(
        rec(LockEvent::GatePublish, 5, L, 0, 0, 1, /*node=*/1, /*anger=*/1));
    reg.on_event(rec(LockEvent::AngryEnter, 6, L, 0, 0, 1, /*holder node=*/0));
    reg.on_event(rec(LockEvent::AngryExit, 7, L, 0, 0, 1));
    reg.on_event(rec(LockEvent::GateOpen, 8, L, 0, 0, 1, /*count=*/2));
    reg.on_event(rec(LockEvent::Acquired, 9, L, 0, 0, 1));
    reg.finalize();

    const LockMetrics& m = reg.lock(L);
    EXPECT_EQ(m.gate_blocked, 1u);
    EXPECT_EQ(m.gate_passed, 1u);
    EXPECT_DOUBLE_EQ(m.gate_block_fraction(), 0.5);
    EXPECT_EQ(m.gate_publishes, 2u);
    EXPECT_EQ(m.gates_closed_in_anger, 1u);
    EXPECT_EQ(m.angry_transitions, 1u);
    EXPECT_EQ(m.gate_opens, 2u);
    ASSERT_GE(m.per_node.size(), 2u);
    EXPECT_EQ(m.per_node[1].gate_blocked, 1u);
    EXPECT_EQ(m.per_node[1].gate_passed, 1u);
}

TEST(MetricsRegistry, PrimaryLockIsFirstEvent)
{
    MetricsRegistry reg;
    reg.on_event(rec(LockEvent::AcquireAttempt, 1, 11, 0, 0, 0));
    reg.on_event(rec(LockEvent::AcquireAttempt, 2, 22, 0, 0, 0)); // nested
    reg.on_event(rec(LockEvent::Acquired, 3, 22, 0, 0, 0));
    reg.on_event(rec(LockEvent::Acquired, 4, 11, 0, 0, 0));
    reg.finalize();
    EXPECT_EQ(reg.primary_lock_id(), 11u);
    ASSERT_NE(reg.primary(), nullptr);
    EXPECT_EQ(reg.primary()->lock_id, 11u);
    EXPECT_EQ(reg.locks().size(), 2u);
}

// ---------------------------------------------------------- timeline ----

TEST(Timeline, ReconstructsWaitBackoffCritical)
{
    TimelineBuilder tb;
    const std::uint64_t L = 3;
    // Thread 1 on cpu 2/node 0 holds; thread 5 on cpu 9/node 1 waits with
    // one backoff episode, then gets the lock.
    tb.on_event(rec(LockEvent::AcquireAttempt, 0, L, 1, 2, 0));
    tb.on_event(rec(LockEvent::Acquired, 10, L, 1, 2, 0));
    tb.on_event(rec(LockEvent::AcquireAttempt, 20, L, 5, 9, 1));
    tb.on_event(rec(LockEvent::BackoffBegin, 30, 0, 5, 9, 1, 40,
                    static_cast<std::uint64_t>(BackoffClass::Remote)));
    tb.on_event(rec(LockEvent::BackoffEnd, 70, 0, 5, 9, 1));
    tb.on_event(rec(LockEvent::Released, 80, L, 1, 2, 0));
    tb.on_event(rec(LockEvent::Acquired, 90, L, 5, 9, 1));
    tb.on_event(rec(LockEvent::Released, 120, L, 5, 9, 1));
    tb.finalize();

    const auto& per_cpu = tb.intervals();
    ASSERT_TRUE(per_cpu.contains(2));
    ASSERT_TRUE(per_cpu.contains(9));
    // CPU 2: wait [0,10), critical [10,80).
    const auto& c2 = per_cpu.at(2);
    ASSERT_EQ(c2.size(), 2u);
    EXPECT_EQ(c2[1].state, CpuState::Critical);
    EXPECT_EQ(c2[1].begin_ns, 10u);
    EXPECT_EQ(c2[1].end_ns, 80u);
    // CPU 9: remote spin [20,30), backoff [30,70), remote spin [70,90),
    // critical [90,120). The holder (node 0) is remote to node 1.
    const auto& c9 = per_cpu.at(9);
    ASSERT_EQ(c9.size(), 4u);
    EXPECT_EQ(c9[0].state, CpuState::SpinningRemote);
    EXPECT_EQ(c9[1].state, CpuState::Backoff);
    EXPECT_EQ(c9[1].begin_ns, 30u);
    EXPECT_EQ(c9[1].end_ns, 70u);
    EXPECT_EQ(c9[2].state, CpuState::SpinningRemote);
    EXPECT_EQ(c9[3].state, CpuState::Critical);
    EXPECT_EQ(c9[3].end_ns, 120u);
}

TEST(Timeline, LocalSpinClassification)
{
    TimelineBuilder tb;
    const std::uint64_t L = 3;
    tb.on_event(rec(LockEvent::AcquireAttempt, 0, L, 0, 0, 0));
    tb.on_event(rec(LockEvent::Acquired, 5, L, 0, 0, 0));
    // Same-node waiter: spin classified local.
    tb.on_event(rec(LockEvent::AcquireAttempt, 10, L, 1, 1, 0));
    tb.on_event(rec(LockEvent::Released, 20, L, 0, 0, 0));
    tb.on_event(rec(LockEvent::Acquired, 25, L, 1, 1, 0));
    tb.on_event(rec(LockEvent::Released, 30, L, 1, 1, 0));
    tb.finalize();
    const auto& c1 = tb.intervals().at(1);
    ASSERT_GE(c1.size(), 2u);
    EXPECT_EQ(c1[0].state, CpuState::SpinningLocal);
}

TEST(Timeline, ChromeTraceIsValidJson)
{
    TimelineBuilder tb;
    const std::uint64_t L = 1;
    tb.on_event(rec(LockEvent::AcquireAttempt, 0, L, 0, 0, 0));
    tb.on_event(rec(LockEvent::Acquired, 100, L, 0, 0, 0));
    tb.on_event(rec(LockEvent::Released, 350, L, 0, 0, 0));
    tb.finalize();

    std::ostringstream oss;
    tb.write_chrome_trace(oss, "TATAS");
    std::string error;
    const auto parsed = json_parse(oss.str(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    const JsonValue* events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    // Metadata (process + one thread name) plus two "X" intervals.
    bool saw_complete = false;
    for (const JsonValue& e : events->array) {
        const JsonValue* ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->string == "X") {
            saw_complete = true;
            EXPECT_NE(e.find("ts"), nullptr);
            EXPECT_NE(e.find("dur"), nullptr);
            EXPECT_NE(e.find("name"), nullptr);
        }
    }
    EXPECT_TRUE(saw_complete);
}

// ------------------------------------------------------------ reports ---

TEST(Report, WriteThenValidate)
{
    MetricsRegistry reg;
    reg.on_event(rec(LockEvent::AcquireAttempt, 1, 10, 0, 0, 0));
    reg.on_event(rec(LockEvent::Acquired, 2, 10, 0, 0, 0));
    reg.on_event(rec(LockEvent::Released, 3, 10, 0, 0, 0));
    reg.finalize();

    ReportConfig config;
    config.tool = "nucabench";
    config.bench = "new";
    config.nodes = 2;
    config.cpus_per_node = 4;
    config.threads = 8;
    config.critical_work = 100;
    config.private_work = 200;
    config.iterations = 5;
    config.seed = 1;

    BenchResult result;
    result.total_time = 1000;
    result.total_acquires = 40;
    result.avg_iteration_ns = 25.0;
    result.node_handoff_ratio = 0.5;
    result.acquisition_order_hash = 0xdeadbeefULL;

    std::ostringstream oss;
    write_report(oss, config,
                 {ReportRun{"TATAS", result, &reg},
                  ReportRun{"MCS", result, nullptr}});

    std::string error;
    EXPECT_TRUE(validate_report_text(oss.str(), &error)) << error;

    // Spot-check content, not just validity.
    const auto parsed = json_parse(oss.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("schema")->string, kReportSchemaName);
    EXPECT_DOUBLE_EQ(parsed->find("schema_version")->number,
                     kReportSchemaVersion);
    const JsonValue* runs = parsed->find("runs");
    ASSERT_EQ(runs->array.size(), 2u);
    EXPECT_EQ(runs->array[0].find("lock")->string, "TATAS");
    EXPECT_TRUE(runs->array[0].find("metrics")->is_object());
    EXPECT_EQ(runs->array[1].find("metrics")->type, JsonValue::Type::Null);
    const JsonValue* r0 = runs->array[0].find("result");
    EXPECT_EQ(r0->find("acquisition_order_hash")->string,
              "0x00000000deadbeef");
}

TEST(Report, ValidationCatchesCorruption)
{
    ReportConfig config;
    config.tool = "nucabench";
    config.bench = "new";
    std::ostringstream oss;
    write_report(oss, config, {ReportRun{"TATAS", BenchResult{}, nullptr}});
    std::string text = oss.str();
    std::string error;
    ASSERT_TRUE(validate_report_text(text, &error)) << error;

    // Wrong schema name.
    std::string bad = text;
    bad.replace(bad.find("nucalock-bench-report"), 21, "some-other-schema!!!!");
    EXPECT_FALSE(validate_report_text(bad, &error));

    // Drop a required key.
    bad = text;
    bad.replace(bad.find("total_acquires"), 14, "total_admirers");
    EXPECT_FALSE(validate_report_text(bad, &error));

    // Not JSON at all.
    EXPECT_FALSE(validate_report_text("not json", &error));
    EXPECT_FALSE(error.empty());
}

TEST(Report, VersionMismatchNamesBothVersions)
{
    ReportConfig config;
    config.tool = "nucabench";
    config.bench = "new";
    std::ostringstream oss;
    write_report(oss, config, {ReportRun{"TATAS", BenchResult{}, nullptr}});
    std::string text = oss.str();

    // A report written by an older tool build must be rejected with a
    // message naming both versions, so a reader paired with the wrong
    // build is diagnosed immediately.
    const std::string current =
        "\"schema_version\": " + std::to_string(kReportSchemaVersion);
    const std::size_t pos = text.find(current);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, current.size(), "\"schema_version\": 5");

    std::string error;
    EXPECT_FALSE(validate_report_text(text, &error));
    const std::string expected = "report is v5, tool understands v" +
                                 std::to_string(kReportSchemaVersion);
    EXPECT_NE(error.find(expected), std::string::npos) << error;
}

/** Keys the schema lets a report omit (report.hpp lists the same set). */
bool
optional_report_key(const std::string& key)
{
    for (const char* k :
         {"host", "adaptive", "structs", "native_traffic", "robustness",
          "busy_ns_bins", "tx_bins", "unavailable_reason", "detail", "what",
          "trace", "minimal_trace"})
        if (key == k)
            return true;
    return false;
}

/** Inputs that make write_report emit every optional object. */
struct FullReportInputs
{
    MetricsRegistry registry;
    BenchResult result;
    structs::KvStructsStats kv;
    NativeTrafficStats native;
    RobustnessReport robustness;

    FullReportInputs()
    {
        // Two nodes, an ADAPTIVE gear switch, a gate and a backoff episode.
        registry.on_event(rec(LockEvent::AcquireAttempt, 1, 7, 0, 0, 0));
        registry.on_event(rec(LockEvent::Acquired, 2, 7, 0, 0, 0));
        registry.on_event(rec(LockEvent::AdaptSwitch, 3, 7, 0, 0, 0, 1 << 8));
        registry.on_event(rec(LockEvent::Released, 4, 7, 0, 0, 0));
        registry.on_event(rec(LockEvent::AcquireAttempt, 5, 7, 1, 4, 1));
        registry.on_event(rec(LockEvent::GateBlocked, 6, 7, 1, 4, 1));
        registry.on_event(rec(LockEvent::BackoffBegin, 7, 7, 1, 4, 1, 10, 2));
        registry.on_event(rec(LockEvent::BackoffEnd, 8, 7, 1, 4, 1));
        registry.on_event(rec(LockEvent::Acquired, 9, 7, 1, 4, 1));
        registry.on_event(rec(LockEvent::Released, 10, 7, 1, 4, 1));
        registry.finalize();

        result.total_acquires = 2;
        result.traffic_attribution.per_lock.resize(1);
        result.traffic_attribution.per_lock[0].lock_id = 7;
        result.traffic_attribution.per_node.resize(2);
        sim::ResourceUsage link;
        link.name = "link";
        link.series_bin_ns = 100;
        link.busy_ns_bins = {10, 20};
        link.tx_bins = {1, 2};
        result.contention.resources = {link};

        kv.per_stripe.resize(2);
        kv.per_stripe[1].lock_id = 9;

        native.available = false;
        native.unavailable_reason = "denied";
        native.paranoid_level = 2;
        native.source = "fake";
        native.events = {{CounterEvent::Cycles, CounterState::Denied,
                          "EACCES (perf_event_paranoid=2)"}};
        native.per_lock.resize(1);

        robustness.presets = {"holderdeath"};
        RobustnessCell cell;
        cell.lock = "MCS";
        cell.failed = true;
        cell.what = "overshoot";
        cell.trace = "nc1:1";
        cell.minimal_trace = "nc1:0";
        robustness.cells = {cell};
        robustness.per_lock.resize(1);
        robustness.failures = 1;
    }

    std::string
    write(bool nondeterministic = true) const
    {
        ReportConfig config;
        config.tool = "nucabench";
        config.bench = "new";
        ReportRun run{"ADAPTIVE", result, &registry};
        run.host.valid = nondeterministic;
        run.structs = &kv;
        run.native_traffic = nondeterministic ? &native : nullptr;
        std::ostringstream oss;
        write_report(oss, config, {run}, &robustness);
        return oss.str();
    }
};

/** Where a key sits: the steps to its parent object plus the key itself. */
struct KeySite
{
    std::vector<std::string> parent; ///< object keys, or "[i]" indices
    std::string parent_path;         ///< validator spelling, "" at the root
    std::string key;
};

void
collect_key_sites(const JsonValue& v, const std::vector<std::string>& steps,
                  const std::string& path, std::vector<KeySite>& out)
{
    if (v.is_object()) {
        for (const auto& [key, child] : v.object) {
            out.push_back({steps, path, key});
            std::vector<std::string> next = steps;
            next.push_back(key);
            collect_key_sites(child, next, path.empty() ? key : path + "." + key,
                              out);
        }
    } else if (v.is_array()) {
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            const std::string index = "[" + std::to_string(i) + "]";
            std::vector<std::string> next = steps;
            next.push_back(index);
            collect_key_sites(v.array[i], next, path + index, out);
        }
    }
}

JsonValue&
value_at(JsonValue& root, const std::vector<std::string>& steps)
{
    JsonValue* v = &root;
    for (const std::string& step : steps)
        v = step.front() == '['
                ? &v->array.at(std::stoul(step.substr(1)))
                : &v->object.at(step);
    return *v;
}

TEST(Report, EveryKeyTheWriterEmitsIsRequiredUnlessOptional)
{
    const FullReportInputs inputs;
    const auto document = json_parse(inputs.write());
    ASSERT_TRUE(document.has_value());
    std::string error;
    ASSERT_TRUE(validate_report(*document, &error)) << error;

    std::vector<KeySite> sites;
    collect_key_sites(*document, {}, "", sites);
    ASSERT_GT(sites.size(), 300u);
    for (const KeySite& site : sites) {
        JsonValue doc = *document;
        value_at(doc, site.parent).object.erase(site.key);
        const std::string where =
            (site.parent_path.empty() ? "" : site.parent_path + ".") +
            site.key;
        error.clear();
        const bool accepted = validate_report(doc, &error);
        // unavailable_reason is optional in shape, but required by the one
        // explicit rule: this document has available == false.
        if (optional_report_key(site.key) &&
            site.key != "unavailable_reason") {
            EXPECT_TRUE(accepted) << "without " << where << ": " << error;
            continue;
        }
        EXPECT_FALSE(accepted) << "accepted without " << where;
        EXPECT_NE(error.find("'" + site.key + "'"), std::string::npos)
            << where << ": " << error;
        if (!site.parent_path.empty()) {
            EXPECT_NE(error.find(site.parent_path + ":"), std::string::npos)
                << where << ": " << error;
        }
    }
}

TEST(Report, DriftedFieldsAreRejectedNamingTheFirstMissing)
{
    // The seven fields an earlier hand-written validator never checked.
    const FullReportInputs inputs;
    auto document = json_parse(inputs.write());
    ASSERT_TRUE(document.has_value());
    JsonValue& run = document->object.at("runs").array.at(0);
    JsonValue& result = run.object.at("result");
    for (const char* key : {"faults_injected", "mutex_violations",
                            "lock_timeouts"})
        result.object.erase(key);
    JsonValue& metrics = run.object.at("metrics");
    for (JsonValue& lock : metrics.object.at("locks").array) {
        lock.object.erase("try_attempts");
        lock.object.erase("gates_closed_in_anger");
        for (JsonValue& node : lock.object.at("per_node").array)
            node.object.erase("batch_lengths");
    }
    for (JsonValue& cpu : metrics.object.at("per_cpu").array)
        cpu.object.erase("wait_ns");

    std::string error;
    EXPECT_FALSE(validate_report(*document, &error));
    EXPECT_EQ(error,
              "runs[0].metrics.locks[0]: missing field "
              "'gates_closed_in_anger'");
}

TEST(Report, NullableKeysAndTheUnavailableReasonRule)
{
    const FullReportInputs inputs;
    const auto document = json_parse(inputs.write());
    ASSERT_TRUE(document.has_value());
    const auto run_of = [](JsonValue& doc) -> JsonValue& {
        return doc.object.at("runs").array.at(0);
    };
    std::string error;

    // nucabench --json writes "metrics": null; a host whose
    // perf_event_paranoid is unreadable writes null there.
    JsonValue doc = *document;
    run_of(doc).object.at("metrics") = JsonValue{};
    EXPECT_TRUE(validate_report(doc, &error)) << error;
    doc = *document;
    run_of(doc).object.at("native_traffic").object.at("perf_event_paranoid") =
        JsonValue{};
    EXPECT_TRUE(validate_report(doc, &error)) << error;

    // No counts and no reason.
    doc = *document;
    run_of(doc).object.at("native_traffic").object.erase("unavailable_reason");
    error.clear();
    EXPECT_FALSE(validate_report(doc, &error));
    EXPECT_NE(error.find("runs[0].native_traffic: missing field "
                         "'unavailable_reason'"),
              std::string::npos)
        << error;

    // A bool where the writer emits a number, and a number for a bool.
    doc = *document;
    JsonValue& acquires =
        run_of(doc).object.at("result").object.at("total_acquires");
    acquires = JsonValue{};
    acquires.type = JsonValue::Type::Bool;
    error.clear();
    EXPECT_FALSE(validate_report(doc, &error));
    EXPECT_EQ(error, "runs[0].result.total_acquires must be a number");

    doc = *document;
    JsonValue& available =
        run_of(doc).object.at("native_traffic").object.at("available");
    available = JsonValue{};
    available.type = JsonValue::Type::Number;
    available.number = 1;
    error.clear();
    EXPECT_FALSE(validate_report(doc, &error));
    EXPECT_EQ(error, "runs[0].native_traffic.available must be a boolean");
}

TEST(Report, StrippedReportEqualsTheReportWrittenWithoutHostObjects)
{
    const FullReportInputs inputs;
    auto with = json_parse(inputs.write(/*nondeterministic=*/true));
    const auto without = json_parse(inputs.write(/*nondeterministic=*/false));
    ASSERT_TRUE(with.has_value());
    ASSERT_TRUE(without.has_value());
    const JsonValue& run = with->object.at("runs").array.at(0);
    ASSERT_NE(run.find("host"), nullptr);
    ASSERT_NE(run.find("native_traffic"), nullptr);
    EXPECT_FALSE(*with == *without);

    strip_nondeterministic(*with);
    EXPECT_TRUE(*with == *without);
}

// --------------------------------------- probes do not perturb the run --

NewBenchConfig
small_config(std::uint64_t seed)
{
    NewBenchConfig config;
    config.topology = Topology::symmetric(2, 4);
    config.threads = 8;
    config.iterations_per_thread = 12;
    config.critical_work = 300;
    config.private_work = 800;
    config.seed = seed;
    return config;
}

/**
 * The subsystem's core guarantee, pinned per lock family: enabling probes
 * must not change the simulated run. Identical acquisition order hash,
 * identical end time, identical coherence traffic.
 */
TEST(ProbeNeutrality, SimRunIsBitIdenticalWithProbesOn)
{
    for (LockKind kind :
         {LockKind::Tatas, LockKind::TatasExp, LockKind::Ticket,
          LockKind::Anderson, LockKind::Mcs, LockKind::Clh, LockKind::Rh,
          LockKind::Hbo, LockKind::HboGt, LockKind::HboGtSd,
          LockKind::HboHier, LockKind::Reactive, LockKind::Cohort,
          LockKind::ClhTry}) {
        const BenchResult bare = run_newbench(kind, small_config(7));

        MetricsRegistry reg;
        TimelineBuilder tb;
        MultiSink sink;
        sink.add(&reg);
        sink.add(&tb);
        NewBenchConfig probed = small_config(7);
        probed.probe = &sink;
        const BenchResult observed = run_newbench(kind, probed);

        EXPECT_EQ(bare.acquisition_order_hash,
                  observed.acquisition_order_hash)
            << locks::lock_name(kind);
        EXPECT_EQ(bare.total_time, observed.total_time)
            << locks::lock_name(kind);
        EXPECT_EQ(bare.traffic.local_tx, observed.traffic.local_tx)
            << locks::lock_name(kind);
        EXPECT_EQ(bare.traffic.global_tx, observed.traffic.global_tx)
            << locks::lock_name(kind);
        EXPECT_GT(reg.events_seen(), 0u) << locks::lock_name(kind);
    }
}

/**
 * The same guarantee under fault injection: a profiled faulted run (what
 * `nucabench --faults --traffic/--json` attaches) must replay the bare
 * run exactly, recovery timeouts and abandonment included.
 */
TEST(ProbeNeutrality, FaultedRunIsBitIdenticalWithProbesOn)
{
    for (const char* preset : {"death", "chaos", "holderdeath"}) {
        for (LockKind kind :
             {LockKind::Mcs, LockKind::HboGtSd, LockKind::Reactive,
              LockKind::Cohort, LockKind::ClhTry, LockKind::Adaptive}) {
            NewBenchConfig config;
            config.topology = Topology::symmetric(2, 7);
            config.threads = 12;
            config.iterations_per_thread = 20;
            config.seed = 1;
            config.fault_plan = *sim::FaultPlan::parse(preset, 1, 12);
            const BenchResult bare = run_newbench(kind, config);

            MetricsRegistry reg;
            config.probe = &reg;
            const BenchResult observed = run_newbench(kind, config);

            const std::string what =
                std::string(locks::lock_name(kind)) + " under " + preset;
            EXPECT_EQ(bare.acquisition_order_hash,
                      observed.acquisition_order_hash)
                << what;
            EXPECT_EQ(bare.total_time, observed.total_time) << what;
            EXPECT_EQ(bare.traffic.local_tx, observed.traffic.local_tx)
                << what;
            EXPECT_EQ(bare.traffic.global_tx, observed.traffic.global_tx)
                << what;
            EXPECT_EQ(bare.faults_injected, observed.faults_injected) << what;
            EXPECT_EQ(bare.mutex_violations, observed.mutex_violations)
                << what;
            EXPECT_EQ(bare.lock_timeouts, observed.lock_timeouts) << what;
            EXPECT_GT(reg.events_seen(), 0u) << what;
        }
    }
}

TEST(ProbeNeutrality, HashIsSeedDeterministicAndSeedSensitive)
{
    const BenchResult a = run_newbench(LockKind::Mcs, small_config(3));
    const BenchResult b = run_newbench(LockKind::Mcs, small_config(3));
    const BenchResult c = run_newbench(LockKind::Mcs, small_config(4));
    EXPECT_EQ(a.acquisition_order_hash, b.acquisition_order_hash);
    EXPECT_NE(a.acquisition_order_hash, c.acquisition_order_hash);
}

// ------------------------------------------------- end-to-end metrics ---

/** On real threads the registry sits behind ThreadSafeSink: every
 *  acquisition and both of its samples must land, none torn or lost. */
TEST(EndToEnd, ThreadSafeSinkCountsOnRealThreads)
{
    native::NativeMachine m(Topology::symmetric(2, 2));
    MetricsRegistry reg;
    ThreadSafeSink sink(reg);
    m.install_probe(&sink);
    locks::HboGtLock<native::NativeContext> lock(m);
    const native::NativeRef counter = m.alloc(0);
    m.run_threads(4, Placement::RoundRobinNodes,
                  [&](native::NativeContext& ctx, int) {
                      for (int i = 0; i < 500; ++i) {
                          lock.acquire(ctx);
                          ctx.store(counter, ctx.load(counter) + 1);
                          lock.release(ctx);
                      }
                  });
    native::NativeContext ctx = m.make_context(0, 0);
    EXPECT_EQ(ctx.load(counter), 2000u);
    reg.finalize();
    const LockMetrics* lm = reg.primary();
    ASSERT_NE(lm, nullptr);
    EXPECT_EQ(lm->acquisitions, 2000u);
    EXPECT_EQ(lm->wait_ns.count(), 2000u);
    EXPECT_EQ(lm->hold_ns.count(), 2000u);
}

TEST(EndToEnd, RegistryMatchesBenchResult)
{
    MetricsRegistry reg;
    NewBenchConfig config = small_config(1);
    config.probe = &reg;
    const BenchResult r = run_newbench(LockKind::Mcs, config);
    reg.finalize();

    const LockMetrics* m = reg.primary();
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->acquisitions, r.total_acquires);
    EXPECT_EQ(m->releases, r.total_acquires);
    // Every acquisition after the first is a handover or a repeat.
    EXPECT_EQ(m->handovers_local + m->handovers_remote + m->repeats,
              m->acquisitions - 1);
    // The registry's remote-handover count must agree with the harness's
    // host-side node_handoff_ratio (same definition, independent plumbing).
    const double ratio = static_cast<double>(m->handovers_remote) /
                         static_cast<double>(m->acquisitions - 1);
    EXPECT_NEAR(ratio, r.node_handoff_ratio, 1e-12);
    EXPECT_EQ(m->wait_ns.count(), m->acquisitions);
    EXPECT_EQ(m->hold_ns.count(), m->releases);
}

TEST(EndToEnd, GatedLockEmitsGateAndBackoffEvents)
{
    MetricsRegistry reg;
    NewBenchConfig config = small_config(1);
    config.probe = &reg;
    run_newbench(LockKind::HboGtSd, config);
    reg.finalize();

    const LockMetrics* m = reg.primary();
    ASSERT_NE(m, nullptr);
    // Under contention the GT gate must have been consulted, and remote
    // spinners must have recorded remote-class backoff.
    EXPECT_GT(m->gate_blocked + m->gate_passed, 0u);
    const auto remote = static_cast<std::size_t>(BackoffClass::Remote);
    EXPECT_GT(m->backoff[remote].episodes, 0u);
    EXPECT_GT(m->backoff_ns_total(), 0u);
}

TEST(EndToEnd, TimelineCoversRunAndNests)
{
    TimelineBuilder tb;
    NewBenchConfig config = small_config(1);
    config.probe = &tb;
    const BenchResult r = run_newbench(LockKind::Hbo, config);
    tb.finalize();

    ASSERT_FALSE(tb.intervals().empty());
    EXPECT_LE(tb.last_time_ns(), static_cast<std::uint64_t>(r.total_time));
    for (const auto& [cpu, intervals] : tb.intervals()) {
        std::uint64_t prev_end = 0;
        std::uint64_t critical = 0;
        for (const Interval& iv : intervals) {
            EXPECT_LE(iv.begin_ns, iv.end_ns);
            EXPECT_GE(iv.begin_ns, prev_end) << "overlap on cpu " << cpu;
            prev_end = iv.end_ns;
            if (iv.state == CpuState::Critical)
                ++critical;
        }
        EXPECT_GT(critical, 0u) << "cpu " << cpu << " never held the lock";
    }
}

} // namespace
