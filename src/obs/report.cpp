#include "obs/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string_view>

namespace nucalock::obs {

namespace {

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

void
write_histogram(JsonWriter& w, const stats::LogHistogram& h)
{
    w.begin_object();
    w.kv("count", h.count());
    w.kv("mean", h.mean());
    w.kv("p50", h.percentile(50.0));
    w.kv("p90", h.percentile(90.0));
    w.kv("p99", h.percentile(99.0));
    w.kv("max", h.percentile(100.0));
    w.end_object();
}

void
write_summary(JsonWriter& w, const stats::Summary& s)
{
    w.begin_object();
    w.kv("count", s.count());
    w.kv("mean", s.mean());
    w.kv("min", s.min());
    w.kv("max", s.max());
    w.kv("stddev", s.stddev());
    w.end_object();
}

void
write_traffic(JsonWriter& w, const sim::TrafficStats& t)
{
    w.begin_object();
    w.kv("local_tx", t.local_tx);
    w.kv("global_tx", t.global_tx);
    w.kv("data_fetch_tx", t.data_fetch_tx);
    w.kv("invalidation_tx", t.invalidation_tx);
    w.kv("atomic_tx", t.atomic_tx);
    w.end_object();
}

void
write_result(JsonWriter& w, const harness::BenchResult& r)
{
    w.begin_object();
    w.kv("total_time_ns", static_cast<std::uint64_t>(r.total_time));
    w.kv("total_acquires", r.total_acquires);
    w.kv("avg_iteration_ns", r.avg_iteration_ns);
    w.kv("node_handoff_ratio", r.node_handoff_ratio);
    w.kv("fairness_spread_pct", r.fairness_spread_pct);
    w.kv("acquisition_order_hash", hex64(r.acquisition_order_hash));
    w.kv("sim_memory_accesses", r.sim_memory_accesses);
    w.kv("sim_fiber_switches", r.sim_fiber_switches);
    w.key("traffic");
    write_traffic(w, r.traffic);
    w.kv("faults_injected", r.faults_injected);
    w.kv("mutex_violations", r.mutex_violations);
    w.kv("lock_timeouts", r.lock_timeouts);
    w.kv("memtrace_events", r.memtrace_events);
    w.kv("memtrace_dropped", r.memtrace_dropped);
    w.end_object();
}

void
write_tx_count(JsonWriter& w, const sim::TxCount& c)
{
    w.begin_object();
    w.kv("local_tx", c.local_tx);
    w.kv("global_tx", c.global_tx);
    w.end_object();
}

/** The v2 per-run "traffic" object (attribution + per-acquisition rates). */
void
write_run_traffic(JsonWriter& w, const harness::BenchResult& r,
                  const MetricsRegistry* registry)
{
    const TrafficMetrics tm =
        fold_traffic(r.traffic, r.traffic_attribution, r.contention,
                     r.total_acquires, registry);
    w.begin_object();
    w.kv("local_tx_per_acquisition", tm.local_tx_per_acquisition());
    w.kv("global_tx_per_acquisition", tm.global_tx_per_acquisition());
    w.key("per_lock");
    w.begin_array();
    for (const LockTrafficView& lock : tm.locks) {
        w.begin_object();
        w.kv("lock_id", hex64(lock.lock_id));
        w.kv("acquisitions", lock.acquisitions);
        w.kv("local_tx", lock.tx.totals().local_tx);
        w.kv("global_tx", lock.tx.totals().global_tx);
        w.kv("local_tx_per_acquisition", lock.local_per_acquisition());
        w.kv("global_tx_per_acquisition", lock.global_per_acquisition());
        w.key("phases");
        w.begin_object();
        for (int p = 0; p < sim::kNumTxPhases; ++p) {
            w.key(sim::tx_phase_name(static_cast<sim::TxPhase>(p)));
            write_tx_count(w, lock.tx.by_phase[static_cast<std::size_t>(p)]);
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.key("per_node");
    w.begin_array();
    for (std::size_t node = 0; node < r.traffic_attribution.per_node.size();
         ++node) {
        w.begin_object();
        w.kv("node", static_cast<std::uint64_t>(node));
        w.kv("local_tx", r.traffic_attribution.per_node[node].local_tx);
        w.kv("global_tx", r.traffic_attribution.per_node[node].global_tx);
        w.end_object();
    }
    w.end_array();
    w.key("attributed");
    write_tx_count(w, tm.attributed);
    w.key("unattributed");
    write_tx_count(w, tm.unattributed);
    w.end_object();
}

/** The v2 per-run "contention" object (per-resource queueing). */
void
write_run_contention(JsonWriter& w, const sim::ContentionStats& c)
{
    w.begin_object();
    w.kv("sim_time_ns", static_cast<std::uint64_t>(c.sim_time_ns));
    w.kv("series_bin_ns", static_cast<std::uint64_t>(c.series_bin_ns));
    w.key("resources");
    w.begin_array();
    for (const sim::ResourceUsage& r : c.resources) {
        w.begin_object();
        w.kv("name", r.name);
        w.kv("node", static_cast<std::int64_t>(r.node));
        w.kv("transactions", r.transactions);
        w.kv("busy_ns", static_cast<std::uint64_t>(r.busy_ns));
        w.kv("queue_ns", static_cast<std::uint64_t>(r.queue_ns));
        w.kv("utilization",
             c.sim_time_ns == 0 ? 0.0
                                : static_cast<double>(r.busy_ns) /
                                      static_cast<double>(c.sim_time_ns));
        w.key("queue_delay_ns");
        write_histogram(w, r.queue_delay_ns);
        if (r.series_bin_ns != 0) {
            w.key("busy_ns_bins");
            w.begin_array();
            for (const std::uint64_t b : r.busy_ns_bins)
                w.value(b);
            w.end_array();
            w.key("tx_bins");
            w.begin_array();
            for (const std::uint64_t b : r.tx_bins)
                w.value(b);
            w.end_array();
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

void
write_lock_metrics(JsonWriter& w, const LockMetrics& lm)
{
    w.begin_object();
    w.kv("lock_id", hex64(lm.lock_id));
    w.kv("attempts", lm.attempts);
    w.kv("try_attempts", lm.try_attempts);
    w.kv("acquisitions", lm.acquisitions);
    w.kv("releases", lm.releases);
    w.kv("handovers_local", lm.handovers_local);
    w.kv("handovers_remote", lm.handovers_remote);
    w.kv("repeats", lm.repeats);
    w.kv("local_handover_fraction", lm.local_handover_fraction());
    w.kv("remote_handover_fraction", lm.remote_handover_fraction());
    w.key("node_batch_lengths");
    write_summary(w, lm.node_batch_lengths);
    w.key("wait_ns");
    write_histogram(w, lm.wait_ns);
    w.key("hold_ns");
    write_histogram(w, lm.hold_ns);
    w.key("backoff");
    w.begin_object();
    for (int cls = 0; cls < 3; ++cls) {
        w.key(backoff_class_name(static_cast<BackoffClass>(cls)));
        w.begin_object();
        w.kv("episodes", lm.backoff[cls].episodes);
        w.kv("total_ns", lm.backoff[cls].total_ns);
        w.end_object();
    }
    w.end_object();
    w.key("gate");
    w.begin_object();
    w.kv("blocked", lm.gate_blocked);
    w.kv("passed", lm.gate_passed);
    w.kv("publishes", lm.gate_publishes);
    w.kv("opens", lm.gate_opens);
    w.kv("block_fraction", lm.gate_block_fraction());
    w.end_object();
    w.kv("angry_transitions", lm.angry_transitions);
    w.kv("gates_closed_in_anger", lm.gates_closed_in_anger);
    w.key("per_node");
    w.begin_array();
    for (std::size_t node = 0; node < lm.per_node.size(); ++node) {
        const NodeMetrics& nm = lm.per_node[node];
        w.begin_object();
        w.kv("node", static_cast<std::uint64_t>(node));
        w.kv("acquisitions", nm.acquisitions);
        w.kv("handovers_in", nm.handovers_in);
        w.key("batch_lengths");
        write_summary(w, nm.batch_lengths);
        w.kv("gate_blocked", nm.gate_blocked);
        w.kv("gate_passed", nm.gate_passed);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

void
write_metrics(JsonWriter& w, const MetricsRegistry& registry)
{
    w.begin_object();
    w.kv("events_seen", registry.events_seen());
    w.kv("primary_lock_id", hex64(registry.primary_lock_id()));
    w.key("locks");
    w.begin_array();
    // Primary lock first, then any nested tiers in id order.
    if (const LockMetrics* primary = registry.primary())
        write_lock_metrics(w, *primary);
    for (const auto& [lock_id, lm] : registry.locks())
        if (lock_id != registry.primary_lock_id())
            write_lock_metrics(w, lm);
    w.end_array();
    w.key("per_cpu");
    w.begin_array();
    for (std::size_t cpu = 0; cpu < registry.cpus().size(); ++cpu) {
        const CpuMetrics& cm = registry.cpus()[cpu];
        w.begin_object();
        w.kv("cpu", static_cast<std::uint64_t>(cpu));
        w.kv("acquisitions", cm.acquisitions);
        w.kv("backoff_episodes", cm.backoff_episodes);
        w.kv("backoff_ns", cm.backoff_ns);
        w.kv("cs_ns", cm.cs_ns);
        w.key("wait_ns");
        write_histogram(w, cm.wait_ns);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

/**
 * The v4 optional per-run "adaptive" object: ADAPTIVE's gear telemetry,
 * folded from the primary lock's AdaptSwitch events. Gear and reason names
 * mirror locks::adapt_gear_name / adapt_reason_name (spelled out here —
 * obs cannot depend on the locks library without a cycle).
 */
void
write_adaptive(JsonWriter& w, const LockMetrics& lm)
{
    static constexpr const char* kGears[3] = {"tatas", "hbo", "queue"};
    static constexpr const char* kReasons[5] = {"contention", "nuca_traffic",
                                                "quiet", "timeout_storm",
                                                "recovery"};
    w.begin_object();
    w.kv("switches", lm.adapt_switches);
    w.key("reasons");
    w.begin_object();
    for (std::size_t i = 0; i < 5; ++i)
        w.kv(kReasons[i], lm.adapt_reasons[i]);
    w.end_object();
    w.key("gear_residency_ns");
    w.begin_object();
    for (std::size_t i = 0; i < 3; ++i)
        w.kv(kGears[i], lm.gear_residency_ns[i]);
    w.end_object();
    w.key("demote_latency_ns");
    write_histogram(w, lm.demote_latency_ns);
    w.end_object();
}

/**
 * The v5 optional per-run "structs" object: the KV-service run's
 * data-structure telemetry. Each per_stripe row carries the stripe lock's
 * id so consumers can join it against the per-lock traffic attribution
 * rows in the run's "traffic" object.
 */
void
write_structs(JsonWriter& w, const structs::KvStructsStats& s)
{
    w.begin_object();
    w.kv("stripes", static_cast<std::uint64_t>(s.per_stripe.size()));
    w.kv("reads", s.reads);
    w.kv("writes", s.writes);
    w.kv("scans", s.scans);
    w.kv("inserts", s.inserts);
    w.kv("hits", s.hits);
    w.kv("misses", s.misses);
    w.kv("local_handover_fraction", s.local_handover_fraction());
    w.key("resize");
    w.begin_object();
    w.kv("epochs", s.resize_epochs);
    w.kv("migrated_keys", s.resize_migrated_keys);
    w.kv("stalls", s.resize_stalls);
    w.key("stall_ns");
    write_histogram(w, s.resize_stall_ns);
    w.end_object();
    w.key("op_latency_ns");
    w.begin_object();
    w.key("read");
    write_histogram(w, s.read_ns);
    w.key("write");
    write_histogram(w, s.write_ns);
    w.key("scan");
    write_histogram(w, s.scan_ns);
    w.end_object();
    w.key("per_stripe");
    w.begin_array();
    for (std::size_t i = 0; i < s.per_stripe.size(); ++i) {
        const structs::StripeStats& st = s.per_stripe[i];
        w.begin_object();
        w.kv("stripe", static_cast<std::uint64_t>(i));
        w.kv("lock_id", hex64(st.lock_id));
        w.kv("acquisitions", st.acquisitions);
        w.kv("handovers_local", st.handovers_local);
        w.kv("handovers_remote", st.handovers_remote);
        w.kv("local_handover_fraction", st.local_handover_fraction());
        w.kv("migrations", st.migrations);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

/**
 * The v6 optional per-run "native_traffic" object: the hardware-counter
 * observatory's per-lock/per-phase deltas, per-event verdicts, and the
 * proxy-mapped per-acquisition rates. Always carries the availability
 * marker; when counters were denied or absent the counts are empty and
 * unavailable_reason says why — the run itself still succeeded.
 */
void
write_native_traffic(JsonWriter& w, const NativeTrafficStats& nt,
                     std::uint64_t total_acquires)
{
    w.begin_object();
    w.kv("available", nt.available);
    w.kv("source", nt.source);
    w.key("perf_event_paranoid");
    if (nt.paranoid_level == kParanoidUnknown)
        w.null();
    else
        w.value(nt.paranoid_level);
    if (!nt.available)
        w.kv("unavailable_reason", nt.unavailable_reason);
    w.kv("samples", nt.samples);
    w.kv("threads", nt.threads);
    w.kv("time_enabled_ns", nt.time_enabled_ns);
    w.kv("time_running_ns", nt.time_running_ns);
    w.kv("multiplexed", nt.multiplexed());
    const sim::TrafficStats totals = nt.totals();
    const double acquires =
        total_acquires == 0 ? 0.0 : static_cast<double>(total_acquires);
    w.kv("local_tx_per_acquisition",
         acquires == 0.0 ? 0.0
                         : static_cast<double>(totals.local_tx) / acquires);
    w.kv("global_tx_per_acquisition",
         acquires == 0.0 ? 0.0
                         : static_cast<double>(totals.global_tx) / acquires);
    w.key("events");
    w.begin_array();
    for (const CounterEventStatus& e : nt.events) {
        w.begin_object();
        w.kv("event", counter_event_name(e.event));
        w.kv("status", counter_state_name(e.state));
        if (!e.detail.empty())
            w.kv("detail", e.detail);
        w.end_object();
    }
    w.end_array();
    w.key("per_lock");
    w.begin_array();
    for (const NativeLockTraffic& lock : nt.per_lock) {
        w.begin_object();
        w.kv("lock_id", hex64(lock.lock_id));
        w.key("phases");
        w.begin_object();
        for (int p = 0; p < sim::kNumTxPhases; ++p) {
            const PhaseCounters& cell =
                lock.by_phase[static_cast<std::size_t>(p)];
            w.key(sim::tx_phase_name(static_cast<sim::TxPhase>(p)));
            w.begin_object();
            for (int e = 0; e < kNumCounterEvents; ++e)
                w.kv(counter_event_name(static_cast<CounterEvent>(e)),
                     cell.value[static_cast<std::size_t>(e)]);
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

/** The v3 optional top-level "robustness" object. */
void
write_robustness(JsonWriter& w, const RobustnessReport& r)
{
    w.begin_object();
    w.key("campaign");
    w.begin_object();
    w.key("presets");
    w.begin_array();
    for (const std::string& preset : r.presets)
        w.value(preset);
    w.end_array();
    w.kv("timeout_ns", r.timeout_ns);
    w.kv("iterations", static_cast<std::uint64_t>(r.iterations));
    w.kv("first_seed", r.first_seed);
    w.kv("num_seeds", r.num_seeds);
    w.end_object();
    w.key("cells");
    w.begin_array();
    for (const RobustnessCell& c : r.cells) {
        w.begin_object();
        w.kv("lock", c.lock);
        w.kv("preset", c.preset);
        w.kv("nodes", c.nodes);
        w.kv("cpus_per_node", c.cpus_per_node);
        w.kv("seed", c.seed);
        w.kv("verdict", c.failed ? "FAIL" : "ok");
        if (c.failed)
            w.kv("what", c.what);
        w.kv("stop", c.stop);
        w.kv("steps", c.steps);
        w.kv("acquisitions", c.acquisitions);
        w.kv("timeouts", c.timeouts);
        w.kv("mutex_violations", c.mutex_violations);
        w.kv("faults_injected", c.faults_injected);
        w.kv("max_overshoot_ns", c.max_overshoot_ns);
        w.kv("overshoot_bound_ns", c.overshoot_bound_ns);
        w.kv("abandons", c.abandons);
        w.kv("parked", c.parked);
        w.kv("grant_races", c.grant_races);
        w.kv("reclaims", c.reclaims);
        w.kv("rejoins", c.rejoins);
        w.kv("unparks", c.unparks);
        w.kv("leaked_nodes", c.leaked_nodes);
        if (!c.trace.empty())
            w.kv("trace", c.trace);
        if (!c.minimal_trace.empty())
            w.kv("minimal_trace", c.minimal_trace);
        w.end_object();
    }
    w.end_array();
    w.key("per_lock");
    w.begin_array();
    for (const RobustnessLockRow& row : r.per_lock) {
        w.begin_object();
        w.kv("lock", row.lock);
        w.kv("cells", row.cells);
        w.kv("failures", row.failures);
        w.kv("acquisitions", row.acquisitions);
        w.kv("timeouts", row.timeouts);
        w.kv("abandons", row.abandons);
        w.kv("parked", row.parked);
        w.kv("grant_races", row.grant_races);
        w.kv("reclaims", row.reclaims);
        w.kv("rejoins", row.rejoins);
        w.kv("unparks", row.unparks);
        w.kv("leaked_nodes", row.leaked_nodes);
        w.kv("max_overshoot_ns", row.max_overshoot_ns);
        w.end_object();
    }
    w.end_array();
    w.kv("failures", r.failures);
    w.kv("verdict", r.failures == 0 ? "ok" : "FAIL");
    w.end_object();
}

/** Report objects whose values vary between hosts and repetitions: host
 *  wall-clock measurements and hardware-counter readings. */
constexpr const char* kNondeterministicKeys[] = {"host", "native_traffic"};

} // namespace

void
write_report(std::ostream& os, const ReportConfig& config,
             const std::vector<ReportRun>& runs,
             const RobustnessReport* robustness)
{
    JsonWriter w(os, /*pretty=*/true);
    w.begin_object();
    w.kv("schema", kReportSchemaName);
    w.kv("schema_version", kReportSchemaVersion);
    w.kv("tool", config.tool);
    w.key("config");
    w.begin_object();
    w.kv("bench", config.bench);
    w.kv("nodes", config.nodes);
    w.kv("cpus_per_node", config.cpus_per_node);
    w.kv("threads", config.threads);
    w.kv("critical_work", static_cast<std::uint64_t>(config.critical_work));
    w.kv("private_work", static_cast<std::uint64_t>(config.private_work));
    w.kv("iterations", static_cast<std::uint64_t>(config.iterations));
    w.kv("nuca_ratio", config.nuca_ratio);
    w.kv("seed", config.seed);
    w.end_object();
    w.key("runs");
    w.begin_array();
    for (const ReportRun& run : runs) {
        w.begin_object();
        w.kv("lock", run.lock_name);
        w.key("result");
        write_result(w, run.result);
        w.key("traffic");
        write_run_traffic(w, run.result, run.metrics);
        w.key("contention");
        write_run_contention(w, run.result.contention);
        w.key("metrics");
        if (run.metrics != nullptr)
            write_metrics(w, *run.metrics);
        else
            w.null();
        if (run.host.valid) {
            // Host wall-clock fields: the only nondeterministic part of a
            // report. Determinism comparisons must strip this object.
            w.key("host");
            w.begin_object();
            w.kv("wall_ns", run.host.wall_ns);
            w.kv("events_per_sec", run.host.events_per_sec);
            w.kv("switches_per_sec", run.host.switches_per_sec);
            w.kv("jobs", run.host.jobs);
            w.end_object();
        }
        if (const LockMetrics* primary =
                run.metrics != nullptr ? run.metrics->primary() : nullptr;
            primary != nullptr && primary->adapt_seen) {
            w.key("adaptive");
            write_adaptive(w, *primary);
        }
        if (run.structs != nullptr) {
            w.key("structs");
            write_structs(w, *run.structs);
        }
        if (run.native_traffic != nullptr) {
            // Hardware counters are nondeterministic like "host":
            // determinism comparisons must strip this object too.
            w.key("native_traffic");
            write_native_traffic(w, *run.native_traffic,
                                 run.result.total_acquires);
        }
        w.end_object();
    }
    w.end_array();
    if (robustness != nullptr) {
        w.key("robustness");
        write_robustness(w, *robustness);
    }
    w.end_object();
    os << '\n';
}

void
strip_nondeterministic(JsonValue& document)
{
    if (document.is_object()) {
        for (const char* key : kNondeterministicKeys)
            document.object.erase(key);
        for (auto& [key, child] : document.object)
            strip_nondeterministic(child);
    } else if (document.is_array()) {
        for (JsonValue& child : document.array)
            strip_nondeterministic(child);
    }
}

// ---------------------------------------------------------------------------
// Validation: write_report is the schema. A document is checked against the
// shape the writer emits for an exemplar input, so the two cannot drift.
// ---------------------------------------------------------------------------

namespace {

/** Keys the writer emits only for some runs, cells, or resources. */
constexpr std::string_view kOptionalKeys[] = {
    "host", "adaptive", "structs", "native_traffic", "robustness",
    "busy_ns_bins", "tx_bins", "unavailable_reason", "detail", "what",
    "trace", "minimal_trace"};

/** Keys whose value may be null instead of the exemplar's type. */
constexpr std::string_view kNullableKeys[] = {"metrics",
                                              "perf_event_paranoid"};

bool
fail(std::string* error, const std::string& message)
{
    if (error != nullptr && error->empty())
        *error = message;
    return false;
}

const char*
type_name(JsonValue::Type type)
{
    switch (type) {
      case JsonValue::Type::Null: return "null";
      case JsonValue::Type::Bool: return "a boolean";
      case JsonValue::Type::Number: return "a number";
      case JsonValue::Type::String: return "a string";
      case JsonValue::Type::Array: return "an array";
      case JsonValue::Type::Object: return "an object";
    }
    return "?";
}

/**
 * The report write_report emits for synthetic inputs that switch on every
 * optional object and put one element in every array: the reference shape
 * validate_report checks documents against. Values are irrelevant; only
 * keys and JSON types are compared.
 */
JsonValue
make_exemplar()
{
    constexpr std::uint64_t kLock = 1;
    MetricsRegistry registry;
    registry.on_event({LockEvent::AcquireAttempt, 1, kLock, 0, 0, 0, 0, 0});
    registry.on_event({LockEvent::Acquired, 2, kLock, 0, 0, 0, 0, 0});
    // A gear switch makes the run emit its "adaptive" object.
    registry.on_event({LockEvent::AdaptSwitch, 3, kLock, 0, 0, 0, 1 << 8, 0});
    registry.on_event({LockEvent::Released, 4, kLock, 0, 0, 0, 0, 0});
    registry.finalize();

    harness::BenchResult result;
    result.traffic_attribution.per_lock.resize(1);
    result.traffic_attribution.per_lock[0].lock_id = kLock;
    result.traffic_attribution.per_node.resize(1);
    sim::ResourceUsage bus;
    bus.series_bin_ns = 1; // emits busy_ns_bins and tx_bins
    bus.busy_ns_bins = {0};
    bus.tx_bins = {0};
    result.contention.resources = {bus};

    structs::KvStructsStats kv;
    kv.per_stripe.resize(1);

    NativeTrafficStats native;
    native.available = false; // emits unavailable_reason
    native.paranoid_level = 0; // a number, not null
    native.events = {{CounterEvent::Cycles, CounterState::Denied, "detail"}};
    native.per_lock.resize(1);

    ReportRun run{"exemplar", result, &registry};
    run.host.valid = true;
    run.structs = &kv;
    run.native_traffic = &native;

    RobustnessReport robustness;
    robustness.presets = {"preset"};
    RobustnessCell cell;
    cell.failed = true; // emits what
    cell.trace = "trace";
    cell.minimal_trace = "trace";
    robustness.cells = {cell};
    robustness.per_lock.resize(1);

    std::ostringstream os;
    write_report(os, ReportConfig{}, {run}, &robustness);
    return *json_parse(os.str());
}

const JsonValue&
exemplar()
{
    static const JsonValue document = make_exemplar();
    return document;
}

/**
 * Check @p got against @p want: every key of an exemplar object must be
 * present (unless optional) with the same JSON type (or null, if
 * nullable), and every array element must match the exemplar's first
 * element. Keys the exemplar lacks are allowed.
 */
bool
check_shape(const JsonValue& want, const JsonValue& got,
            const std::string& path, std::string* error)
{
    if (got.type != want.type)
        return fail(error, path + " must be " + type_name(want.type));
    if (want.is_array() && !want.array.empty()) {
        for (std::size_t i = 0; i < got.array.size(); ++i)
            if (!check_shape(want.array.front(), got.array[i],
                             path + "[" + std::to_string(i) + "]", error))
                return false;
    } else if (want.is_object()) {
        for (const auto& [key, child] : want.object) {
            const JsonValue* v = got.find(key);
            if (v == nullptr) {
                if (std::ranges::count(kOptionalKeys, key) != 0)
                    continue;
                return fail(error, (path.empty() ? "report" : path) +
                                       ": missing field '" + key + "'");
            }
            if (v->type == JsonValue::Type::Null &&
                std::ranges::count(kNullableKeys, key) != 0)
                continue;
            if (!check_shape(child, *v, path.empty() ? key : path + "." + key,
                             error))
                return false;
        }
    }
    return true;
}

} // namespace

bool
validate_report(const JsonValue& document, std::string* error)
{
    if (!document.is_object())
        return fail(error, "report root must be an object");
    const JsonValue* schema = document.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->string != kReportSchemaName)
        return fail(error, std::string("'schema' must be \"") +
                               kReportSchemaName + "\"");
    const JsonValue* version = document.find("schema_version");
    if (version == nullptr || !version->is_number())
        return fail(error, "'schema_version' must be a number");
    if (static_cast<int>(version->number) != kReportSchemaVersion)
        return fail(error,
                    "report is v" +
                        std::to_string(static_cast<int>(version->number)) +
                        ", tool understands v" +
                        std::to_string(kReportSchemaVersion));
    if (!check_shape(exemplar(), document, "", error))
        return false;
    // The one rule a shape cannot express: a native_traffic object without
    // counts must say why.
    const std::vector<JsonValue>& runs = document.find("runs")->array;
    for (std::size_t i = 0; i < runs.size(); ++i)
        if (const JsonValue* nt = runs[i].find("native_traffic");
            nt != nullptr && !nt->find("available")->boolean &&
            nt->find("unavailable_reason") == nullptr)
            return fail(error, "runs[" + std::to_string(i) +
                                   "].native_traffic: missing field "
                                   "'unavailable_reason' (required when "
                                   "'available' is false)");
    return true;
}

bool
validate_report_text(std::string_view text, std::string* error)
{
    std::string parse_error;
    const auto document = json_parse(text, &parse_error);
    if (!document)
        return fail(error, "JSON parse error: " + parse_error);
    return validate_report(*document, error);
}

} // namespace nucalock::obs
