/**
 * @file
 * nucabench: the command-line front end to the lock benchmarks and the
 * observability subsystem (src/obs/). Pick a benchmark, a simulated machine
 * shape, and one lock or ALL; results print as a table or CSV. Everything
 * is deterministic per --seed.
 *
 * The outputs that read the lock-event probes give every run its own
 * MetricsRegistry; a plain table or CSV run attaches no sink and pays
 * nothing for observability:
 *
 *  - `--traffic` appends the locality table (local vs remote handover
 *    split, node batch lengths, backoff time, GT gate traffic, SD anger),
 *    ADAPTIVE's `gears:` lines, and the coherence-traffic attribution table
 *    (per-phase local/global transactions per acquisition, global-link
 *    utilisation and queue-delay p99 — the paper's Table 2/6 shape),
 *  - `--json=PATH`: the versioned machine-readable report (schema
 *    nucalock-bench-report v6, obs/report.hpp), metrics included,
 *  - `--trace=PATH`: a Chrome/Perfetto trace_event JSON of per-CPU lock
 *    states plus link-utilisation / bus-rate counter tracks (single
 *    --lock runs only; open in ui.perfetto.dev).
 *
 * `--memtrace=PATH` writes the raw memory-access trace as CSV (single
 * --lock, 1M-event cap). Report-file modes run no benchmark: `--check-schema=FILE` validates a
 * report, `--robustness=FILE` renders the recovery verdict of a
 * `nucacheck --campaign --report=...` report, `--diff=A,B` compares two
 * reports over their deterministic fields, and `--counters` probes
 * hardware-counter availability on this host.
 *
 * Observing a run never changes its acquisition order (pinned by a
 * debug-build assertion here and by tests/obs_test.cpp).
 *
 * Examples:
 *   nucabench --bench=new --threads=28 --critical-work=1500
 *   nucabench --bench=uncontested --lock=HBO_GT
 *   nucabench --nodes=2 --cpus-per-node=4 --lock=ALL --traffic
 *   nucabench --lock=HBO_GT_SD --trace=hbo.trace.json --json=hbo.json
 *   nucabench --check-schema=hbo.json
 */
#include <array>
#include <concepts>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "apps/app_runner.hpp"
#include "apps/kv_service.hpp"
#include "apps/workload.hpp"
#include "common/logging.hpp"
#include "exec/executor.hpp"
#include "harness/newbench.hpp"
#include "harness/options.hpp"
#include "harness/traditional.hpp"
#include "harness/uncontested.hpp"
#include "locks/adaptive_policy.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"
#include "stats/csv.hpp"
#include "stats/table.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::harness;
using namespace nucalock::locks;

std::vector<LockKind>
selected_locks(const CliOptions& opts)
{
    if (opts.lock != "ALL")
        return {*parse_lock_name(opts.lock)};
    std::vector<LockKind> kinds;
    for (LockKind kind : all_lock_kinds()) {
        if (kind == LockKind::Rh && opts.nodes > 2)
            continue;
        kinds.push_back(kind);
    }
    return kinds;
}

sim::LatencyModel
latency_of(const CliOptions& opts)
{
    return opts.nuca_ratio == 0.0 ? sim::LatencyModel::wildfire()
                                  : sim::LatencyModel::scaled(opts.nuca_ratio);
}

/** The results table on stdout, or its CSV rendering under --csv. */
class Results
{
  public:
    Results(bool csv, const std::vector<std::string>& headers)
        : table_(headers)
    {
        if (csv)
            csv_.emplace(std::cout, headers);
    }

    Results&
    row(const char* lock)
    {
        if (!csv_)
            table_.row();
        else if (row_open_)
            csv_->end_row();
        row_open_ = true;
        return cell(std::string(lock));
    }

    /** A real-valued cell; @p decimals applies to the table only. */
    Results&
    cell(double value, int decimals)
    {
        if (csv_)
            csv_->cell(value);
        else
            table_.cell(value, decimals);
        return *this;
    }

    template <typename T>
        requires(!std::floating_point<T>)
    Results&
    cell(const T& value)
    {
        if (csv_)
            csv_->cell(value);
        else
            table_.cell(value);
        return *this;
    }

    void
    print()
    {
        if (!csv_)
            table_.print(std::cout);
        else if (row_open_)
            csv_->end_row();
    }

  private:
    stats::Table table_;
    std::optional<stats::CsvWriter> csv_;
    bool row_open_ = false;
};

/** One contended run: its result, plus what the requested outputs read. */
struct Run
{
    LockKind kind = LockKind::Tatas;
    BenchResult result;
    /** Profiled runs only (--traffic, --trace, --json): the finalized
     *  registry the run's probe stream folded into. */
    std::unique_ptr<obs::MetricsRegistry> metrics;
    /** --bench=app only: the KV service's structs telemetry. */
    std::unique_ptr<structs::KvStructsStats> structs;
};

/** Utilisation-series bin width for --trace counter tracks (10 µs). */
constexpr sim::SimTime kCounterBinNs = 10'000;

/** --memtrace recording cap; drops past this are counted, not stored. */
constexpr std::size_t kMemtraceCap = 1'000'000;

/** One contended run of --bench=new (faults included), traditional or
 *  app --app=kv; @p probe, @p memtrace and @p structs_out may be null. */
BenchResult
run_bench(LockKind kind, const CliOptions& opts, obs::ProbeSink* probe,
          sim::TraceRecorder* memtrace, structs::KvStructsStats* structs_out)
{
    const Topology topo = Topology::symmetric(opts.nodes, opts.cpus_per_node);
    // Record the utilisation series whenever a Perfetto trace was asked
    // for; it is pure accounting (never perturbs the run).
    const sim::SimTime bin = opts.trace.empty() ? 0 : kCounterBinNs;
    if (opts.bench == CliBench::App) {
        apps::KvServiceConfig config;
        config.topology = topo;
        config.latency = latency_of(opts);
        config.params = opts.params;
        config.threads = opts.threads;
        config.keys = opts.kv_keys;
        config.stripes = opts.kv_stripes;
        config.zipf_skew = opts.kv_skew;
        config.read_pct = static_cast<int>(opts.kv_read_pct);
        config.write_pct = static_cast<int>(opts.kv_write_pct);
        config.scan_len = opts.kv_scan_len;
        config.ops_per_thread = opts.kv_ops;
        config.resize_storms = static_cast<int>(opts.kv_storms);
        config.seed = opts.seed;
        config.probe = probe;
        config.contention_bin_ns = bin;
        apps::KvOutcome outcome = apps::run_kv_service(kind, config);
        if (structs_out != nullptr)
            *structs_out = outcome.structs;
        return outcome.bench;
    }
    if (opts.bench == CliBench::Traditional) {
        TraditionalConfig config;
        config.topology = topo;
        config.latency = latency_of(opts);
        config.params = opts.params;
        config.threads = opts.threads;
        config.iterations_per_thread = opts.iterations;
        config.seed = opts.seed;
        config.probe = probe;
        config.contention_bin_ns = bin;
        config.memory_trace = memtrace;
        return run_traditional(kind, config);
    }
    NewBenchConfig config;
    config.topology = topo;
    config.latency = latency_of(opts);
    config.params = opts.params;
    config.threads = opts.threads;
    config.critical_work = opts.critical_work;
    config.private_work = opts.private_work;
    config.iterations_per_thread = opts.iterations;
    config.seed = opts.seed;
    config.preemption = opts.preemption;
    if (!opts.faults.empty()) {
        // Spec already validated by parse_cli.
        config.fault_plan =
            *sim::FaultPlan::parse(opts.faults, opts.seed, opts.threads);
    }
    config.probe = probe;
    config.contention_bin_ns = bin;
    config.memory_trace = memtrace;
    return run_newbench(kind, config);
}

/** The headline results: one row per lock, table or CSV. */
void
print_results(const CliOptions& opts, const std::vector<Run>& runs)
{
    const bool kv = opts.bench == CliBench::App;
    const bool faulty = !opts.faults.empty();
    std::vector<std::string> headers = {
        "Lock",      kv ? "ns/op" : "ns/acquire", "handoff ratio", "local tx",
        "global tx", "fairness %"};
    if (faulty)
        headers.insert(headers.end(), {"faults", "mutex viol", "timeouts"});
    if (kv)
        headers.insert(headers.end(), {"resizes", "local handover %"});
    Results out(opts.csv, headers);
    for (const Run& run : runs) {
        const BenchResult& r = run.result;
        out.row(lock_name(run.kind))
            .cell(r.avg_iteration_ns, 0)
            .cell(r.node_handoff_ratio, 3)
            .cell(r.traffic.local_tx)
            .cell(r.traffic.global_tx)
            .cell(r.fairness_spread_pct, 1);
        if (faulty)
            out.cell(r.faults_injected)
                .cell(r.mutex_violations)
                .cell(r.lock_timeouts);
        if (kv)
            out.cell(run.structs->resize_epochs)
                .cell(run.structs->local_handover_fraction() * 100.0, 1);
    }
    out.print();
}

/** --traffic, first part: the locality table ("local ho %" is the paper's
 *  locality headline: handovers that stayed within a node), then one
 *  gears line per run whose primary lock switched ADAPTIVE gears (the
 *  same numbers land in the report's "adaptive" object). */
void
print_locality(const std::vector<Run>& runs)
{
    stats::Table table({"Lock", "ns/acquire", "local ho %", "remote ho %",
                        "node batch", "backoff us", "gate block %", "angry"});
    const obs::LockMetrics none; // a run whose probes saw no lock
    for (const Run& run : runs) {
        const obs::LockMetrics* m = run.metrics->primary();
        const obs::LockMetrics& lm = m == nullptr ? none : *m;
        table.row()
            .cell(lock_name(run.kind))
            .cell(run.result.avg_iteration_ns, 0)
            .cell(100.0 * lm.local_handover_fraction(), 1)
            .cell(100.0 * lm.remote_handover_fraction(), 1)
            .cell(lm.node_batch_lengths.mean(), 2)
            .cell(static_cast<double>(lm.backoff_ns_total()) / 1e3, 1)
            .cell(100.0 * lm.gate_block_fraction(), 1)
            .cell(lm.angry_transitions);
    }
    table.print(std::cout);

    for (const Run& run : runs) {
        const obs::LockMetrics* m = run.metrics->primary();
        if (m == nullptr || !m->adapt_seen)
            continue;
        std::cout << "\n"
                  << lock_name(run.kind) << " gears: " << m->adapt_switches
                  << " switch" << (m->adapt_switches == 1 ? "" : "es")
                  << " (";
        bool first = true;
        for (int r = 0; r < locks::kAdaptReasonCount; ++r) {
            if (m->adapt_reasons[r] == 0)
                continue;
            if (!first)
                std::cout << ", ";
            first = false;
            std::cout << locks::adapt_reason_name(
                             static_cast<locks::AdaptReason>(r))
                      << " " << m->adapt_reasons[r];
        }
        std::cout << "); residency";
        const double total =
            static_cast<double>(m->gear_residency_ns[0] +
                                m->gear_residency_ns[1] +
                                m->gear_residency_ns[2]);
        for (int g = 0; g < locks::kAdaptGearCount; ++g) {
            const double ns = static_cast<double>(m->gear_residency_ns[g]);
            const double pct = total == 0.0 ? 0.0 : 100.0 * ns / total;
            std::cout << (g == 0 ? " " : ", ")
                      << locks::adapt_gear_name(
                             static_cast<locks::AdaptGear>(g))
                      << " " << static_cast<int>(pct + 0.5) << "%";
        }
        if (m->demote_latency_ns.count() != 0)
            std::cout << "; demote p50 "
                      << static_cast<std::uint64_t>(
                             m->demote_latency_ns.percentile(50.0))
                      << " ns";
        std::cout << "\n";
    }
}

/** --traffic, second part: per-acquisition attribution + link contention. */
void
print_traffic(const std::vector<Run>& runs)
{
    // Per-acquisition rates in the paper's Table 2/6 shape, with the
    // global column split by the phase the transactions served.
    stats::Table table({"Lock", "acquires", "local/acq", "global/acq",
                        "g spin", "g handover", "g critical", "g release",
                        "g gate", "g unattr", "link util %", "link p99 ns"});
    for (const Run& run : runs) {
        const obs::TrafficMetrics tm = obs::fold_traffic(
            run.result.traffic, run.result.traffic_attribution,
            run.result.contention, run.result.total_acquires,
            run.metrics.get());
        const double acq =
            tm.acquisitions == 0 ? 1.0 : static_cast<double>(tm.acquisitions);
        // Phase split summed over every attributed lock tier of the run.
        std::array<std::uint64_t, sim::kNumTxPhases> phase_global{};
        for (const obs::LockTrafficView& lock : tm.locks)
            for (std::size_t p = 0; p < phase_global.size(); ++p)
                phase_global[p] += lock.tx.by_phase[p].global_tx;
        const auto per_acq = [&](sim::TxPhase p) {
            return static_cast<double>(
                       phase_global[static_cast<std::size_t>(p)]) /
                   acq;
        };
        table.row()
            .cell(lock_name(run.kind))
            .cell(tm.acquisitions)
            .cell(tm.local_tx_per_acquisition(), 2)
            .cell(tm.global_tx_per_acquisition(), 2)
            .cell(per_acq(sim::TxPhase::AcquireSpin), 2)
            .cell(per_acq(sim::TxPhase::Handover), 2)
            .cell(per_acq(sim::TxPhase::Critical), 2)
            .cell(per_acq(sim::TxPhase::Release), 2)
            .cell(per_acq(sim::TxPhase::GatePublish), 2)
            .cell(static_cast<double>(tm.unattributed.global_tx) / acq, 2)
            .cell(100.0 * tm.link_utilization, 1)
            .cell(tm.link_queue_delay_ns.percentile(99.0), 0);
    }
    std::cout << "\nCoherence traffic per acquisition (global split by "
                 "phase):\n";
    table.print(std::cout);
}

/** Open --json/--trace/--memtrace's @p path for writing; says why not
 *  when the returned stream is not good. */
std::ofstream
open_output(const char* flag, const std::string& path)
{
    std::ofstream out(path);
    if (!out)
        std::cerr << "error: cannot write " << flag << " file '" << path
                  << "'\n";
    return out;
}

/** Write the report to --json's path ("-" = stdout). */
int
write_json_report(const CliOptions& opts, const std::vector<Run>& runs)
{
    obs::ReportConfig config;
    config.tool = "nucabench";
    config.bench = opts.bench == CliBench::App
                       ? "app-kv"
                       : (opts.bench == CliBench::New ? "new" : "traditional");
    config.nodes = opts.nodes;
    config.cpus_per_node = opts.cpus_per_node;
    config.threads = opts.threads;
    config.critical_work = opts.critical_work;
    config.private_work = opts.private_work;
    config.iterations = opts.iterations;
    config.nuca_ratio = opts.nuca_ratio;
    config.seed = opts.seed;
    std::vector<obs::ReportRun> report_runs;
    report_runs.reserve(runs.size());
    for (const Run& run : runs) {
        obs::ReportRun rr(lock_name(run.kind), run.result, run.metrics.get());
        rr.structs = run.structs.get();
        report_runs.push_back(rr);
    }
    if (opts.json == "-") {
        obs::write_report(std::cout, config, report_runs);
        return 0;
    }
    std::ofstream out = open_output("--json", opts.json);
    if (!out)
        return 1;
    obs::write_report(out, config, report_runs);
    return 0;
}

/** --bench=new|traditional and --bench=app --app=kv: one run per lock. */
int
run_contended(const CliOptions& opts)
{
    const std::vector<LockKind> kinds = selected_locks(opts);
    // A registry costs host time on every probe event, so only the outputs
    // that read one attach it; plain table/CSV runs attach no sink.
    const bool profiled =
        opts.traffic || !opts.trace.empty() || !opts.json.empty();
    const bool want_trace = !opts.trace.empty();
    const bool want_memtrace = !opts.memtrace.empty();

    // Per-lock runs are independent deterministic simulations, each
    // profiled (if at all) into its own MetricsRegistry: fan them out
    // across host threads, then emit everything sequentially in lock order
    // so the output is byte-identical at every --jobs level. The shared
    // timeline and memtrace recorder are only attached under --trace /
    // --memtrace, which parse_cli restricts to a single lock (a one-job
    // batch runs inline).
    std::vector<Run> runs(kinds.size());
    obs::TimelineBuilder timeline;
    sim::TraceRecorder memtrace;
    memtrace.set_max_events(kMemtraceCap);
    exec::Executor executor(opts.jobs);
    executor.run_batch(kinds.size(), [&](std::size_t i) {
        Run& run = runs[i];
        run.kind = kinds[i];
        if (opts.bench == CliBench::App)
            run.structs = std::make_unique<structs::KvStructsStats>();
        obs::MultiSink sink;
        if (profiled) {
            run.metrics = std::make_unique<obs::MetricsRegistry>();
            sink.add(run.metrics.get());
            if (want_trace)
                sink.add(&timeline);
        }
        run.result = run_bench(run.kind, opts, profiled ? &sink : nullptr,
                               want_memtrace ? &memtrace : nullptr,
                               run.structs.get());
        if (!profiled)
            return;
        run.metrics->finalize();
#ifndef NDEBUG
        // Observer-effect tripwire (debug builds only, doubles the work):
        // the identical run without a sink must produce the identical
        // simulated history. tests/obs_test.cpp pins the same property.
        const BenchResult bare =
            run_bench(run.kind, opts, nullptr, nullptr, nullptr);
        NUCA_ASSERT(bare.acquisition_order_hash ==
                        run.result.acquisition_order_hash,
                    "probes changed the acquisition order of ",
                    lock_name(run.kind));
        NUCA_ASSERT(bare.total_time == run.result.total_time,
                    "probes changed the run time of ", lock_name(run.kind));
#endif
    });

    print_results(opts, runs);
    if (opts.traffic) {
        print_locality(runs);
        print_traffic(runs);
    }

    int rc = 0;
    if (want_trace) {
        timeline.finalize();
        std::ofstream out = open_output("--trace", opts.trace);
        if (out)
            timeline.write_chrome_trace(
                out, lock_name(runs.front().kind),
                obs::contention_counter_tracks(runs.front().result.contention));
        else
            rc = 1;
    }
    if (want_memtrace) {
        std::ofstream out = open_output("--memtrace", opts.memtrace);
        if (!out)
            return 1;
        memtrace.dump_csv(out);
        std::cout << "memtrace: " << memtrace.events().size()
                  << " events written to " << opts.memtrace;
        if (memtrace.dropped() != 0)
            std::cout << " (" << memtrace.dropped() << " dropped at the "
                      << kMemtraceCap << "-event cap)";
        std::cout << "\n";
    }
    if (!opts.json.empty() && write_json_report(opts, runs) != 0)
        return 1;
    return rc;
}

/** --bench=app with a SPLASH-2 descriptor name: one run per lock. */
int
run_splash_app(const CliOptions& opts)
{
    // Validate the name without app_by_name's fatal.
    const std::vector<apps::AppWorkload> suite = apps::splash2_suite();
    const apps::AppWorkload* app = nullptr;
    for (const apps::AppWorkload& candidate : suite)
        if (candidate.name == opts.app)
            app = &candidate;
    if (app == nullptr) {
        std::cerr << "error: unknown --app '" << opts.app
                  << "' (want kv or a SPLASH-2 name, e.g. Raytrace)\n";
        return 2;
    }

    apps::AppRunConfig config;
    config.topology = Topology::symmetric(opts.nodes, opts.cpus_per_node);
    config.latency = latency_of(opts);
    config.params = opts.params;
    config.threads = opts.threads;
    config.seed = opts.seed;
    config.preemption = opts.preemption;

    Results out(opts.csv,
                {"Lock", "time ms", "local tx", "global tx", "lock calls"});
    const std::vector<LockKind> kinds = selected_locks(opts);
    exec::Executor executor(opts.jobs);
    const std::vector<apps::AppOutcome> outcomes =
        executor.map<apps::AppOutcome>(kinds.size(), [&](std::size_t i) {
            return apps::run_app_once(*app, kinds[i], config);
        });
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        const apps::AppOutcome& o = outcomes[i];
        out.row(lock_name(kinds[i]))
            .cell(static_cast<double>(o.time) / 1e6, 2)
            .cell(o.traffic.local_tx)
            .cell(o.traffic.global_tx)
            .cell(o.lock_calls);
    }
    out.print();
    return 0;
}

/** --bench=uncontested: Table 1 style latency probes, one run per lock. */
int
run_uncontested_cli(const CliOptions& opts)
{
    UncontestedConfig config;
    config.topology = Topology::symmetric(opts.nodes, opts.cpus_per_node);
    config.latency = latency_of(opts);
    config.params = opts.params;
    config.iterations = opts.iterations;
    config.seed = opts.seed;

    Results out(opts.csv, {"Lock", "same processor ns", "same node ns",
                           "remote node ns"});
    const std::vector<LockKind> kinds = selected_locks(opts);
    exec::Executor executor(opts.jobs);
    const std::vector<UncontestedResult> results =
        executor.map<UncontestedResult>(kinds.size(), [&](std::size_t i) {
            return run_uncontested(kinds[i], config);
        });
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        const UncontestedResult& r = results[i];
        out.row(lock_name(kinds[i]))
            .cell(r.same_processor_ns, 0)
            .cell(r.same_node_ns, 0)
            .cell(r.remote_node_ns, 0);
    }
    out.print();
    return 0;
}

/** Read a whole report file; nullopt (with a message) when unreadable. */
std::optional<std::string>
read_file(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "error: cannot read '" << path << "'\n";
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

int
check_schema(const std::string& path)
{
    const auto text = read_file(path);
    if (!text)
        return 1;
    std::string error;
    if (!obs::validate_report_text(*text, &error)) {
        std::cerr << path << ": schema validation FAILED: " << error << "\n";
        return 1;
    }
    std::cout << path << ": valid " << obs::kReportSchemaName << " v"
              << obs::kReportSchemaVersion << "\n";
    return 0;
}

/** Read + parse a report file; nullopt (with a message) on failure. */
std::optional<obs::JsonValue>
load_report(const std::string& path)
{
    const auto text = read_file(path);
    if (!text)
        return std::nullopt;
    std::string error;
    auto document = obs::json_parse(*text, &error);
    if (!document) {
        std::cerr << path << ": JSON parse error: " << error << "\n";
        return std::nullopt;
    }
    return document;
}

std::uint64_t
num_of(const obs::JsonValue& parent, const char* name)
{
    const obs::JsonValue* v = parent.find(name);
    return v == nullptr ? 0 : static_cast<std::uint64_t>(v->number);
}

std::string
str_of(const obs::JsonValue& parent, const char* name)
{
    const obs::JsonValue* v = parent.find(name);
    return v == nullptr ? std::string{} : v->string;
}

/** --robustness: render a campaign report's recovery verdict. */
int
show_robustness(const std::string& path)
{
    const auto document = load_report(path);
    if (!document)
        return 1;
    std::string error;
    if (!obs::validate_report(*document, &error)) {
        std::cerr << path << ": schema validation FAILED: " << error << "\n";
        return 1;
    }
    const obs::JsonValue* rob = document->find("robustness");
    if (rob == nullptr) {
        std::cerr << path << ": no \"robustness\" object (write one with "
                     "nucacheck --campaign --report=...)\n";
        return 1;
    }

    const obs::JsonValue* campaign = rob->find("campaign");
    std::cout << "campaign:";
    if (const obs::JsonValue* presets = campaign->find("presets"))
        for (const obs::JsonValue& p : presets->array)
            std::cout << " " << p.string;
    std::cout << "\n  timeout_ns=" << num_of(*campaign, "timeout_ns")
              << " iterations=" << num_of(*campaign, "iterations")
              << " first_seed=" << num_of(*campaign, "first_seed")
              << " num_seeds=" << num_of(*campaign, "num_seeds") << "\n\n";

    stats::Table table({"Lock", "cells", "fail", "acq", "timeouts",
                        "abandons", "parked", "races", "reclaims", "rejoins",
                        "unparks", "leaked", "overshoot", "verdict"});
    for (const obs::JsonValue& row : rob->find("per_lock")->array) {
        table.row().cell(str_of(row, "lock"));
        for (const char* key :
             {"cells", "failures", "acquisitions", "timeouts", "abandons",
              "parked", "grant_races", "reclaims", "rejoins", "unparks",
              "leaked_nodes", "max_overshoot_ns"})
            table.cell(num_of(row, key));
        table.cell(num_of(row, "failures") != 0 ? "FAIL" : "ok");
    }
    table.print(std::cout);

    const obs::JsonValue* cells = rob->find("cells");
    for (const obs::JsonValue& cell : cells->array) {
        if (str_of(cell, "verdict") != "FAIL")
            continue;
        std::cout << "\n"
                  << str_of(cell, "lock") << " preset="
                  << str_of(cell, "preset") << " " << num_of(cell, "nodes")
                  << "x" << num_of(cell, "cpus_per_node")
                  << " seed=" << num_of(cell, "seed") << ":\n"
                  << "  failure: " << str_of(cell, "what") << "\n";
        if (const obs::JsonValue* t = cell.find("trace"))
            std::cout << "  trace:   " << t->string << "\n";
        if (const obs::JsonValue* t = cell.find("minimal_trace"))
            std::cout << "  minimal: " << t->string << "\n";
    }
    const std::uint64_t failures = num_of(*rob, "failures");
    std::cout << "\nrobustness: " << cells->array.size() << " cells, "
              << failures << " failure" << (failures == 1 ? "" : "s") << " ("
              << str_of(*rob, "verdict") << ")\n";
    return failures == 0 ? 0 : 1;
}

/** Append every path where @p a and @p b differ (caps at 32 entries). */
void
diff_values(const obs::JsonValue& a, const obs::JsonValue& b,
            const std::string& path, std::vector<std::string>& out)
{
    constexpr std::size_t kMaxDiffs = 32;
    if (out.size() >= kMaxDiffs)
        return;
    if (a.type != b.type) {
        out.push_back(path + ": type differs");
        return;
    }
    switch (a.type) {
      case obs::JsonValue::Type::Object: {
        for (const auto& [key, av] : a.object) {
            const obs::JsonValue* bv = b.find(key);
            if (bv == nullptr)
                out.push_back(path + "." + key + ": only in first");
            else
                diff_values(av, *bv, path + "." + key, out);
            if (out.size() >= kMaxDiffs)
                return;
        }
        for (const auto& [key, bv] : b.object)
            if (a.find(key) == nullptr) {
                out.push_back(path + "." + key + ": only in second");
                if (out.size() >= kMaxDiffs)
                    return;
            }
        break;
      }
      case obs::JsonValue::Type::Array: {
        if (a.array.size() != b.array.size()) {
            out.push_back(path + ": array length " +
                          std::to_string(a.array.size()) + " vs " +
                          std::to_string(b.array.size()));
            return;
        }
        for (std::size_t i = 0; i < a.array.size(); ++i) {
            diff_values(a.array[i], b.array[i],
                        path + "[" + std::to_string(i) + "]", out);
            if (out.size() >= kMaxDiffs)
                return;
        }
        break;
      }
      case obs::JsonValue::Type::String:
        if (a.string != b.string)
            out.push_back(path + ": \"" + a.string + "\" vs \"" + b.string +
                          "\"");
        break;
      case obs::JsonValue::Type::Number:
        if (a.number != b.number)
            out.push_back(path + ": " + std::to_string(a.number) + " vs " +
                          std::to_string(b.number));
        break;
      case obs::JsonValue::Type::Bool:
        if (a.boolean != b.boolean)
            out.push_back(path + ": boolean differs");
        break;
      case obs::JsonValue::Type::Null:
        break;
    }
}

/** --diff=A,B: deterministic-field comparison of two reports. */
int
diff_reports(const std::string& spec)
{
    const std::size_t comma = spec.find(',');
    const std::string path_a = spec.substr(0, comma);
    const std::string path_b = spec.substr(comma + 1);
    auto a = load_report(path_a);
    auto b = load_report(path_b);
    if (!a || !b)
        return 2;
    obs::strip_nondeterministic(*a);
    obs::strip_nondeterministic(*b);
    std::vector<std::string> diffs;
    diff_values(*a, *b, "$", diffs);
    if (diffs.empty()) {
        std::cout << path_a << " and " << path_b
                  << ": identical over deterministic fields\n";
        return 0;
    }
    std::cout << path_a << " and " << path_b << " DIFFER:\n";
    for (const std::string& d : diffs)
        std::cout << "  " << d << "\n";
    return 1;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    const CliParse parsed = parse_cli(args);
    if (!parsed.options) {
        std::cerr << "error: " << parsed.error << "\n\n" << cli_usage();
        return 2;
    }
    const CliOptions& opts = *parsed.options;
    if (opts.help) {
        std::cout << cli_usage();
        return 0;
    }
    if (!opts.check_schema.empty())
        return check_schema(opts.check_schema);
    if (!opts.robustness.empty())
        return show_robustness(opts.robustness);
    if (!opts.diff.empty())
        return diff_reports(opts.diff);
    if (opts.counters) {
        // Informational probe: report per-event availability on this host.
        // Exit 0 when at least one event counts, 1 when none do — the CI
        // perf-smoke job treats both as "probe ran"; only a crash fails it.
        obs::PerfCounterSource source;
        return obs::print_counter_capabilities(source, stdout);
    }
    if (opts.bench == CliBench::Uncontested)
        return run_uncontested_cli(opts);
    if (opts.bench == CliBench::App && opts.app != "kv")
        return run_splash_app(opts);
    return run_contended(opts);
}
