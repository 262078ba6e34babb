/**
 * @file
 * perfbench: the nucalock end-to-end benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--smoke] [--plant broken-tatas] [--span-file PATH]
 *             [--pins DIR] [--write-pins]
 *
 * Workloads: sim-spin, sim-handover, check-explore, native-kv (README.md
 * says why each exists). With --trace 0 the run repeats the workload's
 * fixed work in rounds for S seconds and prints the end-to-end metrics;
 * with --trace 1 it prints every per-layer metric: the named workload's
 * traced pass, then short traced passes of the other workloads for the
 * layers the named one does not exercise. The last stdout line is one
 * JSON object {correct, attempted, failed, metrics}.
 */
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "bench.hpp"

using namespace perfbench;

namespace {

struct MetricSpec
{
    const char* name;
    const char* unit;
};

// Must match BENCHMARK.json (checked by test_perfbench.py).
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},          {"work_per_s", "1/s"},
    {"latency_p50_us", "us"}, {"latency_p95_us", "us"},
    {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.events_per_acq", "count"},
    {"sim.switches_per_acq", "count"},
    {"sim.run_ns_per_event", "ns"},
    {"sim.setup_ns_per_thread", "ns"},
    {"sim.memory.ns_per_access", "ns"},
    {"sim.memory.inval_per_acq", "count"},
    {"sim.ready_queue.ns_per_op", "ns"},
    {"sim.fiber.ns_per_switch", "ns"},
    {"sim.invariants.ns_per_acq", "ns"},
    {"sim.engine_other_ns_per_event", "ns"},
    {"sim.resource.link_util", "ratio"},
    {"sim.resource.link_queue_ns_per_tx", "sim_ns"},
    {"sim.setup_rss_mb", "MiB"},
    {"locks.remote_handover_frac", "ratio"},
    {"locks.backoff_rounds_per_acq", "count"},
    {"locks.gate_blocked_frac", "ratio"},
    {"locks.acquire_ns", "ns"},
    {"locks.release_ns", "ns"},
    {"locks.uncontended_ns", "ns"},
    {"native.cs_ns", "ns"},
    {"native.spawn_ns_per_thread", "ns"},
    {"structs.read_ns", "ns"},
    {"structs.write_ns", "ns"},
    {"structs.scan_ns", "ns"},
    {"structs.stripe_acq_per_op", "count"},
    {"structs.resizes", "count"},
    {"check.steps_per_exec", "count"},
    {"check.pruned_frac", "ratio"},
    {"check.truncated_frac", "ratio"},
    {"check.ns_per_step", "ns"},
    {"check.pick_ns", "ns"},
    {"check.setup_ns_per_exec", "ns"},
    {"obs.probe_events_per_acq", "count"},
    {"obs.sink_ns_per_event", "ns"},
    {"model.sim_ns_per_acq", "sim_ns"},
    {"model.global_tx_per_acq", "tx"},
    {"model.table1_err_pct", "%"},
    {"trace.overhead_frac", "ratio"},
};

struct Workload
{
    const char* name;
    void (*measure)(const Args&, Report&);
    void (*layers)(const Args&, Report&, double);
};

constexpr Workload kWorkloads[] = {
    {"sim-spin", sim_spin_measure, sim_spin_layers},
    {"sim-handover", sim_handover_measure, sim_handover_layers},
    {"check-explore", check_explore_measure, check_explore_layers},
    {"native-kv", native_kv_measure, native_kv_layers},
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sim-spin|sim-handover|check-explore|native-kv --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--plant broken-tatas] "
                 "[--span-file PATH] [--pins DIR] [--write-pins]\n",
                 why);
    std::exit(2);
}

bool
parse_u64(const char* text, std::uint64_t& out)
{
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        return false;
    out = v;
    return true;
}

Args
parse_args(int argc, char** argv)
{
    Args args;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view key = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        if (key == "--workload") {
            args.workload = value();
        } else if (key == "--seed") {
            if (!parse_u64(value(), args.seed))
                usage("bad --seed");
        } else if (key == "--seconds") {
            std::uint64_t s = 0;
            if (!parse_u64(value(), s) || s == 0 || s > 3600)
                usage("bad --seconds");
            args.seconds = static_cast<double>(s);
        } else if (key == "--trace") {
            const std::string_view v = value();
            if (v != "0" && v != "1")
                usage("bad --trace");
            args.trace = v == "1";
            have_trace = true;
        } else if (key == "--smoke") {
            args.smoke = true;
        } else if (key == "--plant") {
            args.plant = value();
            if (args.plant != "broken-tatas")
                usage("unknown --plant");
        } else if (key == "--span-file") {
            args.span_file = value();
        } else if (key == "--pins") {
            args.pins_dir = value();
        } else if (key == "--write-pins") {
            args.write_pins = true;
        } else {
            usage("unknown argument");
        }
    }
    if (args.workload.empty() || !have_trace)
        usage("--workload and --trace are required");
    return args;
}

const Workload*
find_workload(const std::string& name)
{
    for (const Workload& w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

/** Fold a secondary pass into the run: its units, failures and any
 *  per-layer metric the run does not have yet. */
void
merge(Report& into, const Report& from, const char* source)
{
    into.attempt(from.attempted());
    for (std::uint64_t i = 0; i < from.failed(); ++i)
        into.fail_unit(std::string("in ") + source + " pass");
    if (!from.correct() && from.failed() == 0)
        into.fail_check(std::string(source) + " pass failed a check");
    for (const std::string& line : from.notes())
        into.note(std::string("[") + source + "] " + line);
    for (const Metric& m : from.metrics())
        if (!into.has(m.name))
            into.set(m.name, m.value, m.unit);
}

Report
run_traced(const Args& args, const Workload& named)
{
    // One untraced timed round (after the warm-up round) of the same fixed
    // work, for the overhead.
    Args untraced = args;
    untraced.trace = false;
    untraced.max_rounds = 1;
    Report base;
    named.measure(untraced, base);
    double base_wall = 0.0;
    for (const Metric& m : base.metrics())
        if (m.name == "wall_s")
            base_wall = m.value;

    Report rep;
    merge(rep, base, "untraced");
    tracer().enable(true);
    named.layers(args, rep, base_wall);
    for (const Workload& other : kWorkloads) {
        if (&other == &named)
            continue;
        Report extra;
        other.layers(args, extra, 0.0);
        merge(rep, extra, other.name);
    }
    tracer().enable(false);
    rep.note("span self time (traced run):");
    rep.note(tracer().self_time_table());
    if (!args.span_file.empty() && !tracer().write(args.span_file))
        rep.note("could not write spans to " + args.span_file);
    return rep;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parse_args(argc, argv);
    const Workload* workload = find_workload(args.workload);
    if (workload == nullptr)
        usage("unknown workload");

    Report rep;
    if (args.trace) {
        rep = run_traced(args, *workload);
    } else {
        workload->measure(args, rep);
    }

    std::printf("perfbench %s seed=%" PRIu64 " trace=%d%s\n", workload->name,
                args.seed, args.trace ? 1 : 0,
                args.seed == kDefaultSeed    ? " (default seed)"
                : args.seed == kHeldOutSeed ? " (held-out seed)"
                                            : "");
    for (const std::string& line : rep.notes())
        std::printf("# %s\n", line.c_str());

    std::string json = "{\"correct\": ";
    bool complete = true;
    std::string metrics;
    auto emit = [&](const MetricSpec& spec) {
        const Metric* found = nullptr;
        for (const Metric& m : rep.metrics())
            if (m.name == spec.name)
                found = &m;
        if (found == nullptr || !std::isfinite(found->value) ||
            found->unit != spec.unit) {
            std::fprintf(stderr, "perfbench: metric %s missing or invalid\n",
                         spec.name);
            complete = false;
            return;
        }
        std::printf("%-36s %18.6f %s\n", spec.name, found->value, spec.unit);
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", spec.name, found->value,
                      spec.unit);
        metrics += buf;
    };
    if (args.trace)
        for (const MetricSpec& spec : kPerLayer)
            emit(spec);
    else
        for (const MetricSpec& spec : kEndToEnd)
            emit(spec);
    if (!complete)
        return 3;

    const double fail_ratio =
        rep.attempted() == 0 ? 0.0
                             : static_cast<double>(rep.failed()) /
                                   static_cast<double>(rep.attempted());
    std::printf("%-36s %18.6f %s (failed %" PRIu64 " of %" PRIu64 " units)\n",
                "fail_ratio", fail_ratio, "ratio", rep.failed(),
                rep.attempted());
    const bool correct = rep.correct() && rep.attempted() > 0;
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted()) +
            ", \"failed\": " + std::to_string(rep.failed()) +
            ", \"metrics\": {" + metrics + "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
