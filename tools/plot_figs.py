#!/usr/bin/env python3
"""Turn nucalock-bench-report JSON documents into the paper's figures.

Reads one or more versioned reports (schema ``nucalock-bench-report``,
written by ``nucabench --json`` or any bench binary run with
``NUCALOCK_BENCH_JSON``) and renders:

  fig5   ns/acquire per lock (bar chart; the new-benchmark headline)
  fig7   coherence traffic per acquisition, local vs global (grouped
         bars); when runs carry an available v6 ``native_traffic``
         object, the hardware-counter proxy rates are overlaid as
         markers on the same axis (simulated vs measured)
  fig8   fairness spread per lock (bar chart)
  kv     ns/op per lock per contention level for app-kv / bench_table_kv
         reports whose run names look like ``LOCK@level`` (grouped bars)

Usage:
  tools/plot_figs.py report.json [more.json ...] [--out-dir plots]
                     [--figs fig5,fig7,fig8,kv]

Plain matplotlib only — no other dependencies. When matplotlib is not
installed the script prints a note and exits 0, so CI and dev boxes
without it skip plotting gracefully rather than fail.
"""

import argparse
import json
import os
import sys

try:
    import matplotlib

    matplotlib.use("Agg")  # never require a display
    import matplotlib.pyplot as plt
except ImportError:
    print("plot_figs: matplotlib not installed; skipping plot generation")
    sys.exit(0)

KNOWN_FIGS = ("fig5", "fig7", "fig8", "kv")


def load_report(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "nucalock-bench-report":
        raise ValueError(f"{path}: not a nucalock-bench-report document")
    version = doc.get("schema_version")
    if not isinstance(version, (int, float)) or version < 2:
        raise ValueError(f"{path}: unsupported schema_version {version!r}")
    return doc


def run_rows(doc):
    """(name, result, traffic, structs, native) per run, skipping
    malformed rows. `native` is the v6 native_traffic object, or None
    when absent or carrying the unavailable marker."""
    for run in doc.get("runs", []):
        name = run.get("lock")
        result = run.get("result")
        if not name or not isinstance(result, dict):
            continue
        native = run.get("native_traffic")
        if not isinstance(native, dict) or not native.get("available"):
            native = None
        yield name, result, run.get("traffic") or {}, run.get("structs"), \
            native


def bar_chart(path, title, ylabel, labels, values, color="#4477aa"):
    fig, ax = plt.subplots(figsize=(max(6, 0.55 * len(labels)), 4))
    ax.bar(range(len(labels)), values, color=color)
    ax.set_xticks(range(len(labels)))
    ax.set_xticklabels(labels, rotation=60, ha="right", fontsize=8)
    ax.set_ylabel(ylabel)
    ax.set_title(title)
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    plt.close(fig)
    print(f"wrote {path}")


def plot_fig5(doc, out_dir, stem):
    rows = [(n, r["avg_iteration_ns"]) for n, r, _, _, _ in run_rows(doc)]
    if not rows:
        return False
    bar_chart(
        os.path.join(out_dir, f"{stem}_fig5_ns_per_acquire.png"),
        f"ns per acquisition ({doc['config']['bench']}, "
        f"{doc['config']['threads']} threads)",
        "simulated ns / acquisition",
        [n for n, _ in rows],
        [v for _, v in rows],
    )
    return True


def plot_fig7(doc, out_dir, stem):
    rows = [
        (
            n,
            t.get("local_tx_per_acquisition", 0.0),
            t.get("global_tx_per_acquisition", 0.0),
            native,
        )
        for n, _, t, _, native in run_rows(doc)
    ]
    rows = [r for r in rows if r[1] or r[2] or r[3]]
    if not rows:
        return False
    labels = [n for n, _, _, _ in rows]
    xs = range(len(labels))
    width = 0.4
    fig, ax = plt.subplots(figsize=(max(6, 0.6 * len(labels)), 4))
    ax.bar([x - width / 2 for x in xs], [r[1] for r in rows], width,
           label="local", color="#4477aa")
    ax.bar([x + width / 2 for x in xs], [r[2] for r in rows], width,
           label="global", color="#ee6677")
    # Overlay the hardware-counter proxy rates (v6 native_traffic) as
    # markers over the corresponding bars, so simulated and measured
    # per-acquisition traffic read off the same axis.
    native_pts = [
        (x, r[3]) for x, r in zip(xs, rows) if r[3] is not None
    ]
    if native_pts:
        ax.scatter(
            [x - width / 2 for x, nt in native_pts],
            [nt.get("local_tx_per_acquisition", 0.0) for _, nt in native_pts],
            marker="D", color="#222255", zorder=3, label="local (native)")
        ax.scatter(
            [x + width / 2 for x, nt in native_pts],
            [nt.get("global_tx_per_acquisition", 0.0) for _, nt in native_pts],
            marker="D", color="#882222", zorder=3, label="global (native)")
    ax.set_xticks(list(xs))
    ax.set_xticklabels(labels, rotation=60, ha="right", fontsize=8)
    ax.set_ylabel("coherence tx / acquisition")
    ax.set_title("Coherence traffic per acquisition (local vs global)"
                 + (" — markers: hardware counters" if native_pts else ""))
    ax.legend()
    fig.tight_layout()
    path = os.path.join(out_dir, f"{stem}_fig7_traffic.png")
    fig.savefig(path, dpi=120)
    plt.close(fig)
    print(f"wrote {path}")
    return True


def plot_fig8(doc, out_dir, stem):
    rows = [(n, r["fairness_spread_pct"]) for n, r, _, _, _ in run_rows(doc)]
    if not rows:
        return False
    bar_chart(
        os.path.join(out_dir, f"{stem}_fig8_fairness.png"),
        "Fairness: per-thread acquisition spread",
        "spread (% of mean)",
        [n for n, _ in rows],
        [v for _, v in rows],
        color="#228833",
    )
    return True


def plot_kv(doc, out_dir, stem):
    """bench_table_kv shape: run names LOCK@level -> grouped bars."""
    by_lock = {}
    levels = []
    for name, result, _, _, _ in run_rows(doc):
        if "@" not in name:
            continue
        lock, level = name.split("@", 1)
        if level not in levels:
            levels.append(level)
        by_lock.setdefault(lock, {})[level] = result["avg_iteration_ns"]
    if not by_lock:
        return False
    locks = list(by_lock)
    width = 0.8 / len(levels)
    fig, ax = plt.subplots(figsize=(max(8, 0.8 * len(locks)), 4.5))
    for i, level in enumerate(levels):
        xs = [x + (i - (len(levels) - 1) / 2) * width
              for x in range(len(locks))]
        ax.bar(xs, [by_lock[lk].get(level, 0.0) for lk in locks], width,
               label=level)
    ax.set_xticks(range(len(locks)))
    ax.set_xticklabels(locks, rotation=60, ha="right", fontsize=8)
    ax.set_ylabel("simulated ns / KV service op")
    ax.set_title("Sharded-KV shootout: ns/op per lock per contention level")
    ax.legend(title="level")
    fig.tight_layout()
    path = os.path.join(out_dir, f"{stem}_kv_shootout.png")
    fig.savefig(path, dpi=120)
    plt.close(fig)
    print(f"wrote {path}")
    return True


PLOTTERS = {
    "fig5": plot_fig5,
    "fig7": plot_fig7,
    "fig8": plot_fig8,
    "kv": plot_kv,
}


def main():
    parser = argparse.ArgumentParser(
        description="Render nucalock-bench-report JSON files as figures.")
    parser.add_argument("reports", nargs="+", help="report JSON paths")
    parser.add_argument("--out-dir", default="plots",
                        help="output directory (default: plots/)")
    parser.add_argument("--figs", default=",".join(KNOWN_FIGS),
                        help="comma-separated subset of "
                             f"{','.join(KNOWN_FIGS)}")
    args = parser.parse_args()

    figs = [f for f in args.figs.split(",") if f]
    unknown = [f for f in figs if f not in PLOTTERS]
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}")

    os.makedirs(args.out_dir, exist_ok=True)
    wrote = 0
    for path in args.reports:
        try:
            doc = load_report(path)
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"plot_figs: {err}", file=sys.stderr)
            return 1
        stem = os.path.splitext(os.path.basename(path))[0]
        for fig in figs:
            if PLOTTERS[fig](doc, args.out_dir, stem):
                wrote += 1
    if wrote == 0:
        print("plot_figs: no plottable runs found in the given reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
