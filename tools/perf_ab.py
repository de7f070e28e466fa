#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark, base revision vs working tree.

Run from anywhere inside a checkout:

    python3 tools/perf_ab.py --base HEAD --seeds 31-40 --workloads offline_batch

The base revision is exported with `git archive` into a scratch directory
(a clean tree, so nothing of the working tree leaks into it), and each side
is built by its own perfbench/run.py into its own CARGO_TARGET_DIR. Every
seed then runs once per side and workload, untraced, alternating which side
runs first. For each end-to-end metric in BENCHMARK.json the report gives
the base's median and quartiles, the change's median, the ratio of the
medians (change / base) and the pairs the change won, judged by the
metric's "better" (ties count for neither side), and a verdict:

    gain        the change won at least 9 in 10 pairs, and its median is
                better than the base's by more than the base's
                interquartile range;
    worse       its median is worse than the base's by more than the
                metric's BENCHMARK.json bound (a fraction of the base
                median);
    unresolved  the base's interquartile range is wider than that bound,
                and not every change run beats every base run, so the
                runs cannot tell a change within the bound from none;
    flat        anything else.

The verdicts are checked in that order. They inform; the exit status
does not depend on them.

The exit status is non-zero when a run fails or reports "correct": false,
or when a simulated metric differs between the sides on some seed. Those
metrics come from the simulated clock, so a change that keeps behaviour
leaves them identical per seed. offline_batch has none: its latency_*
are wall-clock call times.

With --trace, every seed also runs one traced pair, TRACE_SECONDS long
(perfbench's --trace 1, which prints the per-layer metrics instead).
For each per-layer metric the report then gives the base and change
medians and their ratio, ranked by |log ratio| so the layer that moved
most comes first, each beside the end-to-end metrics that the "moves"
column of perfbench/METRICS.md names for it, with this run's end-to-end
ratios where that column names the workload being reported. Metrics
that are 0 on both sides (a layer the workload bypasses, or a count that
must stay 0) are listed by name after the table.

Environment variables (DLSYS_ISA, DLSYS_PASSES, ...) pass through to both
sides. The tool reads perfbench/ and BENCHMARK.json and edits neither.
"""

import argparse
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))

# Metrics computed on the simulated clock, per workload.
SIMULATED = {
    "online_serve": ("latency_p50_ms", "latency_p99_ms", "ok_fraction",
                     "tenant_skew"),
    "fleet_chaos": ("latency_p50_ms", "latency_p99_ms", "ok_fraction",
                    "tenant_skew", "recover_ms"),
}

# Length of each traced run (--trace). Traced runs only locate the layer
# that moved; the end-to-end figures a claim rests on come from the
# untraced runs at --seconds, so the traced ones can be short.
TRACE_SECONDS = 5.0


def parse_seeds(text):
    """'31-40' or '1,5,9' or a mix ('1-3,7') -> a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError("seeds must be non-negative: " + text)
    return seeds


def export_revision(rev, dest):
    """Writes the tree of git revision `rev` into directory `dest`, unless
    dest already holds that commit (so a kept --workdir rebuilds nothing)."""
    commit = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    stamp = os.path.join(dest, ".perf_ab_commit")
    if os.path.exists(stamp) and open(stamp).read() == commit:
        return
    shutil.rmtree(dest, ignore_errors=True)
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                              commit], stdout=subprocess.PIPE, check=True)
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest)
    with open(stamp, "w") as f:
        f.write(commit)


class Side:
    """One checkout and the build tree its runs use."""

    def __init__(self, name, root, target_dir):
        self.name, self.root, self.target_dir = name, root, target_dir

    def run(self, command, workload, seed, seconds, trace=False):
        """One run, untraced unless `trace`: the result JSON, or None if
        the run failed."""
        env = dict(os.environ, CARGO_TARGET_DIR=self.target_dir)
        proc = subprocess.run(
            command + ["--workload", workload, "--seed", str(seed),
                       "--seconds", repr(seconds),
                       "--trace", "1" if trace else "0"],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(proc.stderr[-4000:])
            print("! %s %s seed %d: no result (exit %d)" %
                  (self.name, workload, seed, proc.returncode))
            return None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def failed_runs(seeds, results, label=""):
    """Prints each failed or incorrect run; returns how many there were."""
    problems = 0
    for seed in seeds:
        for side in ("base", "change"):
            r = results[side].get(seed)
            if r is None or not r.get("correct", False):
                print("! %s%s seed %d: run failed or correct: false" %
                      (label, side, seed))
                problems += 1
    return problems


def paired_values(seeds, results, name):
    """(base, change) values of metric `name` on every seed both sides ran."""
    return [(results["base"][s]["metrics"][name]["value"],
             results["change"][s]["metrics"][name]["value"])
            for s in seeds
            if results["base"].get(s) and results["change"].get(s)
            and name in results["base"][s]["metrics"]
            and name in results["change"][s]["metrics"]]


def verdict(pairs, better, bound):
    """What the pairs show for one metric: "gain", "worse", "unresolved"
    or "flat" (see the module docstring). `bound` is the metric's
    BENCHMARK.json bound, a fraction of the base median."""
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    q1, q3 = quartiles(base)
    bmed, cmed = statistics.median(base), statistics.median(change)
    sign = 1 if better == "higher" else -1
    gained = sign * (cmed - bmed)  # > 0: the change's median is better
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    allowed = bound * abs(bmed)
    if 10 * wins >= 9 * len(pairs) and gained > q3 - q1:
        return "gain"
    if -gained > allowed:
        return "worse"
    beats_all = (min(change) > max(base) if sign > 0
                 else max(change) < min(base))
    if q3 - q1 > allowed and not beats_all:
        return "unresolved"
    return "flat"


def report(workload, seeds, results, end_to_end):
    """Prints one workload's table. Returns the number of problems found
    and each end-to-end metric's ratio of medians (change / base)."""
    print("\n== %s: %d pairs (seeds %s)" % (
        workload, len(seeds), ",".join(str(s) for s in seeds)))
    problems = failed_runs(seeds, results)
    ratios = {}
    paired = [s for s in seeds
              if results["base"].get(s) and results["change"].get(s)]
    print("%-18s %-9s %12s %25s %12s %8s %6s  %s" % (
        "metric", "unit", "base_median", "base_q1..q3", "change_med",
        "ratio", "wins", "verdict"))
    for metric in end_to_end:
        name = metric["name"]
        pairs = paired_values(seeds, results, name)
        if not pairs:
            continue
        base = [b for b, _ in pairs]
        change = [c for _, c in pairs]
        q1, q3 = quartiles(base)
        bmed, cmed = statistics.median(base), statistics.median(change)
        higher = metric["better"] == "higher"
        wins = sum(1 for b, c in pairs if (c > b if higher else c < b))
        if bmed:
            ratios[name] = cmed / bmed
        ratio = "%.3f" % (cmed / bmed) if bmed else "n/a"
        print("%-18s %-9s %12.6g %12.6g..%-12.6g %12.6g %8s %3d/%-2d  %s" % (
            name, metric["unit"], bmed, q1, q3, cmed, ratio, wins, len(pairs),
            verdict(pairs, metric["better"], metric["bound"])))
    for seed in paired:
        for name in SIMULATED.get(workload, ()):
            b = results["base"][seed]["metrics"].get(name, {}).get("value")
            c = results["change"][seed]["metrics"].get(name, {}).get("value")
            if b != c:
                print("! seed %d: simulated %s differs: base %r, change %r" %
                      (seed, name, b, c))
                problems += 1
    return problems, ratios


def layer_moves(per_layer, end_to_end):
    """Per-layer metric -> [(end-to-end metric, workload or "all")], read
    from the "moves" column of perfbench/METRICS.md's per-layer table.

    A row's first cell lists per-layer metrics in backticks; "a ... b"
    stands for every metric from a to b in BENCHMARK.json's order. In the
    moves cell each backticked end-to-end metric belongs to the next
    "on <workload>" after it (or to every workload when none follows)."""
    names = [m["name"] for m in per_layer]
    e2e = {m["name"] for m in end_to_end}
    moves = {}
    with open(os.path.join(ROOT, "perfbench", "METRICS.md")) as f:
        for line in f:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) != 4:
                continue
            listed = [n for n in re.findall(r"`([^`]+)`", cells[0])
                      if n in names]
            if "..." in cells[0] and len(listed) == 2:
                listed = names[names.index(listed[0]):
                               names.index(listed[1]) + 1]
            targets, pending = [], []
            for m in re.finditer(r"`([^`]+)`|\bon (\w+)", cells[3]):
                if m.group(1):
                    if m.group(1) in e2e:
                        pending.append(m.group(1))
                else:
                    targets += [(n, m.group(2)) for n in pending]
                    pending = []
            targets += [(n, "all") for n in pending]
            for name in listed:
                moves[name] = targets
    return moves


def describe_moves(workload, targets, e2e_ratios):
    """The moves cell for one row: this run's end-to-end ratio for each
    metric named for this workload, the others as METRICS.md names them."""
    here = ["%s %s" % (n, "%.3f" % e2e_ratios[n] if n in e2e_ratios
                       else "n/a")
            for n, w in targets if w in (workload, "all")]
    elsewhere = {}
    for n, w in targets:
        if w not in (workload, "all"):
            elsewhere.setdefault(w, []).append(n)
    parts = ([", ".join(here)] if here else []) + [
        "(%s: %s)" % (w, ", ".join(ns)) for w, ns in elsewhere.items()]
    return "; ".join(parts) or "-"


def report_layers(workload, seeds, traced, per_layer, moves, e2e_ratios):
    """Prints the traced pairs' per-layer medians, ranked by |log ratio|;
    returns the number of failed traced runs."""
    print("\n-- %s per layer: %d traced pairs, ranked by |log ratio|" %
          (workload, len(seeds)))
    problems = failed_runs(seeds, traced, "traced ")
    rows, idle = [], []
    for metric in per_layer:
        name = metric["name"]
        pairs = paired_values(seeds, traced, name)
        if not pairs:
            continue
        bmed = statistics.median(b for b, _ in pairs)
        cmed = statistics.median(c for _, c in pairs)
        if bmed == 0 and cmed == 0:
            idle.append(name)
            continue
        if bmed > 0 and cmed > 0:
            rank = abs(math.log(cmed / bmed))
        else:
            rank = 0.0 if bmed == cmed else math.inf
        rows.append((rank, metric, bmed, cmed))
    rows.sort(key=lambda row: -row[0])
    print("%-26s %-9s %12s %12s %8s  %s" % (
        "metric", "unit", "base_median", "change_med", "ratio",
        "moves (end-to-end ratio)"))
    for _, metric, bmed, cmed in rows:
        ratio = "%.3f" % (cmed / bmed) if bmed else "n/a"
        print("%-26s %-9s %12.6g %12.6g %8s  %s" % (
            metric["name"], metric["unit"], bmed, cmed, ratio,
            describe_moves(workload, moves.get(metric["name"], []),
                           e2e_ratios)))
    if idle:
        print("0 on both sides: " + ", ".join(idle))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="git revision to compare against (default HEAD)")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="seeds, e.g. 31-40 or 1,4,9 (default 1-10)")
    parser.add_argument("--workloads", default=",".join(workloads),
                        help="comma-separated subset of " + ", ".join(workloads))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="run length (default BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", action="store_true",
                        help="also run one traced pair per seed, %g s "
                             "each, and rank the per-layer metrics"
                             % TRACE_SECONDS)
    parser.add_argument("--workdir",
                        help="directory for the base export and both build "
                             "trees, kept for reuse (default: a temporary "
                             "directory, removed on exit)")
    args = parser.parse_args()
    chosen = args.workloads.split(",")
    unknown = [w for w in chosen if w not in workloads]
    if unknown:
        parser.error("unknown workload(s): " + ", ".join(unknown))
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    moves = layer_moves(bench["per_layer"], bench["end_to_end"])

    workdir = args.workdir or tempfile.mkdtemp(prefix="perf_ab.")
    os.makedirs(workdir, exist_ok=True)
    try:
        base_src = os.path.join(workdir, "base_src")
        export_revision(args.base, base_src)
        sides = {
            "base": Side("base", base_src, os.path.join(workdir, "base_build")),
            "change": Side("change", ROOT,
                           os.path.join(workdir, "change_build")),
        }
        # A short run per side builds its binary before any timed pair.
        for side in sides.values():
            if side.run(bench["command"], chosen[0], 0, 0.2) is None:
                sys.exit("perf_ab: %s side failed to build or run" % side.name)

        problems = 0
        for workload in chosen:
            results = {"base": {}, "change": {}}
            traced = {"base": {}, "change": {}}
            for i, seed in enumerate(args.seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for name in order:
                    sys.stderr.write("perf_ab: %s %s seed %d\n" %
                                     (name, workload, seed))
                    results[name][seed] = sides[name].run(
                        bench["command"], workload, seed, args.seconds)
                for name in order if args.trace else ():
                    sys.stderr.write("perf_ab: traced %s %s seed %d\n" %
                                     (name, workload, seed))
                    traced[name][seed] = sides[name].run(
                        bench["command"], workload, seed, TRACE_SECONDS,
                        trace=True)
            found, ratios = report(workload, args.seeds, results,
                                   bench["end_to_end"])
            problems += found
            if args.trace:
                problems += report_layers(workload, args.seeds, traced,
                                          bench["per_layer"], moves, ratios)
        if problems:
            print("\nperf_ab: %d problem(s) flagged" % problems)
            sys.exit(1)
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
