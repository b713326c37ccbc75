"""Benchmark of the tailscope command line.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Every command runs in a fresh
interpreter (`python3 -m tailscope.cli ...`) on the checkout's `src/`, as a
user runs it: one client, each command starting when the previous one has
exited.  A run writes its inputs, makes one warm-up call, then repeats
whole rounds of the workload's commands until S seconds have passed,
checks every output against the benchmark's own computations, and prints
one JSON object as its last line.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 each
round runs twice, untraced and then under perfbench/traced_cli.py, and the
metrics are the per-layer ones from the traced round; the difference between
the two rounds' wall times is the tracing overhead.  The traced round must
write the same bytes as the untraced one, whose outputs the checks read.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import checks
import traced_cli
import workloads
from workloads import Op, Result

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
# No round starts unless the previous one, repeated, would end before this;
# the whole run must end within 180 s.
RUN_LIMIT_S = 150.0
OP_TIMEOUT_S = 170.0

E2E = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("output_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
]
# Commands named as in each workload's round; a workload without the
# command reports 0 for it.
COMMANDS = ("startup", "simulate", "meplot", "estimate", "converge_positive",
            "converge_negative", "converge_zero", "analyze", "analyze_reject")
SPAN_SELF = tuple(dict.fromkeys(name for _, _, name in traced_cli.TARGETS))
SPAN_COUNTS = (
    ("dist.sample.calls", "count"), ("dist.sample.values", "count"),
    ("empirics.order_statistics.values", "count"), ("empirics.me_plot.points", "count"),
    ("empirics.PointSet2D.write_csv.bytes", "bytes"), ("estimators.trace.points", "count"),
    ("randset.hausdorff_window.points", "count"), ("pipeline.load_csv.rows", "count"),
    ("svgplot.render_plot.bytes", "bytes"), ("svgplot.render_plot.marks", "count"),
)
# name, unit, better
PER_LAYER = (
    [("init.import_s", "s", "lower")]
    + [(f"{name}.self_s", "s", "lower") for name in SPAN_SELF]
    + [(name, unit, "lower") for name, unit in SPAN_COUNTS]
    + [("randset.used_per_drawn", "ratio", "higher"),
       ("svgplot.distinct_per_mark", "ratio", "higher"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.uncovered_s", "s", "lower")]
    + [(f"cmd.{c}_s", "s", "lower") for c in COMMANDS]
    + [(f"cmd.{c}.uncovered_s", "s", "lower") for c in COMMANDS]
)


class SetupError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TAILSCOPE_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_op(op: Op, logs: Path, timeout: float, spans: Path | None = None) -> Result:
    """Run one command to its end; wall time from start to reaping, rusage of the child."""
    if spans is None:
        argv = [sys.executable, "-m", "tailscope.cli", *op.args]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--", *op.args]
    logs.mkdir(parents=True, exist_ok=True)
    out_path, err_path = logs / f"{op.name}.out", logs / f"{op.name}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            wall = perf_counter() - t0
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(op, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, out_path.read_text(), err_path.read_text())


def check_result(r: Result, content: bool) -> list:
    if r.returncode != r.op.expect:
        return [f"{r.op.name}: exit {r.returncode}, expected {r.op.expect}: {r.stderr.strip()[-300:]}"]
    if not content:
        return []
    try:
        return r.op.check(r)
    except Exception as exc:  # a missing or malformed output file is a failed check
        return [f"{r.op.name}: check raised {type(exc).__name__}: {exc}"]


def dir_bytes(path: Path | None) -> int:
    if path is None or not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def setup(workload: str, seed: int, work: Path) -> tuple[dict, float]:
    """Write the inputs SETUPS times, then make one warm-up call.

    Set-up time is the median time to write the inputs plus the warm-up
    call's time; repeating the call too would cost each run seconds.
    """
    writes = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        facts = workloads.make_inputs(workload, seed, work / "inputs")
        writes.append(perf_counter() - t0)
    warm = run_op(Op("warm-up", ["--version"]), work / "setup-logs", OP_TIMEOUT_S)
    if warm.returncode != 0:
        raise SetupError(f"warm-up call exited {warm.returncode}: {warm.stderr.strip()[-500:]}")
    return facts, statistics.median(writes) + warm.wall


def run_round(workload: str, seed: int, facts: dict, rd: Path, deadline: float,
              traced: bool, plain: dict | None = None) -> dict:
    """One round: run every command, then check what each wrote.

    Given `plain`, an untraced round of the same inputs, the commands must
    write exactly its bytes, and the content checks that already passed on
    those bytes are not repeated.
    """
    ops = workloads.round_ops(workload, seed, facts, rd)
    results, span_files = [], []
    for i, op in enumerate(ops):
        spans = rd / "spans" / f"{i}.json" if traced else None
        if spans is not None:
            spans.parent.mkdir(parents=True, exist_ok=True)
        results.append(run_op(op, rd / "logs", deadline - perf_counter(), spans))
        span_files.append(spans)
    problems = {r.op.name: check_result(r, content=plain is None) for r in results}
    op_bytes = {op.name: dir_bytes(op.out) for op in ops}
    for name, written in op_bytes.items():
        if plain is not None and written != plain["op_bytes"][name]:
            problems[name].append(f"{name}: wrote {written} bytes traced, {plain['op_bytes'][name]} untraced")
    rnd = {
        "results": results,
        "problems": problems,
        "wall": sum(r.wall for r in results),
        "cpu": sum(r.cpu for r in results),
        "rss": max(r.rss_mb for r in results),
        "op_bytes": op_bytes,
        "bytes": sum(op_bytes.values()),
    }
    if traced:
        rnd["layers"] = layer_metrics(results, span_files, problems)
        marks = distinct = 0
        for svg in sorted(rd.rglob("*.svg")):
            m, d = checks.distinct_marks(svg)
            marks, distinct = marks + m, distinct + d
        rnd["layers"]["svgplot.distinct_per_mark"] = distinct / marks if marks else 0.0
    return rnd


def layer_metrics(results: list, span_files: list, problems: dict) -> dict:
    """Self times and counts per span name, summed over the round's commands."""
    totals = defaultdict(float)
    imports = []
    k_sum = drawn = 0.0
    for r, path in zip(results, span_files):
        if not path.exists():
            problems[r.op.name].append(f"{r.op.name}: traced run wrote no spans")
            continue
        spans = json.loads(path.read_text())["spans"]
        child = [0.0] * len(spans)
        for name, parent, t0, t1, counts in spans:
            if parent is not None:
                child[parent] += t1 - t0
        top = 0.0
        for i, (name, parent, t0, t1, counts) in enumerate(spans):
            if name == "init.import":
                imports.append(t1 - t0)
            else:
                totals[f"{name}.self_s"] += t1 - t0 - child[i]
                totals[f"{name}.calls"] += 1
                for what, v in counts.items():
                    totals[f"{name}.{what}"] += v
            if parent is None:
                top += t1 - t0
            if name in ("empirics.normalize", "dist.sample") and _under(spans, i, "randset.run_convergence"):
                if name == "empirics.normalize":
                    k_sum += counts.get("k", 0)
                else:
                    drawn += counts.get("values", 0)
        totals[f"cmd.{r.op.name}.uncovered_s"] += r.wall - top
        totals["trace.uncovered_s"] += r.wall - top
        npz = path.with_suffix(".npz")
        if npz.exists():
            _, bad = checks.check_hausdorff_calls(npz)
            problems[r.op.name].extend(bad)
    totals["init.import_s"] = statistics.median(imports) if imports else 0.0
    totals["randset.used_per_drawn"] = k_sum / drawn if drawn else 0.0
    return dict(totals)


def _under(spans: list, i: int, ancestor: str) -> bool:
    parent = spans[i][1]
    while parent is not None:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][1]
    return False


def measure(args, work: Path) -> dict:
    facts, setup_s = setup(args.workload, args.seed, work)

    start = perf_counter()
    limit = start + RUN_LIMIT_S
    rounds, pairs = [], []
    # every round writes under the same path, which the manifests record
    rd = work / "round"
    while True:
        t0 = perf_counter()
        rnd = run_round(args.workload, args.seed, facts, rd, limit + 25.0, traced=False)
        shutil.rmtree(rd, ignore_errors=True)
        rounds.append(rnd)
        if args.trace:
            traced = run_round(args.workload, args.seed, facts, rd, limit + 25.0, traced=True, plain=rnd)
            shutil.rmtree(rd, ignore_errors=True)
            pairs.append((rnd, traced))
        now = perf_counter()
        if now - start >= args.seconds or now + (now - t0) > limit:
            break
    return {"setup_s": setup_s, "rounds": rounds, "pairs": pairs}


def report(args, m: dict) -> dict:
    every = m["rounds"] + [t for _, t in m["pairs"]]
    attempted = sum(len(rnd["results"]) for rnd in every)
    failed = sum(1 for rnd in every for probs in rnd["problems"].values() if probs)
    for rnd in every:
        for probs in rnd["problems"].values():
            for p in probs:
                print(f"CHECK FAILED: {p}", file=sys.stderr)

    per_cmd = defaultdict(list)
    for rnd in m["rounds"]:
        for r in rnd["results"]:
            per_cmd[r.op.name].append(r.wall)
    for name in COMMANDS:
        if per_cmd[name]:
            print(f"{args.workload:14s} {name + '_s':22s} {statistics.median(per_cmd[name]):10.4f} s")

    if args.trace:
        layers = defaultdict(list)
        for plain, traced in m["pairs"]:
            values = dict(traced["layers"])
            values["trace.overhead_s"] = traced["wall"] - plain["wall"]
            for r in plain["results"]:
                values[f"cmd.{r.op.name}_s"] = values.get(f"cmd.{r.op.name}_s", 0.0) + r.wall
            for name, _, _ in PER_LAYER:
                layers[name].append(values.get(name, 0.0))
        metrics = {name: {"value": statistics.median(layers[name]), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        rounds = m["rounds"]
        values = {
            "setup_s": m["setup_s"],
            "wall_s": statistics.median(r["wall"] for r in rounds),
            "cpu_s": statistics.median(r["cpu"] for r in rounds),
            "output_bytes": statistics.median(r["bytes"] for r in rounds),
            "peak_rss_mb": max(r["rss"] for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
    for name, metric in metrics.items():
        print(f"{args.workload:14s} {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{args.workload:14s} rounds={len(m['rounds'])} attempted={attempted} failed={failed}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tailscope" / "cli.py").is_file():
        print(f"run.py: no tailscope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        measured = measure(args, work)
    except SetupError as exc:
        print(f"run.py: set-up failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(report(args, measured)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
