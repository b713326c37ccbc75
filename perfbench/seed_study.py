"""Seed studies behind the statistical checks' bands (see README.md).

Usage, from the root of a source checkout:
    python3 perfbench/seed_study.py pareto 100-129        # xi_hat and KS at n = 1e6
    python3 perfbench/seed_study.py converge positive 4   # median test, 200 replications
    python3 perfbench/seed_study.py daily 200 100-111     # AR fit and xi_hat_me

Each study calls the library in one interpreter; none is part of a run.
"""
from __future__ import annotations

import contextlib
import io
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
import tailscope as ts  # noqa: E402
from tailscope import cli  # noqa: E402


def seeds(spec: str) -> range:
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def pareto(spec: str) -> None:
    xs = []
    for s in seeds(spec):
        sample = ts.order_statistics(ts.Pareto(2.0).sample(workloads.LARGE_N, ts.RandomSeed(s)))
        xi = ts.ls_fit(ts.me_plot(sample, *ts.default_trim(sample.n)), "me").xi_hat
        x = sample.values[::-1]
        i = np.arange(1, x.size + 1)
        cdf = -np.expm1(-2.0 * np.log(x))
        d = max(float(np.max(i / x.size - cdf)), float(np.max(cdf - (i - 1) / x.size)))
        xs.append(xi)
        print(f"seed {s}: xi_hat {xi:.4f}, KS sqrt(n) D {d * math.sqrt(x.size):.3f}", flush=True)
    print(f"xi_hat mean {np.mean(xs):.4f} sd {np.std(xs, ddof=1):.4f} range {min(xs):.4f}-{max(xs):.4f}")


def converge(case: str, reps: str) -> None:
    """Bootstrap the chance that the n = 1e6 median misses the n = 1e4 median."""
    model = cli.parse_model(workloads.CONVERGE_CASES[case][0])
    d = ts.run_convergence(model, case, [10**4, 10**6], 200, ts.RandomSeed(999)).distances
    rng = np.random.default_rng(0)
    r = int(reps)
    small = np.median(rng.choice(d[:, 0], (200_000, r)), axis=1)
    large = np.median(rng.choice(d[:, 1], (200_000, r)), axis=1)
    print(f"{case}, {r} replications: P(median at 1e6 >= median at 1e4) = {np.mean(large >= small):.2e}")


def daily(years: str, spec: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "daily.csv", Path(tmp) / "az"
        for s in seeds(spec):
            workloads.write_daily(path, *workloads.daily_series(int(years), s))
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["analyze", "--input", str(path), "--out", str(out), "--format", "csv"])
            ar, summary = checks.read_keyvals(out / "ar.txt"), checks.read_keyvals(out / "summary.txt")
            phi = ar["coefficients"].split(",")[:2]
            print(f"seed {s}: order {ar['order']}, phi {float(phi[0]):.4f} {float(phi[1]):.4f}, "
                  f"xi_hat_me {float(summary['xi_hat_me']):.4f}", flush=True)


if __name__ == "__main__":
    {"pareto": pareto, "converge": converge, "daily": daily}[sys.argv[1]](*sys.argv[2:])
