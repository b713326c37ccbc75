"""Run one tailscope command with spans around the public functions it reaches.

Usage: python3 perfbench/traced_cli.py SPANS.json -- ARGS...

ARGS are the arguments of the `tailscope` command.  The script times
`import tailscope.cli`, wraps the functions named in TARGETS, calls
`cli.main(ARGS)` and exits with its code.  Spans stay in memory and are
written to SPANS.json when the command ends; the point sets passed to
`hausdorff_window` go to SPANS.npz for the benchmark's brute-force check.

Nothing under src/ changes.  A function is wrapped on its defining module
and on every tailscope module that imported it by name, because the program
looks it up there; a method is wrapped on each class of the defining module
that defines it.  A target that no longer exists raises, so a rename fails
the run instead of reading as a zero.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter

T0 = perf_counter()

# (defining module, attribute, span name); "*.m" means method m on every
# class of the module that defines it.  normalize_heavy and normalize_xi1
# are left out: no command reaches them.
TARGETS = [
    ("cli", "main", "cli"),
    ("dist", "*.sample", "dist.sample"),
    ("dist", "*.quantile", "dist.quantile"),
    ("empirics", "order_statistics", "empirics.order_statistics"),
    ("empirics", "me_plot", "empirics.me_plot"),
    ("empirics", "normalize_positive", "empirics.normalize"),
    ("empirics", "normalize_negative", "empirics.normalize"),
    ("empirics", "normalize_zero", "empirics.normalize"),
    ("empirics", "PointSet2D.write_csv", "empirics.PointSet2D.write_csv"),
    ("estimators", "trace", "estimators.trace"),
    ("estimators", "ls_fit", "estimators.ls_fit"),
    ("randset", "run_convergence", "randset.run_convergence"),
    ("randset", "hausdorff_window", "randset.hausdorff_window"),
    ("randset", "ConvergenceReport.write_csv", "randset.ConvergenceReport.write_csv"),
    ("pipeline", "load_csv", "pipeline.load_csv"),
    ("pipeline", "deseasonalize", "pipeline.deseasonalize"),
    ("pipeline", "aic_table", "pipeline.aic_table"),
    ("pipeline", "yule_walker", "pipeline.yule_walker"),
    ("pipeline", "residuals", "pipeline.residuals"),
    ("pipeline", "acf", "pipeline.acf"),
    ("svgplot", "render_plot", "svgplot.render_plot"),
]

# A span is [name, parent index or None, start, end, counts]; times are
# seconds since the interpreter reached this script.
spans: list = []
_stack: list = []
_hausdorff: list = []


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _marks(series) -> int:
    """Finite points: each becomes a circle or a polyline vertex."""
    import numpy as np

    return sum(int(np.isfinite(s.points).all(axis=1).sum()) for s in series if len(s.points))


def _window_points(ps, window):
    return ps.points[window.contains(ps.points)] if len(ps) else ps.points


# Counts recorded on a span, computed after its end so they cost no span time.
COUNTS = {
    "dist.sample": lambda out, a, kw: {"values": int(_arg(a, kw, 1, "n"))},
    "empirics.order_statistics": lambda out, a, kw: {"values": int(out.n)},
    "empirics.me_plot": lambda out, a, kw: {"points": len(out)},
    "empirics.normalize": lambda out, a, kw: {"k": int(_arg(a, kw, 1, "k"))},
    "empirics.PointSet2D.write_csv": lambda out, a, kw: {
        "bytes": os.path.getsize(_arg(a, kw, 1, "path"))
    },
    "estimators.trace": lambda out, a, kw: {"points": int(out.m.size)},
    "randset.hausdorff_window": lambda out, a, kw: _hausdorff_counts(out, a, kw),
    "pipeline.load_csv": lambda out, a, kw: {"rows": int(out.n)},
    "svgplot.render_plot": lambda out, a, kw: {
        "bytes": os.path.getsize(_arg(a, kw, 0, "path")),
        "marks": _marks(_arg(a, kw, 1, "series")),
    },
}


def _hausdorff_counts(out, a, kw) -> dict:
    first, second, window = _arg(a, kw, 0, "a"), _arg(a, kw, 1, "b"), _arg(a, kw, 2, "window")
    _hausdorff.append((first.points, second.points, window.as_tuple(), out))
    inside = len(_window_points(first, window)) + len(_window_points(second, window))
    return {"points": int(inside)}


def _wrap(fn, name):
    counts = COUNTS.get(name)

    def traced(*args, **kwargs):
        rec = [name, _stack[-1] if _stack else None, 0.0, 0.0, {}]
        spans.append(rec)
        _stack.append(len(spans) - 1)
        rec[2] = perf_counter() - T0
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter() - T0
            _stack.pop()
        if counts is not None:
            rec[4] = counts(out, args, kwargs)
        return out

    traced.__wrapped__ = fn
    return traced


def install() -> None:
    """Wrap every target wherever a tailscope module can look it up."""
    modules = [m for n, m in list(sys.modules.items()) if n == "tailscope" or n.startswith("tailscope.")]
    for mod_name, attr, name in TARGETS:
        mod = importlib.import_module(f"tailscope.{mod_name}")
        if attr.startswith("*."):
            meth = attr[2:]
            owners = [c for c in vars(mod).values()
                      if isinstance(c, type) and c.__module__ == mod.__name__ and meth in vars(c)]
            if not owners:
                raise AttributeError(f"no class in {mod.__name__} defines {meth}")
            for cls in owners:
                setattr(cls, meth, _wrap(vars(cls)[meth], name))
        elif "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, _wrap(vars(cls)[meth], name))
        else:
            fn = getattr(mod, attr)
            traced = _wrap(fn, name)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, traced)


def _dump(path: str, exit_code) -> None:
    with open(path, "w") as fh:
        json.dump({"exit_code": exit_code, "spans": spans}, fh)
    if _hausdorff:
        import numpy as np

        arrays = {}
        for i, (a, b, window, result) in enumerate(_hausdorff):
            arrays[f"a{i}"], arrays[f"b{i}"] = a, b
            arrays[f"w{i}"], arrays[f"d{i}"] = np.asarray(window), np.asarray(result)
        np.savez(os.path.splitext(path)[0] + ".npz", **arrays)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[3:]
    code = None
    try:
        start = perf_counter() - T0
        cli = importlib.import_module("tailscope.cli")
        spans.append(["init.import", None, start, perf_counter() - T0, {}])
        install()
        code = cli.main(argv)
    finally:
        _dump(out_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
