"""Check that two source trees write the same bytes for every benchmark command.

Usage:
    python3 tools/same_bytes.py PARENT_SRC CHANGE_SRC [--seeds 1,2,3]
        [--workloads NAME,...] [--work DIR]

PARENT_SRC and CHANGE_SRC are the directories that hold each tree's
`tailscope` package (a checkout's `src/`, or the checkout itself).  The
commands are those of one round of each workload in `perfbench/workloads.py`,
which is imported as it is.  For each workload and seed the inputs are
written once; then each tree runs every command of the round, one tree after
the other, into the same output root, and that root is moved aside when the
tree is done.  Manifests record the `--input` path, which lies under that
root, so their lines stay comparable.

Every output file, and each command's stdout, stderr and exit code, must
match between the trees.  The script prints one line per workload and seed
and a total, lists each difference, and exits 1 if there is any.  DIR
(default: a temporary directory, removed at the end) holds the inputs and
both trees' outputs.
"""
from __future__ import annotations

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

TIMEOUT_S = 600.0


def package_dir(path: str) -> Path:
    """The directory that holds the `tailscope` package: path or path/src."""
    p = Path(path).resolve()
    for cand in (p, p / "src"):
        if (cand / "tailscope" / "cli.py").is_file():
            return cand
    raise SystemExit(f"same_bytes.py: no tailscope package under {p} or {p / 'src'}")


def run_round(ops: list, src: Path) -> list:
    """Run each command on the tree at src; (name, exit code, stdout, stderr) per command."""
    env = dict(os.environ, PYTHONPATH=str(src))
    results = []
    for op in ops:
        proc = subprocess.run([sys.executable, "-m", "tailscope.cli", *op.args], env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        results.append((op.name, proc.returncode, proc.stdout, proc.stderr))
    return results


def diff_trees(a: Path, b: Path) -> tuple[list, int, int]:
    """Differences between two output roots, the number of files and their bytes in a."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()} if a.exists() else set()
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()} if b.exists() else set()
    problems = [f"only in parent: {p}" for p in sorted(files_a - files_b)]
    problems += [f"only in change: {p}" for p in sorted(files_b - files_a)]
    problems += [f"differs: {p}" for p in sorted(files_a & files_b)
                 if not filecmp.cmp(a / p, b / p, shallow=False)]
    return problems, len(files_a), sum((a / p).stat().st_size for p in files_a)


def compare(workload: str, seed: int, trees: dict, work: Path) -> tuple[list, int, int, int]:
    base = work / workload / f"seed{seed}"
    facts = workloads.make_inputs(workload, seed, base / "inputs")
    rd = base / "round"
    ops = workloads.round_ops(workload, seed, facts, rd)
    runs = {}
    for label, src in trees.items():
        for old in (rd, base / label):
            shutil.rmtree(old, ignore_errors=True)
        runs[label] = run_round(ops, src)
        if rd.exists():
            rd.rename(base / label)
    problems, files, size = diff_trees(base / "parent", base / "change")
    for (name, *got_a), (_, *got_b) in zip(runs["parent"], runs["change"]):
        for what, va, vb in zip(("exit code", "stdout", "stderr"), got_a, got_b):
            if va != vb:
                problems.append(f"{name}: {what} {va!r} != {vb!r}")
    return problems, len(ops), files, size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--work", help="directory for inputs and outputs (kept)")
    args = parser.parse_args(argv)
    trees = {"parent": package_dir(args.parent_src), "change": package_dir(args.change_src)}
    seeds = [int(tok) for tok in args.seeds.split(",")]
    work = Path(args.work).resolve() if args.work else Path(tempfile.mkdtemp(prefix="same_bytes_"))
    total = {"commands": 0, "files": 0, "bytes": 0}
    failures = []
    try:
        for workload in args.workloads.split(","):
            for seed in seeds:
                problems, commands, files, size = compare(workload, seed, trees, work)
                total["commands"] += commands
                total["files"] += files
                total["bytes"] += size
                failures += [f"{workload} seed {seed}: {p}" for p in problems]
                print(f"{workload} seed {seed}: {commands} commands, {files} files, "
                      f"{size} bytes, {len(problems)} differences", flush=True)
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    for line in failures:
        print(line)
    print(f"total: {total['commands']} commands, {total['files']} files, {total['bytes']} bytes, "
          f"{len(failures)} differences")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
