"""`tools/same_bytes.py` finds every byte two source trees write differently."""
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_same_bytes_lists_what_a_version_bump_changes(tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    init = copy / "tailscope" / "__init__.py"
    text, bumped = re.subn(r'__version__ = "([^"]*)"', r'__version__ = "\1+copy"',
                           init.read_text())
    assert bumped == 1
    init.write_text(text)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_bytes.py"), str(ROOT / "src"), str(copy),
         "--seeds", "1", "--workloads", "cli-small", "--work", str(tmp_path / "work")],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    head = "cli-small seed 1: "
    found = sorted(ln[len(head):] for ln in proc.stdout.splitlines()
                   if ln.startswith(head) and not ln.endswith(" differences"))
    # the version reaches --version and every manifest with a `tool` line;
    # converge's manifest has none
    assert found[:4] == [f"differs: {cmd}/manifest.txt"
                         for cmd in ("analyze", "estimate", "meplot", "simulate")]
    assert len(found) == 5 and found[4].startswith("startup: stdout ")
    assert proc.stdout.splitlines()[-1].endswith(", 5 differences")
