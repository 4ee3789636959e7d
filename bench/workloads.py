"""Workloads of the polebracket benchmark, shared by the runner and the
reference recorder.

Every workload is a pool of CLI calls.  A pool item is one input (inline
.tgc text, or the seed and count of a `check` battery) with the reference
output digest and the cost of its commands, both recorded by `record.py` at
the seed commit.  A run draws its calls from the pool with its own seed
(`plan`): the seed picks one item from each of a fixed set of groups of
similar size and cost.  Every run therefore gets the same mix of small and
large inputs and about the same total work, while the inputs themselves
differ from seed to seed.  Because every item has a reference digest, every
output of every seed is checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).with_name("reference.json")

# Commands each workload mirrors; statesum alternates its two.
COMMANDS = {
    "statesum": ("invariant", "bracket"),
    "surfaces": ("info",),
    "check": ("check",),
}


def import_program():
    """Import the polebracket CLI from this checkout's `src`, never from an
    installed copy.  Raises ImportError when the checkout has no source."""
    src = ROOT / "src"
    if not (src / "polebracket" / "__init__.py").is_file():
        raise ImportError(f"no polebracket source under {src}")
    sys.path.insert(0, str(src))
    import polebracket.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "polebracket").resolve():
        raise ImportError(f"polebracket imported from {cli.__file__}, not {src}")
    return cli


def argv_for(item: dict, cmd: str, workers: int = 1) -> list[str]:
    if cmd == "check":
        return ["check", "--seed", str(item["seed"]), "--count", str(item["count"])]
    return [cmd, "-i", "-", "--workers", str(workers)]


def call_cli(cli, argv: list[str], stdin_text: str = "") -> tuple[int, str]:
    """One CLI invocation in this process: stdin holds the .tgc text, stdout
    is captured.  Returns (exit code, printed text)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def git_commit() -> str:
    """HEAD of the checkout; "unknown" outside a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def load_pools() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["pools"]


def plan(workload: str, items: list[dict], seed: int, budget_s: float) -> list[tuple[dict, str]]:
    """Seeded calls whose recorded cost adds up to about budget_s.

    The n items of one size (crossing count; `check` batteries are all one
    size) are sorted by recorded cost, of all the workload's commands, and
    cut into about n / g slices of consecutive items, g = total cost /
    budget.  One item is drawn from each slice and the draws are shuffled.  Each draw
    is one call per command, so on statesum `invariant` and `bracket`
    alternate."""
    rng = random.Random(seed)
    g = max(1, round(sum(it["cost_s"] for it in items) / budget_s))
    by_size: dict = {}
    for it in items:
        by_size.setdefault(it.get("crossings"), []).append(it)
    picks = []
    for same_size in by_size.values():
        ranked = sorted(same_size, key=lambda it: (it["cost_s"], it["key"]))
        k = max(1, round(len(ranked) / g))
        cut = [len(ranked) * j // k for j in range(k + 1)]
        picks += [rng.choice(ranked[cut[j] : cut[j + 1]]) for j in range(k)]
    rng.shuffle(picks)
    return [(it, cmd) for it in picks for cmd in COMMANDS[workload]]
