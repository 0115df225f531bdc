#!/usr/bin/env python3
"""Compare two source trees on the benchmark's pinned variant-0 article.

By default, loads the ``holtrans`` package of PARENT_SRC and of CHANGE_SRC
side by side in this process, and parses and replays the article of one
family with each tree's ``opentheory.parse_article`` and ``opentheory.run``,
in pairs whose first side alternates.  Prints each side's median time for
the two together, the parent's interquartile range and in how many pairs
the change was faster.

With ``--process translate`` or ``--process check``, runs that command as a
fresh ``python -m holtrans.cli`` process of each tree instead, in pairs whose
first side alternates, so start-up and teardown are part of the time.  Each
process runs between two runs of ``perfbench/reference.py``, and its time is
divided by theirs (as the benchmark's ``*_rel`` metrics are).  Prints each
side's median and quartiles in that unit, its median peak RSS (from
``os.wait4``), the parent's interquartile range and the change's wins.
Every process is started by a small spawner process that the script starts
before it loads anything: a child's peak RSS starts at the high-water of
the process that spawned it, so this script, with the workloads loaded,
would read its own peak for a smaller command's.  The
processes inherit this environment, ``PYTHONDONTWRITEBYTECODE`` included, so
a start-up change is measured once with it and once without.  Each side runs
from a copy of its tree without the tree's bytecode cache (one left by a
test run would make that side warm alone).  One untimed process of each side
runs before the pairs: without ``PYTHONDONTWRITEBYTECODE`` it writes the
copy's cache, so every timed process of either side starts warm.

Usage: python3 scripts/ab_replay.py PARENT_SRC CHANGE_SRC [--family synth|dag] [--pairs N]
                                    [--process translate|check]
(PARENT_SRC and CHANGE_SRC are directories that contain ``holtrans/``.)
"""

import argparse
import gc
import importlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
REFERENCE = ROOT / "perfbench" / "reference.py"


def load_parent(src: Path):
    """Import ``src/holtrans`` as the package ``ab_parent``; return its ``opentheory``."""
    init = src / "holtrans" / "__init__.py"
    spec = importlib.util.spec_from_file_location("ab_parent", init, submodule_search_locations=[str(init.parent)])
    sys.modules["ab_parent"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules["ab_parent"])
    return importlib.import_module("ab_parent.opentheory")


def replay_s(ot, text: str) -> float:
    """The wall time of one parse and replay of ``text``, with the cyclic
    collector off while they run (a collection would charge one side for
    garbage of both)."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        ot.run(ot.parse_article(text))
        return time.perf_counter() - t0
    finally:
        gc.enable()


# Reads one JSON ``[argv, env]`` request per line, runs it to completion and
# answers ``[exit code, wall seconds, peak RSS in MB]``.
SPAWNER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    argv, env = json.loads(line)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    print(json.dumps([proc.returncode, wall, usage.ru_maxrss / 1024]), flush=True)
"""


class Spawner:
    """The process that starts every timed one (see the module docstring)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, "-c", SPAWNER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv: list, src=None) -> tuple:
        """Run ``python argv`` to completion, with ``src`` first on its path:
        (exit code, wall seconds, peak RSS in MB)."""
        env = dict(os.environ)
        if src is not None:
            env["PYTHONPATH"] = str(src)
        self.proc.stdin.write(json.dumps([[sys.executable, *map(str, argv)], env]) + "\n")
        self.proc.stdin.flush()
        return tuple(json.loads(self.proc.stdout.readline()))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def reference_s(spawner: Spawner) -> float:
    code, wall, _ = spawner.run([REFERENCE])
    if code != 0:
        raise RuntimeError(f"{REFERENCE.name} exited {code}")
    return wall


def quartiles(values: list) -> tuple:
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def replay_pairs(args, workloads) -> tuple:
    """In-process parses and replays: (header, times by side, their unit, None)."""
    from holtrans import opentheory as change

    sides = {"parent": load_parent(args.parent.resolve()), "change": change}
    text = workloads.pinned_articles(args.family, 0)[0]["full"]
    n = len(change.parse_article(text))
    times = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            times[name].append(replay_s(sides[name], text) * 1e3)
    return f"family {args.family}, {n} commands parsed and replayed", times, "ms", None


def process_pairs(args, workloads, spawner: Spawner) -> tuple:
    """Fresh command-line processes: (header, times by side in reference
    units, the unit, peak RSS by side)."""
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times = {"parent": [], "change": []}
    rss = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        art = work / f"{args.family}.art"
        art.write_text(workloads.pinned_articles(args.family, 0)[0]["full"], encoding="utf-8")
        argv = {}
        for name, tree in sides.items():
            src = sides[name] = work / name / "src"
            shutil.copytree(tree / "holtrans", src / "holtrans", ignore=shutil.ignore_patterns("__pycache__"))
            out = work / name / "out"
            argv[name] = ["-m", "holtrans.cli", "translate", "-o", out, art]
            if args.process == "check":
                if spawner.run(argv[name], src)[0] != 0:
                    raise RuntimeError(f"{name}: translate of {art.name} failed")
                argv[name] = ["-m", "holtrans.cli", "check", out / f"{args.family}.dk"]
            if spawner.run(argv[name], src)[0] != 0:  # the untimed warm-up
                raise RuntimeError(f"{name}: {args.process} failed")
        ref = reference_s(spawner)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in order:
                code, wall, peak = spawner.run(argv[name], sides[name])
                if code != 0:
                    raise RuntimeError(f"{name}: {args.process} exited {code}")
                before, ref = ref, reference_s(spawner)
                times[name].append(wall / ((before + ref) / 2))
                rss[name].append(peak)
    return f"family {args.family}, {args.process} processes", times, "ref", rss


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_SRC")
    parser.add_argument("change", type=Path, metavar="CHANGE_SRC")
    parser.add_argument("--family", choices=("synth", "dag"), default="synth")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--process", choices=("translate", "check"), help="time fresh command-line processes")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for src in (args.parent, args.change):
        if not (src / "holtrans" / "__init__.py").is_file():
            parser.error(f"{src}: no holtrans package")

    spawner = Spawner() if args.process else None  # before this process grows
    try:
        sys.dont_write_bytecode = True  # leave nothing behind in either tree or in perfbench/
        sys.setrecursionlimit(100_000)
        sys.path.insert(0, str(args.change.resolve()))  # the change is ``holtrans``, as workloads.py imports it
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        if spawner is None:
            header, times, unit, rss = replay_pairs(args, workloads)
        else:
            header, times, unit, rss = process_pairs(args, workloads, spawner)
    finally:
        if spawner is not None:
            spawner.close()

    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    digits = 3 if unit == "ref" else 2
    print(f"{header}, {args.pairs} pairs")
    for name, values in times.items():
        line = f"{name} median {statistics.median(values):.{digits}f} {unit}"
        if rss is not None:
            q1, _, q3 = quartiles(values)
            line += f" (quartiles {q1:.{digits}f} {q3:.{digits}f}), peak RSS {statistics.median(rss[name]):.2f} MB"
        print(line)
    q1, _, q3 = quartiles(times["parent"])
    print(f"parent IQR {q3 - q1:.{digits}f} {unit}")
    print(f"change faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
