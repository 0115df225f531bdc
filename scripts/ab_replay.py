#!/usr/bin/env python3
"""Compare the article VM of two source trees in one process.

Loads the ``holtrans`` package of PARENT_SRC and of CHANGE_SRC side by side,
then replays the benchmark's pinned variant-0 article of one family with each
tree's ``opentheory.run``, in pairs whose first side alternates.  Prints each
side's median replay time, the parent's interquartile range and in how many
pairs the change was faster.

Usage: python3 scripts/ab_replay.py PARENT_SRC CHANGE_SRC [--family synth|dag] [--pairs N]
(PARENT_SRC and CHANGE_SRC are directories that contain ``holtrans/``.)
"""

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load_parent(src: Path):
    """Import ``src/holtrans`` as the package ``ab_parent``; return its ``opentheory``."""
    init = src / "holtrans" / "__init__.py"
    spec = importlib.util.spec_from_file_location("ab_parent", init, submodule_search_locations=[str(init.parent)])
    sys.modules["ab_parent"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules["ab_parent"])
    return importlib.import_module("ab_parent.opentheory")


def replay_s(ot, commands) -> float:
    """One replay's wall time, with the cyclic collector off while it runs
    (a collection would charge one side for garbage of both)."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        ot.run(commands)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_SRC")
    parser.add_argument("change", type=Path, metavar="CHANGE_SRC")
    parser.add_argument("--family", choices=("synth", "dag"), default="synth")
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for src in (args.parent, args.change):
        if not (src / "holtrans" / "__init__.py").is_file():
            parser.error(f"{src}: no holtrans package")

    sys.dont_write_bytecode = True  # leave nothing behind in either tree or in perfbench/
    sys.setrecursionlimit(100_000)
    sys.path.insert(0, str(args.change.resolve()))  # the change is ``holtrans``, as workloads.py imports it
    from holtrans import opentheory as change

    parent = load_parent(args.parent.resolve())
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    text = workloads.pinned_articles(args.family, 0)[0]["full"]
    sides = {"parent": parent, "change": change}
    commands = {name: ot.parse_article(text) for name, ot in sides.items()}
    times = {"parent": [], "change": []}
    wins = 0
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {name: replay_s(sides[name], commands[name]) for name in order}
        for name, seconds in pair.items():
            times[name].append(seconds)
        wins += pair["change"] < pair["parent"]

    q1, _, q3 = statistics.quantiles(times["parent"], n=4) if args.pairs > 1 else (0, 0, 0)
    print(f"family {args.family}, {len(commands['change'])} commands, {args.pairs} pairs")
    for name, seconds in times.items():
        print(f"{name} median {statistics.median(seconds) * 1e3:.2f} ms")
    print(f"parent IQR {(q3 - q1) * 1e3:.2f} ms")
    print(f"change faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
