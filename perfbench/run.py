#!/usr/bin/env python3
"""holtrans benchmark: the translate/check command line end to end, and a
traced run that times each pipeline layer from outside.

Run from the repository root:

    python3 perfbench/run.py --workload synth-q0 --seed 7 --seconds 30 --trace 0

``--trace 0`` times fresh ``holtrans translate`` and ``holtrans check``
processes in a closed loop (one command at a time) for ``--seconds`` seconds,
each relative to the fixed reference process ``reference.py`` run just
before and after it, and runs known-answer controls.  ``--trace 1`` calls the
layers' public functions in the order the command line does, times each
call, and checks that the result is byte-identical to the file the command
line wrote.  The last line of standard output is one JSON object with the
verdict and the metrics; everything else goes to standard error.  Workloads
and metrics are described in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 150
MIN_SIZE = 8  # the command line's default --share-min-size


@dataclasses.dataclass(frozen=True)
class Workload:
    family: str  # article family in workloads.py
    mode: str
    compress: bool
    sharing: bool

    def flags(self) -> list:
        out = ["--mode", self.mode]
        if self.compress:
            out.append("--compress")
        if not self.sharing:
            out.append("--no-sharing")
        return out


WORKLOADS = {
    "synth-q0": Workload("synth", "q0", compress=False, sharing=True),
    "synth-pts": Workload("synth", "pts", compress=True, sharing=False),
    "dag-share": Workload("dag", "q0", compress=False, sharing=True),
}

# the translate-side spans whose sum the command line's wall time is split into
TRANSLATE_SPANS = (
    "opentheory.parse_s",
    "opentheory.run_s",
    "translate.translate_s",
    "translate.share_s",
    "kernel.verify_s",
    "dkfile.emit_s",
)

GROWTH = {
    "opentheory.run_growth": "opentheory.run_s",
    "translate.translate_growth": "translate.translate_s",
    "translate.share_growth": "translate.share_s",
    "kernel.verify_growth": "kernel.verify_s",
}

SETUP_PROBE = (
    "import sys; sys.setrecursionlimit(100_000); "
    "from holtrans import cli, kernel, translate; "
    "kernel.check_signature(translate.base_signature(sys.argv[1]))"
)


class Verdicts:
    """Known-answer checks: each records whether the program got it right."""

    def __init__(self) -> None:
        self.results: list = []

    def expect(self, ok: bool, what: str) -> None:
        self.results.append(ok)
        if not ok:
            print(f"FAILED: {what}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return self.results.count(False)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HOLTRANS_FUEL", None)  # the default budget, as a user gets it
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list, log: Path) -> tuple:
    """Run one process to completion: (exit code, wall seconds, peak RSS MB).

    ``os.wait4`` gives this child's own peak RSS; ``RUSAGE_CHILDREN`` would
    report the largest of every child so far.
    """
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], env=child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if proc.returncode not in (0, 1):
        sys.stderr.write(log.read_text(encoding="utf-8", errors="replace"))
    return proc.returncode, wall, usage.ru_maxrss / 1024


def keep_going(deadline: float, samples: list) -> bool:
    """Whether to take another sample: always a first one, then another while
    one as long as the last would overrun the deadline by at most half."""
    return not samples or time.perf_counter() + samples[-1] / 2 < deadline


def cli(*args) -> list:
    return ["-m", "holtrans.cli", *args]


def swap_statement(dk_text: str) -> str:
    """Give a later theorem the statement of ``thm_0``.

    ``thm_0``'s statement only names items defined before it, so the
    tampered item is well formed and only its body's type is wrong.
    """
    lines = dk_text.split("\n")
    idx = {}
    for i, line in enumerate(lines):
        if line.startswith("def thm_"):
            name, rest = line[4:].split(" : ", 1)
            idx[name] = (i, rest.split(" := ", 1))
    _, (stmt0, _) = idx["thm_0"]
    for name, (i, (stmt, body)) in idx.items():
        if name != "thm_0" and stmt != stmt0:
            lines[i] = f"def {name} : {stmt0} := {body}"
            return "\n".join(lines)
    raise RuntimeError("no theorem with a statement other than thm_0's")


def end_to_end(w: Workload, arts: dict, n_thms: int, work: Path, seconds: int, checks: Verdicts) -> dict:
    art = work / f"{w.family}.art"
    bad_art = work / f"{w.family}_bad.art"
    art.write_text(arts["full"], encoding="utf-8")
    bad_art.write_text(arts["bad"], encoding="utf-8")
    out = work / "out"
    dk = out / f"{w.family}.dk"

    def setup_probe() -> float:
        code, wall, _ = run_child(["-c", SETUP_PROBE, w.mode], work / "setup.log")
        checks.expect(code == 0, "set-up probe exits 0")
        return wall

    setup_probe()  # fills the bytecode cache; not timed

    def reference() -> float:
        code, wall, _ = run_child([str(REFERENCE)], work / "reference.log")
        checks.expect(code == 0, "reference process exits 0")
        return wall

    # Both commands get about half the time: each step runs the one that has
    # used less so far, so a short check is sampled many times.  Every
    # command runs between two reference processes, and its time is divided
    # by theirs.  Set-up probes are spread evenly over the run, so one burst
    # of load on the machine cannot hit them all.
    setup_s, rss = [], []
    walls = {"translate": [], "check": []}
    rel = {"translate": [], "check": []}
    refs = [reference()]
    first_dk = None
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        if len(setup_s) < SETUP_RUNS and time.perf_counter() >= start + len(setup_s) * seconds / SETUP_RUNS:
            setup_s.append(setup_probe())
        step = "translate" if not walls["translate"] or sum(walls["translate"]) <= sum(walls["check"]) else "check"
        if walls["check"] and not keep_going(deadline, [walls[step][-1] + refs[-1]]):
            break
        if step == "translate":
            code, wall, peak = run_child(cli("translate", *w.flags(), "-o", str(out), str(art)), work / "translate.log")
            checks.expect(code == 0, "translate exits 0 on the workload")
            rss.append(peak)
            dk_bytes = dk.read_bytes()
            if first_dk is None:
                first_dk = dk_bytes
            else:
                checks.expect(dk_bytes == first_dk, "repeated translations are byte-identical")
        else:
            code, wall, _ = run_child(cli("check", str(dk)), work / "check.log")
            checks.expect(code == 0, "check exits 0 on the translated workload")
        refs.append(reference())
        walls[step].append(wall)
        rel[step].append(wall / ((refs[-2] + refs[-1]) / 2))
    while len(setup_s) < SETUP_RUNS:
        setup_s.append(setup_probe())
    for step, times in [*walls.items(), ("reference", refs)]:
        print(f"{step}: {len(times)} runs, median {statistics.median(times):.4f} s", file=sys.stderr)

    text = first_dk.decode("utf-8")
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    checks.expect(stats["articles"][0]["theorems"] == n_thms, "stats.json theorem count")
    checks.expect(text.count("\ndef thm_") == n_thms, "one thm_ definition per theorem")

    swapped = out / f"{w.family}_swap.dk"
    swapped.write_text(swap_statement(text), encoding="utf-8")
    code, _, _ = run_child(cli("check", str(swapped)), work / "swap.log")
    checks.expect(code == 1, "check rejects a swapped theorem statement with exit 1")
    code, _, _ = run_child(cli("translate", *w.flags(), "-o", str(work / "bad"), str(bad_art)), work / "bad.log")
    checks.expect(code == 1, "translate rejects an altered exported statement with exit 1")

    return {
        "translate_rel": statistics.median(rel["translate"]),
        "check_rel": statistics.median(rel["check"]),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(rss),
        "dk_gz_bytes": len(gzip.compress(first_dk, mtime=0)),
        "verdict_ok_frac": 1 - checks.failed / len(checks.results),
    }


def _nodes(doc) -> int:
    from holtrans import kernel

    total = 0
    for item in doc.items:
        if isinstance(item, kernel.ConstDecl):
            total += kernel.term_size(item.type)
        elif isinstance(item, kernel.Defn):
            total += kernel.term_size(item.type) + kernel.term_size(item.body)
    return total


def pipeline(w: Workload, article: str, module: str, base_text: str = "") -> tuple:
    """The command line's translate steps, one public call per layer, each
    timed, then its check steps unless ``base_text`` is empty: (spans,
    counters, emitted text, whether parsing the text gives the document)."""
    from holtrans import dkfile, kernel
    from holtrans import opentheory as ot
    from holtrans import translate as tr

    spans = dict.fromkeys(("translate.compress_s", "translate.share_s"), 0.0)
    counts = dict.fromkeys(("translate.share_hoisted", "translate.share_replaced"), 0)

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        spans[name] = time.perf_counter() - t0
        return out

    commands = timed("opentheory.parse_s", ot.parse_article, article)
    counts["opentheory.commands"] = len(commands)
    state = timed("opentheory.run_s", ot.run, commands)

    t0 = time.perf_counter()
    if w.compress:
        proofs = timed(
            "translate.compress_s",
            lambda: tuple((seq, tr.compress_conversions(p)) for seq, p in state.theorems),
        )
        state = dataclasses.replace(state, theorems=proofs)
    doc = tr.translate_state(state, module, mode=w.mode, sharing=False).document
    spans["translate.translate_s"] = time.perf_counter() - t0  # includes compress_s

    counts["translate.nodes_unshared"] = _nodes(doc)
    if w.sharing:
        report = timed("translate.share_s", tr.share_document, doc, tr.base_signature(w.mode), MIN_SIZE)
        doc = report.document
        counts["translate.share_hoisted"] = report.hoisted
        counts["translate.share_replaced"] = report.replaced
    counts["translate.nodes_shared"] = _nodes(doc)

    fuel = kernel.Fuel()
    timed("kernel.verify_s", tr.verify_document, doc, w.mode, fuel)
    counts["kernel.verify_fuel"] = kernel.DEFAULT_FUEL - fuel.left
    if not base_text:
        return spans, counts, None, None

    text = timed("dkfile.emit_s", dkfile.emit, doc)
    counts["dkfile.dk_bytes"] = len(text.encode("utf-8"))

    t0 = time.perf_counter()
    base_doc = dkfile.parse(base_text)
    parsed = dkfile.parse(text)
    spans["dkfile.parse_s"] = time.perf_counter() - t0

    # as `holtrans check`: hol.dk on its own, then the module after it
    base_items = list(dkfile.signature_items(base_doc))
    fuels = [kernel.Fuel(), kernel.Fuel()]
    t0 = time.perf_counter()
    kernel.check_signature(kernel.Signature(base_items), fuels[0])
    kernel.check_signature(kernel.Signature(base_items + list(dkfile.signature_items(parsed))), fuels[1])
    spans["kernel.check_s"] = time.perf_counter() - t0
    counts["kernel.check_fuel"] = sum(kernel.DEFAULT_FUEL - f.left for f in fuels)
    return spans, counts, text, parsed == doc


def traced(w: Workload, arts: dict, n_thms: int, work: Path, seconds: int, checks: Verdicts) -> dict:
    art = work / f"{w.family}.art"
    art.write_text(arts["full"], encoding="utf-8")
    out = work / "out"
    code, cli_wall, _ = run_child(cli("translate", *w.flags(), "-o", str(out), str(art)), work / "translate.log")
    checks.expect(code == 0, "translate exits 0 on the workload")
    cli_text = (out / f"{w.family}.dk").read_text(encoding="utf-8")
    base_text = (out / "hol.dk").read_text(encoding="utf-8")

    full_runs, half_runs, laps = [], [], []
    deadline = time.perf_counter() + seconds
    while keep_going(deadline, laps):
        lap = time.perf_counter()
        spans, counts, text, round_trips = pipeline(w, arts["full"], w.family, base_text)
        checks.expect(text == cli_text, "traced layers emit the command line's .dk byte for byte")
        checks.expect(round_trips, "dkfile.parse(emit(doc)) == doc")
        checks.expect(text.count("\ndef thm_") == n_thms, "one thm_ definition per theorem")
        full_runs.append((spans, counts))
        del text
        half_runs.append(pipeline(w, arts["half"], f"{w.family}_half")[0])
        laps.append(time.perf_counter() - lap)

    def median(runs, key):
        return statistics.median(r[key] for r in runs)

    full_spans = [s for s, _ in full_runs]
    metrics = {key: median(full_spans, key) for key in full_spans[0]}
    metrics.update(full_runs[0][1])  # counts are deterministic
    metrics["cli.unattributed_s"] = cli_wall - sum(metrics[k] for k in TRANSLATE_SPANS)
    for name, span in GROWTH.items():
        half = median(half_runs, span)
        metrics[name] = metrics[span] / half if half else 0.0
    metrics["src.lines"] = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "holtrans").glob("*.py")
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the clean-up below
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "holtrans" / "cli.py").is_file():
        print(f"error: no holtrans sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.setrecursionlimit(100_000)  # as the command line does
    import workloads

    w = WORKLOADS[args.workload]
    arts, n_thms = workloads.pinned_articles(w.family, args.seed)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checks = Verdicts()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        measure, listed = (traced, "per_layer") if args.trace else (end_to_end, "end_to_end")
        values = measure(w, arts, n_thms, work, args.seconds, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    result = {
        "correct": checks.failed == 0,
        "attempted": len(checks.results),
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[listed]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
