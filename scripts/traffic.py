#!/usr/bin/env python3
"""List the statements of ``src/holtrans/*.py`` that no input executes.

Runs ``holtrans translate``, ``check`` and ``stats --json`` in-process
through ``cli.main`` under a line tracer: ``sys.settrace``, and
``threading.settrace`` since the commands run in a worker thread.  Prints
``path:line: source`` for each statement that never ran, then how many
never ran in each file, most first, then the count of all.

Default inputs: variant 0 of each pinned benchmark family under the
benchmark's flag sets (``perfbench/run.py``), and the corpus under the four
golden flag sets (``tests/test_golden_dk.py``).  Article paths given as
arguments replace them, and run under the golden flag sets.

Usage: python3 scripts/traffic.py [ARTICLE.art ...]
"""

import argparse
import ast
import contextlib
import importlib.util
import io
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "holtrans"
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True  # leave nothing behind in perfbench/ or tests/


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"traffic_{path.stem}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # as dataclasses needs
    spec.loader.exec_module(module)
    return module


def statements(path: Path) -> dict:
    """``{first line: lines}`` for each statement of ``path`` that runs
    code, with the lines a trace event for it may carry: a compound
    statement's header (decorators included), a simple statement's span."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            docstrings.add(body[0])
    out = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or node in docstrings or isinstance(node, (ast.Global, ast.Nonlocal))
                or isinstance(node, ast.AnnAssign) and node.value is None):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        out[node.lineno] = range(first, max(first, last) + 1)
    return out


def default_runs(tmp: Path) -> list:
    """``(flags, articles)`` for the benchmark's and the golden runs."""
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    bench = _load(ROOT / "perfbench" / "run.py").WORKLOADS.values()
    arts = {}
    for family in sorted({w.family for w in bench}):
        arts[family] = tmp / f"{family}.art"
        arts[family].write_text(workloads.pinned_articles(family, 0)[0]["full"], encoding="utf-8")
    corpus = sorted((ROOT / "corpus").glob("*.art"))
    return [(w.flags(), [arts[w.family]]) for w in bench] + [(f, corpus) for f in golden_flag_sets()]


def golden_flag_sets() -> list:
    return list(_load(ROOT / "tests" / "test_golden_dk.py").FLAG_SETS.values())


def traced(runs: list, tmp: Path) -> set:
    """The ``(file, line)`` pairs of the package that ``runs`` executed."""
    for name in [m for m in sys.modules if m == "holtrans" or m.startswith("holtrans.")]:
        del sys.modules[name]  # so that module code runs under the tracer too
    prefix = str(PACKAGE) + "/"
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    threading.settrace(calls)
    try:
        from holtrans import cli

        for i, (flags, articles) in enumerate(runs):
            out = tmp / f"run{i}"
            for argv in (["translate", *flags, "-o", str(out), *map(str, articles)], ["check"], ["stats", "--json", str(out)]):
                if argv == ["check"]:  # the files translate wrote
                    argv += sorted(str(p) for p in out.glob("*.dk"))
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                if code:
                    print(f"traffic: {' '.join(argv[:2])}...: exit {code}", file=sys.stderr)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("articles", nargs="*", metavar="ARTICLE", type=Path,
                        help="articles to run (default: the benchmark's and the corpus)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = [(f, args.articles) for f in golden_flag_sets()] if args.articles else default_runs(tmp)
        hits = traced(runs, tmp)
    total = 0
    idle = Counter()  # module name -> statements that never ran
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, span in sorted(statements(path).items()):
            total += 1
            if not any((str(path), n) in hits for n in span):
                idle[path.stem] += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print("never ran, by file: " + ", ".join(f"{name} {n}" for name, n in idle.most_common()))
    print(f"{idle.total()} of {total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
