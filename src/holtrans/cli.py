"""Command-line driver: translate articles, check documents, report statistics.

Exit codes: 0 success, 1 proof or type failure, 2 usage or I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from pathlib import Path
from typing import Optional

from . import dkfile, kernel  # the rest of the package loads only for translate and selftest

STATS_FILE = "stats.json"
# The translator and the kernel recurse once per level of term nesting; on
# the main thread's stack a term some 20,000 levels deep overflows the C
# stack (a segfault) long before the recursion limit is reached.
RECURSION_LIMIT = 100_000
STACK_BYTES = 512 * 1024 * 1024


def _env_fuel() -> Optional[int]:
    """``HOLTRANS_FUEL`` as an integer, or None when unset or empty.

    Raises ``ValueError`` when it is set to something else.
    """
    raw = os.environ.get("HOLTRANS_FUEL")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"HOLTRANS_FUEL must be an integer, got {raw!r}") from None


def _gz_size(data: bytes) -> int:
    import gzip

    return len(gzip.compress(data, mtime=0))


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _reason(e: Exception) -> str:
    """``Type: message`` for a failure, at most ``dkfile.MESSAGE_WIDTH`` characters."""
    return dkfile.clip(f"{type(e).__name__}: {e}")


def _write_output(path: Path, data: bytes) -> bool:
    """Write ``data`` to a temporary file beside ``path``, then move it into
    place with ``os.replace``, so ``path`` is never left half written and
    the temporary file is gone either way.  A failure is reported as one
    error line and returns False."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as e:
        _fail(f"cannot write {path}: {e}")
        return False
    finally:
        tmp.unlink(missing_ok=True)
    return True


def _stem_clash(inputs: list) -> Optional[str]:
    """The first two inputs whose outputs would share a ``.dk`` name, or None."""
    first: dict = {}
    for raw in inputs:
        stem = Path(raw).stem
        if stem in first:
            return f"{first[stem]} and {raw} would both be written to {stem}.dk; rename one"
        first[stem] = raw
    return None


def cmd_translate(args: argparse.Namespace) -> int:
    import json

    from . import hol, opentheory, translate

    clash = _stem_clash(args.inputs)
    if clash is not None:
        _fail(clash)
        return 2
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        _fail(f"cannot create output directory: {e}")
        return 2
    base_doc = translate.base_document(args.mode)
    if not _write_output(outdir / "hol.dk", dkfile.emit(base_doc).encode("utf-8")):
        return 2

    articles = []
    base_checked = False  # the base signature is checked with the first article only
    for raw_path in args.inputs:
        path = Path(raw_path)
        name = path.stem
        if name == "hol":
            _fail(f"{path}: its output would overwrite the base signature hol.dk; rename the article")
            return 2
        if ";)" in name:
            _fail(f"{path}: the article name may not contain ';)', which would end the .dk module comment")
            return 2
        try:
            data = path.read_bytes()
        except OSError as e:
            _fail(f"{path}: {e}")
            return 2
        t0 = time.perf_counter()
        try:
            state = opentheory.run_text(data)
            result = translate.translate_state(
                state,
                name,
                mode=args.mode,
                compress=args.compress,
                sharing=args.sharing,
                fuel=args.fuel,
            )
        except (opentheory.ArticleError, hol.HolError, translate.TranslateError, kernel.KernelError) as e:
            idx = getattr(e, "command_index", None)
            where = f" (command {idx}, line {e.command_line})" if idx is not None else ""
            _fail(f"{path}{where}: {_reason(e)}")
            return 1
        t1 = time.perf_counter()
        budget = kernel.DEFAULT_FUEL if args.fuel is None else args.fuel
        fuel = kernel.Fuel(budget)
        try:
            translate.verify_document(result.document, mode=args.mode, fuel=fuel, base_checked=base_checked)
        except kernel.KernelError as e:
            _fail(f"{path}: generated document failed self-verification: {_reason(e)}")
            return 1
        base_checked = True
        t2 = time.perf_counter()
        text = dkfile.emit(result.document).encode("utf-8")
        out_path = outdir / f"{name}.dk"
        if not _write_output(out_path, text):
            return 2
        row = {
            "name": name,
            "input": str(path),
            "output": str(out_path),
            "art_bytes": len(data),
            "art_gz": _gz_size(data),
            "dk_bytes": len(text),
            "dk_gz": _gz_size(text),
            "translate_s": round(t1 - t0, 4),
            "verify_s": round(t2 - t1, 4),
            "verify_fuel": budget - fuel.left,
            "theorems": result.theorem_count,
            "share_hits": result.share_hits,
        }
        row["ratio_gz"] = round(row["dk_gz"] / row["art_gz"], 3) if row["art_gz"] else 0.0
        articles.append(row)
        if args.verbose:
            print(f"{path} -> {out_path} ({result.theorem_count} theorem(s))")

    stats = {"mode": args.mode, "compress": args.compress, "sharing": args.sharing, "articles": articles}
    if not _write_output(outdir / STATS_FILE, json.dumps(stats, indent=2).encode("utf-8")):
        return 2
    return 0


def _documents_for_check(paths: list) -> list:
    """Resolve the file list, prepending each directory's base file once;
    duplicate entries are dropped."""
    out = []
    seen = set()

    def add(p: Path) -> None:
        key = p.resolve()
        if key not in seen:
            seen.add(key)
            out.append(p)

    for raw in paths:
        p = Path(raw)
        if p.name != "hol.dk":
            base = p.parent / "hol.dk"
            if base.exists():
                add(base)
        add(p)
    return out


def cmd_check(args: argparse.Namespace) -> int:
    """Check each document on its own (there is no inter-module linking),
    after the base file (hol.dk) of its own directory only.  Each base is
    checked once and extended by a copy per module."""
    bases: dict[Path, kernel.Signature] = {}  # directory -> its checked hol.dk
    budget = kernel.DEFAULT_FUEL if args.fuel is None else args.fuel
    for path in _documents_for_check(args.inputs):
        try:
            data = Path(path).read_bytes()
        except OSError as e:
            _fail(f"{path}: {e}")
            return 2
        t0 = time.perf_counter()
        try:
            text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")  # as read_text does
            doc = dkfile.parse(text)
        except UnicodeDecodeError as e:
            _fail(f"{path}: not UTF-8: byte 0x{data[e.start]:02x} at offset {e.start}")
            return 1
        except dkfile.ParseError as e:
            _fail(f"{path}: {e}")
            return 1
        t1 = time.perf_counter()
        file_items = dkfile.signature_items(doc)
        directory = Path(path).parent.resolve()
        fuel = kernel.Fuel(budget)
        base = bases.get(directory)
        sig = kernel.Signature(base.items) if base is not None else kernel.Signature()
        try:
            kernel.check_extension(sig, file_items, fuel)
        except kernel.KernelError as e:
            _fail(f"{path}: {_reason(e)}")
            return 1
        if Path(path).name == "hol.dk":
            bases[directory] = sig
        if args.verbose:
            spent = f"check {time.perf_counter() - t1:.3f} s, fuel {budget - fuel.left}"
            print(f"{path}: ok ({len(file_items)} items, parse {t1 - t0:.3f} s, {spent})")
    return 0


def _load_stats(paths: list) -> list:
    """The article rows of each stats file; raises ``ValueError`` naming a
    file that cannot be read as one."""
    import json

    rows = []
    for raw in paths or ["."]:
        p = Path(raw)
        if p.is_dir():
            p = p / STATS_FILE
        if not p.exists():
            continue
        try:
            data = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            raise ValueError(f"{p}: {e}") from None
        articles = data.get("articles", []) if isinstance(data, dict) else None
        if not isinstance(articles, list) or not all(
            isinstance(row, dict) and all(isinstance(row.get(key, 0), (int, float)) for _, key in _COLUMNS[1:])
            for row in articles
        ):
            raise ValueError(f"{p}: not a stats file: expected an object whose articles are rows of numbers")
        rows.extend(articles)
    return rows


_COLUMNS = (
    ("Package", "name"),
    ("OT(kB)", "art_gz"),
    ("Dk(kB)", "dk_gz"),
    ("Ratio", "ratio_gz"),
    ("Trans(s)", "translate_s"),
    ("Verify(s)", "verify_s"),
    ("Fuel", "verify_fuel"),
    ("Thms", "theorems"),
    ("Shares", "share_hits"),
)


def cmd_stats(args: argparse.Namespace) -> int:
    import json

    try:
        rows = _load_stats(args.inputs)
    except ValueError as e:
        _fail(str(e))
        return 2
    if args.as_json:
        print(json.dumps({"articles": rows}, indent=2))
        return 0
    for row in rows:
        parts = [f"{key}={row.get(key)}" for _, key in _COLUMNS]
        print(" ".join(parts))
    table = []
    total = {key: 0 for _, key in _COLUMNS[1:]}
    for row in rows:
        cells = [str(row.get("name", "?"))]
        for _, key in _COLUMNS[1:]:
            v = row.get(key, 0)
            total[key] += v
            if key in ("art_gz", "dk_gz"):
                v = round(v / 1024, 2)
            cells.append(str(v))
        table.append(cells)
    total_cells = ["Total"]
    for _, key in _COLUMNS[1:]:
        v = total[key]
        if key in ("art_gz", "dk_gz"):
            v = round(v / 1024, 2)
        elif key == "ratio_gz":
            art = total["art_gz"]
            v = round(total["dk_gz"] / art, 3) if art else 0.0
        elif isinstance(v, float):
            v = round(v, 3)
        total_cells.append(str(v))
    table.append(total_cells)
    headers = [h for h, _ in _COLUMNS]
    widths = [max(len(headers[i]), *(len(r[i]) for r in table)) for i in range(len(headers))]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for cells in table:
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return 0


def _selftest_checks():
    from . import opentheory, translate

    def base_q0():
        kernel.check_signature(translate.base_signature("q0"))
        assert len(translate.base_signature("q0").rules) == 1

    def base_pts():
        kernel.check_signature(translate.base_signature("pts"))
        assert len(translate.base_signature("pts").rules) == 3

    def example_signature():
        alpha, c, f = kernel.Const("alpha"), kernel.Const("c"), kernel.Const("f")
        fy = kernel.App(f, kernel.Var("y"))
        rule = kernel.RewriteRule((), kernel.App(f, c), kernel.pi("y", alpha, kernel.arrow(fy, fy)))
        sig = kernel.Signature(
            [
                kernel.ConstDecl("alpha", kernel.TYPE),
                kernel.ConstDecl("c", alpha),
                kernel.ConstDecl("f", kernel.arrow(alpha, kernel.TYPE)),
                rule,
            ]
        )
        kernel.check_signature(sig)
        term = kernel.lam("x", kernel.App(f, c), kernel.app(kernel.Var("x"), c, kernel.Var("x")))
        ty = kernel.infer_type(sig, {}, term)
        assert ty == kernel.arrow(kernel.App(f, c), kernel.App(f, c))

    def pts_rules():
        sig = translate.base_signature("pts")
        p, q = kernel.Var("p"), kernel.Var("q")
        proof, imp = kernel.Const("proof"), kernel.Const("imp")
        got = kernel.whnf(sig, kernel.App(proof, kernel.app(imp, p, q)))
        assert got == kernel.arrow(kernel.App(proof, p), kernel.App(proof, q))

    def pipeline():
        art = "\n".join(
            [
                "6", "version", '"A"', "varType", "0", "def", "pop",
                '"x"', "0", "ref", "var", "1", "def", "pop",
                "1", "ref", "varTerm", "2", "def", "pop",
                "2", "ref", "refl",
                '"bool"', "typeOp", "nil", "opType", "3", "def", "pop",
                '"->"', "typeOp", "0", "ref", "3", "ref", "nil", "cons", "cons", "opType", "4", "def", "pop",
                '"->"', "typeOp", "0", "ref", "4", "ref", "nil", "cons", "cons", "opType", "5", "def", "pop",
                '"="', "const", "5", "ref", "constTerm", "6", "def", "pop",
                "nil",
                "6", "ref", "2", "ref", "appTerm", "2", "ref", "appTerm",
                "thm",
            ]
        )
        state = opentheory.run_text(art)
        result = translate.translate_state(state, "selftest")
        translate.verify_document(result.document)

    return [
        ("base signature (q0)", base_q0),
        ("base signature (pts)", base_pts),
        ("rewrite-dependent typing example", example_signature),
        ("pts provability rules", pts_rules),
        ("article pipeline", pipeline),
    ]


def cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
            print(f"selftest {name}: ok")
        except Exception as e:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"selftest {name}: FAILED: {type(e).__name__}: {e}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holtrans",
        description="Replay HOL article proofs, translate them, and re-verify the output.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_tr = sub.add_parser("translate", help="translate .art files to .dk documents")
    p_tr.add_argument("inputs", nargs="+", metavar="FILE")
    p_tr.add_argument("--mode", choices=("q0", "pts"), default="q0")
    p_tr.add_argument("--compress", action="store_true", help="compress conversion proofs")
    p_tr.add_argument("--no-sharing", dest="sharing", action="store_false")
    p_tr.add_argument("--fuel", type=int, default=None)
    p_tr.add_argument("-o", "--outdir", default=".")
    p_tr.add_argument("-v", "--verbose", action="count", default=0)

    p_ck = sub.add_parser("check", help="type-check .dk documents")
    p_ck.add_argument("inputs", nargs="+", metavar="FILE")
    p_ck.add_argument("--fuel", type=int, default=None)
    p_ck.add_argument("-v", "--verbose", action="count", default=0)

    p_st = sub.add_parser("stats", help="report translation statistics")
    p_st.add_argument("inputs", nargs="*", metavar="PATH")
    p_st.add_argument("--json", dest="as_json", action="store_true")

    sub.add_parser("selftest", help="run built-in sanity checks")
    return parser


def _run_with_deep_stack(command, args: argparse.Namespace) -> int:
    """Run ``command(args)`` in one worker thread with a ``STACK_BYTES`` stack.

    Only the pages the recursion touches are ever resident.  Hitting the
    recursion limit is a clean failure, exit 1; any other exception is
    raised again in the calling thread.
    """
    outcome: list = []

    def work() -> None:
        try:
            outcome.append(command(args))
        except RecursionError:
            _fail(f"input nested too deeply: more than {RECURSION_LIMIT} levels of recursion")
            outcome.append(1)
        except BaseException as e:  # noqa: BLE001 - handed to the caller
            outcome.append(e)

    previous = threading.stack_size(STACK_BYTES)
    try:
        worker = threading.Thread(target=work, name=f"holtrans-{args.subcommand}")
        worker.start()
    finally:
        threading.stack_size(previous)
    worker.join()
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


def main(argv: Optional[list] = None) -> int:
    sys.setrecursionlimit(RECURSION_LIMIT)
    args = build_parser().parse_args(argv)
    if hasattr(args, "fuel") and args.fuel is None:
        try:
            args.fuel = _env_fuel()
        except ValueError as e:
            _fail(str(e))
            return 2
    try:
        if args.subcommand == "translate":
            # imported here: compiled on the worker's deep stack, it would leave more of that stack resident
            from . import opentheory, translate  # noqa: F401
            return _run_with_deep_stack(cmd_translate, args)
        if args.subcommand == "check":
            return _run_with_deep_stack(cmd_check, args)
        if args.subcommand == "stats":
            return cmd_stats(args)
        return cmd_selftest(args)
    except BrokenPipeError:
        # the reader of standard output is gone; with stdout on os.devnull
        # the flush at exit cannot raise the same error again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        _fail("standard output was closed before the run finished")
        return 2


if __name__ == "__main__":
    sys.exit(main())
