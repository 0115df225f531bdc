"""Command-line driver: translate articles, check documents, report statistics.

Exit codes: 0 success, 1 proof or type failure, 2 usage or I/O failure.
This module holds what every command needs, and ``check``; the other
commands live in ``holtrans.cli_translate``, loaded only when one of them runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from pathlib import Path
from typing import NoReturn, Optional

from . import dkfile, kernel  # the rest of the package loads only for translate, stats and selftest

# The translator and the kernel recurse once per level of term nesting; on
# the main thread's stack a term some 20,000 levels deep overflows the C
# stack (a segfault) long before the recursion limit is reached.
RECURSION_LIMIT = 100_000
STACK_BYTES = 512 * 1024 * 1024
STDOUT_CLOSED = "standard output was closed before the run finished"


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


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _reason(e: Exception) -> str:
    """``Type: message`` for a failure, at most ``dkfile.MESSAGE_WIDTH`` characters."""
    return dkfile.clip(f"{type(e).__name__}: {e}")



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
        if args.subcommand == "check":
            return _run_with_deep_stack(cmd_check, args)
        from . import cli_translate  # the other commands' code, compiled only when one of them runs

        if args.subcommand == "translate":
            # imported here: compiled on the worker's deep stack, it would leave more of that stack resident
            from . import opentheory, translate  # noqa: F401
            return _run_with_deep_stack(cli_translate.cmd_translate, args)
        if args.subcommand == "stats":
            return cli_translate.cmd_stats(args)
        return cli_translate.cmd_selftest(args)
    except BrokenPipeError:
        # the reader of standard output is gone; with stdout on os.devnull
        # the flush at exit cannot raise the same error again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        _fail(STDOUT_CLOSED)
        return 2


def run() -> NoReturn:
    """The process entry point of ``python -m holtrans.cli`` and of the
    ``holtrans`` script: ``main()``, then end the process at once.

    Standard output and error are flushed, and then ``os._exit`` skips the
    interpreter's teardown, which frees every object one by one and takes
    longer than checking a small document.  Nothing is lost by skipping it:
    every output file is closed and moved into place, and the worker
    thread joined, before ``main`` returns.  ``atexit`` handlers do not run.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        _fail(STDOUT_CLOSED)
        code = 2
    except OSError as e:
        _fail(f"cannot write standard output: {e}")
        code = 2
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    # The commands that ``main`` loads lazily import this module by name;
    # under ``-m`` it is ``__main__``, and a second copy would compile again.
    sys.modules.setdefault("holtrans.cli", sys.modules[__name__])
    run()
