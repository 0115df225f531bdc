"""Command-line driver: translate articles, check documents, report statistics.

Exit codes: 0 success, 1 proof or type failure, 2 usage or I/O failure.  This module
holds what every command needs, and ``check``; the other commands load when they run.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn, Optional

from . import dkfile, kernel  # the rest of the package loads only for the command that needs it

# The translator and the kernel recurse once per level of term nesting: on the main
# thread's stack, a term 20,000 levels deep overflows the C stack (a segfault).
RECURSION_LIMIT = 100_000
STACK_BYTES = 512 * 1024 * 1024
STDOUT_CLOSED = "standard output was closed before the run finished"
STATS_FILE = "stats.json"

# Each command: the inputs it takes ("+": one or more, "*": any, "": none) and its
# options, by spelling: the attribute each sets and how.  ``int``, ``str`` or a tuple
# of the values allowed takes the next word (or what follows ``=``), and a bool is
# stored as it is.  ``--compress`` is still accepted and changes nothing: the
# translation always compresses conversions.
_FUEL_VERBOSE = {"--fuel": ("fuel", int), "-v": ("verbose", True), "--verbose": ("verbose", True)}
COMMANDS = {
    "translate": ("+", {"--mode": ("mode", ("q0", "pts")), "--compress": ("compress", True),
                        "--no-sharing": ("sharing", False), "-o": ("outdir", str), "--outdir": ("outdir", str),
                        **_FUEL_VERBOSE}),
    "check": ("+", _FUEL_VERBOSE),
    "stats": ("*", {"--json": ("as_json", True)}),
    "selftest": ("", {}),
}
DEFAULTS = {"mode": "q0", "compress": False, "sharing": True, "fuel": None, "outdir": ".", "verbose": False,
            "as_json": False}
USAGE = """\
usage: holtrans translate [--mode q0|pts] [--compress] [--no-sharing] [--fuel N] [-o DIR] [-v] FILE...
       holtrans check [--fuel N] [-v] FILE...
       holtrans stats [--json] [PATH...]
       holtrans selftest
"""


class UsageError(Exception):
    """A command line that no command accepts: one error line, exit 2."""


def _value(command: str, flag: str, kind, value: Optional[str]):
    if value is None:
        raise UsageError(f"{command}: {flag} needs a value")
    if kind is int:
        try:
            n = int(value)
        except ValueError:
            raise UsageError(f"{command}: {flag} needs an integer, got {value!r}") from None
        if n < 0:
            raise UsageError(f"{command}: {flag} must not be negative, got {value!r}")
        return n
    if isinstance(kind, tuple) and value not in kind:
        raise UsageError(f"{command}: {flag} must be one of {', '.join(kind)}, got {value!r}")
    return value


def parse_args(argv: list) -> Optional[SimpleNamespace]:
    """The command that ``argv`` names, with its options and inputs, or None
    for ``-h`` or ``--help``.  Options may stand between inputs, and every
    word after ``--`` is an input.  ``fuel`` defaults to ``HOLTRANS_FUEL``;
    a negative budget is refused, from either."""
    if not argv or argv[0] not in COMMANDS:
        if argv and argv[0] in ("-h", "--help"):
            return None
        got = f", got {argv[0]!r}" if argv else ""
        raise UsageError(f"expected a command, one of {', '.join(COMMANDS)}{got}")
    command, words = argv[0], iter(argv[1:])
    arity, options = COMMANDS[command]
    args = SimpleNamespace(subcommand=command, inputs=[], **DEFAULTS)
    for word in words:
        if word in ("-h", "--help"):
            return None
        if word == "--":
            args.inputs.extend(words)
        elif word[:1] != "-" or word == "-":
            args.inputs.append(word)
        else:
            flag, eq, value = word.partition("=") if word[:2] == "--" else (word, "", "")
            if flag not in options:
                raise UsageError(f"{command}: unknown option {flag}")
            dest, kind = options[flag]
            if isinstance(kind, bool):
                if eq:
                    raise UsageError(f"{command}: {flag} takes no value")
                setattr(args, dest, kind)
            else:
                setattr(args, dest, _value(command, flag, kind, value if eq else next(words, None)))
    if arity == "+" and not args.inputs:
        raise UsageError(f"{command}: no input FILE given")
    if arity == "" and args.inputs:
        raise UsageError(f"{command}: unexpected argument {args.inputs[0]!r}")
    fuel = os.environ.get("HOLTRANS_FUEL")
    if "--fuel" in options and args.fuel is None and fuel:
        try:
            args.fuel = int(fuel)
        except ValueError:
            raise UsageError(f"HOLTRANS_FUEL must be an integer, got {fuel!r}") from None
        if args.fuel < 0:
            raise UsageError(f"HOLTRANS_FUEL must not be negative, got {fuel!r}")
    return args


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _reason(e: Exception) -> str:
    """``Type: message`` for a failure, at most ``dkfile.MESSAGE_WIDTH`` characters."""
    return dkfile.clip(f"{type(e).__name__}: {e}")


def _documents_for_check(paths: list) -> list:
    """The files to check, each once, every module after its directory's hol.dk."""
    out: dict[Path, Path] = {}  # resolved path -> the path as given, in order
    for raw in paths:
        p = Path(raw)
        base = p.parent / "hol.dk"
        if p.name != "hol.dk" and base.exists():
            out.setdefault(base.resolve(), base)
        out.setdefault(p.resolve(), p)
    return list(out.values())


def cmd_check(args: SimpleNamespace) -> int:
    """Check each document after its own directory's hol.dk only (there is no
    inter-module linking); each hol.dk is checked once, a copy extended per module.
    A hol.dk must be one of the base signatures that ``translate`` writes, and
    its items are that base's one parse.  A module checked after a hol.dk may
    declare no rewrite rule: ``translate`` writes none there, and the kernel's
    budget bounds its steps, not the memory a rule's steps can build."""
    from .dkreader import ParseError, base_mode, base_signature, parse

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
            mode = base_mode(text) if Path(path).name == "hol.dk" else ""  # "": not a hol.dk
            if mode is None:
                _fail(f"{path}: not the base signature of mode q0 or pts; name a signature of one's own otherwise")
                return 1
            file_items = base_signature(mode).items if mode else dkfile.signature_items(parse(text))
        except UnicodeDecodeError as e:
            _fail(f"{path}: not UTF-8: byte 0x{data[e.start]:02x} at offset {e.start}")
            return 1
        except ParseError as e:
            _fail(f"{path}: {e}")
            return 1
        t1 = time.perf_counter()
        directory = Path(path).parent.resolve()
        fuel = kernel.Fuel(budget)
        base = bases.get(directory)
        rule = next((it for it in file_items if isinstance(it, kernel.RewriteRule)), None)
        if base is not None and rule is not None:
            _fail(f"{path}: rewrite rule {dkfile.fmt_message_term(rule.lhs)}: only hol.dk declares rewrite rules")
            return 1
        sig = kernel.Signature(base.items) if base is not None else kernel.Signature()
        try:
            kernel.check_extension(sig, file_items, fuel)
        except kernel.KernelError as e:
            _fail(f"{path}: {_reason(e)}")
            return 1
        if mode:
            bases[directory] = sig
        if args.verbose:
            spent = f"check {time.perf_counter() - t1:.3f} s, fuel {budget - fuel.left}"
            print(f"{path}: ok ({len(file_items)} items, parse {t1 - t0:.3f} s, {spent})")
    return 0


def _run_with_deep_stack(command, args: SimpleNamespace) -> int:
    """Run ``command(args)`` in one worker thread with a ``STACK_BYTES``
    stack, of which only the pages the recursion touches are resident.  The
    recursion limit is a clean failure, exit 1; any other exception is
    raised again in the calling thread."""
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
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as e:
        _fail(str(e))
        return 2
    try:
        if args is None:
            print(USAGE, end="")
            return 0
        # Each command's modules load here: compiled on the worker's deep
        # stack, they would leave more of that stack resident.
        if args.subcommand == "check":
            from . import dkreader  # noqa: F401
            return _run_with_deep_stack(cmd_check, args)
        if args.subcommand == "translate":
            from . import cli_translate  # and the translator with it
            return _run_with_deep_stack(cli_translate.cmd_translate, args)
        from . import cli_report
        if args.subcommand == "stats":
            return cli_report.cmd_stats(args)
        return cli_report.cmd_selftest(args)
    except BrokenPipeError:
        # the reader of standard output is gone; with stdout on os.devnull
        # the flush at exit cannot raise the same error again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        _fail(STDOUT_CLOSED)
        return 2


def run() -> NoReturn:
    """The entry point of ``python -m holtrans.cli`` and of ``holtrans``:
    ``main()`` without the cyclic collector (no command makes cycles; a
    longer-lived caller of ``main`` keeps it), then flush standard output
    and error and skip the interpreter's teardown with ``os._exit`` (README,
    "What each command costs").  ``atexit`` handlers do not run."""
    gc.disable()
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
    # the lazily loaded commands import this module by name: not a second copy
    sys.modules.setdefault("holtrans.cli", sys.modules[__name__])
    run()
