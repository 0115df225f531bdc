"""The command line's ``translate``.

``holtrans.cli`` loads this module only when ``translate`` runs, so no
other command compiles it.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from . import dkfile, dkreader, hol, kernel, opentheory, translate
from .cli import STATS_FILE, _fail, _reason


def _gz_size(data: bytes) -> int:
    """The length of ``gzip.compress(data, mtime=0)``, from ``zlib``'s gzip
    wrapper (``wbits`` 31, level 9), so that ``translate`` does not import
    ``gzip``."""
    import zlib

    return len(zlib.compress(data, 9, 31))


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


def _unwritable(inputs: list) -> Optional[str]:
    """Why the outputs of ``inputs`` cannot be written, or None: an output
    would overwrite the base signature or another input's, or an article
    name would end the module comment.  Checked before anything is written."""
    first: dict = {}
    for raw in inputs:
        path = Path(raw)
        stem = path.stem
        if stem == "hol":
            return f"{path}: its output would overwrite the base signature hol.dk; rename the article"
        if ";)" in stem:
            return f"{path}: the article name may not contain ';)', which would end the .dk module comment"
        if stem in first:
            return f"{first[stem]} and {raw} would both be written to {stem}.dk; rename one"
        first[stem] = raw
    return None


def cmd_translate(args: SimpleNamespace) -> int:
    refusal = _unwritable(args.inputs)
    if refusal is not None:
        _fail(refusal)
        return 2
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        _fail(f"cannot create output directory: {e}")
        return 2
    if not _write_output(outdir / "hol.dk", dkreader.base_text(args.mode).encode("utf-8")):
        return 2

    articles = []
    for raw_path in args.inputs:
        path = Path(raw_path)
        name = path.stem
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
            translate.verify_document(result.document, mode=args.mode, fuel=fuel)
        except kernel.KernelError as e:
            _fail(f"{path}: generated document failed self-verification: {_reason(e)}")
            return 1
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
            "share_defs": result.share_defs,
        }
        row["ratio_gz"] = round(row["dk_gz"] / row["art_gz"], 3) if row["art_gz"] else 0.0
        articles.append(row)
        if args.verbose:
            print(f"{path} -> {out_path} ({result.theorem_count} theorem(s))")

    stats = {"mode": args.mode, "sharing": args.sharing, "articles": articles}
    if not _write_output(outdir / STATS_FILE, json.dumps(stats).encode("utf-8")):
        return 2
    return 0
