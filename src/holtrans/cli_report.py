"""The command line's report commands: ``stats``, which renders the
``stats.json`` that ``translate`` writes, and ``selftest``.

``holtrans.cli`` loads this module only when one of them runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

from .cli import STATS_FILE, _fail


def _load_stats(paths: list) -> list:
    """The article rows of each stats file, each file read once however
    often it is named; raises ``ValueError`` naming a file that cannot be
    read as one, a missing one (a directory without one) included."""
    rows = []
    seen = set()  # resolved paths: a file named twice counts once
    for raw in paths or ["."]:
        p = Path(raw)
        if p.is_dir():
            p = p / STATS_FILE
        key = p.resolve()
        if key in seen:
            continue
        seen.add(key)
        try:
            data = json.loads(p.read_text(encoding="utf-8"))
        except OSError as e:
            raise ValueError(f"{p}: {e.strerror or e}") from None
        except ValueError as e:
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
    ("Defs", "share_defs"),
)


def cmd_stats(args: SimpleNamespace) -> int:
    try:
        rows = _load_stats(args.inputs)
    except ValueError as e:
        _fail(str(e))
        return 2
    if args.as_json:
        print(json.dumps({"articles": rows}))
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
    from . import dkreader, kernel, opentheory, translate

    def base(mode, rules):
        def check():
            # the hol.dk ``translate`` writes is the one ``check`` takes, as these items
            text, sig = dkreader.base_text(mode), translate.base_signature(mode)
            assert dkreader.base_mode(text) == mode and dkreader.signature_items(dkreader.parse(text)) == sig.items
            kernel.check_signature(sig)
            assert len(sig.rules) == rules
        return check

    def example_signature():
        # ``t`` types only because the rule turns ``f c`` into a product
        text = (
            "alpha : Type. c : alpha. f : alpha -> Type. [] f c --> y : alpha -> f y -> f y. "
            "def t : f c -> f c := x : f c => x c x."
        )
        kernel.check_signature(kernel.Signature(dkreader.parse(text).items))

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
        ("base signature (q0)", base("q0", 1)),
        ("base signature (pts)", base("pts", 3)),
        ("rewrite-dependent typing example", example_signature),
        ("pts provability rules", pts_rules),
        ("article pipeline", pipeline),
    ]


def cmd_selftest(args: SimpleNamespace) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
            print(f"selftest {name}: ok")
        except Exception as e:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"selftest {name}: FAILED: {type(e).__name__}: {e}")
    return 1 if failures else 0
