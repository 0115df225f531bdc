#!/usr/bin/env python3
"""Measure how sharing affects output size and verification fuel.

Translates articles without and with sharing and prints the per-article
byte counts, raw and gzip-compressed, then the definitions sharing hoisted,
the kernel's verification fuel without and with sharing, and the trusted
declarations: the module's declared constants whose type ends in
``proof ...`` (article axioms and definition axioms, which the kernel
takes on trust); the last row totals every column.

Usage: python3 scripts/compare_sharing.py [ARTICLE.art ...]
(default: every article in corpus/)
"""

import argparse
import gzip
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from holtrans import dkfile, kernel, opentheory, translate  # noqa: E402


def trusted(doc):
    """The module's declarations whose type ends in ``proof ...``."""
    count = 0
    for item in doc.items:
        if isinstance(item, kernel.ConstDecl):
            ty = item.type
            while isinstance(ty, kernel.Prod):
                ty = ty.body
            count += isinstance(ty, kernel.App) and ty.fn == kernel.Const("proof")
    return count


def measure(state, name, sharing):
    """Raw and gzip bytes of the module, definitions hoisted, verify fuel,
    trusted declarations."""
    result = translate.translate_state(state, name, sharing=sharing)
    text = dkfile.emit(result.document).encode()
    fuel = kernel.Fuel()
    translate.verify_document(result.document, fuel=fuel)
    gz = len(gzip.compress(text, mtime=0))
    return len(text), gz, result.share_defs, kernel.DEFAULT_FUEL - fuel.left, trusted(result.document)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("articles", nargs="*", metavar="ARTICLE", type=Path,
                        help="articles to translate (default: corpus/*.art)")
    args = parser.parse_args()

    rows = []
    for path in args.articles or sorted((ROOT / "corpus").glob("*.art")):
        state = opentheory.run_text(path.read_text())
        name = path.stem
        runs = [measure(state, name, sharing) for sharing in (False, True)]
        rows.append((name, runs))

    header = f"{'article':<18} {'plain':>12} {'shared':>12} {'defs':>5} {'fuel plain/shared':>18} {'trusted':>7}"
    print(header)
    print("-" * len(header))
    totals = [[0, 0] for _ in range(2)]  # raw and gzip bytes per way
    defs_total = fuel_total = shared_fuel_total = trusted_total = 0
    for name, runs in rows:
        defs, fuel = runs[1][2], (runs[0][3], runs[1][3])  # without and with sharing
        trust = runs[0][4]  # counted on the module without sharing
        display = " ".join(f"{raw:>6}/{gz:>5}" for raw, gz, *_ in runs)
        print(f"{name:<18} {display} {defs:>5} {fuel[0]:>9}/{fuel[1]:<8} {trust:>7}")
        for total, (raw, gz, *_) in zip(totals, runs):
            total[0] += raw
            total[1] += gz
        defs_total += defs
        fuel_total += fuel[0]
        shared_fuel_total += fuel[1]
        trusted_total += trust
    print("-" * len(header))
    display = " ".join(f"{raw:>6}/{gz:>5}" for raw, gz in totals)
    print(f"{'total':<18} {display} {defs_total:>5} {fuel_total:>9}/{shared_fuel_total:<8} {trusted_total:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
