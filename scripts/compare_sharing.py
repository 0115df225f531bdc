#!/usr/bin/env python3
"""Measure how sharing and conversion compression affect output size.

Translates articles four ways (sharing on/off x compression on/off) and
prints the per-article byte counts, raw and gzip-compressed.

Usage: python3 scripts/compare_sharing.py [ARTICLE.art ...]
(default: every article in corpus/)
"""

import argparse
import gzip
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from holtrans import dkfile, opentheory, translate  # noqa: E402


def sizes(state, name, sharing, compress):
    result = translate.translate_state(
        state, name, sharing=sharing, compress=compress
    )
    text = dkfile.emit(result.document).encode()
    return len(text), len(gzip.compress(text, mtime=0))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("articles", nargs="*", metavar="ARTICLE", type=Path,
                        help="articles to translate (default: corpus/*.art)")
    args = parser.parse_args()

    rows = []
    for path in args.articles or sorted((ROOT / "corpus").glob("*.art")):
        state = opentheory.run_text(path.read_text())
        name = path.stem
        plain = sizes(state, name, sharing=False, compress=False)
        shared = sizes(state, name, sharing=True, compress=False)
        packed = sizes(state, name, sharing=False, compress=True)
        both = sizes(state, name, sharing=True, compress=True)
        rows.append((name, plain, shared, packed, both))

    header = f"{'article':<18} {'plain':>12} {'shared':>12} {'compressed':>12} {'both':>12}"
    print(header)
    print("-" * len(header))
    totals = [0, 0, 0, 0]
    for name, *cells in rows:
        display = " ".join(f"{raw:>6}/{gz:>5}" for raw, gz in cells)
        print(f"{name:<18} {display}")
        for i, (raw, _) in enumerate(cells):
            totals[i] += raw
    print("-" * len(header))
    print(f"{'total (raw bytes)':<18} " + " ".join(f"{t:>12}" for t in totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
