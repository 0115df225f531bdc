#!/usr/bin/env python3
"""Translate the bundled article corpus and print the statistics table.

Usage: python3 scripts/translate_corpus.py [--mode q0|pts] [-o DIR]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from holtrans import cli  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("q0", "pts"), default="q0")
    parser.add_argument("-o", "--outdir", default=str(ROOT / "build" / "dk"))
    args = parser.parse_args()

    articles = sorted(str(p) for p in (ROOT / "corpus").glob("*.art"))
    if not articles:
        print("no corpus articles found", file=sys.stderr)
        return 2
    rc = cli.main(["translate", "--mode", args.mode, "-o", args.outdir, *articles])
    if rc != 0:
        return rc
    outs = sorted(str(p) for p in Path(args.outdir).glob("*.dk"))
    rc = cli.main(["check", *outs])
    if rc != 0:
        return rc
    print()
    return cli.main(["stats", args.outdir])


if __name__ == "__main__":
    sys.exit(main())
