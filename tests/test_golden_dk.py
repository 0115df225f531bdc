"""Golden output: the sha256 of every ``.dk`` file the command line writes.

Inputs are the corpus articles plus variant 0 of the benchmark's ``synth``
and ``dag`` families, translated through ``cli.main`` under four flag sets.
``golden_dk.json`` records the digests.  A change that alters output on
purpose regenerates it, and says why, with

    PYTHONPATH=src python3 tests/test_golden_dk.py --write

which prints each key whose digest changed, appeared or disappeared.
"""

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from holtrans import cli  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden_dk.json"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
FLAG_SETS = {
    "default": [],
    "compress": ["--compress"],
    "pts": ["--mode", "pts"],
    "pts-compress-no-sharing": ["--mode", "pts", "--compress", "--no-sharing"],
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def digests() -> dict:
    """``{"<flag set>/<file>.dk": sha256}`` for every file written."""
    workloads = _workloads()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = sorted(str(p) for p in (ROOT / "corpus").glob("*.art"))
        for family in ("synth", "dag"):
            path = Path(tmp) / f"{family}.art"
            path.write_text(workloads.pinned_articles(family, 0)[0]["full"], encoding="utf-8")
            inputs.append(str(path))
        for label, flags in FLAG_SETS.items():
            outdir = Path(tmp) / label
            assert cli.main(["translate", *flags, "-o", str(outdir), *inputs]) == 0, label
            for dk in sorted(outdir.glob("*.dk")):
                out[f"{label}/{dk.name}"] = hashlib.sha256(dk.read_bytes()).hexdigest()
    return out


def changes(old: dict, new: dict) -> list:
    """One line per key whose digest changed, appeared or disappeared."""
    out = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            out.append(f"disappeared {key}")
        elif key not in old:
            out.append(f"appeared {key}")
        elif old[key] != new[key]:
            out.append(f"changed {key}")
    return out


def test_changes_names_each_key_that_differs():
    old = {"a/x.dk": "1", "a/y.dk": "2", "b/x.dk": "3"}
    new = {"a/x.dk": "1", "a/y.dk": "9", "c/x.dk": "3"}
    assert changes(old, new) == ["changed a/y.dk", "disappeared b/x.dk", "appeared c/x.dk"]
    assert changes(new, new) == []


def test_compress_flag_changes_no_digest():
    """``--compress`` is accepted and does nothing: each ``default`` file
    has the digest of its ``compress`` twin."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    default = {key.split("/", 1)[1]: v for key, v in golden.items() if key.startswith("default/")}
    compress = {key.split("/", 1)[1]: v for key, v in golden.items() if key.startswith("compress/")}
    assert default and default == compress


def test_dk_output_matches_golden_digests():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"output changed: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_dk.py --write")
    sys.setrecursionlimit(cli.RECURSION_LIMIT)
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    new = digests()
    for line in changes(old, new):
        print(line)
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
