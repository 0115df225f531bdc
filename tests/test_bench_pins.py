"""The benchmark's pinned workloads still generate from this source tree.

``perfbench/workloads.py`` checks every generated article against its
sha256 in ``perfbench/digests.json`` and refuses to run on a mismatch, so a
change to ``hol`` or ``opentheory.serialize_article`` that alters an
article would otherwise surface only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("family", ["synth", "dag"])
def test_pinned_articles_reproduce_their_digests(workloads, family):
    for seed in range(workloads.VARIANTS):
        texts, n = workloads.pinned_articles(family, seed)
        assert set(texts) == {"full", "half", "bad"} and n > 0
