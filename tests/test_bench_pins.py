"""The benchmark's pinned workloads still generate from this source tree.

``perfbench/workloads.py`` checks every generated article against its
sha256 in ``perfbench/digests.json`` and refuses to run on a mismatch, so a
change to ``hol`` or ``opentheory.serialize_article`` that alters an
article would otherwise surface only when the benchmark runs.
"""

import pytest


@pytest.mark.parametrize("family", ["synth", "dag"])
def test_pinned_articles_reproduce_their_digests(workloads, family):
    for seed in range(workloads.VARIANTS):
        texts, n = workloads.pinned_articles(family, seed)
        assert set(texts) == {"full", "half", "bad"} and n > 0
