"""The benchmark's pinned workloads still generate from this source tree,
and its traced run still builds the module the command line writes.

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


@pytest.mark.parametrize("family", ["synth", "dag"])
def test_sharing_on_emits_what_sharing_the_unshared_module_emits(workloads, family):
    """The traced benchmark run shares the ``--no-sharing`` module with
    ``share_document``, and compares its ``.dk`` with what the command line
    writes, byte for byte: the two must agree on every pinned variant."""
    from holtrans import dkfile
    from holtrans import opentheory as ot
    from holtrans import translate as tr

    for seed in range(workloads.VARIANTS):
        state = ot.run_text(workloads.pinned_articles(family, seed)[0]["full"])
        shared = tr.translate_state(state, "m", sharing=True).document
        plain = tr.translate_state(state, "m", sharing=False).document
        again = tr.share_document(plain, tr.base_signature("q0"), 8).document
        assert dkfile.emit(shared) == dkfile.emit(again), (family, seed)
