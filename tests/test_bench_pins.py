"""The benchmark's pinned workloads still generate from this source tree,
and its traced run still builds the module the command line writes.

``perfbench/workloads.py`` checks every generated article against its
sha256 in ``perfbench/digests.json`` and refuses to run on a mismatch, so a
change to ``hol`` or ``opentheory.serialize_article`` that alters an
article would otherwise surface only when the benchmark runs.  So would a
change to the ``.dk`` text that its controls read.
"""

import contextlib
import io

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


@pytest.mark.parametrize("workload", ["synth-q0", "synth-pts"])
def test_check_rejects_the_benchmarks_swapped_statement(bench_run, workloads, tmp_path, workload):
    """``perfbench/run.py``'s control gives a later theorem ``thm_0``'s
    statement, by splitting each ``def thm_`` line at its first ``" : "``
    and ``" := "``; ``check`` must then fail with one error line."""
    from holtrans import cli

    flags = bench_run.WORKLOADS[workload].flags()
    for seed in range(workloads.VARIANTS):
        art, out = tmp_path / f"synth{seed}.art", tmp_path / "out"
        art.write_text(workloads.pinned_articles("synth", seed)[0]["full"], encoding="utf-8")
        assert cli.main(["translate", *flags, "-o", str(out), str(art)]) == 0
        swapped = out / "swapped.dk"
        swapped.write_text(bench_run.swap_statement((out / art.with_suffix(".dk").name).read_text("utf-8")), "utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["check", str(swapped)]) == 1, (workload, seed)
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("family", ["synth", "dag"])
@pytest.mark.parametrize("mode,sharing", [("q0", True), ("pts", False)])
def test_reading_the_emitted_module_gives_it_back(workloads, family, mode, sharing):
    """The traced benchmark run compares the module it reads back with the
    one it translated."""
    from holtrans import dkfile, dkreader
    from holtrans import opentheory as ot
    from holtrans import translate as tr

    for seed in range(workloads.VARIANTS):
        state = ot.run_text(workloads.pinned_articles(family, seed)[0]["full"])
        doc = tr.translate_state(state, "m", mode=mode, sharing=sharing).document
        assert dkreader.parse(dkfile.emit(doc)) == doc, (family, seed)


# The benchmark reaches into ``src`` for these names, so each must keep its
# name and behaviour until the next benchmark change (ROADMAP P):
# ``translate.compress_conversions``, ``opentheory.VMState`` as a dataclass
# (``dataclasses.replace``), ``dkfile.parse``, ``share_document``'s
# positional ``min_size``, ``kernel.term_size``, ``hol.check_proof`` and
# ``opentheory.serialize_article``.
@pytest.mark.parametrize("workload", ["synth-q0", "synth-pts", "dag-share"])
def test_traced_run_builds_what_the_command_line_writes(bench_run, workloads, tmp_path, workload):
    """The traced benchmark run, one public call per layer, emits the
    command line's ``.dk`` byte for byte on variant 0, and reading it back
    gives the document it translated."""
    from holtrans import cli

    w = bench_run.WORKLOADS[workload]
    text = workloads.pinned_articles(w.family, 0)[0]["full"]
    art, out = tmp_path / f"{w.family}.art", tmp_path / "out"
    art.write_text(text, encoding="utf-8")
    assert cli.main(["translate", *w.flags(), "-o", str(out), str(art)]) == 0
    base_text = (out / "hol.dk").read_text(encoding="utf-8")
    _, _, emitted, round_trips = bench_run.pipeline(w, text, w.family, base_text)
    assert emitted == (out / f"{w.family}.dk").read_text(encoding="utf-8")
    assert round_trips
