import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holtrans import artwriter, cli, dkfile, dkreader, hol, kernel
from holtrans import opentheory as ot

from conftest import CORPUS, captured_by_instantiation, mutate, rule_by_rule

IDENTITY = CORPUS / "01_identity.art"


def _python(*args, timeout=None):
    """Run ``python *args`` with this source tree first on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


def test_translate_writes_checking_document(tmp_path):
    rc = cli.main(["translate", str(IDENTITY), "-o", str(tmp_path)])
    assert rc == 0
    out = tmp_path / "01_identity.dk"
    assert out.exists()
    assert (tmp_path / "hol.dk").exists()
    assert cli.main(["check", str(out)]) == 0


@pytest.mark.parametrize("failing", ["hol.dk", "01_identity.dk", "stats.json"])
def test_failed_replace_leaves_no_partial_output(tmp_path, monkeypatch, capsys, failing):
    """Each output is written to a temporary name and moved into place; when
    the move fails, the target is not created and the temporary is removed."""
    replace = os.replace

    def flaky_replace(src, dst):
        if Path(dst).name == failing:
            raise OSError(28, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", flaky_replace)
    rc = cli.main(["translate", str(IDENTITY), "-o", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write") and failing in err[0]
    written = sorted(p.name for p in tmp_path.iterdir())
    assert failing not in written
    assert not [n for n in written if n.endswith(".tmp")]


def test_translate_requires_inputs(capsys):
    assert cli.main(["translate"]) == 2
    assert capsys.readouterr().err == "error: translate: no input FILE given\n"


# A command line that no command accepts: one error line and exit 2, not a
# usage block, whether through ``main`` or as a process.
BAD_COMMAND_LINES = {
    "no-command": [],
    "unknown-command": ["transl"],
    "no-file": ["translate"],
    "bad-mode": ["translate", "--mode", "foo", "a.art"],
    "bad-fuel": ["translate", "--fuel", "x", "a.art"],
    "unknown-flag": ["translate", "--frobnicate", "a.art"],
    "abbreviated-flag": ["translate", "--no-shar", "a.art"],
    "grouped-flags": ["check", "-vv", "a.dk"],
    "o-without-value": ["translate", "a.art", "-o"],
    "check-compress": ["check", "--compress", "a.dk"],
    "flag-with-value": ["translate", "--compress=yes", "a.art"],
    "selftest-argument": ["selftest", "x"],
}


@pytest.mark.parametrize("argv", BAD_COMMAND_LINES.values(), ids=BAD_COMMAND_LINES.keys())
def test_bad_command_line_is_one_error_line(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_bad_command_lines_of_the_process():
    for argv in BAD_COMMAND_LINES.values():
        done = _command(*argv)
        assert (done.returncode, done.stdout) == (2, ""), argv
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["translate", "-h"], ["check", "a.dk", "--help"]])
def test_help_prints_the_usage_and_exits_0(argv, capsys):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: holtrans translate ") and captured.err == ""


@pytest.mark.parametrize(
    "argv, want",
    [
        (["translate", "--fuel=7", "a.art", "-o", "d", "b.art"], {"fuel": 7, "outdir": "d", "inputs": ["a.art", "b.art"]}),
        (["translate", "--outdir=d", "--mode=pts", "a.art"], {"outdir": "d", "mode": "pts"}),
        (["translate", "--no-sharing", "a.art", "--compress"], {"sharing": False, "compress": True, "mode": "q0"}),
        (["check", "-v", "a.dk", "--verbose", "-v"], {"verbose": True, "fuel": None}),
        (["check", "--", "-v", "--fuel"], {"verbose": False, "inputs": ["-v", "--fuel"]}),
        (["check", "-", "--fuel", "-0"], {"inputs": ["-"], "fuel": 0}),  # a value may start with "-"
        (["stats"], {"inputs": [], "as_json": False}),
        (["stats", "--json", "d"], {"inputs": ["d"], "as_json": True}),
    ],
)
def test_argument_grammar(argv, want):
    args = cli.parse_args(argv)
    assert args.subcommand == argv[0]
    assert {key: getattr(args, key) for key in want} == want


def test_translate_corrupted_article_exits_1(tmp_path):
    bad = tmp_path / "bad.art"
    # states |- y = y while proving |- x = x
    bad.write_text(
        "\n".join(
            [
                "6", "version",
                '"A"', "varType", "0", "def", "pop",
                '"x"', "0", "ref", "var", "varTerm", "1", "def", "pop",
                '"y"', "0", "ref", "var", "varTerm", "2", "def", "pop",
                '"bool"', "typeOp", "nil", "opType", "3", "def", "pop",
                '"->"', "typeOp", "0", "ref", "3", "ref", "nil", "cons", "cons", "opType", "4", "def", "pop",
                '"->"', "typeOp", "0", "ref", "4", "ref", "nil", "cons", "cons", "opType", "5", "def", "pop",
                '"="', "const", "5", "ref", "constTerm", "6", "def", "pop",
                "1", "ref", "refl",
                "nil",
                "6", "ref", "2", "ref", "appTerm", "2", "ref", "appTerm",
                "thm",
            ]
        )
        + "\n"
    )
    outdir = tmp_path / "out"
    rc = cli.main(["translate", str(bad), "-o", str(outdir)])
    assert rc == 1
    assert not (outdir / "bad.dk").exists()


def test_batch_stops_at_the_first_failed_article(tmp_path, capsys):
    """``translate good bad good2`` exits 1 at ``bad``: the outputs already
    written (each self-verified) stay, ``good2`` is never translated and
    no ``stats.json`` is written."""
    bad = tmp_path / "bad.art"
    bad.write_text("6\nversion\nrefl\n")
    good2 = CORPUS / "02_refl.art"
    out = tmp_path / "out"
    assert cli.main(["translate", str(IDENTITY), str(bad), str(good2), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad} (command 2, line 3): StackUnderflow: refl: stack underflow\n"
    assert sorted(p.name for p in out.iterdir()) == ["01_identity.dk", "hol.dk"]
    assert cli.main(["check", str(out / "01_identity.dk")]) == 0


def test_translate_missing_input_exits_2(tmp_path):
    rc = cli.main(["translate", str(tmp_path / "missing.art"), "-o", str(tmp_path)])
    assert rc == 2


def test_check_base_document(tmp_path):
    cli.main(["translate", str(IDENTITY), "-o", str(tmp_path)])
    assert cli.main(["check", str(tmp_path / "hol.dk")]) == 0


def test_check_undeclared_constant_exits_1(tmp_path):
    bad = tmp_path / "bad.dk"
    bad.write_text("x : undeclared.\n")
    assert cli.main(["check", str(bad)]) == 1


def test_check_parse_error_exits_1(tmp_path):
    bad = tmp_path / "bad.dk"
    bad.write_text("x :::\n")
    assert cli.main(["check", str(bad)]) == 1


def test_check_non_utf8_document_is_one_error_line(tmp_path, capsys):
    doc = tmp_path / "bad.dk"
    doc.write_bytes(b"c : Type.\nd : \xff.\n")
    assert cli.main(["check", str(doc)]) == 1
    assert capsys.readouterr().err == f"error: {doc}: not UTF-8: byte 0xff at offset 14\n"


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_translate_non_utf8_article_is_one_error_line(tmp_path, capsys, bom):
    data = IDENTITY.read_bytes()
    at = data.index(b'"') + 1  # inside the first string line
    art = tmp_path / "bad.art"
    art.write_bytes(bom + data[:at] + b"\xff" + data[at:])
    assert cli.main(["translate", str(art), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {art}: ArticleError: not UTF-8: byte 0xff at offset {len(bom) + at}\n"


def test_check_verbose_line_reports_items_times_and_fuel(tmp_path, capsys):
    assert cli.main(["translate", str(IDENTITY), "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    paths = [tmp_path / "hol.dk", tmp_path / "01_identity.dk"]
    assert cli.main(["check", "-v", str(paths[1])]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(paths)
    for line, path in zip(lines, paths):
        m = re.fullmatch(r"(.+): ok \((\d+) items, parse \d+\.\d{3} s, check \d+\.\d{3} s, fuel (\d+)\)", line)
        assert m is not None, line
        items = dkfile.signature_items(dkfile.parse(path.read_text()))
        assert (m[1], int(m[2])) == (str(path), len(items))
        assert int(m[3]) > 0


# Run one command in a fresh process; print its exit code, then which of
# ``absent`` it loaded that the process had not loaded before, then the
# package's modules it loaded.
LOAD_PROBE = (
    "import sys; before = set(sys.modules); from holtrans import cli; "
    "rc = cli.main(sys.argv[1:]); "
    "print(rc, *sorted(m for m in {absent} if m in sys.modules and m not in before), '|', "
    "*sorted(m for m in sys.modules if m.startswith('holtrans')))"
)
ARGPARSE = ("argparse", "gettext", "locale")


def _probe(absent: tuple, *argv) -> list:
    done = _python("-c", LOAD_PROBE.format(absent=absent), *map(str, argv))
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_check_loads_only_the_reader_and_the_kernel(tmp_path):
    """Nor does it load ``dataclasses``: the kernel's and the reader's
    records are plain classes.  ``json`` loads only for ``translate`` and
    ``stats``, and no command loads ``gzip`` or ``argparse`` (with
    ``gettext`` and ``locale``)."""
    assert cli.main(["translate", str(IDENTITY), "-o", str(tmp_path)]) == 0
    assert _probe((*ARGPARSE, "dataclasses", "gzip", "json"), "check", tmp_path / "01_identity.dk") == [
        "0", "|", "holtrans", "holtrans.cli", "holtrans.dkfile", "holtrans.dkreader", "holtrans.kernel"
    ]


def test_translate_loads_neither_the_writer_nor_the_reports(tmp_path):
    """``translate`` compiles no code that no translation runs: not the
    article writer, or ``stats`` and ``selftest``.  It loads the ``.dk``
    reader, which reads the base signature's text, and not ``gzip``:
    ``zlib`` alone sizes ``stats.json``'s compressed bytes.  Old names still
    resolve."""
    assert _probe((*ARGPARSE, "gzip"), "translate", "-o", tmp_path, IDENTITY) == [
        "0", "|", "holtrans", "holtrans.cli", "holtrans.cli_translate", "holtrans.dkfile", "holtrans.dkreader",
        "holtrans.hol", "holtrans.kernel", "holtrans.opentheory", "holtrans.translate",
    ]
    assert dkfile.parse is dkreader.parse and dkfile.ParseError is dkreader.ParseError
    assert ot.serialize_article is artwriter.serialize_article
    with pytest.raises(AttributeError):
        dkfile.no_such_name


def test_readme_counts_the_lines_each_command_compiles(tmp_path):
    """The "today" column of README's table of package lines per command is
    the sum of the lines (``wc -l``) of the package modules the command loads."""
    assert cli.main(["translate", str(IDENTITY), "-o", str(tmp_path)]) == 0
    runs = {
        "translate": ("translate", "-o", tmp_path / "again", IDENTITY),
        "check": ("check", tmp_path / "01_identity.dk"),
        "stats": ("stats", tmp_path),
        "selftest": ("selftest",),
    }
    package = Path(cli.__file__).parent
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for command, argv in runs.items():
        # the probe's line comes after what the command prints
        modules = " ".join(_probe((), *argv)).rpartition("|")[2].split()
        lines = sum((package / f"{m.partition('.')[2] or '__init__'}.py").read_bytes().count(b"\n") for m in modules)
        row = re.search(rf"^ *\| `{command}` \|.* \| (\d+) \|$", readme, re.M)
        assert "holtrans.cli" in modules and row is not None and int(row[1]) == lines, (command, lines)


def _translated_corpus(outdir):
    arts = sorted(CORPUS.glob("0*.art"))
    assert cli.main(["translate", *map(str, arts), "-o", str(outdir)]) == 0
    return sorted(outdir.glob("*.dk"))


def test_verbose_check_into_a_closed_pipe_is_one_error_line(tmp_path):
    """``holtrans check -v dir/*.dk | head -1`` ended in a
    ``BrokenPipeError`` traceback, exit 1.  The ``-v`` lines, one per copy
    of a small module, hold more than twice what the pipe buffers, so
    ``check`` blocks on a write until the reader is gone, however fast it
    runs."""
    import fcntl

    assert cli.main(["translate", str(IDENTITY), "-o", str(tmp_path)]) == 0
    module = (tmp_path / "01_identity.dk").read_bytes()
    read_end, write_end = os.pipe()
    capacity = fcntl.fcntl(write_end, getattr(fcntl, "F_GETPIPE_SZ", 1032))
    copies = []
    while sum(len(str(c)) for c in copies) <= 2 * capacity:  # each -v line holds its path
        copies.append(tmp_path / f"{len(copies):05d}_{'m' * 150}.dk")
        copies[-1].write_bytes(module)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": "1"}  # one write per line
    try:
        proc = subprocess.Popen([sys.executable, "-m", "holtrans.cli", "check", "-v", *map(str, copies)],
                                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    with os.fdopen(read_end) as out:  # closed after one line, as head -1 does
        assert out.readline().startswith(f"{tmp_path / 'hol.dk'}: ok (")
    err = proc.stderr.read()
    proc.stderr.close()
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert (proc.wait(timeout=60), err) == (2, "error: standard output was closed before the run finished\n")


def test_verbose_check_into_a_pipe_closed_from_the_start(tmp_path):
    docs = _translated_corpus(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    try:
        done = subprocess.run([sys.executable, "-m", "holtrans.cli", "check", "-v", str(docs[1])],
                              env={**os.environ, "PYTHONPATH": src}, stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "error: standard output was closed before the run finished\n")


# The command line ends through ``cli.run``: it flushes standard output and
# error, then leaves with ``os._exit``.  These run it as a process, with
# standard output block-buffered (no PYTHONUNBUFFERED), so every line is
# still in the buffer when the process ends.
def _command(*args, stdout=subprocess.PIPE):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {key: v for key, v in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    return subprocess.run([sys.executable, "-m", "holtrans.cli", *map(str, args)], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def test_exit_keeps_every_line_of_output_redirected_to_a_file(tmp_path):
    arts = sorted(CORPUS.glob("0*.art"))
    log = tmp_path / "log.txt"
    with open(log, "w") as out:
        done = _command("translate", "-v", "-o", tmp_path / "out", *arts, stdout=out)
    assert (done.returncode, done.stderr) == (0, "")
    lines = log.read_text().splitlines()
    assert [line.split(" -> ")[0] for line in lines] == list(map(str, arts))
    docs = sorted((tmp_path / "out").glob("*.dk"))
    with open(log, "w") as out:
        done = _command("check", "-v", *docs, stdout=out)
    assert (done.returncode, done.stderr) == (0, "")
    lines = log.read_text().splitlines()
    base = tmp_path / "out" / "hol.dk"  # checked first, as the base of the others
    assert [line.split(": ok (")[0] for line in lines] == [str(base), *(str(d) for d in docs if d != base)]


def test_exit_codes_and_error_lines_of_the_process(tmp_path):
    bad_dk = tmp_path / "bad.dk"
    bad_dk.write_text("x : undeclared.\n")
    bad_art = tmp_path / "bad.art"
    bad_art.write_text("\n".join(["6", "version", '"x"', '"bool"', "typeOp", "nil", "opType", "var", "varTerm",
                                  "0", "def", "0", "ref", "appTerm", "refl"]) + "\n")
    missing = tmp_path / "missing.art"
    for args, code, start in [
        (("check", bad_dk), 1, f"error: {bad_dk}: "),
        (("translate", "-o", tmp_path / "out", bad_art), 1, f"error: {bad_art} (command 13, line 14): "),
        (("translate", "-o", tmp_path / "out", missing), 2, f"error: {missing}: "),
    ]:
        done = _command(*args)
        assert (done.returncode, done.stdout) == (code, "")
        assert done.stderr.startswith(start) and done.stderr.count("\n") == 1, done.stderr


def test_pipe_closed_before_the_final_flush_is_one_error_line(tmp_path):
    """``check -v`` writes its one line into the buffer; the pipe's reader
    is gone when the buffer is flushed at exit.  That flush was the
    interpreter's, which printed ``Exception ignored`` and exited 120."""
    docs = _translated_corpus(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _command("check", "-v", docs[1], stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "error: standard output was closed before the run finished\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_at_the_final_flush_is_one_error_line(tmp_path):
    docs = _translated_corpus(tmp_path)
    with open("/dev/full", "w") as full:
        done = _command("check", "-v", docs[1], stdout=full)
    assert done.returncode == 2
    assert done.stderr == "error: cannot write standard output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_console_script_ends_through_the_exit_function():
    import tomllib

    pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["holtrans"]
    assert target == "holtrans.cli:run" and callable(cli.run)


def test_check_long_binder_chain(tmp_path):
    """The token-object parser copied its binder list at every binder and
    scanned it for every name, so this took it seconds."""
    doc = tmp_path / "chain.dk"
    doc.write_text("c : Type.\nd : " + "".join(f"x{i} : c -> " for i in range(20_000)) + "c.\n")
    assert cli.main(["check", str(doc)]) == 0


def test_check_chains_nested_under_applications(tmp_path):
    """``c (x1 : A => c (x2 : A => ... c (xn : A => xn)))``: every binder is
    its own chain, and typing copied the whole context for each one, so
    this took the kernel about 50 seconds."""
    n = 20_000
    body = "".join(f"c (x{i} : A => " for i in range(1, n + 1)) + f"x{n}" + ")" * n
    doc = tmp_path / "nested.dk"
    doc.write_text(f"A : Type.\nc : (A -> A) -> A.\ndef d : A := {body}.\n")
    done = _python("-m", "holtrans.cli", "check", str(doc), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


def test_base_is_checked_once_for_many_modules(tmp_path, monkeypatch):
    """``check`` of n modules types ``hol.dk``'s items once, not once per
    module.  ``translate`` of n articles types them with each article, so
    that every article's ``verify_fuel`` counts the same work."""
    arts = [CORPUS / name for name in ("01_identity.art", "02_refl.art", "07_sym_trans.art")]
    checked = []  # every item handed to the kernel's checker
    inner = kernel.check_extension

    def recording(sig, items, fuel=None):
        checked.extend(items)
        return inner(sig, items, fuel)

    monkeypatch.setattr(kernel, "check_extension", recording)
    assert cli.main(["translate", *map(str, arts), "-o", str(tmp_path)]) == 0
    base = dkfile.signature_items(dkfile.parse((tmp_path / "hol.dk").read_text()))
    assert [checked.count(it) for it in base] == [len(arts)] * len(base)
    checked.clear()
    assert cli.main(["check", *(str(tmp_path / f"{a.stem}.dk") for a in arts)]) == 0
    assert [checked.count(it) for it in base] == [1] * len(base)
    modules = [dkfile.signature_items(dkfile.parse((tmp_path / f"{a.stem}.dk").read_text())) for a in arts]
    assert len(checked) == len(base) + sum(map(len, modules))


def test_rule_errors_name_their_rule(tmp_path, capsys):
    doc = tmp_path / "rules.dk"
    doc.write_text("A : Type.\nf : A -> A.\ng : A -> A.\n[x : A] f x --> x.\n[x : A, y : A] g x --> y.\n")
    assert cli.main(["check", str(doc)]) == 1
    assert capsys.readouterr().err == (
        f"error: {doc}: UnboundRhsVariable: rule g x: rhs variables not bound on the lhs: y\n"
    )


def test_module_rules_are_refused_after_the_base(tmp_path, capsys):
    """A module checked after its directory's hol.dk declares no rewrite
    rule: the refusal names the file and the rule's left-hand side before
    the kernel sees any item.  This rule makes every proof reduce without
    end, and its steps build memory faster than the budget runs out (at the
    default budget the process was killed), so the budget here is small
    enough that checking it would end in ``FuelExhausted`` instead."""
    assert cli.main(["translate", str(IDENTITY), "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    doc = tmp_path / "rule.dk"
    doc.write_text(
        "[p : term bool] proof p --> proof (eq bool p p).\n"
        "def thm_0 : p : term bool -> proof p := p : term bool => Refl bool p.\n"
    )
    assert cli.main(["check", "--fuel", "100000", str(doc)]) == 1
    assert capsys.readouterr().err == (
        f"error: {doc}: rewrite rule proof p: only hol.dk declares rewrite rules\n"
    )


BASE_REFUSED = "not the base signature of mode q0 or pts; name a signature of one's own otherwise"


@pytest.mark.parametrize("extra,module", [
    ("cheat : p : term bool -> proof p.\n", "def thm_0 : p : term bool -> proof p := cheat.\n"),
    ("(; one comment more ;)\n", None),
])
def test_check_refuses_a_hol_dk_that_is_no_base(tmp_path, capsys, extra, module):
    """``check`` takes a ``hol.dk`` only when it is one of the two base
    signatures ``translate`` writes: an axiom appended to it proved any
    module's theorem, exit 0.  The refusal comes before any module beside
    it is checked, so ``-v`` prints nothing."""
    assert cli.main(["translate", str(IDENTITY), "-o", str(tmp_path)]) == 0
    base = tmp_path / "hol.dk"
    base.write_text(base.read_text() + extra)
    doc = tmp_path / "01_identity.dk"
    if module is not None:
        doc = tmp_path / "cheat.dk"
        doc.write_text(module)
    capsys.readouterr()
    assert cli.main(["check", "-v", str(doc)]) == 1
    assert capsys.readouterr() == ("", f"error: {base}: {BASE_REFUSED}\n")


@pytest.mark.parametrize("mode,items,fuel", [("q0", 16, 28), ("pts", 22, 83)])
def test_check_takes_a_crlf_copy_of_either_base(tmp_path, capsys, mode, items, fuel):
    """Line ends are read as ``\n`` before the base is recognised, and the
    base is checked under its own budget as before the pin."""
    assert cli.main(["translate", "--mode", mode, str(IDENTITY), "-o", str(tmp_path)]) == 0
    base = tmp_path / "hol.dk"
    base.write_bytes(base.read_bytes().replace(b"\n", b"\r\n"))
    capsys.readouterr()
    assert cli.main(["check", "-v", str(tmp_path / "01_identity.dk")]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(rf"{re.escape(str(base))}: ok \({items} items, parse \S+ s, check \S+ s, fuel {fuel}\)", first)


def test_a_signature_of_ones_own_keeps_its_rules(tmp_path):
    """A file checked with no ``hol.dk`` beside it is checked on its own,
    its rules included: ``t`` types only because the rule turns ``f c``
    into a product, and a tampered base under another name passes."""
    own = tmp_path / "own.dk"
    own.write_text(
        "alpha : Type.\nc : alpha.\nf : alpha -> Type.\n[] f c --> y : alpha -> f y -> f y.\n"
        "def t : f c -> f c := x : f c => x c x.\n"
    )
    assert cli.main(["check", str(own)]) == 0
    tampered = tmp_path / "tampered.dk"
    tampered.write_text(dkreader.base_text("q0") + "cheat : p : term bool -> proof p.\n")
    assert cli.main(["check", str(tampered)]) == 0


@pytest.mark.parametrize("mode", ["q0", "pts"])
def test_every_stats_row_counts_the_same_work(tmp_path, mode):
    """Each article of a batch is self-verified with the base, so its
    ``verify_fuel`` is what a run of that article alone writes; the second
    row left out the base's steps when only the first article checked it."""
    arts = [IDENTITY, CORPUS / "02_refl.art"]

    def fuels(out, *inputs):
        assert cli.main(["translate", "--mode", mode, *map(str, inputs), "-o", str(out)]) == 0
        return [row["verify_fuel"] for row in json.loads((out / "stats.json").read_text())["articles"]]

    assert fuels(tmp_path / "batch", *arts) == [fuels(tmp_path / a.stem, a)[0] for a in arts]


def test_check_modules_against_their_own_base(tmp_path, capsys):
    """A q0 and a pts output checked in one command: each module is checked
    after its own directory's hol.dk, not after every hol.dk named."""
    for mode in ("q0", "pts"):
        assert cli.main(["translate", "--mode", mode, str(IDENTITY), "-o", str(tmp_path / mode)]) == 0
    files = [str(tmp_path / mode / "01_identity.dk") for mode in ("q0", "pts")]
    assert cli.main(["check", *files]) == 0
    assert capsys.readouterr().err == ""


def test_type_instantiation_that_would_capture_translates_and_checks(tmp_path):
    proof = captured_by_instantiation()
    art = tmp_path / "capture.art"
    art.write_text(ot.serialize_article(ot.VMState(theorems=[(proof.sequent, proof)])))
    out = tmp_path / "out"
    assert cli.main(["translate", str(art), "-o", str(out)]) == 0
    assert cli.main(["check", str(out / "capture.dk")]) == 0


@pytest.mark.parametrize("body,rc,err", [
    ("c : Type.", 0, ""),
    ("c : Type", 1, "line 100001, column 1: expected '.'"),  # the error is found at the end
])
def test_check_trailing_whitespace_is_linear(tmp_path, body, rc, err):
    """A scan that tried a leading ``\\s*`` at every position took time
    quadratic in a run of whitespace it could not end in a token: minutes
    here, so the timeout fails it."""
    doc = tmp_path / "trailing.dk"
    doc.write_text(body + " \n" * 100_000)
    done = _python("-m", "holtrans.cli", "check", str(doc), timeout=60)
    assert done.returncode == rc
    assert done.stderr == (f"error: {doc}: {err}\n" if err else "")


@pytest.mark.parametrize("newline", ["\r", "\r\n"])
def test_check_reads_any_line_end(tmp_path, capsys, newline):
    doc = tmp_path / "lines.dk"
    doc.write_bytes(newline.join(["c : Type.", "(; a", "comment ;)", "d : $."]).encode())
    assert cli.main(["check", str(doc)]) == 1
    assert capsys.readouterr().err == f"error: {doc}: line 4, column 5: expected a token\n"


@pytest.mark.parametrize("text,err", [
    ("Type : Type.\n", "line 1, column 1: expected an item"),
    ("a : Type.\ndef def : Type := a.\n", "line 2, column 5: expected a definition name"),
    ("c : Type.\nd : def : c -> c.\n", "line 2, column 5: expected a bound name"),
    ("c : Type.\ndef d : c -> c := def => def.\n", "line 2, column 19: expected a bound name"),
])
def test_check_refuses_a_reserved_word_as_a_name(tmp_path, capsys, text, err):
    doc = tmp_path / "reserved.dk"
    doc.write_text(text)
    assert cli.main(["check", str(doc)]) == 1
    assert capsys.readouterr().err == f"error: {doc}: {err}\n"


@pytest.fixture(scope="module")
def translated_conversion(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    assert cli.main(["translate", str(CORPUS / "13_conversion.art"), "-o", str(out)]) == 0
    return out


@pytest.mark.parametrize("item,err", [
    # the binder takes its domain from the type's product, so the body is A -> A
    ("def d : A -> B := x => x.", "IllTypedDeclaration: definition d: body type A -> A does not match declared A -> B"),
    ("def d : A := x => x.", "line 4, column 16: expected ':' (the declared type has no product here)"),
    ("def d : A -> A := x => y => x.", "line 4, column 26: expected ':' (the declared type has no product here)"),
    ("def d : A -> A := f (x => x).", "line 4, column 24: expected ')'"),
    ("d : x => x.", "line 4, column 7: expected '.'"),
    ("[x : A] f x => x --> x.", "line 4, column 13: expected '-->'"),
])
def test_check_untyped_binder_only_leads_a_definition_body(tmp_path, capsys, item, err):
    """``x =>`` leads a definition's body, one per product of its declared
    type; anywhere else it is a parse error."""
    doc = tmp_path / "untyped.dk"
    doc.write_text(f"A : Type.\nB : Type.\nf : A -> A.\n{item}\n")
    assert cli.main(["check", str(doc)]) == 1
    assert capsys.readouterr().err == f"error: {doc}: {err}\n"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3))
def test_check_of_a_mutated_document_is_an_exit_code_and_one_line(translated_conversion, seed, mutations):
    """A byte-level mutant of a translated document ends in exit 0, 1 or 2
    and, on failure, exactly one ``error:`` line: never a traceback."""
    rng = random.Random(seed)
    data = (translated_conversion / "13_conversion.dk").read_bytes()
    for _ in range(mutations):
        data = mutate(data, rng, [b"(", b")", b":", b"->", b"=>", b"\xff"])
    doc = translated_conversion / "mutated.dk"
    doc.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["check", "--fuel", "100000", str(doc)])
    assert rc in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


def _mutate_lines(lines, rng):
    """``lines`` with one line deleted, duplicated, swapped with the next,
    or replaced by another line of the same article."""
    i = rng.randrange(len(lines))
    roll = rng.randrange(4)
    if roll == 0:
        return lines[:i] + lines[i + 1:]
    if roll == 1:
        return lines[: i + 1] + lines[i:]
    if roll == 2 and i + 1 < len(lines):
        return lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]
    return lines[:i] + [rng.choice(lines)] + lines[i + 1:]


# what an error line holds after the article's path
_TRANSLATE_FAILURE = re.compile(
    r"(?: \(command \d+, line \d+\))?: (?:generated document failed self-verification: )?(?P<reason>.*)"
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-translate")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3))
def test_translate_of_a_mutated_article_is_an_exit_code_and_one_line(fuzz_dir, corpus_paths, seed, mutations):
    """A line-level mutant of a corpus article ends in exit 0, 1 or 2; on
    failure in exactly one ``error:`` line whose reason fits the message
    width, and on success in a document that ``check`` accepts."""
    rng = random.Random(seed)
    lines = rng.choice(corpus_paths).read_text().splitlines()
    for _ in range(mutations):
        lines = _mutate_lines(lines, rng)
    art = fuzz_dir / "mutated.art"
    art.write_text("\n".join(lines) + "\n")
    out = fuzz_dir / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["translate", "--fuel", "100000", str(art), "-o", str(out)])
        checked = cli.main(["check", "--fuel", "100000", str(out / "mutated.dk")]) if rc == 0 else None
    assert rc in (0, 1, 2)
    errors = err.getvalue().splitlines()
    if rc == 0:
        assert errors == [] and checked == 0, errors
        return
    assert len(errors) == 1 and errors[0].startswith(f"error: {art}"), errors
    reason = _TRANSLATE_FAILURE.fullmatch(errors[0][len(f"error: {art}"):])
    assert reason and len(reason["reason"]) <= dkfile.MESSAGE_WIDTH, errors


def test_full_corpus_translate_and_check(tmp_path, corpus_paths):
    rc = cli.main(["translate", *map(str, corpus_paths), "-o", str(tmp_path)])
    assert rc == 0
    outs = sorted(tmp_path.glob("*.dk"))
    assert len(outs) == len(corpus_paths) + 1  # plus hol.dk
    assert cli.main(["check", *map(str, outs)]) == 0


def test_sharing_changes_bytes_not_checkability(tmp_path, corpus_paths):
    on = tmp_path / "on"
    off = tmp_path / "off"
    assert cli.main(["translate", *map(str, corpus_paths), "-o", str(on)]) == 0
    assert cli.main(["translate", "--no-sharing", *map(str, corpus_paths), "-o", str(off)]) == 0
    on_rows = json.loads((on / "stats.json").read_text())["articles"]
    off_rows = json.loads((off / "stats.json").read_text())["articles"]
    assert any(a["dk_bytes"] != b["dk_bytes"] for a, b in zip(on_rows, off_rows))
    assert cli.main(["check", *map(str, sorted(on.glob("*.dk")))]) == 0
    assert cli.main(["check", *map(str, sorted(off.glob("*.dk")))]) == 0


def test_pts_mode_pipeline(tmp_path):
    rc = cli.main(["translate", "--mode", "pts", str(IDENTITY), "-o", str(tmp_path)])
    assert rc == 0
    assert cli.main(["check", str(tmp_path / "01_identity.dk")]) == 0


def test_compress_flag_pipeline(tmp_path, corpus_paths, monkeypatch):
    """``--compress`` is accepted and changes nothing: the translation
    always collapses conversion towers, and its output is smaller than
    the towers translated rule by rule."""
    conversion = next(p for p in corpus_paths if p.name == "13_conversion.art")
    plain = tmp_path / "plain"
    packed = tmp_path / "packed"
    towers = tmp_path / "towers"
    assert cli.main(["translate", "--no-sharing", str(conversion), "-o", str(plain)]) == 0
    assert cli.main(["translate", "--no-sharing", "--compress", str(conversion), "-o", str(packed)]) == 0
    with rule_by_rule(monkeypatch):
        assert cli.main(["translate", "--no-sharing", str(conversion), "-o", str(towers)]) == 0
    a = (plain / "13_conversion.dk").read_bytes()
    b = (packed / "13_conversion.dk").read_bytes()
    assert a == b
    assert len(b) < len((towers / "13_conversion.dk").read_bytes())
    # the stats file records the flags that change output, and not this one
    stats = json.loads((packed / "stats.json").read_text())
    assert sorted(stats) == ["articles", "mode", "sharing"] and not stats["sharing"]
    assert cli.main(["check", str(packed / "13_conversion.dk")]) == 0


def test_stats_table(tmp_path, capsys):
    cli.main(["translate", str(IDENTITY), "-o", str(tmp_path)])
    capsys.readouterr()
    assert cli.main(["stats", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert any(line.startswith("name=01_identity") for line in lines)
    header = next(line for line in lines if line.startswith("Package"))
    for col in ("OT(kB)", "Dk(kB)", "Ratio", "Trans(s)", "Verify(s)", "Fuel", "Thms", "Shares", "Defs"):
        assert col in header
    assert header.split()[-2:] == ["Shares", "Defs"]
    assert lines[-1].startswith("Total")
    typeop = CORPUS / "10_definetypeop.art"
    cli.main(["translate", str(typeop), "-o", str(tmp_path)])
    capsys.readouterr()
    assert cli.main(["stats", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "share_hits=4 share_defs=2" in lines[0]
    assert lines[-2].split()[-2:] == lines[-1].split()[-2:] == ["4", "2"]


def test_stats_reads_a_file_named_twice_once(tmp_path, capsys):
    typeop = CORPUS / "10_definetypeop.art"
    assert cli.main(["translate", str(IDENTITY), str(typeop), "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    assert cli.main(["stats", str(tmp_path)]) == 0
    want = capsys.readouterr().out
    for twice in ([tmp_path, tmp_path], [tmp_path, tmp_path / "stats.json"], [tmp_path / ".." / tmp_path.name, tmp_path]):
        assert cli.main(["stats", *map(str, twice)]) == 0
        assert capsys.readouterr().out == want
    assert cli.main(["stats", "--json", str(tmp_path), str(tmp_path / "stats.json")]) == 0
    assert len(json.loads(capsys.readouterr().out)["articles"]) == 2


def test_stats_empty_run(tmp_path, capsys):
    (tmp_path / "stats.json").write_text('{"articles": []}')
    assert cli.main(["stats", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1].startswith("Total")


@pytest.mark.parametrize("where", ["no_such_dir", "empty_dir", "no_such_file.json"])
def test_stats_on_a_missing_file_is_one_error_line(tmp_path, capsys, monkeypatch, where):
    """A mistyped path, or a directory ``translate`` never wrote to, is no
    empty run."""
    (tmp_path / "empty_dir").mkdir()
    missing = tmp_path / where / "stats.json" if where == "empty_dir" else tmp_path / where
    assert cli.main(["stats", str(tmp_path / where)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {missing}: No such file or directory\n"
    monkeypatch.chdir(tmp_path / "empty_dir")
    assert cli.main(["stats"]) == 2
    assert capsys.readouterr().err == "error: stats.json: No such file or directory\n"


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"articles": [', "Expecting value"),
        ("[1, 2]", "not a stats file"),
        ('{"articles": [{"name": "a", "art_gz": "x"}]}', "not a stats file"),
    ],
    ids=["truncated", "list", "string-cell"],
)
def test_stats_on_a_malformed_file_is_one_error_line(tmp_path, capsys, text, reason):
    stats = tmp_path / "stats.json"
    stats.write_text(text)
    assert cli.main(["stats", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stats}: {reason}") and err.count("\n") == 1


def test_stats_json(tmp_path, capsys):
    cli.main(["translate", str(IDENTITY), "-o", str(tmp_path)])
    capsys.readouterr()
    assert cli.main(["stats", "--json", str(tmp_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    row = data["articles"][0]
    assert row["name"] == "01_identity"
    assert "ratio_gz" in row
    # the identity theorem's statement needs the term-arrow rule: fuel is spent
    assert isinstance(row["verify_fuel"], int) and row["verify_fuel"] > 0
    assert (row["share_hits"], row["share_defs"]) == (0, 0)
    # each type definition's two statements are hoisted and used twice
    typeop = CORPUS / "10_definetypeop.art"
    assert cli.main(["translate", str(typeop), "-o", str(tmp_path)]) == 0
    assert cli.main(["stats", "--json", str(tmp_path)]) == 0
    row = json.loads(capsys.readouterr().out)["articles"][0]
    assert (row["name"], row["share_hits"], row["share_defs"]) == ("10_definetypeop", 4, 2)


def test_selftest(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_fuel_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("HOLTRANS_FUEL", "250000")
    rc = cli.main(["translate", str(IDENTITY), "-o", str(tmp_path)])
    assert rc == 0


def test_fuel_zero_is_a_budget_not_the_default(tmp_path, monkeypatch, capsys):
    # sharing in this article hoists a term whose type inference takes a
    # rewrite step, so the failure comes from the sharing pass: --fuel
    # reaches it, and 0 is not read as "unset"
    monkeypatch.setenv("HOLTRANS_FUEL", "250000")
    defineconst = CORPUS / "09_defineconst.art"
    assert cli.main(["translate", "--fuel", "0", str(defineconst), "-o", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "FuelExhausted" in err
    assert len(err.strip().splitlines()) == 1


def test_fuel_zero_fails_verification_and_check(tmp_path, capsys):
    assert cli.main(["translate", "--fuel", "0", "--no-sharing", str(IDENTITY), "-o", str(tmp_path)]) == 1
    assert "budget exceeded" in capsys.readouterr().err
    assert cli.main(["translate", str(IDENTITY), "-o", str(tmp_path)]) == 0
    out = tmp_path / "01_identity.dk"
    assert cli.main(["check", "--fuel", "0", str(out)]) == 1
    assert "FuelExhausted" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["translate", "check"])
def test_fuel_env_not_an_integer_exits_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("HOLTRANS_FUEL", "lots")
    args = [str(IDENTITY), "-o", str(tmp_path)] if command == "translate" else [str(IDENTITY)]
    assert cli.main([command, *args]) == 2
    err = capsys.readouterr().err
    assert err == "error: HOLTRANS_FUEL must be an integer, got 'lots'\n"
    # an explicit --fuel makes the variable irrelevant
    assert cli.main(["translate", "--fuel", "250000", str(IDENTITY), "-o", str(tmp_path)]) == 0


@pytest.mark.parametrize("command", ["translate", "check"])
def test_negative_fuel_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    assert cli.main(["translate", str(IDENTITY), "-o", str(tmp_path)]) == 0
    args = [str(IDENTITY), "-o", str(tmp_path)] if command == "translate" else [str(tmp_path / "01_identity.dk")]
    assert cli.main([command, "--fuel", "-1", *args]) == 2
    assert capsys.readouterr().err == f"error: {command}: --fuel must not be negative, got '-1'\n"
    monkeypatch.setenv("HOLTRANS_FUEL", "-3")
    assert cli.main([command, *args]) == 2
    assert capsys.readouterr().err == "error: HOLTRANS_FUEL must not be negative, got '-3'\n"
    # an explicit --fuel makes the variable irrelevant, and 0 is a budget
    assert cli.main([command, "--fuel", "0", *args]) == 1
    assert "FuelExhausted" in capsys.readouterr().err


def test_a_name_that_would_end_a_comment_translates(tmp_path, capsys):
    # "a;)" mangles to the identifier of the constant "a_u003b__u0029_",
    # declared first, so the collision note names it: escaped, it cannot
    # end the note's comment
    art = tmp_path / "semi.art"
    art.write_text("\n".join(
        '6 version "bool" typeOp nil opType 0 def pop "x" 0 ref var 1 def pop 1 ref 1 ref varTerm absTerm 2 def pop '
        '"a_u003b__u0029_" 2 ref defineConst pop pop "a;)" 2 ref defineConst pop pop'.split()
    ) + "\n")
    assert cli.main(["translate", str(art), "-o", str(tmp_path)]) == 0
    text = (tmp_path / "semi.dk").read_text()
    assert text.count(";)") == text.count("(;")
    assert '(; name collisions: "tm.a\\u003b)" renamed to tm_a_u003b__u0029__2 ;)' in text
    assert cli.main(["check", str(tmp_path / "semi.dk")]) == 0
    assert capsys.readouterr().err == ""


def test_self_verification_failure_names_the_error_type(tmp_path, capsys):
    assert cli.main(["translate", "--fuel", "0", "--no-sharing", str(IDENTITY), "-o", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    # the budget runs out on the first base item
    assert err == (
        f"error: {IDENTITY}: generated document failed self-verification: "
        "FuelExhausted: declaration Refl: reduction step budget exceeded\n"
    )


def test_fuel_exhaustion_names_its_item(tmp_path, capsys):
    # in sharing: the hoisted definition whose type inference ran out
    typeop = CORPUS / "10_definetypeop.art"
    assert cli.main(["translate", "--fuel", "0", str(typeop), "-o", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {typeop}: FuelExhausted: definition s0: reduction step budget exceeded\n"
    # one budget for the whole pass: s0 and s1 spend 5 and 6 steps
    assert cli.main(["translate", "--fuel", "10", str(typeop), "-o", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {typeop}: FuelExhausted: definition s1: reduction step budget exceeded\n"
    assert cli.main(["translate", "--fuel", "11", str(typeop), "-o", str(tmp_path)]) == 1
    assert "failed self-verification" in capsys.readouterr().err  # sharing got through
    # in check: the first item of a module once its base has passed.  The
    # base is checked once and the module gets a budget of its own, so its
    # first item takes one beta step more than the whole base: its declared
    # type is ``term ((x : type => x) (... (arrow bool bool)))``.
    assert cli.main(["translate", str(IDENTITY), "-o", str(tmp_path)]) == 0
    base = tmp_path / "hol.dk"
    assert cli.main(["check", "-v", str(base)]) == 0
    base_fuel = int(re.search(r"fuel (\d+)", capsys.readouterr().out).group(1))
    code = kernel.app(kernel.Const("arrow"), kernel.Const("bool"), kernel.Const("bool"))
    for _ in range(base_fuel + 1):
        code = kernel.App(kernel.Abs("x", kernel.Const("type"), kernel.BVar(0)), code)
    term_bool = kernel.App(kernel.Const("term"), kernel.Const("bool"))
    first = kernel.Defn("d", kernel.App(kernel.Const("term"), code), kernel.Abs("y", term_bool, kernel.BVar(0)))
    out = tmp_path / "hungry.dk"
    out.write_text(dkfile.emit(dkfile.DkDocument("hungry", (first,))))
    assert cli.main(["check", "--fuel", str(base_fuel), str(out)]) == 1
    assert capsys.readouterr().err == f"error: {out}: FuelExhausted: definition d: reduction step budget exceeded\n"
    assert cli.main(["check", "--fuel", str(base_fuel + 2), str(out)]) == 0


def test_tampered_dag_article_fails_with_one_short_line(tmp_path):
    """A stated sequent that differs from the proved one is reported by
    the part that differs.  The printed sequent of ``Refl(t_k)``, with
    ``t_(k+1) = (t_k = t_k)``, doubles with each level (113 MB at k = 18),
    so printing it at k = 24 would not finish in the timeout."""
    t = hol.Const("c", hol.BOOL)
    for _ in range(24):
        t = hol.mk_eq(t, t)
    proof = hol.Refl(t)
    stated = hol.Sequent((), hol.mk_eq(proof.sequent.concl, proof.sequent.concl))
    art = tmp_path / "bad.art"
    art.write_text(ot.serialize_article(ot.VMState(theorems=[(stated, proof)])))
    done = _python("-m", "holtrans.cli", "translate", str(art), "-o", str(tmp_path / "out"), timeout=60)
    assert done.returncode == 1
    assert re.fullmatch(
        rf"error: {re.escape(str(art))} \(command \d+, line \d+\): "
        r"SequentMismatch: thm: the stated conclusion differs from the proved one\n",
        done.stderr,
    ), done.stderr[:1000]


def _deep_hypotheses_article(depth):
    """``DeductAntiSym(Assume(t_c), Assume(t_d))``, with ``t_x`` the term
    ``t_0 = x`` and ``t_(j+1) = (t_j = t_j)`` at ``j = depth``, written
    without building it here: slot 4 holds ``t_c`` and slot 5 ``t_d``."""
    lines = [
        "6", "version",
        '"bool"', "typeOp", "nil", "opType", "0", "def", "pop",
        '"->"', "typeOp", "0", "ref", "0", "ref", "nil", "cons", "cons", "opType", "1", "def", "pop",
        '"->"', "typeOp", "0", "ref", "1", "ref", "nil", "cons", "cons", "opType", "2", "def", "pop",
        '"="', "const", "2", "ref", "constTerm", "3", "def", "pop",
    ]
    for leaf, slot in (("c", "4"), ("d", "5")):
        lines += [f'"{leaf}"', "const", "0", "ref", "constTerm", slot, "def", "pop"]
        lines += ["3", "ref", slot, "ref", "appTerm", slot, "ref", "appTerm", slot, "def", "pop"] * depth
        lines += [slot, "ref", "assume"]
    lines += ["deductAntisym", "4", "ref", "5", "ref", "nil", "cons", "cons",
              "3", "ref", "4", "ref", "appTerm", "5", "ref", "appTerm", "thm"]
    return "\n".join(lines) + "\n"


def test_deep_shared_hypotheses_translate_and_check(tmp_path):
    """Two hypotheses of 31 distinct nodes and a tree of 2^31 - 1: keying
    and comparing them costs their distinct nodes, so translating and
    checking finish in the timeout."""
    art = tmp_path / "deep.art"
    art.write_text(_deep_hypotheses_article(30))
    out = tmp_path / "out"
    done = _python("-m", "holtrans.cli", "translate", str(art), "-o", str(out), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    done = _python("-m", "holtrans.cli", "check", str(out / "deep.dk"), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


def test_deep_hypotheses_article_is_the_proof_it_names():
    small = hol.DeductAntiSym(*(hol.Assume(hol.Const(x, hol.BOOL)) for x in "cd"))
    thm, proof = ot.run_text(_deep_hypotheses_article(0)).theorems[0]
    assert proof == small and thm.alpha_eq(small.sequent)


def test_article_failure_names_command_and_line(tmp_path, capsys):
    # refl on an empty stack: the fifth command, on the sixth line
    bad = tmp_path / "bad.art"
    bad.write_text("# comment\n6\nversion\n\"A\"\nvarType\nrefl\n")
    assert cli.main(["translate", str(bad), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad} (command 4, line 6): TypeErrorOnStack: refl: expected HolTerm, found TyVar\n"


def test_an_article_of_literals_only_is_refused(tmp_path, capsys):
    """No keyword asks for the version, so the end of the article does,
    and no module is written."""
    art = tmp_path / "lit.art"
    art.write_text('6\n"x"\n')
    assert cli.main(["translate", str(art), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {art}: UnsupportedVersion: article has no version command\n"
    assert not (tmp_path / "out" / "lit.dk").exists()


def test_ill_typed_application_fails_at_its_command(tmp_path, capsys):
    """Terms are typed as they are built: applying ``x : bool`` to itself
    fails at ``appTerm`` on line 14, not at the ``refl`` that uses it."""
    bad = tmp_path / "bad.art"
    lines = ["6", "version", '"x"', '"bool"', "typeOp", "nil", "opType", "var", "varTerm",
             "0", "def", "0", "ref", "appTerm", "refl"]
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["translate", str(bad), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad} (command 13, line 14): AppTypeMismatch: not a function type: {hol.BOOL}\n"


def test_distinct_variables_get_distinct_kernel_names(tmp_path):
    """``x : t69026`` and ``x : t121469`` are two variables.  Their type keys
    share an 8-hex SHA-1 prefix, which once named both ``$x#76599fa4`` and
    made the generated document ill-typed."""
    def assume_refl(op):
        x = hol.Var("x", hol.TyOp(op))
        return hol.Assume(hol.mk_eq(x, x))

    proof = hol.DeductAntiSym(assume_refl("t69026"), assume_refl("t121469"))
    art = tmp_path / "clash.art"
    art.write_text(ot.serialize_article(ot.VMState(theorems=[(hol.check_proof(proof), proof)])))
    out = tmp_path / "out"
    assert cli.main(["translate", str(art), "-o", str(out)]) == 0
    assert cli.main(["check", str(out / "clash.dk")]) == 0


@pytest.mark.parametrize(
    "stem, reason",
    [
        ("we;)ird", "the article name may not contain ';)'"),
        ("hol", "its output would overwrite the base signature hol.dk"),
    ],
)
def test_unwritable_article_name_is_one_error_line(tmp_path, capsys, stem, reason):
    """Refused before anything is written, even after a good article."""
    art = tmp_path / f"{stem}.art"
    art.write_bytes((CORPUS / "02_refl.art").read_bytes())
    out = tmp_path / "out"
    assert cli.main(["translate", str(IDENTITY), str(art), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {art}: {reason}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("twice", [False, True])
def test_same_stem_inputs_are_refused(tmp_path, capsys, twice):
    a = tmp_path / "a" / "x.art"
    b = a if twice else tmp_path / "b" / "x.art"
    for p in {a, b}:
        p.parent.mkdir()
        p.write_bytes((CORPUS / "02_refl.art").read_bytes())
    out = tmp_path / "out"
    assert cli.main(["translate", str(a), str(b), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {a} and {b} would both be written to x.dk; rename one\n"
    assert not out.exists()


def _deep_article(depth):
    """``|- t = t`` by ``refl`` for ``t = f (f (... x))`` nested ``depth`` deep."""
    lines = [
        "6", "version",
        '"A"', "varType", "0", "def", "pop",
        '"->"', "typeOp", "0", "ref", "0", "ref", "nil", "cons", "cons", "opType", "1", "def", "pop",
        '"f"', "1", "ref", "var", "varTerm", "2", "def", "pop",
        '"x"', "0", "ref", "var", "varTerm", "3", "def", "pop",
    ]
    lines += ["2", "ref", "3", "ref", "appTerm", "3", "def", "pop"] * depth
    lines += [
        '"bool"', "typeOp", "nil", "opType", "4", "def", "pop",
        '"->"', "typeOp", "0", "ref", "4", "ref", "nil", "cons", "cons", "opType", "5", "def", "pop",
        '"->"', "typeOp", "0", "ref", "5", "ref", "nil", "cons", "cons", "opType", "6", "def", "pop",
        "3", "ref", "refl",
        "nil",
        '"="', "const", "6", "ref", "constTerm", "3", "ref", "appTerm", "3", "ref", "appTerm",
        "thm",
    ]
    return "\n".join(lines) + "\n"


def test_deeply_nested_term_translates_and_checks(tmp_path):
    """Nested 20,000 deep, the recursion overflowed the main thread's C
    stack (exit 139); a crash cannot be caught in-process, so this runs the
    commands as subprocesses."""
    art = tmp_path / "deep.art"
    art.write_text(_deep_article(20_000))
    translated = _python("-m", "holtrans.cli", "translate", str(art), "-o", str(tmp_path / "out"))
    assert translated.returncode == 0, translated.stderr
    checked = _python("-m", "holtrans.cli", "check", str(tmp_path / "out" / "deep.dk"))
    assert checked.returncode == 0, checked.stderr


def test_recursion_limit_is_one_error_line(tmp_path, monkeypatch, capsys):
    depth = 3000
    doc = tmp_path / "deep.dk"
    term = "f (" * depth + "x" + ")" * depth
    doc.write_text(f"A : Type.\nf : A -> A.\nx : A.\ndef y : A := {term}.\n")
    monkeypatch.setattr(cli, "RECURSION_LIMIT", depth // 2)
    limit = sys.getrecursionlimit()
    try:
        assert cli.main(["check", str(doc)]) == 1
    finally:
        sys.setrecursionlimit(limit)
    err = capsys.readouterr().err
    assert err == f"error: input nested too deeply: more than {depth // 2} levels of recursion\n"
