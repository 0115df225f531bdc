"""Smoke tests: the experiment scripts run to completion on the corpus."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(*args):
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True, timeout=300)


def test_translate_corpus_script(tmp_path):
    proc = _run(SCRIPTS / "translate_corpus.py", "-o", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "stats.json").exists()


def test_compare_sharing_script():
    proc = _run(SCRIPTS / "compare_sharing.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[-4:] == ["defs", "fuel", "plain/shared", "trusted"]
    rows = {}
    trusted = {}
    for line in lines[2:-2]:
        # two raw/gzip pairs (without and with sharing), the definitions hoisted, the fuel without/with
        # sharing, the declarations of proof type
        pairs = re.findall(r"(\d+)/\s*(\d+)", line)
        assert len(pairs) == 3, line
        defs = int(line.split()[-3])
        rows[line.split()[0]] = (pairs, defs)
        trusted[line.split()[0]] = int(line.split()[-1])
    assert len(rows) == len(list((SCRIPTS.parent / "corpus").glob("*.art")))
    for name, (pairs, defs) in rows.items():
        plain, shared = pairs[2]
        assert int(shared) <= int(plain), name  # sharing never costs the kernel fuel on the corpus
        assert (defs > 0) == (pairs[0] != pairs[1]), name  # it changes the module where it hoists
    pairs, defs = rows["10_definetypeop"]  # two statements, each used twice
    assert defs == 2 and int(pairs[2][1]) < int(pairs[2][0])
    # what the corpus trusts: a definition axiom (09), a type definition's two axioms (10), an article axiom (11)
    assert trusted == {name: {"09_defineconst": 1, "10_definetypeop": 2, "11_axiom": 1}.get(name, 0) for name in rows}
    # the total row: each column summed, raw and gzip bytes alike
    total = lines[-1]
    assert total.split()[0] == "total"
    pairs = re.findall(r"(\d+)/\s*(\d+)", total)
    assert len(pairs) == 3
    for i, (raw, gz) in enumerate(pairs[:2]):
        assert int(raw) == sum(int(p[i][0]) for p, _ in rows.values())
        assert int(gz) == sum(int(p[i][1]) for p, _ in rows.values())
    assert int(total.split()[-3]) == sum(d for _, d in rows.values())
    assert int(total.split()[-1]) == sum(trusted.values())
    assert pairs[2] == (str(sum(int(p[2][0]) for p, _ in rows.values())), str(sum(int(p[2][1]) for p, _ in rows.values())))


def test_compare_sharing_help_and_article_arguments():
    proc = _run(SCRIPTS / "compare_sharing.py", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:") and "01_identity" not in proc.stdout
    one = SCRIPTS.parent / "corpus" / "01_identity.art"
    proc = _run(SCRIPTS / "compare_sharing.py", one)
    assert proc.returncode == 0, proc.stderr
    assert "01_identity" in proc.stdout and "02_" not in proc.stdout


def test_ab_replay_script_on_one_tree_twice():
    src = SCRIPTS.parent / "src"
    proc = _run(SCRIPTS / "ab_replay.py", src, src, "--family", "dag", "--pairs", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "family dag, 484 commands parsed and replayed, 3 pairs"
    assert lines[1].startswith("parent median ") and lines[2].startswith("change median ")
    assert lines[3].startswith("parent IQR ") and lines[4].endswith(" of 3 pairs")


def test_ab_replay_times_the_parser_in_process(tmp_path):
    """The change is a copy of ``src/`` whose ``parse_article`` first
    sleeps 50 ms: that shows in its median, and the parent's stays under."""
    change = tmp_path / "change"
    shutil.copytree(SCRIPTS.parent / "src" / "holtrans", change / "holtrans",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = change / "holtrans" / "opentheory.py"
    module.write_text(module.read_text() + (
        "\n_parse = parse_article\n\n\n"
        "def parse_article(data):\n    import time\n    time.sleep(0.05)\n    return _parse(data)\n"
    ))
    proc = _run(SCRIPTS / "ab_replay.py", SCRIPTS.parent / "src", change, "--family", "dag", "--pairs", "2")
    assert proc.returncode == 0, proc.stderr
    medians = dict(re.findall(r"^(parent|change) median (\d+\.\d+) ms$", proc.stdout, re.M))
    assert float(medians["change"]) >= 50 > float(medians["parent"]), proc.stdout


def test_ab_replay_script_in_fresh_processes():
    src = SCRIPTS.parent / "src"
    proc = _run(SCRIPTS / "ab_replay.py", src, src, "--family", "dag", "--pairs", "2", "--process", "check")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "family dag, check processes, 2 pairs"
    for line, name in zip(lines[1:3], ("parent", "change")):
        assert re.fullmatch(name + r" median \d+\.\d{3} ref \(quartiles \d+\.\d{3} \d+\.\d{3}\), peak RSS \d+\.\d\d MB", line)
    assert lines[3].startswith("parent IQR ") and lines[3].endswith(" ref") and lines[4].endswith(" of 2 pairs")


def test_ab_replay_reads_each_process_s_own_peak_rss(tmp_path):
    """The change is a copy of ``src/`` whose package holds 48 MB more when
    the script itself imports it (its workloads do): the timed processes,
    which do not hold it, read their own peak RSS, not the script's
    high-water (a dag translate peaks near 18 MB)."""
    change = tmp_path / "change"
    shutil.copytree(SCRIPTS.parent / "src" / "holtrans", change / "holtrans",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = change / "holtrans" / "__init__.py"
    init.write_text(init.read_text() + (
        "\nimport sys\n\nif sys.argv[0].endswith('ab_replay.py'):\n    _BALLAST = b'x' * (48 << 20)\n"
    ))
    proc = _run(SCRIPTS / "ab_replay.py", SCRIPTS.parent / "src", change, "--family", "dag", "--pairs", "1",
                "--process", "translate")
    assert proc.returncode == 0, proc.stderr
    peaks = [float(mb) for mb in re.findall(r", peak RSS (\d+\.\d\d) MB$", proc.stdout, re.M)]
    assert len(peaks) == 2 and max(peaks) < 40, proc.stdout


def test_ab_replay_runs_one_untimed_process_of_each_tree_first(tmp_path):
    """The parent is a stand-in whose command line logs each run, the change
    a copy of ``src/``: each side runs one untimed process before the pairs,
    from a copy of its tree, so with no ``PYTHONDONTWRITEBYTECODE`` its
    bytecode cache is written there and never into the tree."""
    parent, change, log = tmp_path / "parent", tmp_path / "change", tmp_path / "runs.log"
    (parent / "holtrans").mkdir(parents=True)
    (parent / "holtrans" / "__init__.py").write_text("")
    (parent / "holtrans" / "cli.py").write_text(
        f"import sys\nwith open({str(log)!r}, 'a') as log:\n    log.write(sys.argv[1] + '\\n')\n"
    )
    shutil.copytree(SCRIPTS.parent / "src" / "holtrans", change / "holtrans",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: v for key, v in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([sys.executable, str(SCRIPTS / "ab_replay.py"), parent, change, "--family", "dag",
                           "--pairs", "2", "--process", "check"], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the translate that writes the checked document, the warm-up, the pairs
    assert log.read_text().split() == ["translate", "check", "check", "check"]
    assert not list(tmp_path.glob("*/holtrans/__pycache__"))


def test_traffic_script_on_one_article():
    one = SCRIPTS.parent / "corpus" / "01_identity.art"
    proc = _run(SCRIPTS / "traffic.py", one)
    assert proc.returncode == 0, proc.stderr
    *idle, by_file, total = proc.stdout.splitlines()
    never, of = map(int, re.fullmatch(r"(\d+) of (\d+) statements never ran", total).groups())
    assert never == len(idle) and 0 < never < of
    files = [line.split(":")[0] for line in idle]
    assert "src/holtrans/artwriter.py" in files  # no command loads the article writer
    # each file's count, most first, as the list has it
    counts = [(name, int(n)) for name, n in re.findall(r"(\w+) (\d+)", by_file.removeprefix("never ran, by file: "))]
    assert by_file.startswith("never ran, by file: ")
    assert dict(counts) == {Path(f).stem: files.count(f) for f in files}
    assert [n for _, n in counts] == sorted((n for _, n in counts), reverse=True)
    # what every command runs is not listed, such as ``cli.main``'s first statement
    cli = (SCRIPTS.parent / "src" / "holtrans" / "cli.py").read_text().splitlines()
    first = cli.index("    sys.setrecursionlimit(RECURSION_LIMIT)") + 1
    assert f"src/holtrans/cli.py:{first}:" not in proc.stdout
