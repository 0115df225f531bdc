"""Smoke tests: the experiment scripts run to completion on the corpus."""

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
    assert "01_identity" in proc.stdout
