"""`diffrees --format json corpus` prints exactly the recorded golden bytes,
with and without `python -O`, so a kernel change that moves any verdict,
count or ordering in the report fails here.  The golden file is only
read."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "bench" / "golden" / "corpus-output.json"
CLI = ("import sys; from diffrees.cli import main; "
       "sys.exit(main(['--format', 'json', 'corpus']))")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_corpus_json_matches_golden(flags):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *flags, "-c", CLI], env=env,
                          cwd=ROOT, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == GOLDEN.read_bytes()
