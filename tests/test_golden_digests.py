"""The determinism contract: ``tools/model_digests.py`` prints the digest
lines recorded in ``model_digests.txt``, byte for byte.

The recorded ``env`` line names the machine the file was made on.  On
another numpy, BLAS or CPU the digests may differ; the failure message
shows both ``env`` lines so that such a run can be told apart from
changed bits.  The tool's docstring says how to re-record the file.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import driftloc

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("model_digests.txt")


@pytest.mark.slow
def test_model_digests_match_golden_file():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(driftloc.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "model_digests.py")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    want_env, *want = GOLDEN.read_text().splitlines()
    got_env, *got = run.stdout.splitlines()
    changed = [f"  recorded {w!r}\n  printed  {g!r}"
               for w, g in itertools.zip_longest(want, got) if w != g]
    if changed:
        pytest.fail(f"{len(changed)} digest lines differ from {GOLDEN.name}:\n"
                    + "\n".join(changed)
                    + f"\nrecorded {want_env}\nprinted  {got_env}", pytrace=False)
