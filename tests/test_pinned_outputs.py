"""The kernel's outputs on fixed benchmark items keep their checked-in
digests (``tests/pinned_outputs.py``), whatever the hash seed."""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def test_outputs_keep_their_pinned_digests():
    """Two fresh interpreters, under PYTHONHASHSEED 0 and 1, run side by
    side and each prints the digests in ``pinned_outputs.txt``."""
    want = (HERE / "pinned_outputs.txt").read_text()
    runs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "pinned_outputs.py")],
            env={**os.environ, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1")
    ]
    for seed, run in zip(("0", "1"), runs):
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err[-2000:]
        assert out == want, f"PYTHONHASHSEED={seed}: the outputs' digests changed"
