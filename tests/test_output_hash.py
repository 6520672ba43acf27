"""``tools/output_hash.py`` on replications 0 and 1."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _hashes(*args):
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_hash.py"), "--reps", "2", *args],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    return dict(line.split() for line in out.stdout.splitlines())


def test_one_hash_per_benchmark_and_pinned_config():
    hashes = _hashes()
    assert list(hashes) == [
        "mmd-null/mmd", "inversion-alt/inversion-mmd", "equivariance-alt/kci",
        "equivariance-alt/cp", "stacked/mmd", "stacked/nmmd", "stacked/cw",
        "stacked/inversion-mmd", "pinned/mmd", "pinned/nmmd", "pinned/cw",
        "pinned/2smmd", "pinned/inversion-mmd", "pinned/kci", "pinned/cp",
        "pinned/power-mmd", "pinned/power-nmmd", "pinned/power-cw",
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", h) for h in hashes.values())
    # the same source gives the same outputs; another seed moves the
    # benchmark configs' outputs but not the pinned ones, which fix theirs
    assert _hashes("--src", str(ROOT / "src")) == hashes
    reseeded = _hashes("--seed", "1")
    for name, h in hashes.items():
        assert (reseeded[name] == h) == name.startswith("pinned/"), name
