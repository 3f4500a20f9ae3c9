"""The demo scripts print the same bytes as when their digests were recorded.

Each demo runs in a fresh interpreter with RuntimeWarnings and
DeprecationWarnings raised as errors, as the tests run; the SHA-256 of its
standard output is compared with the digest recorded before sweeps returned
columns and before scalar gate times stayed scalar, ``violation_curve.py``'s
since stacked circuits run as weighted sums of fixed products (its round-off
line then read 8.88e-16, 1.33e-15 before).  Several printed values (``max |K_circuit - K_analytic|``,
the disturbance of I/2) are round-off sized, so a change in the arithmetic
of the engine shows here even when every tolerance test passes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "violation_curve.py":
        "5e41ebcffe0651f1db1ac6898ccd6fa3e1412504bdb48cfdafb7f5390503eef3",
    "noninvasive_probe.py":
        "50696ba9bd947f88f001dfc64ade1d5096ca5494d692937e80753c4ecd18170e",
    "tomography_and_t2.py":
        "74974f4662e72370ea56254743d3f8becb29aef4a0f2cefc8587552ac4f7611e",
}


@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_stdout_matches_recorded_digest(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         str(ROOT / "demos" / demo)],
        capture_output=True, env=env, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_SHA256[demo]
