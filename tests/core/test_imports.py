"""Import footprint: a fresh interpreter that verifies the smallest
configuration must not load numpy (the verifier is pure Python)."""

import os
import subprocess
import sys


def test_verify_does_not_import_numpy():
    script = (
        "import sys\n"
        "import repro\n"
        "repro.verify(repro.ProcessorConfig(1, 1))\n"
        "print('numpy' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
