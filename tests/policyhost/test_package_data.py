"""A built ``repro`` package ships the calibration tables it reads.

``ResponseModel`` loads ``calibration_tables.json`` next to
``calibration.py`` at its first policy-host cell, so a build that copies
only the modules fails there.  The build runs offline: ``build_py``
copies files and fetches nothing.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def test_build_py_ships_every_module_and_the_calibration_tables(tmp_path):
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_py",
         "--build-lib", str(tmp_path)],
        cwd=ROOT, check=True, capture_output=True,
    )
    tables = Path("repro", "policyhost", "calibration_tables.json")
    assert (tmp_path / tables).read_bytes() == (SRC / tables).read_bytes()
    modules = sorted(p.relative_to(SRC) for p in (SRC / "repro").rglob("*.py"))
    built = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.py"))
    assert built == modules
