import os
import subprocess
import sys
import types
from pathlib import Path

import cvrate

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_neither_the_oracle_nor_the_config_parser():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = "import sys, cvrate; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert "cvrate" in loaded
    assert "cvrate.purification" not in loaded
    assert "cvrate.config" not in loaded


def test_all_names_exactly_the_public_non_module_bindings():
    bound = sorted(
        name
        for name, value in vars(cvrate).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert sorted(cvrate.__all__) == bound
    assert len(cvrate.__all__) == 18
