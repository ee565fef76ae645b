import ast
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


def test_closed_forms_build_no_matrix():
    # cloner may take from gaussian only what the closed forms compute with;
    # the matrix states of the link model belong to the oracle
    tree = ast.parse((ROOT / "src" / "cvrate" / "cloner.py").read_text())
    from_gaussian = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "gaussian"
        for alias in node.names
    }
    assert from_gaussian == {"Column", "clamp_spectrum", "two_mode_eigs", "von_neumann_entropy"}
    assert "gaussian" not in vars(cvrate.cloner)  # nor the module itself


def test_test_only_helpers_are_gone():
    import cvrate.cloner as cloner
    import cvrate.gaussian as gaussian
    import cvrate.keyrate as keyrate
    import cvrate.optimize as optimize
    import cvrate.purification as purification

    gone = {
        cloner: ("_model", "bob_variance", "eve_conditional_het", "eve_conditional_hom",
                 "assemble_and_propagate", "eve_state"),
        keyrate: ("mutual_information",),
        optimize: ("vmod_for_snr",),
        gaussian: ("symplectic_form", "CovMatrix", "_unchecked", "PHYSICALITY_TOL"),
        purification: ("purity_check",),
    }
    for module, names in gone.items():
        assert [name for name in names if hasattr(module, name)] == [], module.__name__


def test_states_and_transforms_are_plain_arrays():
    # SympMatrix only checks a transform; no operation takes or returns one
    import numpy as np

    import cvrate.gaussian as gaussian
    import cvrate.purification as purification
    from cvrate.cloner import Detection, LinkParams, Trust

    assert not hasattr(gaussian.SympMatrix, "__matmul__")
    p = LinkParams(v_mod=4.0, t_ch=0.5, t_rec=0.6, xi_ch=0.01, xi_rec=0.05, xi_pr=0.0,
                   detection=Detection.HOMODYNE, trust=Trust.TRUSTED_RECEIVER)
    state = purification.received_state(p)
    assert type(state) is np.ndarray
    assert np.array_equal(state, state.T)


def test_column_has_no_pair_sort():
    # every closed-form pair comes out larger first, so nothing sorts pairs
    import cvrate.gaussian as gaussian

    assert not hasattr(gaussian.Column, "descending")
