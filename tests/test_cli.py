import contextlib
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrate import Detection, DomainError, LinkParams, ProtocolParams, Trust, evaluate
from cvrate.cli import CSV_COLUMNS, _fmt, _sweep_lines, main
from cvrate.config import SWEEP_VARIABLES, FiberModel, SweepSpec

POINT_CONFIG = """\
[link]
v_mod = 4.0
t_ch = 0.5
xi_ch = 0.05
t_rec = 0.6
xi_rec = 0.1
detection = heterodyne
trust = trusted_receiver

[protocol]
beta = 0.95
"""

DISTANCE_CONFIG = """\
[link]
v_mod = 4.0
distance_km = 25
xi_ch = 0.05
t_rec = 0.6
xi_rec = 0.1
detection = heterodyne
trust = trusted_receiver

[protocol]
beta = 0.95
f_sym = 1e8

[fiber]
attenuation_db_per_km = 0.2
"""

SWEEP_CONFIG = """\
[link]
xi_pr = 0.0
distance_km = 10
xi_ch = 0.02
t_rec = 0.7
xi_rec = 0.05
detection = homodyne
trust = trusted_receiver

[protocol]
beta = 0.95

[sweep]
variable = distance_km
start = 1
stop = 50
points = 8
scale = linear
trust_cases = untrusted_all, trusted_receiver
optimize_vmod = true
"""

VMOD_SWEEP_CONFIG = """\
[link]
t_ch = 0.5
xi_ch = 0.05
t_rec = 0.6
xi_rec = 0.1
detection = heterodyne
trust = trusted_receiver

[protocol]
beta = 0.95

[sweep]
variable = v_mod
start = 1
stop = 10
points = 2
scale = linear
trust_cases = untrusted_all, trusted_receiver, trusted_receiver_and_preparation
"""


ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(*args):
    """Run ``python -m cvrate.cli`` on this checkout's sources in a fresh
    interpreter, so that everything it prints to stderr is captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cvrate.cli", *args], capture_output=True, text=True, env=env
    )


class TestRate:
    def test_perfect_link_has_zero_holevo(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "perfect.ini",
            POINT_CONFIG.replace("t_ch = 0.5", "t_ch = 1.0").replace("xi_ch = 0.05", "xi_ch = 0.0"),
        )
        assert main(["rate", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["chi_eb"] < 1e-9

    def test_distance_is_converted_and_echoed(self, tmp_path, capsys):
        cfg = write(tmp_path, "distance.ini", DISTANCE_CONFIG)
        assert main(["rate", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["params"]["t_ch"] == pytest.approx(10 ** -0.5, rel=1e-11)
        assert out["params"]["distance_km"] == 25.0
        assert out["key_rate"] is not None

    def test_config_roundtrip_echo(self, tmp_path, capsys):
        cfg = write(tmp_path, "point.ini", POINT_CONFIG)
        main(["rate", "--config", cfg])
        out = json.loads(capsys.readouterr().out)
        assert out["params"]["v_mod"] == 4.0
        assert out["params"]["t_ch"] == 0.5
        assert out["params"]["xi_rec"] == 0.1
        assert out["params"]["trust"] == "trusted_receiver"
        assert out["params"]["detection"] == "heterodyne"

    def test_trust_override_improves_rate(self, tmp_path, capsys):
        cfg = write(tmp_path, "point.ini", POINT_CONFIG)
        main(["rate", "--config", cfg, "--trust", "untrusted_all"])
        r_untrusted = json.loads(capsys.readouterr().out)["secret_fraction"]
        main(["rate", "--config", cfg, "--trust", "trusted_receiver"])
        r_trusted = json.loads(capsys.readouterr().out)["secret_fraction"]
        assert r_trusted > r_untrusted

    def test_missing_beta_is_a_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "nobeta.ini", POINT_CONFIG.replace("beta = 0.95", ""))
        assert main(["rate", "--config", cfg]) == 2
        assert "protocol.beta" in capsys.readouterr().err

    def test_invalid_physics_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.ini", POINT_CONFIG.replace("xi_ch = 0.05", "xi_ch = -1"))
        assert main(["rate", "--config", cfg]) == 2
        assert "xi_ch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "v_mod = nan",
            "v_mod = inf",
            "xi_ch = nan",
            "xi_rec = inf",
            "f_sym = nan",
            "f_sym = inf",
            "distance_km = nan",
            "distance_km = inf",
            "attenuation_db_per_km = nan",
            "attenuation_db_per_km = inf",
        ],
    )
    def test_non_finite_input_exits_2(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        cfg = write(tmp_path, "nan.ini", re.sub(rf"^{key} = .*$", line, DISTANCE_CONFIG, flags=re.M))
        assert main(["rate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid input: ") and key in captured.err
        assert captured.err.count("\n") == 1

    def test_overflow_exits_2_without_traceback(self, tmp_path):
        cfg = write(tmp_path, "huge.ini", POINT_CONFIG.replace("v_mod = 4.0", "v_mod = 1e300"))
        proc = run_cli("rate", "--config", cfg)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("invalid input: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "edits, value",
        [({"xi_rec = 0.05": "xi_rec = 1.7e308"}, "nan"),
         ({"v_mod = 4.0": "v_mod = 1.7e308", "trust = trusted_receiver": "trust = untrusted_all"}, "inf"),
         ({"v_mod = 4.0": "v_mod = 1e200"}, "inf")],
        ids=["xi_rec", "v_mod-untrusted", "v_mod-1e200"],
    )
    def test_non_finite_spectrum_exits_2(self, tmp_path, edits, value):
        # finite inputs whose eigenvalues overflow: rejected, never printed
        text = (ROOT / "configs" / "point.ini").read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        proc = run_cli("rate", "--config", write(tmp_path, "huge.ini", text))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"invalid input: symplectic eigenvalue {value} is not finite\n"

    @pytest.mark.parametrize(
        "text",
        [
            POINT_CONFIG.replace("[link]\n", ""),  # no section header
            POINT_CONFIG.replace("xi_rec = 0.1\n", "xi_rec = 0.1\nxi_rec = 0.2\n"),  # duplicated key
            POINT_CONFIG.replace("[link]\n", "[link]\n# caf\xe9\n"),  # not UTF-8 once encoded as latin-1
            POINT_CONFIG.replace("xi_rec = 0.1", "xi_rec = 5%"),  # would be an interpolation error
        ],
        ids=["no-section-header", "duplicate-key", "non-utf8", "percent-sign"],
    )
    def test_malformed_config_is_a_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_bytes(text.encode("latin-1"))
        assert main(["rate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: ")
        assert captured.err.count("\n") == 1


class TestSweep:
    def test_csv_layout_and_physics(self, tmp_path):
        cfg = write(tmp_path, "sweep.ini", SWEEP_CONFIG)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == CSV_COLUMNS
        assert len(rows) == 8 * 2

        by_trust = {}
        for row in rows:
            by_trust.setdefault(row["trust"], []).append(
                (float(row["value"]), float(row["secret_fraction"]))
            )
        for series in by_trust.values():
            values = [r for _, r in sorted(series)]
            # optimized secret fraction decays with distance
            assert all(a >= b - 1e-8 for a, b in zip(values, values[1:]))
        for (d_un, r_un), (d_tr, r_tr) in zip(
            sorted(by_trust["untrusted_all"]), sorted(by_trust["trusted_receiver"])
        ):
            assert d_un == d_tr
            assert r_tr >= r_un - 1e-10

    def test_two_point_vmod_sweep_row_count(self, tmp_path):
        cfg = write(tmp_path, "vmod.ini", VMOD_SWEEP_CONFIG)
        out = tmp_path / "vmod.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 3
        # key_rate column is empty without a symbol rate
        assert all(row["key_rate"] == "" for row in rows)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path, "sweep.ini", SWEEP_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_parallel_jobs_keep_row_order(self, tmp_path):
        cfg = write(tmp_path, "sweep.ini", SWEEP_CONFIG)
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(parallel), "--jobs", "2"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_unwritable_output_path(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.ini", SWEEP_CONFIG)
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(missing_dir)]) == 1
        assert "i/o error" in capsys.readouterr().err

    def test_sweeping_optimized_vmod_is_rejected(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "bad.ini", VMOD_SWEEP_CONFIG.replace("[sweep]", "[sweep]\noptimize_vmod = true")
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "optimize" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["start = nan", "start = -inf", "stop = nan", "stop = inf"])
    def test_non_finite_bounds_exit_2(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        cfg = write(tmp_path, "bad.ini", re.sub(rf"^{key} = .*$", line, SWEEP_CONFIG, flags=re.M))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: sweep start and stop must be finite")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_absurd_point_count_is_rejected_before_any_grid(self, tmp_path, capsys):
        cfg = write(tmp_path, "huge.ini", SWEEP_CONFIG.replace("points = 8", "points = 1000000000000"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: sweep allows at most ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_repeated_trust_case_is_rejected(self, tmp_path, capsys):
        text = SWEEP_CONFIG.replace("points = 8", "points = 3").replace(
            "trust_cases = untrusted_all, trusted_receiver",
            "trust_cases = untrusted_all, trusted_receiver, Untrusted_All",
        )
        cfg = write(tmp_path, "twice.ini", text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "configuration error: sweep.trust_cases lists 'untrusted_all' more than once\n"
        assert not (tmp_path / "x.csv").exists()

    def test_infinite_stop_prints_one_stderr_line(self, tmp_path):
        cfg = write(tmp_path, "bad.ini", SWEEP_CONFIG.replace("stop = 50", "stop = inf"))
        proc = run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("configuration error: ")
        assert proc.stderr.count("\n") == 1

    def test_xi_rec_sweep_finds_interior_maximum(self, tmp_path):
        cfg = write(
            tmp_path,
            "xirec.ini",
            """\
[link]
v_mod = 4.0
distance_km = 50
xi_ch = 0.01
t_rec = 0.6
xi_rec = 0.0
detection = homodyne
trust = trusted_receiver

[protocol]
beta = 0.95

[sweep]
variable = xi_rec
start = 0.0001
stop = 1.2
points = 25
scale = linear
trust_cases = trusted_receiver
""",
        )
        out = tmp_path / "xirec.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rs = [float(row["secret_fraction"]) for row in rows]
        peak = max(range(len(rs)), key=rs.__getitem__)
        assert 0 < peak < len(rs) - 1  # interior maximum


def _per_row_lines(spec, base, proto, fiber, grid):
    """The sweep evaluated one row at a time, in sweep order."""
    lines = []
    for value in grid:
        change = {"t_ch": fiber.t_ch(value)} if spec.variable == "distance_km" else {spec.variable: value}
        for trust in spec.trust_cases:
            params = replace(base, trust=trust, **change)
            res = evaluate(params, proto)
            cells = [spec.variable, _fmt(value), trust.value, params.detection.value,
                     *(_fmt(getattr(params, f)) for f in ("v_mod", "t_ch", "xi_ch", "t_rec", "xi_rec", "xi_pr")),
                     *(_fmt(getattr(res, f)) for f in ("snr", "i_ab", "chi_eb", "secret_fraction", "key_rate"))]
            lines.append(",".join(cells) + "\n")
    return lines


def _outcome(fn):
    try:
        return fn()
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestSweepRows:
    """Non-optimized sweeps run each trust case's grid as arrays; their rows,
    and the first error, are those of evaluating one row at a time."""

    transmittance = st.one_of(st.floats(min_value=1e-9, max_value=1.0), st.sampled_from([1.0, 1.0 - 1e-7]))
    noise = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))
    # sweep variable -> (start and stop draws, log scale allowed)
    bounds = {
        "distance_km": st.one_of(st.floats(min_value=0.0, max_value=300.0), st.just(-5.0)),
        "xi_ch": st.one_of(st.floats(min_value=0.0, max_value=0.5), st.just(-0.1)),
        "xi_rec": st.floats(min_value=-0.05, max_value=1.0),
        "xi_pr": st.floats(min_value=0.0, max_value=0.5),
        "t_rec": st.floats(min_value=-0.1, max_value=1.2),
        "v_mod": st.one_of(st.floats(min_value=1e-4, max_value=1e4), st.sampled_from([1e14, 1e17])),
    }
    # a branch edge of each variable (zero noise, a lossless channel or
    # receiver): a grid ending there splits the array pass, which reruns on
    # the other rows
    edges = {"distance_km": 0.0, "xi_ch": 0.0, "xi_rec": 0.0, "xi_pr": 0.0, "t_rec": 1.0}

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_and_first_error_match_per_row_evaluation(self, data):
        variable = data.draw(st.sampled_from(SWEEP_VARIABLES))
        ends = data.draw(st.lists(self.bounds[variable], min_size=2, max_size=2, unique=True))
        edge = self.edges.get(variable)
        if edge is not None and edge not in ends and data.draw(st.sampled_from([True, True, True, False])):
            ends[0] = edge  # 3 grids in 4
        start, stop = sorted(ends)
        scale = data.draw(st.sampled_from(["linear", "log"])) if start > 0.0 else "linear"
        trusts = data.draw(st.lists(st.sampled_from(Trust), min_size=1, max_size=3, unique=True))
        spec = SweepSpec(variable=variable, start=start, stop=stop, points=data.draw(st.integers(2, 9)),
                         scale=scale, trust_cases=tuple(trusts))
        base = LinkParams(v_mod=data.draw(st.floats(min_value=1e-3, max_value=1e3)),
                          t_ch=data.draw(self.transmittance), xi_ch=data.draw(self.noise),
                          t_rec=data.draw(self.transmittance), xi_rec=data.draw(self.noise),
                          xi_pr=data.draw(self.noise), detection=data.draw(st.sampled_from(Detection)),
                          trust=trusts[0])
        proto = ProtocolParams(beta=0.95, fer=0.1, f_sym=data.draw(st.sampled_from([None, 1e8])))
        fiber = FiberModel()
        space = np.geomspace if scale == "log" else np.linspace
        grid = space(start, stop, spec.points).tolist()
        expected = _outcome(lambda: _per_row_lines(spec, base, proto, fiber, grid))
        assert _outcome(lambda: _sweep_lines(spec, base, proto, fiber, grid)) == expected

    @staticmethod
    def _config(variable, start, stop, points, scale, trust_cases):
        return POINT_CONFIG + (f"\n[sweep]\nvariable = {variable}\nstart = {start}\nstop = {stop}\n"
                               f"points = {points}\nscale = {scale}\ntrust_cases = {trust_cases}\n")

    def test_first_row_names_a_negative_start(self, tmp_path, capsys):
        cfg = write(tmp_path, "neg.ini", self._config("xi_ch", -0.1, 0.1, 5, "linear",
                                                      "untrusted_all, trusted_receiver"))
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "invalid input: xi_ch must be finite and >= 0, got -0.1\n"
        assert not out.exists()

    def test_row_that_overflows_fails_the_sweep(self, tmp_path, capsys):
        # heterodyne trusted_receiver evaluates v_mod up to about 8.8e153; at
        # 1e155 the state overflows, so the whole sweep fails at that row
        cfg = write(tmp_path, "huge.ini", self._config("v_mod", 1e150, 1e155, 4, "log", "trusted_receiver"))
        base = LinkParams(v_mod=1.0, t_ch=0.5, xi_ch=0.05, t_rec=0.6, xi_rec=0.1,
                          detection=Detection.HETERODYNE, trust=Trust.TRUSTED_RECEIVER)
        proto = ProtocolParams(beta=0.95)
        *valid, last = np.geomspace(1e150, 1e155, 4).tolist()
        for v_mod in valid:
            evaluate(replace(base, v_mod=v_mod), proto)
        with pytest.raises(DomainError, match="is not finite") as rejected:
            evaluate(replace(base, v_mod=last), proto)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"invalid input: {rejected.value}\n"
        assert not out.exists()

    def test_first_failing_row_wins_across_trust_cases(self, tmp_path, capsys):
        # untrusted_all overflows from xi_rec = 4.25e307 on, trusted_receiver
        # only from 1.275e308 (with a NaN, not an infinite, eigenvalue): the
        # row of the lower value comes first, although its trust case comes second
        cfg = write(tmp_path, "xi_rec.ini", self._config("xi_rec", 0.0, 1.7e308, 5, "linear",
                                                         "trusted_receiver, untrusted_all"))
        base = LinkParams(v_mod=4.0, t_ch=0.5, xi_ch=0.05, t_rec=0.6, xi_rec=4.25e307,
                          detection=Detection.HETERODYNE, trust=Trust.TRUSTED_RECEIVER)
        proto = ProtocolParams(beta=0.95)
        evaluate(base, proto)
        with pytest.raises(DomainError, match="nan is not finite"):
            evaluate(replace(base, xi_rec=1.275e308), proto)
        with pytest.raises(DomainError, match="inf is not finite") as untrusted:
            evaluate(replace(base, trust=Trust.UNTRUSTED_ALL), proto)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"invalid input: {untrusted.value}\n"
        assert not out.exists()


class TestOptimize:
    def test_vmod_boundary_flag_on_perfect_link(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "perfect.ini",
            POINT_CONFIG.replace("t_ch = 0.5", "t_ch = 1.0")
            .replace("xi_ch = 0.05", "xi_ch = 0.0")
            .replace("xi_rec = 0.1", "xi_rec = 0.0")
            .replace("t_rec = 0.6", "t_rec = 1.0")
            .replace("beta = 0.95", "beta = 1.0"),
        )
        assert main(["optimize", "--config", cfg, "--mode", "vmod"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["boundary"] == "upper"

    def test_snr_locked_report(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "locked.ini",
            """\
[link]
distance_km = 30
xi_ch = 0.02
t_rec = 1.0
xi_rec = 0.0
detection = homodyne
trust = trusted_receiver

[protocol]
beta = 0.95

[optimize]
snr_target = 1.0
""",
        )
        assert main(["optimize", "--config", cfg, "--mode", "vmod_trec_snr"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["snr_residual"] < 1e-9
        assert out["rate"]["secret_fraction"] > 0

    def test_unreachable_snr_exits_3(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "unreachable.ini",
            """\
[link]
t_ch = 0.0001
xi_ch = 0.02
t_rec = 0.5
xi_rec = 0.0
detection = homodyne
trust = trusted_receiver

[protocol]
beta = 0.95

[optimize]
snr_target = 1.0
vmod_hi = 10
""",
        )
        assert main(["optimize", "--config", cfg, "--mode", "vmod_trec_snr"]) == 3
        assert "constraint" in capsys.readouterr().err

    def test_untrusted_snr_lock_rejected(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "locked.ini",
            """\
[link]
distance_km = 30
xi_ch = 0.02
t_rec = 0.9
xi_rec = 0.0
detection = homodyne
trust = untrusted_all

[protocol]
beta = 0.95

[optimize]
snr_target = 1.0
""",
        )
        assert main(["optimize", "--config", cfg, "--mode", "vmod_trec_snr"]) == 2


    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["snr_target", "vmod_lo", "vmod_hi", "t_rec_floor"])
    def test_non_finite_option_exits_2(self, tmp_path, capsys, key, value):
        text = (ROOT / "configs" / "snr_locked.ini").read_text() + f"{key} = {value}\n"
        text = re.sub(rf"^{key} = (?!{value}).*\n", "", text, flags=re.M)
        cfg = write(tmp_path, "bad.ini", text)
        assert main(["optimize", "--config", cfg, "--mode", "vmod_trec_snr"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: optimize.{key} must be finite")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["vmod", "vmod_trec_snr"])
    @pytest.mark.parametrize("value", ["0", "-1", "1.5"])
    def test_t_rec_floor_outside_unit_interval_exits_2(self, tmp_path, capsys, value, mode):
        text = (ROOT / "configs" / "snr_locked.ini").read_text() + f"t_rec_floor = {value}\n"
        cfg = write(tmp_path, "bad.ini", text)
        assert main(["optimize", "--config", cfg, "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"configuration error: optimize.t_rec_floor must lie in (0, 1], got {float(value)}\n"
        )

    @pytest.mark.parametrize("mode", ["vmod", "vmod_trec_snr"])
    @pytest.mark.parametrize("line, message", [
        ("vmod_hi = -5", "optimize.vmod_hi must exceed vmod_lo = 0.001, got -5.0"),
        ("vmod_hi = 0", "optimize.vmod_hi must exceed vmod_lo = 0.001, got 0.0"),
        ("vmod_hi = 1e-3", "optimize.vmod_hi must exceed vmod_lo = 0.001, got 0.001"),
        ("vmod_lo = 2e3", "optimize.vmod_hi must exceed vmod_lo = 2000.0, got 1000.0"),
        ("vmod_lo = 0", "optimize.vmod_lo must be positive, got 0.0"),
        ("vmod_lo = -1", "optimize.vmod_lo must be positive, got -1.0"),
    ], ids=["hi-negative", "hi-zero", "hi-equal-lo", "lo-above-hi", "lo-zero", "lo-negative"])
    def test_vmod_bounds_out_of_order_exit_2(self, tmp_path, capsys, line, message, mode):
        key = line.split(" = ")[0]
        text = re.sub(rf"^{key} = .*$", line, (ROOT / "configs" / "snr_locked.ini").read_text(), flags=re.M)
        cfg = write(tmp_path, "bad.ini", text)
        assert main(["optimize", "--config", cfg, "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {message}\n"

    def test_infinite_vmod_cap_prints_one_stderr_line(self, tmp_path):
        text = (ROOT / "configs" / "snr_locked.ini").read_text().replace("vmod_hi = 1e3", "vmod_hi = inf")
        cfg = write(tmp_path, "bad.ini", text)
        proc = run_cli("optimize", "--config", cfg, "--mode", "vmod")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("configuration error: optimize.vmod_hi must be finite")
        assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["rate", "optimize", "sweep"])
def test_key_rate_overflow_exits_2(tmp_path, command):
    # a finite f_sym whose key rate overflows a double is rejected, never printed as inf
    csv_path = tmp_path / "x.csv"
    out = ["--out", str(csv_path)] if command == "sweep" else []
    proc = run_cli(command, *out, "--config", str(ROOT / "tests" / "data" / "overflow_key_rate.ini"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("invalid input: f_sym = 1.7e+308 ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not csv_path.exists()


def test_module_is_runnable_as_script(tmp_path):
    cfg = tmp_path / "point.ini"
    cfg.write_text(POINT_CONFIG)
    proc = run_cli("rate", "--config", str(cfg))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["secret_fraction"] > 0


# Exact bytes of the shipped configs' outputs; a refactor of the front end
# or the library must reproduce them unchanged.
GOLDEN = [
    (["rate", "--config", "configs/point.ini"], "golden_rate_point.json"),
    (["optimize", "--config", "configs/point.ini", "--mode", "vmod"], "golden_optimize_point_vmod.json"),
    (
        ["optimize", "--config", "configs/snr_locked.ini", "--mode", "vmod_trec_snr"],
        "golden_optimize_snr_locked.json",
    ),
    (["sweep", "--config", "configs/distance_sweep.ini"], "golden_sweep_distance.csv"),
    (["rate", "--config", "tests/data/rate_vmod_1e19.ini"], "golden_rate_vmod_1e19.json"),
]

# Non-optimized sweeps: every sweep variable, both detections, all three
# trust cases, with and without f_sym, and grids that start at zero noise
# or end at t_rec = 1. Captured from the per-row evaluation before sweeps
# were evaluated as arrays.
GOLDEN_SWEEPS = [
    (["sweep", "--config", f"tests/data/sweep_{variable}.ini", "--detection", detection],
     f"golden_sweep_{variable}_{detection}.csv")
    for variable in ("distance_km", "xi_rec", "t_rec", "xi_pr", "xi_ch", "v_mod")
    for detection in ("hom", "het")
]


@pytest.mark.parametrize("argv, golden", GOLDEN + GOLDEN_SWEEPS, ids=[g for _, g in GOLDEN + GOLDEN_SWEEPS])
def test_shipped_configs_match_golden_bytes(tmp_path, argv, golden):
    argv = [str(ROOT / a) if a.startswith(("configs/", "tests/")) else a for a in argv]
    out = tmp_path / golden
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "data" / golden).read_bytes()


# The output contract over generated INI files: every command exits 0 or 2
# (3 only for an unreachable SNR lock), a failure prints one stderr line and
# no traceback, and a success prints strict JSON or a CSV of finite numbers.
# main runs in process, so an escaped exception or a numpy RuntimeWarning
# (an error under this suite's filterwarnings) fails the example outright.
_EDGE_VALUES = (0.0, 5e-324, 1e-300, 1.0 - 1e-16, 1e19, 1e150, 1.7e308)
_TEXT_COLUMNS = {"variable_name", "trust", "detection"}


def _contract_config(seed, command, optimize_vmod=False):
    # one INI file per seed; drawing its values from a seeded generator, not
    # one hypothesis draw each, keeps an example near 1 ms
    rng = random.Random(seed)

    def num(lo, hi):
        # an edge value one time in four, else log-uniform over [10**lo, 10**hi]
        return rng.choice(_EDGE_VALUES) if rng.random() < 0.25 else 10.0 ** rng.uniform(lo, hi)

    def maybe(value):
        return value if rng.random() < 0.5 else None

    def section(name, keys):
        return f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items() if v is not None)

    by_fibre = rng.random() < 0.5
    link = {
        "v_mod": num(-3, 4) if command == "rate" else maybe(num(-3, 4)),
        "xi_pr": maybe(num(-9, 0)),
        "t_ch": None if by_fibre else num(-4, 0),
        "distance_km": num(-2, 3) if by_fibre else None,
        "xi_ch": num(-9, 0),
        "t_rec": num(-3, 0),
        "xi_rec": num(-9, 1),
        "detection": rng.choice(list(Detection)).value,
        "trust": rng.choice(list(Trust)).value,
    }
    protocol = {"beta": num(-2, 0), "fer": maybe(num(-6, 0)),
                "disclosed_fraction": maybe(num(-6, 0)), "f_sym": maybe(num(0, 12))}
    text = section("link", link) + section("protocol", protocol)
    if by_fibre:
        text += section("fiber", {"attenuation_db_per_km": maybe(num(-3, 0))})
    if command == "optimize":
        text += section("optimize", {"snr_target": num(-3, 2), "vmod_lo": maybe(num(-4, 1)),
                                     "vmod_hi": maybe(num(0, 4)), "t_rec_floor": maybe(num(-4, 0))})
    if command == "sweep":
        start, stop = sorted([num(-9, 3), num(-9, 3)])
        trusts = rng.sample(list(Trust), rng.randint(1, 3))
        text += section("sweep", {"variable": rng.choice(SWEEP_VARIABLES), "start": start, "stop": stop,
                                  "points": rng.randint(2, 5), "scale": rng.choice(["linear", "log"]),
                                  "trust_cases": ", ".join(t.value for t in trusts),
                                  "optimize_vmod": str(optimize_vmod).lower()})
    return text


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def _assert_output_contract(directory, seed, command, mode=None, optimize_vmod=False):
    text = _contract_config(seed, command, optimize_vmod)
    cfg, out = directory / "case.ini", directory / "case.csv"
    cfg.write_text(text)
    out.unlink(missing_ok=True)
    argv = [command, "--config", str(cfg)]
    argv += ["--out", str(out)] if command == "sweep" else []
    argv += ["--mode", mode] if mode else []
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in ((0, 2, 3) if mode == "vmod_trec_snr" else (0, 2)), text
    if code:
        assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().endswith("\n"), text
        assert stdout.getvalue() == "" and not out.exists(), text
        return
    assert stderr.getvalue() == "", text
    if command != "sweep":
        json.loads(stdout.getvalue(), parse_constant=_reject_constant)
        return
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, text
    for row in rows:
        for column, cell in row.items():
            if column not in _TEXT_COLUMNS and cell != "":
                assert math.isfinite(float(cell)), (column, cell, text)


def _reject_constant(name):
    raise ValueError(f"JSON output holds {name}")


_SEEDS = st.integers(0, 2**32 - 1)


class TestOutputContract:
    # examples per command: rate 300, each optimize mode 120, sweep 120 and
    # sweep with optimize_vmod 50; about 3 s in all
    @given(_SEEDS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_rate(self, contract_dir, seed):
        _assert_output_contract(contract_dir, seed, "rate")

    @given(_SEEDS)
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_optimize_vmod(self, contract_dir, seed):
        _assert_output_contract(contract_dir, seed, "optimize", mode="vmod")

    @given(_SEEDS)
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_optimize_vmod_trec_snr(self, contract_dir, seed):
        _assert_output_contract(contract_dir, seed, "optimize", mode="vmod_trec_snr")

    @given(_SEEDS)
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_sweep(self, contract_dir, seed):
        _assert_output_contract(contract_dir, seed, "sweep")

    @given(_SEEDS)
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_sweep_optimize_vmod(self, contract_dir, seed):
        _assert_output_contract(contract_dir, seed, "sweep", optimize_vmod=True)
