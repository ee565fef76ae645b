import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cvrate.cli import CSV_COLUMNS, main

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

    def test_infinite_vmod_cap_prints_one_stderr_line(self, tmp_path):
        text = (ROOT / "configs" / "snr_locked.ini").read_text().replace("vmod_hi = 1e3", "vmod_hi = inf")
        cfg = write(tmp_path, "bad.ini", text)
        proc = run_cli("optimize", "--config", cfg, "--mode", "vmod")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("configuration error: optimize.vmod_hi must be finite")
        assert proc.stderr.count("\n") == 1


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
]


@pytest.mark.parametrize("argv, golden", GOLDEN, ids=[g for _, g in GOLDEN])
def test_shipped_configs_match_golden_bytes(tmp_path, argv, golden):
    argv = [str(ROOT / a) if a.startswith("configs/") else a for a in argv]
    out = tmp_path / golden
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "data" / golden).read_bytes()
