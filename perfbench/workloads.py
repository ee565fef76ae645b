"""Seeded inputs, the timed call and the output checks of each workload.

A workload draws a fixed list of inputs from its seed. ``call`` is the timed
top-level call into cvrate; ``check`` runs outside the timed region, raises
``CheckFailure`` when an output is wrong and otherwise returns the units of
work done and the bytes that go into the output digest.

Inputs come from the ranges the README documents: distances of 1-80 km of
0.2 dB/km fibre, both detections, all three trust cases, non-zero
preparation noise and ``v_mod`` inside the default search interval
``[1e-3, 1e3]``. Draws are never filtered by outcome: an input cvrate fails
on stays in the list and counts as a failed call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random

CHI_TOL = 1e-8  # closed forms against the oracle, as in the acceptance suite
SNR_RESIDUAL_TOL = 1e-9  # the SNR lock the optimizer itself promises
PRINT_REL = 1e-11  # two roundings to the 12 significant digits cvrate prints

VMOD_BOUNDS = (1e-3, 1e3)  # default [optimize] vmod_lo / vmod_hi
ATTENUATION_DB_PER_KM = 0.2  # default [fiber] attenuation
TRUSTS = ("untrusted_all", "trusted_receiver", "trusted_receiver_and_preparation")
TRUSTED = TRUSTS[1:]
DETECTIONS = ("homodyne", "heterodyne")
# the documented CSV format; spelled out here so that a change to it fails the check
CSV_COLUMNS = [
    "variable_name", "value", "trust", "detection", "v_mod", "t_ch", "xi_ch",
    "t_rec", "xi_rec", "xi_pr", "snr", "i_ab", "chi_eb", "secret_fraction", "key_rate",
]
NUMERIC_COLUMNS = CSV_COLUMNS[4:14]


class CheckFailure(Exception):
    """An output that is missing, malformed or numerically wrong."""


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _draw_link(rng: random.Random, trusts=TRUSTS) -> dict:
    return {
        "xi_pr": rng.uniform(0.01, 0.2),
        "distance_km": rng.uniform(1.0, 80.0),
        "xi_ch": rng.uniform(0.001, 0.05),
        "t_rec": rng.uniform(0.5, 1.0),
        "xi_rec": rng.uniform(0.0, 0.1),
        "detection": rng.choice(DETECTIONS),
        "trust": rng.choice(trusts),
    }


def _draw_protocol(rng: random.Random) -> dict:
    proto = {
        "beta": rng.uniform(0.9, 0.98),
        "fer": rng.uniform(0.0, 0.1),
        "disclosed_fraction": rng.uniform(0.0, 0.2),
    }
    if rng.random() < 0.5:  # half the configs report bits/symbol only
        proto["f_sym"] = 1e8
    return proto


def _ini(sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                     for key, value in keys.items())
        lines.append("")
    return "\n".join(lines)


def _t_ch(distance_km: float) -> float:
    return 10.0 ** (-ATTENUATION_DB_PER_KM * distance_km / 10.0)


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= PRINT_REL * scale + 1e-300


def _check_rate(what: str, values: dict, proto: dict) -> None:
    """Finite numbers, and the secret fraction and key rate cvrate promises."""
    for key, value in values.items():
        if value is not None and not math.isfinite(value):
            raise CheckFailure(f"{what}: {key} = {value} is not finite")
    beta_i = proto["beta"] * values["i_ab"]
    sf = values["secret_fraction"]
    if not _close(sf, beta_i - values["chi_eb"], abs(beta_i) + abs(values["chi_eb"]) + abs(sf)):
        raise CheckFailure(f"{what}: secret_fraction {sf!r} != beta*i_ab - chi_eb")
    key_rate = values["key_rate"]
    if "f_sym" not in proto:
        if key_rate is not None:
            raise CheckFailure(f"{what}: key_rate {key_rate!r} without a symbol rate")
        return
    want = proto["f_sym"] * (1.0 - proto["fer"]) * (1.0 - proto["disclosed_fraction"]) * max(sf, 0.0)
    if key_rate is None or not _close(key_rate, want, 2.0 * abs(want)):
        raise CheckFailure(f"{what}: key_rate {key_rate!r}, expected {want!r}")


class Workload:
    """Base class; a subclass sets ``inputs`` and implements the three hooks."""

    name: str
    unit: str  # what one unit of completed work is
    inputs: list

    def __init__(self, cvrate, seed: int, workdir: str):
        self.cv = cvrate
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir

    def call(self, item):
        raise NotImplementedError

    def check(self, item, output) -> tuple[int, bytes]:
        raise NotImplementedError

    def describe(self, item) -> str:
        raise NotImplementedError

    def describe_inputs(self) -> str:
        raise NotImplementedError

    def _oracle_check(self, what: str, params, chi: float) -> None:
        gap = abs(self.cv.oracle(params) - chi)
        if not gap <= CHI_TOL:
            raise CheckFailure(f"{what}: chi_eb {chi!r} is {gap:.3e} from oracle_holevo")


class _ConfigWorkload(Workload):
    """Workloads whose inputs are INI files run through ``cvrate.cli.main``."""

    def _write(self, index: int, sections: dict, **extra) -> dict:
        path = f"{self.workdir}/{self.name}-{index}.ini"
        text = _ini(sections)
        with open(path, "w") as fh:
            fh.write(text)
        return {"index": index, "config": path, "text": text, "proto": sections["protocol"], **extra}

    def describe(self, item) -> str:
        return f"config {item['config']}:\n{item['text']}"

    def _read(self, rc) -> bytes:
        """The call's output file, removed so that the next call must write its own."""
        if rc != 0:
            raise CheckFailure(f"exit code {rc}")
        try:
            with open(self.out, "rb") as fh:
                data = fh.read()
            os.remove(self.out)
        except OSError as exc:
            raise CheckFailure(f"output file: {exc}") from None
        return data


class SweepWorkload(_ConfigWorkload):
    """``cvrate sweep --jobs 1`` on generated configs; one unit is one CSV row."""

    unit = "rows"
    oracle_rows = 1  # seeded sample of rows per call re-checked against the oracle

    def __init__(self, cvrate, seed, workdir):
        super().__init__(cvrate, seed, workdir)
        self.out = f"{workdir}/{self.name}.csv"
        self.inputs = [self._draw(i) for i in range(self.n_inputs)]
        self.argv = [["sweep", "--config", item["config"], "--out", self.out, "--jobs", "1"]
                     for item in self.inputs]

    def _draw(self, index: int) -> dict:
        link = _draw_link(self.rng)
        proto = _draw_protocol(self.rng)
        sweep = self._draw_sweep(link)
        sweep.update(points=self.points, trust_cases=", ".join(TRUSTS),
                     optimize_vmod=str(self.optimize).lower())
        rows = self.points * len(TRUSTS)
        sample = self.rng.sample(range(rows), self.oracle_rows)
        sections = {"link": link, "protocol": proto,
                    "fiber": {"attenuation_db_per_km": ATTENUATION_DB_PER_KM}, "sweep": sweep}
        return self._write(index, sections, rows=rows, sample=sample)

    def call(self, item):
        return self.cv.cli.main(self.argv[item["index"]])

    def describe_inputs(self) -> str:
        return (f"configs, each a sweep of {self.points} points x {len(TRUSTS)} trust cases "
                f"= {self.points * len(TRUSTS)} rows per call, optimize_vmod = "
                f"{str(self.optimize).lower()}, {self.oracle_rows} row(s) per call re-checked "
                "against oracle_holevo")

    def check(self, item, rc) -> tuple[int, bytes]:
        data = self._read(rc)
        rows = list(csv.reader(io.StringIO(data.decode())))
        if not rows or rows[0] != CSV_COLUMNS:
            raise CheckFailure(f"CSV header {rows[:1]} != {CSV_COLUMNS}")
        rows = rows[1:]
        if len(rows) != item["rows"]:
            raise CheckFailure(f"{len(rows)} CSV rows, expected {item['rows']}")
        for n, row in enumerate(rows, 1):
            if len(row) != len(CSV_COLUMNS):
                raise CheckFailure(f"row {n} has {len(row)} cells")
            cells = dict(zip(CSV_COLUMNS, row))
            try:
                values = {key: float(cells[key]) for key in NUMERIC_COLUMNS}
                values["key_rate"] = float(cells["key_rate"]) if cells["key_rate"] else None
            except ValueError as exc:
                raise CheckFailure(f"row {n}: {exc}") from None
            _check_rate(f"row {n}", values, item["proto"])
            if self.optimize and not (VMOD_BOUNDS[0] * (1 - PRINT_REL) <= values["v_mod"]
                                      <= VMOD_BOUNDS[1] * (1 + PRINT_REL)):
                raise CheckFailure(f"row {n}: optimized v_mod {values['v_mod']!r} out of bounds")
            if n - 1 in item["sample"]:
                params = self.cv.link_params(
                    detection=cells["detection"], trust=cells["trust"],
                    **{key: values[key] for key in ("v_mod", "t_ch", "xi_ch", "t_rec", "xi_rec", "xi_pr")})
                self._oracle_check(f"row {n}", params, values["chi_eb"])
        return len(rows), data


class SweepOpt(SweepWorkload):
    name = "sweep-opt"
    optimize = True
    points = 2  # x 3 trust cases: 6 optimized rows per call
    n_inputs = 64

    def _draw_sweep(self, link: dict) -> dict:
        start, stop = sorted(self.rng.uniform(1.0, 80.0) for _ in range(2))
        return {"variable": "distance_km", "start": start, "stop": stop, "scale": "linear"}


class SweepDense(SweepWorkload):
    name = "sweep-dense"
    optimize = False
    points = 100  # x 3 trust cases: 300 rows per call
    n_inputs = 64
    oracle_rows = 3
    # sweep variable -> (lo, hi, scale) of the grid; start and stop are drawn inside
    GRIDS = {
        "distance_km": (1.0, 80.0, "linear"),
        "xi_ch": (0.0, 0.1, "linear"),
        "xi_rec": (0.0, 0.2, "linear"),
        "t_rec": (0.3, 1.0, "linear"),
        "xi_pr": (0.01, 0.3, "linear"),
        "v_mod": (VMOD_BOUNDS[0], VMOD_BOUNDS[1], "log"),
    }

    def _draw_sweep(self, link: dict) -> dict:
        link["v_mod"] = _log_uniform(self.rng, *VMOD_BOUNDS)
        variable = self.rng.choice(sorted(self.GRIDS))
        lo, hi, scale = self.GRIDS[variable]
        if scale == "log":
            start, stop = sorted(_log_uniform(self.rng, lo, hi) for _ in range(2))
        else:
            start, stop = sorted(self.rng.uniform(lo, hi) for _ in range(2))
        return {"variable": variable, "start": start, "stop": stop, "scale": scale}


class SnrLock(_ConfigWorkload):
    """``cvrate optimize --mode vmod_trec_snr``; one unit is one optimization."""

    name = "snr-lock"
    unit = "optimizations"
    n_inputs = 256

    def __init__(self, cvrate, seed, workdir):
        super().__init__(cvrate, seed, workdir)
        self.out = f"{workdir}/{self.name}.json"
        self.inputs = [self._draw(i) for i in range(self.n_inputs)]
        self.argv = [["optimize", "--mode", "vmod_trec_snr", "--config", item["config"],
                      "--out", self.out] for item in self.inputs]

    def _draw(self, index: int) -> dict:
        link = _draw_link(self.rng, trusts=TRUSTED)  # detuning needs a trusted receiver
        proto = _draw_protocol(self.rng)
        # With t_rec >= 0.5, 80 km and the largest noises, snr_target = 1.5 needs
        # v_mod of about 280 at the calibrated t_rec: every draw is reachable.
        opt = {"snr_target": self.rng.uniform(0.1, 1.5),
               "vmod_lo": VMOD_BOUNDS[0], "vmod_hi": VMOD_BOUNDS[1]}
        sections = {"link": link, "protocol": proto,
                    "fiber": {"attenuation_db_per_km": ATTENUATION_DB_PER_KM}, "optimize": opt}
        return self._write(index, sections, link=link, target=opt["snr_target"])

    def call(self, item):
        return self.cv.cli.main(self.argv[item["index"]])

    def describe_inputs(self) -> str:
        return ("configs, one `cvrate optimize --mode vmod_trec_snr` per call, "
                "each optimum re-checked against oracle_holevo")

    def check(self, item, rc) -> tuple[int, bytes]:
        data = self._read(rc)
        try:
            report = json.loads(data)
            rate = report["rate"]
            values = {key: rate[key] for key in ("snr", "i_ab", "chi_eb", "secret_fraction", "key_rate")}
            v_mod, t_rec, residual = report["v_mod"], report["t_rec"], report["snr_residual"]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckFailure(f"malformed report: {exc!r}") from None
        if report.get("mode") != "vmod_trec_snr":
            raise CheckFailure(f"mode {report.get('mode')!r}")
        if not (isinstance(residual, float | int) and residual < SNR_RESIDUAL_TOL):
            raise CheckFailure(f"snr_residual {residual!r} not below {SNR_RESIDUAL_TOL}")
        _check_rate("report", values, item["proto"])
        if not _close(values["snr"], item["target"], 4.0 * item["target"]):
            raise CheckFailure(f"snr {values['snr']!r} != target {item['target']!r}")
        link = item["link"]
        if not (0.0 < v_mod <= VMOD_BOUNDS[1] * (1 + PRINT_REL)
                and 0.0 < t_rec <= link["t_rec"] * (1 + PRINT_REL)):
            raise CheckFailure(f"v_mod {v_mod!r} / t_rec {t_rec!r} outside the search region")
        params = self.cv.link_params(
            v_mod=v_mod, t_ch=_t_ch(link["distance_km"]), xi_ch=link["xi_ch"], t_rec=t_rec,
            xi_rec=link["xi_rec"], xi_pr=link["xi_pr"],
            detection=link["detection"], trust=link["trust"])
        self._oracle_check("report", params, values["chi_eb"])
        return 1, data


class OracleCheck(Workload):
    """``holevo_bound`` and ``oracle_holevo`` on one point; one unit is one point."""

    name = "oracle-check"
    unit = "points"
    n_inputs = 4096

    def __init__(self, cvrate, seed, workdir):
        super().__init__(cvrate, seed, workdir)
        self.inputs = []
        for index in range(self.n_inputs):
            link = _draw_link(self.rng)
            link["v_mod"] = _log_uniform(self.rng, *VMOD_BOUNDS)
            link["t_ch"] = _t_ch(link.pop("distance_km"))
            self.inputs.append({"index": index, "params": cvrate.link_params(**link)})

    def call(self, item):
        params = item["params"]
        return self.cv.cloner.holevo_bound(params)[1], self.cv.purification.oracle_holevo(params)

    def check(self, item, output) -> tuple[int, bytes]:
        chi, oracle = output
        if not (math.isfinite(chi) and math.isfinite(oracle) and chi >= 0.0):
            raise CheckFailure(f"chi {chi!r}, oracle {oracle!r}")
        gap = abs(chi - oracle)
        if not gap <= CHI_TOL:
            raise CheckFailure(f"holevo_bound {chi!r} is {gap:.3e} from oracle_holevo {oracle!r}")
        return 1, repr(output).encode()

    def describe(self, item) -> str:
        return repr(item["params"])

    def describe_inputs(self) -> str:
        return "link points, one holevo_bound and one oracle_holevo per call"


WORKLOADS = {w.name: w for w in (SweepOpt, SweepDense, OracleCheck, SnrLock)}
