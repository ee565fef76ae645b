"""The closed forms against the paper's W-form at high precision, and every
numeric cell of the sweep goldens against its 60-digit value."""

import csv
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrate import Detection, DomainError, LinkParams, PhysicalityError, Trust, holevo_bound
from cvrate.cli import CSV_COLUMNS, _fmt
from cvrate.cloner import _args
from cvrate.config import fiber_from_config, link_from_config, load_config, protocol_from_config, sweep_from_config
from cvrate.optimize import optimize_vmod

import _reference

ROOT = Path(__file__).resolve().parents[1]


def _log_uniform(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)


_NOISE = st.one_of(st.just(0.0), _log_uniform(-9, 0))


def _link(detection=Detection.HETERODYNE, trust=Trust.TRUSTED_RECEIVER, **fields):
    return LinkParams(detection=detection, trust=trust, **fields)


# wide links, nearly lossless noisy channels, and large receiver noise; no
# transmittance is 1, where the W-form holds a noisy port 1e-12 open
FAMILIES = st.one_of(
    st.builds(_link, v_mod=_log_uniform(-3, 19), t_ch=_log_uniform(-4, -1e-9), xi_ch=_NOISE,
              t_rec=st.floats(min_value=0.05, max_value=0.999), xi_rec=st.one_of(st.just(0.0), _log_uniform(-9, 1)),
              xi_pr=_NOISE),
    st.builds(_link, v_mod=_log_uniform(-3, 19), t_ch=_log_uniform(-9, -4).map(lambda x: 1.0 - x),
              xi_ch=_log_uniform(-2, 0), t_rec=st.floats(min_value=0.05, max_value=0.999),
              xi_rec=st.one_of(st.just(0.0), _log_uniform(-9, 1)), xi_pr=_NOISE),
    st.builds(_link, v_mod=_log_uniform(-3, 6), t_ch=_log_uniform(-4, -1e-9), xi_ch=_NOISE,
              t_rec=st.floats(min_value=0.05, max_value=0.999), xi_rec=_log_uniform(0, 2.5), xi_pr=_NOISE),
)


def _within_reference_or_rejected(link):
    for detection in Detection:
        for trust in Trust:
            p = replace(link, detection=detection, trust=trust)
            try:
                chi = holevo_bound(p)[1]
            except (DomainError, PhysicalityError):
                continue
            assert abs(chi - _reference.holevo(p)) <= 1e-10, p


class TestWFormReference:
    """The Holevo bound from the channel state agrees with the paper's
    noise-source closed forms, evaluated at a precision that outlasts their
    cancellation, or the link is rejected with a typed error."""

    @given(link=FAMILIES)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_families(self, link):
        _within_reference_or_rejected(link)

    @pytest.mark.parametrize("v_mod", [1e50, 1e100, 1e150])
    def test_huge_modulation(self, v_mod):
        link = _link(v_mod=v_mod, t_ch=0.316227766, xi_ch=0.02, t_rec=0.7, xi_rec=0.05, xi_pr=0.01)
        for detection in Detection:
            for trust in Trust:
                p = replace(link, detection=detection, trust=trust)
                assert abs(holevo_bound(p)[1] - _reference.holevo(p)) <= 1e-10, p

    # links the W-form kernel mispriced or rejected
    @pytest.mark.parametrize("p", [
        # the untrusted pair at v_mod 1e19 is (7.786e18, 1.0822); the W-form gave (7.786e18, 512)
        _link(v_mod=1e19, t_ch=10.0 ** -0.5, xi_ch=0.02, t_rec=0.7, xi_rec=0.05,
              trust=Trust.UNTRUSTED_ALL),
        # large receiver noise near t_rec = 1, once rejected with a negative radicand
        _link(v_mod=3.6365260189997053, t_ch=0.9529085358396177, xi_ch=0.0038529824834342167,
              t_rec=0.999, xi_rec=216.8032979454674, detection=Detection.HOMODYNE,
              trust=Trust.UNTRUSTED_ALL),
        # a noise-source variance W_ch of 1e10 SNU, once beyond the supported 1e4
        _link(v_mod=30.0, t_ch=1.0 - 1e-9, xi_ch=10.0, t_rec=0.6, xi_rec=0.1),
    ], ids=["v_mod-1e19", "xi_rec-216.8", "nearly-lossless"])
    def test_formerly_wrong_links(self, p):
        assert abs(holevo_bound(p)[1] - _reference.holevo(p)) <= 1e-12


# the sweep goldens: (config, detection) -> file
GOLDEN_SWEEPS = [("configs/distance_sweep.ini", None, "golden_sweep_distance.csv")] + [
    (f"tests/data/sweep_{variable}.ini", detection, f"golden_sweep_{variable}_{detection}.csv")
    for variable in ("distance_km", "xi_rec", "t_rec", "xi_pr", "xi_ch", "v_mod")
    for detection in ("hom", "het")
]
_RESULT_COLUMNS = CSV_COLUMNS[-5:]


def _sweep_links(config: str, detection: str | None):
    # the links cvrate sweep evaluates, in its row order, as exact floats
    # (an optimized row at the v_mod the optimizer finds), and the protocol
    cfg = load_config(str(ROOT / config))
    spec = sweep_from_config(cfg)
    base, _ = link_from_config(cfg, detection_override=detection,
                               needs_vmod=not (spec.optimize_vmod or spec.variable == "v_mod"))
    proto, fiber = protocol_from_config(cfg), fiber_from_config(cfg)
    space = np.geomspace if spec.scale == "log" else np.linspace
    links = []
    for value in space(spec.start, spec.stop, spec.points).tolist():
        change = {"t_ch": fiber.t_ch(value)} if spec.variable == "distance_km" else {spec.variable: value}
        for trust in spec.trust_cases:
            p = replace(base, trust=trust, **change)
            links.append(replace(p, v_mod=optimize_vmod(p, proto).v_mod) if spec.optimize_vmod else p)
    return links, proto


def audit(config: str, detection: str | None, rows: list[dict]) -> tuple[list, int]:
    """(cells beyond half a unit of their 12th digit plus 1e-12, count of
    cells not correctly rounded) of a sweep golden's result cells; 1e-12 is
    scaled by the key rate's prefactor in that column."""
    links, proto = _sweep_links(config, detection)
    assert len(links) == len(rows)
    prefactor = None if proto.f_sym is None else proto.f_sym * (1.0 - proto.fer) * (1.0 - proto.disclosed_fraction)
    beyond, misrounded = [], 0
    for i, (p, row) in enumerate(zip(links, rows)):
        assert [row[f] for f in ("v_mod", "t_ch", "xi_ch", "t_rec", "xi_rec", "xi_pr")] == [
            _fmt(getattr(p, f)) for f in ("v_mod", "t_ch", "xi_ch", "t_rec", "xi_rec", "xi_pr")]
        for column, exact in zip(_RESULT_COLUMNS, _reference.exact_rates(proto.beta, _args(p), prefactor)):
            if exact is None:
                assert row[column] == ""
                continue
            cell, exact = float(row[column]), float(exact)
            misrounded += _fmt(exact) != row[column]
            unit = 10.0 ** (math.floor(math.log10(abs(cell))) - 11) if cell else 0.0
            slack = 1e-12 * (prefactor if column == "key_rate" else 1.0)
            if abs(cell - exact) > 0.5 * unit + slack:
                beyond.append((i, column, row[column], exact))
    return beyond, misrounded


def test_sweep_goldens_are_rounded_from_their_exact_values():
    # every result cell of the 13 sweep goldens within half a unit of its
    # 12th digit plus 1e-12 of its 60-digit value; 14 of the 4098 cells are
    # not correctly rounded (the W-form kernel's goldens held 45)
    misrounded = 0
    for config, detection, golden in GOLDEN_SWEEPS:
        with open(ROOT / "tests" / "data" / golden, newline="") as fh:
            beyond, count = audit(config, detection, list(csv.DictReader(fh)))
        assert beyond == [], golden
        misrounded += count
    assert misrounded <= 14
