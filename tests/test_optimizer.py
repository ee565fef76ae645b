import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cvrate import (
    ConstraintError,
    Detection,
    DomainError,
    FiberModel,
    LinkParams,
    ProtocolParams,
    Trust,
    UsageError,
    evaluate,
    optimize_vmod,
    optimize_vmod_trec_snr_locked,
    snr,
    vmod_for_snr,
)

PROTO = ProtocolParams(beta=0.95)
FIBER = FiberModel()


def make(v_mod=1.0, t_ch=0.5, xi_ch=0.05, t_rec=0.6, xi_rec=0.1, xi_pr=0.0,
         detection=Detection.HETERODYNE, trust=Trust.TRUSTED_RECEIVER):
    return LinkParams(v_mod=v_mod, t_ch=t_ch, xi_ch=xi_ch, t_rec=t_rec, xi_rec=xi_rec,
                      xi_pr=xi_pr, detection=detection, trust=trust)


class TestOptimizeVmod:
    def test_perfect_link_hits_upper_bound(self):
        p = make(t_ch=1.0, xi_ch=0.0, t_rec=1.0, xi_rec=0.0)
        opt = optimize_vmod(p, ProtocolParams(beta=1.0))
        assert opt.boundary == "upper"
        assert opt.v_mod == pytest.approx(1e3, rel=1e-4)

    def test_interior_optimum_is_locally_maximal(self):
        p = make(t_ch=0.1, xi_ch=0.02)
        opt = optimize_vmod(p, PROTO)
        assert opt.boundary is None
        r_star = opt.result.secret_fraction
        r_half = evaluate(replace(p, v_mod=0.5 * opt.v_mod), PROTO).secret_fraction
        r_double = evaluate(replace(p, v_mod=2.0 * opt.v_mod), PROTO).secret_fraction
        assert r_star >= r_half and r_star >= r_double

    def test_invalid_bounds(self):
        with pytest.raises(UsageError):
            optimize_vmod(make(), PROTO, bounds=(1.0, 0.5))

    @pytest.mark.parametrize("bounds", [(1e-3, math.inf), (1e-3, math.nan), (math.nan, 1e3)])
    def test_non_finite_bounds_rejected_before_any_probe(self, bounds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the test
            with pytest.raises(UsageError):
                optimize_vmod(make(), PROTO, bounds=bounds)

    def test_matches_log_grid_scan(self):
        rng = np.random.default_rng(20260808)
        grid = np.geomspace(1e-3, 1e3, 2000)
        du = math.log(grid[1]) - math.log(grid[0])
        for _ in range(3):
            p = make(
                t_ch=float(rng.uniform(0.05, 0.9)),
                xi_ch=float(rng.uniform(0.0, 0.08)),
                t_rec=float(rng.uniform(0.4, 0.95)),
                xi_rec=float(rng.uniform(0.0, 0.2)),
                detection=rng.choice([Detection.HOMODYNE, Detection.HETERODYNE]),
                trust=rng.choice([Trust.UNTRUSTED_ALL, Trust.TRUSTED_RECEIVER]),
            )
            opt = optimize_vmod(p, PROTO)
            rs = [evaluate(replace(p, v_mod=v), PROTO).secret_fraction for v in grid]
            best = int(np.argmax(rs))
            assert opt.result.secret_fraction >= rs[best] - 1e-12
            assert abs(math.log(opt.v_mod) - math.log(grid[best])) <= du


class TestVmodForSnr:
    def test_arithmetic_inversion(self):
        # homodyne, T_tot = 0.3, xi_tot = 0.2 -> v_mod = 1 * 1.2 / 0.3 = 4
        p = make(t_ch=0.3, xi_ch=0.2, t_rec=1.0, xi_rec=0.0, detection=Detection.HOMODYNE)
        assert vmod_for_snr(p, 1.0) == pytest.approx(4.0, abs=1e-13)

    def test_zero_target(self):
        assert vmod_for_snr(make(), 0.0) == 0.0

    def test_negative_target_rejected(self):
        with pytest.raises(DomainError):
            vmod_for_snr(make(), -1.0)

    @pytest.mark.parametrize("target", [0.25, 1.0, 3.7])
    def test_round_trip(self, target):
        p = make(xi_pr=0.1)
        tuned = replace(p, v_mod=vmod_for_snr(p, target))
        assert snr(tuned) == pytest.approx(target, rel=1e-12)


class TestSnrLockedJointSearch:
    def test_requires_trusted_receiver(self):
        with pytest.raises(DomainError):
            optimize_vmod_trec_snr_locked(make(trust=Trust.UNTRUSTED_ALL), PROTO, 1.0)

    def test_no_detuning_when_it_cannot_help(self):
        p = make(t_ch=FIBER.t_ch(5.0), xi_ch=0.01, t_rec=0.7, xi_rec=0.02,
                 detection=Detection.HOMODYNE)
        opt = optimize_vmod_trec_snr_locked(p, PROTO, 1.0)
        assert opt.t_rec == pytest.approx(0.7, rel=1e-6)
        assert opt.boundary == "upper"

    def test_constraint_residual(self):
        for L in (10.0, 40.0, 60.0):
            p = make(t_ch=FIBER.t_ch(L), xi_ch=0.01, t_rec=0.7, xi_rec=0.02,
                     detection=Detection.HOMODYNE)
            opt = optimize_vmod_trec_snr_locked(p, PROTO, 1.0)
            assert opt.snr_residual < 1e-9

    def test_joint_never_below_vmod_only(self):
        for L in np.linspace(5, 60, 8):
            p = make(t_ch=FIBER.t_ch(L), xi_ch=0.02, t_rec=1.0, xi_rec=0.0,
                     detection=Detection.HOMODYNE)
            r_only = evaluate(replace(p, v_mod=vmod_for_snr(p, 1.0)), PROTO).secret_fraction
            opt = optimize_vmod_trec_snr_locked(p, PROTO, 1.0)
            assert opt.result.secret_fraction >= r_only - 1e-12

    def test_detuning_strictly_helps_at_long_distance(self):
        p = make(t_ch=FIBER.t_ch(38.0), xi_ch=0.02, t_rec=1.0, xi_rec=0.0,
                 detection=Detection.HOMODYNE)
        r_only = evaluate(replace(p, v_mod=vmod_for_snr(p, 1.0)), PROTO).secret_fraction
        opt = optimize_vmod_trec_snr_locked(p, PROTO, 1.0)
        assert opt.t_rec < 1.0 - 1e-3
        assert opt.result.secret_fraction > r_only

    def test_matches_brute_force_transmittance_scan(self):
        p = make(t_ch=FIBER.t_ch(45.0), xi_ch=0.02, t_rec=1.0, xi_rec=0.0,
                 detection=Detection.HOMODYNE)
        opt = optimize_vmod_trec_snr_locked(p, PROTO, 1.0)
        rs = []
        for t in np.geomspace(1e-4, 1.0, 2000):
            q = replace(p, t_rec=t)
            v = vmod_for_snr(q, 1.0)
            if v > 1e3:  # outside the feasible region of the constrained search
                continue
            rs.append(evaluate(replace(q, v_mod=v), PROTO).secret_fraction)
        assert opt.result.secret_fraction >= max(rs) - 1e-9

    def test_unreachable_target(self):
        p = make(t_ch=1e-4, t_rec=0.5, detection=Detection.HOMODYNE)
        with pytest.raises(ConstraintError):
            optimize_vmod_trec_snr_locked(p, PROTO, 1.0, vmod_max=10.0)
