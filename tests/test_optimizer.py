import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cvrate import (
    ConstraintError,
    Detection,
    DomainError,
    LinkParams,
    ProtocolParams,
    Trust,
    UsageError,
    evaluate,
    holevo_bound,
    optimize_vmod,
    optimize_vmod_trec_snr_locked,
)
from cvrate.config import FiberModel
from cvrate.keyrate import snr

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

    @pytest.mark.parametrize("detection", list(Detection))
    @pytest.mark.parametrize("trust", list(Trust))
    def test_probe_call_budget(self, detection, trust):
        # a probe is one flat pass through the closed forms: every Python-level
        # call of the whole search, its set-up and final evaluate included,
        # comes to at most 8 per probe (14.4 when each closed form was a helper)
        from cvrate.keyrate import _secret_fraction

        p = make(v_mod=4.0, t_ch=0.3, xi_ch=0.02, t_rec=0.7, xi_rec=0.05, xi_pr=0.01,
                 detection=detection, trust=trust)
        calls, probes = [0], [0]

        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1
                probes[0] += frame.f_code is _secret_fraction.__code__

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            optimize_vmod(p, PROTO)
        finally:
            sys.setprofile(previous)
        assert probes[0] == 93
        assert calls[0] <= 8 * probes[0]


class TestGoldenMax:
    """The search itself, on objectives of its own."""

    @staticmethod
    def _probes(fn, lo, hi):
        from cvrate.optimize import _golden_max

        seen = []

        def objective(x):
            seen.append(x)
            return fn(x)

        return _golden_max(objective, lo, hi, prefer_high=False), seen

    def test_coarse_grid_is_linspace_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for lo, hi in [(1e-3, 1e3), (0.5, 0.5000000001), *np.sort(rng.uniform(1e-6, 1e6, (50, 2)))]:
            _, seen = self._probes(lambda x: -abs(math.log(x)), lo, hi)
            grid = np.linspace(math.log(lo), math.log(hi), 64).tolist()
            assert seen[:64] == [math.exp(u) for u in grid]

    def test_coarse_stage_centres_on_the_first_maximum(self):
        # two equal peaks on grid points 10 and 50: golden-section steps stay
        # between the neighbours of the first
        lo, hi = 1e-3, 1e3
        grid = [math.exp(u) for u in np.linspace(math.log(lo), math.log(hi), 64)]
        (x_star, _), seen = self._probes(lambda x: 1.0 if x in (grid[10], grid[50]) else 0.0, lo, hi)
        assert x_star == grid[10]
        assert all(grid[9] <= x <= grid[11] for x in seen[64:])

    @pytest.mark.parametrize("nan_at", [0, 20, 63])
    def test_nan_probe_raises_naming_its_point(self, nan_at):
        lo, hi = 1e-3, 1e3
        grid = [math.exp(u) for u in np.linspace(math.log(lo), math.log(hi), 64)]
        with pytest.raises(DomainError, match=f"the objective is NaN at {grid[nan_at]:.6g}$"):
            self._probes(lambda x: math.nan if x == grid[nan_at] else -abs(math.log(x)), lo, hi)


def vmod_for_snr(p, target):
    # the exact SNR inversion the SNR-locked search makes at every probe
    return target * (p.mu + p.xi_tot) / p.t_tot


class TestVmodForSnr:
    def test_arithmetic_inversion(self):
        # homodyne, T_tot = 0.3, xi_tot = 0.2 -> v_mod = 1 * 1.2 / 0.3 = 4
        p = make(t_ch=0.3, xi_ch=0.2, t_rec=1.0, xi_rec=0.0, detection=Detection.HOMODYNE)
        assert vmod_for_snr(p, 1.0) == pytest.approx(4.0, abs=1e-13)
        # the search's optimum is that inversion at its t_rec, bit for bit
        opt = optimize_vmod_trec_snr_locked(p, PROTO, 1.0)
        assert opt.v_mod == vmod_for_snr(replace(p, t_rec=opt.t_rec), 1.0)

    def test_zero_target(self):
        assert vmod_for_snr(make(), 0.0) == 0.0

    @pytest.mark.parametrize("target", [0.25, 1.0, 3.7])
    def test_round_trip(self, target):
        p = make(xi_pr=0.1)
        tuned = replace(p, v_mod=vmod_for_snr(p, target))
        assert snr(tuned) == pytest.approx(target, rel=1e-12)


class TestSnrLockedJointSearch:
    def test_requires_trusted_receiver(self):
        with pytest.raises(DomainError):
            optimize_vmod_trec_snr_locked(make(trust=Trust.UNTRUSTED_ALL), PROTO, 1.0)

    @pytest.mark.parametrize("target", [0.0, -1.0])
    def test_non_positive_target_rejected(self, target):
        with pytest.raises(DomainError, match="snr_target must be positive"):
            optimize_vmod_trec_snr_locked(make(), PROTO, target)

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

    @pytest.mark.parametrize("floor", [0.0, -1.0, 1.5, math.nan])
    def test_t_rec_floor_outside_unit_interval_is_named(self, floor):
        with pytest.raises(DomainError, match=r"^t_rec_floor must lie in \(0, 1\], got "):
            optimize_vmod_trec_snr_locked(make(), PROTO, 1.0, t_rec_floor=floor)

    def test_t_rec_floor_of_one_searches_just_below_calibration(self):
        opt = optimize_vmod_trec_snr_locked(make(t_rec=1.0, xi_rec=0.0), PROTO, 1.0, t_rec_floor=1.0)
        assert 1.0 - 1e-9 <= opt.t_rec <= 1.0

    def test_unreachable_target(self):
        p = make(t_ch=1e-4, t_rec=0.5, detection=Detection.HOMODYNE)
        with pytest.raises(ConstraintError):
            optimize_vmod_trec_snr_locked(p, PROTO, 1.0, vmod_max=10.0)


# Inputs that still fail, with the exception type and message each entry
# point gives them; (link changes, entry points, error type, message). An
# overflowing state is rejected as a non-finite eigenvalue, never as an
# eigenvalue of 0 below the uncertainty bound.
HOM, HET = Detection.HOMODYNE, Detection.HETERODYNE
UNTRUSTED, TRP = Trust.UNTRUSTED_ALL, Trust.TRUSTED_RECEIVER_AND_PREPARATION
_INF = "symplectic eigenvalue inf is not finite"
_NAN = "symplectic eigenvalue nan is not finite"
_LARGE_VMOD = dict(v_mod=1e20, t_ch=0.316227766, xi_ch=0.02, t_rec=0.7, xi_rec=0.05)
ALL = ("holevo", "evaluate", "optimize_vmod", "snr_locked")
FAILING = [
    (dict(v_mod=1e200), ALL[:3], DomainError, _INF),
    (dict(v_mod=1e200, detection=HOM, trust=TRP), ALL[:3], DomainError, _INF),
    (dict(v_mod=1e200, detection=HOM, trust=UNTRUSTED), ALL[:3], DomainError, _INF),
    (dict(xi_rec=1.7e308), ALL[:3], DomainError, _NAN),
    (dict(xi_rec=1.7e308, detection=HOM, trust=TRP), ALL[:3], DomainError, _NAN),
    (dict(xi_rec=1.7e308, trust=UNTRUSTED), ALL[:3], DomainError, _INF),
    (dict(xi_rec=1.7e308), ALL[3:], ConstraintError,
     "SNR target 1 needs v_mod inf SNU > cap 1000 even at the calibrated t_rec 0.6"),
]

# Inputs the noise-source closed forms rejected (the W cap at t_ch = 1, the
# receiver fold's underflowing t_ch = 0.0, smaller roots cancelled at large
# v_mod) and every entry point now evaluates; (link changes, entry points).
EVALUATED = [
    (dict(t_ch=1.0), ALL),
    (dict(t_ch=1.0, detection=HOM), ALL),
    (dict(t_ch=1.0, xi_ch=0.0, xi_pr=0.1), ALL),
    (dict(t_ch=1.0, xi_ch=0.0, t_rec=1.0, xi_rec=0.0, xi_pr=0.1, trust=UNTRUSTED), ALL[:3]),
    (dict(t_ch=1.0, xi_ch=0.0, t_rec=1.0, xi_rec=0.0, xi_pr=0.1, trust=UNTRUSTED, detection=HOM), ALL[:3]),
    (dict(t_ch=1e-200, t_rec=1e-200, trust=UNTRUSTED), ALL[:3]),
    (dict(t_ch=1e-200, t_rec=1e-200, trust=UNTRUSTED, detection=HOM), ALL[:3]),
    (dict(_LARGE_VMOD, trust=UNTRUSTED, detection=HOM), ALL[:3]),
    (dict(_LARGE_VMOD, trust=UNTRUSTED), ALL[:3]),
    (dict(_LARGE_VMOD, detection=HOM), ALL[:3]),
    (dict(_LARGE_VMOD), ALL[:3]),
    (dict(_LARGE_VMOD, trust=TRP, detection=HOM), ALL[:3]),
    (dict(_LARGE_VMOD, trust=TRP), ALL[:3]),
]


def _call(entry, p):
    if entry == "holevo":
        return holevo_bound(p)
    if entry == "evaluate":
        return evaluate(p, PROTO)
    if entry == "optimize_vmod":
        # bracket the failing v_mod when there is one, so a probe meets it
        bounds = (p.v_mod / 10.0, p.v_mod * 10.0) if p.v_mod > 1e3 else (1e-3, 1e3)
        return optimize_vmod(p, PROTO, bounds=bounds)
    return optimize_vmod_trec_snr_locked(p, PROTO, 1.0)


class TestErrorParity:
    @pytest.mark.parametrize(
        "change, entry, error, message",
        [(change, entry, error, message) for change, entries, error, message in FAILING
         for entry in entries],
    )
    def test_failing_input_keeps_its_error(self, change, entry, error, message):
        with pytest.raises(error) as info:
            _call(entry, make(**{"v_mod": 4.0, **change}))
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "change, entry", [(change, entry) for change, entries in EVALUATED for entry in entries])
    def test_formerly_failing_input_evaluates(self, change, entry):
        # every entry point's chi is holevo_bound's at the link it settled on
        p = make(**{"v_mod": 4.0, **change})
        out = _call(entry, p)
        if entry == "holevo":
            chi = out[1]
        elif entry == "evaluate":
            chi = out.chi_eb
        else:
            p = replace(p, v_mod=out.v_mod, t_rec=getattr(out, "t_rec", p.t_rec))
            chi = out.result.chi_eb
            assert math.isfinite(out.result.secret_fraction) and min(out.result.eigs) >= 1.0
        assert math.isfinite(chi) and chi == holevo_bound(p)[1]

    def test_unreachable_snr_target_keeps_its_error(self):
        p = make(t_ch=1e-4, t_rec=0.5, detection=HOM)
        with pytest.raises(ConstraintError) as info:
            optimize_vmod_trec_snr_locked(p, PROTO, 1.0, vmod_max=10.0)
        assert str(info.value) == (
            "SNR target 1 needs v_mod 22500 SNU > cap 10 even at the calibrated t_rec 0.5"
        )


class TestClampParity:
    """A spectrum value within 1e-9 below 1 snaps to exactly 1, through
    holevo_bound and through an optimizer probe alike."""

    @pytest.fixture
    def below_one(self, monkeypatch):
        import cvrate.cloner as cloner

        seen = []
        clamp = cloner.clamp_spectrum

        def spy(values):
            seen.extend(float(v) for v in values if v < 1.0)
            return clamp(values)

        monkeypatch.setattr(cloner, "clamp_spectrum", spy)
        return seen

    # noiseless links: one eigenvalue of a pair is 1, and rounds to just below it
    @pytest.mark.parametrize("detection, trust, t_ch, t_rec", [
        (HET, Trust.TRUSTED_RECEIVER, 0.5, 0.5), (HOM, Trust.TRUSTED_RECEIVER, 0.3, 0.5),
        (HET, TRP, 0.5, 0.5), (HOM, UNTRUSTED, 0.5, 1.0),
    ])
    def test_holevo_bound_snaps_rounding_to_one(self, below_one, detection, trust, t_ch, t_rec):
        p = make(v_mod=1e-3, t_ch=t_ch, xi_ch=0.0, t_rec=t_rec, xi_rec=0.0, detection=detection,
                 trust=trust)
        pair, _ = holevo_bound(p)
        assert below_one and all(1.0 - 1e-9 <= v < 1.0 for v in below_one)
        assert min(pair.nu_pre + pair.nu_post) == 1.0

    def test_optimizer_probe_snaps_rounding_to_one(self, below_one):
        p = make(t_ch=0.3, xi_ch=0.0, t_rec=0.5, xi_rec=0.0)
        opt = optimize_vmod(p, PROTO, bounds=(1e-3, 1e-2))
        assert below_one and all(1.0 - 1e-9 <= v < 1.0 for v in below_one)
        assert min(opt.result.eigs) == 1.0

    def test_large_modulation_stays_out_of_the_clamp(self, below_one):
        # the W-form's smaller roots cancelled to values far below 1 here
        p = make(**_LARGE_VMOD)
        pair, chi = holevo_bound(p)
        opt = optimize_vmod(p, PROTO, bounds=(1e19, 1e21))
        assert min(pair.nu_pre + pair.nu_post) >= 1.0 and min(opt.result.eigs) >= 1.0
        assert all(1.0 - 1e-9 <= v < 1.0 for v in below_one)
