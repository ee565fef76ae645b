import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrate import (
    Detection,
    DomainError,
    LinkParams,
    PhysicalityError,
    ProtocolParams,
    Trust,
    evaluate,
)
from cvrate.keyrate import mutual_information, snr
from cvrate.cloner import _args
from cvrate.keyrate import _secret_fraction


def make(v_mod=4.0, t_ch=0.5, xi_ch=0.05, t_rec=0.6, xi_rec=0.1, xi_pr=0.0,
         detection=Detection.HETERODYNE, trust=Trust.TRUSTED_RECEIVER):
    return LinkParams(v_mod=v_mod, t_ch=t_ch, xi_ch=xi_ch, t_rec=t_rec, xi_rec=xi_rec,
                      xi_pr=xi_pr, detection=detection, trust=trust)


class TestProtocolParams:
    def test_beta_is_mandatory(self):
        with pytest.raises(TypeError):
            ProtocolParams()

    @pytest.mark.parametrize(
        "kwargs",
        [dict(beta=1.2), dict(beta=0.95, fer=-0.1), dict(beta=0.95, disclosed_fraction=1.0),
         dict(beta=0.95, f_sym=0.0), dict(beta=math.nan), dict(beta=0.95, fer=math.nan),
         dict(beta=0.95, disclosed_fraction=math.nan), dict(beta=0.95, f_sym=math.nan),
         dict(beta=0.95, f_sym=math.inf)],
    )
    def test_range_validation(self, kwargs):
        with pytest.raises(DomainError):
            ProtocolParams(**kwargs)


class TestSnr:
    def test_zero_modulation(self):
        assert snr(make(v_mod=0.0)) == 0.0

    def test_homodyne_unity_point(self):
        # T_tot = 0.3, xi_tot = 0.2, v_mod = 4 -> 0.3*4 / (1 + 0.2) = 1
        p = make(v_mod=4.0, t_ch=0.3, xi_ch=0.2, t_rec=1.0, xi_rec=0.0,
                 detection=Detection.HOMODYNE)
        assert snr(p) == pytest.approx(1.0, abs=1e-14)

    def test_heterodyne_pays_an_extra_shot_noise_unit(self):
        p = make(v_mod=4.0, t_ch=0.3, xi_ch=0.2, t_rec=1.0, xi_rec=0.0,
                 detection=Detection.HETERODYNE)
        assert snr(p) == pytest.approx(0.3 * 4 / 2.2, abs=1e-14)


class TestMutualInformation:
    def test_snr_one_homodyne(self):
        p = make(v_mod=4.0, t_ch=0.3, xi_ch=0.2, t_rec=1.0, xi_rec=0.0,
                 detection=Detection.HOMODYNE)
        assert mutual_information(p) == pytest.approx(0.5, abs=1e-14)

    def test_snr_one_heterodyne(self):
        # xi_tot tuned so that 2 + xi_tot = T_tot v_mod, i.e. SNR = 1
        p = make(v_mod=4.0, t_ch=0.6, xi_ch=0.4, t_rec=1.0, xi_rec=0.0,
                 detection=Detection.HETERODYNE)
        assert snr(p) == pytest.approx(1.0, abs=1e-14)
        assert mutual_information(p) == pytest.approx(1.0, abs=1e-14)

    def test_zero_modulation(self):
        assert mutual_information(make(v_mod=0.0)) == 0.0


class TestEvaluate:
    def test_perfect_link_full_beta(self):
        p = make(t_ch=1.0, xi_ch=0.0, t_rec=1.0, xi_rec=0.0)
        res = evaluate(p, ProtocolParams(beta=1.0))
        assert res.chi_eb < 1e-9
        assert res.secret_fraction == pytest.approx(res.i_ab, abs=1e-9)
        assert res.secret_fraction > 0

    def test_zero_beta_cannot_yield_key(self):
        res = evaluate(make(), ProtocolParams(beta=0.0, f_sym=1e6))
        assert res.secret_fraction <= 0
        assert res.key_rate == 0.0

    def test_trusted_receiver_beats_untrusted(self):
        proto = ProtocolParams(beta=0.95)
        r_trusted = evaluate(make(trust=Trust.TRUSTED_RECEIVER), proto).secret_fraction
        r_untrusted = evaluate(make(trust=Trust.UNTRUSTED_ALL), proto).secret_fraction
        assert r_trusted > r_untrusted

    def test_key_rate_formula(self):
        proto = ProtocolParams(beta=0.95, fer=0.1, disclosed_fraction=0.2, f_sym=6e8)
        res = evaluate(make(), proto)
        assert res.key_rate == 6e8 * 0.9 * 0.8 * max(res.secret_fraction, 0.0)

    def test_key_rate_absent_without_symbol_rate(self):
        assert evaluate(make(), ProtocolParams(beta=0.95)).key_rate is None

    def test_negative_secret_fraction_reports_zero_rate(self):
        p = make(v_mod=0.5, t_ch=0.01, xi_ch=0.3, trust=Trust.UNTRUSTED_ALL)
        res = evaluate(p, ProtocolParams(beta=0.5, f_sym=1e6))
        assert res.secret_fraction < 0
        assert res.key_rate == 0.0

    def test_eigs_are_reported(self):
        res = evaluate(make(), ProtocolParams(beta=0.95))
        assert len(res.eigs) == 4
        assert all(nu >= 1.0 for nu in res.eigs)


class TestDominanceAndContinuity:
    GRID = list(itertools.product([1.0, 4.0, 16.0], [0.1, 0.5], [0.0, 0.05], [0.5, 0.8],
                                  [0.0, 0.1], [0.0, 0.3],
                                  [Detection.HOMODYNE, Detection.HETERODYNE]))

    def test_trust_ordering(self):
        proto = ProtocolParams(beta=0.95)
        for v, tc, xc, tr, xr, xp, det in self.GRID:
            base = dict(v_mod=v, t_ch=tc, xi_ch=xc, t_rec=tr, xi_rec=xr, xi_pr=xp, detection=det)
            r_un = evaluate(LinkParams(trust=Trust.UNTRUSTED_ALL, **base), proto).secret_fraction
            r_tr = evaluate(LinkParams(trust=Trust.TRUSTED_RECEIVER, **base), proto).secret_fraction
            r_tp = evaluate(
                LinkParams(trust=Trust.TRUSTED_RECEIVER_AND_PREPARATION, **base), proto
            ).secret_fraction
            assert r_tr >= r_un - 1e-10
            if xp > 0:
                assert r_tp >= r_tr - 1e-10

    def test_secret_fraction_is_continuous(self):
        proto = ProtocolParams(beta=0.95)
        base = make()
        r0 = evaluate(base, proto).secret_fraction
        for field in ("v_mod", "t_ch", "xi_ch", "t_rec", "xi_rec"):
            bumped = replace(base, **{field: getattr(base, field) + 1e-8})
            assert abs(evaluate(bumped, proto).secret_fraction - r0) < 1e-5


def _outcome(fn):
    try:
        return repr(fn())
    except (ArithmeticError, DomainError, PhysicalityError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestFloatProbe:
    """The optimizer's probe is evaluate(...).secret_fraction on plain floats:
    the same bits, or the same error, on every link."""

    positive = st.floats(min_value=1e-6, max_value=1e6)
    transmittance = st.one_of(st.just(1.0), st.floats(min_value=1e-12, max_value=1.0))
    noise = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=10.0))

    @given(positive, transmittance, noise, transmittance, noise, noise,
           st.sampled_from(Detection), st.sampled_from(Trust), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=400, deadline=None)
    def test_matches_evaluate_bit_for_bit(self, v_mod, t_ch, xi_ch, t_rec, xi_rec, xi_pr,
                                          detection, trust, beta):
        p = make(v_mod=v_mod, t_ch=t_ch, xi_ch=xi_ch, t_rec=t_rec, xi_rec=xi_rec, xi_pr=xi_pr,
                 detection=detection, trust=trust)
        expected = _outcome(lambda: evaluate(p, ProtocolParams(beta=beta)).secret_fraction)
        assert _outcome(lambda: _secret_fraction(beta, *_args(p))) == expected
