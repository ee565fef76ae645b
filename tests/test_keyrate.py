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
from cvrate.keyrate import snr
from cvrate.cloner import _args
from cvrate.keyrate import _rates, _swept_rates


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


def mutual_information(p):
    return evaluate(p, ProtocolParams(beta=1.0)).i_ab


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


class TestHugeInputs:
    """A huge but finite input either evaluates to finite numbers, the
    eigenvalues included, or is rejected; it never yields NaN or infinity."""

    BASES = [make(), make(t_ch=1.0, xi_ch=0.0, t_rec=1.0, xi_rec=0.0),
             make(t_ch=1e-3, xi_pr=0.02), make(t_ch=1.0, xi_ch=0.05, xi_pr=0.02)]

    @pytest.mark.parametrize("value", [1e6, 1e20, 1e154, 1e300, 1.7e308])
    @pytest.mark.parametrize("field", ["v_mod", "xi_rec", "xi_pr"])
    def test_finite_or_rejected(self, field, value):
        proto = ProtocolParams(beta=0.95, f_sym=1e8)
        for base, detection, trust in itertools.product(self.BASES, Detection, Trust):
            p = replace(base, detection=detection, trust=trust, **{field: value})
            try:
                res = evaluate(p, proto)
            except (DomainError, ArithmeticError):
                continue
            values = [res.snr, res.i_ab, res.chi_eb, res.secret_fraction, res.key_rate, *res.eigs]
            assert all(math.isfinite(x) for x in values), (p, values)


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
        assert _outcome(lambda: _rates(beta, *_args(p))[3]) == expected


def _rows_against_evaluate(p, field, values, beta=0.95):
    """Check every row _swept_rates gives numbers for against evaluate, bit
    for bit; return the indices it leaves to the float path."""
    proto = ProtocolParams(beta=beta)
    rows = _swept_rates(beta, _args(p), field, values)
    assert len(rows) == len(values)
    for value, row in zip(values, rows):
        if row is not None:
            res = evaluate(replace(p, **{field: value}), proto)  # a row with numbers is one evaluate accepts
            assert repr(row) == repr([res.snr, res.i_ab, res.chi_eb, res.secret_fraction])
    return [i for i, row in enumerate(rows) if row is None]


class TestSweptRates:
    """A sweep grid in one pass through the closed forms, the swept field a
    gaussian.Column: every row the pass gives numbers for has evaluate's
    bits, and every row evaluate rejects is left to the float path."""

    transmittance = st.one_of(st.floats(min_value=1e-12, max_value=1.0),
                              st.sampled_from([1.0, 1.0 - 1e-12, 1.0 - 1e-7, 1e-200]))
    noise = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=10.0),
                      st.sampled_from([1e-3, 1e-2]))
    modulation = st.one_of(st.floats(min_value=1e-6, max_value=1e6), st.sampled_from([1e-3, 1e16, 1e19]))
    invalid = st.sampled_from([-0.1, -0.0, math.nan, math.inf, 1.5])
    values = {
        "v_mod": st.one_of(modulation, invalid),
        "t_ch": st.one_of(transmittance, invalid, st.just(0.0)),
        "xi_ch": st.one_of(noise, invalid),
        "t_rec": st.one_of(transmittance, invalid, st.just(0.0)),
        "xi_rec": st.one_of(noise, invalid),
        "xi_pr": st.one_of(noise, invalid),
    }

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_evaluate_bit_for_bit(self, data):
        p = make(v_mod=data.draw(self.modulation), t_ch=data.draw(self.transmittance),
                 xi_ch=data.draw(self.noise), t_rec=data.draw(self.transmittance),
                 xi_rec=data.draw(self.noise), xi_pr=data.draw(self.noise),
                 detection=data.draw(st.sampled_from(Detection)), trust=data.draw(st.sampled_from(Trust)))
        field = data.draw(st.sampled_from(sorted(self.values)))
        values = data.draw(st.lists(self.values[field], min_size=2, max_size=12))
        _rows_against_evaluate(p, field, values, beta=data.draw(st.floats(min_value=0.0, max_value=1.0)))

    @pytest.mark.parametrize("detection, trust", [(Detection.HETERODYNE, Trust.TRUSTED_RECEIVER),
                                                  (Detection.HOMODYNE, Trust.TRUSTED_RECEIVER),
                                                  (Detection.HETERODYNE, Trust.TRUSTED_RECEIVER_AND_PREPARATION)])
    def test_snap_band_is_clamped_on_the_column(self, detection, trust):
        # noiseless links: one eigenvalue of a pair is 1 and rounds to just below it
        p = make(v_mod=1e-3, t_ch=0.3, xi_ch=0.0, t_rec=0.5, xi_rec=0.0, detection=detection, trust=trust)
        values = [0.4, 0.45, 0.5, 0.55, 0.6]
        assert _rows_against_evaluate(p, "t_rec", values) == []
        proto = ProtocolParams(beta=0.95)
        assert all(min(evaluate(replace(p, t_rec=t), proto).eigs) == 1.0 for t in values)

    def test_untrusted_heterodyne_unit_eigenvalue(self):
        # the folded conditional pair holds an eigenvalue that is exactly 1 in
        # exact arithmetic; it rounds to either side of 1 from row to row
        p = make(t_ch=0.3, xi_ch=0.02, t_rec=0.7, xi_rec=0.05, trust=Trust.UNTRUSTED_ALL)
        values = [0.001 * k for k in range(1, 41)]
        assert _rows_against_evaluate(p, "xi_ch", values) == []
        proto = ProtocolParams(beta=0.95)
        last = [evaluate(replace(p, xi_ch=x), proto).eigs[3] for x in values]
        assert all(abs(nu - 1.0) < 1e-15 for nu in last)
        assert {nu == 1.0 for nu in last} == {True, False}  # snapped rows and rows just above 1

    def test_channel_noise_cap_rows_go_to_the_float_path(self):
        p = make(t_ch=1.0 - 1e-6, xi_ch=0.001)
        values = [0.001, 0.005, 0.02, 0.05]  # W_ch of about 1e3, 5e3, 2e4 and 5e4 SNU
        assert _rows_against_evaluate(p, "xi_ch", values) == [2, 3]
        with pytest.raises(DomainError, match="beyond the supported"):
            evaluate(replace(p, xi_ch=0.02), ProtocolParams(beta=0.95))

    def test_underflowing_end_to_end_transmittance(self):
        p = make(t_ch=1e-200, trust=Trust.UNTRUSTED_ALL)
        assert _rows_against_evaluate(p, "t_rec", [1e-200, 1e-100, 0.5]) == [0]
        with pytest.raises(DomainError, match=r"t_ch must lie in \(0, 1\], got 0.0"):
            evaluate(replace(p, t_rec=1e-200), ProtocolParams(beta=0.95))

    @pytest.mark.parametrize("field", ["xi_ch", "xi_rec", "xi_pr"])
    @pytest.mark.parametrize("trust", list(Trust))
    def test_zero_noise_row(self, field, trust):
        p = make(xi_pr=0.05, trust=trust)
        redo = _rows_against_evaluate(p, field, [0.0, 0.01, 0.02, 0.03])
        if field == "xi_pr":  # zero preparation noise takes no branch of its own
            assert redo == []
        else:
            assert set(redo) <= {0}

    @pytest.mark.parametrize("field, values", [("t_ch", [0.5, -0.1, 0.0, 1.5, math.nan]),
                                               ("xi_rec", [0.1, -0.1, math.inf, math.nan])])
    def test_values_linkparams_rejects_go_to_the_float_path(self, field, values):
        assert _rows_against_evaluate(make(), field, values) == list(range(1, len(values)))

    @pytest.mark.parametrize("detection", list(Detection))
    @pytest.mark.parametrize("trust", list(Trust))
    def test_typical_grid_needs_no_float_path(self, detection, trust):
        p = make(xi_pr=0.05, detection=detection, trust=trust)
        grid = [10.0 ** (-0.02 * d) for d in range(1, 81)]  # 1 to 80 km of 0.2 dB/km fibre
        assert _rows_against_evaluate(p, "t_ch", grid) == []
