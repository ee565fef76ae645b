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
from cvrate.cloner import _args, _link_stage
from cvrate.keyrate import _secret_fraction, _swept_rates


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


_NOISE = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=0.5))


def _secret_fractions(link):
    # beta = 1 secret fraction per trust case
    proto = ProtocolParams(beta=1.0)
    return {trust: evaluate(replace(link, trust=trust), proto).secret_fraction for trust in Trust}


def _trust_order_holds(secret):
    pairs = [(Trust.UNTRUSTED_ALL, Trust.TRUSTED_RECEIVER),
             (Trust.TRUSTED_RECEIVER, Trust.TRUSTED_RECEIVER_AND_PREPARATION)]
    return all(secret[lo] <= secret[hi] + 1e-9 for lo, hi in pairs)


class TestPhysicsInvariants:
    """Bounds that judge a rate with no second implementation, on v_mod up to
    1e19."""

    LINKS = st.builds(
        LinkParams,
        v_mod=st.floats(min_value=1e-3, max_value=1e19),
        t_ch=st.floats(min_value=1e-4, max_value=1.0),
        xi_ch=_NOISE,
        t_rec=st.floats(min_value=0.05, max_value=1.0),
        xi_rec=_NOISE,
        xi_pr=_NOISE,
        detection=st.sampled_from(Detection),
        trust=st.just(Trust.UNTRUSTED_ALL),
    )

    @given(link=LINKS)
    @settings(derandomize=True, deadline=None, max_examples=300)
    def test_repeaterless_capacity_bound(self, link):
        # no protocol beats -log2(1 - T) (PLOB); trusted loss is a local
        # operation, so T is the transmittance credited to the eavesdropper
        for trust, secret in _secret_fractions(link).items():
            t = link.t_tot if trust is Trust.UNTRUSTED_ALL else link.t_ch
            if t < 1.0:
                assert secret <= -math.log2(1.0 - t) + 1e-9, (trust, secret)

    @given(link=LINKS)
    @settings(derandomize=True, deadline=None, max_examples=300)
    def test_trust_order(self, link):
        # the receiver's statistics do not depend on trust, and trusting a
        # device only takes from the eavesdropper
        assert _trust_order_holds(_secret_fractions(link))

    def test_trust_order_at_large_modulation(self):
        # the W-form's smaller roots cancelled here: untrusted came out above
        # trusted_receiver by 1.1e-8
        link = LinkParams(v_mod=6734.665810808852, t_ch=1.8193136017859748e-4,
                          t_rec=0.265780443346881, xi_ch=1.3666315688923624e-9, xi_rec=0.0,
                          xi_pr=5.376916336498614e-9, detection=Detection.HOMODYNE,
                          trust=Trust.UNTRUSTED_ALL)
        assert _trust_order_holds(_secret_fractions(link))


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
        assert _outcome(lambda: _secret_fraction(beta, _link_stage(*_args(p)[1:]), p.v_mod)) == expected


def _rows_against_evaluate(p, field, values, beta=0.95):
    """Check every row _swept_rates gives against evaluate, bit for bit;
    return the indices it leaves to the float path: none, or all of them."""
    proto = ProtocolParams(beta=beta)
    rows = _swept_rates(beta, _args(p), field, values)
    if rows is None:
        return list(range(len(values)))
    assert len(rows) == len(values)
    for value, row in zip(values, rows):
        res = evaluate(replace(p, **{field: value}), proto)  # every row is one evaluate accepts
        assert repr(row) == repr([res.snr, res.i_ab, res.chi_eb, res.secret_fraction])
    return []


class TestSweptRates:
    """A sweep grid in one pass through the closed forms, the swept field a
    gaussian.Column: a grid the pass gives numbers for has evaluate's bits on
    every row, and a grid with a row evaluate rejects is left whole to the
    float path."""

    transmittance = st.one_of(st.floats(min_value=1e-12, max_value=1.0),
                              st.sampled_from([1.0, 1.0 - 1e-12, 1.0 - 1e-7, 1e-200]))
    noise = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=10.0),
                      st.sampled_from([1e-3, 1e-2]))
    modulation = st.one_of(st.floats(min_value=1e-6, max_value=1e6), st.sampled_from([1e-3, 1e16, 1e19]))
    values = {"v_mod": modulation, "t_ch": transmittance, "xi_ch": noise,
              "t_rec": transmittance, "xi_rec": noise, "xi_pr": noise}
    # most of these LinkParams rejects in some field (0.0 is no transmittance)
    edge = st.sampled_from([-0.1, -0.0, 0.0, math.nan, math.inf, 1.5])

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_rows_match_evaluate_bit_for_bit(self, data):
        p = make(v_mod=data.draw(self.modulation), t_ch=data.draw(self.transmittance),
                 xi_ch=data.draw(self.noise), t_rec=data.draw(self.transmittance),
                 xi_rec=data.draw(self.noise), xi_pr=data.draw(self.noise),
                 detection=data.draw(st.sampled_from(Detection)), trust=data.draw(st.sampled_from(Trust)))
        field = data.draw(st.sampled_from(sorted(self.values)))
        values = data.draw(st.lists(self.values[field], min_size=2, max_size=12))
        if data.draw(st.integers(0, 3)) == 0:  # one grid in four holds an edge value
            values.insert(data.draw(st.integers(0, len(values))), data.draw(self.edge))
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

    def test_untrusted_conditional_pair_holds_an_exact_unit_eigenvalue(self):
        # with nothing trusted the conditional pair is A's eigenvalue and a
        # pure mode: exactly 1 on every row, with no row left to the float path
        p = make(t_ch=0.3, xi_ch=0.02, t_rec=0.7, xi_rec=0.05, trust=Trust.UNTRUSTED_ALL)
        values = [0.001 * k for k in range(1, 41)]
        assert _rows_against_evaluate(p, "xi_ch", values) == []
        proto = ProtocolParams(beta=0.95)
        assert all(evaluate(replace(p, xi_ch=x), proto).eigs[3] == 1.0 for x in values)

    def test_nearly_lossless_noisy_channel_rows_stay_on_the_column(self):
        # a noise-source variance W_ch of 1e3 to 5e4 SNU: the channel state
        # has no W, so every row is evaluated, in agreement with the oracle
        from cvrate.purification import oracle_holevo

        p = make(t_ch=1.0 - 1e-6, xi_ch=0.001)
        values = [0.001, 0.005, 0.02, 0.05]
        assert _rows_against_evaluate(p, "xi_ch", values) == []
        for x in values:
            q = replace(p, xi_ch=x)
            assert evaluate(q, ProtocolParams(beta=0.95)).chi_eb == pytest.approx(oracle_holevo(q), abs=1e-10)

    def test_underflowing_end_to_end_transmittance(self):
        # t_ch t_rec = 0: the eavesdropper holds all of the receiver's noise
        # and nothing of the signal, so chi is the entropy of B = 1 + xi_tot
        from cvrate.gaussian import von_neumann_entropy

        p = make(t_ch=1e-200, trust=Trust.UNTRUSTED_ALL)
        assert _rows_against_evaluate(p, "t_rec", [1e-200, 1e-100, 0.5]) == []
        q = replace(p, t_rec=1e-200)
        res = evaluate(q, ProtocolParams(beta=0.95))
        assert res.chi_eb == pytest.approx(von_neumann_entropy([1.0 + q.xi_tot]), abs=1e-15)

    @pytest.mark.parametrize("field", ["xi_ch", "xi_rec", "xi_pr"])
    @pytest.mark.parametrize("trust", list(Trust))
    def test_zero_noise_row(self, field, trust):
        # a zero-noise row takes no branch of its own, so the grid is one pass
        p = make(xi_pr=0.05, trust=trust)
        assert _rows_against_evaluate(p, field, [0.0, 0.01, 0.02, 0.03]) == []

    @pytest.mark.parametrize("field, values", [("t_ch", [0.5, -0.1, 0.0, 1.5, math.nan]),
                                               ("xi_rec", [0.1, -0.1, math.inf, math.nan])])
    def test_values_linkparams_rejects_go_to_the_float_path(self, field, values):
        # one rejected value leaves the whole grid, its valid first row too
        assert _rows_against_evaluate(make(), field, values) == list(range(len(values)))

    @pytest.fixture
    def passes(self, monkeypatch):
        # the trust case of every pass _swept_rates makes over a column: the
        # closed forms run with Column as xp, on the link stage keyrate built last
        import cvrate.keyrate as keyrate
        from cvrate.gaussian import Column

        seen, trust = [], []
        link_stage, closed_forms = keyrate._link_stage, keyrate._closed_forms

        def spy_stage(*link):
            trust[:] = link[-1:]
            return link_stage(*link)

        def spy_forms(stage, v_mod, *xp):
            if xp == (Column,):
                seen.extend(trust)
            return closed_forms(stage, v_mod, *xp)

        monkeypatch.setattr(keyrate, "_link_stage", spy_stage)
        monkeypatch.setattr(keyrate, "_closed_forms", spy_forms)
        return seen

    @pytest.mark.parametrize("detection", list(Detection))
    @pytest.mark.parametrize("trust", list(Trust))
    def test_typical_grid_needs_no_float_path(self, passes, detection, trust):
        p = make(xi_pr=0.05, detection=detection, trust=trust)
        grid = [10.0 ** (-0.02 * d) for d in range(1, 81)]  # 1 to 80 km of 0.2 dB/km fibre
        assert _rows_against_evaluate(p, "t_ch", grid) == []
        assert passes == [trust]

    @pytest.mark.parametrize("detection", list(Detection))
    @pytest.mark.parametrize("trust", list(Trust))
    def test_zero_start_receiver_noise_takes_one_pass(self, passes, detection, trust):
        # the closed forms take no branch on zero noise: with nothing trusted
        # the noiseless row is a pure-loss link, whose smaller eigenvalue is 1
        # and may round to either side of it, and the entropy is one formula
        # on both sides
        p = make(xi_ch=0.0, detection=detection, trust=trust)
        assert _rows_against_evaluate(p, "xi_rec", [0.01 * k for k in range(21)]) == []
        assert passes == [trust]
