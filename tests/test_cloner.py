import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from cvrate import (
    Detection,
    DomainError,
    LinkParams,
    Trust,
    holevo_bound,
)
from cvrate.cloner import (
    _args,
    _noise_model,
    effective_v,
    effective_xi_ch,
    noise_source_variances,
    receiver_folded,
)
from cvrate.gaussian import (
    Quadrature,
    condition_heterodyne,
    condition_homodyne,
    epr_state,
    extract_modes,
    symplectic_eigenvalues,
    two_mode_eigs,
    von_neumann_entropy,
)
from cvrate.purification import assemble_and_propagate, eve_state

SZ = np.diag([1.0, -1.0])


def make(v_mod=4.0, t_ch=0.5, xi_ch=0.05, t_rec=0.6, xi_rec=0.1, xi_pr=0.0,
         detection=Detection.HETERODYNE, trust=Trust.TRUSTED_RECEIVER):
    return LinkParams(v_mod=v_mod, t_ch=t_ch, xi_ch=xi_ch, t_rec=t_rec, xi_rec=xi_rec,
                      xi_pr=xi_pr, detection=detection, trust=trust)


def perfect(detection=Detection.HETERODYNE, trust=Trust.TRUSTED_RECEIVER):
    return make(t_ch=1.0, xi_ch=0.0, t_rec=1.0, xi_rec=0.0, detection=detection, trust=trust)


# small cross-section of the full acceptance grid, for fast module-level checks
MINI_GRID = [
    make(v_mod=v, t_ch=tc, xi_ch=xc, t_rec=tr, xi_rec=xr, xi_pr=xp, detection=det, trust=trust)
    for v, tc, xc, tr, xr, xp, det, trust in itertools.product(
        [1.0, 16.0], [0.1, 0.9], [0.0, 0.2], [0.5, 1 - 1e-9], [0.0, 0.1], [0.0, 0.3],
        [Detection.HOMODYNE, Detection.HETERODYNE],
        [Trust.UNTRUSTED_ALL, Trust.TRUSTED_RECEIVER, Trust.TRUSTED_RECEIVER_AND_PREPARATION],
    )
]


class TestLinkParams:
    def test_rejects_negative_modulation(self):
        with pytest.raises(DomainError):
            make(v_mod=-1.0)

    @pytest.mark.parametrize("field", ["xi_pr", "xi_ch", "xi_rec"])
    def test_rejects_negative_noise(self, field):
        with pytest.raises(DomainError, match=field):
            make(**{field: -0.1})

    @pytest.mark.parametrize("field,value", [("t_ch", 0.0), ("t_rec", 1.5), ("t_ch", -0.2)])
    def test_rejects_bad_transmittance(self, field, value):
        with pytest.raises(DomainError, match=field):
            make(**{field: value})

    @pytest.mark.parametrize("field", ["v_mod", "t_ch", "xi_ch", "t_rec", "xi_rec", "xi_pr"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(DomainError, match=field):
            make(**{field: value})

    def test_derived_quantities(self):
        p = make(xi_pr=0.2)
        assert p.v == 5.0
        assert p.t_tot == pytest.approx(0.3)
        # T_tot xi_pr + T_rec xi_ch + xi_rec
        assert p.xi_tot == pytest.approx(0.3 * 0.2 + 0.6 * 0.05 + 0.1)
        assert p.mu == 2.0
        assert make(detection=Detection.HOMODYNE).mu == 1.0


class TestEffectiveQuantities:
    def test_no_prep_noise(self):
        assert effective_v(make(v_mod=4.0)) == 5.0

    def test_trusted_prep_substitution(self):
        p = make(v_mod=4.0, xi_pr=0.3, trust=Trust.TRUSTED_RECEIVER_AND_PREPARATION)
        assert effective_v(p) == 5.3
        assert effective_xi_ch(p) == 0.05

    def test_untrusted_prep_folds_into_channel(self):
        p = make(v_mod=4.0, xi_pr=0.3, trust=Trust.TRUSTED_RECEIVER)
        assert effective_v(p) == 5.0
        assert effective_xi_ch(p) == pytest.approx(0.05 + 0.5 * 0.3)


class TestNoiseSourceVariances:
    def test_zero_noise_gives_vacuum_source(self):
        w_ch, w_rec = noise_source_variances(make(xi_ch=0.0, xi_rec=0.0, t_ch=0.3, t_rec=0.7))
        assert w_ch == 1.0 and w_rec == 1.0

    def test_channel_variance(self):
        w_ch, _ = noise_source_variances(make(t_ch=0.5, xi_ch=0.05))
        assert w_ch == pytest.approx(1.1, abs=1e-14)

    def test_receiver_variance(self):
        _, w_rec = noise_source_variances(make(t_rec=0.6, xi_rec=0.1))
        assert w_rec == pytest.approx(1.25, abs=1e-14)

    def test_unit_transmittance_with_noise_stays_finite(self):
        w_ch, w_rec = noise_source_variances(make(t_ch=1.0, xi_ch=0.0, t_rec=1.0, xi_rec=0.05))
        assert w_ch == 1.0
        assert math.isfinite(w_rec) and w_rec > 1e9

    def test_noisy_lossless_channel_is_rejected(self):
        with pytest.raises(DomainError, match="t_ch"):
            noise_source_variances(make(t_ch=1.0, xi_ch=0.05))
        # untrusted preparation noise counts as channel noise
        with pytest.raises(DomainError, match="t_ch"):
            holevo_bound(make(t_ch=1.0, xi_ch=0.0, xi_pr=0.3, trust=Trust.TRUSTED_RECEIVER))
        # the receiver side has no such restriction
        _, chi = holevo_bound(make(t_rec=1.0, xi_rec=0.05))
        assert math.isfinite(chi)


class TestPropagation:
    def test_perfect_link_keeps_epr_block(self):
        total = assemble_and_propagate(perfect())
        ab = extract_modes(total, [0, 1])
        assert np.allclose(ab, epr_state(5.0), atol=1e-12)

    def test_receiver_variance_value(self):
        p = make()
        assert _noise_model(*_args(p))[5] == pytest.approx(2.33, abs=1e-14)
        total = assemble_and_propagate(p)
        assert total[2, 2] == pytest.approx(2.33, abs=1e-12)

    def test_eve_block_matches_closed_form(self):
        p = make()
        total = assemble_and_propagate(p)
        eve = extract_modes(total, [2, 3])
        assert np.allclose(eve, eve_state(p), atol=1e-12)

    def test_spectrum_preserved_by_propagation(self):
        p = make()
        w_ch, w_rec = noise_source_variances(p)
        nus = symplectic_eigenvalues(assemble_and_propagate(p))
        assert np.allclose(nus, sorted([1.0, 1.0, 1.0, 1.0, w_rec], reverse=True), atol=1e-10)

    def test_ab_block_equals_two_mode_form(self):
        # V, sqrt(T_tot (V^2-1)) sigma_z, T_tot (V-1) + 1 + xi_tot
        for p in MINI_GRID:
            q = receiver_folded(p) if p.trust is Trust.UNTRUSTED_ALL else p
            v = effective_v(q)
            xi = effective_xi_ch(q)
            b = q.t_tot * (v - 1.0) + 1.0 + q.t_rec * xi + q.xi_rec
            c = math.sqrt(q.t_tot * (v * v - 1.0))
            expected = np.zeros((4, 4))
            expected[:2, :2] = v * np.eye(2)
            expected[2:, 2:] = b * np.eye(2)
            expected[:2, 2:] = c * SZ
            expected[2:, :2] = c * SZ
            ab = extract_modes(assemble_and_propagate(q), [0, 1])
            assert np.max(np.abs(ab - expected)) < 1e-12


class TestEveState:
    def test_transparent_channel_decouples_eve(self):
        p = make(t_ch=1.0, xi_ch=0.0)
        assert np.allclose(eve_state(p), np.eye(4), atol=1e-10)
        nus = symplectic_eigenvalues(eve_state(p))
        assert von_neumann_entropy(nus) == pytest.approx(0.0, abs=1e-9)

    def test_entropy_matches_trusted_ab_state(self):
        p = make()
        v, t, xi = p.v, p.t_ch, p.xi_ch
        ab = np.zeros((4, 4))
        ab[:2, :2] = v * np.eye(2)
        ab[2:, 2:] = (t * (v - 1) + 1 + xi) * np.eye(2)
        c = math.sqrt(t * (v * v - 1))
        ab[:2, 2:] = c * SZ
        ab[2:, :2] = c * SZ
        s_ab = von_neumann_entropy(symplectic_eigenvalues(ab))
        s_e = von_neumann_entropy(symplectic_eigenvalues(eve_state(p)))
        assert s_e == pytest.approx(s_ab, abs=1e-10)

    def test_trusted_prep_substitution_changes_alice_entry(self):
        p = make(xi_pr=0.3, trust=Trust.TRUSTED_RECEIVER_AND_PREPARATION)
        a = eve_state(p)[0, 0]
        assert a == pytest.approx((1 - 0.5) * 5.3 + 0.5 * 1.1, abs=1e-12)


def _pipeline_conditional_spectrum(p, quad=Quadrature.Q):
    total = assemble_and_propagate(p)
    if p.detection is Detection.HETERODYNE:
        cond = condition_heterodyne(total, 1)
    else:
        cond = condition_homodyne(total, 1, quad)
    return symplectic_eigenvalues(extract_modes(cond, [1, 2]))


class TestConditionalClosedForms:
    def test_perfect_link_heterodyne(self):
        assert holevo_bound(perfect())[0].nu_post == (1.0, 1.0)

    def test_perfect_link_homodyne(self):
        assert holevo_bound(perfect(detection=Detection.HOMODYNE))[0].nu_post == (1.0, 1.0)

    def test_heterodyne_matches_generic_solver(self):
        p = make()
        closed = np.sort(holevo_bound(p)[0].nu_post)
        generic = np.sort(_pipeline_conditional_spectrum(p))
        assert np.allclose(closed, generic, atol=1e-12)

    def test_homodyne_matches_generic_solver(self):
        p = make(detection=Detection.HOMODYNE)
        closed = np.sort(holevo_bound(p)[0].nu_post)
        generic = np.sort(_pipeline_conditional_spectrum(p))
        assert np.allclose(closed, generic, atol=1e-12)

    def test_homodyne_q_and_p_agree(self):
        for p in (make(detection=Detection.HOMODYNE),
                  make(detection=Detection.HOMODYNE, v_mod=12.0, xi_ch=0.15)):
            q_spec = _pipeline_conditional_spectrum(p, Quadrature.Q)
            p_spec = _pipeline_conditional_spectrum(p, Quadrature.P)
            assert np.allclose(np.sort(q_spec), np.sort(p_spec), atol=1e-10)

    def test_conditioned_block_entries_match_coefficients(self):
        # the conditioned eavesdropper block itself, entry by entry, against
        # the coefficient set the quadratic closed forms are built from
        p = make(detection=Detection.HOMODYNE)
        v, t_ch, t_rec, w_ch, w_rec, v_b, _ = _noise_model(*_args(p))
        cross = math.sqrt(t_ch * (w_ch**2 - 1))
        refl = t_rec * v + (1 - t_rec) * w_rec
        e1 = v + t_ch * (w_ch - v) * refl / v_b
        e2 = cross * refl / v_b
        e3 = v + t_ch * (w_ch - v)
        e4 = -cross
        e5 = w_ch - (1 - t_ch) * t_rec * (w_ch**2 - 1) / v_b
        e6 = w_ch

        total = assemble_and_propagate(p)
        eve_q = extract_modes(condition_homodyne(total, 1, Quadrature.Q), [1, 2])
        expected_q = np.array(
            [[e1, 0, e2, 0], [0, e3, 0, e4], [e2, 0, e5, 0], [0, e4, 0, e6]]
        )
        assert np.max(np.abs(eve_q - expected_q)) < 1e-12

        # the p-measurement block is the same set with quadratures swapped and
        # the cross-correlation signs flipped
        eve_p = extract_modes(condition_homodyne(total, 1, Quadrature.P), [1, 2])
        expected_p = np.array(
            [[e3, 0, -e4, 0], [0, e1, 0, -e2], [-e4, 0, e6, 0], [0, -e2, 0, e5]]
        )
        assert np.max(np.abs(eve_p - expected_p)) < 1e-12

        ph = make(detection=Detection.HETERODYNE)
        f1 = v * ((1 - t_rec) * w_rec + t_rec * w_ch + 1) + t_ch * (w_ch - v) * (
            1 + (1 - t_rec) * w_rec
        )
        f2 = cross * (t_rec * v + (1 - t_rec) * w_rec + 1)
        f3 = (1 - t_rec) * w_ch * w_rec + t_rec * t_ch * (v * w_ch - 1) + t_rec + w_ch
        expected_het = np.zeros((4, 4))
        expected_het[:2, :2] = f1 * np.eye(2)
        expected_het[2:, 2:] = f3 * np.eye(2)
        expected_het[:2, 2:] = f2 * SZ
        expected_het[2:, :2] = f2 * SZ
        expected_het /= v_b + 1
        eve_het = extract_modes(
            condition_heterodyne(assemble_and_propagate(ph), 1), [1, 2]
        )
        assert np.max(np.abs(eve_het - expected_het)) < 1e-12

    def test_closed_forms_match_pipeline_on_mini_grid(self):
        for p in MINI_GRID:
            q = receiver_folded(p) if p.trust is Trust.UNTRUSTED_ALL else p
            closed = holevo_bound(q)[0].nu_post
            generic = _pipeline_conditional_spectrum(q)
            assert np.allclose(np.sort(closed), np.sort(generic), atol=1e-9)


class TestHolevoBound:
    def test_clean_channel_gives_zero(self):
        for t_rec, xi_rec in [(1.0, 0.0), (0.5, 0.3), (0.9, 0.05)]:
            p = make(t_ch=1.0, xi_ch=0.0, t_rec=t_rec, xi_rec=xi_rec)
            _, chi = holevo_bound(p)
            assert chi < 1e-9

    def test_no_modulation_no_noise_gives_zero(self):
        p = make(v_mod=0.0, xi_ch=0.0, xi_rec=0.0, t_ch=0.37, t_rec=0.71)
        _, chi = holevo_bound(p)
        assert chi < 1e-9

    def test_trusting_the_receiver_lowers_the_bound(self):
        _, chi_trusted = holevo_bound(make(trust=Trust.TRUSTED_RECEIVER))
        _, chi_untrusted = holevo_bound(make(trust=Trust.UNTRUSTED_ALL))
        assert chi_trusted < chi_untrusted

    def test_monotone_in_channel_noise(self):
        for v, tc, tr, det, trust in itertools.product(
            [1.0, 16.0], [0.1, 0.9], [0.5, 1 - 1e-9],
            [Detection.HOMODYNE, Detection.HETERODYNE],
            [Trust.UNTRUSTED_ALL, Trust.TRUSTED_RECEIVER],
        ):
            chis = []
            for xi_ch in (0.0, 0.05, 0.2):
                _, chi = holevo_bound(make(v_mod=v, t_ch=tc, xi_ch=xi_ch, t_rec=tr,
                                           detection=det, trust=trust))
                chis.append(chi)
            assert chis[0] <= chis[1] + 1e-10
            assert chis[1] <= chis[2] + 1e-10

    def test_trusted_prep_reduces_to_trusted_receiver_without_prep_noise(self):
        for p in MINI_GRID:
            if p.trust is not Trust.TRUSTED_RECEIVER or p.xi_pr != 0.0:
                continue
            pair_a, chi_a = holevo_bound(p)
            pair_b, chi_b = holevo_bound(
                replace(p, trust=Trust.TRUSTED_RECEIVER_AND_PREPARATION)
            )
            assert chi_a == pytest.approx(chi_b, abs=1e-12)
            assert pair_a.nu_pre == pytest.approx(pair_b.nu_pre, abs=1e-12)

    def test_conditioning_pipeline_states_stays_physical(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = make(v_mod=float(rng.uniform(0.1, 30)), t_ch=float(rng.uniform(0.05, 0.95)),
                     xi_ch=float(rng.uniform(0, 0.3)), t_rec=float(rng.uniform(0.3, 1.0)),
                     xi_rec=float(rng.uniform(0, 0.5)))
            total = assemble_and_propagate(p)
            for cond in (condition_heterodyne(total, 1),
                         condition_homodyne(total, 1, Quadrature.Q),
                         condition_homodyne(total, 1, Quadrature.P)):
                assert np.all(symplectic_eigenvalues(cond) >= 1.0 - 1e-9)

    def test_entropy_pair_invariants(self):
        for p in MINI_GRID:
            pair, chi = holevo_bound(p)
            assert pair.s_e >= 0.0
            assert pair.s_e_given_b >= 0.0
            assert chi >= 0.0
            assert all(nu >= 1.0 for nu in pair.nu_pre + pair.nu_post)

    def test_untrusted_pre_pair_is_end_to_end_state(self):
        p = make(trust=Trust.UNTRUSTED_ALL)
        pair, _ = holevo_bound(p)
        v = p.v
        expected = two_mode_eigs(
            v, p.t_tot * (v - 1) + 1 + p.xi_tot, math.sqrt(p.t_tot * (v * v - 1))
        )
        assert np.allclose(sorted(pair.nu_pre), sorted(expected), atol=1e-12)

    def test_detection_does_not_change_pre_measurement_entropy(self):
        pair_het, _ = holevo_bound(make(detection=Detection.HETERODYNE))
        pair_hom, _ = holevo_bound(make(detection=Detection.HOMODYNE))
        assert pair_het.s_e == pytest.approx(pair_hom.s_e, abs=1e-14)

    def test_pre_measurement_pair_matches_eve_state_spectrum(self):
        # the stabilized pair must agree with the generic solver on the
        # assembled eavesdropper state wherever the latter is accurate
        for p in MINI_GRID[::13]:
            if p.trust is Trust.UNTRUSTED_ALL:
                continue
            pair, _ = holevo_bound(p)
            generic = symplectic_eigenvalues(eve_state(p))
            assert np.allclose(np.sort(pair.nu_pre), np.sort(generic), atol=1e-10)

    def test_pre_measurement_pair_survives_large_source_variance(self):
        # t_ch just inside the supported region: W_ch ~ 1e4, where the naive
        # discriminant (a+b)^2 - 4c^2 is already down to its last digits
        x = 1.2e-5
        p = make(t_ch=1.0 - x, xi_ch=0.11)
        pair, chi = holevo_bound(p)
        assert all(nu >= 1.0 for nu in pair.nu_pre)
        assert math.isfinite(chi) and chi > 0
        # determinant invariant of the two-mode form, evaluated stably:
        # nu1 nu2 = a b - c^2 = V (xi + x) + 1 - x
        det_root = p.v * (0.11 + x) + 1.0 - x
        assert pair.nu_pre[0] * pair.nu_pre[1] == pytest.approx(det_root, rel=1e-10)


class TestReceiverFolded:
    def test_fold_preserves_measured_statistics(self):
        p = make(xi_pr=0.2, trust=Trust.UNTRUSTED_ALL)
        q = receiver_folded(p)
        assert q.t_tot == pytest.approx(p.t_tot)
        assert q.xi_tot == pytest.approx(p.xi_tot)
        assert _noise_model(*_args(q))[5] == pytest.approx(_noise_model(*_args(p))[5], abs=1e-12)

    def test_fold_is_transparent_receiver(self):
        q = receiver_folded(make())
        assert q.t_rec == 1.0 and q.xi_rec == 0.0 and q.xi_pr == 0.0
