import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrate import (
    Detection,
    DomainError,
    LinkParams,
    Quadrature,
    Trust,
    ab_matrix_trusted,
    ab_matrix_untrusted,
    apply_symplectic,
    beamsplitter,
    condition_heterodyne,
    condition_homodyne,
    direct_sum,
    epr_state,
    eve_state,
    holevo_bound,
    mode_permutation,
    noise_source_variances,
    oracle_conditional_entropy,
    oracle_holevo,
    purified_total_state,
    purity_check,
    symplectic_eigenvalues,
    thermal_state,
    two_mode_eigs,
    von_neumann_entropy,
)


def make(v_mod=4.0, t_ch=0.5, xi_ch=0.05, t_rec=0.6, xi_rec=0.1, xi_pr=0.0,
         detection=Detection.HETERODYNE, trust=Trust.TRUSTED_RECEIVER):
    return LinkParams(v_mod=v_mod, t_ch=t_ch, xi_ch=xi_ch, t_rec=t_rec, xi_rec=xi_rec,
                      xi_pr=xi_pr, detection=detection, trust=trust)


MINI_GRID = [
    make(v_mod=v, t_ch=tc, xi_ch=xc, t_rec=tr, xi_rec=xr, xi_pr=xp, detection=det, trust=trust)
    for v, tc, xc, tr, xr, xp, det, trust in itertools.product(
        [1.0, 16.0], [0.1, 0.9], [0.0, 0.2], [0.5, 1 - 1e-9], [0.0, 0.1], [0.0, 0.3],
        [Detection.HOMODYNE, Detection.HETERODYNE],
        [Trust.UNTRUSTED_ALL, Trust.TRUSTED_RECEIVER, Trust.TRUSTED_RECEIVER_AND_PREPARATION],
    )
]


class TestAbMatrices:
    def test_untrusted_perfect_link_is_shared_epr(self):
        p = make(t_ch=1.0, xi_ch=0.0, t_rec=1.0, xi_rec=0.0)
        assert np.allclose(ab_matrix_untrusted(p).data, epr_state(5.0).data)

    def test_untrusted_receiver_entry(self):
        p = make()  # T_tot = 0.3, xi_tot = 0.6*0.05 + 0.1 = 0.13
        assert ab_matrix_untrusted(p).data[2, 2] == pytest.approx(0.3 * 4 + 1 + 0.13, abs=1e-14)

    def test_untrusted_eigenvalues_match_closed_pair(self):
        p = make()
        v = p.v
        pair = two_mode_eigs(v, p.t_tot * (v - 1) + 1 + p.xi_tot,
                             math.sqrt(p.t_tot * (v * v - 1)))
        generic = symplectic_eigenvalues(ab_matrix_untrusted(p))
        assert np.allclose(np.sort(generic), np.sort(pair), atol=1e-10)

    def test_trusted_equals_untrusted_for_ideal_receiver(self):
        p = make(t_rec=1.0, xi_rec=0.0)
        assert np.allclose(ab_matrix_trusted(p).data, ab_matrix_untrusted(p).data, atol=1e-12)

    def test_trusted_entropy_equals_eve_entropy(self):
        for p in MINI_GRID[::7]:
            if p.trust is Trust.UNTRUSTED_ALL:
                continue
            s_ab = von_neumann_entropy(symplectic_eigenvalues(ab_matrix_trusted(p)))
            s_e = von_neumann_entropy(symplectic_eigenvalues(eve_state(p)))
            assert s_ab == pytest.approx(s_e, abs=1e-10)

    def test_trusted_prep_substitution(self):
        p = make(xi_pr=0.3, trust=Trust.TRUSTED_RECEIVER_AND_PREPARATION)
        assert ab_matrix_trusted(p).data[0, 0] == pytest.approx(5.3, abs=1e-14)
        s_ab = von_neumann_entropy(symplectic_eigenvalues(ab_matrix_trusted(p)))
        s_e = von_neumann_entropy(symplectic_eigenvalues(eve_state(p)))
        assert s_ab == pytest.approx(s_e, abs=1e-10)


class TestConditionalEntropy:
    def test_perfect_link_gives_zero(self):
        p = make(t_ch=1.0, xi_ch=0.0, t_rec=1.0, xi_rec=0.0)
        assert oracle_conditional_entropy(p) == pytest.approx(0.0, abs=1e-9)

    def test_matches_closed_forms_on_mini_grid(self):
        from cvrate import eve_conditional_het, eve_conditional_hom, receiver_folded

        for p in MINI_GRID:
            q = receiver_folded(p) if p.trust is Trust.UNTRUSTED_ALL else p
            if q.detection is Detection.HETERODYNE:
                nus = eve_conditional_het(q)
            else:
                nus = eve_conditional_hom(q)
            closed = von_neumann_entropy(nus)
            assert oracle_conditional_entropy(p) == pytest.approx(closed, abs=1e-8)

    def test_quadrature_choice_is_irrelevant(self):
        p = make(detection=Detection.HOMODYNE)
        s_q = oracle_conditional_entropy(p, Quadrature.Q)
        s_p = oracle_conditional_entropy(p, Quadrature.P)
        assert s_q == pytest.approx(s_p, abs=1e-10)

    def test_untrusted_equals_folded_trusted(self):
        from cvrate import receiver_folded

        p = make(trust=Trust.UNTRUSTED_ALL)
        assert oracle_conditional_entropy(p) == pytest.approx(
            oracle_conditional_entropy(receiver_folded(p)), abs=1e-12
        )

    def test_conditional_state_is_physical(self):
        from cvrate.purification import _premeasurement_state

        for p in MINI_GRID[::11]:
            pre = _premeasurement_state(p if p.trust is not Trust.UNTRUSTED_ALL else p)
            if p.detection is Detection.HETERODYNE:
                cond = condition_heterodyne(pre, 3)
            else:
                cond = condition_homodyne(pre, 3, Quadrature.Q)
            assert np.all(symplectic_eigenvalues(cond) >= 1.0 - 1e-9)

    def test_stable_receiver_stage_equals_naive_construction(self):
        # same state built with an explicit purifying EPR pair, without the
        # basis change that keeps the extreme-variance case conditioned
        p = make(detection=Detection.HOMODYNE)
        w_ch, w_rec = noise_source_variances(p)
        naive = direct_sum([ab_matrix_trusted(p), epr_state(w_rec)])
        naive = apply_symplectic(mode_permutation(4, [0, 2, 3, 1]), naive)
        naive = apply_symplectic(beamsplitter(4, 3, 1, p.t_rec), naive)
        cond = condition_homodyne(naive, 3, Quadrature.Q)
        s_naive = von_neumann_entropy(symplectic_eigenvalues(cond))
        assert oracle_conditional_entropy(p) == pytest.approx(s_naive, abs=1e-11)


class TestOracleHolevo:
    @pytest.mark.parametrize("detection", list(Detection))
    def test_receiver_stage_is_still_checked(self, detection):
        # the hand-derived receiver transform loses symplecticity beyond 1e-12
        # at this noise level; the check must keep rejecting it
        p = make(xi_rec=1e3, detection=detection)
        with pytest.raises(DomainError, match="not symplectic"):
            oracle_holevo(p)

    def test_agreement_with_closed_forms(self):
        for p in MINI_GRID:
            _, chi = holevo_bound(p)
            assert oracle_holevo(p) == pytest.approx(chi, abs=1e-8)

    @given(
        v_mod=st.floats(min_value=1e-3, max_value=100.0),
        t_ch=st.floats(min_value=0.01, max_value=0.99),
        xi_ch=st.floats(min_value=0.0, max_value=0.5),
        t_rec=st.floats(min_value=0.05, max_value=1.0),
        xi_rec=st.floats(min_value=0.0, max_value=1.0),
        xi_pr=st.floats(min_value=0.0, max_value=0.5),
        detection=st.sampled_from(Detection),
        trust=st.sampled_from(Trust),
    )
    @settings(deadline=None, max_examples=60)
    def test_agreement_on_random_links(self, **kwargs):
        p = LinkParams(**kwargs)
        _, chi = holevo_bound(p)
        assert oracle_holevo(p) == pytest.approx(chi, abs=1e-8)


class TestPurity:
    def test_holds_on_grid(self):
        for p in MINI_GRID[::5]:
            assert purity_check(p)

    def test_perfect_link(self):
        assert purity_check(make(t_ch=1.0, xi_ch=0.0, t_rec=1.0, xi_rec=0.0))

    def test_purified_state_spectrum_is_flat(self):
        nus = symplectic_eigenvalues(purified_total_state(make()))
        assert np.max(np.abs(nus - 1.0)) < 1e-12

    def test_thermal_stand_in_breaks_purity(self):
        # replacing the purifying EPR pair with its thermal marginal leaves a
        # mixed three-mode state
        p = make()
        w_ch, _ = noise_source_variances(p)
        corrupted = direct_sum([epr_state(p.v), thermal_state(w_ch)])
        corrupted = apply_symplectic(beamsplitter(3, 1, 2, p.t_ch), corrupted)
        nus = symplectic_eigenvalues(corrupted)
        assert np.max(np.abs(nus - 1.0)) > 1e-6
