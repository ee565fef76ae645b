import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrate import (
    Detection,
    LinkParams,
    Trust,
    holevo_bound,
)
from cvrate import cloner
from cvrate.cloner import noise_source_variances
from cvrate.gaussian import (
    Quadrature,
    apply_symplectic,
    beamsplitter,
    condition_heterodyne,
    condition_homodyne,
    direct_sum,
    epr_state,
    mode_permutation,
    symplectic_eigenvalues,
    thermal_state,
    two_mode_eigs,
    von_neumann_entropy,
)
from cvrate.purification import (
    ab_matrix,
    eve_state,
    oracle_conditional_entropy,
    oracle_holevo,
    purified_total_state,
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


HARD_LINKS = {
    # receiver noise of 1e3 SNU
    **{f"xi_rec-1e3-{d.value}-{t.value}": make(xi_rec=1e3, detection=d, trust=t)
       for d in Detection for t in (Trust.TRUSTED_RECEIVER, Trust.TRUSTED_RECEIVER_AND_PREPARATION)},
    # receiver noise of 245 SNU behind a lossy receiver
    "xi_rec-245": make(v_mod=21.947721860996758, t_ch=0.6055958044135793, xi_ch=0.0,
                       t_rec=0.44788314591973655, xi_rec=244.75312482676125,
                       xi_pr=0.013474520514876909, detection=Detection.HOMODYNE,
                       trust=Trust.TRUSTED_RECEIVER_AND_PREPARATION),
    # a noiseless link at large modulation: the eavesdropper's spectrum pairs
    # a unit eigenvalue with one of about 49
    "v_mod-930": make(v_mod=930.3240931405103, t_ch=0.9482204460933563, xi_ch=0.0, t_rec=1.0,
                      xi_rec=0.0, xi_pr=0.0, detection=Detection.HETERODYNE,
                      trust=Trust.TRUSTED_RECEIVER),
}


class TestAbMatrices:
    def test_untrusted_perfect_link_is_shared_epr(self):
        p = make(t_ch=1.0, xi_ch=0.0, t_rec=1.0, xi_rec=0.0)
        assert np.allclose(ab_matrix(replace(p, trust=Trust.UNTRUSTED_ALL)), epr_state(5.0))

    def test_untrusted_receiver_entry(self):
        p = make()  # T_tot = 0.3, xi_tot = 0.6*0.05 + 0.1 = 0.13
        assert ab_matrix(replace(p, trust=Trust.UNTRUSTED_ALL))[2, 2] == pytest.approx(
            0.3 * 4 + 1 + 0.13, abs=1e-14)

    def test_untrusted_eigenvalues_match_closed_pair(self):
        p = make()
        v = p.v
        pair = two_mode_eigs(v, p.t_tot * (v - 1) + 1 + p.xi_tot,
                             math.sqrt(p.t_tot * (v * v - 1)))
        generic = symplectic_eigenvalues(ab_matrix(replace(p, trust=Trust.UNTRUSTED_ALL)))
        assert np.allclose(np.sort(generic), np.sort(pair), atol=1e-10)

    def test_trusted_equals_untrusted_for_ideal_receiver(self):
        p = make(t_rec=1.0, xi_rec=0.0)
        assert np.allclose(ab_matrix(p), ab_matrix(replace(p, trust=Trust.UNTRUSTED_ALL)),
                           atol=1e-12)

    def test_trusted_entropy_equals_eve_entropy(self):
        for p in MINI_GRID[::7]:
            if p.trust is Trust.UNTRUSTED_ALL:
                continue
            s_ab = von_neumann_entropy(symplectic_eigenvalues(ab_matrix(p)))
            s_e = von_neumann_entropy(symplectic_eigenvalues(eve_state(p)))
            assert s_ab == pytest.approx(s_e, abs=1e-10)

    def test_trusted_prep_substitution(self):
        p = make(xi_pr=0.3, trust=Trust.TRUSTED_RECEIVER_AND_PREPARATION)
        assert ab_matrix(p)[0, 0] == pytest.approx(5.3, abs=1e-14)
        s_ab = von_neumann_entropy(symplectic_eigenvalues(ab_matrix(p)))
        s_e = von_neumann_entropy(symplectic_eigenvalues(eve_state(p)))
        assert s_ab == pytest.approx(s_e, abs=1e-10)


class TestConditionalEntropy:
    def test_perfect_link_gives_zero(self):
        p = make(t_ch=1.0, xi_ch=0.0, t_rec=1.0, xi_rec=0.0)
        assert oracle_conditional_entropy(p) == pytest.approx(0.0, abs=1e-9)

    def test_matches_closed_forms_on_mini_grid(self):
        from cvrate.cloner import receiver_folded

        for p in MINI_GRID:
            q = receiver_folded(p) if p.trust is Trust.UNTRUSTED_ALL else p
            closed = von_neumann_entropy(holevo_bound(q)[0].nu_post)
            assert oracle_conditional_entropy(p) == pytest.approx(closed, abs=1e-8)

    def test_untrusted_equals_folded_trusted(self):
        from cvrate.cloner import receiver_folded

        p = make(trust=Trust.UNTRUSTED_ALL)
        assert oracle_conditional_entropy(p) == pytest.approx(
            oracle_conditional_entropy(receiver_folded(p)), abs=1e-12
        )

    def test_conditional_state_is_physical(self):
        # the state the oracle conditions: the received (A, B) marginal with
        # nothing trusted, all four received modes with a trusted receiver
        from cvrate.purification import _eve_and_measured

        for p in MINI_GRID[::11]:
            measured = _eve_and_measured(p)[1]
            if p.detection is Detection.HETERODYNE:
                cond = condition_heterodyne(measured, 1)
            else:
                cond = condition_homodyne(measured, 1, Quadrature.Q)
            nus = symplectic_eigenvalues(cond)
            assert np.all(nus >= 1.0 - 1e-9)
            if p.trust is not Trust.UNTRUSTED_ALL:
                # the receiver's ancillas add one pure mode, nothing else
                assert nus[-1] == pytest.approx(1.0, abs=1e-9)
                assert np.allclose(nus[:2], holevo_bound(p)[0].nu_post, rtol=0.0, atol=1e-9)

    def test_stable_receiver_stage_equals_naive_construction(self):
        # the vacuum-ancilla dilation of the receiver (a beamsplitter and an
        # amplifier) against the thermal-EPR one: the receiver noise as an
        # explicit purifying EPR pair mixed in on a single beamsplitter
        p = make(detection=Detection.HOMODYNE)
        w_ch, w_rec = noise_source_variances(p)
        naive = direct_sum([ab_matrix(p), epr_state(w_rec)])
        naive = apply_symplectic(mode_permutation(4, [0, 2, 3, 1]), naive)
        naive = apply_symplectic(beamsplitter(4, 3, 1, p.t_rec), naive)
        cond = condition_homodyne(naive, 3, Quadrature.Q)
        s_naive = von_neumann_entropy(symplectic_eigenvalues(cond))
        assert oracle_conditional_entropy(p) == pytest.approx(s_naive, abs=1e-11)


class TestOracleHolevo:
    @pytest.mark.parametrize("p", list(HARD_LINKS.values()), ids=list(HARD_LINKS))
    def test_agreement_on_hard_links(self, p):
        assert oracle_holevo(p) == pytest.approx(holevo_bound(p)[1], abs=1e-8)

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


_EFFECTIVE, _FOLD = cloner._effective, cloner._fold


def _without_prep_fold(v_mod, t_ch, xi_ch, xi_pr, trust):
    return _EFFECTIVE(v_mod, 0.0, xi_ch, xi_pr, trust)  # t_ch enters only the t_ch*xi_pr fold


def _twice_prep_substitution(v_mod, t_ch, xi_ch, xi_pr, trust):
    v, xi = _EFFECTIVE(v_mod, t_ch, xi_ch, xi_pr, trust)
    return (v + xi_pr if trust is Trust.TRUSTED_RECEIVER_AND_PREPARATION else v), xi


def _half_folded_noise(v_mod, t_tot, xi_tot, detection):
    return _FOLD(v_mod, t_tot, 0.5 * xi_tot, detection)


@pytest.mark.parametrize(
    "name, mutant",
    [("_effective", _without_prep_fold), ("_effective", _twice_prep_substitution),
     ("_fold", _half_folded_noise)],
    ids=["no-t_ch-xi_pr-fold", "V-plus-2-xi_pr", "half-folded-xi_tot"],
)
def test_oracle_catches_bookkeeping_mutants(monkeypatch, name, mutant):
    # the oracle builds its states without the closed forms' trust bookkeeping,
    # so a mistake there must show as disagreement somewhere on the grid
    monkeypatch.setattr(cloner, name, mutant)
    gap = max(abs(holevo_bound(p)[1] - oracle_holevo(p)) for p in MINI_GRID)
    assert gap > 1e-8


def is_pure(p):
    # every symplectic eigenvalue of the purified state within 1e-9 of 1
    nus = symplectic_eigenvalues(purified_total_state(p))
    return bool(np.max(np.abs(nus - 1.0)) <= 1e-9)


class TestPurity:
    def test_holds_on_grid(self):
        for p in MINI_GRID[::5]:
            assert is_pure(p)

    def test_perfect_link(self):
        assert is_pure(make(t_ch=1.0, xi_ch=0.0, t_rec=1.0, xi_rec=0.0))

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
