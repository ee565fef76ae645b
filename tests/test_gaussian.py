import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrate import (
    CovMatrix,
    DomainError,
    PhysicalityError,
    Quadrature,
    SympMatrix,
    UnsupportedCaseError,
    UsageError,
    apply_symplectic,
    beamsplitter,
    condition_heterodyne,
    condition_homodyne,
    direct_sum,
    epr_state,
    extract_modes,
    mode_permutation,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_state,
    two_mode_eigs,
    vacuum_state,
    von_neumann_entropy,
)
from cvrate.gaussian import two_mode_state

SZ = np.diag([1.0, -1.0])


def assemble_two_mode(a, b, c):
    m = np.zeros((4, 4))
    m[:2, :2] = a * np.eye(2)
    m[2:, 2:] = b * np.eye(2)
    m[:2, 2:] = c * SZ
    m[2:, :2] = c * SZ
    return CovMatrix(m)


# random but physical multimode states with a known spectrum: thermal blocks
# scrambled by a chain of beamsplitters
def random_state_with_spectrum(rng, n_modes):
    variances = rng.uniform(1.0, 6.0, size=n_modes)
    state = direct_sum([thermal_state(w) for w in variances])
    for _ in range(2 * n_modes):
        i, j = rng.choice(n_modes, size=2, replace=False)
        state = apply_symplectic(beamsplitter(n_modes, int(i), int(j), rng.uniform(0, 1)), state)
    return state, np.sort(variances)[::-1]


class TestSymplecticForm:
    def test_single_mode(self):
        assert np.array_equal(symplectic_form(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_two_modes_block_structure(self):
        omega = symplectic_form(2)
        assert np.array_equal(omega[:2, :2], [[0, 1], [-1, 0]])
        assert np.array_equal(omega[2:, 2:], [[0, 1], [-1, 0]])
        assert np.all(omega[:2, 2:] == 0)
        assert np.all(omega[2:, :2] == 0)

    def test_orthogonal_and_squares_to_minus_identity(self):
        omega = symplectic_form(3)
        assert np.allclose(omega @ omega.T, np.eye(6))
        assert np.allclose(omega @ omega, -np.eye(6))


class TestStateConstructors:
    def test_epr_unit_variance_is_two_vacua(self):
        assert np.array_equal(epr_state(1.0).data, np.eye(4))

    def test_epr_block_structure(self):
        m = epr_state(5.0).data
        assert np.allclose(m[:2, :2], 5.0 * np.eye(2))
        assert np.allclose(m[:2, 2:], math.sqrt(24.0) * SZ)

    def test_two_mode_state_spectrum_is_two_mode_eigs(self):
        state = two_mode_state(2.0, 3.0, 1.0)
        assert np.array_equal(state.data, assemble_two_mode(2.0, 3.0, 1.0).data)
        got = symplectic_eigenvalues(state)
        assert np.allclose(got, sorted(two_mode_eigs(2.0, 3.0, 1.0), reverse=True), atol=1e-12)

    def test_epr_is_pure(self):
        assert np.allclose(symplectic_eigenvalues(epr_state(3.0)), [1.0, 1.0])

    def test_epr_below_one_rejected(self):
        with pytest.raises(DomainError):
            epr_state(0.8)

    def test_thermal_vacuum_has_zero_entropy(self):
        nus = symplectic_eigenvalues(thermal_state(1.0))
        assert von_neumann_entropy(nus) == 0.0

    def test_thermal_eigenvalue(self):
        assert np.allclose(symplectic_eigenvalues(thermal_state(2.0)), [2.0])

    def test_thermal_below_one_rejected(self):
        with pytest.raises(DomainError):
            thermal_state(0.5)

    def test_direct_sum_of_thermals_keeps_both_eigenvalues(self):
        combined = direct_sum([thermal_state(2.0), thermal_state(3.0)])
        assert np.allclose(symplectic_eigenvalues(combined), [3.0, 2.0])

    def test_direct_sum_single_vacuum(self):
        assert np.array_equal(direct_sum([vacuum_state()]).data, np.eye(2))

    def test_direct_sum_five_mode_layout(self):
        total = direct_sum([epr_state(5.0), epr_state(1.5), thermal_state(1.25)])
        assert total.n_modes == 5
        assert total.data.shape == (10, 10)
        assert np.allclose(total.data[8:, 8:], 1.25 * np.eye(2))
        assert np.all(total.data[:4, 4:] == 0)

    def test_direct_sum_rejects_empty(self):
        with pytest.raises(UsageError):
            direct_sum([])

    def test_spectrum_additivity_on_random_blocks(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            ws = rng.uniform(1.0, 8.0, size=4)
            blocks = [thermal_state(w) for w in ws]
            combined = direct_sum(blocks)
            assert np.allclose(symplectic_eigenvalues(combined), np.sort(ws)[::-1], atol=1e-10)


class TestCovMatrixInvariants:
    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            CovMatrix([[1.0, 0.5], [0.2, 1.0]])

    def test_symmetrizes_rounding_noise(self):
        m = np.eye(2)
        m[0, 1] = 1e-14
        cov = CovMatrix(m)
        assert cov.data[0, 1] == cov.data[1, 0]

    def test_rejects_odd_dimension(self):
        with pytest.raises(UsageError):
            CovMatrix(np.eye(3))


class TestBeamsplitter:
    def test_full_transmission_is_identity(self):
        assert np.allclose(beamsplitter(3, 0, 2, 1.0).data, np.eye(6))

    def test_zero_transmission_swaps_with_sign_flip(self):
        bs = beamsplitter(2, 0, 1, 0.0).data
        assert np.allclose(bs[:2, 2:], np.eye(2))
        assert np.allclose(bs[2:, :2], -np.eye(2))
        assert np.all(bs[:2, :2] == 0)

    def test_five_mode_channel_layout(self):
        t = 0.37
        bs = beamsplitter(5, 1, 2, t).data
        c, s = math.sqrt(t), math.sqrt(1 - t)
        expected = np.eye(10)
        expected[2:4, 2:4] = c * np.eye(2)
        expected[4:6, 4:6] = c * np.eye(2)
        expected[2:4, 4:6] = s * np.eye(2)
        expected[4:6, 2:4] = -s * np.eye(2)
        assert np.allclose(bs, expected)

    def test_transmittance_out_of_range(self):
        with pytest.raises(DomainError):
            beamsplitter(2, 0, 1, 1.2)

    def test_same_mode_rejected(self):
        with pytest.raises(UsageError):
            beamsplitter(2, 1, 1, 0.5)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symplectic_invariant(self, t):
        bs = beamsplitter(3, 0, 2, t)
        omega = symplectic_form(3)
        assert np.max(np.abs(bs.data @ omega @ bs.data.T - omega)) < 1e-12


class TestModePermutation:
    def test_identity(self):
        assert np.array_equal(mode_permutation(3, [0, 1, 2]).data, np.eye(6))

    def test_moves_second_mode_to_last_slot(self):
        p = mode_permutation(5, [0, 2, 3, 4, 1]).data
        # output slot 4 reads from input mode 1
        assert np.array_equal(p[8:10, 2:4], np.eye(2))
        assert np.array_equal(p[0:2, 0:2], np.eye(2))
        assert np.array_equal(p[2:4, 4:6], np.eye(2))

    def test_orthogonal(self):
        p = mode_permutation(5, [0, 2, 3, 4, 1]).data
        assert np.allclose(p @ p.T, np.eye(10))

    def test_rejects_non_bijection(self):
        with pytest.raises(DomainError):
            mode_permutation(3, [0, 0, 2])


class TestApplySymplectic:
    def test_identity_leaves_state(self):
        state = epr_state(2.0)
        ident = SympMatrix(np.eye(4))
        assert np.allclose(apply_symplectic(ident, state).data, state.data)

    def test_vacuum_invariant_under_beamsplitter(self):
        out = apply_symplectic(beamsplitter(2, 0, 1, 0.3), vacuum_state(2))
        assert np.allclose(out.data, np.eye(4))

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            apply_symplectic(beamsplitter(3, 0, 1, 0.5), epr_state(2.0))

    def test_spectrum_preserved_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            n = int(rng.integers(2, 6))
            state, spectrum = random_state_with_spectrum(rng, n)
            assert np.allclose(symplectic_eigenvalues(state), spectrum, atol=1e-10)


class TestSymplecticEigenvalues:
    def test_identity_gives_ones(self):
        assert np.allclose(symplectic_eigenvalues(vacuum_state(4)), np.ones(4))

    def test_matches_two_mode_formula(self):
        got = symplectic_eigenvalues(assemble_two_mode(2.0, 3.0, 1.0))
        expected = sorted(two_mode_eigs(2.0, 3.0, 1.0), reverse=True)
        assert np.allclose(got, expected, atol=1e-12)

    def test_epr_is_pure(self):
        assert np.allclose(symplectic_eigenvalues(epr_state(7.0)), [1.0, 1.0])

    def test_unphysical_state_rejected_with_value(self):
        with pytest.raises(PhysicalityError, match="0.5"):
            symplectic_eigenvalues(CovMatrix(0.5 * np.eye(2)))


class TestTwoModeEigs:
    def test_pure_epr(self):
        v = 4.0
        assert two_mode_eigs(v, v, math.sqrt(v * v - 1)) == (1.0, 1.0)

    def test_product_of_thermals(self):
        assert two_mode_eigs(3.0, 3.0, 0.0) == (3.0, 3.0)

    def test_hand_evaluated_point(self):
        nu1, nu2 = two_mode_eigs(2.0, 3.0, 1.0)
        # z = sqrt(25 - 4) = sqrt(21), b - a = 1
        assert nu1 == pytest.approx((math.sqrt(21) + 1) / 2, abs=1e-14)
        assert nu2 == pytest.approx((math.sqrt(21) - 1) / 2, abs=1e-14)

    def test_negative_discriminant(self):
        with pytest.raises(DomainError):
            two_mode_eigs(1.0, 1.0, 5.0)

    @given(
        st.floats(min_value=1.0, max_value=40.0),
        st.floats(min_value=1.0, max_value=40.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(deadline=None)
    def test_agrees_with_generic_solver(self, a, b, frac):
        c = frac * math.sqrt((a - 1.0) * (b - 1.0))
        pair = two_mode_eigs(a, b, c)
        generic = symplectic_eigenvalues(assemble_two_mode(a, b, c))
        assert np.allclose(np.sort(pair), np.sort(generic), atol=1e-10)


class TestConditioning:
    def test_heterodyne_uncorrelated_mode_leaves_rest(self):
        state = direct_sum([thermal_state(2.0), thermal_state(1.5)])
        out = condition_heterodyne(state, 1)
        assert np.allclose(out.data, 2.0 * np.eye(2))

    def test_homodyne_uncorrelated_mode_leaves_rest(self):
        state = direct_sum([thermal_state(2.0), thermal_state(1.5)])
        out = condition_homodyne(state, 1, Quadrature.Q)
        assert np.allclose(out.data, 2.0 * np.eye(2))

    def test_heterodyne_epr_arm_brute_force(self):
        v = 5.0
        out = condition_heterodyne(epr_state(v), 1)
        # remaining block: V - (V^2 - 1)/(V + 1) = 1 (sigma_z squares away)
        c = math.sqrt(v * v - 1.0)
        expected = v * np.eye(2) - (c * SZ) @ (c * SZ).T / (v + 1.0)
        assert np.allclose(out.data, expected)
        assert np.allclose(out.data, np.eye(2))

    def test_homodyne_epr_arm_brute_force(self):
        v = 5.0
        out = condition_homodyne(epr_state(v), 1, Quadrature.Q)
        c = math.sqrt(v * v - 1.0)
        expected = np.diag([v - c * c / v, v])
        assert np.allclose(out.data, expected)

    def test_heterodyne_rejects_anisotropic_mode(self):
        squeezed = CovMatrix(np.diag([1.6, 0.7]))  # nu ~ 1.06, physical but anisotropic
        state = direct_sum([thermal_state(2.0), squeezed])
        with pytest.raises(UnsupportedCaseError):
            condition_heterodyne(state, 1)

    def test_homodyne_rejects_zero_variance(self):
        degenerate = CovMatrix(np.diag([0.0, 2.0]))
        state = direct_sum([thermal_state(2.0), degenerate])
        with pytest.raises(DomainError):
            condition_homodyne(state, 1, Quadrature.Q)

    def test_conditioning_keeps_states_physical(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            state, _ = random_state_with_spectrum(rng, 4)
            het = condition_heterodyne(state, 0)
            hom = condition_homodyne(state, 0, Quadrature.P)
            assert np.all(symplectic_eigenvalues(het) >= 1.0 - 1e-9)
            assert np.all(symplectic_eigenvalues(hom) >= 1.0 - 1e-9)


class TestExtractModes:
    def test_marginal_of_direct_sum(self):
        state = direct_sum([thermal_state(2.0), thermal_state(3.0), thermal_state(4.0)])
        sub = extract_modes(state, [2, 0])
        assert np.allclose(sub.data, np.diag([4.0, 4.0, 2.0, 2.0]))

    def test_rejects_duplicates(self):
        with pytest.raises(UsageError):
            extract_modes(vacuum_state(2), [0, 0])


class TestEntropy:
    def test_pure_state_has_zero_entropy(self):
        assert von_neumann_entropy([1.0, 1.0, 1.0]) == 0.0

    def test_thermal_two_snu(self):
        # (3/2) log2(3/2) - (1/2) log2(1/2) = 1.5 log2(1.5) + 0.5
        expected = 1.5 * math.log2(1.5) + 0.5  # = 1.3774437510817343
        assert von_neumann_entropy([2.0]) == pytest.approx(expected, abs=1e-14)

    def test_additive_over_eigenvalues(self):
        lhs = von_neumann_entropy([1.7, 2.9])
        rhs = von_neumann_entropy([1.7]) + von_neumann_entropy([2.9])
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_rejects_below_one(self):
        with pytest.raises(DomainError):
            von_neumann_entropy([0.9])

    @given(st.floats(min_value=1.0, max_value=50.0), st.floats(min_value=1e-6, max_value=5.0))
    def test_monotone_increasing(self, nu, step):
        assert von_neumann_entropy([nu + step]) > von_neumann_entropy([nu])

    def test_continuous_near_one(self):
        assert von_neumann_entropy([1.0 + 1e-13]) == pytest.approx(0.0, abs=1e-11)
