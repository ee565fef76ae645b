import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvrate import (
    DomainError,
    PhysicalityError,
    UnsupportedCaseError,
    UsageError,
)
from cvrate.gaussian import (
    Column,
    Quadrature,
    SympMatrix,
    apply_symplectic,
    beamsplitter,
    condition_heterodyne,
    condition_homodyne,
    direct_sum,
    epr_state,
    extract_modes,
    mode_permutation,
    symplectic_eigenvalues,
    thermal_state,
    two_mode_eigs,
    two_mode_squeezer,
    vacuum_state,
    von_neumann_entropy,
)
from cvrate.gaussian import CLAMP_TOL, _symplectic_form, clamp_spectrum, two_mode_state

SZ = np.diag([1.0, -1.0])


def assemble_two_mode(a, b, c):
    m = np.zeros((4, 4))
    m[:2, :2] = a * np.eye(2)
    m[2:, 2:] = b * np.eye(2)
    m[:2, 2:] = c * SZ
    m[2:, :2] = c * SZ
    return m


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
        assert np.array_equal(_symplectic_form(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_two_modes_block_structure(self):
        omega = _symplectic_form(2)
        assert np.array_equal(omega[:2, :2], [[0, 1], [-1, 0]])
        assert np.array_equal(omega[2:, 2:], [[0, 1], [-1, 0]])
        assert np.all(omega[:2, 2:] == 0)
        assert np.all(omega[2:, :2] == 0)

    def test_orthogonal_and_squares_to_minus_identity(self):
        omega = _symplectic_form(3)
        assert np.allclose(omega @ omega.T, np.eye(6))
        assert np.allclose(omega @ omega, -np.eye(6))


class TestStateConstructors:
    def test_epr_unit_variance_is_two_vacua(self):
        assert np.array_equal(epr_state(1.0), np.eye(4))

    def test_epr_block_structure(self):
        m = epr_state(5.0)
        assert np.allclose(m[:2, :2], 5.0 * np.eye(2))
        assert np.allclose(m[:2, 2:], math.sqrt(24.0) * SZ)

    def test_two_mode_state_spectrum_is_two_mode_eigs(self):
        state = two_mode_state(2.0, 3.0, 1.0)
        assert np.array_equal(state, assemble_two_mode(2.0, 3.0, 1.0))
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
        assert np.array_equal(direct_sum([vacuum_state()]), np.eye(2))

    def test_direct_sum_five_mode_layout(self):
        total = direct_sum([epr_state(5.0), epr_state(1.5), thermal_state(1.25)])
        assert total.shape == (10, 10)
        assert np.allclose(total[8:, 8:], 1.25 * np.eye(2))
        assert np.all(total[:4, 4:] == 0)

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


class TestSympMatrixInvariants:
    def test_rejects_non_symplectic(self):
        with pytest.raises(DomainError, match="not symplectic"):
            SympMatrix(np.diag([2.0, 1.0]))

    def test_rejects_odd_dimension(self):
        with pytest.raises(UsageError):
            SympMatrix(np.eye(3))

    def test_product_of_beamsplitters(self):
        product = beamsplitter(3, 0, 1, 0.3) @ beamsplitter(3, 1, 2, 0.6)
        omega = _symplectic_form(3)
        assert np.max(np.abs(product @ omega @ product.T - omega)) < 1e-12


# The operations below return plain arrays without validating them. That is
# sound only while every state they produce is exactly symmetric and every
# transform passes the symplecticity check of SympMatrix.
def _random_state(rng, n_modes):
    parts, n = [], 0
    while n < n_modes:
        if n_modes - n >= 2 and rng.random() < 0.5:
            parts.append(two_mode_state(*_two_mode_args(rng)))
            n += 2
        else:
            parts.append(thermal_state(float(rng.uniform(1.0, 50.0))))
            n += 1
    return direct_sum(parts)


def _two_mode_args(rng):
    a, b = rng.uniform(1.0, 50.0, size=2)
    return float(a), float(b), float(rng.uniform(0.0, 1.0) * math.sqrt((a - 1.0) * (b - 1.0)))


def _assert_exact_covariance(cov, n_modes):
    assert type(cov) is np.ndarray
    assert cov.shape == (2 * n_modes, 2 * n_modes)
    assert cov.dtype == np.float64
    assert np.array_equal(cov, cov.T)


def _assert_symplectic(transform, n_modes):
    assert type(transform) is np.ndarray
    assert transform.shape == (2 * n_modes, 2 * n_modes)
    assert transform.dtype == np.float64
    SympMatrix(transform)  # raises unless the residual is below 1e-12


class TestUncheckedResults:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    @settings(deadline=None, max_examples=60)
    def test_every_operation_returns_a_valid_matrix(self, seed, n):
        rng = np.random.default_rng(seed)
        _assert_exact_covariance(two_mode_state(*_two_mode_args(rng)), 2)
        _assert_exact_covariance(epr_state(float(rng.uniform(1.0, 1e4))), 2)
        _assert_exact_covariance(thermal_state(float(rng.uniform(1.0, 1e4))), 1)
        _assert_exact_covariance(vacuum_state(n), n)

        state = _random_state(rng, n)
        _assert_exact_covariance(state, n)
        i, j = (int(m) for m in rng.choice(n, size=2, replace=False))
        bs = beamsplitter(n, i, j, float(rng.uniform(0.0, 1.0)))
        _assert_symplectic(bs, n)
        perm = mode_permutation(n, [int(m) for m in rng.permutation(n)])
        _assert_symplectic(perm, n)
        assert np.array_equal(perm @ perm.T, np.eye(2 * n))

        state = apply_symplectic(bs, state)
        _assert_exact_covariance(state, n)
        state = apply_symplectic(perm, state)
        _assert_exact_covariance(state, n)

        kept = [int(m) for m in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
        _assert_exact_covariance(extract_modes(state, kept), len(kept))

        measured = int(rng.integers(n))
        _assert_exact_covariance(condition_homodyne(state, measured, Quadrature.P), n - 1)
        # heterodyne needs an isotropic measured mode; thermal modes mixed on
        # beamsplitters keep every 2x2 block proportional to the identity
        iso, _ = random_state_with_spectrum(rng, n)
        _assert_exact_covariance(condition_heterodyne(iso, measured), n - 1)

    def test_conditioning_matches_the_permutation_matrix_route(self):
        # reference: permute the measured mode last with a dense permutation
        # matrix, then apply the conditioning formulas to the blocks
        rng = np.random.default_rng(7)
        state = _random_state(rng, 4)
        iso, _ = random_state_with_spectrum(rng, 4)
        for mode in range(4):
            order = [m for m in range(4) if m != mode] + [mode]
            perm = mode_permutation(4, order)
            for quad in Quadrature:
                moved = perm @ state @ perm.T
                col = moved[:-2, -2:][:, quad.value : quad.value + 1]
                out = moved[:-2, :-2] - (col @ col.T) / moved[-2 + quad.value, -2 + quad.value]
                got = condition_homodyne(state, mode, quad)
                assert np.array_equal(got, 0.5 * (out + out.T))
            moved = perm @ iso @ perm.T
            cross = moved[:-2, -2:]
            v_b = 0.5 * (moved[-2, -2] + moved[-1, -1])
            out = moved[:-2, :-2] - (cross @ cross.T) / (v_b + 1.0)
            assert np.array_equal(condition_heterodyne(iso, mode), 0.5 * (out + out.T))


class TestBeamsplitter:
    def test_full_transmission_is_identity(self):
        assert np.allclose(beamsplitter(3, 0, 2, 1.0), np.eye(6))

    def test_zero_transmission_swaps_with_sign_flip(self):
        bs = beamsplitter(2, 0, 1, 0.0)
        assert np.allclose(bs[:2, 2:], np.eye(2))
        assert np.allclose(bs[2:, :2], -np.eye(2))
        assert np.all(bs[:2, :2] == 0)

    def test_five_mode_channel_layout(self):
        t = 0.37
        bs = beamsplitter(5, 1, 2, t)
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
        omega = _symplectic_form(3)
        assert np.max(np.abs(bs @ omega @ bs.T - omega)) < 1e-12


class TestTwoModeSqueezer:
    @pytest.mark.parametrize("gain", [1.0, 1.05, 501.0])
    def test_passes_the_symplecticity_check(self, gain):
        _assert_symplectic(two_mode_squeezer(3, 2, 0, gain), 3)

    def test_unit_gain_is_identity(self):
        assert np.array_equal(two_mode_squeezer(3, 0, 2, 1.0), np.eye(6))

    @pytest.mark.parametrize("gain", [1.05, 3.0, 501.0])
    def test_amplifies_with_a_vacuum_ancilla(self, gain):
        state = direct_sum([thermal_state(2.5), vacuum_state(1)])
        out = apply_symplectic(two_mode_squeezer(2, 0, 1, gain), state)
        assert np.allclose(out[:2, :2], (gain * 2.5 + gain - 1.0) * np.eye(2),
                           rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("gain", [0.999, -1.0, math.nan, math.inf])
    def test_gain_below_one_or_not_finite(self, gain):
        with pytest.raises(DomainError):
            two_mode_squeezer(2, 0, 1, gain)

    @pytest.mark.parametrize("modes", [(1, 1), (0, 2), (-1, 0)])
    def test_mode_indices_checked(self, modes):
        with pytest.raises(UsageError):
            two_mode_squeezer(2, *modes, 2.0)


class TestModePermutation:
    def test_identity(self):
        assert np.array_equal(mode_permutation(3, [0, 1, 2]), np.eye(6))

    def test_moves_second_mode_to_last_slot(self):
        p = mode_permutation(5, [0, 2, 3, 4, 1])
        # output slot 4 reads from input mode 1
        assert np.array_equal(p[8:10, 2:4], np.eye(2))
        assert np.array_equal(p[0:2, 0:2], np.eye(2))
        assert np.array_equal(p[2:4, 4:6], np.eye(2))

    def test_orthogonal(self):
        p = mode_permutation(5, [0, 2, 3, 4, 1])
        assert np.allclose(p @ p.T, np.eye(10))

    def test_rejects_non_bijection(self):
        with pytest.raises(DomainError):
            mode_permutation(3, [0, 0, 2])


class TestApplySymplectic:
    def test_identity_leaves_state(self):
        state = epr_state(2.0)
        assert np.allclose(apply_symplectic(np.eye(4), state), state)

    def test_vacuum_invariant_under_beamsplitter(self):
        out = apply_symplectic(beamsplitter(2, 0, 1, 0.3), vacuum_state(2))
        assert np.allclose(out, np.eye(4))

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
            symplectic_eigenvalues(0.5 * np.eye(2))


def reference_clamp(values):
    values = np.asarray(values, dtype=float)
    if np.any(values < 1.0 - CLAMP_TOL):
        raise PhysicalityError("unphysical")
    return np.where(values < 1.0, 1.0, values)


class TestClampSpectrum:
    near_one = st.sampled_from([1.0, 1.0 - 1e-12, 1.0 - CLAMP_TOL, 1.0 - 2e-9, 1.0 - 1e-6,
                                1.0 - 2e-6, 1.0 + 1e-15, math.nan, math.inf])

    @given(st.lists(st.one_of(near_one, st.floats(allow_nan=True, allow_infinity=True)), max_size=6))
    def test_matches_the_masked_rewrite_on_every_input(self, values):
        try:
            expected = reference_clamp(values)
        except PhysicalityError:
            with pytest.raises(PhysicalityError):
                clamp_spectrum(values)
            return
        got = clamp_spectrum(values)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected, equal_nan=True)

    def test_snaps_and_rejects(self):
        assert np.array_equal(clamp_spectrum([2.0, 1.0 - 1e-10]), [2.0, 1.0])
        with pytest.raises(PhysicalityError):
            clamp_spectrum([2.0, 0.9])

    def test_one_threshold_between_snap_and_reject(self):
        # beyond the clamp tolerance is unphysical on every path, not a value
        # that passes here and fails in von_neumann_entropy
        with pytest.raises(PhysicalityError, match="0.999999995"):
            clamp_spectrum((2.0, 1 - 5e-9))
        with pytest.raises(PhysicalityError):
            clamp_spectrum(np.array([2.0, 1 - 5e-9]))


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

    def test_larger_root_comes_first(self):
        # b < a: the diagonal difference is negative, the pair still descends
        nu1, nu2 = two_mode_eigs(3.0, 2.0, 1.0)
        assert nu1 == pytest.approx((math.sqrt(21) + 1) / 2, abs=1e-14)
        assert nu2 == pytest.approx((math.sqrt(21) - 1) / 2, abs=1e-14)
        assert two_mode_eigs(3.0, 2.0, 1.0) == two_mode_eigs(2.0, 3.0, 1.0)

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
        assert np.allclose(out, 2.0 * np.eye(2))

    def test_homodyne_uncorrelated_mode_leaves_rest(self):
        state = direct_sum([thermal_state(2.0), thermal_state(1.5)])
        out = condition_homodyne(state, 1, Quadrature.Q)
        assert np.allclose(out, 2.0 * np.eye(2))

    def test_heterodyne_epr_arm_brute_force(self):
        v = 5.0
        out = condition_heterodyne(epr_state(v), 1)
        # remaining block: V - (V^2 - 1)/(V + 1) = 1 (sigma_z squares away)
        c = math.sqrt(v * v - 1.0)
        expected = v * np.eye(2) - (c * SZ) @ (c * SZ).T / (v + 1.0)
        assert np.allclose(out, expected)
        assert np.allclose(out, np.eye(2))

    def test_homodyne_epr_arm_brute_force(self):
        v = 5.0
        out = condition_homodyne(epr_state(v), 1, Quadrature.Q)
        c = math.sqrt(v * v - 1.0)
        expected = np.diag([v - c * c / v, v])
        assert np.allclose(out, expected)

    def test_heterodyne_rejects_anisotropic_mode(self):
        squeezed = np.diag([1.6, 0.7])  # nu ~ 1.06, physical but anisotropic
        state = direct_sum([thermal_state(2.0), squeezed])
        with pytest.raises(UnsupportedCaseError):
            condition_heterodyne(state, 1)

    def test_homodyne_rejects_zero_variance(self):
        degenerate = np.diag([0.0, 2.0])
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
        assert np.allclose(sub, np.diag([4.0, 4.0, 2.0, 2.0]))

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

    @pytest.mark.parametrize("nu", [math.nan, math.inf])
    def test_rejects_non_finite(self, nu):
        with pytest.raises(DomainError, match="not finite"):
            von_neumann_entropy([2.0, nu])

    @given(st.floats(min_value=1.0, max_value=50.0), st.floats(min_value=1e-6, max_value=5.0))
    def test_monotone_increasing(self, nu, step):
        assert von_neumann_entropy([nu + step]) > von_neumann_entropy([nu])

    def test_continuous_near_one(self):
        assert von_neumann_entropy([1.0 + 1e-13]) == pytest.approx(0.0, abs=1e-11)

    def test_snap_band_below_one_is_accepted(self):
        # a value rounded just below 1 takes the same formula, with y = |nu - 1| / 2
        value = von_neumann_entropy([1.0 - 1e-10])
        assert math.isfinite(value) and abs(value) <= 2e-9

    def test_column_rows_have_the_float_bits(self):
        nus = [1.0 - 1e-10, 1.0, 1.0 + 1e-13, 1.0 + 1e-12, 2.0, 1e300]
        assert von_neumann_entropy([Column.of(nus)], xp=Column).tolist() == [von_neumann_entropy([nu]) for nu in nus]

    @staticmethod
    def exact(nu, digits):
        # x log2 x - y log2 y with x, y = (nu +- 1) / 2
        import mpmath

        with mpmath.workdps(digits):
            x, y = (mpmath.mpf(nu) + 1) / 2, (mpmath.mpf(nu) - 1) / 2
            return x * mpmath.log(x, 2) - (y * mpmath.log(y, 2) if y else 0)

    @given(st.floats(min_value=0.0, max_value=300.0))
    @settings(deadline=None, derandomize=True, max_examples=400)
    def test_within_1e13_of_exact_up_to_1e300(self, exponent):
        # at 400 digits, within 1e-13 plus an ulp of the value (about 1e-13
        # itself near 1e300); both terms grow like nu log nu, so the float
        # form must not subtract them
        nu = 10.0 ** exponent
        exact = self.exact(nu, 400)
        assert abs(von_neumann_entropy([nu]) - exact) <= 1e-13 + 1e-16 * exact, nu

    @given(st.floats(min_value=1.0, max_value=1.0 + 1e-9, exclude_min=True))
    @example(math.nextafter(1.0, 2.0))
    @example(math.nextafter(1.0 + 1e-12, 1.0))
    @example(1.0 + 1e-12)
    @example(1.0 + 1e-9)
    @settings(deadline=None, derandomize=True, max_examples=400)
    def test_within_2e16_of_exact_just_above_one(self, nu):
        # y log1p(1/y) at y down to 1e-16, against 80 digits
        assert abs(von_neumann_entropy([nu]) - self.exact(nu, 80)) <= 2e-16, nu
