"""Full-matrix purification route, used as an independent oracle.

The closed forms in :mod:`cvrate.cloner` collapse the eavesdropper's
entropies to a quadratic equation. This module recomputes the same
quantities the long way round: it builds the two-mode
transmitter/receiver state explicitly, purifies the receiver with an
ancillary EPR state mixed in on a beamsplitter, conditions on the measured
mode and feeds the surviving three-mode state to the generic eigensolver.
Because the total state is pure, the entropy of what remains after the
measurement equals the eavesdropper's conditional entropy.

This route is deliberately free of the closed-form shortcuts, trading
speed for independence. Over the 1944-point acceptance grid an
:func:`oracle_holevo` point took about 290 us of CPU time against about
30 us for :func:`cvrate.cloner.holevo_bound`, a ratio of 9 to 10 (Python
3.11, numpy 2.4, one core of a 2-vCPU virtual machine).
"""

from __future__ import annotations

import math

import numpy as np

from .cloner import (
    _MIN_OPEN_PORT,
    Detection,
    LinkParams,
    Trust,
    _clamped_t,
    effective_v,
    effective_xi_ch,
    noise_source_variances,
    receiver_folded,
)
from .gaussian import (
    SIGMA_Z,
    CovMatrix,
    Quadrature,
    SympMatrix,
    apply_symplectic,
    beamsplitter,
    condition_heterodyne,
    condition_homodyne,
    direct_sum,
    epr_state,
    mode_permutation,
    symplectic_eigenvalues,
    two_mode_state,
    vacuum_state,
    von_neumann_entropy,
)

def ab_matrix_untrusted(params: LinkParams) -> CovMatrix:
    """Transmitter-receiver state with everything attributed to the channel.

    Uses the end-to-end transmittance and total excess noise, i.e. the state
    an eavesdropper is credited with when no device is trusted.
    """
    v = params.v
    b = params.t_tot * (v - 1.0) + 1.0 + params.xi_tot
    c = math.sqrt(params.t_tot * (v * v - 1.0))
    return two_mode_state(v, b, c)


def ab_matrix_trusted(params: LinkParams) -> CovMatrix:
    """Transmitter-receiver state as seen by the eavesdropper with a trusted
    receiver: only channel transmittance and channel noise appear.

    Trusted preparation noise enters through the V -> V + xi_pr substitution,
    untrusted preparation noise through the channel-noise fold.
    """
    v = effective_v(params)
    xi = effective_xi_ch(params)
    b = params.t_ch * (v - 1.0) + 1.0 + xi
    c = math.sqrt(params.t_ch * (v * v - 1.0))
    return two_mode_state(v, b, c)


def _receiver_stage(t_rec: float, xi_rec: float) -> SympMatrix:
    """Receiver model on modes (A, anc1, anc2, B), in the unsqueezed ancilla basis.

    Mathematically this is ``(1 ⊕ S⁻¹ ⊕ 1) · BS_{B,anc1}(t_rec) · (1 ⊕ S ⊕ 1)``
    where S is the two-mode squeezer generating the purifying EPR state of
    variance W_rec = xi_rec / (1 - t_rec) + 1 from vacuum. Conjugating with S
    commutes with conditioning on B and leaves entropies untouched, but it
    keeps every matrix entry O(1) even as t_rec -> 1 drives W_rec -> infinity,
    which would otherwise cost the eigensolver eight digits.

    The coefficients below are the algebraically simplified entries of that
    product; each is evaluated free of large-number cancellation:

        sqrt(T) c^2 - s^2   = sqrt(T) - (xi/2) / (1 + sqrt(T))
        c^2 - sqrt(T) s^2   = 1 + (xi/2) / (1 + sqrt(T))
        c s (1 - sqrt(T))   = sqrt((xi/2) (d + xi/2)) / (1 + sqrt(T))
        c sqrt(d)           = sqrt(d + xi/2)
        s sqrt(d)           = sqrt(xi/2)

    with d = 1 - T, cosh(2r) = W_rec, c = cosh r, s = sinh r and the exact
    identities s^2 d = xi/2, c^2 d = d + xi/2.
    """
    d = 1.0 - t_rec
    if xi_rec > 0.0:
        d = max(d, _MIN_OPEN_PORT)
    root_t = math.sqrt(1.0 - d)
    half_xi = 0.5 * xi_rec

    k_aa = root_t - half_xi / (1.0 + root_t)
    k_22 = 1.0 + half_xi / (1.0 + root_t)
    k_mix = math.sqrt(half_xi * (d + half_xi)) / (1.0 + root_t)
    k_cd = math.sqrt(d + half_xi)
    k_sd = math.sqrt(half_xi)

    out = np.eye(8)
    eye2 = np.eye(2)
    # anc1 row
    out[2:4, 2:4] = k_aa * eye2
    out[2:4, 4:6] = -k_mix * SIGMA_Z
    out[2:4, 6:8] = -k_cd * eye2
    # anc2 row
    out[4:6, 2:4] = k_mix * SIGMA_Z
    out[4:6, 4:6] = k_22 * eye2
    out[4:6, 6:8] = k_sd * SIGMA_Z
    # B row
    out[6:8, 2:4] = k_cd * eye2
    out[6:8, 4:6] = k_sd * SIGMA_Z
    out[6:8, 6:8] = root_t * eye2
    # validated, unlike the transforms gaussian builds: rounding in these
    # O(sqrt(xi_rec)) entries leaves a residual above 1e-12 at large xi_rec
    # (1.7e-11 at xi_rec = 1e3), so this check can fire
    return SympMatrix(out)


def _premeasurement_state(params: LinkParams) -> CovMatrix:
    """Four-mode state (A, anc1, anc2, B) just before the measurement,
    with the receiver ancilla expressed in its unsqueezed basis."""
    ab = ab_matrix_trusted(params)
    four = direct_sum([ab, vacuum_state(2)])  # (A, B, anc1, anc2)
    four = apply_symplectic(mode_permutation(4, [0, 2, 3, 1]), four)  # (A, anc1, anc2, B)
    return apply_symplectic(_receiver_stage(params.t_rec, params.xi_rec), four)


def oracle_conditional_entropy(params: LinkParams, quad: Quadrature = Quadrature.Q) -> float:
    """Eavesdropper entropy after the receiver's measurement, in bits.

    Conditions the purified four-mode state on the measured mode and returns
    the entropy of the remaining 6x6 state via the generic eigensolver. For
    fully untrusted bookkeeping the receiver is first folded into the
    channel. ``quad`` selects the homodyned quadrature (the spectra agree).
    """
    if params.trust is Trust.UNTRUSTED_ALL:
        params = receiver_folded(params)
    pre = _premeasurement_state(params)
    if params.detection is Detection.HETERODYNE:
        remaining = condition_heterodyne(pre, 3)
    else:
        remaining = condition_homodyne(pre, 3, quad)
    return von_neumann_entropy(symplectic_eigenvalues(remaining))


def oracle_holevo(params: LinkParams, quad: Quadrature = Quadrature.Q) -> float:
    """Eavesdropper-receiver information bound computed entirely on matrices.

    The pre-measurement entropy comes from the generic eigensolver applied to
    the trust-appropriate two-mode state, the conditional entropy from
    :func:`oracle_conditional_entropy`. No clamping is applied, so tiny
    negative values can survive rounding.
    """
    if params.trust is Trust.UNTRUSTED_ALL:
        ab = ab_matrix_untrusted(params)
    else:
        ab = ab_matrix_trusted(params)
    s_e = von_neumann_entropy(symplectic_eigenvalues(ab))
    return s_e - oracle_conditional_entropy(params, quad)


def purified_total_state(params: LinkParams) -> CovMatrix:
    """Four-mode purified state (A, B, E1, E2) after the channel beamsplitter.

    The transmitter EPR pair and the channel-noise EPR pair are both pure, so
    the state stays pure for every admissible parameter set; replacing the
    channel pair with a bare thermal state would break that.
    """
    if params.trust is Trust.UNTRUSTED_ALL:
        params = receiver_folded(params)
    w_ch, _ = noise_source_variances(params)
    t_ch = _clamped_t(params.t_ch, effective_xi_ch(params))
    state = direct_sum([epr_state(effective_v(params)), epr_state(w_ch)])
    return apply_symplectic(beamsplitter(4, 1, 2, t_ch), state)


def purity_check(params: LinkParams) -> bool:
    """True when the purified pre-measurement state is pure.

    All four symplectic eigenvalues of :func:`purified_total_state` must sit
    within 1e-9 of 1.
    """
    nus = symplectic_eigenvalues(purified_total_state(params))
    return bool(np.max(np.abs(nus - 1.0)) <= 1e-9)
