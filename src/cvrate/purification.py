"""Full-matrix purification route, used as an independent oracle.

The closed forms in :mod:`cvrate.cloner` collapse the eavesdropper's
entropies to a quadratic equation. This module recomputes the same
quantities the long way round from the transmitter/receiver state that
:func:`ab_matrix` writes from the link's definition. With nothing trusted
the eavesdropper holds its whole purification, so the eavesdropper's
conditional entropy is that of the transmitter arm given the receiver's
mode. With a trusted receiver, the receiver is purified with an ancillary
EPR state on a beamsplitter and the measured mode conditioned out; the
total state being pure, the surviving three-mode state's entropy is the
eavesdropper's.

It shares with the closed forms only ``LinkParams`` and its validation, and
``_MIN_OPEN_PORT``: none of the trust bookkeeping (``V -> V + xi_pr``, the
``xi_pr`` fold, the source variances, the receiver fold) reaches the oracle,
so a mistake there shows as disagreement. The test references from
``_sources`` on do use that bookkeeping.

On the 1944-point acceptance grid an :func:`oracle_holevo` point took about
165 us of CPU untrusted and 300 us trusted, against 12 us for
:func:`cvrate.cloner.holevo_bound` (Python 3.11, numpy 2.4, one core of a
2-vCPU virtual machine).
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
    thermal_state,
    two_mode_state,
    vacuum_state,
    von_neumann_entropy,
)

def ab_matrix(params: LinkParams) -> CovMatrix:
    """Transmitter-receiver state as the eavesdropper is credited with it.

    The transmitter arm has variance V + xi_pr when preparation is trusted
    (the noise is part of the modulation), else V. The receiver arm takes
    the preparation noise before the channel, then the end-to-end loss and
    all later noise when nothing is trusted, or the channel's alone.
    """
    trusted_preparation = params.trust is Trust.TRUSTED_RECEIVER_AND_PREPARATION
    a = params.v + params.xi_pr if trusted_preparation else params.v
    if params.trust is Trust.UNTRUSTED_ALL:
        t, xi = params.t_tot, params.t_rec * params.xi_ch + params.xi_rec
    else:
        t, xi = params.t_ch, params.xi_ch
    b = t * (params.v_mod + params.xi_pr) + 1.0 + xi
    return two_mode_state(a, b, math.sqrt(t * (a * a - 1.0)))


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
    ab = ab_matrix(params)
    four = direct_sum([ab, vacuum_state(2)])  # (A, B, anc1, anc2)
    four = apply_symplectic(mode_permutation(4, [0, 2, 3, 1]), four)  # (A, anc1, anc2, B)
    return apply_symplectic(_receiver_stage(params.t_rec, params.xi_rec), four)


def oracle_conditional_entropy(params: LinkParams) -> float:
    """Eavesdropper entropy after the receiver's measurement, in bits.

    With a trusted receiver, conditions the purified four-mode state on the
    measured mode and returns the entropy of the remaining 6x6 state. With
    nothing trusted, the eavesdropper holds the whole purification of
    :func:`ab_matrix`, so S(E|B) = S(A|B): the two-mode state is conditioned
    on the receiver's mode directly.
    """
    if params.trust is Trust.UNTRUSTED_ALL:
        pre, measured = ab_matrix(params), 1
    else:
        pre, measured = _premeasurement_state(params), 3
    if params.detection is Detection.HETERODYNE:
        remaining = condition_heterodyne(pre, measured)
    else:
        remaining = condition_homodyne(pre, measured, Quadrature.Q)
    return von_neumann_entropy(symplectic_eigenvalues(remaining))


def oracle_holevo(params: LinkParams) -> float:
    """Eavesdropper-receiver information bound computed entirely on matrices.

    The pre-measurement entropy comes from the generic eigensolver applied to
    :func:`ab_matrix`, the conditional entropy from
    :func:`oracle_conditional_entropy`. No clamping is applied, so tiny
    negative values can survive rounding.
    """
    s_e = von_neumann_entropy(symplectic_eigenvalues(ab_matrix(params)))
    return s_e - oracle_conditional_entropy(params)


def _sources(params: LinkParams) -> tuple[float, float, float, float, float]:
    # (V, t_ch, t_rec, W_ch, W_rec), attributed and clamped as the closed forms do
    t_ch = _clamped_t(params.t_ch, effective_xi_ch(params))
    return (effective_v(params), t_ch, _clamped_t(params.t_rec, params.xi_rec),
            *noise_source_variances(params))


def purified_total_state(params: LinkParams) -> CovMatrix:
    """Four-mode purified state (A, B, E1, E2) after the channel beamsplitter.

    The transmitter EPR pair and the channel-noise EPR pair are both pure, so
    the state stays pure for every admissible parameter set; replacing the
    channel pair with a bare thermal state would break that.
    """
    if params.trust is Trust.UNTRUSTED_ALL:
        params = receiver_folded(params)
    v, t_ch, _, w_ch, _ = _sources(params)
    state = direct_sum([epr_state(v), epr_state(w_ch)])
    return apply_symplectic(beamsplitter(4, 1, 2, t_ch), state)


def assemble_and_propagate(params: LinkParams) -> CovMatrix:
    """Five-mode state after both beamsplitters.

    Mode order: (A, B, E1, E2, R) = transmitter arm, receiver arm, the two
    channel-EPR modes, and the receiver thermal mode. The channel
    beamsplitter mixes B with E1, the receiver beamsplitter mixes B with R.
    Preparation noise enters through the variance substitutions, never as a
    sixth mode.
    """
    v, t_ch, t_rec, w_ch, w_rec = _sources(params)
    initial = direct_sum([epr_state(v), epr_state(w_ch), thermal_state(w_rec)])
    bs_ch = beamsplitter(5, 1, 2, t_ch)
    bs_rec = beamsplitter(5, 1, 4, t_rec)
    return apply_symplectic(bs_rec @ bs_ch, initial)


def eve_state(params: LinkParams) -> CovMatrix:
    """Two-mode state held by the eavesdropper after the channel beamsplitter.

    Closed form: diagonal blocks ((1 - t_ch) V + t_ch W_ch) and W_ch, with
    sqrt(t_ch (W_ch**2 - 1)) sigma_z correlations. Its entropy equals the
    entropy of the transmitter-receiver state under trusted-receiver
    bookkeeping.
    """
    v, t_ch, _, w_ch, _ = _sources(params)
    c = math.sqrt(t_ch * (w_ch * w_ch - 1.0))
    return two_mode_state((1.0 - t_ch) * v + t_ch * w_ch, w_ch, c)
