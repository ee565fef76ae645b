"""Full-matrix purification route, used as an independent oracle.

The closed forms in :mod:`cvrate.cloner` collapse the eavesdropper's
entropies to a quadratic equation. This module recomputes the same
quantities the long way round, on covariance matrices held as plain
``(2n, 2n)`` arrays: each step is a product S @ cov @ S.T or a Schur
complement from :mod:`cvrate.gaussian`. :func:`received_state` builds one
state for every trust case: the transmitter/receiver state after the
channel, written from the link's definition, then the receiver as a
pure-loss beamsplitter and a quantum-limited amplifier, each on a vacuum
ancilla. The trust case chooses only the state the eavesdropper purifies.
With nothing trusted it is the received (A, B) marginal, so S(E|B) =
S(A|B); with a trusted receiver it is the state after the channel, the
ancillas are on the trusted side, and S(E|B) = S(A, anc1, anc2 | B).

It shares with the closed forms only ``LinkParams`` and its validation:
none of the trust bookkeeping (``V -> V + xi_pr``, the ``xi_pr`` fold, the
source variances, the receiver fold) reaches the oracle, so a mistake there
shows as disagreement. The test references from ``_sources`` on do use that
bookkeeping.
"""

from __future__ import annotations

import math

import numpy as np

from .cloner import (
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
    Quadrature,
    apply_symplectic,
    beamsplitter,
    condition_heterodyne,
    condition_homodyne,
    direct_sum,
    epr_state,
    extract_modes,
    mode_permutation,  # unused here: perfbench/tracing.py binds it (ROADMAP item 6)
    symplectic_eigenvalues,
    thermal_state,
    two_mode_squeezer,
    two_mode_state,
    vacuum_state,
    von_neumann_entropy,
)


def _channel_state(params: LinkParams) -> np.ndarray:
    # (A, B) after the channel; trusted preparation noise is part of Alice's
    # modulation, otherwise it reaches B before the channel
    trusted_preparation = params.trust is Trust.TRUSTED_RECEIVER_AND_PREPARATION
    a = params.v + params.xi_pr if trusted_preparation else params.v
    b = params.t_ch * (params.v_mod + params.xi_pr) + 1.0 + params.xi_ch
    return two_mode_state(a, b, math.sqrt(params.t_ch * (a * a - 1.0)))


def received_state(params: LinkParams) -> np.ndarray:
    """State (A, B, anc1, anc2) after the receiver, for every trust case.

    The receiver V_B -> t_rec V_B + 1 - t_rec + xi_rec is a beamsplitter of
    transmittance t_rec / G with anc1 followed by a two-mode squeezer of gain
    G = 1 + xi_rec / 2 with anc2, both ancillas in vacuum. Every entry stays
    O(sqrt(G)), with no open-port floor even at t_rec = 1.
    """
    gain = 1.0 + 0.5 * params.xi_rec
    state = direct_sum([_channel_state(params), vacuum_state(2)])
    state = apply_symplectic(beamsplitter(4, 1, 2, params.t_rec / gain), state)
    return apply_symplectic(two_mode_squeezer(4, 1, 3, gain), state)


def _eve_and_measured(params: LinkParams) -> tuple[np.ndarray, np.ndarray]:
    # (state the eavesdropper purifies, state whose mode 1 the receiver measures)
    received = received_state(params)
    if params.trust is Trust.UNTRUSTED_ALL:
        ab = extract_modes(received, [0, 1])
        return ab, ab
    return _channel_state(params), received


def ab_matrix(params: LinkParams) -> np.ndarray:
    """Transmitter-receiver state the eavesdropper purifies.

    With nothing trusted it is (A, B) after the receiver; with a trusted
    receiver, (A, B) after the channel.
    """
    return _eve_and_measured(params)[0]


def _measured_entropy(measured: np.ndarray, detection: Detection) -> float:
    if detection is Detection.HETERODYNE:
        remaining = condition_heterodyne(measured, 1)
    else:
        remaining = condition_homodyne(measured, 1, Quadrature.Q)
    return von_neumann_entropy(symplectic_eigenvalues(remaining))


def oracle_conditional_entropy(params: LinkParams) -> float:
    """Eavesdropper entropy after the receiver's measurement, in bits.

    The total state being pure, it is the entropy of the rest of the
    measured state, conditioned on the measured mode: A alone with nothing
    trusted, A and both receiver ancillas with a trusted receiver.
    """
    return _measured_entropy(_eve_and_measured(params)[1], params.detection)


def oracle_holevo(params: LinkParams) -> float:
    """Eavesdropper-receiver information bound computed entirely on matrices.

    The pre-measurement entropy comes from the generic eigensolver applied to
    :func:`ab_matrix`, the conditional entropy from
    :func:`oracle_conditional_entropy`, both from one received state. No
    clamping is applied, so tiny negative values can survive rounding.
    """
    eve, measured = _eve_and_measured(params)
    s_e = von_neumann_entropy(symplectic_eigenvalues(eve))
    return s_e - _measured_entropy(measured, params.detection)


def _sources(params: LinkParams) -> tuple[float, float, float, float, float]:
    # (V, t_ch, t_rec, W_ch, W_rec), attributed and clamped as the closed forms do
    t_ch = _clamped_t(params.t_ch, effective_xi_ch(params))
    return (effective_v(params), t_ch, _clamped_t(params.t_rec, params.xi_rec),
            *noise_source_variances(params))


def purified_total_state(params: LinkParams) -> np.ndarray:
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


def assemble_and_propagate(params: LinkParams) -> np.ndarray:
    """Five-mode state after both beamsplitters.

    Mode order: (A, B, E1, E2, R) = transmitter arm, receiver arm, the two
    channel-EPR modes, and the receiver thermal mode. The channel
    beamsplitter mixes B with E1, the receiver beamsplitter mixes B with R.
    Preparation noise enters through the variance substitutions, never as a
    sixth mode. The two beamsplitters act as one product transform.
    """
    v, t_ch, t_rec, w_ch, w_rec = _sources(params)
    initial = direct_sum([epr_state(v), epr_state(w_ch), thermal_state(w_rec)])
    bs_ch = beamsplitter(5, 1, 2, t_ch)
    bs_rec = beamsplitter(5, 1, 4, t_rec)
    return apply_symplectic(bs_rec @ bs_ch, initial)


def eve_state(params: LinkParams) -> np.ndarray:
    """Two-mode state held by the eavesdropper after the channel beamsplitter.

    Closed form: diagonal blocks ((1 - t_ch) V + t_ch W_ch) and W_ch, with
    sqrt(t_ch (W_ch**2 - 1)) sigma_z correlations. Its entropy equals the
    entropy of the transmitter-receiver state under trusted-receiver
    bookkeeping.
    """
    v, t_ch, _, w_ch, _ = _sources(params)
    c = math.sqrt(t_ch * (w_ch * w_ch - 1.0))
    return two_mode_state((1.0 - t_ch) * v + t_ch * w_ch, w_ch, c)
