"""Maximization of the secret fraction over operating-point parameters.

One-dimensional searches run golden-section refinement on the logarithm of
the search variable after a coarse log-spaced bracket, which copes with the
extremely flat optima that show up at long distances. Ties within 1e-10 of
the maximum resolve to the least aggressive operating point: the smallest
modulation variance, or the largest receiver transmittance.

A probe is ``keyrate._rates(...)[3]`` on plain floats, bit for bit
``evaluate(...).secret_fraction`` without a ``LinkParams``, ``RateResult`` or
numpy array; only a search's optimum goes through ``evaluate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .cloner import LinkParams, Trust, _args, _xi_tot
from .errors import ConstraintError, DomainError, UsageError
from .keyrate import ProtocolParams, RateResult, _rates, evaluate, snr

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_FLAT_TOL = 1e-10
_COARSE_POINTS = 64
_REL_TOL = 1e-6  # golden-section stop: bracket width in log units


@dataclass(frozen=True)
class VmodOptimum:
    """Result of a modulation-variance search."""

    v_mod: float
    result: RateResult
    boundary: str | None  # 'lower' / 'upper' when the optimum sits on a bound


@dataclass(frozen=True)
class ConstrainedOptimum:
    """Result of the joint (v_mod, t_rec) search at fixed SNR."""

    v_mod: float
    t_rec: float
    result: RateResult
    snr_residual: float
    boundary: str | None


def _golden_max(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    prefer_high: bool,
) -> tuple[float, str | None]:
    """Maximize fn on [lo, hi] (log-scaled), returning the best probed point.

    A 64-point log grid brackets the optimum before golden-section
    refinement, guarding against flat or mildly multimodal objectives. The
    returned point is never worse than any probe made along the way.
    """
    if not 0.0 < lo < hi < math.inf:
        raise UsageError(f"bounds must be finite and satisfy 0 < lo < hi, got ({lo}, {hi})")
    u_lo, u_hi = math.log(lo), math.log(hi)
    probes: list[tuple[float, float]] = []

    def probe(u: float) -> float:
        val = fn(math.exp(u))
        probes.append((u, val))
        return val

    grid = np.linspace(u_lo, u_hi, _COARSE_POINTS)
    values = [probe(u) for u in grid]
    best = int(np.argmax(values))

    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, _COARSE_POINTS - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = probe(c), probe(d)
    while b - a > _REL_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = probe(d)

    f_max = max(v for _, v in probes)
    eligible = [u for u, v in probes if v >= f_max - _FLAT_TOL]
    u_star = max(eligible) if prefer_high else min(eligible)

    boundary = None
    if u_hi - u_star <= 3.0 * _REL_TOL:
        boundary = "upper"
    elif u_star - u_lo <= 3.0 * _REL_TOL:
        boundary = "lower"
    return math.exp(u_star), boundary


def optimize_vmod(
    params: LinkParams,
    proto: ProtocolParams,
    bounds: tuple[float, float] = (1e-3, 1e3),
) -> VmodOptimum:
    """Maximize the secret fraction over the modulation variance.

    Args:
        params: link parameters; ``v_mod`` is ignored and replaced by the
            search variable.
        proto: post-processing parameters.
        bounds: inclusive search interval for v_mod in SNU.

    Returns:
        The optimizing v_mod (relative tolerance 1e-6), the rate evaluated
        there, and a flag when the optimum landed on a search bound.
    """
    link = _args(params)[1:]

    def objective(v: float) -> float:
        return _rates(proto.beta, v, *link)[3]

    v_star, boundary = _golden_max(objective, *bounds, prefer_high=False)
    return VmodOptimum(
        v_mod=v_star,
        result=evaluate(replace(params, v_mod=v_star), proto),
        boundary=boundary,
    )


def optimize_vmod_trec_snr_locked(
    params: LinkParams,
    proto: ProtocolParams,
    snr_target: float,
    *,
    t_rec_floor: float = 1e-4,
    vmod_max: float = 1e3,
) -> ConstrainedOptimum:
    """Jointly tune v_mod and the trusted receiver transmittance at fixed SNR.

    The receiver transmittance is searched below its calibrated value; for
    each candidate the modulation variance is fixed by the exact SNR
    inversion, so the constraint holds at every probe. Deliberate detuning
    only makes sense when the receiver is trusted.

    Raises:
        DomainError: for an untrusted receiver, a non-positive target, or a
            ``t_rec_floor`` outside (0, 1].
        ConstraintError: when even the calibrated receiver needs a modulation
            variance above ``vmod_max`` to reach the target.
    """
    if params.trust is Trust.UNTRUSTED_ALL:
        raise DomainError("SNR-locked receiver detuning requires a trusted receiver")
    if snr_target <= 0.0:
        raise DomainError(f"snr_target must be positive, got {snr_target}")
    if not 0.0 < t_rec_floor <= 1.0:
        raise DomainError(f"t_rec_floor must lie in (0, 1], got {t_rec_floor}")
    _, t_ch, xi_ch, t_cal, xi_rec, xi_pr, detection, trust = _args(params)

    # every probe lies in [floor, t_cal], inside (0, 1]
    def implied_vmod(t: float) -> float:
        # the excess-noise terms do not depend on v_mod, so the SNR inverts
        # exactly: v_mod = snr_target * (mu + xi_tot) / T_tot
        return snr_target * (detection.mu + _xi_tot(t_ch, xi_ch, t, xi_rec, xi_pr)) / (t_ch * t)

    if implied_vmod(t_cal) > vmod_max:
        raise ConstraintError(
            f"SNR target {snr_target:g} needs v_mod {implied_vmod(t_cal):.6g} SNU "
            f"> cap {vmod_max:g} even at the calibrated t_rec {t_cal:g}"
        )

    # implied v_mod grows monotonically as t_rec shrinks; keep the search
    # inside the reachable region
    floor = t_rec_floor
    if implied_vmod(floor) > vmod_max:
        lo_t, hi_t = floor, t_cal
        for _ in range(200):
            mid = 0.5 * (lo_t + hi_t)
            settled = mid == lo_t or mid == hi_t  # then no later step moves the bracket
            if implied_vmod(mid) > vmod_max:
                lo_t = mid
            else:
                hi_t = mid
            if settled:
                break
        floor = hi_t
    if floor >= t_cal:
        floor = t_cal * (1.0 - 1e-9)

    def objective(t: float) -> float:
        return _rates(proto.beta, implied_vmod(t), t_ch, xi_ch, t, xi_rec, xi_pr,
                      detection, trust)[3]

    t_star, boundary = _golden_max(objective, floor, t_cal, prefer_high=True)
    v_star = implied_vmod(t_star)
    tuned = replace(params, t_rec=t_star, v_mod=v_star)
    residual = abs(snr(tuned) - snr_target)
    if residual >= 1e-9:
        raise ConstraintError(f"SNR residual {residual:.3e} exceeds tolerance at the optimum")
    return ConstrainedOptimum(
        v_mod=v_star,
        t_rec=t_star,
        result=evaluate(tuned, proto),
        snr_residual=residual,
        boundary=boundary,
    )
