"""Secure-fraction and key-rate assembly.

Combines the mutual information and the eavesdropper bound, both from the
two-stage kernel of :mod:`cvrate.cloner`, with the classical post-processing
parameters into one result record. ``_swept_rates`` gives the numbers of a
whole sweep grid in one pass, the swept field a ``gaussian.Column``, or None
to leave every row of it to ``evaluate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloner import _FIELDS, LinkParams, _args, _closed_forms, _in_domain, _link_stage, holevo_bound
from .errors import DomainError
from .gaussian import Column


@dataclass(frozen=True, kw_only=True)
class ProtocolParams:
    """Classical post-processing parameters.

    Attributes:
        beta: reconciliation efficiency in [0, 1]; required, no default.
        fer: frame-error rate of the error-correcting code, in [0, 1].
        disclosed_fraction: share of the raw key given up for parameter
            estimation, in [0, 1).
        f_sym: symbol rate in symbols/second; when absent, results are
            reported in bits/symbol only.
    """

    beta: float
    fer: float = 0.0
    disclosed_fraction: float = 0.0
    f_sym: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise DomainError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 <= self.fer <= 1.0:
            raise DomainError(f"fer must lie in [0, 1], got {self.fer}")
        if not 0.0 <= self.disclosed_fraction < 1.0:
            raise DomainError(
                f"disclosed_fraction must lie in [0, 1), got {self.disclosed_fraction}"
            )
        if self.f_sym is not None and not 0.0 < self.f_sym < math.inf:
            raise DomainError(f"f_sym must be positive and finite, got {self.f_sym}")


@dataclass(frozen=True)
class RateResult:
    """One evaluated operating point.

    ``secret_fraction`` keeps its sign for diagnostics; ``key_rate`` is zero
    whenever the secret fraction is not positive and ``None`` when no symbol
    rate was supplied. ``eigs`` holds the four symplectic eigenvalues behind
    the eavesdropper bound (pre-measurement pair first).
    """

    snr: float
    i_ab: float
    chi_eb: float
    secret_fraction: float
    key_rate: float | None
    eigs: tuple[float, float, float, float]


def snr(params: LinkParams) -> float:
    """Signal-to-noise ratio of the receiver's measurement.

    ``T_tot * v_mod / (mu + xi_tot)``: heterodyne splits the signal over two
    quadratures, which shows up as one extra shot-noise unit in the
    denominator.
    """
    return _closed_forms(_link_stage(*_args(params)[1:]), params.v_mod)[0]


def _secret_fraction(beta: float, stage: tuple, v_mod: float) -> float:
    # the optimizer's probe: evaluate(...).secret_fraction, bit for bit, at
    # v_mod on a cloner._link_stage, with no LinkParams or RateResult
    _, i_ab, _, _, _, _, chi = _closed_forms(stage, v_mod)
    return beta * i_ab - chi


def _swept_rates(beta: float, link: tuple, field: str, values: list[float]) -> list[list[float]] | None:
    """(SNR, I_AB, chi, secret fraction) of ``link`` (as ``cloner._args``
    gives it) with its ``field`` set to each of ``values``.

    One pass through the closed forms with that field a ``Column`` of all
    the values, every row getting the bits ``evaluate`` gives it. None
    leaves the whole grid to the float path: a value ``LinkParams``
    rejects, a branch the rows disagree on, any other error, or a
    non-finite result.
    """
    values = np.array(values, dtype=float)
    if not _in_domain(field, values).all():
        return None
    index = _FIELDS.index(field)
    v_mod, *link = link[:index] + (Column.of(values),) + link[index + 1:]
    try:
        with np.errstate(all="raise", under="ignore"):
            snr_value, i_ab, *_, chi = _closed_forms(_link_stage(*link), v_mod, Column)
            rates = (snr_value, i_ab, chi, beta * i_ab - chi)
    except (ArithmeticError, ValueError, TypeError):
        return None
    table = np.array([np.broadcast_to(rate, values.size) for rate in rates])  # a rate may be a float
    return table.T.tolist() if np.isfinite(table).all() else None


def _key_rate(proto: ProtocolParams, secret: float) -> float | None:
    # f_sym (1 - fer)(1 - disclosed) max(secret, 0); None without a symbol rate,
    # DomainError where the product overflows
    if proto.f_sym is None:
        return None
    if secret > 0.0:
        rate = proto.f_sym * (1.0 - proto.fer) * (1.0 - proto.disclosed_fraction) * secret
        if math.isfinite(rate):
            return rate
        raise DomainError(f"f_sym = {proto.f_sym:g} overflows the key rate at {secret:.6g} bits/symbol")
    return 0.0


def evaluate(params: LinkParams, proto: ProtocolParams) -> RateResult:
    """Evaluate one operating point.

    The secret fraction is ``beta * I_AB - chi_EB``; the key rate, when a
    symbol rate is present, is
    ``f_sym * (1 - fer) * (1 - disclosed_fraction) * max(secret_fraction, 0)``.
    """
    pair, chi = holevo_bound(params)
    # SNR and I_AB from a second run: perfbench/tracing.py times holevo_bound
    snr_value, i_ab = _closed_forms(_link_stage(*_args(params)[1:]), params.v_mod)[:2]
    secret = proto.beta * i_ab - chi
    return RateResult(
        snr=snr_value,
        i_ab=i_ab,
        chi_eb=chi,
        secret_fraction=secret,
        key_rate=_key_rate(proto, secret),
        eigs=(pair.nu_pre[0], pair.nu_pre[1], pair.nu_post[0], pair.nu_post[1]),
    )
