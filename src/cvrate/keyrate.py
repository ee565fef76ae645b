"""Secure-fraction and key-rate assembly.

Combines the mutual information of the Gaussian channel with the
eavesdropper bound from :mod:`cvrate.cloner` and the classical
post-processing parameters into a single result record. ``_swept_rates``
gives the numbers of a whole sweep grid, the swept field a
``gaussian.Column``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloner import _FIELDS, Detection, LinkParams, Trust, _args, _holevo, _in_domain, _xi_tot, holevo_bound
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


def _information(v_mod: float, t_ch: float, xi_ch: float, t_rec: float, xi_rec: float,
                 xi_pr: float, detection: Detection, trust: Trust, xp=math) -> tuple[float, float]:
    # (SNR, I_AB) for a link as cloner._args gives it
    mu = detection.mu
    snr_value = t_ch * t_rec * v_mod / (mu + _xi_tot(t_ch, xi_ch, t_rec, xi_rec, xi_pr))
    return snr_value, 0.5 * mu * xp.log2(1.0 + snr_value)


def snr(params: LinkParams) -> float:
    """Signal-to-noise ratio of the receiver's measurement.

    ``T_tot * v_mod / (mu + xi_tot)``: heterodyne splits the signal over two
    quadratures, which shows up as one extra shot-noise unit in the
    denominator.
    """
    return _information(*_args(params))[0]


def _rates(beta: float, *link) -> tuple[float, float, float, float]:
    # (SNR, I_AB, chi, secret fraction) of a link as cloner._args gives it, bit
    # for bit evaluate's; on floats, [3] is the optimizer's probe. A sweep
    # appends the kernel's xp (Column) to ``link``: a keyword xp would cost
    # every float probe 0.3 us or more
    snr_value, i_ab = _information(*link)
    chi = _holevo(*link)[-1]
    return snr_value, i_ab, chi, beta * i_ab - chi


def _swept_rates(beta: float, link: tuple, field: str, values: list[float]) -> list[tuple | None]:
    """(SNR, I_AB, chi, secret fraction) of ``link`` (as ``cloner._args``
    gives it) with its ``field`` set to each of ``values``.

    One pass through the closed forms with that field a ``Column``. A row
    gets None where the float path must decide it: a value ``LinkParams``
    rejects, a row the column marks for redo, or a non-finite result. Every
    other row has the bits ``evaluate`` gives it.
    """
    redo = ~_in_domain(field, np.array(values, dtype=float))
    index = _FIELDS.index(field)
    link = link[:index] + (Column.of(values, redo),) + link[index + 1:]
    with np.errstate(all="ignore"):
        try:
            rates = _rates(beta, *link, Column)
        except (ArithmeticError, ValueError, TypeError):
            # a branch most rows take raises, or a part of the link the
            # column does not reach is rejected: the float path decides
            return [None] * len(values)
    table = np.empty((len(rates), len(values)))
    for out, rate in zip(table, rates):
        out[:] = rate  # a rate the column does not reach is a float
    redo |= ~np.isfinite(table).all(axis=0)
    return [None if skip else row for skip, row in zip(redo.tolist(), table.T.tolist())]


def _key_rate(proto: ProtocolParams, secret: float) -> float | None:
    # f_sym (1 - fer)(1 - disclosed) max(secret, 0); None without a symbol rate
    if proto.f_sym is None:
        return None
    if secret > 0.0:
        return proto.f_sym * (1.0 - proto.fer) * (1.0 - proto.disclosed_fraction) * secret
    return 0.0


def evaluate(params: LinkParams, proto: ProtocolParams) -> RateResult:
    """Evaluate one operating point.

    The secret fraction is ``beta * I_AB - chi_EB``; the key rate, when a
    symbol rate is present, is
    ``f_sym * (1 - fer) * (1 - disclosed_fraction) * max(secret_fraction, 0)``.
    """
    pair, chi = holevo_bound(params)
    snr_value, i_ab = _information(*_args(params))
    secret = proto.beta * i_ab - chi
    return RateResult(
        snr=snr_value,
        i_ab=i_ab,
        chi_eb=chi,
        secret_fraction=secret,
        key_rate=_key_rate(proto, secret),
        eigs=(pair.nu_pre[0], pair.nu_pre[1], pair.nu_post[0], pair.nu_post[1]),
    )
