"""Entangling-cloner link model and closed-form eavesdropper entropies.

Every trust case starts from the transmitter-receiver state the eavesdropper
purifies, ``[[a I, c sigma_z], [c sigma_z, b I]]`` with a = V = v_mod + 1
(plus xi_pr when the preparation is trusted), b = T (a - 1) + 1 + xi and
c^2 = T (a - 1)(a + 1). T and xi are the transmittance and excess noise
charged to the eavesdropper: the channel's, with the untrusted preparation
noise folded in, when the receiver is trusted, and the end-to-end values when
nothing is. The pre-measurement pair is that state's spectrum. With nothing
trusted the conditional pair is A's spectrum given the receiver's outcome,
next to a pure mode. With a trusted receiver its squares are the roots of a
quadratic in (a, b, det) and the receiver's noise referred to its input
(Lodewyck et al., PRA 76, 042305, 2007). The cost is the same for every
trust case. Each difference that would cancel, a - b, det - 1 and the
quadratics' discriminants, is written as a sum of non-negative terms, so the
pairs keep their accuracy from v_mod = 0 to about 1e150. The paper's form,
with each noise source a thermal state of variance W = 1 + xi / (1 - T),
is kept as a test reference in :mod:`cvrate.purification`.

The module holds the link records and the closed forms, and builds no
covariance matrix: the model's matrix states belong to the oracle in
:mod:`cvrate.purification`.

``_holevo`` evaluates all three trust cases. The public functions pass a
``LinkParams`` through ``_args``; optimizer probes call ``_holevo`` on plain
floats with no ``LinkParams`` or array. A sweep passes one operand as a
``gaussian.Column`` holding its whole grid, the others staying floats. The
steps that depend on the operand kind go through one seam: ``xp.sqrt``,
``xp.log2`` and ``xp.log1p`` (``xp`` is ``math`` on floats and ``Column`` on
a column), the branch conditions and ``clamp_spectrum``; ``Column``
documents how each keeps a row's bits equal to the float path's. A branch
the rows of a column disagree on raises, and the sweep reruns without the
minority. Every eigenvalue pair comes out larger first, the smaller root
taken as the product over the larger; equal roots may round one ulp apart.

Everything here is a pure function of its inputs and safe to call
concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, PhysicalityError
from .gaussian import Column, clamp_spectrum, von_neumann_entropy
from .gaussian import two_mode_eigs  # unused here: perfbench/tracing.py binds it (ROADMAP item 3)

# LinkParams' float fields, in the order _args and the float functions take them
_FIELDS = ("v_mod", "t_ch", "xi_ch", "t_rec", "xi_rec", "xi_pr")


def _in_domain(name: str, x):
    # LinkParams' rule for one float field; elementwise on an array
    if name in ("t_ch", "t_rec"):
        return (0.0 < x) & (x <= 1.0)
    return (0.0 <= x) & (x < math.inf)


def _xi_tot(t_ch: float, xi_ch: float, t_rec: float, xi_rec: float, xi_pr: float) -> float:
    # LinkParams.xi_tot on floats
    return t_ch * t_rec * xi_pr + t_rec * xi_ch + xi_rec


class Detection(enum.Enum):
    """Receiver measurement: one quadrature (homodyne) or both (heterodyne)."""

    HOMODYNE = "homodyne"
    HETERODYNE = "heterodyne"

    def __init__(self, value: str):
        self.mu = 2.0 if value == "heterodyne" else 1.0  # measured quadratures


class Trust(enum.Enum):
    """Which noise/loss sources are assumed calibrated and out of the
    eavesdropper's reach."""

    UNTRUSTED_ALL = "untrusted_all"
    TRUSTED_RECEIVER = "trusted_receiver"
    TRUSTED_RECEIVER_AND_PREPARATION = "trusted_receiver_and_preparation"


@dataclass(frozen=True, kw_only=True)
class LinkParams:
    """All physical parameters of one point-to-point link.

    Attributes:
        v_mod: Gaussian modulation variance in SNU; the shared EPR state has
            variance ``v_mod + 1``.
        xi_pr: preparation excess noise in SNU, produced at the transmitter.
        t_ch: channel power transmittance, in (0, 1].
        xi_ch: channel excess noise in SNU referred to the channel output.
        t_rec: receiver transmittance (detection and coupling efficiency).
        xi_rec: receiver excess noise in SNU (electronic noise etc.).
        detection: homodyne or heterodyne readout.
        trust: which device imperfections are trusted.
    """

    v_mod: float
    t_ch: float
    xi_ch: float
    t_rec: float
    xi_rec: float
    detection: Detection
    trust: Trust
    xi_pr: float = 0.0

    def __post_init__(self):
        for name in _FIELDS:
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("v_mod", "xi_pr", "xi_ch", "xi_rec"):
            if not _in_domain(name, getattr(self, name)):
                raise DomainError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("t_ch", "t_rec"):
            t = getattr(self, name)
            if not _in_domain(name, t):
                raise DomainError(f"{name} must lie in (0, 1], got {t}")
        if not isinstance(self.detection, Detection):
            raise DomainError(f"detection must be a Detection value, got {self.detection!r}")
        if not isinstance(self.trust, Trust):
            raise DomainError(f"trust must be a Trust value, got {self.trust!r}")

    @property
    def v(self) -> float:
        """Variance of the shared EPR state: v_mod + 1."""
        return self.v_mod + 1.0

    @property
    def t_tot(self) -> float:
        """End-to-end transmittance, channel times receiver."""
        return self.t_ch * self.t_rec

    @property
    def xi_tot(self) -> float:
        """Total excess noise in the receiver's measurement, in SNU."""
        return _xi_tot(self.t_ch, self.xi_ch, self.t_rec, self.xi_rec, self.xi_pr)

    @property
    def mu(self) -> float:
        """Number of measured quadratures: 1 for homodyne, 2 for heterodyne."""
        return self.detection.mu


@dataclass(frozen=True)
class EntropyPair:
    """Eavesdropper entropies before and after the receiver's measurement.

    ``nu_pre`` and ``nu_post`` hold the symplectic eigenvalue pairs behind
    ``s_e`` and ``s_e_given_b``, each larger first.
    """

    s_e: float
    s_e_given_b: float
    nu_pre: tuple[float, float]
    nu_post: tuple[float, float]


def _effective(v_mod: float, t_ch: float, xi_ch: float, xi_pr: float, trust: Trust) -> tuple[float, float]:
    # (V - 1, xi_ch) with the preparation noise attributed; see effective_v and effective_xi_ch
    if trust is Trust.TRUSTED_RECEIVER_AND_PREPARATION:
        return v_mod + xi_pr, xi_ch
    return v_mod, xi_ch + t_ch * xi_pr


def effective_v(params: LinkParams) -> float:
    """EPR variance fed to the eavesdropper-side formulas.

    Trusted preparation noise is handled by substituting V -> V + xi_pr;
    in every other case the bare V = v_mod + 1 is used.
    """
    return 1.0 + _effective(params.v_mod, params.t_ch, params.xi_ch, params.xi_pr, params.trust)[0]


def effective_xi_ch(params: LinkParams) -> float:
    """Channel noise attributed to the eavesdropper.

    Untrusted preparation noise is indistinguishable from channel noise, so
    it is folded in as xi_ch + t_ch * xi_pr; trusted preparation noise is
    accounted for by the V -> V + xi_pr substitution instead.
    """
    return _effective(params.v_mod, params.t_ch, params.xi_ch, params.xi_pr, params.trust)[1]


def _args(params: LinkParams) -> tuple:
    # a link as the float functions take it (each ignores what it does not need)
    return (params.v_mod, params.t_ch, params.xi_ch, params.t_rec, params.xi_rec, params.xi_pr,
            params.detection, params.trust)


def _clamped(values: tuple, xp) -> tuple:
    # clamp_spectrum holds the policy; floats at or above 1 need none of it
    if xp is Column or min(values) < 1.0:
        return clamp_spectrum(values)
    return values


def _roots(larger: float, product: float) -> tuple[float, float]:
    # (larger, product / larger): a larger root that overflowed is rejected
    # before the division can turn it into a spurious 0
    if not larger < math.inf:
        raise DomainError(f"symplectic eigenvalue {larger} is not finite")
    return larger, product / larger


def _holevo(v_mod: float, t_ch: float, xi_ch: float, t_rec: float, xi_rec: float, xi_pr: float,
            detection: Detection, trust: Trust, xp=math) -> tuple:
    # holevo_bound without a LinkParams: (S_E, S_E|B, nu_pre, nu_post, chi)
    m, xi = _effective(v_mod, t_ch, xi_ch, xi_pr, trust)
    if trust is Trust.UNTRUSTED_ALL:
        # the eavesdropper is credited with the receiver's loss and noise too
        t, loss, xi = t_ch * t_rec, (1.0 - t_ch) + t_ch * (1.0 - t_rec), _xi_tot(t_ch, xi_ch, t_rec, xi_rec, xi_pr)
    else:
        t, loss = t_ch, 1.0 - t_ch
    # the state the eavesdropper purifies, [[a I, c sz], [c sz, b I]] with
    # a = m + 1, b = t m + 1 + xi and c^2 = t m (m + 2); delta = a - b and
    # u = ab - c^2 - 1 are written as sums free of cancellation
    a = m + 1.0
    b = t * m + 1.0 + xi
    delta = loss * m - xi
    u = loss * m + a * xi
    det = 1.0 + u
    z = delta * delta + 4.0 * det
    pre = _clamped(_roots(0.5 * (xp.sqrt(z) + abs(delta)), det), xp)
    heterodyne = detection is Detection.HETERODYNE
    if trust is Trust.UNTRUSTED_ALL:
        # S(E|B) = S(A|B): A conditioned on the receiver's outcome, and a pure mode
        nu = (det + a) / (b + 1.0) if heterodyne else xp.sqrt(a * det / b)
        post = _clamped((nu,), xp) + (1.0,)
    else:
        # the squares of the conditional pair solve r^2 - C r + D = 0, the
        # receiver's noise referred to its input as n; every term is divided
        # by s = b + n through q = n / s and p = 1 / s, so a large n cannot overflow
        n = ((2.0 if heterodyne else 1.0) - t_rec + xi_rec) / t_rec
        p = 1.0 / (b + n)
        q = n * p
        big_a = z - 2.0 * det
        if heterodyne:
            c_sum = (big_a * q * q + 2.0 * q * p * (a * det + b)
                     + (det * det + 1.0 + 2.0 * t * m * (m + 2.0)) * p * p)
            d_root = a * p + det * q
            d_prod = d_root * d_root
            root = abs(q * delta + u * p) * xp.sqrt(
                q * q * z + 2.0 * q * p * (a + b) * (det + 1.0) + (4.0 * a * b + u * u) * p * p)
        else:
            c_sum = big_a * q + (a * det + b) * p
            d_prod = det * (a * p + det * q)
            # the discriminant completed to a square in n, with
            # k = m (m + 2) p / sqrt(z) and y, w sums of non-negative terms
            rz = xp.sqrt(z)
            k = m * (m + 2.0) * p / rz
            y = m * loss * (loss + xi) + xi * (xi + 3.0 * loss) + 2.0 * loss
            w = 2.0 * xp.sqrt(t * xi * (2.0 * loss + xi) * (1.0 + xi + m * (loss + xi)))
            alpha, beta = delta * rz * q + k * y, k * w
            root = xp.sqrt(alpha * alpha + beta * beta)
        r1, r2 = _roots(0.5 * (c_sum + root), d_prod)
        post = _clamped((xp.sqrt(r1), xp.sqrt(r2)), xp)
    s_e = von_neumann_entropy(pre, xp)
    s_e_given_b = von_neumann_entropy(post, xp)
    chi = s_e - s_e_given_b
    if chi < -1e-9:
        raise PhysicalityError(f"Holevo bound came out negative ({chi:.3e})")
    return s_e, s_e_given_b, pre, post, max(chi, 0.0)


def holevo_bound(params: LinkParams) -> tuple[EntropyPair, float]:
    """Upper bound on the eavesdropper-receiver information, in bits/symbol.

    Returns the entropy pair and ``chi = S_E - S_E|B``, clamped to zero when
    rounding pushes it slightly negative. Under fully untrusted bookkeeping
    the eavesdropper purifies the transmitter-receiver state after the
    receiver, and S(E|B) = S(A|B); with a trusted receiver, the state after
    the channel.
    """
    *entropies, chi = _holevo(*_args(params))
    return EntropyPair(*entropies), chi
