"""Entangling-cloner link model and closed-form eavesdropper entropies.

The channel is modelled as a beamsplitter of transmittance ``t_ch`` mixing
the signal with one arm of an eavesdropper-controlled EPR state of variance
``W_ch``; the receiver as a beamsplitter of transmittance ``t_rec`` mixing
the signal with a thermal state of variance ``W_rec``. Choosing
``W = xi / (1 - T) + 1`` makes the excess noise referred to the channel
output come out as ``xi`` exactly. Trusted devices are excluded from the
eavesdropper's side of the bookkeeping but still shape the receiver's
measurement statistics.

The module holds the link records and the closed forms, and builds no
covariance matrix: the model's matrix states belong to the oracle in
:mod:`cvrate.purification`.

Each closed form is written once: ``_noise_model``, ``_fold`` (the untrusted
receiver fold), ``_pre_pair``, ``_het_pair`` and ``_hom_pair``, combined by
``_holevo``. The public functions pass a ``LinkParams`` through ``_args``;
optimizer probes call ``_holevo`` on plain floats with no ``LinkParams`` or
array. A sweep passes one operand as a ``gaussian.Column`` holding its whole
grid, the others staying floats. The steps that depend on the operand kind go
through one seam: ``xp.sqrt`` and ``xp.log2`` (``xp`` is ``math`` on floats and
``Column`` on a column), ``x ** 2``, the branch conditions and
``clamp_spectrum``; ``Column`` documents how each keeps a row's bits equal to
the float path's. A branch the rows of a column disagree on raises, and the
sweep reruns without the minority. Every eigenvalue pair comes out larger
first, on floats and on a column alike.

Everything here is a pure function of its inputs and safe to call
concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .errors import DomainError, PhysicalityError
from .gaussian import Column, clamp_spectrum, two_mode_eigs, von_neumann_entropy

# Unit transmittance with nonzero noise would make the source variance
# W = xi / (1 - T) + 1 singular; the open port is kept at least this wide.
_MIN_OPEN_PORT = 1e-12

# Largest channel noise-source variance the closed forms evaluate accurately.
_MAX_W_CH = 1e4

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


def _clamped_t(t: float, xi: float) -> float:
    # a noisy source needs a non-unit beamsplitter; the clamped value is used
    # consistently in W, the propagation and the closed forms
    return min(t, 1.0 - _MIN_OPEN_PORT) if xi > 0.0 else t


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
    ``s_e`` and ``s_e_given_b``, each descending by construction.
    """

    s_e: float
    s_e_given_b: float
    nu_pre: tuple[float, float]
    nu_post: tuple[float, float]


def _effective(v_mod: float, t_ch: float, xi_ch: float, xi_pr: float, trust: Trust) -> tuple[float, float]:
    # (V, xi_ch) with the preparation noise attributed; see effective_v and effective_xi_ch
    if trust is Trust.TRUSTED_RECEIVER_AND_PREPARATION:
        return v_mod + 1.0 + xi_pr, xi_ch
    return v_mod + 1.0, xi_ch + t_ch * xi_pr


def effective_v(params: LinkParams) -> float:
    """EPR variance fed to the eavesdropper-side formulas.

    Trusted preparation noise is handled by substituting V -> V + xi_pr;
    in every other case the bare V = v_mod + 1 is used.
    """
    return _effective(params.v_mod, params.t_ch, params.xi_ch, params.xi_pr, params.trust)[0]


def effective_xi_ch(params: LinkParams) -> float:
    """Channel noise attributed to the eavesdropper.

    Untrusted preparation noise is indistinguishable from channel noise, so
    it is folded in as xi_ch + t_ch * xi_pr; trusted preparation noise is
    accounted for by the V -> V + xi_pr substitution instead.
    """
    return _effective(params.v_mod, params.t_ch, params.xi_ch, params.xi_pr, params.trust)[1]


def noise_source_variances(params: LinkParams) -> tuple[float, float]:
    """Variances (W_ch, W_rec) of the noise-source states.

    ``W = xi / (1 - T) + 1`` so that the excess noise at the respective
    output equals xi. Transmittances are clamped to 1 - 1e-12 before the
    division; with zero noise the source is vacuum regardless of T. A W_ch
    beyond 1e4 SNU (channel noise with almost no channel loss) is rejected
    because the conditional-spectrum formulas degrade there.
    """
    return _noise_model(*_args(params))[3:5]


def _args(params: LinkParams) -> tuple:
    # a link as the float functions take it (each ignores what it does not need)
    return (params.v_mod, params.t_ch, params.xi_ch, params.t_rec, params.xi_rec, params.xi_pr,
            params.detection, params.trust)


def _noise_model(v_mod: float, t_ch: float, xi_ch: float, t_rec: float, xi_rec: float,
                 xi_pr: float, detection: Detection, trust: Trust) -> tuple[float, ...]:
    # (V, t_ch, t_rec, W_ch, W_rec, V_B, xi_ch attributed to the eavesdropper),
    # transmittances clamped consistently; V_B is the receiver quadrature variance
    v, xi_ch = _effective(v_mod, t_ch, xi_ch, xi_pr, trust)
    t_ch_given, t_ch = t_ch, _clamped_t(t_ch, xi_ch)
    t_rec = _clamped_t(t_rec, xi_rec)
    w_ch = 1.0 if xi_ch == 0.0 else 1.0 + xi_ch / (1.0 - t_ch)
    if w_ch > _MAX_W_CH:
        # the conditional-spectrum formulas cancel W_ch^2-sized terms down to
        # order one, so a nearly lossless noisy channel outruns double
        # precision (the receiver-side W_rec only ever enters linearly and has
        # no such limit)
        raise DomainError(
            f"channel noise {xi_ch:g} at t_ch = {t_ch_given:g} implies a noise-source "
            f"variance of {w_ch:.3g} SNU, beyond the supported {_MAX_W_CH:g}; "
            "lower t_ch or the noise attributed to the channel"
        )
    w_rec = 1.0 if xi_rec == 0.0 else 1.0 + xi_rec / (1.0 - t_rec)
    v_b = t_ch * t_rec * (v - 1.0) + 1.0 + t_rec * xi_ch + xi_rec
    return v, t_ch, t_rec, w_ch, w_rec, v_b, xi_ch


def _fold(v_mod: float, t_tot: float, xi_tot: float, detection: Detection) -> tuple:
    # _args of the receiver-folded link, all but v_mod
    if not (t_tot > 0.0 and xi_tot < math.inf):
        # the folded link leaves the parameter domain: LinkParams names the value
        LinkParams(v_mod=v_mod, t_ch=t_tot, xi_ch=xi_tot, t_rec=1.0, xi_rec=0.0,
                   detection=detection, trust=Trust.TRUSTED_RECEIVER)
    return t_tot, xi_tot, 1.0, 0.0, 0.0, detection, Trust.TRUSTED_RECEIVER


def receiver_folded(params: LinkParams) -> LinkParams:
    """Equivalent link with the receiver absorbed into the channel.

    With nothing trusted, the eavesdropper is credited with the end-to-end
    loss and noise; the model collapses to a single effective channel
    followed by an ideal receiver.
    """
    t_ch, xi_ch, t_rec, xi_rec, xi_pr, _, trust = _fold(params.v_mod, params.t_tot, params.xi_tot,
                                                       params.detection)
    return replace(params, t_ch=t_ch, xi_ch=xi_ch, t_rec=t_rec, xi_rec=xi_rec, xi_pr=xi_pr, trust=trust)


def _clamped(a: float, b: float, xp) -> tuple[float, float]:
    # clamp_spectrum holds the policy; a float pair a >= b >= 1 needs none of it
    if xp is Column or b < 1.0:
        return clamp_spectrum((a, b))
    return a, b


def _het_pair(model: tuple[float, ...], xp=math) -> tuple[float, float]:
    v, t_ch, t_rec, w_ch, w_rec, v_b, _ = model
    e1 = v * ((1.0 - t_rec) * w_rec + t_rec * w_ch + 1.0) + t_ch * (w_ch - v) * (
        1.0 + (1.0 - t_rec) * w_rec
    )
    e2 = xp.sqrt(t_ch * (w_ch * w_ch - 1.0)) * (t_rec * v + (1.0 - t_rec) * w_rec + 1.0)
    e3 = (1.0 - t_rec) * w_ch * w_rec + t_rec * t_ch * (v * w_ch - 1.0) + t_rec + w_ch

    disc = (e1 + e3) ** 2 - 4.0 * e2 * e2
    if disc < 0.0:
        raise PhysicalityError(f"conditional spectrum has negative discriminant {disc:.3e}")
    z = xp.sqrt(disc)
    d = abs(e3 - e1)
    return _clamped((z + d) / (2.0 * (v_b + 1.0)), (z - d) / (2.0 * (v_b + 1.0)), xp)


def _hom_pair(model: tuple[float, ...], xp=math) -> tuple[float, float]:
    v, t_ch, t_rec, w_ch, w_rec, v_b, _ = model
    cross = xp.sqrt(t_ch * (w_ch * w_ch - 1.0))
    reflected = t_rec * v + (1.0 - t_rec) * w_rec

    e1 = v + t_ch * (w_ch - v) * reflected / v_b
    e2 = cross * reflected / v_b
    e3 = v + t_ch * (w_ch - v)
    e4 = -cross
    e5 = w_ch - (1.0 - t_ch) * t_rec * (w_ch * w_ch - 1.0) / v_b
    e6 = w_ch

    m11 = e1 * e3 + e2 * e4
    m12 = e2 * e3 + e4 * e5
    m21 = e1 * e4 + e2 * e6
    m22 = e2 * e4 + e5 * e6

    inner = (m11 - m22) ** 2 + 4.0 * m12 * m21
    if inner < -1e-12:
        raise PhysicalityError(f"conditional spectrum has negative radicand {inner:.3e}")
    root = xp.sqrt(max(inner, 0.0))  # >= 0, so the larger square comes first
    squares = [(m11 + m22 + root) / 2.0, (m11 + m22 - root) / 2.0]
    nus = []
    for sq in squares:
        if sq < -1e-12:
            raise PhysicalityError(f"conditional spectrum has negative radicand {sq:.3e}")
        nus.append(xp.sqrt(max(sq, 0.0)))
    return _clamped(nus[0], nus[1], xp)


def _pre_pair(model: tuple[float, ...], xp=math) -> tuple[float, float]:
    # two_mode_eigs of the purification.eve_state entries, with the discriminant
    # expanded into a form free of cancellation, (xV)^2 + 2(2-x)V s + s^2 + 4(1-x)
    # with x = 1 - t_ch and s = xi_ch + x = x W_ch, so the pair stays accurate
    # even when W_ch is many orders of magnitude above shot noise
    v, t_ch, _, _, _, _, xi_ch = model
    x = 1.0 - t_ch
    s = xi_ch + x
    z = xp.sqrt((x * v) ** 2 + 2.0 * (2.0 - x) * v * s + s * s + 4.0 * (1.0 - x))
    d = abs(s - x * v)  # difference of the diagonal entries
    return _clamped(0.5 * (z + d), 0.5 * (z - d), xp)


def _holevo(v_mod: float, t_ch: float, xi_ch: float, t_rec: float, xi_rec: float, xi_pr: float,
            detection: Detection, trust: Trust, xp=math) -> tuple:
    # holevo_bound without a LinkParams: (S_E, S_E|B, nu_pre, nu_post, chi)
    if trust is Trust.UNTRUSTED_ALL:
        v = v_mod + 1.0
        t_tot, xi_tot = t_ch * t_rec, _xi_tot(t_ch, xi_ch, t_rec, xi_rec, xi_pr)
        pre = two_mode_eigs(v, t_tot * (v - 1.0) + 1.0 + xi_tot, xp.sqrt(t_tot * (v * v - 1.0)), xp)
        model = _noise_model(v_mod, *_fold(v_mod, t_tot, xi_tot, detection))
    else:
        model = _noise_model(v_mod, t_ch, xi_ch, t_rec, xi_rec, xi_pr, detection, trust)
        pre = _pre_pair(model, xp)
    post = _het_pair(model, xp) if detection is Detection.HETERODYNE else _hom_pair(model, xp)
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
    the pre-measurement pair comes from the end-to-end two-mode state and
    the conditional pair from the receiver-folded link.
    """
    *entropies, chi = _holevo(*_args(params))
    return EntropyPair(*entropies), chi
