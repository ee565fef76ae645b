"""The source paper's closed forms at high precision, as a reference.

The paper writes each noise source as a beamsplitter of transmittance T on a
thermal state of variance W = 1 + xi / (1 - T), and the eavesdropper's
conditional spectrum as the roots of quadratics in those variances. That is
the form ``cvrate.cloner`` used before it moved to the state the eavesdropper
purifies; it is kept here, written over an ``xp`` namespace, with its own
trust bookkeeping, and evaluated with mpmath:

- ``noise_model``, ``fold``, ``pre_pair``, ``het_pair`` and ``hom_pair`` are
  the W-form closed forms, operation for operation;
- ``entropy`` is the von Neumann entropy without the cancellation-free
  rewrite of ``cvrate.gaussian``, exact at the working precision;
- ``holevo`` combines them, at a precision that grows with log10(V W):
  ``het_pair`` and ``hom_pair`` cancel terms of order (V W)^2.

``exact_rates`` gives every numeric cell of a sweep row at 60 digits, from
``cvrate.cloner._holevo`` itself run on mpmath numbers, so that the golden
audit measures only the rounding of the float kernel.
"""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import mpmath

from cvrate import cloner
from cvrate.cloner import Detection, LinkParams, Trust
from cvrate.purification import _MIN_OPEN_PORT


class MP:
    """``xp`` for mpmath numbers: the kernel's ``sqrt``, ``log2`` and ``log1p``."""

    sqrt = staticmethod(mpmath.sqrt)
    log1p = staticmethod(mpmath.log1p)

    @staticmethod
    def log2(x):
        return mpmath.log(x, 2)


def entropy(nus) -> mpmath.mpf:
    """Sum of x log2 x - y log2 y over the spectrum, x, y = (nu +- 1) / 2."""
    total = mpmath.mpf(0)
    for nu in nus:
        if nu > 1:
            x, y = (nu + 1) / 2, (nu - 1) / 2
            total += x * mpmath.log(x, 2) - y * mpmath.log(y, 2)
    return total


def _clamped_t(t, xi: float):
    # of the type of t, so that an mpf product of two clamped values is exact
    return min(t, type(t)(1.0 - _MIN_OPEN_PORT)) if xi > 0.0 else t


def noise_model(v_mod, t_ch, xi_ch, t_rec, xi_rec, xi_pr, trust: Trust) -> tuple:
    """(V, t_ch, t_rec, W_ch, W_rec, V_B, xi_ch attributed), on floats or mpf.

    Transmittances are clamped to leave a noisy source's port open; the
    clamp is decided on the float value of the noise.
    """
    if trust is Trust.TRUSTED_RECEIVER_AND_PREPARATION:
        v = v_mod + 1 + xi_pr
    else:
        v, xi_ch = v_mod + 1, xi_ch + t_ch * xi_pr
    t_ch = _clamped_t(t_ch, float(xi_ch))
    t_rec = _clamped_t(t_rec, float(xi_rec))
    w_ch = 1 if xi_ch == 0 else 1 + xi_ch / (1 - t_ch)
    w_rec = 1 if xi_rec == 0 else 1 + xi_rec / (1 - t_rec)
    v_b = t_ch * t_rec * (v - 1) + 1 + t_rec * xi_ch + xi_rec
    return v, t_ch, t_rec, w_ch, w_rec, v_b, xi_ch


def fold(t_ch, xi_ch, t_rec, xi_rec, xi_pr) -> tuple:
    """noise_model's arguments of the untrusted link with its receiver
    absorbed into the channel: (t_tot, xi_tot, 1, 0, 0)."""
    return t_ch * t_rec, t_ch * t_rec * xi_pr + t_rec * xi_ch + xi_rec, 1, 0, 0


def pre_pair(model, xp) -> tuple:
    v, t_ch, _, _, _, _, xi_ch = model
    x = 1 - t_ch
    s = xi_ch + x
    z = xp.sqrt((x * v) ** 2 + 2 * (2 - x) * v * s + s * s + 4 * (1 - x))
    d = abs(s - x * v)
    return (z + d) / 2, (z - d) / 2


def het_pair(model, xp) -> tuple:
    v, t_ch, t_rec, w_ch, w_rec, v_b, _ = model
    e1 = v * ((1 - t_rec) * w_rec + t_rec * w_ch + 1) + t_ch * (w_ch - v) * (1 + (1 - t_rec) * w_rec)
    e2 = xp.sqrt(t_ch * (w_ch * w_ch - 1)) * (t_rec * v + (1 - t_rec) * w_rec + 1)
    e3 = (1 - t_rec) * w_ch * w_rec + t_rec * t_ch * (v * w_ch - 1) + t_rec + w_ch
    z = xp.sqrt((e1 + e3) ** 2 - 4 * e2 * e2)
    d = abs(e3 - e1)
    return (z + d) / (2 * (v_b + 1)), (z - d) / (2 * (v_b + 1))


def hom_pair(model, xp) -> tuple:
    v, t_ch, t_rec, w_ch, w_rec, v_b, _ = model
    cross = xp.sqrt(t_ch * (w_ch * w_ch - 1))
    reflected = t_rec * v + (1 - t_rec) * w_rec
    e1 = v + t_ch * (w_ch - v) * reflected / v_b
    e2 = cross * reflected / v_b
    e3 = v + t_ch * (w_ch - v)
    e4 = -cross
    e5 = w_ch - (1 - t_ch) * t_rec * (w_ch * w_ch - 1) / v_b
    e6 = w_ch
    m11, m12 = e1 * e3 + e2 * e4, e2 * e3 + e4 * e5
    m21, m22 = e1 * e4 + e2 * e6, e2 * e4 + e5 * e6
    root = xp.sqrt((m11 - m22) ** 2 + 4 * m12 * m21)
    return xp.sqrt((m11 + m22 + root) / 2), xp.sqrt(max((m11 + m22 - root) / 2, 0))


def _digits(p: LinkParams) -> int:
    # working precision: 40 digits beyond the (V W)^2 the W-form cancels
    link = (p.v_mod, p.t_ch, p.xi_ch, p.t_rec, p.xi_rec, p.xi_pr)
    if p.trust is Trust.UNTRUSTED_ALL:
        link = (p.v_mod, *fold(*link[1:]))
    v, _, _, w_ch, w_rec, _, _ = noise_model(*link, p.trust)
    return 40 + 2 * math.ceil(math.log10(v * w_ch * w_rec))


def holevo(p: LinkParams) -> mpmath.mpf:
    """The Holevo bound of the W-form closed forms, exact to about 40 digits."""
    with mpmath.workdps(_digits(p)):
        args = [mpmath.mpf(x) for x in (p.v_mod, p.t_ch, p.xi_ch, p.t_rec, p.xi_rec, p.xi_pr)]
        v_mod, t_ch, xi_ch, t_rec, xi_rec, xi_pr = args
        if p.trust is Trust.UNTRUSTED_ALL:
            v, t_tot = v_mod + 1, t_ch * t_rec
            xi_tot = t_tot * xi_pr + t_rec * xi_ch + xi_rec
            b = t_tot * v_mod + 1 + xi_tot
            z = mpmath.sqrt((v + b) ** 2 - 4 * t_tot * (v * v - 1))
            pre = (z + abs(b - v)) / 2, (z - abs(b - v)) / 2
            model = noise_model(v_mod, *fold(t_ch, xi_ch, t_rec, xi_rec, xi_pr), Trust.TRUSTED_RECEIVER)
        else:
            model = noise_model(v_mod, t_ch, xi_ch, t_rec, xi_rec, xi_pr, p.trust)
            pre = pre_pair(model, MP)
        post = het_pair(model, MP) if p.detection is Detection.HETERODYNE else hom_pair(model, MP)
        return +(entropy(pre) - entropy(post))


@contextlib.contextmanager
def _exact_kernel():
    # cloner's clamp and entropy, replaced by their exact counterparts
    with mock.patch.object(cloner, "_clamped", lambda values, xp: values), \
            mock.patch.object(cloner, "von_neumann_entropy", lambda nus, xp: entropy(nus)):
        yield


def exact_rates(beta: float, link: tuple, prefactor: float | None) -> list:
    """(SNR, I_AB, chi, secret fraction, key rate) of ``link`` (as
    ``cloner._args`` gives it) at 60 digits: ``cloner._holevo`` on mpmath
    numbers, with an exact clamp and entropy. ``prefactor`` is the key
    rate's f_sym (1 - fer)(1 - disclosed), or None without a symbol rate."""
    *fields, detection, trust = link
    with mpmath.workdps(60), _exact_kernel():
        v_mod, t_ch, xi_ch, t_rec, xi_rec, xi_pr = map(mpmath.mpf, fields)
        mu = 2 if detection is Detection.HETERODYNE else 1
        snr = t_ch * t_rec * v_mod / (mu + t_ch * t_rec * xi_pr + t_rec * xi_ch + xi_rec)
        i_ab = mu * mpmath.log(1 + snr, 2) / 2
        chi = cloner._holevo(v_mod, t_ch, xi_ch, t_rec, xi_rec, xi_pr, detection, trust, MP)[-1]
        secret = beta * i_ab - chi
        key = None if prefactor is None else prefactor * max(secret, 0)
        return [snr, i_ab, chi, secret, key]
