"""Covariance-matrix algebra for multimode Gaussian optical states.

All variances are expressed in shot-noise units (SNU): the vacuum state has
quadrature variance 1. An N-mode state is described by a real symmetric
2N x 2N covariance matrix; mode k occupies rows and columns 2k and 2k+1
(q quadrature before p). Symplectic transformations act as ``S @ cov @ S.T``
and preserve the symplectic spectrum. All states are zero-mean, so first
moments are never tracked.

States and transforms are plain real ``(2N, 2N)`` float64 arrays, with N
read off ``shape[0] // 2``. Every builder and operation here checks its
arguments (mode indices, transmittance, gain, variances, dimensions) and
returns an array that is valid by construction: a state exactly symmetric,
a transform symplectic. No caller supplies a matrix, so none is re-checked.
The generic solver ``symplectic_eigenvalues`` reads the spectrum off the
eigenvalues +-i nu of ``Omega @ cov``, without squaring the matrix.

``Column`` is the array operand of the closed forms in :mod:`cvrate.cloner`:
one value per row of a sweep grid, taken by ``two_mode_eigs``,
``clamp_spectrum`` and ``von_neumann_entropy`` wherever they take a float.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import DomainError, PhysicalityError, UnsupportedCaseError, UsageError

SIGMA_Z = np.diag([1.0, -1.0])

# Symplectic eigenvalues this far below 1 are rounding noise and get clamped
# to exactly 1; further below they violate the uncertainty principle.
CLAMP_TOL = 1e-9


class Quadrature(enum.Enum):
    """Quadrature selected by a homodyne measurement."""

    Q = 0
    P = 1


class SympMatrix:
    """A transform checked to be symplectic: S @ Omega @ S.T == Omega within 1e-12.

    Nothing in the package builds one; its transforms are plain arrays,
    symplectic by construction. The constructor stays as the check that
    claim is tested with, and as the construction the benchmark's tracer
    counts until the run counters of ROADMAP item 6 replace it.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray | Sequence[Sequence[float]]):
        arr = np.array(data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2:
            raise UsageError(f"symplectic matrix must be square with even dimension, got {arr.shape}")
        omega = _symplectic_form(arr.shape[0] // 2)
        residual = float(np.max(np.abs(arr @ omega @ arr.T - omega)))
        if residual > 1e-12:
            raise DomainError(f"matrix is not symplectic (residual {residual:.3e})")
        self.data = arr


@functools.lru_cache(maxsize=8)
def _symplectic_form(n_modes: int) -> np.ndarray:
    # block-diagonal symplectic form, n copies of [[0, 1], [-1, 0]]; shared
    # by every caller, hence read-only
    if n_modes < 1:
        raise UsageError("n_modes must be at least 1")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    omega.flags.writeable = False
    return omega


def epr_state(variance: float) -> np.ndarray:
    """Two-mode squeezed vacuum with quadrature variance ``variance`` per arm.

    The arms are correlated through sqrt(variance**2 - 1) * sigma_z
    off-diagonal blocks; the state is pure (both symplectic eigenvalues 1)
    for every admissible variance.

    Args:
        variance: single-arm quadrature variance in SNU, must be >= 1.
    """
    if variance < 1.0:
        raise DomainError(f"EPR variance must be >= 1 SNU, got {variance}")
    return two_mode_state(variance, variance, math.sqrt(variance * variance - 1.0))


def two_mode_state(a: float, b: float, c: float) -> np.ndarray:
    """Two-mode state [[a I, c sigma_z], [c sigma_z, b I]]; its symplectic
    eigenvalues are :func:`two_mode_eigs` (a, b, c)."""
    out = np.zeros((4, 4))
    out[:2, :2] = a * np.eye(2)
    out[2:, 2:] = b * np.eye(2)
    out[:2, 2:] = c * SIGMA_Z
    out[2:, :2] = c * SIGMA_Z
    return out


def thermal_state(variance: float) -> np.ndarray:
    """Single-mode thermal state with isotropic quadrature variance."""
    if variance < 1.0:
        raise DomainError(f"thermal variance must be >= 1 SNU, got {variance}")
    return variance * np.eye(2)


def vacuum_state(n_modes: int = 1) -> np.ndarray:
    """n-mode vacuum: the identity matrix."""
    if n_modes < 1:
        raise UsageError("n_modes must be at least 1")
    return np.eye(2 * n_modes)


def direct_sum(states: Iterable[np.ndarray]) -> np.ndarray:
    """Block-diagonal combination of independent states.

    The mode count adds up and the symplectic spectrum of the result is the
    union of the spectra of the parts.
    """
    blocks = list(states)
    if not blocks:
        raise UsageError("direct_sum needs at least one state")
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim))
    offset = 0
    for b in blocks:
        d = b.shape[0]
        out[offset : offset + d, offset : offset + d] = b
        offset += d
    return out


def beamsplitter(n_modes: int, mode_i: int, mode_j: int, transmittance: float) -> np.ndarray:
    """Beamsplitter of given transmittance T acting on two modes.

    The 4x4 sub-block on (mode_i, mode_j) is
    ``[[sqrt(T) I, +sqrt(1-T) I], [-sqrt(1-T) I, sqrt(T) I]]``:
    mode_i receives the +sqrt(1-T) admixture of mode_j, mode_j the
    -sqrt(1-T) admixture of mode_i. All other modes are untouched.

    Args:
        n_modes: total number of modes of the transform.
        mode_i: index of the transmitted-signal arm.
        mode_j: index of the ancilla arm.
        transmittance: power transmittance in [0, 1].
    """
    if not 0.0 <= transmittance <= 1.0:
        raise DomainError(f"transmittance must lie in [0, 1], got {transmittance}")
    s = math.sqrt(1.0 - transmittance)
    return _two_mode_transform("beamsplitter", n_modes, mode_i, mode_j,
                               math.sqrt(transmittance), s * np.eye(2), -s * np.eye(2))


def two_mode_squeezer(n_modes: int, mode_i: int, mode_j: int, gain: float) -> np.ndarray:
    """Two-mode squeezer of given gain G acting on two modes.

    The 4x4 sub-block on (mode_i, mode_j) is
    ``[[sqrt(G) I, sqrt(G-1) sigma_z], [sqrt(G-1) sigma_z, sqrt(G) I]]``.
    With mode_j in vacuum it is the quantum-limited amplifier
    V -> G V + G - 1 on mode_i. All other modes are untouched.

    Args:
        n_modes: total number of modes of the transform.
        mode_i: index of the amplified arm.
        mode_j: index of the ancilla arm.
        gain: finite power gain, at least 1.
    """
    if not 1.0 <= gain < math.inf:
        raise DomainError(f"gain must be finite and at least 1, got {gain}")
    s = math.sqrt(gain - 1.0) * SIGMA_Z
    return _two_mode_transform("two-mode squeezer", n_modes, mode_i, mode_j, math.sqrt(gain), s, s)


def _two_mode_transform(name: str, n_modes: int, mode_i: int, mode_j: int,
                        diag: float, ij: np.ndarray, ji: np.ndarray) -> np.ndarray:
    # identity outside (mode_i, mode_j); diag * I on both, and the 2x2 blocks
    # ij (mode_i row, mode_j column) and ji; symplectic for the callers' blocks
    if mode_i == mode_j:
        raise UsageError(f"{name} needs two distinct modes")
    for m in (mode_i, mode_j):
        if not 0 <= m < n_modes:
            raise UsageError(f"mode index {m} out of range for {n_modes} modes")
    out = np.eye(2 * n_modes)
    i, j = slice(2 * mode_i, 2 * mode_i + 2), slice(2 * mode_j, 2 * mode_j + 2)
    out[i, i] = out[j, j] = diag * np.eye(2)
    out[i, j], out[j, i] = ij, ji
    return out


def mode_permutation(n_modes: int, new_order: Sequence[int]) -> np.ndarray:
    """Permutation acting on whole mode blocks.

    ``new_order[k]`` names the input mode placed at output slot k, so
    ``mode_permutation(5, [0, 2, 3, 4, 1])`` moves mode 1 to the last slot
    and shifts modes 2..4 up by one. The result is orthogonal and symplectic.
    """
    if sorted(new_order) != list(range(n_modes)):
        raise DomainError(f"{list(new_order)} is not a permutation of 0..{n_modes - 1}")
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for slot, src in enumerate(new_order):
        out[2 * slot : 2 * slot + 2, 2 * src : 2 * src + 2] = np.eye(2)
    return out


def apply_symplectic(transform: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Propagate a state through a symplectic transform: S @ cov @ S.T.

    The product is re-symmetrized to wipe rounding asymmetry; the symplectic
    spectrum is preserved.
    """
    if transform.shape != cov.shape:
        raise UsageError(f"dimension mismatch: transform is {transform.shape}, state is {cov.shape}")
    out = transform @ cov @ transform.T
    return 0.5 * (out + out.T)


def extract_modes(cov: np.ndarray, modes: Sequence[int]) -> np.ndarray:
    """Marginal state of the listed modes (rows/columns of their blocks)."""
    if len(set(modes)) != len(modes):
        raise UsageError("mode list contains duplicates")
    n = cov.shape[0] // 2
    for m in modes:
        if not 0 <= m < n:
            raise UsageError(f"mode index {m} out of range for {n} modes")
    return _select_modes(cov, modes)


def _select_modes(data: np.ndarray, modes: Sequence[int]) -> np.ndarray:
    # rows and columns of the listed mode blocks, in that order, as a new array
    idx = [2 * m + q for m in modes for q in (0, 1)]
    return data.take(idx, axis=0).take(idx, axis=1)


def _clamp_floats(values: Sequence[float]) -> list[float]:
    # clamp_spectrum's policy on Python floats, and the one place it is written
    if any(nu < 1.0 - CLAMP_TOL for nu in values):
        worst = float(np.min(values))
        raise PhysicalityError(f"symplectic eigenvalue {worst:.9g} violates the uncertainty bound")
    return [1.0 if nu < 1.0 else nu for nu in values]


def clamp_spectrum(values):
    """Clamp near-unit symplectic eigenvalues, reject unphysical ones.

    Values in [1 - 1e-9, 1) become exactly 1; anything below them raises
    PhysicalityError naming the offending value. A tuple comes back as a
    tuple: a pair of floats from the closed forms is clamped on floats, with
    no numpy round trip, and a pair of swept columns row by row (see
    ``Column``). Any other input comes back as an array of its shape, the
    input itself when no value lies below 1.
    """
    if isinstance(values, tuple):
        if any(isinstance(nu, Column) for nu in values):
            return tuple(nu.clamped() for nu in values)
        return tuple(_clamp_floats(values))
    values = np.asarray(values, dtype=float)
    if not (values < 1.0).any():
        return values
    return np.array(_clamp_floats(values.ravel().tolist())).reshape(values.shape)


class Column(np.ndarray):
    """One operand of the closed forms holding a value per row of a sweep grid.

    The closed forms take a column wherever they take a float, and give each
    row the bits the float path gives it:

    - arithmetic is IEEE on both; ``x ** 2`` calls C ``pow`` through
      ``float_power``, as a float's does (numpy's own ``**`` squares by
      multiplication, which rounds differently);
    - ``Column.sqrt`` and ``Column.log2`` stand in for ``math``'s (the
      kernel's ``xp``); ``log2`` calls ``math.log2`` per row, since
      ``np.log2`` rounds differently on some inputs;
    - a branch condition over a column follows the branch most pending rows
      take; ``clamp_spectrum`` snaps a column row by row, so that it never
      splits a grid.

    A row that takes another branch, or where the float path would raise,
    is marked in ``redo`` (shared by every column of one pass) for the
    float path to evaluate instead; its value here is meaningless.
    """

    redo: np.ndarray

    @classmethod
    def of(cls, values, redo: np.ndarray) -> "Column":
        column = np.array(values, dtype=float).view(cls)
        column.redo = redo
        return column

    def __array_finalize__(self, obj):
        self.redo = getattr(obj, "redo", None)

    def __bool__(self) -> bool:
        cond = self.view(np.ndarray)
        if not cond.any():
            return False
        if cond.all():
            return True
        pending = ~self.redo
        taken = bool(2 * np.count_nonzero(cond & pending) > np.count_nonzero(pending))
        self.redo |= cond != taken
        return taken

    def __pow__(self, exponent):
        out = np.float_power(self, exponent)
        self.redo |= np.isinf(out) & np.isfinite(self)  # float ** raises OverflowError
        return out

    @staticmethod
    def sqrt(x):
        if not isinstance(x, Column):
            return math.sqrt(x)
        x.redo |= x.view(np.ndarray) < 0.0  # math.sqrt raises
        return np.sqrt(x)

    @staticmethod
    def log2(x):
        if not isinstance(x, Column):
            return math.log2(x)
        rows = x.view(np.ndarray)
        ok = rows > 0.0
        if not ok.all():
            x.redo |= ~ok  # math.log2 raises, or the row is NaN
            rows = np.where(ok, rows, 1.0)
        return Column.of(list(map(math.log2, rows.tolist())), x.redo)

    def clamped(self) -> "Column":
        """clamp_spectrum row by row: a row it would reject goes to ``redo``."""
        out = self.copy()
        for i in np.flatnonzero(self.view(np.ndarray) < 1.0).tolist():
            try:
                out[i] = _clamp_floats([float(self[i])])[0]
            except PhysicalityError:
                self.redo[i] = True
        return out


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a physical state, in descending order.

    The eigenvalues of ``Omega @ cov`` come in pairs +-i nu, so each nu is
    the mean of an adjacent pair of their sorted moduli. Taking them
    directly, rather than the roots of the eigenvalues of
    ``-(Omega @ cov)**2``, keeps a near-unit nu accurate next to a large one.
    """
    omega = _symplectic_form(cov.shape[0] // 2)
    moduli = np.sort(np.abs(np.linalg.eigvals(omega @ cov).imag))
    nus = 0.5 * (moduli[0::2] + moduli[1::2])
    return clamp_spectrum(nus[::-1])


def two_mode_eigs(a: float, b: float, c: float, xp=math) -> tuple[float, float]:
    """Symplectic eigenvalues of [[a I, c sigma_z], [c sigma_z, b I]].

    Returns ``(z + d) / 2`` and ``(z - d) / 2``, the larger first, with
    ``z = sqrt((a + b)**2 - 4 c**2)`` and ``d = |b - a|``; agrees with the
    generic solver on the assembled 4x4 matrix. The same clamping policy as
    the generic solver is applied to the results; a float pair at or above 1
    skips it. ``xp`` is ``math`` on floats and ``Column`` on a swept column.
    """
    disc = (a + b) ** 2 - 4.0 * c * c
    if disc < 0.0:
        raise DomainError(f"negative discriminant {disc:.3e} for a={a}, b={b}, c={c}")
    z = xp.sqrt(disc)
    d = abs(b - a)
    nu1, nu2 = 0.5 * (z + d), 0.5 * (z - d)
    if xp is Column or nu2 < 1.0:
        nu1, nu2 = clamp_spectrum((nu1, nu2))
    return nu1, nu2


def _partition_at(cov: np.ndarray, mode: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Move the measured mode last and split into (kept, cross, measured)."""
    n = cov.shape[0] // 2
    if not 0 <= mode < n:
        raise UsageError(f"mode index {mode} out of range for {n} modes")
    if n == 1:
        raise UsageError("cannot condition away the only mode")
    order = [m for m in range(n) if m != mode] + [mode]
    rearranged = _select_modes(cov, order)
    return rearranged[:-2, :-2], rearranged[:-2, -2:], rearranged[-2:, -2:]


def condition_heterodyne(cov: np.ndarray, mode: int) -> np.ndarray:
    """State of the remaining modes after heterodyning ``mode``.

    Requires the measured mode to be isotropic (equal q/p variances, no q-p
    correlation); the remaining block is then
    ``kept - cross @ cross.T / (V_B + 1)`` with V_B the measured variance.
    """
    kept, cross, measured = _partition_at(cov, mode)
    aniso = max(abs(measured[0, 0] - measured[1, 1]), abs(measured[0, 1]))
    if aniso > 1e-9:
        raise UnsupportedCaseError(
            f"heterodyne conditioning needs an isotropic measured mode (deviation {aniso:.3e})"
        )
    v_b = 0.5 * (measured[0, 0] + measured[1, 1])
    out = kept - (cross @ cross.T) / (v_b + 1.0)
    return 0.5 * (out + out.T)


def condition_homodyne(cov: np.ndarray, mode: int, quad: Quadrature) -> np.ndarray:
    """State of the remaining modes after homodyning one quadrature of ``mode``.

    Only the measured-quadrature column of the cross correlations enters:
    ``kept - outer(c_q, c_q) / V_B(quad)``.
    """
    kept, cross, measured = _partition_at(cov, mode)
    k = quad.value
    v_b = measured[k, k]
    if v_b <= 1e-12:
        raise DomainError(f"measured quadrature variance {v_b:.3e} is not positive")
    col = cross[:, k : k + 1]
    out = kept - (col @ col.T) / v_b
    return 0.5 * (out + out.T)


def von_neumann_entropy(eigs: Iterable[float], xp=math) -> float:
    """Entropy in bits of a Gaussian state from its symplectic spectrum.

    Each eigenvalue contributes
    ``(nu+1)/2 * log2((nu+1)/2) - (nu-1)/2 * log2((nu-1)/2)``; the second
    term is dropped for nu - 1 < 1e-12 (continuous limit of x log x).
    Eigenvalues below 1 beyond rounding tolerance, NaN and infinity are
    rejected. ``xp`` is ``math`` on floats and ``Column`` on swept columns.
    """
    total = 0.0
    for nu in eigs:
        if not (1.0 - CLAMP_TOL <= nu < math.inf):
            raise DomainError(f"symplectic eigenvalue {nu} is "
                              + ("below 1" if nu < 1.0 else "not finite"))
        x = (nu + 1.0) / 2.0
        total += x * xp.log2(x)
        if nu - 1.0 >= 1e-12:
            x = (nu - 1.0) / 2.0
            total -= x * xp.log2(x)
    return total
