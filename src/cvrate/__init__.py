"""Secure-key-rate toolkit for Gaussian-modulated coherent-state CV-QKD.

The package namespace holds what a key-rate caller uses: the link and
protocol records, the closed-form Holevo bound, key-rate evaluation, the two
optimizers and the typed errors. The matrix algebra, trust bookkeeping helpers,
purification oracle and config records are imported from their modules
(``cvrate.gaussian``, ``cvrate.cloner``, ``cvrate.purification``,
``cvrate.config``).
"""

from .cloner import Detection, EntropyPair, LinkParams, Trust, holevo_bound
from .errors import (
    ConfigError,
    ConstraintError,
    DomainError,
    PhysicalityError,
    UnsupportedCaseError,
    UsageError,
)
from .keyrate import ProtocolParams, RateResult, evaluate
from .optimize import ConstrainedOptimum, VmodOptimum, optimize_vmod, optimize_vmod_trec_snr_locked

__version__ = "0.1.0"

__all__ = [
    "Detection",
    "Trust",
    "LinkParams",
    "EntropyPair",
    "ProtocolParams",
    "RateResult",
    "VmodOptimum",
    "ConstrainedOptimum",
    "holevo_bound",
    "evaluate",
    "optimize_vmod",
    "optimize_vmod_trec_snr_locked",
    "DomainError",
    "PhysicalityError",
    "UnsupportedCaseError",
    "UsageError",
    "ConfigError",
    "ConstraintError",
]
