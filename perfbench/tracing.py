"""Per-layer spans and counters, recorded from outside the program.

cvrate's modules import each other with ``from .x import y``, so every
calling module holds its own reference to a callee. Wrapping
``cvrate.keyrate.evaluate`` alone would miss every optimizer probe, which
goes through ``cvrate.optimize.evaluate``. The tracer therefore replaces the
names each calling module binds (``SPANS``), and patches two constructors at
class level (``COUNTERS``) so that every construction is counted wherever it
happens. A layer is a module of cvrate; its self time is the time spent in
its spans minus the time spent in the spans they caused.

Aggregates are kept in memory while the tracer is active and read out when
the run ends. ``uninstall`` restores every replaced name.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

_CONFIG_FNS = ("load_config", "link_from_config", "protocol_from_config",
               "sweep_from_config", "optimize_from_config", "fiber_from_config", "parse_trust")
_GAUSSIAN_MATRIX_FNS = ("apply_symplectic", "beamsplitter", "condition_heterodyne",
                        "condition_homodyne", "direct_sum", "epr_state", "mode_permutation",
                        "symplectic_eigenvalues", "vacuum_state", "von_neumann_entropy")
_CLONER_FNS_IN_PURIFICATION = ("receiver_folded", "effective_v", "effective_xi_ch",
                               "noise_source_variances")

# (calling module, name it binds, layer the callee belongs to)
SPANS = (
    [("cvrate.cli", "main", "cli")]
    + [("cvrate.cli", fn, "config") for fn in _CONFIG_FNS]
    + [("cvrate.cli", "optimize_vmod", "optimize"),
       ("cvrate.cli", "optimize_vmod_trec_snr_locked", "optimize"),
       ("cvrate.cli", "evaluate", "keyrate"),
       ("cvrate.optimize", "evaluate", "keyrate"),
       ("cvrate.optimize", "snr", "keyrate"),
       ("cvrate.keyrate", "holevo_bound", "cloner"),
       ("cvrate.cloner", "holevo_bound", "cloner"),
       ("cvrate.cloner", "clamp_spectrum", "gaussian"),
       ("cvrate.cloner", "two_mode_eigs", "gaussian"),
       ("cvrate.cloner", "von_neumann_entropy", "gaussian"),
       ("cvrate.purification", "oracle_holevo", "purification")]
    + [("cvrate.purification", fn, "cloner") for fn in _CLONER_FNS_IN_PURIFICATION]
    + [("cvrate.purification", fn, "gaussian") for fn in _GAUSSIAN_MATRIX_FNS]
)

# (defining module, class, method, counter); the method runs once per construction
COUNTERS = (
    ("cvrate.cloner", "LinkParams", "__post_init__", "cloner.linkparams_built"),
    ("cvrate.gaussian", "SympMatrix", "__init__", "gaussian.symp_matrix_built"),
)

LAYERS = ("config", "cli", "optimize", "keyrate", "cloner", "gaussian", "purification")
DETECTION_KEYS = {"homodyne": "hom", "heterodyne": "het"}
TRUST_KEYS = ("untrusted_all", "trusted_receiver", "trusted_receiver_and_preparation")


class Tracer:
    """Installs the wrappers and aggregates what they record.

    Wrappers record only while ``active`` is true, so the benchmark's own
    checks, which call into cvrate too, stay out of the aggregates.
    """

    def __init__(self):
        self.active = False
        self._stack: list[list[float]] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)  # per layer
        self.calls: Counter[str] = Counter()  # per "module.name" binding
        self.total_s: defaultdict[str, float] = defaultdict(float)  # per binding, inclusive
        self.counts: Counter[str] = Counter()

    def _span(self, layer: str, binding: str, fn):
        stack, self_s, calls, total_s = self._stack, self.self_s, self.calls, self.total_s
        is_holevo = binding.endswith(".holevo_bound")

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                calls[binding] += 1
                total_s[binding] += dt
                if is_holevo:
                    params = args[0]
                    case = f"{DETECTION_KEYS[params.detection.value]}.{params.trust.value}"
                    calls[case] += 1
                    total_s[case] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module_name, attr, layer in SPANS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._patch(module, attr, self._span(layer, f"{module_name}.{attr}", fn))
        for module_name, cls_name, method, name in COUNTERS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, method, self._counter(name, cls.__dict__[method]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _binding_calls(self, *bindings: str) -> int:
        return sum(self.calls[b] for b in bindings)

    def _mean_us(self, key: str) -> float:
        return 1e6 * self.total_s[key] / self.calls[key] if self.calls[key] else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer aggregates since the last ``reset``, by metric name."""
        optimize_calls = self._binding_calls("cvrate.cli.optimize_vmod",
                                             "cvrate.cli.optimize_vmod_trec_snr_locked")
        probes = self.calls["cvrate.optimize.evaluate"]  # only optimize binds this name
        out = {
            "config.calls": self._binding_calls(*(f"cvrate.cli.{fn}" for fn in _CONFIG_FNS)),
            "cli.calls": self.calls["cvrate.cli.main"],
            "optimize.calls": optimize_calls,
            "optimize.probes_per_call": probes / optimize_calls if optimize_calls else 0.0,
            "keyrate.evaluate_calls": self._binding_calls("cvrate.cli.evaluate",
                                                          "cvrate.optimize.evaluate"),
            "cloner.holevo_calls": self._binding_calls("cvrate.keyrate.holevo_bound",
                                                       "cvrate.cloner.holevo_bound"),
            "cloner.linkparams_built": self.counts["cloner.linkparams_built"],
            "gaussian.clamp_calls": self.calls["cvrate.cloner.clamp_spectrum"],
            "gaussian.symp_eig_calls": self.calls["cvrate.purification.symplectic_eigenvalues"],
            "gaussian.symp_matrix_built": self.counts["gaussian.symp_matrix_built"],
            "purification.calls": self.calls["cvrate.purification.oracle_holevo"],
            "purification.oracle_us": self._mean_us("cvrate.purification.oracle_holevo"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        for detection in DETECTION_KEYS.values():
            for trust in TRUST_KEYS:
                out[f"cloner.holevo_us.{detection}.{trust}"] = self._mean_us(f"{detection}.{trust}")
        return out
