"""Configuration-file parsing for the command-line front end.

Configs are flat INI files with ``[link]``, ``[protocol]``, ``[fiber]``,
``[sweep]`` and ``[optimize]`` sections; see the README for the full key
reference. The channel transmittance may be given directly (``t_ch``) or as
a fibre length (``distance_km``), converted through the fibre attenuation.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .cloner import Detection, LinkParams, Trust
from .errors import ConfigError, DomainError
from .keyrate import ProtocolParams

SWEEP_VARIABLES = ("distance_km", "xi_rec", "t_rec", "xi_pr", "xi_ch", "v_mod")
# every row is held in memory until the CSV is written
MAX_SWEEP_POINTS = 100_000


@dataclass(frozen=True)
class FiberModel:
    """Fibre-loss model mapping length to channel transmittance."""

    attenuation_db_per_km: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.attenuation_db_per_km < math.inf:
            raise DomainError(
                f"attenuation_db_per_km must be finite and >= 0, got {self.attenuation_db_per_km}"
            )

    def t_ch(self, distance_km: float) -> float:
        if not 0.0 <= distance_km < math.inf:
            raise DomainError(f"distance_km must be finite and >= 0, got {distance_km}")
        return 10.0 ** (-self.attenuation_db_per_km * distance_km / 10.0)


@dataclass(frozen=True)
class SweepSpec:
    """One-variable sweep description."""

    variable: str
    start: float
    stop: float
    points: int
    scale: str = "linear"
    trust_cases: tuple[Trust, ...] = (Trust.TRUSTED_RECEIVER,)
    optimize_vmod: bool = False

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"unknown sweep variable {self.variable!r}; choose one of {', '.join(SWEEP_VARIABLES)}"
            )
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError(f"sweep start and stop must be finite, got {self.start} and {self.stop}")
        if not self.start < self.stop:
            raise ConfigError(f"sweep needs start < stop, got {self.start} >= {self.stop}")
        if self.points < 2:
            raise ConfigError(f"sweep needs at least 2 points, got {self.points}")
        if self.points > MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep allows at most {MAX_SWEEP_POINTS} points, got {self.points}")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"sweep scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and self.start <= 0.0:
            raise ConfigError("log-scaled sweeps need start > 0")
        if not self.trust_cases:
            raise ConfigError("sweep needs at least one trust case")
        for i, case in enumerate(self.trust_cases):
            if case in self.trust_cases[:i]:
                raise ConfigError(f"sweep.trust_cases lists {case.value!r} more than once")
        if self.variable == "v_mod" and self.optimize_vmod:
            raise ConfigError("cannot sweep v_mod and optimize it at the same time")


def parse_trust(text: str) -> Trust:
    try:
        return Trust(text.strip().lower())
    except ValueError:
        valid = ", ".join(t.value for t in Trust)
        raise ConfigError(f"unknown trust case {text!r}; choose one of {valid}") from None


def parse_detection(text: str) -> Detection:
    key = text.strip().lower()
    aliases = {"hom": Detection.HOMODYNE, "het": Detection.HETERODYNE}
    if key in aliases:
        return aliases[key]
    try:
        return Detection(key)
    except ValueError:
        raise ConfigError(
            f"unknown detection {text!r}; choose homodyne/hom or heterodyne/het"
        ) from None


def load_config(path: str) -> configparser.ConfigParser:
    # no interpolation: a literal '%' reaches the number checks as written
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser's messages can span lines; the CLI reports one
        raise ConfigError(f"cannot parse config file {path!r}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    return parser


def _get_float(cfg: configparser.ConfigParser, section: str, key: str, default=None):
    if not cfg.has_option(section, key):
        return default
    raw = cfg.get(section, key)
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key} must be a number, got {raw!r}") from None


def _require_float(cfg: configparser.ConfigParser, section: str, key: str) -> float:
    value = _get_float(cfg, section, key)
    if value is None:
        raise ConfigError(f"missing required key: {section}.{key}")
    return value


def _get_bool(cfg: configparser.ConfigParser, section: str, key: str, default: bool) -> bool:
    if not cfg.has_option(section, key):
        return default
    try:
        return cfg.getboolean(section, key)
    except ValueError:
        raise ConfigError(f"{section}.{key} must be a boolean, got {cfg.get(section, key)!r}") from None


def fiber_from_config(cfg: configparser.ConfigParser) -> FiberModel:
    return FiberModel(attenuation_db_per_km=_get_float(cfg, "fiber", "attenuation_db_per_km", 0.2))


def link_from_config(
    cfg: configparser.ConfigParser,
    *,
    trust_override: str | None = None,
    detection_override: str | None = None,
    needs_vmod: bool = True,
) -> tuple[LinkParams, float | None]:
    """The [link] section as validated parameters, plus the fibre length
    ``t_ch`` was derived from (None when ``t_ch`` was given directly).

    A command that chooses v_mod itself passes ``needs_vmod=False``: a
    missing v_mod is then replaced by the stand-in 1.0, while a given one is
    still validated.
    """
    if not cfg.has_section("link"):
        raise ConfigError("missing required section: [link]")
    t_ch = _get_float(cfg, "link", "t_ch")
    distance = _get_float(cfg, "link", "distance_km")
    if t_ch is None and distance is None:
        raise ConfigError("missing required key: link.t_ch (or link.distance_km)")
    if t_ch is not None and distance is not None:
        raise ConfigError("give either link.t_ch or link.distance_km, not both")
    if distance is not None:
        t_ch = fiber_from_config(cfg).t_ch(distance)

    detection_text = detection_override or cfg.get("link", "detection", fallback=None)
    if detection_text is None:
        raise ConfigError("missing required key: link.detection")
    trust_text = trust_override or cfg.get("link", "trust", fallback=None)
    if trust_text is None:
        raise ConfigError("missing required key: link.trust")

    v_mod = _require_float(cfg, "link", "v_mod") if needs_vmod else _get_float(cfg, "link", "v_mod", 1.0)
    params = LinkParams(
        v_mod=v_mod,
        xi_pr=_get_float(cfg, "link", "xi_pr", 0.0),
        t_ch=t_ch,
        xi_ch=_require_float(cfg, "link", "xi_ch"),
        t_rec=_require_float(cfg, "link", "t_rec"),
        xi_rec=_require_float(cfg, "link", "xi_rec"),
        detection=parse_detection(detection_text),
        trust=parse_trust(trust_text),
    )
    return params, distance


def protocol_from_config(cfg: configparser.ConfigParser) -> ProtocolParams:
    if not cfg.has_section("protocol"):
        raise ConfigError("missing required section: [protocol] (with key protocol.beta)")
    return ProtocolParams(
        beta=_require_float(cfg, "protocol", "beta"),
        fer=_get_float(cfg, "protocol", "fer", 0.0),
        disclosed_fraction=_get_float(cfg, "protocol", "disclosed_fraction", 0.0),
        f_sym=_get_float(cfg, "protocol", "f_sym"),
    )


def sweep_from_config(cfg: configparser.ConfigParser) -> SweepSpec:
    if not cfg.has_section("sweep"):
        raise ConfigError("missing required section: [sweep]")
    if not cfg.has_option("sweep", "variable"):
        raise ConfigError("missing required key: sweep.variable")
    trust_raw = cfg.get("sweep", "trust_cases", fallback=None)
    if trust_raw is None:
        cases: tuple[Trust, ...] = (Trust.TRUSTED_RECEIVER,)
    else:
        cases = tuple(parse_trust(part) for part in trust_raw.split(",") if part.strip())
    points_raw = cfg.get("sweep", "points", fallback=None)
    if points_raw is None:
        raise ConfigError("missing required key: sweep.points")
    try:
        points = int(points_raw)
    except ValueError:
        raise ConfigError(f"sweep.points must be an integer, got {points_raw!r}") from None
    return SweepSpec(
        variable=cfg.get("sweep", "variable").strip(),
        start=_require_float(cfg, "sweep", "start"),
        stop=_require_float(cfg, "sweep", "stop"),
        points=points,
        scale=cfg.get("sweep", "scale", fallback="linear").strip(),
        trust_cases=cases,
        optimize_vmod=_get_bool(cfg, "sweep", "optimize_vmod", False),
    )


@dataclass(frozen=True)
class OptimizeOptions:
    snr_target: float | None
    vmod_lo: float
    vmod_hi: float
    t_rec_floor: float

    def __post_init__(self):
        for key in ("snr_target", "vmod_lo", "vmod_hi", "t_rec_floor"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"optimize.{key} must be finite, got {value}")
        if not 0.0 < self.t_rec_floor <= 1.0:
            raise ConfigError(f"optimize.t_rec_floor must lie in (0, 1], got {self.t_rec_floor}")
        if not 0.0 < self.vmod_lo:
            raise ConfigError(f"optimize.vmod_lo must be positive, got {self.vmod_lo}")
        if not self.vmod_lo < self.vmod_hi:
            raise ConfigError(f"optimize.vmod_hi must exceed vmod_lo = {self.vmod_lo}, got {self.vmod_hi}")


def optimize_from_config(cfg: configparser.ConfigParser) -> OptimizeOptions:
    return OptimizeOptions(
        snr_target=_get_float(cfg, "optimize", "snr_target"),
        vmod_lo=_get_float(cfg, "optimize", "vmod_lo", 1e-3),
        vmod_hi=_get_float(cfg, "optimize", "vmod_hi", 1e3),
        t_rec_floor=_get_float(cfg, "optimize", "t_rec_floor", 1e-4),
    )
