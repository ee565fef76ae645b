"""Command-line front end: single-point rates, sweeps and optimization.

Subcommands:
    rate      evaluate one operating point, JSON on stdout
    sweep     sweep one variable over a grid, CSV to --out
    optimize  maximize the secret fraction, JSON report

Exit codes: 0 success, 1 I/O failure, 2 invalid physics or configuration,
3 unreachable optimization constraint. Sweep rows are written in sweep order
(value-major, trust-minor), so identical configs produce byte-identical
files. Without ``optimize_vmod`` a sweep evaluates each trust case's whole
grid in one pass through the closed forms, the swept field a
``gaussian.Column`` (``keyrate._swept_rates``); a row that pass leaves to the
float path (the minority side of a branch, or any row of a failed pass) goes
through ``evaluate`` in sweep order, so an error names the row the per-row
evaluation would. ``sweep --jobs N`` is accepted and ignored.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
from dataclasses import replace

import numpy as np

from .cloner import _FIELDS as _LINK_FIELDS
from .cloner import LinkParams, _args
from .config import (
    FiberModel,
    SweepSpec,
    fiber_from_config,
    link_from_config,
    load_config,
    optimize_from_config,
    parse_trust,
    protocol_from_config,
    sweep_from_config,
)
from .errors import ConfigError, ConstraintError, DomainError, UsageError
from .keyrate import ProtocolParams, RateResult, _key_rate, _swept_rates, evaluate
from .optimize import optimize_vmod, optimize_vmod_trec_snr_locked

# One spelling per field: the CSV columns and row cells and the JSON result
# read these (the link fields in LinkParams' order). The JSON ``params``
# object keeps its own documented key order.
_RESULT_FIELDS = ("snr", "i_ab", "chi_eb", "secret_fraction", "key_rate")
_PARAMS_KEYS = ("v_mod", "xi_pr", "t_ch", "xi_ch", "t_rec", "xi_rec")
_link_values = operator.attrgetter(*_LINK_FIELDS)
_result_values = operator.attrgetter(*_RESULT_FIELDS)

CSV_COLUMNS = ["variable_name", "value", "trust", "detection", *_LINK_FIELDS, *_RESULT_FIELDS]


def _fmt(x: float | None) -> str:
    # 12 significant digits: below every test tolerance, stable across platforms
    return "" if x is None else f"{x:.12g}"


def _jsonable(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit_json(payload: dict, out_path: str | None) -> None:
    text = json.dumps(_jsonable(payload), indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _result_dict(res: RateResult) -> dict:
    return dict(zip(_RESULT_FIELDS, _result_values(res)), nu=list(res.eigs))


def _params_dict(p: LinkParams, distance_km: float | None) -> dict:
    out = {key: getattr(p, key) for key in _PARAMS_KEYS}
    out.update(detection=p.detection.value, trust=p.trust.value)
    if distance_km is not None:
        out["distance_km"] = distance_km
    return out


def cmd_rate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    params, distance_km = link_from_config(
        cfg, trust_override=args.trust, detection_override=args.detection
    )
    result = evaluate(params, protocol_from_config(cfg))
    _emit_json({"params": _params_dict(params, distance_km), **_result_dict(result)}, args.out)
    return 0


def _sweep_lines(spec: SweepSpec, base: LinkParams, proto: ProtocolParams, fiber: FiberModel,
                 grid: list[float]) -> list[str]:
    """CSV lines of a sweep after the header, in sweep order: value-major, trust-minor.

    A row is its grid value's cells (the value and the six link cells) around
    its trust case, then five result cells. No cell holds a comma, a quote or
    a line break, so joining them gives the bytes ``csv.writer`` would.
    """
    distance = spec.variable == "distance_km"
    field = "t_ch" if distance else spec.variable
    index = _LINK_FIELDS.index(field)

    def change(value: float) -> dict:
        return {"t_ch": fiber.t_ch(value)} if distance else {field: value}

    swept = [_t_ch_or_nan(fiber, d) for d in grid] if distance else grid
    link = _args(base)
    # per trust case: its cells, and the rates of its grid (None where the float path decides)
    cases = [(trust, f"{trust.value},{base.detection.value},",
              [None] * len(grid) if spec.optimize_vmod else
              _swept_rates(proto.beta, link[:7] + (trust,), field, swept))
             for trust in spec.trust_cases]
    link_cells = [*map(_fmt, link[:6])]
    lines = []
    for i, value in enumerate(grid):
        head = f"{spec.variable},{_fmt(value)},"
        link_cells[index] = _fmt(swept[i])
        links = ",".join(link_cells)
        for trust, case, grid_rates in cases:
            rates = grid_rates[i]
            row_links = links
            if rates is None:
                params = replace(base, trust=trust, **change(value))
                if spec.optimize_vmod:
                    opt = optimize_vmod(params, proto)
                    params = replace(params, v_mod=opt.v_mod)
                    row_links = ",".join(map(_fmt, _link_values(params)))
                    result = opt.result
                else:
                    result = evaluate(params, proto)
                rates = _result_values(result)[:4]
            results = ",".join([*map(_fmt, rates), _fmt(_key_rate(proto, rates[3]))])
            lines.append(f"{head}{case}{row_links},{results}\n")
    return lines


def _t_ch_or_nan(fiber: FiberModel, distance_km: float) -> float:
    # a length the fibre model rejects fails LinkParams' rule on t_ch, so its
    # rows go through the float path, which raises the fibre model's error
    try:
        return fiber.t_ch(distance_km)
    except DomainError:
        return float("nan")


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    spec = sweep_from_config(cfg)
    if args.trust:
        spec = replace(spec, trust_cases=(parse_trust(args.trust),))
    base, _ = link_from_config(
        cfg,
        trust_override=args.trust,
        detection_override=args.detection,
        needs_vmod=not (spec.optimize_vmod or spec.variable == "v_mod"),
    )
    proto = protocol_from_config(cfg)
    fiber = fiber_from_config(cfg)
    if spec.scale == "log":
        grid = np.geomspace(spec.start, spec.stop, spec.points).tolist()
    else:
        grid = np.linspace(spec.start, spec.stop, spec.points).tolist()

    lines = _sweep_lines(spec, base, proto, fiber, grid)
    with open(args.out, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(lines)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    params, _ = link_from_config(
        cfg, trust_override=args.trust, detection_override=args.detection, needs_vmod=False
    )
    proto = protocol_from_config(cfg)
    opts = optimize_from_config(cfg)

    if args.mode == "vmod":
        opt = optimize_vmod(params, proto, bounds=(opts.vmod_lo, opts.vmod_hi))
        t_rec, snr_residual = params.t_rec, None
    else:
        if opts.snr_target is None:
            raise ConfigError("missing required key: optimize.snr_target")
        opt = optimize_vmod_trec_snr_locked(
            params,
            proto,
            opts.snr_target,
            t_rec_floor=opts.t_rec_floor,
            vmod_max=opts.vmod_hi,
        )
        t_rec, snr_residual = opt.t_rec, opt.snr_residual
    payload = {
        "mode": args.mode,
        "v_mod": opt.v_mod,
        "t_rec": t_rec,
        "boundary": opt.boundary,
        "snr_residual": snr_residual,
        "rate": _result_dict(opt.result),
    }
    _emit_json(payload, args.out)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: argparse set-up costs about as much as a
    # hundred closed-form evaluations, and parse_args leaves it unchanged
    parser = argparse.ArgumentParser(
        prog="cvrate",
        description="Asymptotic secure-key rates for Gaussian-modulated coherent-state CV-QKD.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to an INI config file")
        p.add_argument("--trust", help="override the trust case from the config")
        p.add_argument("--detection", help="override the detection kind (hom|het)")

    p_rate = sub.add_parser("rate", help="evaluate a single operating point (JSON)")
    common(p_rate)
    p_rate.add_argument("--out", help="write JSON here instead of stdout")
    p_rate.set_defaults(func=cmd_rate)

    p_sweep = sub.add_parser("sweep", help="sweep one variable over a grid (CSV)")
    common(p_sweep)
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--jobs", type=int, default=1, help="ignored; rows run in this process")
    p_sweep.set_defaults(func=cmd_sweep)

    p_opt = sub.add_parser("optimize", help="maximize the secret fraction (JSON report)")
    common(p_opt)
    p_opt.add_argument(
        "--mode",
        choices=("vmod", "vmod_trec_snr"),
        default="vmod",
        help="search v_mod alone, or v_mod and t_rec under an SNR lock",
    )
    p_opt.add_argument("--out", help="write the JSON report here instead of stdout")
    p_opt.set_defaults(func=cmd_optimize)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, UsageError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"invalid input: arithmetic error ({type(exc).__name__}: {exc})", file=sys.stderr)
        return 2
    except ConstraintError as exc:
        print(f"constraint error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def run() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
