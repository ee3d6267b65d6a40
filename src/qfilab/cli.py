"""Command-line front end.

Subcommands: fig3a, fig3b, qfi, fi-scan, estimate, catalog list,
state validate. CSV outputs are byte stable for fixed flags: floats are
printed with 12 significant digits, rows are computed in sweep order,
and every CSV starts with a '#' header carrying the tool version, the
flags, and the cutoff. Divergent bound rows print a literal 0 and their
provenance goes to a JSON sidecar next to the CSV.

Exit codes: 0 success, 2 validation error or an input too large for the
available memory or for float and integer arithmetic (an overflow or a
division by zero), 3 when a divergence was encountered where a finite
value was requested.

States are addressed either by a JSON file path or by a compact catalog
URI, catalog:<family>:<params>, for example catalog:noon:3 or
catalog:zeta_noon:3:1000 (see `qfilab catalog list`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import catalog as cat
from . import curves
from .curves import SpecError
from .estimation import run_estimation
from .fisher import PIPELINES, FisherReport, fi_scan, qfi_pure
from .fock import DEFAULT_NORM_TOL, _json_entries, load_state, make_state

# family -> (constructor, URI parameter names, `catalog list` text)
_FAMILIES = {
    "noon": (cat.noon, ("N",), "two-branch state with N photons, N >= 1"),
    "dual_fock": (cat.dual_fock, ("N",), "equal occupation |N,N>, N >= 0"),
    "zeta_noon": (cat.zeta_noon, ("x", "cutoff"), "1/N^x weighted two-branch family, x > 1 (default cutoff 1000)"),
    "zeta_noon_doubled": (cat.zeta_noon_doubled, ("x", "cutoff"), "same weights on 2N-photon branches"),
    "zeta_dual_fock": (cat.zeta_dual_fock, ("x", "cutoff"), "1/N^x weighted |N,N> family"),
    "tmsv": (cat.tmsv, ("mean", "cutoff"), "squeezed vacuum, mean total photons > 0 "
             f"(cutoff from tail bound {cat.TMSV_TAIL_BOUND:g})"),
    "tmsv_noon": (cat.tmsv_noon, ("mean", "cutoff"), "two-branch family with the tmsv distribution"),
}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _finite(text: str) -> float:
    """A float flag's or catalog parameter's number; inf and nan are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


_finite.__name__ = "float"  # argparse words a non-number as "invalid float value"


def _catalog_param(spec: str, name: str, text: str):
    """Parse one catalog parameter: photon numbers and cutoffs are
    integers, the weight exponent x and the mean are finite floats."""
    integral = name in ("N", "cutoff")
    try:
        return int(text) if integral else _finite(text)
    except ValueError:
        kind = "an integer" if integral else "a number"
        raise SpecError(f"parameter {name}={text!r} in {spec!r} is not {kind}") from None
    except argparse.ArgumentTypeError:
        raise SpecError(f"parameter {name}={text!r} in {spec!r} must be finite") from None


def _usage(names) -> str:
    return names[0] + "".join(f"[:{n}]" for n in names[1:])


def resolve_state(spec: str):
    """Return (state, distribution or None, description) for a catalog URI
    or a JSON state file path."""
    if not spec.startswith("catalog:"):
        state = load_state(spec)
        return state, None, f"file:{spec}"
    family, *params = spec.split(":")[1:]
    if family not in _FAMILIES:
        raise SpecError(f"unknown catalog family in {spec!r}")
    make, names, _ = _FAMILIES[family]
    if not 1 <= len(params) <= len(names):
        raise SpecError(f"{spec!r} gives {len(params)} parameters; {family} takes {_usage(names)}")
    values = [_catalog_param(spec, n, t) for n, t in zip(names, params)]
    if len(values) < len(names):
        values.append(1000 if family.startswith("zeta") else cat.tmsv_cutoff_for(values[0]))
    made = make(*values)  # a fixed-N family makes a state, the others (state, dist)
    return (*made, spec) if isinstance(made, tuple) else (made, None, spec)


# ---------------------------------------------------------------------------
# output helpers

def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(header_meta: str, columns: list[str], rows: list[list[float]]) -> str:
    lines = [f"# qfilab {__version__} | {header_meta}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _write_svg(csv_path: str, columns: list[str], rows: list[list[float]],
               title: str, xlabel: str) -> None:
    """Minimal polyline plot of every CSV column against the first, written
    next to the CSV; a convenience view of the CSV contract."""
    width, height, margin = 640, 420, 56
    xs = np.asarray([r[0] for r in rows], dtype=float)
    series = {c: [r[i + 1] for r in rows] for i, c in enumerate(columns[1:])}
    ally = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ally.min()), float(ally.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(v):
        return margin + (v - x0) / (x1 - x0) * (width - 2 * margin)

    def py(v):
        return height - margin - (v - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" y2="{height-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height-margin}" stroke="black"/>',
        f'<text x="{width/2:.0f}" y="{height-16}" text-anchor="middle" font-size="12">{xlabel}</text>',
    ]
    for i in range(5):
        tx = x0 + i * (x1 - x0) / 4
        ty = y0 + i * (y1 - y0) / 4
        parts.append(
            f'<text x="{px(tx):.1f}" y="{height-margin+16}" text-anchor="middle" '
            f'font-size="10">{tx:.3g}</text>'
        )
        parts.append(
            f'<text x="{margin-6}" y="{py(ty):.1f}" text-anchor="end" '
            f'font-size="10">{ty:.3g}</text>'
        )
    for i, (label, ys) in enumerate(series.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width-margin+4}" y="{margin + 14*i}" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    _write_text(os.path.splitext(csv_path)[0] + ".svg", "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# curve subcommands

def _sweep(args) -> np.ndarray:
    if args.points < 2:
        raise SpecError("--points must be >= 2")
    if not args.x_max > args.x_min:
        raise SpecError("--x-max must exceed --x-min")
    return np.linspace(args.x_min, args.x_max, args.points)


# figure -> (point function, photons per weight index, default --x-min, help, sidecar family)
_FIGURES = {
    "fig3a": (curves.fig3a_point, 1, 1.01, "benchmark bound curves, single two-branch family",
              "zeta-weighted two-branch family"),
    "fig3b": (curves.fig3b_point, 2, 2.02, "doubled two-branch vs equal-occupation curves",
              "zeta-weighted doubled two-branch and equal-occupation families"),
}


def _run_curve(args) -> int:
    figure = args.command
    point_fn, scale, _, _, family = _FIGURES[figure]
    points = [point_fn(float(m), args.tol) for m in _sweep(args)]

    columns = ["mean_n", *points[0].values]
    rows = [[p.mean_n, *p.values.values()] for p in points]
    meta = (
        f"{figure} | points={args.points} x_min={_fmt(args.x_min)} "
        f"x_max={_fmt(args.x_max)} tol={args.tol:g} cutoff=inf"
    )
    _write_text(args.out, _csv_text(meta, columns, rows))

    divergent_rows = [
        {"mean_n": p.mean_n, "columns": list(p.divergent_columns)}
        for p in points
        if p.divergent_columns
    ]
    if args.out not in (None, "-"):
        trend_cutoffs = [100, 1000, 10_000, 100_000]
        sidecar = {
            "figure": figure,
            "family": family,
            "crossing_mean": curves.crossing_mean(scale, args.tol),
            "exponent_at_divergence": 3.0,
            "divergence": "second moment of the photon distribution grows without "
            "bound with the cutoff for weight exponents x <= 3",
            "mean_square_trend": [
                {"cutoff": k, "mean_square": v}
                for k, v in curves.truncated_mean_square_trend(3.0, trend_cutoffs, scale)
            ],
            "divergent_rows": divergent_rows,
        }
        _write_text(args.out + ".provenance.json", json.dumps(sidecar, indent=1) + "\n")
        if args.svg:
            _write_svg(args.out, columns, rows, f"{figure}: phase uncertainty vs mean photon number",
                       "mean photon number")
    return 0


# ---------------------------------------------------------------------------
# report subcommands

def _cmd_qfi(args) -> int:
    state, dist, desc = resolve_state(args.state)
    phis = np.linspace(0.0, 2.0 * math.pi, 181)
    scan = fi_scan(state, phis, args.pipeline)
    # the first phase within rounding of the maximum: a scan flat up to its
    # last bits must not report a phase picked by rounding noise
    best = int(np.argmax(scan >= (1.0 - 1e-12) * scan.max()))
    divergent = bool(dist and dist.mean_square.divergent)
    report = FisherReport(
        phi=float(phis[best]),
        fi=float(scan[best]),
        qfi=qfi_pure(state, args.pipeline),
        povm="counting:na_nb",
        pipeline=args.pipeline,
        qfi_divergent=divergent,
    )
    payload = report.to_json_dict()
    payload["state"] = desc
    if divergent:
        payload["divergence"] = {
            "family": dist.family,
            "truncated_qfi": report.qfi,
            "truncated_crb": report.crb_single,
            "note": "family QFI grows without bound with the cutoff; "
            "CRB reported as exactly 0",
        }
    _write_text(args.out, json.dumps(payload, indent=1) + "\n")
    return 3 if divergent else 0


def _cmd_fi_scan(args) -> int:
    phis = _sweep(args)  # flags first: the state may be large
    state, dist, _ = resolve_state(args.state)
    fi = fi_scan(state, phis, args.pipeline)
    qfi = qfi_pure(state, args.pipeline)
    columns = ["phi", "fi", "qfi"]
    rows = [[float(p), float(f), qfi] for p, f in zip(phis, fi)]
    meta = (
        f"fi-scan {args.state} | pipeline={args.pipeline} points={args.points} "
        f"x_min={_fmt(args.x_min)} x_max={_fmt(args.x_max)} cutoff={state.cutoff}"
    )
    _write_text(args.out, _csv_text(meta, columns, rows))
    if args.svg and args.out not in (None, "-"):
        _write_svg(args.out, columns, rows, f"information scan: {args.state}", "phase (rad)")
    return 0


def _cmd_estimate(args) -> int:
    if args.trials < 1:  # flags first: the state may be large
        raise SpecError("--trials must be >= 1")
    if args.reps < 1:
        raise SpecError("--reps must be >= 1")
    if args.seed < 0:
        raise SpecError("--seed must be >= 0")
    state, _, _ = resolve_state(args.state)
    runs = run_estimation(state, args.phi_true, args.pipeline, args.trials,
                          seed=args.seed, reps=args.reps, window=args.window)
    _write_text(args.out, "".join(run.to_json_line() + "\n" for run in runs))
    return 0


def _cmd_catalog_list(_args) -> int:
    sys.stdout.write("catalog families (address as catalog:<family>:<params>)\n")
    for family, (_, names, doc) in _FAMILIES.items():
        sys.stdout.write(f"  {family + ':' + _usage(names):32s} {doc}\n")
    return 0


def _raw_norm(amps) -> float:
    """The norm of a state file's amplitudes, inf beyond the float range.
    Scaling the parts by a power of two keeps every square finite, and the
    bits of the unscaled sum wherever that is finite and normal."""
    shift = math.frexp(max(max(abs(a.real), abs(a.imag)) for a in amps))[1]
    norm = math.sqrt(sum(math.ldexp(a.real, -shift) ** 2 + math.ldexp(a.imag, -shift) ** 2 for a in amps))
    return math.inf if math.frexp(norm)[1] + shift > 1024 else math.ldexp(norm, shift)


def _cmd_state_validate(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        cutoff, entries = _json_entries(raw)
        state = make_state(entries, cutoff)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"invalid state file: {exc}\n")
        return 2
    raw_norm = _raw_norm([amp for _, _, amp in entries])
    summary = {
        "valid": True,
        "cutoff": state.cutoff,
        "entries": len(state),
        "raw_norm": "inf" if math.isinf(raw_norm) else raw_norm,
        "renormalized": abs(raw_norm - 1.0) > DEFAULT_NORM_TOL,
        "occupied_sectors": state.occupied_sectors(),
    }
    sys.stdout.write(json.dumps(summary, indent=1) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """argparse takes "-1e-3" or "-inf" after a flag for an option (its
    negative-number pattern knows only plain decimals); no qfilab option
    looks like a number, so every token that parses as a float is a value."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_common(parser, *, points, x_min, x_max):
    parser.add_argument("--points", type=int, default=points)
    parser.add_argument("--x-min", dest="x_min", type=_finite, default=x_min)
    parser.add_argument("--x-max", dest="x_max", type=_finite, default=x_max)
    parser.add_argument("--out", default=None, help="output path ('-' = stdout)")
    parser.add_argument("--svg", action="store_true",
                        help="also write a simple SVG next to the CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfilab",
        description="Interferometric phase-information toolbox",
    )
    parser.add_argument("--version", action="version", version=f"qfilab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for figure, (_, _, x_min, help_text, _) in _FIGURES.items():
        p = sub.add_parser(figure, help=help_text)
        _add_common(p, points=200, x_min=x_min, x_max=5.0)
        p.add_argument("--tol", type=_finite, default=1e-12)
        p.set_defaults(run=_run_curve)

    p = sub.add_parser("qfi", help="information report for a state")
    p.add_argument("state", help="catalog URI or state file")
    p.add_argument("--pipeline", choices=PIPELINES, default="MMZI")
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_qfi)

    p = sub.add_parser("fi-scan", help="FI versus phase as CSV")
    p.add_argument("state")
    p.add_argument("--pipeline", choices=PIPELINES, default="MMZI")
    _add_common(p, points=721, x_min=0.0, x_max=2.0 * math.pi)
    p.set_defaults(run=_cmd_fi_scan)

    p = sub.add_parser("estimate", help="seeded Monte-Carlo estimation runs (JSON lines)")
    p.add_argument("state")
    p.add_argument("--pipeline", choices=PIPELINES, default="MMZI")
    p.add_argument("--phi-true", dest="phi_true", type=_finite, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=_finite, nargs=2, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_estimate)

    p = sub.add_parser("catalog", help="catalog utilities")
    csub = p.add_subparsers(dest="catalog_command", required=True)
    csub.add_parser("list", help="list families and parameter domains").set_defaults(run=_cmd_catalog_list)

    p = sub.add_parser("state", help="state-file utilities")
    ssub = p.add_subparsers(dest="state_command", required=True)
    v = ssub.add_parser("validate", help="validate a JSON state file")
    v.add_argument("path")
    v.set_defaults(run=_cmd_state_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (MemoryError, ArithmeticError) as exc:
        # an input too large for memory, or for a float or C integer
        subject = getattr(args, "state", getattr(args, "path", args.command))
        kind = "out of memory" if isinstance(exc, MemoryError) else type(exc).__name__
        reason = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"error: {kind} while evaluating {subject!r}{reason}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
