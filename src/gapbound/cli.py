"""Command-line interface.

Subcommands: ``solve``, ``bounds``, ``sweep``, ``fuzz``, ``plot``.
Exit codes: 0 success, 1 validation error (bad input, malformed file,
unknown or malformed command-line arguments, degenerate ground state, out
of memory), 2 a failed guaranteed check.  The library returns every
check as a report; the subcommand that reads a failed report prints it
and returns 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bounds import (
    GroundState,
    chebyshev_tail_bound,
    best_s,
    theorem1_bound,
    theorem2_bound,
    write_bound_csv,
    write_envelope_csv,
)
from .errors import EnvelopeViolation, GapboundError, ValidationError
from .eigensolver import lowest_two, write_spectrum
from .fuzz import FAMILIES, FuzzConfig, run_fuzz
from .lattice import assemble, check_nearest_neighbor, fit_envelope
from .localization import fit_localization_length, write_fit_csv, write_profile_csv
from .modelfile import load_model
from .svgplot import emit_plot
from .sweep import (
    _H0_MAX,
    _H0_MIN,
    _H0_POINTS,
    SweepConfig,
    default_h0_grid,
    read_sweep_csv,
    run_sweep,
)
from .textfile import read_text


def _solve_pipeline(args):
    spec = load_model(args.model)
    result = lowest_two(assemble(spec))
    return spec, result, GroundState.of(result.psi0, spec)


def cmd_solve(args) -> int:
    spec, result, state = _solve_pipeline(args)
    print(f"model: {spec.label or args.model} (L={spec.length}, N0={spec.n0}, dim={spec.dim})")
    print(f"E0   = {result.e0:.12g}   (residual {result.residual0:.3e})")
    print(f"E1   = {result.e1:.12g}   (residual {result.residual1:.3e})")
    print(f"gap  = {result.gap:.12g}")
    print(f"<x>  = {state.stats.mean:.12g}")
    print(f"var  = {state.stats.variance:.12g}   (deltaX = {state.stats.delta_x:.12g})")
    if args.spectrum_out:
        write_spectrum(result, args.spectrum_out)
        print(f"spectrum written to {args.spectrum_out}")
    if args.profile_out:
        write_profile_csv(state.profile, args.profile_out)
        print(f"density profile written to {args.profile_out}")
    return 0


def cmd_bounds(args) -> int:
    spec, result, state = _solve_pipeline(args)
    delta_x = state.stats.delta_x
    print(f"model: {spec.label or args.model}  gap={result.gap:.6g}  deltaX={delta_x:.6g}")

    fit = fit_localization_length(state.profile, center=args.center)
    if fit.ok:
        print(
            f"density decay fit: xi_fit={fit.xi_fit:.6g} (r^2={fit.r_squared:.6g}, "
            f"window {fit.window[0]:.3g}..{fit.window[1]:.3g}, center={fit.center:g})"
        )
    else:
        print(f"density decay fit unavailable: {fit.reason}")

    envelope = fit_envelope(spec, args.mu)
    print(f"fitted hopping envelope: cv={envelope.cv:.6g}, mu={envelope.mu:g}")
    b1 = theorem1_bound(envelope, result.gap, args.s, delta_x)
    bounds = [b1]
    print(
        f"theorem1: xi1={b1.xi:.6g}, r1={b1.r1:.6g}, prefactor={b1.prefactor:.6g}, "
        f"c1={b1.amplitude:.6g}"
    )
    try:
        nn = check_nearest_neighbor(spec)
        b2 = theorem2_bound(nn.v0, result.gap, args.s, delta_x)
        bounds.append(b2)
        print(f"theorem2: xi2={b2.xi:.6g}, r1={b2.r1:.6g}, prefactor={b2.prefactor:.6g}")
    except EnvelopeViolation:
        b2 = None
        print("theorem2: not applicable (hopping beyond nearest neighbors)")

    checks = []
    failed = 0
    r_max = float(state.steps[0][-1])  # the farthest site's distance from <x>
    for b in bounds:
        chk = state.check(b)
        checks.append((b, chk))
        n_bad = int(chk.violations.size)
        failed += n_bad
        note = "" if chk.r_grid.size else (
            f" (onset r1={b.r1:.6g} lies beyond the farthest site, {r_max:.6g} "
            "from <x>: nothing was checked)"
        )
        print(
            f"envelope check [{b.kind}]: {chk.r_grid.size} radii, "
            f"{n_bad} violation(s){note}"
        )

    # toolkit convenience, not a claim: pointwise minimum with the power law
    probes = sorted({min(b1.r1 + b1.xi, r_max), r_max})
    for r_probe in probes:
        if r_probe <= max(b1.r1, 0.0):
            continue
        cheb = chebyshev_tail_bound(envelope, spec.length, result.gap, r_probe)
        vals = {"chebyshev": cheb, "theorem1": b1.evaluate(r_probe)}
        if b2 is not None and r_probe >= b2.r1:
            vals["theorem2"] = b2.evaluate(r_probe)
        best_kind = min(vals, key=vals.get)
        joined = ", ".join(f"{k}={v:.3e}" for k, v in vals.items())
        print(f"combined bound at R={r_probe:.4g}: min is {best_kind} ({joined})")

    if args.scan_s is not None:
        s_opt, b_opt = best_s(envelope, result.gap, delta_x, args.scan_s)
        print(f"s scan (theorem1) at R={args.scan_s:g}: best s={s_opt:.2f}, "
              f"bound={b_opt.evaluate(args.scan_s):.6g}")

    if args.out_prefix:
        write_bound_csv(bounds, f"{args.out_prefix}_bounds.csv")
        for b, chk in checks:
            write_envelope_csv(chk, f"{args.out_prefix}_envelope_{b.kind}.csv")
        if fit.ok:
            write_fit_csv(fit, f"{args.out_prefix}_fit.csv")
        print(f"reports written with prefix {args.out_prefix}")

    return 2 if failed else 0


# The sweep settings: config key (and flag, with "-" for "_"), type (the cast,
# and the JSON type: a float key takes integers too), help text, default.
_CONFIG_KEYS = {
    "L": (int, "chain length parameter (default {})", SweepConfig.L),
    "h0_min": (float, "strongest defect (default {:g})", _H0_MIN),
    "h0_max": (float, "weakest defect (default {:g})", _H0_MAX),
    "points": (int, "grid points (default {})", _H0_POINTS),
    "s": (float, "bound parameter (default {:g})", SweepConfig.s),
    "mu": (float, "envelope decay rate (default {:g})", SweepConfig.mu),
    "out": (str, "output CSV path (default {})", SweepConfig.output_path),
}


def _config_value(key: str, value):
    """``value`` cast to the type of the config key ``key``; refused if not of it."""
    kind = _CONFIG_KEYS[key][0]
    ok = (int, float) if kind is float else kind
    try:
        if isinstance(value, ok) and not isinstance(value, bool) and value != "":
            return kind(value)
    except OverflowError:  # a JSON integer too large for a float
        pass
    raise ValidationError(f"config key {key!r}: bad value {value!r}")


def _sweep_config(args) -> SweepConfig:
    cfg = {}
    if args.config:
        text = read_text(
            args.config, lambda no, reason: ValidationError(f"{args.config}, line {no}: {reason}")
        )
        try:
            cfg = json.loads(text)
        except ValueError as exc:
            raise ValidationError(f"{args.config} is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ValidationError(f"{args.config} must hold a JSON object")
        unknown = set(cfg) - set(_CONFIG_KEYS)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        # every value is converted, also one that a flag overrides
        cfg = {key: _config_value(key, value) for key, value in cfg.items()}

    def pick(key):
        flag = getattr(args, key)
        return flag if flag is not None else cfg.get(key, _CONFIG_KEYS[key][2])

    grid = default_h0_grid(points=pick("points"), lo=pick("h0_min"), hi=pick("h0_max"))
    return SweepConfig(
        L=pick("L"), h0_grid=grid, s=pick("s"), mu=pick("mu"), output_path=pick("out")
    )


def cmd_sweep(args) -> int:
    config = _sweep_config(args)
    rows = run_sweep(config)
    bad = sum(r.violations1 + r.violations2 for r in rows)
    finite_r2 = [r.fit_r_squared for r in rows if math.isfinite(r.fit_r_squared)]
    print(f"sweep: {len(rows)} points, L={config.L}, s={config.s:g} -> {config.output_path}")
    print(f"ratio1 in [{min(r.ratio1 for r in rows):.4g}, {max(r.ratio1 for r in rows):.4g}]")
    print(f"ratio2 in [{min(r.ratio2 for r in rows):.4g}, {max(r.ratio2 for r in rows):.4g}]")
    if finite_r2:
        print(f"fit r^2 in [{min(finite_r2):.6g}, {max(finite_r2):.6g}]")
    print(f"envelope violations: {bad}")
    print(
        "rows checked at no radius (onset beyond the farthest site): "
        f"theorem1 {sum(r.radii1 == 0 for r in rows)}, "
        f"theorem2 {sum(r.radii2 == 0 for r in rows)}"
    )
    if bad:
        print("invariant violation: a guaranteed envelope failed", file=sys.stderr)
        return 2
    return 0


def cmd_fuzz(args) -> int:
    config = FuzzConfig(
        seed=args.seed,
        trials=args.trials,
        size_range=(args.min_size, args.max_size),
        n0_range=(args.min_n0, args.max_n0),
        family=args.family,
    )
    report = run_fuzz(config)
    print(report.format(), end="")
    if report.failures:
        i, problems = report.first_failure
        print(
            f"invariant violation: fuzz trial {i} failed (seed={config.seed}, "
            f"family={config.family}): {problems}; reproduce with seed={config.seed}, "
            f"trial index {i}",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_plot(args) -> int:
    rows = read_sweep_csv(args.csv)
    emit_plot(rows, args.out)
    print(f"plot written to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1: exit 2 means a failed guarantee."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gapbound",
        description="Spectral gaps and localization bounds for one-particle lattice models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    model_help = "model file (see README for the format)"

    p = sub.add_parser("solve", help="diagonalize a model and report ground-state statistics")
    p.add_argument("model", help=model_help)
    p.add_argument("--spectrum-out", help="write the full spectrum to this file")
    p.add_argument("--profile-out", help="write the density profile CSV to this file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bounds", help="evaluate and verify localization bounds for a model")
    p.add_argument("model", help=model_help)
    p.add_argument("--s", type=float, default=0.5, help="bound parameter in (0,1), default 0.5")
    p.add_argument("--mu", type=float, default=1.0, help="envelope decay rate for the fit")
    p.add_argument("--center", type=float, default=None,
                   help="decay-fit center (default: density maximum)")
    p.add_argument("--scan-s", type=float, default=None, metavar="R",
                   help="also report the envelope-minimizing s at radius R")
    p.add_argument("--out-prefix", default=None, help="write bound/envelope/fit CSV reports")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="run the impurity-chain tightness sweep")
    for key, (cast, text, default) in _CONFIG_KEYS.items():
        p.add_argument(f"--{key.replace('_', '-')}", type=cast, help=text.format(default))
    p.add_argument("--config", default=None, help="JSON config file; flags override it")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fuzz", help="fuzz the certified-inequality suite")
    p.add_argument("--seed", type=int, default=FuzzConfig.seed)
    p.add_argument("--trials", type=int, default=FuzzConfig.trials)
    p.add_argument("--family", choices=FAMILIES, default=FuzzConfig.family)
    p.add_argument("--min-size", type=int, default=FuzzConfig.size_range[0])
    p.add_argument("--max-size", type=int, default=FuzzConfig.size_range[1])
    p.add_argument("--min-n0", type=int, default=FuzzConfig.n0_range[0])
    p.add_argument("--max-n0", type=int, default=FuzzConfig.n0_range[1])
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("plot", help="render a sweep CSV as a two-panel SVG")
    p.add_argument("csv", help="sweep CSV produced by the sweep subcommand")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GapboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
