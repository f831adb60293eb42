"""Command-line front end.

Commands: psi | bound | distance | modulus | alpha | convexity | corrector |
witness | verify.  Numeric ranges accept ``a:b:step`` (inclusive of both ends
within 1e-12, at most 10,000 values) or a single value.  Identical
invocations produce byte-identical output.

Each command takes only the options it reads.  The sampling estimators
(distance, modulus, alpha, convexity, corrector) take ``--resolution``; the
table commands (psi, bound, modulus, alpha, convexity) take
``--format csv|json``, and distance, corrector and witness always print JSON.
Every command takes ``--output``.

Exit codes: 0 ok, 1 verification/search failure, 2 usage error, 3 numeric
regime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .closed_forms import (ModulusQuery, RegimeError, hilbert_distance, HilbertPair,
                           hilbert_modulus, nonsquare_phi_bound, phi_lower_bound,
                           phi_upper_bound, psi, real_line_distance)
from .moduli import (CorrectorSearchError, bpb_corrector, check_alpha_self_dual,
                     collapse_k, convexity_profile, estimate_alpha, estimate_phi,
                     estimate_phi_mut)
from .pi_set import EmptyConstraintError, SweepTooLargeError, distance_to_pi, pair_state
from .spaces import EstimatorConfig, Lp, NormedSpace, Sum1, SumInf, parse_space
from .verify import run_suite
from .witnesses import linf2_witness, real_witness, sum1_witness, suminf_witness

SCHEMA = "bpb/1"

_COLUMNS = {
    "psi": ["delta", "psi", "min_bound", "lower_bound", "note"],
    "bound": ["delta", "psi", "upper_bound", "lower_bound", "lower_exact",
              "nonsquare_bound", "note"],
    "modulus": ["delta", "estimate", "mesh_error", "sqrt_2delta", "closed_form",
                "note"],
    "alpha": ["space", "alpha", "mesh_error", "max_x", "max_y", "alpha_dual",
              "dual_mesh_error"],
    "convexity": ["eps", "delta_x", "mesh_error", "day_nordlander"],
}
# the commands that sample spheres, so read --resolution
_SAMPLED = ("distance", "modulus", "alpha", "convexity", "corrector")
# most values of one a:b:step range
_RANGE_MAX = 10_000


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"range must be 'value' or 'start:stop:step', got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise argparse.ArgumentTypeError("range step must be positive")
    if start > stop + 1e-12:
        raise argparse.ArgumentTypeError(
            f"range start must not exceed its stop, got {text!r}")
    if (stop + 1e-12 - start) / step >= _RANGE_MAX:
        raise argparse.ArgumentTypeError(
            f"range must have at most {_RANGE_MAX} values, got {text!r}")
    values = []
    v = start
    while v <= stop + 1e-12:
        values.append(round(v, 12))
        v = start + (len(values)) * step
    return values


def _parse_vector(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}") from exc


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # numpy's float64 too, which reprs as np.float64(...)
        return repr(float(value))
    return str(value)


def _emit(args, command: str, rows: list[dict], meta: dict) -> None:
    if args.format == "csv":
        cols = _COLUMNS[command]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in cols])
        text = buf.getvalue()
    else:
        payload = {"schema": SCHEMA, "command": command, **meta, "rows": rows}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write(args, text)


def _emit_json(args, command: str, payload: dict) -> None:
    body = {"schema": SCHEMA, "command": command, **payload}
    _write(args, json.dumps(body, sort_keys=True, indent=2) + "\n")


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _is_real_line(space: NormedSpace) -> bool:
    return isinstance(space, Lp) and space.dim == 1


def _is_plane_l2(space: NormedSpace) -> bool:
    return isinstance(space, Lp) and space.p == 2.0 and space.dim >= 2


def _is_one_d_sum(space: NormedSpace) -> bool:
    return (isinstance(space, (Sum1, SumInf)) and isinstance(space.a, Lp)
            and isinstance(space.b, Lp) and space.a.dim == 1 and space.b.dim == 1)


def _closed_form_modulus(space: NormedSpace, q: ModulusQuery) -> float | None:
    """Known exact modulus value, when one of the proved formulas applies."""
    try:
        if isinstance(space, Lp) and space.p == math.inf and space.dim == 2:
            return phi_upper_bound(q)
        if _is_plane_l2(space):
            ordered = q if q.mu >= q.theta else ModulusQuery(q.theta, q.mu, q.delta)
            return hilbert_modulus(ordered)
        if _is_one_d_sum(space) and q.regime_sum:
            return psi(q)
        if _is_real_line(space) and q.delta <= 1.0:
            return 1.0 - min(q.mu, q.theta)
    except RegimeError:
        return None
    return None


# ---------------------------------------------------------------------------
# Commands


def cmd_psi(args) -> int:
    rows = []
    for delta in args.delta:
        row = {"delta": delta, "note": ""}
        try:
            q = ModulusQuery(args.mu, args.theta, delta)
            row["psi"] = psi(q)
            row["min_bound"] = phi_upper_bound(q)
            row["lower_bound"] = phi_lower_bound(q).value
        except RegimeError as exc:
            row.update(psi=None, min_bound=None, lower_bound=None,
                       note=f"regime: {exc}")
        rows.append(row)
    _emit(args, "psi", rows, {"mu": args.mu, "theta": args.theta})
    return 0


def cmd_bound(args) -> int:
    rows = []
    for delta in args.delta:
        row = {"delta": delta, "note": "", "nonsquare_bound": None}
        try:
            q = ModulusQuery(args.mu, args.theta, delta)
            row["psi"] = psi(q)
            row["upper_bound"] = phi_upper_bound(q)
            lb = phi_lower_bound(q)
            row["lower_bound"] = lb.value
            row["lower_exact"] = lb.exact
        except RegimeError as exc:
            row.update(psi=None, upper_bound=None, lower_bound=None,
                       lower_exact=None, note=f"regime: {exc}")
        if args.alpha_tilde is not None:
            try:
                row["nonsquare_bound"] = nonsquare_phi_bound(delta, args.alpha_tilde)
            except RegimeError:
                row["nonsquare_bound"] = None
        rows.append(row)
    _emit(args, "bound", rows,
          {"mu": args.mu, "theta": args.theta, "alpha_tilde": args.alpha_tilde})
    return 0


def cmd_distance(args) -> int:
    space = parse_space(args.space)
    cfg = EstimatorConfig(resolution=args.resolution)
    pair = pair_state(space, args.x, args.f)
    witness = distance_to_pi(space, pair, cfg)
    closed = None
    if _is_real_line(space):
        closed = real_line_distance(float(pair.x[0]), float(pair.f[0]))
    elif _is_plane_l2(space) and max(pair.norm_x, pair.norm_f) <= 1.0 + 1e-9:
        closed = hilbert_distance(HilbertPair(pair.x, pair.f))
    _emit_json(args, "distance", {
        "space": space.describe(),
        "x": list(map(float, pair.x)),
        "f": list(map(float, pair.f)),
        "witness": witness.to_json_dict(),
        "closed_form": closed,
        "discrepancy": None if closed is None else abs(witness.distance - closed),
    })
    return 0


def cmd_modulus(args) -> int:
    space = parse_space(args.space)
    cfg = EstimatorConfig(resolution=args.resolution)
    rows = []
    for delta in args.delta:
        row = {"delta": delta, "note": ""}
        try:
            if args.mode == "mut":
                q = ModulusQuery(args.mu, args.theta, delta)
                est = estimate_phi_mut(space, q, cfg)
                row["closed_form"] = _closed_form_modulus(space, q)
            else:
                est = estimate_phi(space, delta, args.mode, cfg)
                q = ModulusQuery(1.0, 1.0, delta)
                row["closed_form"] = (_closed_form_modulus(space, q)
                                      if args.mode == "sphere" else None)
            row["estimate"] = est.value
            row["mesh_error"] = est.mesh_error
            row["sqrt_2delta"] = math.sqrt(2.0 * delta)
        except SweepTooLargeError:
            raise  # no delta can run at this resolution
        except (RegimeError, EmptyConstraintError, ValueError) as exc:
            row.update(estimate=None, mesh_error=None,
                       sqrt_2delta=math.sqrt(2.0 * delta), closed_form=None,
                       note=f"error: {exc}")
        rows.append(row)
    meta = {"space": space.describe(), "mode": args.mode,
            "mu": args.mu, "theta": args.theta}
    _emit(args, "modulus", rows, meta)
    return 0


def cmd_alpha(args) -> int:
    space = parse_space(args.space)
    cfg = EstimatorConfig(resolution=args.resolution)
    if args.self_dual:
        rep, rep_dual = check_alpha_self_dual(space, cfg)
    else:
        rep, rep_dual = estimate_alpha(space, cfg), None
    row = {
        "space": args.space,
        "alpha": rep.alpha,
        "mesh_error": rep.mesh_error,
        "max_x": ",".join(repr(float(c)) for c in rep.maximizer[0]),
        "max_y": ",".join(repr(float(c)) for c in rep.maximizer[1]),
        "alpha_dual": None if rep_dual is None else rep_dual.alpha,
        "dual_mesh_error": None if rep_dual is None else rep_dual.mesh_error,
    }
    _emit(args, "alpha", [row], {"space": space.describe()})
    return 0


def cmd_convexity(args) -> int:
    space = parse_space(args.space)
    cfg = EstimatorConfig(resolution=args.resolution)
    reports = convexity_profile(space, args.eps, cfg)
    rows = [{
        "eps": r.eps,
        "delta_x": r.delta_x,
        "mesh_error": r.mesh_error,
        "day_nordlander": 1.0 - math.sqrt(max(0.0, 1.0 - r.eps ** 2 / 4.0)),
    } for r in reports]
    _emit(args, "convexity", rows, {"space": space.describe()})
    return 0


def cmd_corrector(args) -> int:
    space = parse_space(args.space)
    cfg = EstimatorConfig(resolution=args.resolution)
    pair = pair_state(space, args.x, args.f)
    k = args.k if args.k is not None else collapse_k(args.delta, args.alpha_tilde)
    try:
        result = bpb_corrector(space, pair, args.delta, k, args.alpha_tilde, cfg)
    except CorrectorSearchError as exc:
        sys.stderr.write(f"corrector search failed: {exc}\n")
        return 1
    _emit_json(args, "corrector", {
        "space": space.describe(),
        "delta": args.delta,
        "k": k,
        "alpha_tilde": args.alpha_tilde,
        "bounds": {"x": args.delta / k,
                   "f": 2.0 * k - (2.0 / 3.0) * k * args.alpha_tilde},
        "witness": result.witness.to_json_dict(),
        "slack_x": result.slack_x,
        "slack_f": result.slack_f,
    })
    return 0


def cmd_witness(args) -> int:
    q = ModulusQuery(args.mu, args.theta, args.delta)
    if args.family == "linf2":
        pair, predicted = linf2_witness(q)
        space = Lp(math.inf, 2)
    elif args.family == "real":
        pair, predicted = real_witness(q)
        space = Lp(2.0, 1)
    else:
        a = parse_space(args.component_a)
        b = parse_space(args.component_b)
        if args.family == "sum1":
            pair, predicted = sum1_witness(a, b, q)
            space = Sum1(a, b)
        else:
            pair, predicted = suminf_witness(a, b, q)
            space = SumInf(a, b)
    _emit_json(args, "witness", {
        "family": args.family,
        "query": {"mu": args.mu, "theta": args.theta, "delta": args.delta},
        "space": space.describe(),
        "x": list(map(float, pair.x)),
        "f": list(map(float, pair.f)),
        "norm_x": pair.norm_x,
        "norm_f": pair.norm_f,
        "action": pair.action,
        "predicted_distance": predicted,
    })
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, args.resolution)
    failures = [r for r in results if not r.passed]
    if args.format == "json":
        payload = {"suite": args.suite, "passed": not failures,
                   "checks": [{"name": r.name, "passed": r.passed,
                               "measured": r.measured, "bound": r.bound,
                               "slack": r.slack, "detail": r.detail}
                              for r in results]}
        _emit_json(args, "verify", payload)
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            extra = f"  [{r.detail}]" if r.detail else ""
            lines.append(f"{status} {r.name}: measured={r.measured:.3e} "
                         f"bound={r.bound:.3e} slack={r.slack:.3e}{extra}")
        lines.append(f"{'OK' if not failures else 'FAILED'}: "
                     f"{len(results) - len(failures)}/{len(results)} checks passed")
        _write(args, "\n".join(lines) + "\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(p: argparse.ArgumentParser, command: str) -> None:
    """The shared options that ``command`` reads."""
    if command in _SAMPLED:
        p.add_argument("--resolution", type=int, default=400,
                       help="sphere samples per dimension (default 400)")
    p.add_argument("--output", default=None, help="output file (default stdout)")
    if command in _COLUMNS:  # the tables of _emit
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="table format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpbmod",
        description="Almost-attainment moduli of finite-dimensional normed spaces.",
        epilog="CSV column orders are fixed: "
               + "; ".join(f"{k}: {','.join(v)}" for k, v in _COLUMNS.items()))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="sharp bound function over a delta range")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--delta", type=_parse_range, required=True)
    _add_common(p, "psi")
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("bound", help="upper/lower modulus bounds over a delta range")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--delta", type=_parse_range, required=True)
    p.add_argument("--alpha-tilde", type=float, default=None,
                   help="include the non-square spherical bound column")
    _add_common(p, "bound")
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("distance", help="distance of a pair to the attainment set")
    p.add_argument("--space", required=True)
    p.add_argument("--x", type=_parse_vector, required=True)
    p.add_argument("--f", type=_parse_vector, required=True)
    _add_common(p, "distance")
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("modulus", help="grid modulus estimate over a delta range")
    p.add_argument("--space", required=True)
    p.add_argument("--mode", choices=("ball", "sphere", "mut"), required=True)
    p.add_argument("--delta", type=_parse_range, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=1.0)
    _add_common(p, "modulus")
    p.set_defaults(fn=cmd_modulus)

    p = sub.add_parser("alpha", help="non-squareness parameter estimate")
    p.add_argument("--space", required=True)
    p.add_argument("--self-dual", action="store_true",
                   help="also estimate the dual space")
    _add_common(p, "alpha")
    p.set_defaults(fn=cmd_alpha)

    p = sub.add_parser("convexity", help="modulus of convexity over an eps range")
    p.add_argument("--space", required=True)
    p.add_argument("--eps", type=_parse_range, required=True)
    _add_common(p, "convexity")
    p.set_defaults(fn=cmd_convexity)

    p = sub.add_parser("corrector", help="attainment pair meeting both corrector bounds")
    p.add_argument("--space", required=True)
    p.add_argument("--x", type=_parse_vector, required=True)
    p.add_argument("--f", type=_parse_vector, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--k", type=float, default=None,
                   help="step size (default: balance both bounds)")
    p.add_argument("--alpha-tilde", type=float, required=True)
    _add_common(p, "corrector")
    p.set_defaults(fn=cmd_corrector)

    p = sub.add_parser("witness", help="extremal pair construction")
    p.add_argument("--family", choices=("linf2", "sum1", "suminf", "real"),
                   required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--component-a", default="r:1")
    p.add_argument("--component-b", default="r:1")
    _add_common(p, "witness")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("sharpness", "hilbert", "alpha",
                                       "nonsquare", "all"), required=True)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (RegimeError, EmptyConstraintError) as exc:
        sys.stderr.write(f"regime error: {exc}\n")
        return 3
    except ValueError as exc:  # SpaceError, config validation, preconditions
        sys.stderr.write(f"usage error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
