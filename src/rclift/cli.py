"""Command-line front end.

Subcommands: validate, solve, nehari, verify, gen, suite.  Instances,
parameters, and solutions are JSON (complex entries as [re, im] pairs);
reports are canonical JSON (sorted keys, fixed float formatting), so a
report is byte-stable for a fixed seed and version.  Timings go to
stderr only.

Exit codes: 0 pass, 1 constraint or verification failure, 2 I/O or
schema error, 3 hypothesis violation (strictness), 4 generator failure.
The default verification tolerance is 1e-6 and the default truncation
degree 64; RCLIFT_TOL overrides the tolerance default.

Every residual row carries the threshold its gate used.  The norm rows
of solve and verify (`stacked_norm`, `combined_operator_norm`) measure a
solution truncated at the degree (for verify, the smaller of `--degree`
and the stored degree, for either problem kind), which bounds the full
norm from below, so their gate is the plain `1 + tol`: a value above it
refutes the solution, and a value at or below it means "not refuted",
not certified.  No value read from the solution file enters a
threshold, and a `tail_bound` key that older solution files carry is
ignored.  Certified verdicts need tails the verifier computes itself,
which wait on the exact tail certificates planned in ROADMAP.md.

The `nehari` report truncates nothing, so it does not depend on
`--degree`, which it accepts and ignores.  Its `stacked_isometry_residual`
row is the certified residual of the identities that make the full
stacked operator an isometry (`nehari.hat_m_check`, from the exact Stein
Gramian), gated at FP_GRAM_TOL; it passes only when the
certificate is "certified", and reads null when the state matrix is not
stable.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__, generators, hardy, lifting, nehari, redheffer, schur, serialize
from .errors import (
    DimensionMismatch,
    EmptySolutionSpace,
    NotStrict,
    ParseError,
    RcliftError,
)
from .linalg import adj, eye, min_eig_hermitian, operator_norm
from .redheffer import FP_GRAM_TOL
from .suite import SuiteConfig, run_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_HYPOTHESIS = 3
EXIT_GENERATOR = 4

DEFAULT_DEGREE = 64
DEFAULT_TOL = 1e-6


def _default_tol(fallback: float = DEFAULT_TOL) -> float:
    env = os.environ.get("RCLIFT_TOL")
    if env is None:
        return fallback
    try:
        return float(env)
    except ValueError as exc:
        raise ParseError(f"RCLIFT_TOL={env!r} is not a number") from exc


def _row(name: str, value: float, threshold: float, passed: bool | None = None) -> dict:
    if passed is None:
        passed = bool(value <= threshold)
    return {"name": name, "value": float(value), "threshold": float(threshold),
            "passed": bool(passed)}


def _emit(args, document: dict) -> None:
    text = serialize.canonical_json(document)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_instance(path: str):
    return serialize.instance_from_json(serialize.load_json(path))


def _instance_digest(obj) -> dict:
    if isinstance(obj, nehari.NehariProblem):
        return {"kind": "nehari", "N": obj.n_window, "u_dim": obj.u_dim,
                "y_dim": obj.y_dim, "k_taps": obj.k_taps}
    return {"kind": "lifting", "dim_h": obj.dim_h, "dim_h_prime": obj.dim_h_prime,
            "dim_h0": obj.dim_h0}


def _validation_rows(ds: lifting.LiftingDataSet, tol: float) -> tuple[list[dict], bool]:
    report = lifting.validate(ds, tol=tol)
    rows = [
        _row(r.name, r.value, r.threshold, r.passed) for r in report.rows
    ]
    s = report.strictness
    rows.append(_row("strictness_norm_a", s.norm_a, 1.0 - lifting.STRICT_DELTA))
    sig_r = s.sigma_min_r if np.isfinite(s.sigma_min_r) else 1.0
    rows.append(
        _row("strictness_sigma_min_r", sig_r, lifting.STRICT_DELTA,
             sig_r >= lifting.STRICT_DELTA)
    )
    return rows, report.passed


def cmd_validate(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol(1e-8)
    obj = _load_instance(args.input)
    rows = []
    if isinstance(obj, nehari.NehariProblem):
        a = nehari.hankel(obj)
        rows.append(_row("hankel_contraction", operator_norm(a), 1.0 + tol))
        gram_min = min_eig_hermitian(nehari.gram(obj))
        rows.append(
            _row("strictness_gram_min_eig", gram_min, nehari.GRAM_MIN_EIG,
                 gram_min >= nehari.GRAM_MIN_EIG)
        )
        ds = nehari.to_lifting_data(obj)
    else:
        ds = obj
    lifting_rows, passed = _validation_rows(ds, tol)
    rows.extend(lifting_rows)
    ok = passed and all(
        r["passed"] for r in rows if not r["name"].startswith("strictness")
    )
    _emit(args, {
        "command": "validate",
        "instance": _instance_digest(obj),
        "residuals": rows,
        "passed": ok,
    })
    return EXIT_PASS if ok else EXIT_FAIL


def _load_parameter(args, in_dim: int, out_dim: int) -> schur.SchurParameter:
    if args.central:
        return schur.zero(in_dim, out_dim)
    if not args.param:
        raise ParseError("need --param FILE or --central")
    v = serialize.parameter_from_json(serialize.load_json(args.param))
    if (v.in_dim, v.out_dim) != (in_dim, out_dim):
        raise DimensionMismatch(
            f"parameter is {v.out_dim}x{v.in_dim}, "
            f"this instance needs {out_dim}x{in_dim}"
        )
    return v


def _solution_rows(obj, sol, deg: int, tol: float) -> tuple[list[dict], bool]:
    """Residual rows of a solution against its instance, and the verdict."""
    if isinstance(obj, nehari.NehariProblem):
        rep = nehari.assemble_l(obj, sol)
        return [_row("combined_operator_norm", rep.sigma_max, 1.0 + tol)], rep.accepted(tol)
    rep = hardy.verify_interpolant(obj, sol, deg, tol=tol)
    return [
        _row("projection_onto_target", rep.projection_residual, tol),
        _row("dilation_intertwining", rep.intertwining_residual, tol),
        _row("stacked_norm", rep.sigma_max, 1.0 + tol),
    ], rep.passed


def cmd_solve(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol()
    obj = _load_instance(args.input)
    deg = args.degree
    is_nehari = isinstance(obj, nehari.NehariProblem)
    if is_nehari:
        rc = nehari.coefficients(obj)
        sol = nehari.solve_h(rc, _load_parameter(args, rc.kq_dim, rc.w_dim), deg)
    else:
        dd = lifting.derive(obj)
        dd.require_strict()
        rc = redheffer.build_coefficients(dd)
        sol = redheffer.solution_taylor(rc, _load_parameter(args, rc.kq_dim, rc.w_dim), deg)
    rows, ok = _solution_rows(obj, sol, deg, tol)
    if is_nehari:
        rows.append(_row("state_spectral_radius", rc.r_spec_x1, 1.0, rc.r_spec_x1 < 1.0))
    report = {
        "command": "solve",
        "instance": _instance_digest(obj),
        "residuals": rows,
        "degree": deg,
        "passed": ok,
    }
    if is_nehari:
        _emit(args, serialize.nehari_solution_to_json(sol, rows[0]["value"], report))
    else:
        _emit(args, serialize.lifting_solution_to_json(sol, report))
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_verify(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol()
    obj = _load_instance(args.input)
    sol_doc = serialize.load_json(args.solution)
    if isinstance(obj, nehari.NehariProblem):
        sol = serialize.nehari_solution_from_json(sol_doc, obj.u_dim, obj.y_dim)
        sol = hardy.TaylorSeries(sol.coeffs[: args.degree + 1])
    else:
        sol = serialize.lifting_solution_from_json(sol_doc)
    deg = min(args.degree, sol.degree)
    rows, ok = _solution_rows(obj, sol, deg, tol)
    _emit(args, {
        "command": "verify",
        "instance": _instance_digest(obj),
        "residuals": rows,
        "passed": ok,
    })
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_nehari(args) -> int:
    obj = _load_instance(args.input)
    if not isinstance(obj, nehari.NehariProblem):
        raise ParseError("the nehari subcommand needs a problem of kind 'nehari'")
    nc = nehari.coefficients(obj)
    a = nehari.hankel(obj)
    gram_vs_hankel = operator_norm(
        nc.lam - (eye(a.shape[1]) - adj(a) @ a)
    )
    inv_res = operator_norm(nc.lam @ nc.lam_cross - eye(nc.lam.shape[0]))
    cert = nehari.hat_m_check(nc, args.degree)
    rows = [
        _row("hankel_norm", operator_norm(a), 1.0),
        _row("gram_matches_hankel", gram_vs_hankel, 1e-10),
        _row("gram_inverse", inv_res, 1e-9),
        _row("state_spectral_radius", nc.r_spec_x1, 1.0, nc.r_spec_x1 < 1.0),
        _row("stacked_isometry_residual", cert.residual, FP_GRAM_TOL,
             cert.status == "certified"),
    ]
    ok = all(r["passed"] for r in rows)
    _emit(args, {
        "command": "nehari",
        "instance": _instance_digest(obj),
        "residuals": rows,
        "passed": ok,
    })
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_gen(args) -> int:
    dims = tuple(int(d) for d in args.dims.split(","))
    if args.kind == "nehari":
        if len(dims) != 4:
            raise ParseError("nehari generation needs --dims u,y,N,K")
        u, y, n_w, k = dims
        rng = np.random.default_rng(args.seed)
        p = generators.random_nehari_problem(rng, u, y, n_w, k, args.norm)
        _emit(args, serialize.instance_to_json(p))
        return EXIT_PASS
    ds = generators.generate_random(args.kind, dims, args.norm, args.seed)
    _emit(args, serialize.instance_to_json(ds))
    return EXIT_PASS


def cmd_suite(args) -> int:
    cfg = SuiteConfig(base=args.seeds, degree=args.degree)
    t0 = time.time()
    report, results = run_suite(cfg)
    for r in results:
        print(r.summary_line(), file=sys.stderr)
    print(f"suite total {time.time() - t0:.1f}s", file=sys.stderr)
    report["command"] = "suite"
    report["version"] = __version__
    _emit(args, report)
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rclift",
        description=(
            "Construct and verify linear fractional solution descriptions "
            "for relaxed commutant lifting and relaxed Nehari extension "
            "problems with finite matrix data."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol_default_doc="1e-6"):
        p.add_argument("--tol", type=float, default=None,
                       help=f"tolerance (default {tol_default_doc}; "
                            "RCLIFT_TOL overrides)")
        p.add_argument("--degree", type=int, default=DEFAULT_DEGREE,
                       help="truncation degree (default 64)")
        p.add_argument("--out", help="write the JSON document here instead of stdout")

    p = sub.add_parser("validate", help="check the defining constraints of an instance")
    p.add_argument("input")
    common(p, "1e-8")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="produce a solution for a Schur parameter")
    p.add_argument("input")
    p.add_argument("--param", help="JSON Schur parameter file")
    p.add_argument("--central", action="store_true",
                   help="use the zero parameter (central solution)")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="verify a stored solution against an instance")
    p.add_argument("input")
    p.add_argument("solution")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("nehari", help="derived-operator report for a Nehari problem")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_nehari)

    p = sub.add_parser("gen", help="generate a random valid instance")
    p.add_argument("--kind", required=True,
                   choices=("nehari",) + generators.KINDS)
    p.add_argument("--dims", required=True,
                   help="comma-separated dims: u,y,N,K (nehari/nehari-like), "
                        "h,h' (classical-like), h,h',h0 (generic)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--norm", type=float, default=0.8,
                   help="target norm of the interpolation data (default 0.8)")
    p.add_argument("--out", help="write the instance here instead of stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("suite", help="run the full acceptance matrix")
    p.add_argument("--seeds", type=int, default=50,
                   help="instance-count base; 50 is the full matrix, 1 is fast")
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE)
    p.add_argument("--out", help="write the aggregate report here instead of stdout")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "degree", 0) < 0:
            raise ParseError("--degree must be nonnegative")
        return args.func(args)
    except (ParseError, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NotStrict as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except EmptySolutionSpace as exc:
        print(f"generator failure: {exc}; retry with another seed", file=sys.stderr)
        return EXIT_GENERATOR
    except RcliftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
