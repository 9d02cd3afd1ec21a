"""Command-line front end.

Subcommands: validate, solve, nehari, verify, gen, suite.  Instances,
parameters, and solutions are JSON: their matrices are written packed, as
base64 of complex128 bytes, except the coefficient lists (lifting
Gamma_k, Nehari taps and H_k), which stay decimal [re, im] pairs, and
the readers take either spelling (see `serialize`).  Reports are
canonical JSON (sorted keys, shortest round-trip floats; see
`serialize`), so a report is byte-stable for a fixed seed, version and
BLAS thread count.  Across BLAS thread counts only the suite report and
`gen --kind generic` are tested byte-identical; threaded BLAS may round
other outputs, such as Nehari instances and what is computed from them,
differently in their last digits.
Timings go to stderr only.  A file that is not strict JSON in UTF-8
exits 2 with an error naming it.

`main` builds the parser of the invoked subcommand alone when the first
argument names one (`COMMANDS`), and of all six otherwise (no arguments,
`-h`, `--version`, an unknown name).  An installed `rclift` runs one
process per command, and building the `ArgumentParser`s of all six costs
about three times as much as building one (0.7 ms against 0.2 ms on a
2-core x86-64 VM), near a tenth of a lifting solve or verify of size
(40, 30, 20).  argparse hands the rest of the arguments to that one
subparser either way, so every output, exit code and help text is the
same; the top-level usage that an "unrecognized arguments" error prints
still lists every command, through the subparsers' metavar.

Exit codes: 0 pass, 1 constraint or verification failure, 2 I/O,
schema or usage error (such as `gen --dims` the family cannot take, a
negative `--degree`, or a `--tol` that is not finite and nonnegative),
3 hypothesis violation (strictness), 4 generator failure.
The default tolerance is 1e-6 (1e-8 for `validate`) and the default
truncation degree 64.

Every report lists one residual row per gate (`lifting.Verdict`): the
quantity the gate decides lies in [`lower`, `value`], and `threshold` is
the limit it is held to, from above, or from below for the rows
`defect_ordering`, `strictness_sigma_min_r` and
`strictness_gram_min_eig`.  An exact value has `lower` = `value`; a
truncated check bounds its quantity from below only, so its `value` is
null (no upper end).  The row's `status` is "certified" when every point
of the range keeps the threshold, "refuted" when none does, and
"uncertified" otherwise, and `passed` is `status` == "certified".  The
solve and verify reports carry a `certificate`, the status of their rows
together: "refuted" when a row is, "certified" when every row is,
"uncertified" otherwise.  Exit code 1 means refuted; certified and
uncertified both exit 0.  Uncertified gets no exit code of its own while
Nehari solutions are coefficient files, which can never be certified.
`validate` passes when its four constraint rows are certified; its
strictness rows report the margins that `solve` needs (exit code 3
there): `strictness_norm_a` and `strictness_sigma_min_r` on a lifting
instance, `strictness_gram_min_eig`, the gate of `nehari.coefficients`,
on a Nehari one.

A lifting solution written by `solve` is a state-space realization, and
`hardy.certify_interpolant` checks it exactly: each row's `value` is an
upper bound on the full, untruncated residual (`stacked_norm` on the
norm of the whole solution), and `lower` a floor of it, at least that of
the part that needs no Gramian.  Both come from one assembly over
a bound on the Gramian of the tail: the storage inequality of the
realization, with no Stein solve (a solution that `solve` writes is in
storage coordinates, where that bound on `stacked_norm` is about 1, a
looser `value` than the norm itself), or a Stein Gramian.  Every end is
widened both ways by the rounding of forming its matrices, Grams and
norms, so `lower` never lies above the exact value of the matrices
given.  A row whose two ends straddle its threshold is uncertified.  The
realization expanded to `--degree` coefficients and checked as a
coefficient file is the last candidate; `lifting.decide` says whose rows
are reported.

A coefficient file (a lifting solution without `tail`, or any Nehari
solution) is checked truncated at the smaller of `--degree` and the
stored degree.  Truncation bounds the full norm and residuals from
below, so the rows `dilation_intertwining`, `stacked_norm` and
`combined_operator_norm` have only a `lower` end: one above its
threshold (`1 + tol` for the norm rows) refutes the solution, and rows
within it are uncertified, never certified; that `lower` is a floor too,
the computed norm taken down by the rounding of its SVD or Gram and of
forming its rows.  `projection_onto_target` has both ends in either
check: the computed norm of a_part - A, widened by the rounding of that
difference and of its SVD.  A Nehari solution file records its
`combined_operator_norm` lower end as `sigma_max`.  No value read from
the solution file enters a threshold, and a `tail_bound` key that older
solution files carry is ignored.  Coefficients that overflow floating
point, in a lifting realization's expansion or in a coefficient file of
either problem, end `verify` with an error, exit code 1, and no report.

The `nehari` report truncates nothing, so it does not depend on
`--degree`, which it accepts and ignores, and it takes no `--tol`;
`validate` takes no `--degree`.  Its `hankel_norm` row brackets ||A||
with no SVD, from the Gram A*A that Lambda = I - A*A is formed from
(`linalg.Gram.root_of_max_eig`).  The rows `gram_matches_hankel` and
`gram_inverse` are brackets, not exact values: the norm of the computed
residual X (Lambda - (I - A*A), and Lambda Lambda^-1 - I) lies in
[||X||_F / sqrt(n), ||X||_F] for its n columns, each end widened for
the rounding of the Frobenius norm.  Its `stacked_isometry_residual` row
brackets the residual of the identities that make the full stacked
operator an isometry (`nehari.hat_m_check`), gated at FP_GRAM_TOL, from
a bound on the Gramian of the realization: the storage bound, with no
Stein solve, which decides every realization that `nehari` builds away
from the strictness boundary, or the Stein Gramian, as `lifting.decide`
picks.  Its `state_spectral_radius` row is no eigenvalue: its `value` is
the spectral-radius bound of the Gramian bound whose rows stand, and
null when no bound proves the state matrix stable.  The report passes
when every row is certified.
"""

from __future__ import annotations

import argparse
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
from .linalg import adj, eye, frobenius_bracket, inv_hpd, min_eig_hermitian
from .suite import SuiteConfig, run_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_HYPOTHESIS = 3
EXIT_GENERATOR = 4

DEFAULT_DEGREE = 64
DEFAULT_TOL = 1e-6


def _rows(verdicts) -> list[dict]:
    """One residual row per verdict (see the module docstring)."""
    return [
        {"name": v.name, "value": float(v.upper), "lower": float(v.lower),
         "threshold": float(v.threshold), "passed": v.status == "certified",
         "status": v.status}
        for v in verdicts
    ]


def _emit(args, document: dict) -> None:
    if getattr(args, "out", None):
        serialize.dump_json(args.out, document)
    else:
        sys.stdout.write(serialize.canonical_json(document))


def _load_instance(path: str):
    return serialize.instance_from_json(serialize.load_json(path))


def _instance_digest(obj) -> dict:
    if isinstance(obj, nehari.NehariProblem):
        return {"kind": "nehari", "N": obj.n_window, "u_dim": obj.u_dim,
                "y_dim": obj.y_dim, "k_taps": obj.k_taps}
    return {"kind": "lifting", "dim_h": obj.dim_h, "dim_h_prime": obj.dim_h_prime,
            "dim_h0": obj.dim_h0}


def cmd_validate(args) -> int:
    obj = _load_instance(args.input)
    if isinstance(obj, nehari.NehariProblem):
        constraints, _ = lifting.validate(nehari.to_lifting_data(obj), args.tol)
        strict = (lifting.Verdict.exact(
            "strictness_gram_min_eig", min_eig_hermitian(nehari.gram(obj)),
            nehari.GRAM_MIN_EIG, at_least=True),)
    else:
        constraints, strict = lifting.validate(obj, args.tol)
    ok = lifting.combined_status(constraints) == "certified"
    _emit(args, {
        "command": "validate",
        "instance": _instance_digest(obj),
        "residuals": _rows([*constraints, *strict]),
        "passed": ok,
    })
    return EXIT_PASS if ok else EXIT_FAIL


def _load_parameter(args, in_dim: int, out_dim: int) -> hardy.StateSpace:
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


def _solution_verdicts(obj, sol, deg: int, tol: float) -> tuple:
    """The verdicts on a solution against its instance."""
    if isinstance(obj, nehari.NehariProblem):
        sigma = nehari.assemble_l(obj, sol[: deg + 1])
        return (lifting.Verdict("combined_operator_norm", sigma, np.inf, 1.0 + tol),)
    if isinstance(sol, hardy.SolutionRealization):
        return hardy.certify_interpolant(obj, sol, deg, tol=tol)
    return hardy.verify_interpolant(obj, sol, min(deg, sol.degree), tol=tol)


def cmd_solve(args) -> int:
    obj = _load_instance(args.input)
    deg = args.degree
    is_nehari = isinstance(obj, nehari.NehariProblem)
    if is_nehari:
        rc = nehari.coefficients(obj)
        v = _load_parameter(args, rc.kq_dim, rc.w_dim)
        sol = redheffer.solution_taylor(rc, v, deg).gamma_coeffs
    else:
        rc = redheffer.build_coefficients(lifting.derive(obj))
        sol = redheffer.solution_realization(rc, _load_parameter(args, rc.kq_dim, rc.w_dim))
    verdicts = _solution_verdicts(obj, sol, deg, args.tol)
    status = lifting.combined_status(verdicts)
    ok = status != "refuted"
    report = {
        "command": "solve",
        "instance": _instance_digest(obj),
        "residuals": _rows(verdicts),
        "degree": deg,
        "certificate": status,
        "passed": ok,
    }
    if is_nehari:
        _emit(args, serialize.nehari_solution_to_json(sol, verdicts[0].lower, report))
    else:
        _emit(args, serialize.lifting_solution_to_json(sol, report))
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_verify(args) -> int:
    obj = _load_instance(args.input)
    sol_doc = serialize.load_json(args.solution)
    if isinstance(obj, nehari.NehariProblem):
        sol = serialize.nehari_solution_from_json(sol_doc, obj.u_dim, obj.y_dim)
    else:
        sol = serialize.lifting_solution_from_json(sol_doc)
    verdicts = _solution_verdicts(obj, sol, args.degree, args.tol)
    status = lifting.combined_status(verdicts)
    ok = status != "refuted"
    _emit(args, {
        "command": "verify",
        "instance": _instance_digest(obj),
        "residuals": _rows(verdicts),
        "certificate": status,
        "passed": ok,
    })
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_nehari(args) -> int:
    obj = _load_instance(args.input)
    if not isinstance(obj, nehari.NehariProblem):
        raise ParseError("the nehari subcommand needs a problem of kind 'nehari'")
    nc = nehari.coefficients(obj)
    a, lam = obj.a, nehari.gram(obj)
    gram_vs_hankel = frobenius_bracket(lam - (eye(a.shape[1]) - adj(a) @ a))
    inv_res = frobenius_bracket(lam @ inv_hpd(lam) - eye(lam.shape[0]))
    verdicts = (
        lifting.Verdict("hankel_norm", *obj.a_gram.root_of_max_eig(), 1.0),
        lifting.Verdict("gram_matches_hankel", *gram_vs_hankel, 1e-10),
        lifting.Verdict("gram_inverse", *inv_res, 1e-9),
        *nehari.hat_m_check(nc, args.degree),
    )
    ok = lifting.combined_status(verdicts) == "certified"
    _emit(args, {
        "command": "nehari",
        "instance": _instance_digest(obj),
        "residuals": _rows(verdicts),
        "passed": ok,
    })
    return EXIT_PASS if ok else EXIT_FAIL


# the --dims each generator family takes
GEN_DIMS = {"nehari": "u,y,N,K", "nehari-like": "u,y,N,K",
            "classical-like": "h,h'", "generic": "h,h',h0"}


def cmd_gen(args) -> int:
    names = GEN_DIMS[args.kind]
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError:
        raise ParseError(f"--dims {args.dims!r} is not a list of integers") from None
    if len(dims) != len(names.split(",")) or min(dims) < 0:
        raise ParseError(f"{args.kind} generation needs --dims {names}, "
                         f"nonnegative integers")
    try:
        if args.kind == "nehari":
            rng = np.random.default_rng(args.seed)
            obj = generators.nehari_problem_at_most(rng, *dims, args.norm)
        else:
            obj = generators.generate_random(args.kind, dims, args.norm, args.seed)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    _emit(args, serialize.instance_to_json(obj))
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


# the subcommands, in the order the full parser lists them
COMMANDS = ("validate", "solve", "verify", "nehari", "gen", "suite")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone (see `main`)."""
    parser = argparse.ArgumentParser(
        prog="rclift",
        description=(
            "Construct and verify linear fractional solution descriptions "
            "for relaxed commutant lifting and relaxed Nehari extension "
            "problems with finite matrix data."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    if command is None:
        built = COMMANDS
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        # the usage line of an "unrecognized arguments" error still lists
        # every command; the errors that would show this metavar in place
        # of the choices (none given, an unknown one) cannot occur here
        built = (command,)
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(COMMANDS) + "}")

    def tol_option(p, default=DEFAULT_TOL):
        p.add_argument("--tol", type=float, default=default,
                       help="tolerance (default %(default)g)")

    def degree_option(p, doc="truncation degree (default 64)"):
        p.add_argument("--degree", type=int, default=DEFAULT_DEGREE, help=doc)

    def out_option(p):
        p.add_argument("--out", help="write the JSON document here instead of stdout")

    if "validate" in built:
        p = sub.add_parser("validate", help="check the defining constraints of an instance")
        p.add_argument("input")
        tol_option(p, 1e-8)
        out_option(p)
        p.set_defaults(func=cmd_validate)

    if "solve" in built:
        p = sub.add_parser("solve", help="produce a solution for a Schur parameter")
        p.add_argument("input")
        p.add_argument("--param", help="JSON Schur parameter file")
        p.add_argument("--central", action="store_true",
                       help="use the zero parameter (central solution)")
        tol_option(p)
        degree_option(p)
        out_option(p)
        p.set_defaults(func=cmd_solve)

    if "verify" in built:
        p = sub.add_parser("verify", help="verify a stored solution against an instance")
        p.add_argument("input")
        p.add_argument("solution")
        tol_option(p)
        degree_option(p)
        out_option(p)
        p.set_defaults(func=cmd_verify)

    if "nehari" in built:
        p = sub.add_parser("nehari", help="derived-operator report for a Nehari problem")
        p.add_argument("input")
        degree_option(p, "accepted for compatibility and ignored: the report truncates "
                         "nothing")
        out_option(p)
        p.set_defaults(func=cmd_nehari)

    if "gen" in built:
        p = sub.add_parser("gen", help="generate a random valid instance")
        p.add_argument("--kind", required=True,
                       choices=tuple(GEN_DIMS))
        p.add_argument("--dims", required=True,
                       help="comma-separated dims: u,y,N,K (nehari/nehari-like), "
                            "h,h' (classical-like), h,h',h0 (generic)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--norm", type=float, default=0.8,
                       help="target norm of the interpolation data (default 0.8)")
        p.add_argument("--out", help="write the instance here instead of stdout")
        p.set_defaults(func=cmd_gen)

    if "suite" in built:
        p = sub.add_parser("suite", help="run the full acceptance matrix")
        p.add_argument("--seeds", type=int, default=50,
                       help="instance-count base; 50 is the full matrix, 1 is fast")
        p.add_argument("--degree", type=int, default=DEFAULT_DEGREE)
        p.add_argument("--out", help="write the aggregate report here instead of stdout")
        p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        if getattr(args, "degree", 0) < 0:
            raise ParseError("--degree must be nonnegative")
        if not 0.0 <= getattr(args, "tol", 0.0) < np.inf:
            raise ParseError("--tol must be finite and nonnegative")
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
