"""The benchmark's workloads: seeded inputs, operation sequences, output checks.

Every operation is one in-process ``rclift`` command-line call,
``rclift.cli.main(argv)``, on real instance, parameter and solution files,
so each one pays the same parsing, serialization and file costs as the
installed command while Python start-up stays out of the figures.

* ``suite50``: ``rclift suite --seeds 50``, the full acceptance matrix.
  Thousands of matrices of dimension <= 6, so per-call Python and LAPACK
  overhead dominates and nothing is serialized but the report.  The suite
  reads no input file: it generates its instances itself from its own
  fixed seed base, so the workload seed changes nothing on this workload.
  Set-up replays that generation (see `Suite50`).
* ``lift_cli``: one generic lifting instance (h, h', h0) = (40, 30, 20) at
  degree 128.  ``solve`` writes a 7 MB solution that ``verify`` reads back,
  so serialization and dense verification at high degree dominate, and
  generating the instance (a Kronecker null-space SVD) loads set-up.
* ``nehari_cli``: eight Nehari problems (u, y, N, K) = (8, 8, 16, 16) at
  degree 64.  Solutions are small; the ``rclift nehari`` report and its
  dense truncated M-hat, cubic in the degree, dominate.

Each instance gets three Schur parameters (the central one and random
certified ones with state dimension 0 and 3).  Each parameter gets a
``solve`` and a ``verify`` that must both exit 0; on ``nehari_cli`` each
instance also gets the derived-operator report, which does not depend on
the parameter.  Each instance also gets one ``verify`` of a forged
solution (one coefficient pushed out of the unit ball and a claimed
``tail_bound`` of 1000) that a sound verifier must reject with exit code 1.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rclift import cli, generators, hardy, lifting, nehari, redheffer, schur, serialize, suite

TARGET_NORM = 0.8  # norm of the interpolation data of every generated instance


@dataclass
class Op:
    """One command-line call and what its outcome must be."""

    kind: str  # "suite", "solve", "verify" or "report"
    group: int  # index of the input instance the call works on
    argv: list[str]
    expect: int = 0  # expected exit code
    honest: bool = True  # False for the verify of a forged solution
    prepare: Callable[[], None] | None = None  # untimed, runs before the call
    check: Callable[[], bool] | None = None  # untimed output check after the call

    @property
    def label(self) -> str:
        return " ".join(Path(a).name for a in self.argv[:3] if not a.startswith("-"))


def _op(kind: str, group: int, *argv, **kw) -> Op:
    return Op(kind, group, [str(a) for a in argv], **kw)


def run_op(op: Op, clock: Callable[[], float] = time.perf_counter) -> tuple[float, bool]:
    """Run one operation; returns (seconds on `clock`, passed)."""
    if op.prepare is not None:
        op.prepare()
    t0 = clock()
    try:
        code = cli.main(op.argv)
    except Exception:  # an operation that raises is a failed operation
        traceback.print_exc()
        code = None
    wall = clock() - t0
    passed = code == op.expect
    if passed and op.check is not None:
        try:
            passed = op.check()
        except (OSError, ValueError, KeyError, TypeError):
            traceback.print_exc()
            passed = False
    if not passed:
        print(f"failed: {op.label} exited {code}, expected {op.expect}", file=sys.stderr)
    return wall, passed


def _write(path: Path, doc) -> None:
    serialize.dump_json(str(path), doc)


def _parameters(in_dim: int, out_dim: int, seed: list[int]) -> list:
    return [
        schur.zero(in_dim, out_dim),
        schur.random_schur(in_dim, out_dim, 0, seed + [0]),
        schur.random_schur(in_dim, out_dim, 3, seed + [1]),
    ]


def _forge(tamper: Callable[[dict], None], honest: Path, forged: Path) -> None:
    """Write a forged copy of an honest solution (once per instance)."""
    if forged.exists():
        return
    doc = json.loads(honest.read_text(encoding="utf-8"))
    tamper(doc)
    doc["tail_bound"] = 1000
    forged.write_text(json.dumps(doc), encoding="utf-8")


def _forge_lifting(doc: dict) -> None:
    for gamma in doc["gamma"]:
        gamma["data"] = [[1.5 * re, 1.5 * im] for re, im in gamma["data"]]


def _forge_nehari(doc: dict) -> None:
    doc["H"][0][0] = [2.0, 0.0]


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, work: Path) -> None:
        """Generate the inputs, writing into `work` those the program reads."""
        raise NotImplementedError

    def ops(self, work: Path) -> list[Op]:
        """The operation sequence of one pass over every instance."""
        raise NotImplementedError

    def warm_up(self, work: Path) -> bool:
        """Untimed warm-up: set up into `work` and run the first operation
        there.  Returns whether the operation passed."""
        work.mkdir(parents=True)
        self.setup(work)
        return run_op(self.ops(work)[0])[1]

    def consistent(self) -> bool:
        """Whether outputs that must repeat across operations did."""
        return True

    def info(self) -> dict:
        return {}


@contextmanager
def _recording(calls: list):
    """Append (name, arguments) of every outermost call into rclift's
    instance generators to `calls` (a nehari-like `generate_random` calls
    `random_nehari_problem` itself).  Arguments are deep-copied before the
    call, because `random_nehari_problem` draws from the generator it is
    given."""
    names = ("generate_random", "random_nehari_problem")
    originals = {name: getattr(generators, name) for name in names}
    depth = [0]

    def recorder(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not depth[0]:
                calls.append((name, copy.deepcopy((args, kwargs))))
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for name, fn in originals.items():
        setattr(generators, name, recorder(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(generators, name, fn)


class Suite50(Workload):
    name = "suite50"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.md5s: list[str] = []
        # Every instance-generator call of one suite run, in order, as
        # recorded during the warm-up (a full suite run).
        self.generator_calls: list = []

    def setup(self, work: Path) -> None:
        # The suite makes its own inputs, so set-up is that generation: the
        # same generator calls with the same arguments, kept in memory.
        for name, recorded in self.generator_calls:
            args, kwargs = copy.deepcopy(recorded)
            getattr(generators, name)(*args, **kwargs)

    def ops(self, work: Path) -> list[Op]:
        out = work / "suite.json"
        return [_op("suite", 0, "suite", "--seeds", 50, "--degree", 64, "--out", out,
                    check=functools.partial(self._check, out))]

    def warm_up(self, work: Path) -> bool:
        with _recording(self.generator_calls):
            return super().warm_up(work)

    def _check(self, out: Path) -> bool:
        text = out.read_bytes()
        self.md5s.append(hashlib.md5(text).hexdigest())
        report = json.loads(text)
        return (report["passed"] is True
                and len(report["criteria"]) == len(suite.CRITERIA)
                and all(c["passed"] != (c["name"] in suite.KNOWN_DEGENERATE)
                        for c in report["criteria"]))

    def consistent(self) -> bool:
        return len(set(self.md5s)) <= 1

    def info(self) -> dict:
        return {"suite_report_md5": sorted(set(self.md5s)),
                "setup_generator_calls": len(self.generator_calls)}


class CliWorkload(Workload):
    instances = 1
    degree = 0
    report = False  # whether each instance also gets `rclift nehari`
    forge: Callable[[dict], None]  # how the forged solution is made

    def ops(self, work: Path) -> list[Op]:
        ops = []
        for i in range(self.instances):
            inst = work / f"inst{i}.json"
            for k in range(3):
                sol = work / f"inst{i}_sol{k}.json"
                ops.append(_op("solve", i, "solve", inst, "--param", work / f"inst{i}_param{k}.json",
                               "--degree", self.degree, "--out", sol))
                ops.append(_op("verify", i, "verify", inst, sol, "--degree", self.degree,
                               "--out", work / "verify.json"))
                if k == 0:
                    forged = work / f"inst{i}_forged.json"
                    ops.append(_op("verify", i, "verify", inst, forged, "--degree", self.degree,
                                   "--out", work / "verify.json", expect=1, honest=False,
                                   prepare=functools.partial(_forge, self.forge, sol, forged)))
            if self.report:
                ops.append(_op("report", i, "nehari", inst, "--degree", self.degree,
                               "--out", work / "report.json"))
        return ops


class LiftCli(CliWorkload):
    name = "lift_cli"
    instances = 1
    degree = 128
    dims = (40, 30, 20)
    forge = staticmethod(_forge_lifting)

    def setup(self, work: Path) -> None:
        for i in range(self.instances):
            ds = generators.generate_random("generic", self.dims, TARGET_NORM, [self.seed, i])
            _write(work / f"inst{i}.json", serialize.instance_to_json(ds))
            rc = redheffer.build_coefficients(lifting.derive(ds))
            for k, v in enumerate(_parameters(rc.kq_dim, rc.w_dim, [self.seed, i])):
                _write(work / f"inst{i}_param{k}.json", serialize.parameter_to_json(v))


class NehariCli(CliWorkload):
    name = "nehari_cli"
    instances = 8
    degree = 64
    report = True
    dims = (8, 8, 16, 16)  # u, y, N, K
    forge = staticmethod(_forge_nehari)

    def setup(self, work: Path) -> None:
        u, y, n_w, k = self.dims
        for i in range(self.instances):
            rng = np.random.default_rng([self.seed, i])
            p = generators.random_nehari_problem(rng, u, y, n_w, k, TARGET_NORM)
            _write(work / f"inst{i}.json", serialize.instance_to_json(p))
            for j, v in enumerate(_parameters(u, y + u, [self.seed, i])):
                _write(work / f"inst{i}_param{j}.json", serialize.parameter_to_json(v))


WORKLOADS = {w.name: w for w in (Suite50, LiftCli, NehariCli)}


def degree_sweep(seed: int, degrees=(64, 128, 256), repeats: int = 3) -> dict[str, float]:
    """Median seconds of the three dense truncated checks on small instances.

    The truncated operators grow with the degree (cubically for the dense
    norms), so the sweep records that growth at fixed instance size.
    """
    ds = generators.generate_random("generic", (6, 4, 3), TARGET_NORM, [seed, 256])
    rc = redheffer.build_coefficients(lifting.derive(ds))
    p = generators.random_nehari_problem(np.random.default_rng([seed, 256]), 2, 2, 4, 4,
                                         TARGET_NORM)
    nc = nehari.coefficients(p)
    out = {}
    for deg in degrees:
        sol = redheffer.solution_taylor(rc, schur.zero(rc.kq_dim, rc.w_dim), deg)
        calls = {
            "hardy.verify_interpolant": lambda: hardy.verify_interpolant(ds, sol, deg),
            "redheffer.assemble_m": lambda: redheffer.assemble_m(rc, deg),
            "nehari.hat_m_check": lambda: nehari.hat_m_check(nc, deg),
        }
        for name, call in calls.items():
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            out[f"{name}.deg{deg}_s"] = statistics.median(times)
    return out
