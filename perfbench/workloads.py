"""Workloads of the ilsolve benchmark.

Each workload turns a seed into inputs (untimed), builds the objects a user
of the package would build (the timed set-up), and yields a list of
operations.  An operation is one solve to tolerance or one analysis call.
Every result is checked against numpy computations made here, from the
benchmark's own copy of each problem's blocks, never through the package's
block product or solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ilsolve import analysis, bench, krylov, mmio, preconditioners, problem, sparse
from ilsolve.exceptions import StationaryDivergenceError

INNER_CG = krylov.CgConfig(rel_tolerance=1e-3, max_iterations=1000)
OUTER = krylov.FgmresConfig(rel_tolerance=1e-8, max_iterations=2000)
RES_LIMIT = 1e-8        # a solve passes only below this recomputed residual
FAMILY_LIMIT = 1e-10    # largest eigenvector residual a family may show
# Reported and recomputed residuals differ only by rounding in the final
# product; a larger gap means the report does not describe the iterate.
RES_AGREE_REL = 1e-3
RES_AGREE_ABS = 1e-15
# The windowed power iteration stops on a 1e-3 band; a wider gap to the
# eigenvalues of the independently assembled matrix is a wrong estimate.
RHO_AGREE = 1e-2
STANDIN_A2_SCALE = 6.0
HILBERT_A2_SCALE = 0.7


@dataclass
class Cell:
    """Per-operation record; the counts are the behaviour a change must
    not move silently."""

    problem: str
    variant: str
    inner: str
    op: str
    outer_it: int = 0
    inner_it: int = 0
    cap_hits: int = 0
    converged: bool = True
    ok: bool = True
    detail: dict = field(default_factory=dict)

    def counts(self) -> tuple:
        return (self.outer_it, self.inner_it, self.cap_hits, self.converged, self.ok)


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], Cell]


# ---------------------------------------------------------------------------
# Independent block algebra
# ---------------------------------------------------------------------------

class BlockCheck:
    """The block system of one problem, assembled here with numpy.

    A1 is dense; A2 is either dense or ``scale * I_{q x n}`` given by its
    scale.  The reference solution comes from ``np.linalg.solve`` on the
    dense reduced normal equations.
    """

    def __init__(self, a1, a2, b1, b2, a2_scale=None):
        self.a1 = np.asarray(a1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        self.p, self.n = self.a1.shape
        self.q = len(self.b2)
        self.a2 = None if a2 is None else np.asarray(a2, dtype=np.float64)
        self.a2_scale = a2_scale
        self.rhs = np.concatenate([self.b1, self.a1.T @ self.b1, self.b2])
        normal = self.a1.T @ self.a1 - self.a2_gram()
        self.x_ref = np.linalg.solve(normal, self.a1.T @ self.b1 - self.a2t(self.b2))

    def a2_gram(self):
        if self.a2 is not None:
            return self.a2.T @ self.a2
        k = min(self.q, self.n)
        return np.diag(np.where(np.arange(self.n) < k, self.a2_scale**2, 0.0))

    def a2x(self, x):
        if self.a2 is not None:
            return self.a2 @ x
        k = min(self.q, self.n)
        out = np.zeros((self.q,) + x.shape[1:])
        out[:k] = self.a2_scale * x[:k]
        return out

    def a2t(self, d):
        if self.a2 is not None:
            return self.a2.T @ d
        k = min(self.q, self.n)
        out = np.zeros((self.n,) + d.shape[1:])
        out[:k] = self.a2_scale * d[:k]
        return out

    def block_product(self, v):
        p, n = self.p, self.n
        d1, x, d2 = v[:p], v[p : p + n], v[p + n :]
        a1x = self.a1 @ x
        return np.concatenate([d1 + a1x, self.a1.T @ a1x + self.a2t(d2), self.a2x(x) + d2])

    def residual(self, v) -> float:
        return float(np.linalg.norm(self.rhs - self.block_product(v)) / np.linalg.norm(self.rhs))

    def error(self, v) -> float:
        x = v[self.p : self.p + self.n]
        return float(np.linalg.norm(x - self.x_ref) / np.linalg.norm(self.x_ref))

    def splitting(self, kind, alpha):
        """Dense splitting matrix M of an ibs variant."""
        p, n, q = self.p, self.n, self.q
        a2 = self.a2x(np.eye(n))
        inner = self.a1.T @ self.a1 + alpha * np.eye(n)
        top = self.a1 if kind in ("ibs3", "ibs4") else np.zeros((p, n))
        mid = a2.T if kind in ("ibs2", "ibs4") else np.zeros((n, q))
        return np.block(
            [
                [np.eye(p), top, np.zeros((p, q))],
                [np.zeros((n, p)), inner, mid],
                [np.zeros((q, p)), np.zeros((q, n)), np.eye(q)],
            ]
        )

    def block_matrix(self):
        p, n, q = self.p, self.n, self.q
        a2 = self.a2x(np.eye(n))
        return np.block(
            [
                [np.eye(p), self.a1, np.zeros((p, q))],
                [np.zeros((n, p)), self.a1.T @ self.a1, a2.T],
                [np.zeros((q, p)), a2, np.eye(q)],
            ]
        )


def check_solve(cell: Cell, chk: BlockCheck, x, final_res: float, converged: bool) -> Cell:
    """Gate one solve: converged, recomputed residual below RES_LIMIT, and
    the reported residual equal to the recomputed one up to rounding."""
    res = chk.residual(x)
    agree = abs(final_res - res) <= RES_AGREE_REL * res + RES_AGREE_ABS
    cell.converged = bool(converged)
    cell.ok = bool(converged and res < RES_LIMIT and agree)
    cell.detail = {"final_res": final_res, "res": res, "err": chk.error(x)}
    return cell


# ---------------------------------------------------------------------------
# Sparse stand-in (the published TOLS340/SHERMAN4 rows' shape)
# ---------------------------------------------------------------------------

def standin_triplets(rng, n=340):
    """Banded n x n core: offsets -2..+2 each kept with probability 0.8,
    N(0, 1) values.  Same draw order as the benchmark-scale test, so a
    generator seeded with 1234 gives that test's matrix."""
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in (i - 2, i - 1, i, i + 1, i + 2):
            if 0 <= j < n and rng.random() < 0.8:
                rows.append(i)
                cols.append(j)
                vals.append(rng.standard_normal())
    return np.array(rows), np.array(cols), np.array(vals)


def write_coordinate_mtx(path: Path, n: int, rows, cols, vals) -> None:
    lines = ["%%MatrixMarket matrix coordinate real general", f"{n} {n} {len(vals)}"]
    lines += [f"{i + 1} {j + 1} {float(v)!r}" for i, j, v in zip(rows, cols, vals)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


@dataclass
class StandinInput:
    label: str
    path: Path
    check: BlockCheck


class SparseWorkload:
    """Stand-in problems read back from Matrix Market, solved with inner CG
    and unrestarted flexible GMRES."""

    def __init__(self, variants, pool=1, n=340, q=10000):
        self.variants = tuple(variants)
        self.pool, self.n, self.q = pool, n, q

    def inputs(self, seed: int, scratch: Path) -> list[StandinInput]:
        out = []
        for i in range(self.pool):
            # The first stand-in uses the workload seed itself; the others
            # are independent streams derived from it.
            rng = np.random.default_rng(seed if i == 0 else [seed, i])
            rows, cols, vals = standin_triplets(rng, self.n)
            label = f"standin{self.n}+{self.q}-s{seed}" + (f".{i}" if i else "")
            path = scratch / f"{label}.mtx"
            write_coordinate_mtx(path, self.n, rows, cols, vals)
            core = np.zeros((self.n, self.n))
            core[rows, cols] = vals
            core /= np.abs(core).sum(axis=0).max()
            chk = BlockCheck(core, None, np.ones(self.n), np.ones(self.q), a2_scale=STANDIN_A2_SCALE)
            out.append(StandinInput(label, path, chk))
        return out

    def setup(self, inputs: list[StandinInput]) -> list[Op]:
        ops = []
        for item in inputs:
            core = sparse.normalize_to_unit_one_norm(mmio.read_matrix_market(item.path))
            prob = bench.generate_augmented_problem(core, self.q, STANDIN_A2_SCALE)
            a_op = problem.block_system_operator(prob)
            rhs = problem.build_rhs(prob).data
            for kind in self.variants:
                pre = preconditioners.make_preconditioner(kind, prob, inner="cg", inner_config=INNER_CG)
                ops.append(fgmres_op(item.label, kind, "cg", a_op, pre, rhs, item.check))
        return ops


def fgmres_op(label, kind, inner, a_op, pre, rhs, chk: BlockCheck) -> Op:
    def run():
        pre.reset_stats()
        x, rep = krylov.fgmres_solve(a_op, pre, rhs, config=OUTER)
        return x, rep, pre.inner_iterations, pre.inner_failures

    def check(result) -> Cell:
        x, rep, inner_it, cap_hits = result
        # An exact inner solve counts as one inner iteration: one per
        # preconditioner application, i.e. one per outer iteration.
        inner_count = inner_it if inner == "cg" else rep.iterations
        cell = Cell(label, kind, inner, "fgmres", rep.iterations, inner_count, cap_hits)
        return check_solve(cell, chk, x, rep.final_res, rep.converged)

    return Op(run, check)


# ---------------------------------------------------------------------------
# Dense Hilbert problem
# ---------------------------------------------------------------------------

class HilbertWorkload:
    """Hilbert A1 kept dense, A2 = 0.7 I; ibs2/ibs4 with exact and CG inner
    solves.  The problem has no random part, so the seed does not change it."""

    CELLS = (("ibs2", "cholesky"), ("ibs4", "cholesky"), ("ibs2", "cg"), ("ibs4", "cg"))

    def __init__(self, n=1000):
        self.n = n

    def inputs(self, seed: int, scratch: Path) -> BlockCheck:
        idx = np.arange(self.n, dtype=np.float64)
        hilbert = 1.0 / (idx[:, None] + idx[None, :] + 1.0)
        ones = np.ones(self.n)
        return BlockCheck(hilbert, None, ones, ones, a2_scale=HILBERT_A2_SCALE)

    def setup(self, chk: BlockCheck) -> list[Op]:
        prob = bench.generate_hilbert_problem(self.n, HILBERT_A2_SCALE)
        a_op = problem.block_system_operator(prob)
        rhs = problem.build_rhs(prob).data
        label = f"hilbert{self.n}"
        ops = []
        for kind, inner in self.CELLS:
            pre = preconditioners.make_preconditioner(kind, prob, inner=inner, inner_config=INNER_CG)
            ops.append(fgmres_op(label, kind, inner, a_op, pre, rhs, chk))
        return ops


# ---------------------------------------------------------------------------
# Desk-scale theory checks
# ---------------------------------------------------------------------------

@dataclass
class DeskInput:
    label: str
    seed: int
    check: BlockCheck


class DeskWorkload:
    """Convergence conditions, eigenstructure (with the spectral radius),
    stationary iteration and the n + q + 1 GMRES bound on random dense
    instances whose reduced normal matrices are SPD by construction."""

    # At 20 x 10 x 15 no operation takes much over 30 ms and a pass about
    # 0.5 s, so a run times each operation some thirty times, and the
    # fastest can come from a short fast spell of a shared host.  A pool
    # of four averages out part of the seed-to-seed change in the
    # iteration counts (see README.md).
    def __init__(self, pool=4, p=20, q=10, n=15):
        self.pool, self.p, self.q, self.n = pool, p, q, n

    def inputs(self, seed: int, scratch: Path) -> list[DeskInput]:
        out = []
        for i in range(self.pool):
            # As for the stand-ins: the first instance uses the workload
            # seed itself, the others seeds drawn from streams derived from it.
            member = seed if i == 0 else int(np.random.default_rng([seed, i]).integers(2**31))
            prob = bench.generate_random_problem(self.p, self.q, self.n, seed=member)
            chk = BlockCheck(prob.a1, prob.a2, prob.b1, prob.b2)
            label = f"desk{self.p}x{self.q}x{self.n}-s{seed}" + (f".{i}" if i else "")
            out.append(DeskInput(label, member, chk))
        return out

    def setup(self, inputs: list[DeskInput]) -> list[Op]:
        ops = []
        for item in inputs:
            prob = bench.generate_random_problem(self.p, self.q, self.n, seed=item.seed)
            ops += desk_ops(item.label, prob, item.check)
        return ops


def desk_ops(label: str, prob, chk: BlockCheck) -> list[Op]:
    rhos: dict[str, float] = {}
    own_rho: dict[str, float] = {}

    def conditions_check(rep) -> Cell:
        gram = chk.a1.T @ chk.a1
        a2gram = chk.a2.T @ chk.a2
        shifted = gram + prob.alpha * np.eye(chk.n)
        expected = {
            "spd_normal": gram - a2gram,
            "spd_shifted_minus_a2gram": shifted - a2gram,
            "spd_two_shifted_minus": 2.0 * shifted - gram - a2gram,
            "spd_two_shifted_plus": 2.0 * shifted - gram + a2gram,
        }
        mismatched = []
        for name, mat in expected.items():
            low = float(np.linalg.eigvalsh(mat)[0])
            decidable = abs(low) > 1e-8 * np.abs(mat).max()
            if decidable and getattr(rep, name) != (low > 0.0):
                mismatched.append(name)
        eig = np.linalg.eigvalsh(gram)
        kappa = eig[-1] / eig[0]
        if abs(rep.kappa_gram - kappa) > 1e-6 * kappa:
            mismatched.append("kappa_gram")
        # The instance is built with an SPD reduced normal matrix, so the
        # certificate itself must hold as well as agree with numpy.
        ok = not mismatched and rep.spd_normal
        return Cell(label, "-", "exact", "conditions", ok=ok, detail={"mismatched": mismatched})

    ops = [Op(lambda: analysis.check_convergence_conditions(prob), conditions_check)]
    for kind in preconditioners.IBS_VARIANTS:
        ops += desk_variant_ops(label, kind, prob, chk, rhos, own_rho)
    return ops


def desk_variant_ops(label, kind, prob, chk: BlockCheck, rhos, own_rho) -> list[Op]:
    def eig_run():
        rep = analysis.verify_eigenstructure(kind, prob)
        rhos[kind] = rep.rho_estimate
        return rep

    def eig_check(rep) -> Cell:
        if kind not in own_rho:
            a = chk.block_matrix()
            g = np.eye(len(a)) - np.linalg.solve(chk.splitting(kind, prob.alpha), a)
            own_rho[kind] = float(np.abs(np.linalg.eigvals(g)).max())
        worst = max((f.max_residual for f in rep.families() if f.count), default=0.0)
        ok = (
            all(f.passed(FAMILY_LIMIT) for f in rep.families())
            and rep.rho_estimate < 1.0
            and abs(rep.rho_estimate - own_rho[kind]) <= RHO_AGREE
        )
        detail = {"rho": rep.rho_estimate, "rho_numpy": own_rho[kind], "family_res": worst}
        return Cell(label, kind, "exact", "eigenstructure", ok=ok, detail=detail)

    def stationary_run():
        rho = rhos.get(kind, 1.0)
        cap = 20 * math.ceil(1.0 / (1.0 - rho)) if rho < 1.0 else 1
        try:
            x, rep = analysis.stationary_solve(kind, prob, maxit=cap)
        except StationaryDivergenceError as exc:
            return None, exc.report, cap
        return x, rep, cap

    def stationary_check(result) -> Cell:
        x, rep, cap = result
        cell = Cell(label, kind, "exact", "stationary", rep.iterations, rep.iterations)
        if x is None:
            cell.converged = cell.ok = False
            cell.detail = {"cap": cap, "final_res": rep.final_res}
            return cell
        cell = check_solve(cell, chk, x, rep.final_res, rep.converged)
        cell.detail["cap"] = cap
        return cell

    def bound_check(res) -> Cell:
        bound = chk.n + chk.q + 1
        ok = res.passed and res.bound == bound and res.iterations <= bound
        return Cell(label, kind, "exact", "gmres_bound", res.iterations, res.iterations,
                    converged=res.passed, ok=ok, detail={"bound": bound})

    return [
        Op(eig_run, eig_check),
        Op(stationary_run, stationary_check),
        Op(lambda: analysis.gmres_bound_check(kind, prob), bound_check),
    ]


WORKLOADS = {
    "sparse-ibs": lambda: SparseWorkload(preconditioners.IBS_VARIANTS, pool=16),
    "sparse-baseline": lambda: SparseWorkload(("bs2", "but")),
    "dense-hilbert": lambda: HilbertWorkload(),
    "desk-analysis": lambda: DeskWorkload(),
}
