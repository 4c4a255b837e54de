"""Linear operators, test problems, seeded noise, and norm estimation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "LinearOperator",
    "Problem",
    "NoisyProblem",
    "Deriv2Problem",
    "NormEstimate",
    "diagonal_operator",
    "matrix_operator",
    "deriv2_assemble",
    "add_noise",
    "operator_norm_sq",
    "save_vector_csv",
    "save_matrix_csv",
]


class LinearOperator:
    """Real linear operator with explicit forward and adjoint actions.

    ``matvec_rows``/``rmatvec_rows`` apply the operator to every row of a
    2-D block; each row of the result equals the single-vector apply of
    that row bit for bit.  An operator built without block applies falls
    back to applying its rows one at a time.  The actions are fixed at
    construction; the only mutable state is the memoised norm estimate of
    ``cached_norm_sq``.
    """

    def __init__(
        self, domain_dim, range_dim, matvec, rmatvec, matvec_rows=None, rmatvec_rows=None
    ):
        self.domain_dim = int(domain_dim)
        self.range_dim = int(range_dim)
        self._matvec = matvec
        self._rmatvec = rmatvec
        self._matvec_rows = matvec_rows or partial(_row_by_row, matvec)
        self._rmatvec_rows = rmatvec_rows or partial(_row_by_row, rmatvec)
        self._norm_sq_cache = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._matvec(x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self._rmatvec(y)

    def matvec_rows(self, xs: np.ndarray) -> np.ndarray:
        return self._matvec_rows(xs)

    def rmatvec_rows(self, ys: np.ndarray) -> np.ndarray:
        return self._rmatvec_rows(ys)


def _row_by_row(apply, block: np.ndarray) -> np.ndarray:
    return np.stack([apply(row) for row in block])


@dataclass(frozen=True)
class Problem:
    """Data pair (A, g) consumed by the solvers."""

    operator: LinearOperator
    g: np.ndarray


def diagonal_operator(diag) -> LinearOperator:
    """Componentwise multiplication; self-adjoint since the diagonal is real.

    The product broadcasts over the rows of a block, so it is also the
    block apply.
    """
    d = np.asarray(diag, dtype=float)
    if d.size == 0:
        raise ValueError("diagonal must be nonempty")

    def scale(x):
        return d * x

    return LinearOperator(d.size, d.size, scale, scale, scale, scale)


def matrix_operator(a) -> LinearOperator:
    """Dense operator.  Single vectors go through ``dot``, blocks through
    ``np.matvec``, whose rows equal ``dot`` bit for bit (a GEMM's do not);
    the adjoint uses a contiguous copy of the transpose."""
    a = np.ascontiguousarray(a, dtype=float)
    at = np.ascontiguousarray(a.T)
    return LinearOperator(
        a.shape[1], a.shape[0], a.dot, at.dot, partial(np.matvec, a), partial(np.matvec, at)
    )


@dataclass(frozen=True)
class NoisyProblem:
    """Right-hand side perturbed by a seeded Gaussian draw.

    ``epsilon`` records the realised noise level: it always equals
    ||g_noisy - g_clean|| exactly as constructed.
    """

    operator: LinearOperator
    g_clean: np.ndarray
    epsilon: float
    seed: int
    g_noisy: np.ndarray

    def as_problem(self) -> Problem:
        return Problem(self.operator, self.g_noisy)


def add_noise(
    operator: LinearOperator, g_clean, epsilon: float, seed: int, normalize: bool = True
) -> NoisyProblem:
    """Perturb g_clean with a seeded Gaussian direction.

    With ``normalize`` (the default) the draw is scaled to unit Euclidean
    norm so the perturbation is exactly epsilon long.  With
    ``normalize=False`` the raw N(0,1) vector is used and the perturbation
    (and the recorded noise level) is epsilon * ||w||, about epsilon *
    sqrt(dim); the stock experiments use this raw convention because the
    reference iteration counts presume it.

    The generator is NumPy's default PCG64 (``np.random.default_rng``);
    the same seed reproduces the noise bit for bit.
    """
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"noise level {epsilon} must be finite and >= 0")
    g_clean = np.asarray(g_clean, dtype=float)
    if epsilon == 0.0:
        g_noisy = g_clean.copy()
        level = 0.0
    else:
        w = np.random.default_rng(seed).standard_normal(g_clean.size)
        if normalize:
            w = w / np.linalg.norm(w)
        g_noisy = g_clean + epsilon * w
        level = epsilon * float(np.linalg.norm(w))
    return NoisyProblem(operator, g_clean, level, int(seed), g_noisy)


@dataclass(frozen=True)
class Deriv2Problem:
    """Galerkin discretisation of the first-kind integral equation whose
    kernel is the Green's function k(s,t) = min(s,t)(max(s,t) - 1) on the
    unit square, with right-hand side g(s) = (s^3 - s)/6 and exact solution
    f(t) = t.

    The basis is the orthonormal box functions h^(-1/2) 1_[(i-1)h, ih],
    h = 1/N; all entries are exact integrals in closed form.
    """

    n_points: int
    matrix: np.ndarray
    g_vector: np.ndarray
    f_exact: np.ndarray

    def to_operator(self) -> LinearOperator:
        return matrix_operator(self.matrix)


def deriv2_assemble(n: int) -> Deriv2Problem:
    if n < 2:
        raise ValueError("need at least 2 discretisation points")
    h = 1.0 / n
    i = np.arange(1, n + 1, dtype=float)
    mid = (i - 0.5) * h
    # off-diagonal cells never straddle s = t, so the double integral
    # factorises: a_ij = h * mid_min * (mid_max - 1)
    a = h * np.minimum.outer(mid, mid) * (np.maximum.outer(mid, mid) - 1.0)
    np.fill_diagonal(a, h * h * ((i * i - i + 0.25) * h - (i - 2.0 / 3.0)))
    g = h ** 1.5 * (i - 0.5) * (h * h * (i * i + (i - 1.0) ** 2) / 2.0 - 1.0) / 6.0
    f = h ** 1.5 * (i - 0.5)
    return Deriv2Problem(n_points=n, matrix=a, g_vector=g, f_exact=f)


@dataclass(frozen=True)
class NormEstimate:
    value: float
    converged: bool
    iterations: int


def operator_norm_sq(
    operator: LinearOperator, tol: float = 1e-10, max_iters: int = 10**5
) -> NormEstimate:
    """Power iteration estimate of ||A* A|| from a deterministic start.

    Starts from the normalised all-ones vector; converged means two
    successive Rayleigh quotients differed by less than tol.  Failure to
    converge is reported through the flag, not raised.
    """
    x = np.ones(operator.domain_dim) / np.sqrt(operator.domain_dim)
    rho = 0.0
    for k in range(1, max_iters + 1):
        y = operator.rmatvec(operator.matvec(x))
        norm_y = np.linalg.norm(y)
        if norm_y == 0.0:
            return NormEstimate(0.0, True, k)
        rho_new = float(x @ y)
        if abs(rho_new - rho) < tol:
            return NormEstimate(rho_new, True, k)
        rho = rho_new
        x = y / norm_y
    return NormEstimate(rho, False, max_iters)


def cached_norm_sq(operator: LinearOperator) -> float:
    """Memoised ||A* A|| estimate used for relaxation-parameter checks."""
    if operator._norm_sq_cache is None:
        operator._norm_sq_cache = operator_norm_sq(operator).value
    return operator._norm_sq_cache


def _fmt(value) -> str:
    """CSV field: "" for None, shortest round-trip form for floats, else str."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_lines(path, lines) -> None:
    """Write each line followed by a newline as UTF-8 text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def save_vector_csv(path, v) -> None:
    """One value per line, shortest round-trip decimal form."""
    _write_lines(path, (_fmt(x) for x in np.asarray(v, dtype=float)))


def save_matrix_csv(path, a) -> None:
    """Row-major: one matrix row per line, comma separated."""
    _write_lines(path, (",".join(_fmt(x) for x in row) for row in np.asarray(a, dtype=float)))
