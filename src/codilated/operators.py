"""Linear operators, test problems, seeded noise, and norm estimation.

The records are ``NamedTuple``s: ``Problem`` checks its data in the
``__new__`` of a thin subclass, which ``_replace`` also runs;
``NoisyProblem``, ``Deriv2Problem`` and ``NormEstimate`` only carry values.
Nothing here writes a file; the experiments module holds the CSV output.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .orthopoly import _require_real

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
]

# operator_norm_sq's stop: two Rayleigh quotients this close, or this many steps
NORM_TOL = 1e-10
NORM_MAX_ITERS = 10**5


class LinearOperator:
    """Real linear operator with explicit forward and adjoint actions.

    The attributes ``matvec_rows``/``rmatvec_rows`` apply the operator to
    every row of a 2-D block; each row of the result equals the
    single-vector apply of that row bit for bit.  An operator built without
    block applies falls back to applying its rows one at a time.
    ``matvec``/``rmatvec`` stay methods so that a tracer can count applies
    by patching the class.  The actions are fixed at construction; the only
    other state is ``norm_estimate``, the whole ``operator_norm_sq`` result,
    computed on first read and kept.
    """

    def __init__(
        self, domain_dim, range_dim, matvec, rmatvec, matvec_rows=None, rmatvec_rows=None
    ):
        self.domain_dim = int(domain_dim)
        self.range_dim = int(range_dim)
        self._matvec = matvec
        self._rmatvec = rmatvec
        self.matvec_rows = matvec_rows or partial(_row_by_row, matvec)
        self.rmatvec_rows = rmatvec_rows or partial(_row_by_row, rmatvec)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._matvec(x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self._rmatvec(y)

    @cached_property
    def norm_estimate(self) -> NormEstimate:
        return operator_norm_sq(self)  # looked up at call time: a patched global is seen


def _row_by_row(apply, block: np.ndarray) -> np.ndarray:
    return np.stack([apply(row) for row in block])


class _Problem(NamedTuple):
    operator: LinearOperator
    g: np.ndarray


class Problem(_Problem):
    """Data pair (A, g) consumed by the solvers; ValueError unless g is one
    finite vector of A's range."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    def __new__(cls, operator: LinearOperator, g: np.ndarray):
        if np.shape(g) != (operator.range_dim,):
            raise ValueError(f"data g of shape {np.shape(g)} is not a vector of the "
                             f"operator's range, of dimension {operator.range_dim}")
        if not np.isfinite(g).all():
            raise ValueError("data g must be finite")
        return super().__new__(cls, operator, g)


def _finite_entries(entries) -> np.ndarray:
    """The entries as a float array; ValueError if one is not finite."""
    a = np.asarray(entries, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("operator entries must be finite")
    return a


def diagonal_operator(diag) -> LinearOperator:
    """Componentwise multiplication by a nonempty finite vector; self-adjoint
    since the diagonal is real.

    The product broadcasts over the rows of a block, so it is also the
    block apply.
    """
    d = _finite_entries(diag)
    if d.ndim != 1 or d.size == 0:
        raise ValueError(f"diagonal must be 1-D and nonempty, not of shape {d.shape}")

    def scale(x):
        return d * x

    return LinearOperator(d.size, d.size, scale, scale, scale, scale)


def matrix_operator(a) -> LinearOperator:
    """Dense operator of a finite 2-D matrix with no empty dimension.  Single
    vectors go through ``dot``, blocks through ``np.matvec``, whose rows equal
    ``dot`` bit for bit (a GEMM's do not); the adjoint uses a contiguous copy
    of the transpose."""
    a = np.ascontiguousarray(_finite_entries(a))
    if a.ndim != 2 or 0 in a.shape:
        raise ValueError(f"matrix must be 2-D with no empty dimension, not of shape {a.shape}")
    at = np.ascontiguousarray(a.T)
    return LinearOperator(
        a.shape[1], a.shape[0], a.dot, at.dot, partial(np.matvec, a), partial(np.matvec, at)
    )


class NoisyProblem(NamedTuple):
    """Right-hand side perturbed by a seeded Gaussian draw.

    ``epsilon`` records the realised noise level: it always equals
    ||g_noisy - g_clean|| exactly as constructed.
    """

    operator: LinearOperator
    g_clean: np.ndarray
    epsilon: float
    g_noisy: np.ndarray

    def as_problem(self) -> Problem:
        return Problem(self.operator, self.g_noisy)


def add_noise(operator: LinearOperator, g_clean, epsilon: float, seed: int) -> NoisyProblem:
    """Perturb g_clean by epsilon times a seeded N(0, 1) draw w, not normalised.

    The perturbation, recorded as the noise level, is epsilon * ||w||, about
    epsilon * sqrt(dim): the convention the reference iteration counts
    presume.  ValueError unless epsilon is a finite real >= 0.  The generator
    is NumPy's default PCG64 (``np.random.default_rng``); the same seed
    reproduces the noise bit for bit.
    """
    _require_real(epsilon, "noise level epsilon")
    if not epsilon >= 0:
        raise ValueError(f"noise level {epsilon} must be finite and >= 0")
    g_clean = np.asarray(g_clean, dtype=float)
    if epsilon == 0.0:
        g_noisy = g_clean.copy()
        level = 0.0
    else:
        w = np.random.default_rng(seed).standard_normal(g_clean.size)
        g_noisy = g_clean + epsilon * w
        level = epsilon * float(np.linalg.norm(w))
    return NoisyProblem(operator, g_clean, level, g_noisy)


class Deriv2Problem(NamedTuple):
    """Galerkin discretisation of the first-kind integral equation whose
    kernel is the Green's function k(s,t) = min(s,t)(max(s,t) - 1) on the
    unit square, with right-hand side g(s) = (s^3 - s)/6 and exact solution
    f(t) = t.

    The basis is the orthonormal box functions h^(-1/2) 1_[(i-1)h, ih],
    h = 1/N, N the length of each vector; all entries are exact integrals.
    """

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
    return Deriv2Problem(matrix=a, g_vector=g, f_exact=f)


class NormEstimate(NamedTuple):
    """Result of ``operator_norm_sq``: the estimate of ||A*A||, whether the
    power iteration converged, and its iteration count."""

    value: float
    converged: bool
    iterations: int


def operator_norm_sq(operator: LinearOperator) -> NormEstimate:
    """Power iteration estimate of ||A* A|| from a deterministic start.

    Starts from the normalised all-ones vector; converged means two
    successive Rayleigh quotients differed by less than NORM_TOL, and the
    iteration gives up unconverged after NORM_MAX_ITERS steps.  Failure to
    converge is reported through the flag, not raised; a Rayleigh quotient
    that is not finite (the operator yields NaN or inf) ends the iteration
    there, unconverged.
    """
    x = np.ones(operator.domain_dim) / np.sqrt(operator.domain_dim)
    rho = 0.0
    for k in range(1, NORM_MAX_ITERS + 1):
        y = operator.rmatvec(operator.matvec(x))
        norm_y = np.linalg.norm(y)
        if norm_y == 0.0:
            return NormEstimate(0.0, True, k)
        rho_new = float(x @ y)
        if not np.isfinite(rho_new):
            return NormEstimate(rho_new, False, k)
        if abs(rho_new - rho) < NORM_TOL:
            return NormEstimate(rho_new, True, k)
        rho = rho_new
        x = y / norm_y
    return NormEstimate(rho, False, NORM_MAX_ITERS)
