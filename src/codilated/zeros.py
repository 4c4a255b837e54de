"""Zeros of residual polynomials and moduli of convergence.

Zeros of an orthogonal family are the eigenvalues of its symmetric
tridiagonal Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969): with the
recurrence coefficients (d_k, e_k) of ``orthopoly._jacobi``, the n x n
matrix has diagonal d_0 .. d_{n-1} and off-diagonal sqrt(e_1) ..
sqrt(e_{n-1}).  Unfolded, these are the co-dilated alpha_k and beta_k of
P_n.  For the asymmetric kind they are those of the even fold S_n,
P_{2n}(x) = S_n(x^2) (Chihara, 1978), so the n residual zeros y = 1 - t
come from one n x n matrix; ``_jacobi`` applies the dilation and the
fold.  ``_jacobi`` admits only betas > 0 there, so with lam > 0 each
off-diagonal square is positive, or underflows to 0 and splits the matrix
into blocks; the eigenvalues inside the interval are the roots.

Where the matrix does not apply (a dilation lam <= 0, a family that is not
orthogonal such as the power basis, or the asymmetric kind of a scheme that
is not symmetric), roots come from sign-change bracketing on a scan grid
followed by bisection.  The scan grid is uniform in the angular variable
x = cos(theta) with 50 points per degree; oscillations of a degree-n family
are ~pi/n apart in theta, so adjacent roots and extrema are separated by ~50
grid points even where they cluster near the endpoints.  Every scan, of P_n as of a residual kind,
reads P(x)/P(1) (``orthopoly._normalised_at_one``), so an underflowed P(1)
raises NormalizationVanishes rather than yielding a grid of zeros as roots.
The scan is also the tests' independent oracle for the matrix path.  Results
come back as a ``ZeroReport``, a ``NamedTuple``.  A degree runs from 1 to
MAX_DEGREE, checked before anything of its size is built.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .orthopoly import (
    CoDilation,
    RecurrenceScheme,
    ResidualKind,
    _folded,
    _jacobi,
    _normalised_at_one,
    _require_integer,
    _require_real,
    residual_eval,
)

__all__ = ["MAX_DEGREE", "ZeroReport", "find_zeros", "modulus_of_convergence"]

MAX_DEGREE = 4096  # the n x n Jacobi matrix of the largest degree takes 128 MiB
GRID_POINTS_PER_DEGREE = 50
BISECTION_TOL = 1e-13
REFINE_TOL = 1e-10


class ZeroReport(NamedTuple):
    """Located roots in ascending order; fewer than ``degree`` roots means
    some left the interval (dilation beyond critical), which is
    informative rather than an error; ``smallest`` is NaN where none is."""

    degree: int
    lam: float
    zeros: np.ndarray

    @property
    def smallest(self) -> float:
        return float(self.zeros[0]) if self.zeros.size else float("nan")


def _check_degree(n: int, name: str = "degree") -> None:
    """ValueError unless n is an integer, 1 <= n <= MAX_DEGREE, before anything is built."""
    _require_integer(n, name, 1)
    if n > MAX_DEGREE:
        raise ValueError(f"{name} must be <= {MAX_DEGREE}")


def _residual_grid(n: int) -> np.ndarray:
    """Scan grid for residual polynomials: y = (1 - cos(theta))/2.

    Covers both kinds: the symmetric argument is 1 - 2y = cos(theta) and
    the asymmetric one is sqrt(1 - y) = cos(theta/2), so oscillations are
    ~pi/n apart in theta either way.
    """
    theta = np.linspace(0.0, np.pi, GRID_POINTS_PER_DEGREE * n + 1)
    grid = 0.5 * (1.0 - np.cos(theta))
    grid[0], grid[-1] = 0.0, 1.0
    return grid


def _polynomial_grid(n: int) -> np.ndarray:
    """Scan grid for P_n on [-1, 1]: x = cos(theta), ascending."""
    grid = np.cos(np.linspace(np.pi, 0.0, GRID_POINTS_PER_DEGREE * n + 1))
    grid[0], grid[-1] = -1.0, 1.0
    return grid


def _bisect_all(fn, lo, hi, flo):
    """Vectorised bisection on brackets [lo_i, hi_i] with f(lo_i) = flo_i."""
    while np.max(hi - lo) > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        same = (fm > 0) == (flo > 0)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _scan_roots(fn, grid):
    """All sign-change roots of fn on the ascending grid, refined by bisection."""
    vals = fn(grid)
    roots = [grid[i] for i in np.nonzero(vals == 0.0)[0]]
    sign = np.sign(vals)
    change = np.nonzero((sign[:-1] * sign[1:]) < 0)[0]
    if change.size:
        refined = _bisect_all(fn, grid[change], grid[change + 1], vals[change])
        roots.extend(refined.tolist())
    return np.sort(np.asarray(roots, dtype=float))


def _jacobi_eigenvalues(
    scheme: RecurrenceScheme, dilation: CoDilation | None, n: int, folded: bool
) -> np.ndarray | None:
    """Ascending zeros of P_n, or of S_n with P_{2n}(x) = S_n(x^2) when
    ``folded``, as eigenvalues of their n x n Jacobi matrix.

    None where the matrix path does not apply; the caller then scans.
    """
    if scheme.allow_zero_beta or (dilation is not None and not dilation.lam > 0.0):
        return None  # not an orthogonal family
    if folded and not scheme.symmetric:
        return None
    diag, off_sq = _jacobi(scheme, dilation, 0, n, folded)
    jacobi = np.zeros((n, n))
    jacobi.flat[:: n + 1] = diag
    jacobi.flat[n :: n + 1] = np.sqrt(off_sq[1:])  # sub-diagonal: eigvalsh reads the lower triangle
    return np.linalg.eigvalsh(jacobi)


def _inside(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The ascending values in [lo, hi]."""
    return values[(values >= lo) & (values <= hi)]


def find_zeros(
    scheme: RecurrenceScheme, dilation: CoDilation | None, kind: ResidualKind | None, n: int
) -> ZeroReport:
    """Roots of the degree-n residual polynomial of ``kind`` in [0, 1], or of
    P_n itself (co-dilated if requested) in [-1, 1] where ``kind`` is None."""
    _check_degree(n)
    eig = _jacobi_eigenvalues(scheme, dilation, n, folded=kind is not None and _folded(kind))
    if eig is None and kind is None:
        zeros = _scan_roots(lambda x: _normalised_at_one(scheme, dilation, n, x),
                            _polynomial_grid(n))
    elif eig is None:
        zeros = _scan_roots(lambda y: residual_eval(scheme, dilation, kind, n, y),
                            _residual_grid(n))
    elif kind is None:
        zeros = _inside(eig, -1.0, 1.0)
    else:
        y = 0.5 * (1.0 - eig) if kind is ResidualKind.SYMMETRIC else 1.0 - eig
        zeros = _inside(y[::-1], 0.0, 1.0)  # eig ascends, so y descends
    return ZeroReport(degree=n, lam=dilation.lam if dilation else 1.0, zeros=zeros)


def _golden_max(fn, lo, hi, tol):
    """Golden-section maximisation of fn on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return max(fc, fd)


def modulus_of_convergence(
    scheme: RecurrenceScheme,
    dilation: CoDilation | None,
    kind: ResidualKind,
    n: int,
    s: float,
    symmetric_weight: bool = False,
) -> float:
    """sup over [0, 1] of |y^(s/2) r_n(y)|, with an extra (1-y)^(s/2) factor
    when ``symmetric_weight`` is set.

    Approximated on the angular scan grid with golden-section refinement
    around the grid maximum.
    """
    _check_degree(n)
    s = _require_real(s, "smoothness s")
    if s < 0:
        raise ValueError("smoothness s must be >= 0")
    grid = _residual_grid(n)

    def fn(y):
        w = y ** (s / 2.0)
        if symmetric_weight:
            w = w * (1.0 - y) ** (s / 2.0)
        return np.abs(w * residual_eval(scheme, dilation, kind, n, y))

    vals = fn(grid)
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    return max(float(vals[i]), float(_golden_max(fn, lo, hi, REFINE_TOL)))
