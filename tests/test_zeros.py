import math

import numpy as np
import pytest

from codilated.cli import main
from codilated.experiments import ExperimentSpec
from codilated.orthopoly import (
    CoDilation,
    NormalizationVanishes,
    RecurrenceScheme,
    ResidualKind,
    UltrasphericalParams,
    chebyshev_u_scheme,
    eval_monic,
    numerator_scheme,
    power_basis_scheme,
    residual_eval,
    ultraspherical_scheme,
)
from codilated import zeros
from codilated.checks import limit_constant
from codilated.zeros import find_zeros, modulus_of_convergence

CHEB = chebyshev_u_scheme()
SYM = ResidualKind.SYMMETRIC
ASYM = ResidualKind.ASYMMETRIC


class TestFindZeros:
    def test_chebyshev_symmetric_full_set(self):
        # zeros of U_6 at cos(k pi / 7) map to y = (1 - cos(k pi / 7)) / 2
        report = find_zeros(CHEB, None, SYM, 6)
        expected = np.sort([(1 - math.cos(k * math.pi / 7)) / 2 for k in range(1, 7)])
        assert report.zeros.size == 6
        assert np.max(np.abs(report.zeros - expected)) < 1e-10
        assert report.smallest == pytest.approx((1 - math.cos(math.pi / 7)) / 2, abs=1e-10)

    def test_monic_t_smallest_zeros(self):
        # lam = 2 gives monic T_n with zeros at cos((2k-1) pi / (2n))
        for n, angle in [(7, math.pi / 14), (6, math.pi / 12)]:
            report = find_zeros(CHEB, CoDilation(1, 2.0), SYM, n)
            assert report.zeros.size == n
            assert report.smallest == pytest.approx((1 - math.cos(angle)) / 2, abs=1e-10)

    def test_report_structure(self):
        report = find_zeros(CHEB, CoDilation(1, 1.5), SYM, 9)
        assert report.degree == 9
        assert report.lam == 1.5
        assert np.all(np.diff(report.zeros) > 0)
        assert report.smallest == report.zeros[0]
        assert report.zeros.size <= report.degree

    def test_asymmetric_chebyshev_against_closed_form(self):
        # zeros of aR_n are y = sin^2(k pi / (2n+1)), k = 1..n
        n = 10
        report = find_zeros(CHEB, None, ASYM, n)
        expected = np.sort([math.sin(k * math.pi / (2 * n + 1)) ** 2 for k in range(1, n + 1)])
        assert report.zeros.size == n
        assert np.max(np.abs(report.zeros - expected)) < 1e-10

    def test_fewer_roots_beyond_critical(self):
        report = find_zeros(CHEB, CoDilation(1, 2.6), SYM, 40)
        assert report.zeros.size < 40

    def test_smallest_is_nan_when_none_located(self):
        report = find_zeros(CHEB, CoDilation(1, 10.0), SYM, 2)
        assert report.zeros.size == 0 and math.isnan(report.smallest)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            find_zeros(CHEB, None, SYM, 0)

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "polynomial", 0])
    def test_kind_must_be_a_residual_kind_or_none(self, kind):
        # read by `is`, "symmetric" would map the 3 zeros of P_3 by the asymmetric
        # rule and return 2 values, [0.293, 1.0]
        with pytest.raises(ValueError, match="residual kind must be a ResidualKind, not"):
            find_zeros(CHEB, None, kind, 3)


class Unbounded(Exception):
    """Raised by the stand-ins of ``no_allocation``: a degree got past the bound."""


@pytest.fixture
def no_allocation(monkeypatch):
    """Stand-ins for the three builders of degree-sized arrays (Jacobi
    coefficients, residual and polynomial scan grids), so a test of the
    bound never allocates for an unbounded degree."""

    def reached(*args, **kwargs):
        raise Unbounded

    for name in ("_jacobi", "_residual_grid", "_polynomial_grid"):
        monkeypatch.setattr(zeros, name, reached)


def locators(degree):
    """Every entry point that sizes its work by a degree."""
    return (
        lambda: find_zeros(CHEB, None, SYM, degree),
        lambda: find_zeros(CHEB, CoDilation(1, 1.5), ASYM, degree),
        lambda: find_zeros(CHEB, CoDilation(1, -1.0), SYM, degree),  # the scan path
        lambda: find_zeros(CHEB, None, None, degree),
        lambda: find_zeros(CHEB, CoDilation(1, 0.0), None, degree),  # the scan path
        lambda: modulus_of_convergence(CHEB, None, SYM, degree, 1.0),
    )


class TestDegreeBound:
    @pytest.mark.parametrize("degree", [4097, 10**6])
    def test_degree_above_bound_rejected_before_any_allocation(self, no_allocation, degree):
        for locate in locators(degree):
            with pytest.raises(ValueError, match="degree must be <= 4096"):
                locate()

    @pytest.mark.parametrize("degree", [10.5, 10.0, True, "10"])
    def test_non_integer_degree_rejected_before_any_allocation(self, no_allocation, degree):
        for locate in locators(degree):
            with pytest.raises(ValueError, match="degree must be an integer"):
                locate()
        # a sweep spec is rejected before its first solve
        with pytest.raises(ValueError, match="zero degree must be an integer"):
            ExperimentSpec(problem="diag-last", sweep=[1.0, 1.5], zero_degree=degree)
        # the evaluators take integer degrees too
        for evaluate in (lambda: eval_monic(CHEB, None, degree, 0.3),
                         lambda: residual_eval(CHEB, None, SYM, degree, 0.3)):
            with pytest.raises(ValueError, match="degree must be an integer"):
                evaluate()

    def test_bound_admits_its_own_degree(self, no_allocation):
        assert zeros.MAX_DEGREE == 4096
        with pytest.raises(Unbounded):
            find_zeros(CHEB, None, SYM, 4096)
        with pytest.raises(Unbounded):
            find_zeros(CHEB, None, None, 4096)
        with pytest.raises(Unbounded):  # a NumPy integer is a degree too
            find_zeros(CHEB, None, SYM, np.int64(4096))

    @pytest.mark.parametrize("extra", [[], ["--sweep", "1.0,1.5"], ["--kind", "polynomial"]])
    @pytest.mark.parametrize("degree", ["4097", "1000000"])
    def test_cli_degree_above_bound_exits_1(self, no_allocation, capsys, tmp_path, degree, extra):
        out = tmp_path / "zeros.csv"
        assert main(["zeros", "--degree", degree, *extra, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: degree must be <= 4096\n"
        assert not out.exists()


class TestPolynomialZeros:
    def test_chebyshev_zeros(self):
        report = find_zeros(CHEB, None, None, 8)
        expected = np.sort([math.cos(k * math.pi / 9) for k in range(1, 9)])
        assert np.max(np.abs(report.zeros - expected)) < 1e-12

    @pytest.mark.parametrize("kind", ["polynomial", "symmetric"])
    def test_underflowed_normalisation_is_an_error(self, kind, capsys, tmp_path):
        # P_1100(1) underflows to 0 at nu = 1, lam = -0.5: the scan refuses the
        # degree for P_n as for its residual kind, not reading zeros off underflow
        scheme = ultraspherical_scheme(UltrasphericalParams(1.0))
        with pytest.raises(NormalizationVanishes, match=r"P_1100\(1\) = 0.0"):
            find_zeros(scheme, CoDilation(1, -0.5), None if kind == "polynomial" else SYM, 1100)
        out = tmp_path / "zeros.csv"
        assert main(["zeros", "--kind", kind, "--nu", "1", "--lambda=-0.5", "--degree", "1100",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: P_1100(1) = 0.0\n"
        assert not out.exists()

    def test_chebyshev_limit_constants(self):
        # the numerator family of U is U itself, so L_m = 1/(m+1)
        for m in (1, 2, 3):
            assert limit_constant(CHEB, m) == pytest.approx(1 / (m + 1), abs=1e-3)


def located(scheme, dilation, kind, n):
    """Zeros from ``find_zeros``; kind None locates P_n itself."""
    return find_zeros(scheme, dilation, kind, n).zeros


def scanned(scheme, dilation, kind, n):
    """The same zeros by scan-and-bisect, the oracle of the eigenvalue path."""
    if kind is None:
        return zeros._scan_roots(
            lambda x: eval_monic(scheme, dilation, n, x), zeros._polynomial_grid(n)
        )
    return zeros._scan_roots(
        lambda y: residual_eval(scheme, dilation, kind, n, y), zeros._residual_grid(n)
    )


KINDS, KIND_IDS = [SYM, ASYM, None], ["symmetric", "asymmetric", "polynomial"]


class TestEigenvaluePath:
    @pytest.mark.parametrize("nu", [0.75, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    def test_matches_scan(self, nu, kind):
        scheme = ultraspherical_scheme(UltrasphericalParams(nu))
        for n in (1, 2, 5, 20, 60, 150, 300):
            for lam in (-1.0, 0.0, 1e-6, 0.3, 1.0, 1.9, 2 * nu - 1e-3, 2 * nu, 2 * nu + 0.2):
                dil = CoDilation(1, lam)
                matrix = zeros._jacobi_eigenvalues(scheme, dil, n, folded=kind is ASYM)
                assert (matrix is not None) == (lam > 0.0), (n, lam)
                got, want = located(scheme, dil, kind, n), scanned(scheme, dil, kind, n)
                assert got.size == want.size, (n, lam)
                if matrix is None:  # the scan itself ran
                    assert np.array_equal(got, want), (n, lam)
                elif got.size:
                    assert np.max(np.abs(got - want)) <= 1e-13, (n, lam)

    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    def test_power_basis_is_scanned(self, kind):
        # no Jacobi matrix, so the result is the scan's, bit for bit: beta == 0;
        # the even folding of a scheme with alpha != 0
        cases = [(power_basis_scheme(), dil, n)
                 for n in (1, 2, 5, 20) for dil in (None, CoDilation(1, 1.5))]
        if kind is ASYM:
            skewed = RecurrenceScheme(alpha=lambda n: 0.1, beta=lambda n: 0.25)
            cases += [(skewed, dil, n) for n in (1, 5, 20) for dil in (None, CoDilation(1, 1.5))]
        for scheme, dil, n in cases:
            assert zeros._jacobi_eigenvalues(scheme, dil, n, folded=kind is ASYM) is None
            got = located(scheme, dil, kind, n)
            assert np.array_equal(got, scanned(scheme, dil, kind, n)), (n, dil)
            assert got.size or scheme.allow_zero_beta, (n, dil)

    def test_negative_beta_rejected_by_every_reader(self):
        # beta_9 = -1 lies past the 8 coefficients the scheme checks itself:
        # no reader evaluates it, scans it or squares it into a Jacobi matrix
        tail = RecurrenceScheme(alpha=lambda n: 0.0, beta=lambda n: 0.25 if n < 9 else -1.0,
                                symmetric=True)
        for run in (lambda: eval_monic(tail, None, 10, 0.5),
                    lambda: residual_eval(tail, None, SYM, 10, 0.5),
                    lambda: residual_eval(tail, None, ASYM, 5, 0.5),
                    *(lambda kind=kind: find_zeros(tail, None, kind, 20) for kind in KINDS)):
            with pytest.raises(ValueError, match=r"beta\(9\) = -1.0 must be finite and positive"):
                run()

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("which", ["alpha", "beta"])
    def test_non_finite_coefficient_rejected(self, which, bad):
        # past the 8 coefficients the scheme checks itself: neither an empty
        # report nor a LinAlgError nor a NaN value, on either path
        coefficients = {"alpha": lambda n: 0.0, "beta": lambda n: 0.25}
        good = coefficients[which]
        coefficients[which] = lambda n: good(n) if n < 9 else bad
        scheme = RecurrenceScheme(**coefficients)
        for run in (lambda: find_zeros(scheme, None, SYM, 20),
                    lambda: find_zeros(scheme, None, ASYM, 20),
                    lambda: find_zeros(scheme, None, None, 20),
                    lambda: find_zeros(scheme, CoDilation(1, -1.0), None, 20),
                    lambda: eval_monic(scheme, None, 20, 0.5)):
            with pytest.raises(ValueError, match=f"{which}\\(9\\) = {bad} must be finite"):
                run()


def per_index_jacobi(scheme, dilation, n, folded):
    """The Jacobi eigenvalues assembled one Python call per index, the
    assembly the array path replaced; its oracle, bit for bit."""
    if scheme.allow_zero_beta or (dilation is not None and not dilation.lam > 0.0):
        return None
    if dilation is None or dilation.lam == 1.0:
        beta = scheme.beta
    else:
        def beta(k):
            return dilation.lam * scheme.beta(k) if k == dilation.m else scheme.beta(k)
    if folded:
        if not scheme.symmetric:
            return None
        b = np.array([0.0] + [beta(k) for k in range(1, 2 * n)])
        diag, off_sq = b[0::2] + b[1::2], b[1:-1:2] * b[2::2]
    else:
        diag = np.array([scheme.alpha(k) for k in range(n)])
        off_sq = np.array([beta(k) for k in range(1, n)])
    if not np.all(off_sq > 0.0):
        return None
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(np.sqrt(off_sq), -1))


def per_index_located(eig, kind):
    """Zeros from the eigenvalues of ``per_index_jacobi``, mapped and sorted as before."""
    if kind is None:
        values, lo, hi = eig, -1.0, 1.0
    else:
        values, lo, hi = 0.5 * (1.0 - eig) if kind is SYM else 1.0 - eig, 0.0, 1.0
    return np.sort(values[(values >= lo) & (values <= hi)])


ORACLE_SCHEMES = {
    **{f"ultraspherical-{nu}": ultraspherical_scheme(UltrasphericalParams(nu))
       for nu in (-0.25, 0.0, 0.5, 1.0, 2.0, 3.5)},
    "chebyshev-u": CHEB,
    "numerator": numerator_scheme(ultraspherical_scheme(UltrasphericalParams(2.0)), 3),
}


class TestArrayAssembly:
    """The array-built Jacobi matrix equals the per-index one bit for bit."""

    @pytest.mark.parametrize("name", ORACLE_SCHEMES)
    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    def test_matches_per_index_oracle(self, name, kind):
        scheme = ORACLE_SCHEMES[name]
        dilations = [None, CoDilation(1, 1.0)] + [
            CoDilation(m, lam) for m in (1, 2) for lam in (0.4, 1.7)] + [CoDilation(200, 1.7)]
        for n in (1, 2, 3, 5, 40, 150):
            for dil in dilations:
                got = zeros._jacobi_eigenvalues(scheme, dil, n, folded=kind is ASYM)
                want = per_index_jacobi(scheme, dil, n, folded=kind is ASYM)
                assert got.tobytes() == want.tobytes(), (n, dil)
                assert located(scheme, dil, kind, n).tobytes() == per_index_located(
                    want, kind).tobytes(), (n, dil)

    def test_dilation_beyond_matrix_is_undilated(self):
        scheme = ultraspherical_scheme(UltrasphericalParams(2.5))
        for kind in KINDS:
            plain = located(scheme, None, kind, 5)
            assert np.array_equal(located(scheme, CoDilation(200, 1.5), kind, 5), plain)
            # beta_m is the last entry the matrix holds at m = n - 1 (2n - 1 folded)
            last = 9 if kind is ASYM else 4
            assert not np.array_equal(located(scheme, CoDilation(last, 1.5), kind, 5), plain)
            assert np.array_equal(located(scheme, CoDilation(last + 1, 1.5), kind, 5), plain)

    def test_cli_dilation_beyond_degree(self, capsys):
        base = ["zeros", "--nu", "2.5", "--kind", "polynomial", "--degree", "5"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert main(base + ["--m", "200", "--lambda", "1.5"]) == 0
        assert capsys.readouterr().out == plain
        assert main(base + ["--m", "2", "--lambda", "1.5"]) == 0
        assert capsys.readouterr().out != plain

    def test_int_only_scheme_falls_back_per_index(self):
        # a scheme whose beta branches on n cannot take an array; it still
        # gets its Jacobi matrix, and a constant lambda gets the right size
        branching = RecurrenceScheme(
            alpha=lambda n: 0.0, beta=lambda n: 0.3 if n < 4 else 0.25, symmetric=True)
        constant = RecurrenceScheme(alpha=lambda n: 0.0, beta=lambda n: 0.25, symmetric=True)
        for scheme in (branching, constant):
            for kind in KINDS:
                for dil in (None, CoDilation(2, 1.5)):
                    got = zeros._jacobi_eigenvalues(scheme, dil, 12, folded=kind is ASYM)
                    assert got.tobytes() == per_index_jacobi(
                        scheme, dil, 12, folded=kind is ASYM).tobytes()
        assert np.array_equal(located(constant, None, SYM, 6), located(CHEB, None, SYM, 6))


class TestModulus:
    def test_s_zero_at_least_one(self):
        for kind in (SYM, ASYM):
            assert modulus_of_convergence(CHEB, None, kind, 9, 0.0) >= 1.0

    def test_landweber_plain_weight_dominated_at_one(self):
        # sup |y (1-2y)^n| sits at y = 1: the symmetric weight is the point
        val = modulus_of_convergence(power_basis_scheme(), None, SYM, 8, 2.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_landweber_symmetric_weight_against_dense_grid(self):
        n, s = 8, 2.0
        val = modulus_of_convergence(power_basis_scheme(), None, SYM, n, s, symmetric_weight=True)
        y = np.linspace(0.0, 1.0, 2_000_001)
        dense = np.max(y * (1 - y) * np.abs((1 - 2 * y) ** n))
        assert val == pytest.approx(dense, rel=1e-8)
        assert val >= dense - 1e-12

    def test_chebyshev_symmetric_modulus_within_bound(self):
        # epsilon_1^S(n) <= (1 + |1-lam|)/(2-lam) / (n-1)
        for lam in (0.0, 1.0, 1.5):
            dil = None if lam == 1.0 else CoDilation(1, lam)
            for n in (8, 16, 32):
                val = modulus_of_convergence(CHEB, dil, SYM, n, 1.0, symmetric_weight=True)
                assert val <= (1 + abs(1 - lam)) / (2 - lam) / (n - 1) + 1e-12

    def test_refinement_never_below_grid(self):
        scheme = ultraspherical_scheme(UltrasphericalParams(2.0))
        val = modulus_of_convergence(scheme, CoDilation(1, 3.0), ASYM, 16, 2.0)
        assert val > 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            modulus_of_convergence(CHEB, None, SYM, 0, 1.0)
        with pytest.raises(ValueError):
            modulus_of_convergence(CHEB, None, SYM, 3, -1.0)
        with pytest.raises(ValueError):
            modulus_of_convergence(CHEB, None, SYM, 3, math.nan)
        scheme = ultraspherical_scheme(UltrasphericalParams(1.0))
        with pytest.raises(ValueError, match="s must be finite"):
            modulus_of_convergence(scheme, None, ASYM, 8, math.inf)

    def test_s_and_kind_must_be_of_their_types(self):
        # a bool would run as s = 1, and a string kind would give the modulus of
        # the other kind
        for s in (True, "1", None):
            with pytest.raises(ValueError, match="smoothness s must be real"):
                modulus_of_convergence(CHEB, None, SYM, 3, s)
        with pytest.raises(ValueError, match="residual kind must be a ResidualKind, not"):
            modulus_of_convergence(CHEB, None, "symmetric", 3, 1.0)
