import math
import sys
import threading
import warnings
from fractions import Fraction
from itertools import count, islice

import numpy as np
import pytest

from codilated.experiments import table1_rows
from codilated.orthopoly import (
    _CHUNK,
    _MEMO_CHUNKS,
    MAX_NU,
    CoDilation,
    DivergentNormalization,
    NormalizationVanishes,
    RecurrenceScheme,
    ResidualKind,
    UltrasphericalParams,
    _closed_form_stream,
    _nu_factors,
    _r_values,
    _recursive_coefficients,
    chebyshev_closed,
    chebyshev_u_scheme,
    critical_constants,
    eval_codilated_via_representation,
    eval_monic,
    limit_ratio,
    mu_closed,
    mu_recursive,
    numerator_quotient_at_one,
    numerator_scheme,
    power_basis_scheme,
    residual_eval,
    sup_bound_codilated,
    ultraspherical_beta,
    ultraspherical_scheme,
)

CHEB = chebyshev_u_scheme()
SYM = ResidualKind.SYMMETRIC
ASYM = ResidualKind.ASYMMETRIC
# a scheme whose beta branches on n, so it takes no index array
INT_ONLY = RecurrenceScheme(
    alpha=lambda n: 0.0, beta=lambda n: 0.2 if n < 4 else 0.25, symmetric=True)


def per_index_beta(scheme, dilation, k):
    """beta_k, dilated at k = m, one Python call per index; beta_k = 0 for k <= 0."""
    if k < 1:
        return 0.0
    b = scheme.beta(k)
    return dilation.lam * b if dilation is not None and k == dilation.m else b


def exact_quotient_at_one(nu, n):
    """Q_{n-1}(1)/P_n(1) in exact rationals, rounded once: the monic
    ultraspherical recurrence at x = 1, beta_k = k (k + 2 nu - 1) / (4 (k + nu)
    (k + nu - 1)), for P and for its numerator polynomials Q (betas shifted by
    one), from P_0(1) = P_1(1) = 1."""
    nu = Fraction(nu)

    def at_one(degree, shift):
        p_prev = p = Fraction(1)
        for k in range(shift + 1, shift + degree):
            p_prev, p = p, p - k * (k + 2 * nu - 1) / (4 * (k + nu) * (k + nu - 1)) * p_prev
        return p

    return float(at_one(n - 1, 1) / at_one(n, 0))


def textbook_recursive(scheme, dilation, kind):
    """(a_n, b_n, mu_{n+1}), n = 0, 1, ..., one item at a time in Python
    floats: mu_{n+1} = 1/((1 - d_n) - e_n mu_n), a_n = (1 - d_n) mu_{n+1} - 1,
    with d_n = alpha_n, e_n = beta_n (symmetric) or the even fold's
    d_n = beta_{2n} + beta_{2n+1}, e_n = beta_{2n-1} beta_{2n} (asymmetric)."""
    beta = lambda k: per_index_beta(scheme, dilation, k)  # noqa: E731
    mu = 0.0
    for n in count():
        if kind is SYM:
            d, e, scale = scheme.alpha(n), beta(n), 2.0
        else:
            d, e, scale = beta(2 * n) + beta(2 * n + 1), beta(2 * n - 1) * beta(2 * n), 1.0
        mu = 1.0 / ((1.0 - d) - e * mu)
        yield (1.0 - d) * mu - 1.0, scale * mu, mu


def textbook_closed_form(nu, lam, symmetric):
    """(a_n, b_n, mu_{n+1}), n = 0, 1, ..., of the co-dilated (m = 1)
    ultraspherical family, one item at a time from the explicit formulas in
    Python floats: mu_{n+1} = fac(n) ((2 nu - lam) + (lam - 1) R(n'))
    / ((2 nu - lam) + (lam - 1) R(n' + s)) with s = 1 (symmetric) or 2
    (asymmetric) and n' = s n."""
    c0, c1 = 2.0 * nu - lam, lam - 1.0
    r = [2.0 * nu]  # R(0), R(1), ...: R(j) = R(j - 1) j / (j - 1 + 2 nu)

    def big_r(j):
        while len(r) <= j:
            r.append(r[-1] * len(r) / (len(r) - 1 + 2.0 * nu))
        return r[j]

    step = 1 if symmetric else 2
    num = c0 + c1 * big_r(step)
    if symmetric:
        yield 0.0, 2.0, 1.0
    else:
        amu = (2.0 * nu + 2.0) / (2.0 * nu + 2.0 - lam)
        yield 0.0, amu, amu
    for n in count(1):
        den = c0 + c1 * big_r(step * (n + 1))
        if symmetric:
            mu = 2.0 * (n + nu) / (n + 2.0 * nu) * num / den
            yield mu - 1.0, 2.0 * mu, mu
        else:
            k = 2 * n
            mu = 4.0 * (k + nu) * (k + nu + 1.0) / ((k + 2.0 * nu) * (k + 2.0 * nu + 1.0)) * num / den
            damp = 1.0 - (4.0 * n * n + 4.0 * nu * n + nu - 1.0) / (
                2.0 * (k + nu + 1.0) * (k + nu - 1.0)
            )
            yield damp * mu - 1.0, mu, mu
        num = den


class TestEvalMonic:
    def test_chebyshev_value_at_one(self):
        # U_n(1) = (n+1)/2^n
        assert eval_monic(CHEB, None, 2, 1.0) == 0.75

    def test_power_basis(self):
        assert eval_monic(power_basis_scheme(), None, 3, 0.5) == 0.125

    def test_dilated_by_hand(self):
        # P_2* = x^2 - lam/4, P_3* = x^3 - x/4 - lam x/4, at x = 1, lam = 1.5
        assert eval_monic(CHEB, CoDilation(1, 1.5), 3, 1.0) == pytest.approx(0.375, abs=1e-15)

    def test_vectorised_matches_scalar(self):
        xs = np.linspace(-1, 1, 7)
        vec = eval_monic(CHEB, CoDilation(2, 0.5), 9, xs)
        for x, v in zip(xs, vec):
            assert eval_monic(CHEB, CoDilation(2, 0.5), 9, float(x)) == v

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            eval_monic(CHEB, None, -1, 0.0)

    def test_matches_per_index_recurrence(self):
        # bit for bit; beta_m is the last coefficient read at m = n - 1, unread beyond
        xs = np.linspace(-1.0, 1.0, 11)
        for scheme in (ultraspherical_scheme(UltrasphericalParams(2.0)), INT_ONLY):
            for n in (2, 5, 129, 300):
                for m in (n - 1, n, n + 5):
                    dil = CoDilation(m, 1.5)
                    p_prev, p = np.ones_like(xs), xs - scheme.alpha(0)
                    for k in range(1, n):
                        p_prev, p = p, ((xs - scheme.alpha(k)) * p
                                        - per_index_beta(scheme, dil, k) * p_prev)
                    assert eval_monic(scheme, dil, n, xs).tobytes() == p.tobytes(), (n, m)


class TestChebyshevClosed:
    def test_u_at_one(self):
        assert chebyshev_closed("U", 6, 1.0) == 7 / 64

    def test_t_at_zero(self):
        assert chebyshev_closed("T", 4, 0.0) == pytest.approx(0.125, abs=1e-15)

    def test_star_is_combination(self):
        lam = 1.5
        expected = 0.5 * chebyshev_closed("U", 6, 0.5) + 0.5 * chebyshev_closed("T", 6, 0.5)
        assert chebyshev_closed("star", 6, 0.5, lam=lam) == pytest.approx(expected, abs=1e-16)

    def test_rejects_outside_interval(self):
        with pytest.raises(ValueError):
            chebyshev_closed("U", 3, 1.5)
        for kind in ("T", "U", "star"):  # NaN too
            for x in (math.nan, [0.5, math.nan]):
                with pytest.raises(ValueError, match=r"\|x\| <= 1"):
                    chebyshev_closed(kind, 3, x, lam=1.5)

    @pytest.mark.parametrize("n", [-1, 2.5, True, "2"])
    def test_rejects_bad_degree(self, n):
        for kind in ("T", "U", "star"):
            with pytest.raises(ValueError, match="degree n"):
                chebyshev_closed(kind, n, 0.5, lam=1.5)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind 'V'"):
            chebyshev_closed("V", 3, 0.5)

    def test_star_needs_lam(self):
        with pytest.raises(ValueError):
            chebyshev_closed("star", 3, 0.5)
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite dilation factor"):
                chebyshev_closed("star", 3, 0.5, lam=lam)


class TestNumeratorScheme:
    def test_chebyshev_shift_invariant(self):
        numer = numerator_scheme(CHEB, 1)
        assert all(numer.beta(n) == 0.25 for n in range(1, 20))

    def test_ultraspherical_shift(self):
        scheme = ultraspherical_scheme(UltrasphericalParams(2.0))
        numer = numerator_scheme(scheme, 1)
        assert numer.beta(1) == pytest.approx(5 / 24, abs=1e-16)

    def test_nu_one_any_shift(self):
        scheme = ultraspherical_scheme(UltrasphericalParams(1.0))
        numer = numerator_scheme(scheme, 2)
        assert all(numer.beta(n) == pytest.approx(0.25, abs=1e-16) for n in range(1, 20))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            numerator_scheme(CHEB, 0)
        for m in (1.5, 1.0, True):  # 1.5 would shift beta to non-integer indices
            with pytest.raises(ValueError, match="numerator shift m must be an integer"):
                numerator_scheme(CHEB, m)
        skew = RecurrenceScheme(alpha=lambda n: 0.1, beta=lambda n: 0.25)
        with pytest.raises(ValueError):
            numerator_scheme(skew, 1)


class TestRepresentation:
    def test_hand_value(self):
        assert eval_codilated_via_representation(CHEB, CoDilation(1, 1.5), 3, 1.0) == 0.375

    def test_identity_dilation(self):
        for n in (0, 3, 5):
            assert eval_codilated_via_representation(
                CHEB, CoDilation(1, 1.0), n, 0.3
            ) == eval_monic(CHEB, None, n, 0.3)

    def test_monic_t_zero(self):
        # lam = 2 turns the family into monic T; cos(pi/14) is a zero of T_7
        x = math.cos(math.pi / 14)
        assert abs(eval_codilated_via_representation(CHEB, CoDilation(1, 2.0), 7, x)) < 1e-10
        assert abs(eval_monic(CHEB, CoDilation(1, 2.0), 7, x)) < 1e-10


class TestUltrasphericalBeta:
    def test_nu_one_is_quarter(self):
        params = UltrasphericalParams(1.0)
        assert all(ultraspherical_beta(params, n) == 0.25 for n in range(1, 30))

    def test_nu_two_values(self):
        params = UltrasphericalParams(2.0)
        assert ultraspherical_beta(params, 1) == pytest.approx(1 / 6, abs=1e-16)
        assert ultraspherical_beta(params, 2) == pytest.approx(5 / 24, abs=1e-16)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            ultraspherical_beta(UltrasphericalParams(1.0), 0)
        params = UltrasphericalParams(2.0)
        for n in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="beta index n must be an integer"):
                ultraspherical_beta(params, n)
        for n in (np.array([1.0, 2.5]), np.array([True, True])):
            with pytest.raises(ValueError, match="integer dtype"):
                ultraspherical_beta(params, n)

    def test_positive_even_near_singular_nu(self):
        params = UltrasphericalParams(-0.25)
        assert all(ultraspherical_beta(params, n) > 0 for n in range(1, 50))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            UltrasphericalParams(-0.5)
        with pytest.raises(ValueError):
            UltrasphericalParams(0.5).require_closed_forms()


class TestNuBound:
    def test_formulas_finite_at_the_bound(self):
        params = UltrasphericalParams(MAX_NU)
        for kind in (SYM, ASYM):
            for lam in (-1.0, 1.0, 1.5, 1.9 * MAX_NU):
                assert np.all(np.isfinite(mu_closed(params, lam, 300, kind)))
        scheme = ultraspherical_scheme(params)  # checks beta_1 .. beta_8 finite and positive
        for kind in (SYM, ASYM):
            assert np.all(np.isfinite(mu_recursive(scheme, CoDilation(1, 1.5), 300, kind)))

    @pytest.mark.parametrize("nu", [np.nextafter(MAX_NU, math.inf), 1e200, 1e308, math.inf])
    def test_rejected_above_the_bound(self, cold_memo, nu):
        # far enough above it the closed forms overflow to a NaN mu, whose
        # NaN carries would each take a chunk of the cache
        before = cold_memo.cache_info()
        message = "nu must be finite" if nu == math.inf else r"nu <= MAX_NU = 1e\+150"
        for kind in (SYM, ASYM):
            with pytest.raises(ValueError, match=message):
                mu_closed(UltrasphericalParams(nu), 1.0, 1000, kind)
        assert cold_memo.cache_info() == before


STOCK_SCHEMES = {
    **{f"ultraspherical-{nu}": ultraspherical_scheme(UltrasphericalParams(nu))
       for nu in (-0.25, 0.0, 0.5, 1.0, 2.0, 3.5)},
    "chebyshev-u": CHEB,
    "numerator": numerator_scheme(ultraspherical_scheme(UltrasphericalParams(2.0)), 3),
    "power-basis": power_basis_scheme(),
}


class TestArrayCoefficients:
    """alpha and beta of every stock scheme take an index array and give,
    entry for entry, the float of the int index, bit for bit."""

    @pytest.mark.parametrize("name", STOCK_SCHEMES)
    def test_array_equals_per_index(self, name):
        scheme = STOCK_SCHEMES[name]
        for coefficient, first in ((scheme.alpha, 0), (scheme.beta, 1)):
            idx = np.arange(first, first + 400)
            got = coefficient(idx)
            want = np.array([coefficient(int(k)) for k in idx])
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
            # any order and repetition, not only a contiguous range
            shuffled = np.random.default_rng(3).permutation(np.repeat(idx[:50], 2))
            assert coefficient(shuffled).tobytes() == np.array(
                [coefficient(int(k)) for k in shuffled]).tobytes()

    def test_int_gives_python_float(self):
        # CSV text is written from repr(); an np.float64 would change it
        for name, scheme in STOCK_SCHEMES.items():
            assert type(scheme.beta(1)) is float, name
            assert type(scheme.beta(7)) is float, name
            assert type(scheme.alpha(0)) is float, name

    def test_reduced_first_entry_in_array(self):
        # nu = 0: the general form is 0/0 at n = 1; the array takes the reduced 1/2
        params = UltrasphericalParams(0.0)
        with np.errstate(all="raise"):
            got = ultraspherical_beta(params, np.array([1, 2, 1, 5]))
        assert got.tolist() == [0.5, 0.25, 0.5, 0.25]

    def test_array_rejects_index_zero(self):
        params = UltrasphericalParams(2.0)
        with pytest.raises(ValueError):
            ultraspherical_beta(params, np.array([3, 0, 2]))
        assert ultraspherical_beta(params, np.arange(1, 1)).shape == (0,)


class TestResidualEval:
    def test_landweber_zero_at_half(self):
        assert residual_eval(power_basis_scheme(), None, SYM, 2, 0.5) == 0.0

    def test_normalisation_exact(self):
        for scheme, kind in [(CHEB, SYM), (CHEB, ASYM), (power_basis_scheme(), SYM)]:
            assert residual_eval(scheme, None, kind, 7, 0.0) == 1.0

    def test_chebyshev_smallest_zero(self):
        y = (1 - math.cos(math.pi / 7)) / 2
        assert abs(residual_eval(CHEB, None, SYM, 6, y)) < 1e-10

    def test_rejects_outside_unit_interval(self):
        for y in (1.2, math.nan, np.array([0.25, math.nan, 0.75])):
            for kind in (SYM, ASYM):
                with pytest.raises(ValueError):
                    residual_eval(CHEB, None, kind, 3, y)

    def test_normalisation_vanishes_deep_underflow(self):
        # U_n(1) = (n+1)/2^n underflows past n ~ 1020
        with pytest.raises(NormalizationVanishes):
            residual_eval(CHEB, None, SYM, 1200, 0.3)


class TestMuRecursive:
    def test_chebyshev_mu2(self):
        mus = mu_recursive(CHEB, None, 2)
        assert mus[0] == 1.0
        assert mus[1] == pytest.approx(4 / 3, abs=1e-15)

    def test_asymmetric_start_values(self):
        amus = mu_recursive(CHEB, None, 2, ASYM)
        assert amus[0] == pytest.approx(4 / 3, abs=1e-15)
        assert amus[1] == pytest.approx(12 / 5, abs=1e-15)

    def test_landweber_all_ones(self):
        assert np.all(mu_recursive(power_basis_scheme(), None, 20) == 1.0)

    def test_matches_value_ratios(self):
        dil = CoDilation(1, 1.5)
        mus = mu_recursive(CHEB, dil, 12)
        for n in range(11):
            ratio = eval_monic(CHEB, dil, n, 1.0) / eval_monic(CHEB, dil, n + 1, 1.0)
            assert mus[n] == pytest.approx(ratio, rel=1e-13)
        amus = mu_recursive(CHEB, dil, 6, ASYM)
        for n in range(6):
            ratio = eval_monic(CHEB, dil, 2 * n, 1.0) / eval_monic(CHEB, dil, 2 * n + 2, 1.0)
            assert amus[n] == pytest.approx(ratio, rel=1e-13)

    def test_positive_below_critical(self):
        for kind in (SYM, ASYM):
            mus = mu_recursive(CHEB, CoDilation(1, 1.99), 500, kind)
            assert np.all(mus > 0)

    def test_divergence_beyond_critical(self):
        with pytest.raises(DivergentNormalization):
            mu_recursive(CHEB, CoDilation(1, 2.5), 500)
        with pytest.raises(DivergentNormalization):
            mu_recursive(CHEB, CoDilation(1, 2.5), 500, ASYM)


class TestRecursiveStream:
    @pytest.mark.parametrize("kind", [SYM, ASYM], ids=["symmetric", "asymmetric"])
    def test_items_equal_per_item_recursion(self, kind):
        # 400 items span four chunks of coefficients read as arrays; beta_m lies
        # in a later chunk from m = 128 (symmetric) or m = 255 (asymmetric,
        # whose beta_255 both of the first two chunks read), and m = 200, 257
        # are an even and an odd index under the fold; lam stays below the
        # constant-beta family's critical dilation 1 + 1/m
        dilations = [None] + [CoDilation(m, lam) for m in (1, 2, 128, 200, 255, 257)
                              for lam in (0.5, 1.002)]
        for scheme in (ultraspherical_scheme(UltrasphericalParams(2.0)), INT_ONLY):
            for dil in dilations:
                got = list(islice(_recursive_coefficients(scheme, dil, kind), 400))
                assert got == list(islice(textbook_recursive(scheme, dil, kind), 400)), dil
                assert all(type(x) is float for item in got for x in item)


def textbook_items(nu, lam, symmetric, count):
    return list(islice(textbook_closed_form(nu, lam, symmetric), count))


def chunks_read(items):
    """Chunks of nu-only factors that the first ``items`` items of a stream read."""
    return -(-(items - 1) // _CHUNK)


@pytest.fixture
def cold_memo():
    """The cache of nu-only factors, emptied before and after the test."""
    _nu_factors.cache_clear()
    yield _nu_factors
    _nu_factors.cache_clear()


class TestClosedFormStream:
    LAMS = {0.51: [-1.0, 0.0, 0.5, 1.0, 1.019], 1.0: [-0.5, 0.5, 1.0, 1.5, 1.99],
            2.0: [0.0, 1.0, 3.0, 3.99, 3.99998], 3.7: [-2.0, 1.0, 7.3],
            math.pi / 2: [-1.0, 0.3, 1.0, 3.1]}

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("nu", sorted(LAMS))
    def test_items_equal_textbook_formulas(self, nu, symmetric):
        # 400 items span several chunks of the factors formed as arrays
        lams = self.LAMS[nu]
        want = [list(islice(textbook_closed_form(nu, lam, symmetric), 400)) for lam in lams]
        for lam, items in zip(lams, want):
            got = list(islice(_closed_form_stream(nu, lam, symmetric), 400))
            assert got == items
            assert all(type(x) is float for item in got for x in item)
        block = islice(_closed_form_stream(nu, np.array(lams), symmetric), 400)
        for n, item in enumerate(block):  # a_0 (and the symmetric b_0, mu_1) stay floats
            for j in range(3):
                entries = np.broadcast_to(item[j], len(lams))
                assert np.array_equal(entries, [items[n][j] for items in want])

    # streams that share the cache of nu-only factors give the textbook items
    # whichever of them formed the factors, and the cache stays bounded
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_two_streams_interleaved(self, cold_memo, symmetric):
        lams = (1.0, 3.99)
        streams = [_closed_form_stream(2.0, lam, symmetric) for lam in lams]
        got = [[], []]
        for turn, taken in enumerate((5, 300, 1, 200, 50)):  # each forms chunks the other reads
            for i in (0, 1) if turn % 2 == 0 else (1, 0):
                got[i].extend(islice(streams[i], taken))
        for items, lam in zip(got, lams):
            assert items == textbook_items(2.0, lam, symmetric, len(items))

    @pytest.mark.parametrize("block_first", [False, True])
    def test_block_and_single_streams_share_factors(self, cold_memo, block_first):
        lams = [0.0, 1.0, 1.9]
        want = [textbook_items(1.0, lam, False, 500) for lam in lams]
        order = ["block", "single"] if block_first else ["single", "block"]
        for which in order:
            if which == "single":
                for lam, items in zip(lams, want):
                    assert list(islice(_closed_form_stream(1.0, lam, False), 500)) == items
            else:
                block = islice(_closed_form_stream(1.0, np.array(lams)[:, None], False), 500)
                for n, item in enumerate(block):
                    for j in range(3):
                        entries = np.broadcast_to(item[j], (len(lams), 1)).ravel()
                        assert np.array_equal(entries, [items[n][j] for items in want])
        info = cold_memo.cache_info()
        assert (info.misses, info.hits) == (chunks_read(500), 3 * chunks_read(500))

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_stream_longer_than_the_cache(self, cold_memo, symmetric):
        total = (_MEMO_CHUNKS + 3) * _CHUNK  # the first pass drops its first chunks
        want = textbook_items(1.5, 2.9, symmetric, total)
        for _ in range(2):
            assert list(islice(_closed_form_stream(1.5, 2.9, symmetric), total)) == want
            assert cold_memo.cache_info().currsize == _MEMO_CHUNKS

    def test_stream_whose_key_was_dropped(self, cold_memo):
        stream = _closed_form_stream(2.0, 3.9, False)
        items = list(islice(stream, 300))
        cold_memo.cache_clear()  # the stream's next chunks are formed afresh
        items += islice(stream, 400)
        assert items == textbook_items(2.0, 3.9, False, 700)
        assert cold_memo.cache_info().currsize == chunks_read(700) - chunks_read(300)

    def test_streams_in_threads(self, cold_memo):
        # more threads than cores, switching often: every thread must read
        # the same bits for a chunk, whichever thread formed it
        lams = [0.0, 1.0, 2.5, 3.9, 3.99, 3.999]
        got, interval = {}, sys.getswitchinterval()

        def consume(lam):
            got[lam] = list(islice(_closed_form_stream(2.0, lam, False), 1500))

        threads = [threading.Thread(target=consume, args=(lam,)) for lam in lams]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {lam: textbook_items(2.0, lam, False, 1500) for lam in lams}
        assert cold_memo.cache_info().currsize == chunks_read(1500)

    def test_table1_cold_and_warm(self, cold_memo):
        cold = table1_rows()
        mu_closed(UltrasphericalParams(2.0), 3.9, 10**5, ASYM)
        assert table1_rows() == cold

    def test_memo_arrays_are_read_only(self, cold_memo):
        for symmetric, step in ((True, 1), (False, 2)):
            carry = next(islice(_r_values(2.0), step, None))  # R(step), as the stream's
            factors = cold_memo(2.0, symmetric, 1, carry)
            assert cold_memo(2.0, symmetric, 1, carry) is factors  # a hit
            arrays = [a for a in factors if a is not None]
            assert len(arrays) == 1 + step  # the symmetric damping is None
            assert not any(a.flags.writeable for a in arrays)
            with pytest.raises(ValueError, match="read-only"):
                arrays[0][0] = 0.0

    def test_memo_stays_within_its_bound(self, cold_memo):
        # acceptance criterion 4's calls: ten keys, each read to n = 10**5
        for nu in (0.75, 1.0, 1.5, 2.0, 3.0):
            for kind in (SYM, ASYM):
                mu_closed(UltrasphericalParams(nu), 1.9 * nu, 10**5, kind)
        info = cold_memo.cache_info()
        assert info.maxsize == _MEMO_CHUNKS < info.misses
        assert info.currsize <= info.maxsize
        assert info.maxsize * 3 * _CHUNK * 8 == 3 * 2**20  # the 3 MiB stated


def mu_at(params, lam, n, kind=SYM):
    """mu_{n+1} (symmetric) or amu_{n+1} (asymmetric), read from ``mu_closed``."""
    return mu_closed(params, lam, n + 1, kind)[n]


class TestMuClosed:
    def test_nu_one_lam_one(self):
        assert mu_at(UltrasphericalParams(1.0), 1.0, 1) == pytest.approx(4 / 3, abs=1e-15)

    def test_nu_one_general_formula(self):
        params = UltrasphericalParams(1.0)
        for lam in (-0.5, 0.5, 1.9):
            for n in (1, 5, 40):
                expected = 2 * ((2 - lam) * n + lam) / ((2 - lam) * n + 2)
                assert mu_at(params, lam, n) == pytest.approx(expected, rel=1e-14)

    def test_nu_two_lam_one(self):
        assert mu_at(UltrasphericalParams(2.0), 1.0, 1) == pytest.approx(6 / 5, abs=1e-15)

    def test_start_value(self):
        assert mu_closed(UltrasphericalParams(1.5), 0.5, 1)[0] == 1.0

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            mu_closed(UltrasphericalParams(0.4), 0.5, 2)
        with pytest.raises(ValueError):
            mu_closed(UltrasphericalParams(1.0), 2.0, 2)

    @pytest.mark.parametrize("kind", [SYM, ASYM])
    def test_both_readers_reject_empty_range(self, kind):
        for n_max in (0, -1):
            with pytest.raises(ValueError, match="n_max must be >= 1"):
                mu_closed(UltrasphericalParams(1.0), 1.0, n_max, kind)
            with pytest.raises(ValueError, match="n_max must be >= 1"):
                mu_recursive(ultraspherical_scheme(UltrasphericalParams(1.0)),
                             CoDilation(1, 1.0), n_max, kind)
        for n_max in (True, 2.0, 2.5):
            with pytest.raises(ValueError, match="n_max must be an integer"):
                mu_closed(UltrasphericalParams(2.0), 1.0, n_max, kind)
            with pytest.raises(ValueError, match="n_max must be an integer"):
                mu_recursive(CHEB, None, n_max, kind)


class TestAmuClosed:
    def test_nu_one_lam_one(self):
        assert mu_at(UltrasphericalParams(1.0), 1.0, 1, ASYM) == pytest.approx(2.4, abs=1e-15)

    def test_nu_one_general_formula(self):
        params = UltrasphericalParams(1.0)
        for lam in (0.0, 1.5, 1.9):
            for n in (1, 7, 33):
                expected = 4 * ((2 - lam) * 2 * n + lam) / ((2 - lam) * 2 * n + 4 - lam)
                assert mu_at(params, lam, n, ASYM) == pytest.approx(expected, rel=1e-14)

    def test_start_value(self):
        assert mu_at(UltrasphericalParams(1.0), 0.0, 0, ASYM) == 1.0
        for nu in (0.75, 1.0, 2.0):
            for lam in (0.5, 1.9 * nu):
                expected = (2 * nu + 2) / (2 * nu + 2 - lam)
                assert mu_at(UltrasphericalParams(nu), lam, 0, ASYM) == pytest.approx(
                    expected, rel=1e-15
                )

    def test_product_of_mu(self):
        params = UltrasphericalParams(2.0)
        for n in (1, 4, 19):
            prod = mu_at(params, 1.5, 2 * n) * mu_at(params, 1.5, 2 * n + 1)
            assert mu_at(params, 1.5, n, ASYM) == pytest.approx(prod, rel=1e-13)


class TestConstants:
    def test_critical_constants(self):
        c1 = critical_constants(UltrasphericalParams(1.0))
        assert (c1.L1, c1.lambda_critical) == (0.5, 2.0)
        c_half = critical_constants(UltrasphericalParams(0.5))
        assert (c_half.L1, c_half.lambda_critical) == (0.0, 1.0)
        c2 = critical_constants(UltrasphericalParams(2.0))
        assert (c2.L1, c2.lambda_critical) == (0.75, 4.0)

    def test_critical_dilation_is_the_admissibility_bound(self):
        # 1/(1 - L1) misses 2 nu in the last bit for most of these nu
        for nu in [0.667781619080954, *np.linspace(0.5001, 10, 20000).tolist()]:
            params = UltrasphericalParams(nu)
            crit = critical_constants(params).lambda_critical
            assert crit == 2.0 * nu
            assert abs(limit_ratio(params, crit)) < 1e-12 * nu  # zero up to rounding
            with pytest.raises(ValueError):
                sup_bound_codilated(params, crit)
            assert sup_bound_codilated(params, math.nextafter(crit, 0.0)) > 0.0

    def test_numerator_quotient_nu_one(self):
        params = UltrasphericalParams(1.0)
        assert numerator_quotient_at_one(params, 1) == pytest.approx(1.0, abs=1e-15)
        assert numerator_quotient_at_one(params, 3) == pytest.approx(1.5, abs=1e-15)

    def test_numerator_quotient_rejects_bad_index(self):
        params = UltrasphericalParams(2.0)
        with pytest.raises(ValueError, match="quotient index n must be >= 1"):
            numerator_quotient_at_one(params, 0)
        for n in (True, 2.0, 2.5):
            with pytest.raises(ValueError, match="quotient index n must be an integer"):
                numerator_quotient_at_one(params, n)

    def test_numerator_quotient_against_recurrence(self):
        for nu in (0.75, 1.0, 2.0):
            params = UltrasphericalParams(nu)
            scheme = ultraspherical_scheme(params)
            numer = numerator_scheme(scheme, 1)
            for n in (1, 5, 20):
                direct = eval_monic(numer, None, n - 1, 1.0) / eval_monic(scheme, None, n, 1.0)
                assert numerator_quotient_at_one(params, n) == pytest.approx(direct, rel=1e-12)
        # near nu = 1/2, where (2 nu - R(n))/(2 nu - 1) cancels, against exact rationals
        for nu in (math.nextafter(0.5, 1.0), 0.500000001, 0.5 + 2.0**-40):
            for n in (1, 5, 20):
                exact = exact_quotient_at_one(nu, n)
                got = numerator_quotient_at_one(UltrasphericalParams(nu), n)
                assert got == pytest.approx(exact, rel=1e-14)

    def test_numerator_quotient_limit(self):
        # consistency with 1/L1 = 2 for nu = 1
        assert abs(numerator_quotient_at_one(UltrasphericalParams(1.0), 10**5) - 2.0) < 1e-4

    def test_limit_ratio_values(self):
        assert limit_ratio(UltrasphericalParams(1.0), 2.0) == pytest.approx(0.0, abs=1e-15)
        assert limit_ratio(UltrasphericalParams(1.0), 1.0) == 1.0
        assert limit_ratio(UltrasphericalParams(2.0), 3.0) == pytest.approx(1 / 3, rel=1e-14)

    def test_limit_ratio_rejects(self):
        with pytest.raises(ValueError):
            limit_ratio(UltrasphericalParams(0.5), 1.0)
        for lam in (2.5, math.nan, -math.inf, math.inf):
            with pytest.raises(ValueError, match="finite lam <= critical"):
                limit_ratio(UltrasphericalParams(1.0), lam)

    def test_sup_bound_values(self):
        assert sup_bound_codilated(UltrasphericalParams(1.0), 0.5) == 1.0
        assert sup_bound_codilated(UltrasphericalParams(1.0), 1.5) == pytest.approx(5.0, abs=1e-12)
        assert sup_bound_codilated(UltrasphericalParams(2.0), 1.0) == 1.0
        with pytest.raises(ValueError):
            sup_bound_codilated(UltrasphericalParams(1.0), 2.0)


class TestNormalizationAsymptotics:
    # the approach to the limit is O(n^(1-2nu)), so the 1e-3-by-5000 claim
    # needs nu >= 1; nu = 0.75 converges like n^(-1/2) and gets a looser band
    @pytest.mark.parametrize("nu,lam,tol", [(1.0, 1.5, 1e-3), (2.0, 3.0, 1e-3), (0.75, 1.2, 1e-2)])
    def test_ratio_monotone_and_converges(self, nu, lam, tol):
        # track P_n*(1)/P_n(1) through mu ratios to dodge the 2^-n underflow
        params = UltrasphericalParams(nu)
        scheme = ultraspherical_scheme(params)
        n_max = 5000
        mus = mu_recursive(scheme, None, n_max)
        mus_star = mu_recursive(scheme, CoDilation(1, lam), n_max)
        ratios = np.cumprod(np.concatenate(([1.0], mus[1:] / mus_star[1:])))
        assert np.all(ratios[1:] <= ratios[:-1] + 1e-14)
        assert abs(ratios[-1] - limit_ratio(params, lam)) < tol


class TestSchemeValidation:
    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            RecurrenceScheme(alpha=lambda n: 0.0, beta=lambda n: 0.0)
        with pytest.raises(ValueError):
            RecurrenceScheme(alpha=lambda n: 0.0, beta=lambda n: -0.1)
        for allow_zero in (False, True):
            with pytest.raises(ValueError, match=r"beta\(1\) = nan"):
                RecurrenceScheme(alpha=lambda n: 0.0, beta=lambda n: np.nan, symmetric=True,
                                 allow_zero_beta=allow_zero)

    def test_rejects_asymmetric_alpha_with_flag(self):
        with pytest.raises(ValueError):
            RecurrenceScheme(alpha=lambda n: 0.5, beta=lambda n: 0.25, symmetric=True)

    def test_codilation_index(self):
        with pytest.raises(ValueError):
            CoDilation(0, 1.5)
        # a non-integer index would fail later, with an IndexError
        for m in (1.5, math.nan, True):
            with pytest.raises(ValueError, match="dilation index m must be an integer"):
                CoDilation(m, 2.0)


class TestInputRules:
    # a kind that is not a ResidualKind must not be read as one kind or the other
    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric", None, 0])
    def test_kind_must_be_a_residual_kind(self, kind):
        params = UltrasphericalParams(1.0)
        for call in (lambda: residual_eval(CHEB, None, kind, 3, 0.3),
                     lambda: mu_recursive(CHEB, None, 3, kind),
                     lambda: mu_closed(params, 1.5, 3, kind),
                     lambda: next(_recursive_coefficients(CHEB, None, kind))):
            with pytest.raises(ValueError, match="residual kind must be a ResidualKind, not"):
                call()

    @pytest.mark.parametrize("lam", [True, False, "1.0", None, [1.0]])
    def test_dilation_must_be_real(self, lam):
        # a bool is not a real, though it would run as the dilation 1 or 0
        params = UltrasphericalParams(1.0)
        with pytest.raises(ValueError, match="must be real and below critical value 2.0"):
            mu_closed(params, lam, 3)
        with pytest.raises(ValueError, match="must be real and below critical value 2.0"):
            sup_bound_codilated(params, lam)
        with pytest.raises(ValueError, match="finite lam <= critical"):
            limit_ratio(params, lam)
        with pytest.raises(ValueError, match="finite dilation factor"):
            chebyshev_closed("star", 3, 0.5, lam=lam)

    def test_reduced_precision_reals_compute_in_binary64(self):
        asym = ResidualKind.ASYMMETRIC
        lam = np.float32(1.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # MAX_NU would overflow in a float32 comparison
            params = UltrasphericalParams(np.float32(1.0))
            got = mu_closed(params, lam, 200, asym)
        assert got.tobytes() == mu_closed(UltrasphericalParams(1.0), float(lam), 200, asym).tobytes()
        assert sup_bound_codilated(params, lam) == sup_bound_codilated(params, float(lam))
        assert limit_ratio(params, lam) == limit_ratio(params, float(lam))
        star = chebyshev_closed("star", 5, 0.3, lam=np.float16(1.5))
        assert star == chebyshev_closed("star", 5, 0.3, lam=1.5)

    def test_numpy_reals_pass(self):
        params = UltrasphericalParams(1.0)
        for lam in (np.float64(1.5), np.int64(1), 1):
            assert np.array_equal(mu_closed(params, lam, 5), mu_closed(params, float(lam), 5))
            assert limit_ratio(params, lam) == limit_ratio(params, float(lam))
