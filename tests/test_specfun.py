"""Special-function backend against scipy oracles and classical identities."""

import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st

from lfunlab.specfun import ShiftParam, digamma, elementwise_batch, harmonic, hurwitz_zeta

EULER_GAMMA = 0.5772156649015329


class TestDigamma:
    def test_classical_values(self):
        assert abs(digamma(1.0) + EULER_GAMMA) < 1e-13
        assert abs(digamma(0.5) + EULER_GAMMA + 2 * math.log(2)) < 1e-13
        assert abs(digamma(2.0) - (1 - EULER_GAMMA)) < 1e-13

    @pytest.mark.parametrize(
        "x", [1e-3, 0.01, 0.1, 0.25, 0.5, 0.9, 1.0, 1.5, 2.0, 3.75, 9.99, 10.0, 37.5, 123.0, 1e4]
    )
    def test_against_scipy(self, x):
        assert abs(digamma(x) - scipy.special.psi(x)) < 1e-13 * max(1.0, abs(scipy.special.psi(x)))

    @given(st.floats(min_value=1e-3, max_value=50.0, allow_nan=False))
    def test_recurrence(self, x):
        assert abs(digamma(x + 1) - digamma(x) - 1 / x) < 1e-12

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_reflection(self, x):
        lhs = digamma(1 - x) - digamma(x)
        assert abs(lhs - math.pi / math.tan(math.pi * x)) < 1e-10

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
    def test_gauss_multiplication(self, m):
        for x in (0.7, 1.0, 2.3, 5.5):
            total = math.fsum(digamma((x + r) / m) for r in range(m))
            assert abs(total - m * (digamma(x) - math.log(m))) < 1e-10

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(ValueError):
                digamma(bad)


def _digamma_out_of_place(x):
    """digamma's operations in the same order, each into a new array."""
    steps = np.maximum(np.ceil(10.0 - x), 0.0)
    shift = np.zeros_like(x)
    for i in range(int(steps.max())):
        shift = np.where(steps > i, shift - 1.0 / (x + i), shift)
    y = x + steps
    w = 1.0 / (y * y)
    bernoulli = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
    coeffs = [b / (2.0 * (k + 1)) for k, b in enumerate(bernoulli)]
    series = np.full_like(x, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        series = series * w + c
    series = series * w
    return np.log(y) + shift - (1.0 / y) * 0.5 - series


def _psi_grid(q, s):
    """The closed routes' digamma arguments (u + s)/q at the units u mod q."""
    return (np.array([u for u in range(1, q) if math.gcd(u, q) == 1]) + s) / q


class TestDigammaBuffers:
    @pytest.mark.parametrize("q", [7, 1009, 2310, 7919])
    @pytest.mark.parametrize("s", [0.0, 1.5, 2.0])
    def test_in_place_kernel_is_bit_identical(self, q, s):
        x = _psi_grid(q, s)
        assert np.array_equal(digamma(x), _digamma_out_of_place(x))

    def test_peak_memory_per_argument(self):
        # 56 B per argument is one full-length float64 array for each of the
        # seven intermediates; y, w and the result reuse buffers, leaving four.
        x = np.concatenate([_psi_grid(q, s) for q in (1009, 2003, 3001) for s in (0.0, 1.5)])
        digamma(x)
        tracemalloc.start()
        try:
            digamma(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / x.size <= 0.6 * 56


class TestHurwitzZeta:
    def test_known_values(self):
        assert abs(hurwitz_zeta(2, 1) - math.pi**2 / 6) < 1e-12
        assert abs(hurwitz_zeta(2, 0.5) - math.pi**2 / 2) < 1e-12
        assert abs(hurwitz_zeta(2, 2) - (math.pi**2 / 6 - 1)) < 1e-12

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 4.5, 7.5])
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 2.7, 9.99, 15.0, 123.4])
    def test_against_scipy(self, s, alpha):
        ours, ref = hurwitz_zeta(s, alpha), scipy.special.zeta(s, alpha)
        assert math.isclose(ours, ref, rel_tol=1e-11, abs_tol=0.0)

    @given(st.floats(min_value=1e-3, max_value=10.0))
    def test_shift_property(self, alpha):
        lhs = hurwitz_zeta(2, alpha) - hurwitz_zeta(2, alpha + 1) - alpha**-2
        assert abs(lhs) < 1e-12 * hurwitz_zeta(2, alpha)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5, 7.0])
    def test_matches_trigamma_finite_difference(self, alpha):
        # zeta(2, alpha) = psi'(alpha); central difference, error ~ h^2 psi'''/6
        h = 1e-5
        approx = (digamma(alpha + h) - digamma(alpha - h)) / (2 * h)
        assert abs(hurwitz_zeta(2, alpha) - approx) < 1e-6

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 1.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, -3.0)


class TestArrayArguments:
    GRID = np.concatenate([np.linspace(1e-3, 60.0, 2001), (np.arange(1, 1000) + 1.5) / 1000])

    def test_digamma_elementwise(self):
        psi = digamma(self.GRID)
        ref = scipy.special.psi(self.GRID)
        assert psi.shape == self.GRID.shape
        assert np.all(np.abs(psi - ref) < 1e-13 * np.maximum(1.0, np.abs(ref)))
        scalar = np.array([digamma(float(x)) for x in self.GRID])
        assert np.all(np.abs(psi - scalar) <= 1e-15 * np.maximum(1.0, np.abs(psi)))

    def test_hurwitz_zeta_elementwise(self):
        zeta = hurwitz_zeta(2.0, self.GRID)
        assert np.allclose(zeta, scipy.special.zeta(2.0, self.GRID), rtol=1e-11, atol=0.0)
        assert np.allclose(zeta, [hurwitz_zeta(2.0, float(x)) for x in self.GRID], rtol=1e-15, atol=0.0)

    def test_hurwitz_zeta_array_equals_entry_by_entry(self):
        # the direct terms are added row by row, so an entry's sum does not
        # depend on how many entries share the array (a float included)
        alpha = np.concatenate([self.GRID, np.random.default_rng(5).uniform(1e-6, 12.0, 2000)])
        zeta = hurwitz_zeta(2.0, alpha)
        assert np.array_equal(zeta, [hurwitz_zeta(2.0, float(x)) for x in alpha])
        assert np.array_equal(zeta[:999], [hurwitz_zeta(2.0, alpha[i:i + 1])[0] for i in range(999)])
        assert np.array_equal(hurwitz_zeta(2.0, alpha[:36].reshape(6, 6)), zeta[:36].reshape(6, 6))

    def test_elementwise_batch_equals_separate_calls(self):
        rng = np.random.default_rng(11)
        arrays = [rng.uniform(1e-3, 15.0, shape) for shape in ((7,), (2, 5), (0,), (1,), (3, 1))]
        for fn in (digamma, lambda x: hurwitz_zeta(2.0, x)):
            for batch in (arrays, arrays[1:2], []):
                got = elementwise_batch(fn, batch)
                assert len(got) == len(batch)
                for piece, x in zip(got, batch):
                    assert piece.shape == x.shape and np.array_equal(piece, fn(x))
        seen = []
        elementwise_batch(lambda x: seen.append(x) or digamma(x), arrays[1:2])
        assert seen[0] is arrays[1]  # a single array is passed as it is, not copied

    def test_float_argument_gives_float(self):
        assert type(digamma(2.5)) is float
        assert type(hurwitz_zeta(2, 2.5)) is float

    def test_one_bad_entry_rejects_the_array(self):
        with pytest.raises(ValueError):
            digamma(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, np.array([1.0, np.nan]))


class TestKernels:
    # x = 10 - n + u needs exactly n unit shifts (n = 0 .. 10), mixed in one array
    MIXED = np.random.default_rng(7).permutation(
        np.concatenate([10.0 - n + np.array([0.05, 0.5, 0.95]) for n in range(11)]
                       + [np.array([10 - 1e-12, 10.0, 10 + 1e-12])])
    )

    def test_digamma_mixed_shifts_against_scipy(self):
        assert set(np.maximum(np.ceil(10.0 - self.MIXED), 0.0).tolist()) == set(range(11))
        psi = digamma(self.MIXED)
        assert np.all(np.abs(psi - scipy.special.psi(self.MIXED)) < 1e-13)

    def test_digamma_array_equals_entry_by_entry(self):
        # masked rounds must not let an entry's arithmetic depend on its neighbours
        psi = digamma(self.MIXED)
        assert np.array_equal(psi, [digamma(float(x)) for x in self.MIXED])

    def test_digamma_two_dimensional(self):
        grid = self.MIXED[:36].reshape(6, 6)
        psi = digamma(grid)
        assert psi.shape == (6, 6)
        assert np.array_equal(psi, digamma(grid.ravel()).reshape(6, 6))
        assert np.all(np.abs(psi - scipy.special.psi(grid)) < 1e-13)

    def test_digamma_leaves_its_argument_alone(self):
        x = self.MIXED.copy()
        digamma(x)
        assert np.array_equal(x, self.MIXED)

    @pytest.mark.parametrize("shape", [(), (40,), (8, 5)])
    def test_hurwitz_zeta_shapes_against_scipy(self, shape):
        alpha = np.exp(np.random.default_rng(3).uniform(math.log(1e-6), math.log(20.0), size=shape))
        zeta = hurwitz_zeta(2.0, alpha)
        assert np.shape(zeta) == shape
        assert np.all(np.abs(zeta / scipy.special.zeta(2.0, alpha) - 1.0) < 1e-12)

    def test_hurwitz_zeta_domain_ends(self):
        alpha = np.array([1e-6, 0.5, 10 - 1e-12, 10.0, 10 + 1e-12, 20.0])
        zeta = hurwitz_zeta(2.0, alpha)
        assert np.all(np.abs(zeta / scipy.special.zeta(2.0, alpha) - 1.0) < 1e-12)


class TestHarmonic:
    def test_small(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert abs(harmonic(3) - 11 / 6) < 1e-15

    @given(st.integers(min_value=0, max_value=5000))
    def test_against_fsum(self, n):
        assert abs(harmonic(n) - math.fsum(1 / l for l in range(1, n + 1))) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            harmonic(-1)


class TestShiftParam:
    def test_parsing(self):
        assert ShiftParam.of("7/2") == Fraction(7, 2)
        assert ShiftParam.of(5) == ShiftParam(5, 1)
        assert ShiftParam.of("3.5") == ShiftParam(7, 2)
        assert ShiftParam.of(Fraction(6, 4)) == ShiftParam(3, 2)
        assert str(ShiftParam.of("7/2")) == "7/2"
        assert str(ShiftParam.of(2)) == "2"

    def test_normalization(self):
        p = ShiftParam(14, 4)
        assert (p.numerator, p.denominator) == (7, 2)

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**4))
    def test_reduced_and_exact(self, num, den):
        p = ShiftParam(num, den)
        assert math.gcd(p.numerator, p.denominator) == 1
        assert p == Fraction(num, den)
        assert float(p) == num / den

    def test_predicates(self):
        assert ShiftParam.of(0) == 0
        assert ShiftParam.of(3).denominator == 1
        assert ShiftParam.of("7/2").denominator != 1

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            ShiftParam(-1, 2)
        with pytest.raises(ValueError):
            ShiftParam(1, 0)
        with pytest.raises(ValueError):
            ShiftParam.of(3.5)  # floats are ambiguous; pass a string

    @given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=10**20),
           st.integers(min_value=1, max_value=10**6))
    def test_float_is_the_integer_quotient(self, num, den, d):
        # The per-divisor loops divide the integers themselves; both
        # quotients are correctly rounded, so they agree bit for bit.
        a = ShiftParam(num, den)
        assert float(a) == a.numerator / a.denominator
        assert float(a / d) == a.numerator / (a.denominator * d)

    def test_str(self):
        assert str(ShiftParam.of("7/2")) == "7/2"
        assert str(ShiftParam(6, 2)) == "3"

    @pytest.mark.parametrize("value", [0, 3, "7/2", "3.5"])
    def test_pickle_round_trip(self, value):
        a = ShiftParam.of(value)
        back = pickle.loads(pickle.dumps(a))
        assert type(back) is ShiftParam and back == a

    @pytest.mark.parametrize("make, message", [
        (lambda: ShiftParam.of(3.5), "cannot interpret 3.5 as a shift (floats must be strings)"),
        (lambda: ShiftParam(3.5), "ShiftParam needs integer numerator and denominator"),
        (lambda: ShiftParam.of(True), "cannot interpret True as a shift"),
        (lambda: ShiftParam(1, 0), "ShiftParam denominator must be nonzero"),
        (lambda: ShiftParam(-2, 4), "shift must be >= 0, got -2/4"),
        (lambda: ShiftParam(1, -2), "shift must be >= 0, got -1/2"),
        (lambda: ShiftParam.of("-1"), "shift must be >= 0, got -1/1"),
        (lambda: ShiftParam.of("abc"), "cannot parse shift 'abc'"),
        (lambda: ShiftParam.of("1/0"), "cannot parse shift '1/0'"),
    ])
    def test_refusal_messages(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


def test_floor_ratio_examples():
    # The divisor loops take [a/d] as a // d, Fraction's exact floor, an int.
    for a, d, floor in (("1", 2, 0), ("7/2", 1, 3), ("5", 5, 1)):
        assert type(ShiftParam.of(a) // d) is int
        assert ShiftParam.of(a) // d == floor


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=100),
       st.integers(min_value=1, max_value=100))
def test_floor_ratio_exact(num, den, d):
    assert type(ShiftParam(num, den) // d) is int
    assert ShiftParam(num, den) // d == (Fraction(num, den) / d).__floor__()
