"""The array float-to-text kernel against Python's own ``%.17g`` and ``repr``."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomb_chain import RingConfig, compute_coefficients, table_texts
from coulomb_chain import _floattext
from coulomb_chain._floattext import float_text_pair

from conftest import SEED1_THREE, SEED7_TWO


def float_texts(values, shortest=False):
    """The one-sided call: the ``%.17g`` texts, or the ``repr`` texts when ``shortest``."""
    fixed, texts = float_text_pair(values, not shortest, shortest)
    return texts if shortest else fixed


def expected(values, shortest):
    return list(map(repr if shortest else "%.17g".__mod__, np.asarray(values, float).tolist()))


def assert_exact(values):
    """Each one-sided call and each side of the paired call give Python's texts."""
    values = np.asarray(values, float)
    pair = float_text_pair(values)
    for shortest in (False, True):
        assert float_texts(values, shortest) == expected(values, shortest)
        assert pair[shortest] == expected(values, shortest)


def doubles(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def ties():
    """x = odd 2**(E-17) in [10**E, 10**(E+1)): 18 significant digits, the last a 5.

    Such an x lies exactly halfway between two 17-digit decimals; none exists
    below E = -8.  Down to E = 16 - 22 = -6 the scaled value is exact and the
    tie is rounded half to even on the fast path; below, Python formats it.
    """
    rng = np.random.default_rng(5)
    out = []
    for E in range(-8, 16):
        step = 2.0 ** (E - 17)
        lo, hi = int(10.0**E / step) + 1, min(int(10.0 ** (E + 1) / step), 2**53)
        out += [k * step for k in rng.integers(lo // 2, hi // 2, 20) * 2 + 1]
    return out


POWERS_OF_TEN = [10.0**k for k in range(-307, 309)]
EDGES = [
    0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, 1e17, 9.999999999999999e16, 9999999999999998.0, 1e-5, 1e-4, 9.9999e-5,
    1.00000762939453125, 0.1, 1 / 3, 2.0**53 + 2, 2.0**63, 1e-280, 1e280, 1e23, 5e-324 * 3,
    *[2.0**k for k in range(-1074, 1024)],
    *POWERS_OF_TEN,
    *np.nextafter(POWERS_OF_TEN, 0.0), *np.nextafter(POWERS_OF_TEN, np.inf),
]


def test_named_edge_values():
    assert float_texts(np.array([1.00000762939453125])) == ["1.0000076293945312"]
    assert float_texts(np.array([1e16, 1e-5, 9.9999e-5]), shortest=True) == [
        "1e+16", "1e-05", "9.9999e-05"]
    values = np.array(EDGES)
    assert_exact(np.concatenate([values, -values]))


def test_exact_ties_are_rounded_half_to_even():
    values = np.array(ties())
    assert_exact(np.concatenate([values, -values]))


def test_random_bit_patterns_and_decades():
    rng = np.random.default_rng(11)
    bits = doubles(rng.integers(0, 2**64, 50_000, dtype=np.uint64))
    decades = rng.standard_normal(50_000) * 10.0 ** rng.integers(-300, 300, 50_000)
    # few significant digits: the shortest form stops early
    short = np.round(rng.standard_normal(50_000) * 10.0 ** rng.integers(0, 16, 50_000))
    short /= 10.0 ** rng.integers(0, 20, 50_000)
    assert_exact(np.concatenate([bits, decades, short]))


def test_shape_and_layout_are_raveled_in_order():
    data = np.arange(12.0).reshape(3, 4) / 7.0
    for layout in (data, np.asfortranarray(data), data.T.copy().T):
        assert float_texts(layout) == expected(data.ravel(), False)
        assert float_text_pair(layout) == (expected(data.ravel(), False),
                                           expected(data.ravel(), True))
    assert float_texts(np.empty(0)) == []
    assert float_text_pair(np.empty(0)) == ([], [])


def test_pair_lays_out_again_only_where_the_texts_differ():
    rng = np.random.default_rng(3)
    values = (rng.uniform(1e-4, 1e-3, 8000) * rng.choice([-1, 1], 8000)).tolist()
    # In their digits, and in the template: whole numbers gain ".0" and,
    # from 1e16 on, an exponent.
    k = np.arange(3000.0)
    differ = np.concatenate([[v for v in values if "%.17g" % v != repr(v)], k - 1500, 1e16 + 2 * k])
    same = np.array([v for v in values if "%.17g" % v == repr(v)])
    assert same.size > 1000
    for chunk in (differ, same, [0.0, -0.0]):
        assert_exact(chunk)
    fixed, shortest = float_text_pair(differ)
    assert all(a != b for a, b in zip(fixed, shortest))
    fixed, shortest = float_text_pair(same)
    assert fixed == shortest


@settings(deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern(bits):
    assert_exact(doubles(bits))


@settings(deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
def test_any_float(values):
    assert_exact(values)


@pytest.mark.parametrize("force, n, j_max", [(SEED7_TWO, 4096, 9), (SEED1_THREE, 128, 96)])
def test_fast_path_formats_nearly_every_table_value(monkeypatch, force, n, j_max):
    exact = _floattext._exact_texts
    fallbacks = []

    def counted(values, shortest):
        fallbacks.extend(values)
        return exact(values, shortest)

    monkeypatch.setattr(_floattext, "_exact_texts", counted)
    table = compute_coefficients(RingConfig(N=n, L=1.0, force=force, j_max=j_max))
    list(table_texts(table, force, ["csv", "json"]))  # every block
    values = 2 * n * ((j_max + 1) // 2)  # both formats of every odd order
    assert len(fallbacks) <= 0.01 * values
    # A -0.0 makes a zero column live, and its zeros cost no fallback.
    before = len(fallbacks)
    table.data[0, 2] = -0.0
    list(table_texts(table, force, ["csv", "json"]))  # every block
    assert len(fallbacks) == before
    # The counter sees the fallback: a subnormal goes to Python, alone, in each format.
    table.data[0, 2] = 5e-324
    list(table_texts(table, force, ["csv", "json"]))  # every block
    assert fallbacks[before:] == [5e-324, 5e-324]


def test_power_table_is_built_on_first_use():
    # Importing the package builds no table, so it costs nothing at start-up.
    code = ("import sys; sys.path[:0] = %r; import coulomb_chain.cli; "
            "from coulomb_chain import _floattext; "
            "assert _floattext._powers_of_ten.cache_info().currsize == 0" % sys.path)
    subprocess.run([sys.executable, "-c", code], check=True)
