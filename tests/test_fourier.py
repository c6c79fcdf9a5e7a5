"""Biased Fourier expansion of cube functions."""

import random
from fractions import Fraction as F

import pytest

import oracles
from smcsp.caps import CapExceeded
from smcsp.fourier import (biased_fourier, conditional_variance_influence,
                           dictator_table, influences, mask_of)


def _random_table(rng, r, rational=True):
    if rational:
        return [F(rng.randint(-4, 4), rng.randint(1, 4))
                for _ in range(1 << r)]
    return [rng.uniform(-2, 2) for _ in range(1 << r)]


def test_mask_and_point_are_inverse():
    for r in (1, 3, 5):
        for mask in range(1 << r):
            point = tuple((mask >> i) & 1 for i in range(r))
            assert mask_of(point) == mask


def test_parseval_identity_exact():
    rng = random.Random(101)
    for r in (1, 2, 4):
        p = F(rng.randint(1, 5), 6)
        table = _random_table(rng, r)
        exp = biased_fourier(table, p)
        e_f2 = F(0)
        for mask, v in enumerate(table):
            ones = bin(mask).count("1")
            e_f2 += v * v * p ** ones * (1 - p) ** (r - ones)
        assert exp.parseval_sum() == e_f2


def test_empty_set_coefficient_is_the_mean():
    rng = random.Random(103)
    r, p = 3, F(1, 3)
    table = _random_table(rng, r)
    exp = biased_fourier(table, p)
    mean = F(0)
    for mask, v in enumerate(table):
        ones = bin(mask).count("1")
        mean += v * p ** ones * (1 - p) ** (r - ones)
    assert exp.moments[0] == mean


def test_influence_matches_restriction_oracle():
    rng = random.Random(107)
    for _ in range(10):
        r = rng.randint(1, 5)
        p = F(rng.randint(1, 7), 8)
        table = _random_table(rng, r)
        i = rng.randrange(r)
        got = influences(table, p)[i]
        want = oracles.influence_by_restriction(
            [float(v) for v in table], i, float(p), r)
        assert abs(float(got) - want) < 1e-9


def test_influences_returns_all_coordinates():
    rng = random.Random(109)
    r, p = 4, F(2, 5)
    table = _random_table(rng, r)
    got = influences(table, p)
    assert got == [conditional_variance_influence(table, i, p)
                   for i in range(r)]


def test_dictator_influence_is_variance():
    for r in (2, 4, 6):
        for num in (1, 2, 3):
            p = F(num, 4)
            table = dictator_table(r, r // 2)
            inf = influences(table, p)
            for i in range(r):
                assert inf[i] == (p * (1 - p) if i == r // 2 else 0)


def test_degree_cap_only_lowers_influence():
    rng = random.Random(113)
    for _ in range(10):
        r = rng.randint(2, 5)
        p = F(rng.randint(1, 7), 8)
        table = _random_table(rng, r)
        i = rng.randrange(r)
        full = influences(table, p)[i]
        prev = F(0)
        for d in range(1, r + 1):
            capped = influences(table, p, d=d)[i]
            assert capped <= full
            assert capped >= prev
            prev = capped
        assert influences(table, p, d=r)[i] == full


def test_conditional_variance_route_agrees():
    rng = random.Random(127)
    for _ in range(10):
        r = rng.randint(1, 5)
        p = F(rng.randint(1, 7), 8)
        table = _random_table(rng, r)
        i = rng.randrange(r)
        assert conditional_variance_influence(table, i, p) == \
            influences(table, p)[i]


def test_float_tables_are_accepted():
    rng = random.Random(131)
    r, p = 4, 0.3
    table = _random_table(rng, r, rational=False)
    exp = biased_fourier(table, p)
    direct = oracles.e_f_squared(table, p, r)
    assert abs(exp.parseval_sum() - direct) < 1e-9


def test_constant_function_has_no_influence():
    table = [F(5, 7)] * 8
    assert influences(table, F(1, 3)) == [0, 0, 0]


def test_point_mass_bias_has_no_influence():
    # the bias is put in the table's mode first, so a tilt below the
    # smallest float is a point mass for a float table only
    tiny = F(1, 10**400)
    rational, floats = [F(0), F(1), F(1), F(0)], [0.0, 1.0, 1.0, 0.0]
    for p in (0, 1, F(0), F(1)):
        got = influences(rational, p)
        assert got == [0, 0] and all(type(v) is F for v in got)
    for p in (0, 1, 0.0, 1.0, F(1), tiny, 1 - tiny):
        got = influences(floats, p)
        assert got == [0.0, 0.0] and all(type(v) is float for v in got)
    assert influences(rational, tiny) == [tiny * (1 - tiny)] * 2


@pytest.mark.parametrize("p", [1e-160, 1e-200, 1e-300, 1e-310])
def test_tiny_float_bias_keeps_its_influence(p):
    # as a float, (p(1-p))^2 is subnormal below about 1e-154 and 0 below
    # about 1e-162; each influence is still the rational value at the
    # same float bias, rounded once
    table = [0.0, 1.0, 1.0, 0.5]
    exact = influences([F(0), F(1), F(1), F(1, 2)], F(p))
    assert influences(table, p) == [float(v) for v in exact] == [p, p]
    assert [conditional_variance_influence(table, i, p)
            for i in (0, 1)] == [p, p]


def test_bias_must_be_a_probability():
    with pytest.raises(ValueError):
        biased_fourier([F(0), F(1)], F(0))
    with pytest.raises(ValueError):
        biased_fourier([F(0), F(1)], F(3, 2))


def test_rational_mode_limit_is_a_cap():
    with pytest.raises(CapExceeded, match="r <= 16"):
        influences([0] * 2**17, F(1, 3))


def test_table_length_must_be_power_of_two():
    with pytest.raises(ValueError):
        biased_fourier([F(0), F(1), F(0)], F(1, 2))


_TABLE = [F(0), F(1), F(1), F(0)]


@pytest.mark.parametrize("call, message", [
    (lambda: conditional_variance_influence([F(0)] * 3, 0, F(1, 2)),
     "table length 3 is not a power of two"),
    (lambda: mask_of((0, 2)), "not a boolean string: (0, 2)"),
    (lambda: influences(_TABLE, F(1, 2), d=-1),
     "degree bound must be nonnegative"),
    (lambda: influences(_TABLE, F(3, 2)), "tilt 3/2 is outside [0, 1]"),
    (lambda: influences([0.0] * 4, F(-1, 3)),
     "tilt -0.3333333333333333 is outside [0, 1]"),
])
def test_bad_input_messages_pinned(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
