from fractions import Fraction

from corec.catalog import (
    CATALOG,
    bessel_series,
    fibonacci,
    integers,
    ones,
    partitions,
)

from support import pentagonal_partitions

FIRST_17_PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101,
                       135, 176, 231]

BESSEL_HEAD = [Fraction(1), Fraction(-1, 4), Fraction(1, 32),
               Fraction(-3, 128), Fraction(75, 2048), Fraction(-735, 8192),
               Fraction(19845, 65536)]


def test_partition_prefix():
    assert partitions().coefficients(17) == FIRST_17_PARTITIONS


def test_partition_of_zero():
    assert partitions().at(0) == 1


def test_partition_100_matches_oracle():
    oracle = pentagonal_partitions(100)
    assert oracle[100] == 190569292
    assert partitions().at(100) == 190569292


def test_partitions_match_oracle_to_200():
    oracle = pentagonal_partitions(200)
    assert partitions().coefficients(201) == oracle


def test_bessel_head_coefficients():
    assert bessel_series().coefficients(7) == BESSEL_HEAD


def test_bessel_leading_value():
    assert bessel_series().at(0) == 1


def test_bessel_ode_residual_exactly_zero():
    w = bessel_series()
    residual = (w.diff().diff().shift(2) + w.diff()
                + w.scale(Fraction(1, 4)))
    assert residual.coefficients(20) == [0] * 20


def test_showcase_streams():
    assert fibonacci().take(10) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert integers().take(4) == [1, 2, 3, 4]
    assert ones().take(3) == [1, 1, 1]


def test_fibonacci_recurrence_long():
    vals = fibonacci().take(1002)
    assert all(vals[n + 2] == vals[n + 1] + vals[n] for n in range(1000))


def test_catalog_entries():
    assert set(CATALOG) == {"integs", "fibs", "partitions", "bessel",
                            "exp-demo", "revser-demo"}
    # producers make fresh structures per call
    a = CATALOG["partitions"]()
    b = CATALOG["partitions"]()
    assert a is not b
    assert CATALOG["exp-demo"]().coefficients(3) == [1, 1, Fraction(1, 2)]
    assert CATALOG["revser-demo"]().coefficients(6) == [0, 1, -1, 2, -5, 14]
