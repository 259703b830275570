from fractions import Fraction

import pytest

from corec.qft import dyson_schwinger, greens, parity_check
from corec.series import Series, transpose

G2_TABLE = {0: Fraction(1), 2: Fraction(1), 4: Fraction(25, 8),
            6: Fraction(15), 8: Fraction(12155, 128),
            10: Fraction(11865, 16), 12: Fraction(7040125, 1024)}

G4_TABLE = {2: Fraction(1, 2), 4: Fraction(4), 6: Fraction(525, 16),
            8: Fraction(300)}


def inner_coeffs(value, n):
    if isinstance(value, Series):
        return value.coefficients(n)
    return [value] * n  # a plain 0 from a compact tail


def test_gamma0_is_identity_polynomial():
    phi = dyson_schwinger()
    assert inner_coeffs(phi.at(0), 4) == [0, 1, 0, 0]


def test_gamma1_hand_value():
    # one step by hand: (phi0' + phi0^2) / 2 = (1 + J^2) / 2
    phi = dyson_schwinger()
    assert inner_coeffs(phi.at(1), 4) == [Fraction(1, 2), 0, Fraction(1, 2), 0]


def test_gamma2_hand_value():
    # second step by hand: J + J^3/2
    phi = dyson_schwinger()
    assert inner_coeffs(phi.at(2), 5) == [0, 1, 0, Fraction(1, 2), 0]


def test_g2_matches_table():
    got = greens(2).coefficients(13)
    for k, expected in G2_TABLE.items():
        assert got[k] == expected
    for k in range(1, 13, 2):
        assert got[k] == 0


def test_g4_matches_table():
    got = greens(4).coefficients(9)
    for k, expected in G4_TABLE.items():
        assert got[k] == expected
    for k in range(0, 9, 2):
        if k not in G4_TABLE:
            assert got[k] == 0
    for k in range(1, 9, 2):
        assert got[k] == 0


def test_g2_free_propagation():
    assert greens(2).at(0) == 1


def test_greens_order_argument_forces():
    s = greens(2, order=4)
    assert s.coefficients(5) == [1, 0, 1, 0, Fraction(25, 8)]


def test_greens_rejects_small_n():
    with pytest.raises(ValueError):
        greens(1)
    with pytest.raises(ValueError):
        greens(2, order=-1)


def test_parity_invariant():
    assert parity_check(12)


def test_g3_even_powers_vanish():
    got = greens(3).coefficients(12)
    for k in range(0, 12, 2):
        assert got[k] == 0
    assert any(got[k] != 0 for k in range(1, 12, 2))


def test_fixed_point_residual_exactly_zero():
    phi = dyson_schwinger()
    source = Series.from_list([0, 1])
    rhs = Series.cons(
        source,
        lambda: (phi.map(lambda s: s.diff() if isinstance(s, Series) else 0)
                 + phi * phi).scale(Fraction(1, 2)),
    )
    residual = phi - rhs
    for k in range(15):
        assert all(c == 0 for c in inner_coeffs(residual.at(k), 16))


def test_inner_degree_bound():
    phi = dyson_schwinger()
    for k, inner in enumerate(phi.take(13)):
        coeffs = inner_coeffs(inner, k + 6)
        assert coeffs[k + 1] != 0  # leading coefficient present
        assert all(c == 0 for c in coeffs[k + 2:])


def test_transpose_consistency_with_direct_lookup():
    phi = dyson_schwinger()
    columns = transpose(dyson_schwinger())
    for n in range(2, 7):
        row = columns.at(n - 1)
        row_vals = inner_coeffs(row, 13)
        for k in range(13):
            inner = phi.at(k)
            direct = inner_coeffs(inner, n)[n - 1]
            assert row_vals[k] == direct


# An oracle that shares nothing with corec: the original halved equation
# phi = J + (gamma/2)(phi' + phi^2) as a recurrence over dense lists, where
# phi_k, the gamma^k coefficient, is a polynomial in J of degree k + 1.
def oracle_phi(orders):
    phi = [[Fraction(0), Fraction(1)]]
    for k in range(orders - 1):
        nxt = [Fraction(0)] * (k + 3)
        for a, c in enumerate(phi[k][1:]):
            nxt[a] += (a + 1) * c
        for i in range(k + 1):
            for a, x in enumerate(phi[i]):
                for b, y in enumerate(phi[k - i]):
                    nxt[a + b] += x * y
        phi.append([c / 2 for c in nxt])
    return phi


def oracle_type(k, a):
    # The type of coefficient (gamma^k, J^a): phi_0 = J is built from ints,
    # and past J^(k+1) an entry is the int 0 read from the ZERO tail; every
    # other entry is an exact Fraction, zeros included.
    return int if k == 0 or a > k + 1 else Fraction


def oracle_entry(phi, k, a):
    return phi[k][a] if a < len(phi[k]) else 0


@pytest.mark.parametrize("g", [2, 3, 4, 5, 7])
def test_greens_match_the_dense_oracle_with_types(g):
    phi = oracle_phi(31)
    got = greens(g).take(31)
    assert got == [oracle_entry(phi, k, g - 1) for k in range(31)]
    assert [type(x) for x in got] == [oracle_type(k, g - 1) for k in range(31)]


def test_phi_corner_matches_the_dense_oracle_with_types():
    phi = oracle_phi(20)
    for k, inner in enumerate(dyson_schwinger().take(20)):
        got = inner_coeffs(inner, 20)
        assert got == [oracle_entry(phi, k, a) for a in range(20)]
        assert [type(x) for x in got] == [oracle_type(k, a) for a in range(20)]
