"""Field arithmetic: exhaustive axioms on small fields, properties on larger ones."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fflab.errors import (
    DegreeTooLargeError,
    EvenCharacteristicError,
    NotPrimeError,
    NotQuadraticExtensionError,
)
from fflab.field import (
    Field,
    is_prime,
    make_field,
    prime_factors,
)


def test_constructor_rejects_bad_parameters():
    with pytest.raises(NotPrimeError):
        make_field(9)
    with pytest.raises(EvenCharacteristicError):
        make_field(2)
    with pytest.raises(DegreeTooLargeError):
        Field(3, 13)


def test_is_prime_and_factors():
    assert [p for p in range(25) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(97) == [97]


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2), (7, 2)])
def test_field_axioms_exhaustive(p, k):
    field = make_field(p, k)
    q = field.order
    elems = range(q)
    for a in elems:
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.add(a, field.neg(a)) == 0
        if a:
            assert field.mul(a, field.inv(a)) == 1
    # distributivity on a grid of triples
    for a in range(0, q, 2):
        for b in range(0, q, 3):
            for c in range(0, q, 3):
                lhs = field.mul(a, field.add(b, c))
                rhs = field.add(field.mul(a, b), field.mul(a, c))
                assert lhs == rhs


@given(st.integers(0, 342), st.integers(0, 342))
def test_commutativity_f343(a, b):
    field = make_field(7, 3)
    assert field.add(a, b) == field.add(b, a)
    assert field.mul(a, b) == field.mul(b, a)


def test_array_ops_match_scalar(f9):
    rng = np.random.default_rng(0)
    a = rng.integers(0, 9, 50)
    b = rng.integers(0, 9, 50)
    assert all(int(x) == f9.add(int(u), int(v)) for x, u, v in zip(f9.add_arrays(a, b), a, b))
    assert all(int(x) == f9.mul(int(u), int(v)) for x, u, v in zip(f9.mul_arrays(a, b), a, b))
    assert all(int(x) == f9.sub(int(u), int(v)) for x, u, v in zip(f9.sub_arrays(a, b), a, b))
    assert all(int(x) == f9.neg(int(u)) for x, u in zip(f9.neg_arrays(a), a))
    nz = a[a != 0]
    assert all(int(x) == f9.inv(int(u)) for x, u in zip(f9.inv_arrays(nz), nz))


def test_frobenius_is_field_automorphism(f9):
    for a in range(9):
        for b in range(9):
            assert f9.frobenius(f9.add(a, b)) == f9.add(f9.frobenius(a), f9.frobenius(b))
            assert f9.frobenius(f9.mul(a, b)) == f9.mul(f9.frobenius(a), f9.frobenius(b))
    # fixes exactly the prime subfield, and squares to the identity
    fixed = [a for a in range(9) if f9.frobenius(a) == a]
    assert len(fixed) == 3
    assert all(f9.frobenius(f9.frobenius(a)) == a for a in range(9))
    assert np.array_equal(f9.frobenius_arrays(np.arange(9)),
                          np.array([f9.frobenius(a) for a in range(9)]))


def test_trace_into_prime_field(f9):
    for a in range(9):
        t = f9.trace(a)
        assert 0 <= t < 3
        assert f9.trace(f9.frobenius(a)) == t
    # trace is additive
    for a in range(9):
        for b in range(9):
            assert f9.trace(f9.add(a, b)) == (f9.trace(a) + f9.trace(b)) % 3


def test_character_is_additive_and_unimodular(f9):
    e = f9.character
    assert np.allclose(np.abs(e), 1.0)
    for a in range(9):
        for b in range(9):
            assert abs(e[f9.add(a, b)] - e[a] * e[b]) < 1e-12
    # full-field sum cancels
    assert abs(e.sum()) < 1e-9


def test_im_part_properties(f9):
    # vanishes exactly on the prime subfield
    zero_im = [a for a in range(9) if f9.im_part(a) == 0]
    assert len(zero_im) == 3
    for a in range(9):
        conj = f9.frobenius(a)
        # a = (a + conj)/2 + im(a), and im flips sign under conjugation
        assert f9.im_part(conj) == f9.neg(f9.im_part(a))
        half_sum = f9.mul(f9.add(a, conj), f9.inv(2))
        assert f9.add(half_sum, f9.im_part(a)) == a
    with pytest.raises(NotQuadraticExtensionError):
        make_field(5).im_part(1)


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2)])
def test_squares_match_enumeration(p, k):
    field = make_field(p, k)
    true_squares = {field.mul(t, t) for t in range(field.order)}
    for a in range(field.order):
        assert field.is_square(a) == (a in true_squares)
        for r in field.square_roots(a):
            assert field.mul(r, r) == a
    nz = field.nonzero_squares()
    assert len(nz) == (field.order - 1) // 2


@pytest.mark.parametrize("p,expect", [(5, True), (13, True), (7, False), (11, False)])
def test_minus_one_square_residue_class(p, expect):
    field = make_field(p)
    assert field.is_square(field.minus_one) == expect


def test_rational_lift(f7):
    x = f7.rational(2, 3)
    assert f7.mul(x, 3) == 2
    assert f7.rational(-1) == f7.minus_one
    with pytest.raises(ZeroDivisionError):
        f7.rational(1, 7)


def test_grid_coords_little_endian(f5):
    coords = f5.grid_coords(3)
    assert coords.shape == (125, 3)
    # coordinate 0 varies fastest
    assert list(coords[1]) == [1, 0, 0]
    assert list(coords[5]) == [0, 1, 0]
    assert list(coords[25]) == [0, 0, 1]
    flat = coords[:, 0] + 5 * coords[:, 1] + 25 * coords[:, 2]
    assert np.array_equal(flat, np.arange(125))
