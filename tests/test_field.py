"""Field arithmetic: exhaustive axioms on small fields, properties on larger ones."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fflab import cli
from fflab import field as field_module
from fflab.errors import FFLabError
from fflab.field import (
    Field,
    _poly_divisible,
    _poly_mul_mod,
    is_prime,
    make_field,
    prime_factors,
)


def test_constructor_rejects_bad_parameters():
    with pytest.raises(FFLabError, match="9 is not prime"):
        make_field(9)
    with pytest.raises(FFLabError, match="characteristic 2 is out of scope"):
        make_field(2)
    with pytest.raises(FFLabError, match=r"3\^13 exceeds the order cap 1048576"):
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


# the largest prime under the cap adds by table; above it a prime adds
# (a + b) mod p and an extension field its digit rows
TABLE_SIDE = [(3, 2), (7, 3), (3, 5), (13, 2), (43, 2), (2039, 1)]  # up to 2,039 elements
ABOVE_CAP = [(2053, 1), (47, 2), (3, 7), (61, 2), (509, 2)]  # from 2,053 elements


@pytest.mark.parametrize("p,k", TABLE_SIDE + ABOVE_CAP)
def test_array_addition_matches_scalar_oracle(p, k):
    field = Field(p, k)
    assert "_add_table" not in vars(field)  # construction never builds the table
    q = field.order
    rng = np.random.default_rng(q)
    a = np.concatenate([rng.integers(0, q, 400), [0, 0, q - 1, q - 1, p - 1]])
    b = np.concatenate([rng.integers(0, q, 400), [0, q - 1, 0, q - 1, 1]])
    for got, want in [
        (field.add_arrays(a, b), [field.add(int(x), int(y)) for x, y in zip(a, b)]),
        (field.sub_arrays(a, b), [field.sub(int(x), int(y)) for x, y in zip(a, b)]),
        (field.neg_arrays(a), [field.neg(int(x)) for x in a]),
    ]:
        assert got.dtype == np.int64
        assert got.tolist() == want
    # the table is built by the first array sum, and only below the cap
    assert ("_add_table" in vars(field)) == (q <= field_module.ADD_TABLE_MAX_ORDER)
    every = np.arange(min(q, 1 << 12))  # all of q, or the first 4,096 of 509^2
    assert field.neg_arrays(every).tolist() == [field.neg(int(x)) for x in every]
    # 0-d inputs and (m, 1) + (1, n) broadcasting
    x, y = int(a[7]), int(b[7])
    for fn, want in [(field.add_arrays, field.add(x, y)), (field.sub_arrays, field.sub(x, y))]:
        got = fn(np.int64(x), y)
        assert np.ndim(got) == 0 and got.dtype == np.int64 and int(got) == want
    got = field.neg_arrays(x)
    assert np.ndim(got) == 0 and got.dtype == np.int64 and int(got) == field.neg(x)
    rows, cols = a[:30, None], b[None, :20]
    table = field.add_arrays(rows, cols)
    assert table.shape == (30, 20) and table.dtype == np.int64
    assert table.tolist() == [[field.add(int(u), int(v)) for v in cols[0]] for u in rows[:, 0]]


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (47, 2)])  # prime, add table, digit add
@pytest.mark.parametrize("d", [1, 2, 3])
def test_dot_arrays_matches_scalar_dot(p, k, d):
    field = make_field(p, k)
    q = field.order
    rng = np.random.default_rng(q + d)
    a, b = rng.integers(0, q, (2, 50, d))
    a[0], b[1] = q - 1, 0
    got = field.dot_arrays(a, b)
    assert got.shape == (50,) and got.dtype == np.int64
    assert got.tolist() == [field.dot(x.tolist(), y.tolist()) for x, y in zip(a, b)]
    # one row against a table, and a (L, 1, d) block against (m, d) rows
    row = b[7]
    assert field.dot_arrays(a, row).tolist() == [field.dot(x.tolist(), row.tolist()) for x in a]
    table = field.dot_arrays(a[:6, None, :], b[None, :9, :])
    assert table.tolist() == [[field.dot(x.tolist(), y.tolist()) for y in b[:9]] for x in a[:6]]
    assert int(field.dot_arrays(a[3], b[3])) == field.dot(a[3].tolist(), b[3].tolist())


@pytest.mark.parametrize("p,k", [(3, 1), (13, 1), (31, 1), (3, 2), (5, 2), (5, 3)])
def test_add_table_exhaustive(p, k):
    field = Field(p, k)
    q = field.order
    want = [[field.add(a, b) for b in range(q)] for a in range(q)]
    elems = np.arange(q)
    sums = field.add_arrays(elems[:, None], elems)  # (q, 1) against (q,)
    assert sums.dtype == np.int64 and sums.tolist() == want
    assert "_add_table" in vars(field)  # below the cap every field adds by table
    table = field._add_table
    assert table.dtype == np.int16 and table.shape == (q * q,)
    assert table.reshape(q, q).tolist() == want


def test_add_table_cap_boundary(monkeypatch):
    # q * q int16 entries at the cap are 8 MiB; the cap itself takes the table
    assert field_module.ADD_TABLE_MAX_ORDER**2 * 2 == 8 << 20
    elems = np.arange(49)
    for cap, built in [(49, True), (48, False)]:
        monkeypatch.setattr(field_module, "ADD_TABLE_MAX_ORDER", cap)
        field = Field(7, 2)
        sums = field.add_arrays(elems[:, None], elems[None, :])
        assert ("_add_table" in vars(field)) == built
        assert sums.tolist() == [[field.add(a, b) for b in range(49)] for a in range(49)]


@pytest.mark.parametrize("p,k", [(3, 2), (3, 5), (7, 3), (13, 2), (509, 2)])
def test_trace_lift_is_frobenius_sum(p, k):
    field = make_field(p, k)
    # a + a^p + ... + a^(p^(k-1)), summed on base-p digit rows
    elems = np.arange(field.order)
    digits = np.stack([elems // p**i % p for i in range(k)], axis=1)
    acc, cur = digits.copy(), elems
    for _ in range(k - 1):
        cur = field.frobenius_arrays(cur)
        acc += digits[cur]
    acc %= p
    assert not acc[:, 1:].any()  # the trace lies in the prime subfield
    assert field.trace_lift.tolist() == acc[:, 0].tolist()


# every per-element table that construction leaves to its first reader
DERIVED_TABLES = ("_digits", "trace_lift", "character", "squares", "_frob", "_add_table")


@pytest.mark.parametrize(
    "p,k", [(3, 1), (7, 1), (2053, 1), (1048573, 1), (5, 2), (509, 2), (3, 7)]
)
def test_construction_builds_no_derived_table(p, k):
    field = Field(p, k)
    assert [name for name in DERIVED_TABLES if name in vars(field)] == []


def _scalar_pow(field, a: int, e: int) -> int:
    acc = 1
    for bit in bin(e)[2:]:
        acc = field.mul(acc, acc)
        if bit == "1":
            acc = field.mul(acc, a)
    return acc


def _scalar_trace(field, a: int) -> int:
    """a + a^p + ... + a^(p^(k-1)) by scalar products and sums."""
    acc = conj = a
    for _ in range(field.k - 1):
        conj = _scalar_pow(field, conj, field.p)
        acc = field.add(acc, conj)
    return acc


@pytest.mark.parametrize(
    "p,k",
    [(3, 1), (7, 1), (2053, 1), (1048573, 1), (3, 2), (5, 2), (5, 3), (7, 3), (3, 5), (509, 2)],
)
def test_on_demand_tables_match_eager_formulas(p, k):
    field = Field(p, k)
    q = field.order
    elems = np.arange(q, dtype=np.int64)
    # Frobenius: p times the log, through the antilog table
    if k == 1:
        frob = elems
    else:
        frob = np.zeros(q, dtype=np.int64)
        frob[field._exp] = field._exp[(np.arange(q - 1) * p) % (q - 1)]
    assert field._frob.dtype == np.int64 and np.array_equal(field._frob, frob)
    # squares: a scatter of every product t * t
    squares = np.zeros(q, dtype=bool)
    squares[field.mul_arrays(elems, elems)] = True
    assert np.array_equal(field.squares, squares) and not field.squares.flags.writeable
    # trace: the scalar conjugate sum, or F_p-linearly from the basis x^i above 400
    if q <= 400:
        trace = np.array([_scalar_trace(field, a) for a in range(q)])
    else:
        basis_traces = np.array([_scalar_trace(field, p**i) for i in range(k)])
        digits = np.stack([elems // p**i % p for i in range(k)], axis=1)
        trace = digits @ basis_traces % p
    assert field.trace_lift.dtype == np.int64
    assert field.trace_lift.tolist() == trace.tolist()
    want = np.exp(2j * np.pi * np.arange(p) / p)[trace]
    assert np.array_equal(field.character.view(np.int64), want.view(np.int64))
    assert not field.character.flags.writeable


def test_cli_commands_build_only_the_tables_they_read(capsys):
    make_field.cache_clear()
    assert cli.main(["kakeya", "maximal", "--field", "5^2", "--dim", "2"]) == 0
    built = vars(make_field(5, 2))
    assert [name for name in ("character", "trace_lift", "_frob") if name in built] == []
    make_field.cache_clear()
    assert cli.main(["kakeya", "heisenberg", "--field", "3^2"]) == 0
    assert "_frob" in vars(make_field(3, 2))
    capsys.readouterr()


# Construction keeps only _exp_ext, _log and the k powers of p, so its peak is
# in _build_log_tables: either the int16 (k, q - 1) coefficient columns with the
# last doubling block's int32 cast and product, at most three times the
# columns' bytes, or, once the columns are freed, the kept tables and the
# q-entry arange that fills _log.  The int64 columns of a prime above 2^15 are
# one row of q - 1 entries, freed before that arange, so the second term
# bounds them too.  256 KiB covers the interpreter objects made on the way.
# On CPython 3.11 with numpy 2.4 the peaks read 12,438,840 B at F_{509^2}
# (31,352,297 B when construction also built the digit, Frobenius, trace,
# character and square tables), 37,928,144 B at F_{3^12} (136,059,376 B then,
# 51 MB of it the (q, 12) int64 digit table) and 50,333,016 B at F_1,048,573
# (600 B when a prime field built no table), against bounds of 12,698,024 B,
# 38,525,824 B and 50,593,632 B.


def _assert_construction_peak(p: int, k: int):
    tracemalloc.start()
    try:
        field = Field(p, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = {
        name: v.nbytes
        for name, v in vars(field).items()
        if isinstance(v, np.ndarray) and v.base is None  # _exp is a view of _exp_ext
    }
    assert sorted(kept) == ["_exp_ext", "_log", "_powers"]
    q = field.order
    assert peak <= max(sum(kept.values()) + q * 8, 3 * k * (q - 1) * 2) + (256 << 10)


def test_field_509_2_construction_peak():
    _assert_construction_peak(509, 2)


def test_field_3_12_construction_peak():
    _assert_construction_peak(3, 12)


def test_field_1048573_construction_peak():
    _assert_construction_peak(1048573, 1)


def _poly_product(field, a: int, b: int) -> int:
    """a * b as one schoolbook product of base-p digit vectors, packed back."""
    p, k = field.p, field.k
    digits = [tuple((c // p**i) % p for i in range(k)) for c in (a, b)]
    prod = _poly_mul_mod(digits[0], digits[1], field.modulus, p)
    return sum(c * p**i for i, c in enumerate(prod))


# F_1,048,573, the largest prime under MAX_ORDER, is the one field that builds its
# log tables in int64; every other field here takes the int16 columns
TABLE_PRIMES = [(7, 1), (2053, 1), (1048573, 1)]


@pytest.mark.parametrize(
    "p,k", TABLE_PRIMES + [(3, 2), (3, 3), (5, 3), (7, 2), (13, 3), (61, 2), (509, 2)]
)
def test_mul_arrays_matches_polynomial_products(p, k):
    field = make_field(p, k)
    q = field.order
    rng = np.random.default_rng(q)
    a = rng.integers(0, q, 400)
    b = rng.integers(0, q, 400)
    a[:40] = 0
    b[20:60] = 0  # zero on the left, on the right and on both sides
    assert field.mul_arrays(a, b).tolist() == [
        _poly_product(field, int(x), int(y)) for x, y in zip(a, b)
    ]
    c = int(a[100])
    assert field.mul_arrays(c, b).tolist() == [_poly_product(field, c, int(y)) for y in b]
    assert field.mul_arrays(a, 0).tolist() == [0] * len(a)
    assert int(field.mul_arrays(0, 0)) == 0
    # (m, 1) x (1, m) broadcasting, and the full q x q table on the small fields
    rows = a[:50, None] if q > 125 else np.arange(q)[:, None]
    cols = rows.T
    table = field.mul_arrays(rows, cols)
    assert table.shape == (len(rows), len(rows))
    assert table.tolist() == [
        [_poly_product(field, int(x), int(y)) for y in cols[0]] for x in rows[:, 0]
    ]
    exp = field._exp
    assert exp[1] == field.generator
    assert np.array_equal(np.sort(exp), np.arange(1, q))


@pytest.mark.parametrize("p,k", TABLE_PRIMES + [(3, 2), (13, 3), (509, 2)])
def test_log_tables_take_at_most_k_polynomial_products(p, k, monkeypatch):
    field = Field(p, k)
    exp, log = field._exp.copy(), field._log.copy()
    calls = []

    def counting(*args):
        calls.append(args)
        return _poly_mul_mod(*args)

    monkeypatch.setattr(field_module, "_poly_mul_mod", counting)
    field._build_log_tables()
    assert len(calls) <= k
    assert np.array_equal(field._exp, exp) and np.array_equal(field._log, log)


def _reference_modulus(p: int, k: int) -> tuple:
    """The first monic irreducible of degree k, scanned from index 0 (c_0 = 0 included)."""
    for idx in range(p**k):
        coeffs = tuple(idx // p ** (k - 1 - i) % p for i in range(k))
        divisors = (
            [c // p**i % p for i in range(deg)] + [1]
            for deg in range(1, k // 2 + 1)
            for c in range(p**deg)
        )
        if not any(_poly_divisible(list(coeffs) + [1], den, p) for den in divisors):
            return coeffs
    raise AssertionError("no irreducible polynomial")


def _reference_generator(p: int, k: int, modulus: tuple) -> int:
    """The first index from 2 whose powers reach every unit, by schoolbook products."""
    n = p**k - 1
    one = (1,) + (0,) * (k - 1)

    def power(a: tuple, e: int) -> tuple:
        acc = one
        for bit in bin(e)[2:]:
            acc = _poly_mul_mod(acc, acc, modulus, p)
            if bit == "1":
                acc = _poly_mul_mod(acc, a, modulus, p)
        return acc

    for idx in range(2, p**k):
        a = tuple(idx // p**i % p for i in range(k))
        if all(power(a, n // f) != one for f in prime_factors(n)):
            return idx
    raise AssertionError("no generator")


@pytest.mark.parametrize(
    "p,k", [(3, 1), (7, 1), (3, 2), (3, 5), (3, 7), (5, 3), (7, 2), (13, 3), (61, 2), (509, 2)]
)
def test_search_starts_match_scans_from_the_first_candidate(p, k):
    # The field starts its modulus scan at c_0 = 1 and, for k > 1, its generator
    # scan at index p; both scans here start at the very first candidate.
    field = Field(p, k)
    assert field.modulus == _reference_modulus(p, k)
    assert field.generator == _reference_generator(p, k, field.modulus)
    # the character gathers p roots of unity: the same bits as the q-entry expression
    want = np.exp(2j * np.pi * field.trace_lift / p)
    assert np.array_equal(field.character.view(np.int64), want.view(np.int64))
    if k > 1:
        idx = np.arange(field.order)
        assert np.array_equal(field._digits, np.stack([idx // p**i % p for i in range(k)], 1))


@pytest.mark.parametrize("p,k,name,limit", [(509, 2, "_poly_mul_mod", 1000),
                                             (3, 12, "_poly_divisible", 5000)])
def test_construction_work_counts(p, k, name, limit, monkeypatch):
    # Scans from the first candidate took 13,034 _poly_mul_mod calls at F_{509^2}
    # and 179,443 _poly_divisible calls at F_{3^12}.
    real = getattr(field_module, name)
    calls = []

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(field_module, name, counting)
    Field(p, k)
    assert 0 < len(calls) < limit


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
    tr = f9.trace_lift
    for a in range(9):
        t = tr[a]
        assert 0 <= t < 3
        assert tr[f9.frobenius(a)] == t
    # trace is additive
    for a in range(9):
        for b in range(9):
            assert tr[f9.add(a, b)] == (tr[a] + tr[b]) % 3


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
    with pytest.raises(FFLabError, match="im_part needs k = 2"):
        make_field(5).im_part(1)


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (101, 1), (53, 2)])
def test_squares_match_enumeration(p, k):
    field = make_field(p, k)
    true_squares = {field.mul(t, t) for t in range(field.order)}
    expected = np.array([a in true_squares for a in range(field.order)])
    assert field.squares.dtype == bool
    assert np.array_equal(field.squares, expected)
    for a in range(field.order):
        assert field.is_square(a) == (a in true_squares)
    nz = field.nonzero_squares()
    assert nz.dtype == np.int64
    assert nz.tolist() == sorted(true_squares - {0})
    assert len(nz) == (field.order - 1) // 2


def test_square_table_is_read_only(f9):
    assert not f9.squares.flags.writeable
    with pytest.raises(ValueError):
        f9.squares[2] = not f9.squares[2]


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


# -- one arithmetic for every field ---------------------------------------------------
#
# Prime and extension fields share every table and every operation.  Only the
# construction's scans (the modulus x, the generator from 2, the builtin pow)
# and the name look at whether k = 1; a branch on it anywhere else is a second
# implementation of something the general form already computes.

KEEPS_PRIME_BRANCH = {"_smallest_irreducible", "_pow_noinv", "_find_generator", "__repr__"}

# (operator, constant) pairs that split k = 1 from k > 1, written with k on the left
PRIME_TESTS = {(ast.Eq, 1), (ast.NotEq, 1), (ast.Gt, 1), (ast.LtE, 1), (ast.GtE, 2), (ast.Lt, 2)}
FLIPPED = {ast.Eq: ast.Eq, ast.NotEq: ast.NotEq, ast.Gt: ast.Lt, ast.Lt: ast.Gt,
           ast.GtE: ast.LtE, ast.LtE: ast.GtE}


def _is_degree(node: ast.expr) -> bool:
    """k, or self.k."""
    return (isinstance(node, ast.Name) and node.id == "k") or (
        isinstance(node, ast.Attribute) and node.attr == "k"
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    )


def _tests_prime(node: ast.Compare) -> bool:
    if len(node.ops) != 1:
        return False
    left, right, op = node.left, node.comparators[0], type(node.ops[0])
    if _is_degree(right):
        left, right, op = right, left, FLIPPED.get(op)
    return (
        _is_degree(left) and isinstance(right, ast.Constant) and (op, right.value) in PRIME_TESTS
    )


def prime_branches(source: str) -> list[str]:
    """The Field methods holding a comparison that splits prime fields from the rest."""
    tree = ast.parse(source)
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Field")
    return sorted(
        method.name
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        and any(isinstance(n, ast.Compare) and _tests_prime(n) for n in ast.walk(method))
    )


FIELD_SOURCE = Path(field_module.__file__).read_text()


def test_no_field_method_branches_on_a_prime_field():
    assert [m for m in prime_branches(FIELD_SOURCE) if m not in KEEPS_PRIME_BRANCH] == []


def test_prime_branch_allowlist_holds_only_branches():
    assert set(prime_branches(FIELD_SOURCE)) == KEEPS_PRIME_BRANCH


def test_a_planted_prime_branch_fails():
    planted = (
        "    def _planted(self, a):\n"
        "        if 1 < self.k:\n"
        "            return a\n"
        "        return a % self.p\n\n"
        "    def _refusal(self, k):\n"
        "        if k < 1:\n"
        "            raise ValueError(k)\n\n"
    )
    source = FIELD_SOURCE.replace("    def sub(self, a: int, b: int) -> int:\n",
                                  planted + "    def sub(self, a: int, b: int) -> int:\n")
    assert [m for m in prime_branches(source) if m not in KEEPS_PRIME_BRANCH] == ["_planted"]
    assert "__init__" not in prime_branches(FIELD_SOURCE)  # its k < 1 refusal is no branch
