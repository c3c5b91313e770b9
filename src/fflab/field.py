"""Exact arithmetic in F_{p^k} for odd p: construction, characters, traces, squares.

An element is a plain int in [0, p**k): the base-p packing of its coefficient
vector against a fixed monic irreducible modulus, constant coefficient in the
lowest digit.  Index 0 is the additive and index 1 the multiplicative identity,
and for c < p the index c is the image of the integer c in the prime subfield.

The modulus is the lexicographically smallest monic irreducible of degree k,
coefficients compared constant-term first (degree 1 gets the polynomial x, so
prime fields are plain residues mod p); for k > 1 the scan starts at c_0 = 1,
since x divides every candidate with c_0 = 0.  Multiplication in every field
runs through log/antilog tables against the fixed generator: the smallest
index of multiplicative order p^k - 1, scanned from index p when k > 1, since
the indices below p are F_p, whose units have orders dividing p - 1.

Construction builds only that multiplication core: the modulus, the generator
and the log and antilog tables.  Every other per-element table is built in one
pass on its first read and kept on the field: the base-p digit table, the
trace, the character, the squares, the Frobenius map and the addition table.
Array addition is one gather from a flat int16 q x q addition table up to
ADD_TABLE_MAX_ORDER = 2^11 elements (8 MiB at the cap).  Above the cap every
field, prime or not, gathers its base-p digit rows, adds them mod p and packs
them with the powers of p.  Scalar add and neg, on the base-p digits taken by
integer division, stay the reference for every path.

The additive character is e(a) = exp(2*pi*i * lift(trace(a)) / p) with the
absolute trace down to F_p, a gather from the p values exp(2*pi*i * c / p);
it is non-principal and fixed once per field.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import FFLabError

MAX_ORDER = 1 << 20
ADD_TABLE_MAX_ORDER = 1 << 11  # q * q int16 entries: 8 MiB at the cap


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors by trial division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def _poly_mul_mod(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    """Product of two residues mod the monic polynomial x^k + modulus, over F_p.

    Residues are coefficient tuples of length k, constant term first.
    """
    k = len(modulus)
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: x^k = -modulus
    for deg in range(2 * k - 2, k - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for j in range(k):
                prod[deg - k + j] = (prod[deg - k + j] - c * modulus[j]) % p
    return tuple(prod[:k])


def _poly_divisible(num: list, den: list, p: int) -> bool:
    """True if the monic polynomial num is divisible by the monic den (over F_p)."""
    num = num[:]
    dn = len(den) - 1
    for deg in range(len(num) - 1, dn - 1, -1):
        c = num[deg]
        if c:
            for j in range(dn + 1):
                num[deg - dn + j] = (num[deg - dn + j] - c * den[j]) % p
    return not any(num)


class Field:
    """F_{p^k} with its multiplication core built at construction.

    The modulus, the generator and the log/antilog tables are eager; every
    other per-element table is a cached property, built in one pass on first use.
    """

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise FFLabError(f"{p} is not prime")
        if p == 2:
            raise FFLabError("characteristic 2 is out of scope")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if p**k > MAX_ORDER:
            raise FFLabError(f"{p}^{k} exceeds the order cap {MAX_ORDER}")
        self.p = p
        self.k = k
        self.order = p**k
        self._powers = np.array([p**i for i in range(k)], dtype=np.int64)
        self.modulus = self._smallest_irreducible()
        self.generator = self._find_generator()
        self._build_log_tables()
        self._coords_cache: dict[int, np.ndarray] = {}

    # -- construction helpers -------------------------------------------------

    def _smallest_irreducible(self) -> tuple:
        p, k = self.p, self.k
        if k == 1:
            return (0,)  # the polynomial x
        # candidates in lex order on (c_0, ..., c_{k-1}); x divides those with c_0 = 0
        for idx in range(p ** (k - 1), p**k):
            coeffs = tuple((idx // p ** (k - 1 - i)) % p for i in range(k))
            monic = list(coeffs) + [1]
            if self._is_irreducible(monic):
                return coeffs
        raise AssertionError("no irreducible polynomial found")  # unreachable

    def _is_irreducible(self, monic: list) -> bool:
        p = self.p
        k = len(monic) - 1
        for deg in range(1, k // 2 + 1):
            for idx in range(p**deg):
                den = [(idx // p**i) % p for i in range(deg)] + [1]
                if _poly_divisible(monic, den, p):
                    return False
        return True

    def _coeffs(self, a: int) -> tuple:
        """The base-p digits of a, constant coefficient first."""
        a, p = int(a), self.p
        return tuple(a // p**i % p for i in range(self.k))

    def _pack(self, coeffs) -> int:
        """The index of a coefficient sequence, constant coefficient first."""
        return sum(int(c) * self.p**i for i, c in enumerate(coeffs))

    def _element_order(self, a: int) -> int:
        n = self.order - 1
        for f in prime_factors(n):
            if self._pow_noinv(a, n // f) == 1:
                return 0  # order properly divides n; enough to reject
        return n

    def _pow_noinv(self, a: int, e: int) -> int:
        """a**e for e >= 0 via polynomial arithmetic (construction-time only)."""
        if self.k == 1:
            return pow(a, e, self.p)
        base = self._coeffs(a)
        acc = (1,) + (0,) * (self.k - 1)
        while e:
            if e & 1:
                acc = _poly_mul_mod(acc, base, self.modulus, self.p)
            base = _poly_mul_mod(base, base, self.modulus, self.p)
            e >>= 1
        return self._pack(acc)

    def _find_generator(self) -> int:
        # for k > 1 the indices below p are the prime subfield, of order dividing p - 1
        for a in range(self.p if self.k > 1 else 2, self.order):
            if self._element_order(a) == self.order - 1:
                return a
        raise AssertionError("no generator found")  # unreachable for a field

    def _build_log_tables(self):
        """Antilog table by doubling, then the log table and the zero sentinel.

        Multiplication by the generator g is the k x k matrix ``step`` over
        F_p (row i holds x^i g), acting on coefficient columns through its
        transpose.  Given the columns of g^0 .. g^(m-1), those of g^m ..
        g^(2m-1) are the same block times g^m, written in place into one
        (k, q - 1) array, and squaring ``step`` turns g^m into g^2m: about
        log2(q) matrix products instead of q scalar products.  The columns
        are int16 and ``step`` int32 while p < 2^15, so that every column sum
        k (p - 1)^2 stays below 2^31; only primes reach p >= 2^15, and there
        both are int64.  Horner's rule packs the columns into the first
        quarter of ``_exp_ext``, and ``_exp`` is a view of it.

        ``_log[0]`` is the sentinel 2(q - 1): any sum of two logs that
        involves it lands in the zero tail of ``_exp_ext``, so a product is
        one gather ``_exp_ext[_log[a] + _log[b]]`` with no mask and no modulo.
        """
        p, k, n = self.p, self.k, self.order - 1
        small = p < 1 << 15
        gen = self._coeffs(self.generator)
        step = np.array(
            [_poly_mul_mod(tuple(row), gen, self.modulus, p) for row in np.eye(k, dtype=int)],
            dtype=np.int32 if small else np.int64,
        )
        # column j: the coefficients of g^j
        cols = np.zeros((k, n), dtype=np.int16 if small else np.int64)
        cols[0, 0] = 1
        m = 1
        while m < n:
            c = min(m, n - m)
            np.remainder(step.T @ cols[:, :c], p, out=cols[:, m : m + c])
            step = step @ step % p
            m += c
        exp_ext = np.zeros(4 * n + 1, dtype=np.int64)
        exp = exp_ext[:n]
        exp[:] = cols[k - 1]
        for i in range(k - 2, -1, -1):
            exp *= p
            exp += cols[i]
        del cols
        exp_ext[n : 2 * n] = exp
        log = np.empty(self.order, dtype=np.int64)
        log[exp] = np.arange(n, dtype=np.int64)
        log[0] = 2 * n
        self._exp = exp
        self._log = log
        self._exp_ext = exp_ext

    # -- tables built on first use ----------------------------------------------

    @functools.cached_property
    def _digits(self) -> np.ndarray:
        """(q, k) base-p digits of every element; a prime field's is (p, 1).

        Digit i runs along axis k - 1 - i of a (p, ..., p, k) view, so each
        column is ``arange(p)`` broadcast, with no division.
        """
        p, k = self.p, self.k
        digits = np.empty((self.order, k), dtype=np.int64)
        view = digits.reshape((p,) * k + (k,))
        for i in range(k):
            view[..., i] = np.arange(p, dtype=np.int64).reshape((p,) + (1,) * i)
        return digits

    @functools.cached_property
    def _frob(self) -> np.ndarray:
        """a^p for every a (the identity on F_p): the log times p, mod q - 1, via the antilog."""
        q = self.order
        t = np.zeros(q, dtype=np.int64)
        t[self._exp] = self._exp[(np.arange(q - 1) * self.p) % (q - 1)]
        return t

    @functools.cached_property
    def trace_lift(self) -> np.ndarray:
        """tr(a) for every a, by F_p-linearity from the traces of x^0 .. x^(k-1).

        tr(x^i) sums the conjugates (x^i)^(p^j), each read from the log of
        x^i, which is the index p^i.  The table is the outer sum of
        tr(x^i) * arange(p) over the digit axes, the top digit outermost,
        reduced mod p once.
        """
        p, k, n = self.p, self.k, self.order - 1
        table = np.zeros(1, dtype=np.int64)
        for i in range(k - 1, -1, -1):
            log = int(self._log[p**i])
            tr = 0
            for j in range(k):
                tr = self.add(tr, int(self._exp[log * p**j % n]))
            if tr >= p:
                raise AssertionError("trace left the prime subfield")
            table = (table[:, None] + tr * np.arange(p, dtype=np.int64)).ravel()
        table %= p
        return table

    @functools.cached_property
    def character(self) -> np.ndarray:
        """e(a) for every a: a gather of the p roots of unity by the trace table."""
        table = np.exp(2j * np.pi * np.arange(self.p) / self.p)[self.trace_lift]
        table.setflags(write=False)
        return table

    @functools.cached_property
    def squares(self) -> np.ndarray:
        """squares[a] is True exactly when a = t*t for some t.

        The nonzero squares are the even powers of the generator, since q - 1
        is even, and the zero sentinel log 2(q - 1) is even, so 0 is one too.
        """
        table = self._log % 2 == 0
        table.setflags(write=False)
        return table

    @functools.cached_property
    def _add_table(self) -> np.ndarray:
        """Flat int16 table with a + b at a * q + b, for q <= ADD_TABLE_MAX_ORDER.

        Digit i of a + b is (a_i + b_i) mod p, so the table is an outer sum of
        the p x p table of digit sums, taken once per digit axis from the top;
        a prime field's table is the digit-sum table itself.
        """
        p = self.p
        digit_sum = (np.arange(p, dtype=np.int16)[:, None] + np.arange(p, dtype=np.int16)) % p
        table = digit_sum
        for _ in range(self.k - 1):
            m = len(table) * p
            table = (table[:, None, :, None] * p + digit_sum[None, :, None, :]).reshape(m, m)
        return table.ravel()

    # -- scalar arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        a, b, p, out, unit = int(a), int(b), self.p, 0, 1
        for _ in range(self.k):  # digit i of a + b is (a_i + b_i) mod p
            (a, x), (b, y) = divmod(a, p), divmod(b, p)
            out, unit = out + (x + y) % p * unit, unit * p
        return out

    def neg(self, a: int) -> int:
        a, p, out, unit = int(a), self.p, 0, 1
        for _ in range(self.k):  # digit i of -a is -a_i mod p
            a, x = divmod(a, p)
            out, unit = out + -x % p * unit, unit * p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        # ndarray.item reads a Python int with no numpy scalar made per call
        return self._exp_ext.item(self._log.item(a) + self._log.item(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp.item(-self._log.item(a) % (self.order - 1))

    def dot(self, xs, ys) -> int:
        """Inner product sum_i xs[i]*ys[i] of two coordinate tuples."""
        acc = 0
        for x, y in zip(xs, ys, strict=True):
            acc = self.add(acc, self.mul(x, y))
        return acc

    def rational(self, num: int, den: int = 1) -> int:
        """Image of the rational num/den in the prime subfield."""
        if den % self.p == 0:
            raise ZeroDivisionError(f"denominator {den} vanishes mod {self.p}")
        return self.mul(num % self.p, self.inv(den % self.p))

    # -- vectorised arithmetic on index arrays ---------------------------------

    def add_arrays(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.order <= ADD_TABLE_MAX_ORDER:
            return self._add_table[a * self.order + b].astype(np.int64)
        return ((self._digits[a] + self._digits[b]) % self.p) @ self._powers

    def neg_arrays(self, a) -> np.ndarray:
        return self.mul_arrays(a, self.p - 1)  # -a = a (p - 1)

    def sub_arrays(self, a, b) -> np.ndarray:
        return self.add_arrays(a, self.neg_arrays(b))

    def mul_arrays(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return self._exp_ext[self._log[a] + self._log[b]]

    def dot_arrays(self, a, b) -> np.ndarray:
        """sum_j a[..., j] b[..., j] over F for at least one coordinate j;
        broadcasts like mul_arrays."""
        prod = self.mul_arrays(a, b)
        acc = prod[..., 0]
        for j in range(1, prod.shape[-1]):
            acc = self.add_arrays(acc, prod[..., j])
        return acc

    # -- structure maps ---------------------------------------------------------

    def frobenius(self, a: int) -> int:
        return int(self._frob[a])

    def frobenius_arrays(self, a) -> np.ndarray:
        return self._frob[np.asarray(a, dtype=np.int64)]

    def im_part(self, a: int) -> int:
        """(a - conj(a)) / 2 for a quadratic extension, conj the Frobenius."""
        if self.k != 2:
            raise FFLabError("im_part needs k = 2")
        return self.mul(self.sub(a, self.frobenius(a)), self.inv(2 % self.p))

    def im_arrays(self, a) -> np.ndarray:
        if self.k != 2:
            raise FFLabError("im_part needs k = 2")
        a = np.asarray(a, dtype=np.int64)
        diff = self.add_arrays(a, self.neg_arrays(self._frob[a]))
        return self.mul_arrays(diff, np.int64(self.inv(2 % self.p)))

    # -- squares -----------------------------------------------------------------

    def is_square(self, a: int) -> bool:
        return bool(self.squares[a])

    def nonzero_squares(self) -> np.ndarray:
        return np.flatnonzero(self.squares[1:]) + 1

    @property
    def minus_one(self) -> int:
        return self.neg(1)

    # -- misc ---------------------------------------------------------------------

    def grid_coords(self, m: int) -> np.ndarray:
        """(order**m, m) table of coordinates of flat indices over F^m.

        Flat indices are little-endian mixed radix: coordinate 0 varies fastest.
        """
        if m not in self._coords_cache:
            q = self.order
            idx = np.arange(q**m, dtype=np.int64)
            self._coords_cache[m] = np.stack(
                [(idx // q**j) % q for j in range(m)], axis=1
            )
        return self._coords_cache[m]

    def __repr__(self):
        if self.k == 1:
            return f"Field({self.p})"
        return f"Field({self.p}^{self.k})"

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))


@functools.lru_cache(maxsize=64)
def make_field(p: int, k: int = 1) -> Field:
    """Cached field constructor; fields are immutable so sharing is safe."""
    return Field(p, k)
