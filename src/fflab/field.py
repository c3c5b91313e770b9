"""Exact arithmetic in F_{p^k} for odd p: construction, characters, traces, squares.

An element is a plain int in [0, p**k): the base-p packing of its coefficient
vector against a fixed monic irreducible modulus, constant coefficient in the
lowest digit.  Index 0 is the additive and index 1 the multiplicative identity,
and for c < p the index c is the image of the integer c in the prime subfield.

The modulus is the lexicographically smallest monic irreducible of degree k,
coefficients compared constant-term first (degree 1 gets the polynomial x, so
prime fields are plain residues mod p).  Multiplication in extension fields
runs through log/antilog tables against the fixed generator: the smallest
index of multiplicative order p^k - 1.

The additive character is e(a) = exp(2*pi*i * lift(trace(a)) / p) with the
absolute trace down to F_p; it is non-principal and fixed once per field.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    DegreeTooLargeError,
    EvenCharacteristicError,
    NotPrimeError,
    NotQuadraticExtensionError,
)

DEFAULT_MAX_ORDER = 1 << 20


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
    """F_{p^k} with all per-element tables built eagerly at construction."""

    def __init__(self, p: int, k: int = 1, max_order: int = DEFAULT_MAX_ORDER):
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if p == 2:
            raise EvenCharacteristicError("characteristic 2 is out of scope")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if p**k > max_order:
            raise DegreeTooLargeError(f"{p}^{k} exceeds the order cap {max_order}")
        self.p = p
        self.k = k
        self.order = p**k
        self._powers = np.array([p**i for i in range(k)], dtype=np.int64)
        self.modulus = self._smallest_irreducible()
        if k > 1:
            self._digits = self._digit_table()
        else:
            self._digits = None
        self.generator = self._find_generator()
        if k > 1:
            self._build_log_tables()
        self._frob = self._frobenius_table()
        self.trace_lift = self._trace_table()
        self.character = np.exp(2j * np.pi * self.trace_lift / p)
        self.character.setflags(write=False)
        self._root_lists = self._square_root_lists()
        self._coords_cache: dict[int, np.ndarray] = {}

    # -- construction helpers -------------------------------------------------

    def _smallest_irreducible(self) -> tuple:
        p, k = self.p, self.k
        if k == 1:
            return (0,)  # the polynomial x
        for idx in range(p**k):
            # enumerate candidates in lex order on (c_0, ..., c_{k-1})
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

    def _digit_table(self) -> np.ndarray:
        idx = np.arange(self.order, dtype=np.int64)
        return np.stack([(idx // self.p**i) % self.p for i in range(self.k)], axis=1)

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
        base = tuple(int(d) for d in self._digits[a])
        acc = (1,) + (0,) * (self.k - 1)
        while e:
            if e & 1:
                acc = _poly_mul_mod(acc, base, self.modulus, self.p)
            base = _poly_mul_mod(base, base, self.modulus, self.p)
            e >>= 1
        return int(np.dot(np.array(acc, dtype=np.int64), self._powers))

    def _find_generator(self) -> int:
        for a in range(2, self.order):
            if self._element_order(a) == self.order - 1:
                return a
        raise AssertionError("no generator found")  # unreachable for a field

    def _build_log_tables(self):
        q = self.order
        exp = np.empty(q - 1, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        gen = tuple(int(d) for d in self._digits[self.generator])
        cur = (1,) + (0,) * (self.k - 1)
        for i in range(q - 1):
            idx = int(np.dot(np.array(cur, dtype=np.int64), self._powers))
            exp[i] = idx
            log[idx] = i
            cur = _poly_mul_mod(cur, gen, self.modulus, self.p)
        self._exp = exp
        self._log = log

    def _frobenius_table(self) -> np.ndarray:
        q = self.order
        if self.k == 1:
            return np.arange(q, dtype=np.int64)
        t = np.zeros(q, dtype=np.int64)
        t[self._exp] = self._exp[(np.arange(q - 1) * self.p) % (q - 1)]
        t[0] = 0
        return t

    def _trace_table(self) -> np.ndarray:
        q = self.order
        if self.k == 1:
            return np.arange(q, dtype=np.int64)
        acc = np.arange(q, dtype=np.int64)
        cur = np.arange(q, dtype=np.int64)
        for _ in range(self.k - 1):
            cur = self._frob[cur]
            acc = self.add_arrays(acc, cur)
        if (acc >= self.p).any():
            raise AssertionError("trace left the prime subfield")
        return acc

    def _square_root_lists(self) -> list[tuple[int, ...]]:
        roots: list[list[int]] = [[] for _ in range(self.order)]
        t = np.arange(self.order, dtype=np.int64)
        sq = self.mul_arrays(t, t)
        for base, s in enumerate(sq):
            roots[int(s)].append(base)
        return [tuple(sorted(r)) for r in roots]

    # -- scalar arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return int(((self._digits[a] + self._digits[b]) % self.p) @ self._powers)

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return int(((self.p - self._digits[a]) % self.p) @ self._powers)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.k == 1:
            return (a * b) % self.p
        return int(self._exp[(self._log[a] + self._log[b]) % (self.order - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return int(self._exp[(-self._log[a]) % (self.order - 1)])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0 if e else 1
        if self.k == 1:
            return pow(a, e % (self.p - 1) if e else 0, self.p)
        return int(self._exp[(self._log[a] * e) % (self.order - 1)])

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
        if self.k == 1:
            return (a + b) % self.p
        return ((self._digits[a] + self._digits[b]) % self.p) @ self._powers

    def neg_arrays(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if self.k == 1:
            return (-a) % self.p
        return ((self.p - self._digits[a]) % self.p) @ self._powers

    def sub_arrays(self, a, b) -> np.ndarray:
        return self.add_arrays(a, self.neg_arrays(b))

    def mul_arrays(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.k == 1:
            return (a * b) % self.p
        a, b = np.broadcast_arrays(a, b)
        out = np.zeros(a.shape, dtype=np.int64)
        nz = (a != 0) & (b != 0)
        out[nz] = self._exp[(self._log[a[nz]] + self._log[b[nz]]) % (self.order - 1)]
        return out

    def inv_arrays(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if (a == 0).any():
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.k == 1:
            # batched Fermat inversion
            return np.array([pow(int(x), self.p - 2, self.p) for x in a.ravel()],
                            dtype=np.int64).reshape(a.shape)
        return self._exp[(-self._log[a]) % (self.order - 1)]

    # -- structure maps ---------------------------------------------------------

    def frobenius(self, a: int) -> int:
        return int(self._frob[a])

    def frobenius_arrays(self, a) -> np.ndarray:
        return self._frob[np.asarray(a, dtype=np.int64)]

    def trace(self, a: int) -> int:
        """Absolute trace, returned as an element of the prime subfield (index < p)."""
        return int(self.trace_lift[a])

    def im_part(self, a: int) -> int:
        """(a - conj(a)) / 2 for a quadratic extension, conj the Frobenius."""
        if self.k != 2:
            raise NotQuadraticExtensionError("im_part needs k = 2")
        return self.mul(self.sub(a, self.frobenius(a)), self.inv(2 % self.p))

    def im_arrays(self, a) -> np.ndarray:
        if self.k != 2:
            raise NotQuadraticExtensionError("im_part needs k = 2")
        a = np.asarray(a, dtype=np.int64)
        diff = self.add_arrays(a, self.neg_arrays(self._frob[a]))
        return self.mul_arrays(diff, np.int64(self.inv(2 % self.p)))

    # -- squares -----------------------------------------------------------------

    def is_square(self, a: int) -> bool:
        return len(self._root_lists[a]) > 0

    def square_roots(self, a: int) -> tuple[int, ...]:
        return self._root_lists[a]

    def nonzero_squares(self) -> np.ndarray:
        vals = [a for a in range(1, self.order) if self.is_square(a)]
        return np.array(vals, dtype=np.int64)

    @property
    def minus_one(self) -> int:
        return self.neg(1)

    # -- misc ---------------------------------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        if self.k == 1:
            return (a,)
        return tuple(int(d) for d in self._digits[a])

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
