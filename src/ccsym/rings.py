"""Scalar coefficient rings: prime fields, Galois fields, artinian local rings.

Every descriptor is a small immutable object that knows how to do exact
arithmetic on raw payloads; `RingValue` is a thin operator-overloading wrapper
around (descriptor, payload) for the public API.  Below it, polynomials,
series and the symbols compute on payloads (powers through `_signed_power`,
embeddings through `_embed_raw`, which `embed` wraps) and wrap a result
once.  Descriptors are interned: equal constructor
arguments give the same instance, so rings compare by identity and each
holds its own tables and memos.  Payload conventions:

  * PrimeField(p)        -- int in [0, p)
  * GaloisField(p, d)    -- tuple of d ints, coordinates w.r.t. 1, g, ..., g^(d-1)
  * ArtinianLocal(k, m)  -- tuple of m field payloads, coordinates of e^0..e^(m-1)

The Galois generator g is pinned once per (p, d): its minimal polynomial is the
first monic polynomial x^d + c_{d-1}x^{d-1} + ... + c_0 (enumerated by the
integer sum(c_i * p^i) ascending) that is irreducible and whose root x is a
multiplicative generator.  This choice is recorded in the README; F_4 gets
x^2+x+1, F_8 gets x^3+x+1 and F_9 gets x^2+x+2.

A Galois field with at most _LOG_BOUND = 2^13 elements (this covers F_{3^8},
the residue field of a degree-4 place over F9) answers `_mul`, `_add`, `_inv`
and `_pow` from log and Zech tables to its pinned generator g
(Lidl-Niederreiter, Finite Fields, 9.1; Huber, IEEE Trans. Inf. Theory 36,
1990): `exp[i] = g^i`, `log` inverts it, and `zech[k]` is the log of 1 + g^k,
so a product is one index sum and a sum g^i + g^j = g^(i + zech[j - i]) one
more lookup.  The tables are built on the field's first use, not when it is
constructed; at the bound they take about 1.8 MiB (1.2 MiB for F_{3^8}).
Larger fields, and unreduced payloads, use the kernels: `_add_kernel` adds
coordinates, and `_mul_kernel` is a Kronecker substitution (von zur
Gathen-Gerhard, Modern Computer Algebra, 8.4): both payloads become integers
with a slot of bitlen(d(p-1)^2) bits per coordinate, each coordinate reduced
mod p as it is packed so that none overflows its slot, and one integer product
holds the 2d - 1 product coefficients, reduced by the pinned minpoly's nonzero
terms only.

All rings here are local: every element is a unit or nilpotent, so valuations
of Laurent series over them are well defined, and `RingDescriptor` tests
nilpotency once, as "not a unit" (A((t)) over an artinian A is local too).

An artinian ring with at most _TABLE_BOUND = 256 elements numbers its
elements by small-int codes (`_ScalarTables`).  It answers `_mul` and `_add`
from two flat code tables of |A|^2 slots, and `_inv` from one of |A| slots,
reached through a dict over its payloads and filled lazily by the arithmetic
kernels; at the bound they take about 1 MiB.  They are built on the first
multiply, add or inverse, not when the ring is constructed.  An inverse is
the power series 1/a in e cut at e^m, by the causal recurrence
`_raw_series_div` that also divides Laurent series: O(m) per e-term of a.

The matrix and polynomial kernels at the end of this module are written
once, against the ring operations and the row primitive `_axpy` (row[j] +=
f * y over (j, y) pairs).  Both kinds of tables answer them on small-int
codes, with no payload hashed: an artinian code is the payload's base-|k|
digits, and a log-tabled field's code is the log i of g^i, or q - 1 for
zero, read off the log tables' own lists and dict (no added memory).
Callers (matrix solves; factoring, root finding and Taylor shifts at places;
the series kernel of the artinian Contou-Carrere symbol) encode their
payload lists once (`_coded`; a list holding a payload outside the index,
such as an unreduced one, stays on payloads) and decode results.  For the
symbol, artinian tables answer as the base of a `LaurentRing`: they carry
its `char`, `nil_bound`, zero test and wrapper, and `format_value` prints a
code as its payload.
"""

from __future__ import annotations

import functools
import math
import random

from .errors import (AlgebraError, DescriptorMismatch, DivisionByNonUnit,
                     SingularCompression)


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.  A witness proves n composite at any size;
    at or above _MR_BOUND passing every base proves nothing, so that raises."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s, d = 0, n - 1
    while d % 2 == 0:
        s, d = s + 1, d // 2
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise AlgebraError(f"primality of {n} is not proven at or above {_MR_BOUND}")
    return True


# _factor trial-divides below _TRIAL_BOUND, then splits what is left with
# Pollard-Brent rho.  Rho's cost grows like the square root of the smallest
# prime factor; _RHO_BUDGET squarings (a few seconds) reach factors of about
# 40 bits and bound the time spent on anything harder
_TRIAL_BOUND = 100
_RHO_BUDGET = 1 << 23


def _factor(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1; AlgebraError if a cofactor resists
    rho within its budget or is too large for _is_prime to prove."""
    out: dict[int, int] = {}
    k = 2
    while k < _TRIAL_BOUND and k * k <= n:
        while n % k == 0:
            out[k] = out.get(k, 0) + 1
            n //= k
        k += 1
    stack = [n] if n > 1 else []
    budget = _RHO_BUDGET
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d, budget = _rho(m, budget)
            stack += [d, m // d]
    return out


def _rho(n: int, budget: int) -> tuple[int, int]:
    """A proper factor of the odd composite n by Pollard-Brent rho, and the
    budget of squarings left."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r
            if budget < 0:
                raise AlgebraError(f"cannot factor {n} within the rho budget")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(128, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            # the batch overshot: step through it one squaring at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, budget


def _power(x, e: int, one, mul):
    """x**e for e >= 0 by square-and-multiply under `mul`, without the final
    squaring, whose result would go unused."""
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


def _signed_power(ring, x, e: int):
    """x**e on payloads of `ring`; a negative e goes through its inverse."""
    if e < 0:
        x, e = ring._inv(x), -e
    return _power(x, e, ring._one_raw(), ring._mul)


# ---------------------------------------------------------------------------
# descriptors

# every descriptor, under (class, `_key` of its constructor arguments)
_RINGS: dict = {}


class _Interned(type):
    """Constructing a descriptor returns the instance registered under its
    class and `_key`, the constructor's arguments with defaults filled in,
    and runs `__init__` only for a new key: equal rings are one object,
    which compares and hashes by identity."""

    def __call__(cls, *args, **kwargs):
        key = (cls, cls._key(*args, **kwargs))
        ring = _RINGS.get(key)
        if ring is None:
            ring = _RINGS[key] = super().__call__(*args, **kwargs)
            ring._args = key[1]
        return ring


class RingDescriptor(metaclass=_Interned):
    """Base class; concrete rings implement raw-payload arithmetic."""

    kind = "abstract"
    is_field = False
    char = 0
    #: smallest L with m^L = 0 for the maximal ideal m (1 for fields)
    nil_bound = 1

    # -- payload arithmetic, provided by subclasses ------------------------
    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _is_unit(self, a) -> bool:
        raise NotImplementedError

    def _is_nilpotent(self, a) -> bool:
        return not self._is_unit(a)        # every ring here is local

    def _zero_raw(self):
        return self._zero

    def _one_raw(self):
        return self._one

    def _from_int_raw(self, n: int):
        raise NotImplementedError

    def _nonzero_test(self):
        """A predicate on payloads: false exactly on the zero payload."""
        return self._zero_raw().__ne__

    # -- the matrix kernel on payloads; see `_coded` ----------------------
    _tables = None      # the code tables of a small artinian ring

    def _axpy(self, row, f, pairs):
        """row[j] += f * y over the (j, y) pairs."""
        add, mul = self._add, self._mul
        for j, y in pairs:
            row[j] = add(row[j], mul(f, y))

    def _decode(self, x):
        """The payload of a kernel entry: on a descriptor, the entry."""
        return x

    def _wrapper(self):
        """payload -> element."""
        return functools.partial(RingValue, self)

    # -- uniform element API ----------------------------------------------
    def zero(self) -> "RingValue":
        return RingValue(self, self._zero_raw())

    def one(self) -> "RingValue":
        return RingValue(self, self._one_raw())

    def from_int(self, n: int) -> "RingValue":
        return RingValue(self, self._from_int_raw(n))

    def elements(self):
        """Iterate all elements (finite rings only)."""
        raise NotImplementedError

    def units(self):
        for x in self.elements():
            if x.is_unit():
                yield x

    def random(self, rng) -> "RingValue":
        return RingValue(self, self._random_raw(rng))

    def random_unit(self, rng) -> "RingValue":
        while True:
            x = self.random(rng)
            if x.is_unit():
                return x

    def coerce(self, x) -> "RingValue":
        if isinstance(x, RingValue):
            if x.ring is not self:
                raise DescriptorMismatch(f"cannot coerce {x.ring} value into {self}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise DescriptorMismatch(f"cannot coerce {x!r} into {self}")

    def __reduce__(self):
        # copies and unpickled rings are rebuilt through the registry
        return type(self), self._args


class PrimeField(RingDescriptor):
    kind = "prime-field"
    is_field = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise AlgebraError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.degree = 1
        self.size = p
        self._zero, self._one = 0, 1

    @staticmethod
    def _key(p):
        return (p,)

    def __repr__(self):
        return f"F{self.p}"

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _axpy(self, row, f, pairs):
        p = self.p
        for j, y in pairs:
            row[j] = (row[j] + f * y) % p

    def _inv(self, a):
        if a % self.p == 0:
            raise DivisionByNonUnit(f"0 is not invertible in {self}")
        return pow(a, self.p - 2, self.p)

    def _is_unit(self, a):
        return a % self.p != 0

    def _from_int_raw(self, n):
        return n % self.p

    def elements(self):
        for a in range(self.p):
            yield RingValue(self, a)

    def _random_raw(self, rng):
        return rng.randrange(self.p)


def _minpoly(p: int, d: int) -> tuple[int, ...]:
    """Pinned minimal polynomial of the F_{p^d} generator (see module docstring).

    A candidate f is accepted when f(0) != 0, x^(p^d) = x and
    x^((p^d - 1)/q) != 1 mod f for every prime q | p^d - 1.  Then x is a unit
    of order exactly p^d - 1 in F_p[x]/(f); a quotient that is not a field has
    at most p^d - 2 units, so f is irreducible and x a generator."""
    order = p ** d - 1
    primes = list(_factor(order))
    # GaloisField's kernel multiply is arithmetic mod any monic f; the
    # candidates never touch the log tables, which assume a generator, nor
    # the registry
    ring = GaloisField.__new__(GaloisField)
    x, one = (0, 1) + (0,) * (d - 2), (1,) + (0,) * (d - 1)

    def power(e):
        return _power(x, e, one, ring._mul_kernel)

    # the encodings below p are the binomials x^d + c0, whose roots satisfy
    # x^(d(p-1)) = 1 and so are never primitive
    for enc in range(p, p ** d):
        coeffs = tuple((enc // p ** i) % p for i in range(d))
        ring._pin(p, d, coeffs)
        if coeffs[0] and power(order + 1) == x and all(
                power(order // q) != one for q in primes):
            return coeffs
    raise AlgebraError(f"no primitive polynomial found for F_{p}^{d}")  # pragma: no cover


class GaloisField(RingDescriptor):
    kind = "galois-field"
    is_field = True

    def __init__(self, p: int, d: int):
        if d < 2:
            raise AlgebraError("use PrimeField for degree 1")
        self._pin(p, d, _minpoly(p, d))

    def _pin(self, p: int, d: int, minpoly: tuple):
        """Arithmetic modulo x^d + minpoly; `_minpoly` pins each candidate."""
        self.p = self.char = p
        self.d = self.degree = d
        self.size = p ** d
        self.minpoly = minpoly
        self._zero = (0,) * d
        self._one = (1,) + (0,) * (d - 1)
        # product coefficients are at most d(p-1)^2: slots never carry
        self._slot = (d * (p - 1) ** 2).bit_length()
        # for i >= d, x^i = sum t * x^(i+o) over the pairs (o, t) below
        self._tail = tuple((j - d, -c % p) for j, c in enumerate(minpoly) if c)

    @staticmethod
    def _key(p, d):
        return (p, d)

    def __repr__(self):
        return f"F{self.size}"

    def generator(self) -> "RingValue":
        return RingValue(self, tuple([0, 1] + [0] * (self.d - 2)))

    @functools.cached_property
    def _logs(self):
        """The log and Zech tables, built on first use; None above
        _LOG_BOUND."""
        return _LogTables(self) if self.size <= _LOG_BOUND else None

    _tables = property(lambda self: self._logs)     # the codes of `_coded`

    # With the tables, a nonzero payload is a power g^i of the generator, and
    # the list index i + j - n is (i + j) mod n for 0 <= i, j < n = q - 1.
    # Zero has no log: against a reduced payload it is answered at once, and
    # an unreduced payload, which has no log either, goes to the kernel
    def _add(self, a, b):
        t = self._logs
        if t is not None:
            i, j = t.log.get(a), t.log.get(b)
            if i is not None and j is not None:
                z = t.zech[j - i]       # g^i + g^j = g^i (1 + g^(j-i))
                return self._zero if z is None else t.exp[i + z - t.n]
            if ((i is not None or a == self._zero)
                    and (j is not None or b == self._zero)):
                return b if i is None else a
        return self._add_kernel(a, b)

    def _mul(self, a, b):
        t = self._logs
        if t is not None:
            i, j = t.log.get(a), t.log.get(b)
            if i is not None and j is not None:
                return t.exp[i + j - t.n]
            if ((i is not None or a == self._zero)
                    and (j is not None or b == self._zero)):
                return self._zero
        return self._mul_kernel(a, b)

    def _add_kernel(self, a, b):
        return tuple([(x + y) % self.p for x, y in zip(a, b)])

    def _neg(self, a):
        return tuple([(-x) % self.p for x in a])

    def _mul_kernel(self, a, b):
        p, d, k = self.p, self.d, self._slot   # see the module docstring
        x = y = 0
        for i in range(d - 1, -1, -1):
            x = x << k | a[i] % p
            y = y << k | b[i] % p
        z = x * y
        mask = (1 << k) - 1
        res = []
        for _ in range(2 * d - 1):
            res.append(z & mask)
            z >>= k
        for i in range(2 * d - 2, d - 1, -1):
            c = res[i] % p
            if c:
                for j, t in self._tail:
                    res[i + j] += c * t
        del res[d:]
        return tuple([c % p for c in res])

    def _pow(self, a, e: int):
        t = self._logs
        if t is not None:
            i = t.log.get(a)
            if i is not None:
                return t.exp[i * e % t.n]
        return _power(a, e, self._one_raw(), self._mul)

    def _inv(self, a):
        t = self._logs
        if t is not None:
            i = t.log.get(a)
            if i is not None:
                return t.exp[-i]
        if not any(c % self.p for c in a):
            raise DivisionByNonUnit(f"0 is not invertible in {self}")
        return self._pow(a, self.size - 2)

    def _is_unit(self, a):
        # a reduced unit has its largest coordinate in (0, p), a nonzero
        # residue; any other payload is tested mod p, as `_inv` tests it
        return any(a) and (0 < max(a) < self.p or any(c % self.p for c in a))

    def _from_int_raw(self, n):
        return tuple([n % self.p] + [0] * (self.d - 1))

    def elements(self):
        for enc in range(self.size):
            yield RingValue(self, tuple((enc // self.p ** i) % self.p for i in range(self.d)))

    def _random_raw(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.d))


# the largest artinian ring, by number of elements, that gets scalar tables
_TABLE_BOUND = 256
# the largest nilpotency order m, refused before any m-long payload is built;
# over F5[e]/e^1024 a CC symbol of two units with nilpotent poles takes 43 s
_NILPOTENCY_LIMIT = 1024
# the largest Galois field that gets log and Zech tables: the smallest power
# of two that covers F_{3^8}, the residue field of degree-4 places over F9
_LOG_BOUND = 1 << 13


def _finite_field(p: int, d: int):
    """F_{p^d}: a prime field for d = 1, else the pinned Galois field."""
    return PrimeField(p) if d == 1 else GaloisField(p, d)


class _LogTables:
    """Discrete logarithms to the pinned generator g of a Galois field with
    q elements (Lidl-Niederreiter, Finite Fields, 9.1): `exp[i]` is the
    payload of g^i for 0 <= i < n = q - 1, `log` maps each nonzero payload
    back to its i, and `zech[k]` is the log of 1 + g^k (Zech's logarithm),
    or None where 1 + g^k = 0.  `exp` is filled by repeated multiplication
    by g, a shift of the coordinates with the top one folded back through
    g^d = -minpoly(g); the log keys are the exp entries.  They also run the
    field on codes (`_coded`): code i < n is g^i, and code n is zero."""

    __slots__ = ("exp", "log", "zech", "n", "field", "size", "char",
                 "degree", "_zero", "_one", "_minus_one")
    is_field = True

    def __init__(self, field: "GaloisField"):
        p, x = field.p, field._one_raw()
        fold = [-c % p for c in field.minpoly]
        self.n = n = field.size - 1
        self.exp = exp = [x]
        for _ in range(n - 1):
            top, x = x[-1], (0,) + x[:-1]
            if top:
                x = tuple([(c + top * f) % p for c, f in zip(x, fold)])
            exp.append(x)
        self.log = log = dict(zip(exp, range(n)))
        self.zech = [log.get(((x[0] + 1) % p,) + x[1:]) for x in exp]
        self.field, self.size, self.char, self.degree = field, field.size, p, field.d
        self._zero, self._one, self._minus_one = n, 0, self.zech.index(None)

    def _code(self, x):
        """The code of a payload; None for an unreduced one."""
        i = self.log.get(x)
        return self.n if i is None and x == self.field._zero else i

    def _decode(self, a):
        return self.exp[a] if a != self.n else self.field._zero

    def _mul(self, a, b):
        n = self.n
        return n if a == n or b == n else (a + b) % n

    def _add(self, a, b):
        n = self.n
        if a == n or b == n:
            return a + b - n                    # the other code
        z = self.zech[b - a]
        return n if z is None else (a + z) % n

    def _neg(self, a):
        return self._mul(a, self._minus_one)

    def _inv(self, a):
        if a == self.n:
            raise DivisionByNonUnit(f"0 is not invertible in {self.field}")
        return -a % self.n

    def _pow(self, a, e: int):
        return (self.n if e else 0) if a == self.n else a * e % self.n

    def _is_unit(self, a):
        return a != self.n

    def _from_int_raw(self, k: int):
        return self._code(self.field._from_int_raw(k))

    def _random_raw(self, rng):
        return self._code(self.field._random_raw(rng))

    _zero_raw, _one_raw = RingDescriptor._zero_raw, RingDescriptor._one_raw
    _axpy = RingDescriptor._axpy


class _ScalarTables:
    """The arithmetic of a small artinian ring A = k[e]/e^m on element
    codes, which the matrix kernel and the series kernel of the artinian
    symbol run on as on a descriptor.  A code is the payload's base-|k|
    digits, coordinate 0 lowest (its place in `elements()`; `index` and
    `elems` translate), so 0 codes zero, a unit has a nonzero lowest digit
    and e^k divides a code with k zero digits.  Slot i * n + j of `sums`
    (`results[0]`) or `prods` (`results[1]`) holds the code for codes i and
    j, and slot i of `inverses` that of the unit i's inverse; the ring's
    kernels fill each on first use."""

    __slots__ = ("ring", "index", "elems", "n", "q", "m", "char", "nil_bound",
                 "results", "sums", "prods", "inverses", "_kernels",
                 "_inv_kernel", "_code", "_zero", "_one", "_minus_one")
    is_field = False

    def __init__(self, ring: "ArtinianLocal"):
        self.ring = ring
        self.elems = [x.raw for x in ring.elements()]
        self.index = {x: i for i, x in enumerate(self.elems)}
        self.n = n = len(self.elems)
        self.q, self.m = ring.base.size, ring.m
        self.char, self.nil_bound = ring.char, ring.nil_bound
        self.results = self.sums, self.prods = [None] * (n * n), [None] * (n * n)
        self.inverses = [None] * n
        self._kernels = (ring._add_kernel, ring._mul_kernel)
        self._inv_kernel = ring._inv_kernel
        self._code, self._zero = self.index.get, 0
        self._one = self.index[ring._one_raw()]
        self._minus_one = self.index[ring._from_int_raw(-1)]

    def _slot(self, op: int, a: int, b: int) -> int:
        """The code in results[op] for codes a and b, filled on first use."""
        k = a * self.n + b
        c = self.results[op][k]
        if c is None:
            c = self.results[op][k] = self.index[
                self._kernels[op](self.elems[a], self.elems[b])]
        return c

    def _add(self, a, b):
        c = self.sums[a * self.n + b]
        return self._slot(0, a, b) if c is None else c

    def _mul(self, a, b):
        c = self.prods[a * self.n + b]
        return self._slot(1, a, b) if c is None else c

    def _neg(self, a):
        c = self.prods[a * self.n + self._minus_one]
        return self._slot(1, a, self._minus_one) if c is None else c

    def _inv(self, a):
        c = self.inverses[a]
        if c is None:
            # a non-unit raises from the kernel, with its payload's message
            c = self.inverses[a] = self.index[self._inv_kernel(self.elems[a])]
        return c

    def _axpy(self, row, f, pairs):
        """row[j] += f * y over the (j, y) pairs."""
        n, sums, prods = self.n, self.sums, self.prods
        fn = f * n
        for j, y in pairs:
            c = prods[fn + y]
            if c is None:
                c = self._slot(1, f, y)
            x = row[j]
            s = sums[x * n + c]
            row[j] = self._slot(0, x, c) if s is None else s

    def _is_unit(self, a):
        return a % self.q != 0

    def _valuation(self, a):
        """The e-adic valuation: the number of low zero digits, m for 0."""
        return next((k for k in range(self.m) if a // self.q ** k % self.q),
                    self.m)

    def _unshift(self, a, k):
        """a / e^k for a multiple a of e^k."""
        return a // self.q ** k

    def _decode(self, a):
        return self.elems[a]

    def _from_int_raw(self, k: int):
        return self.index[self.ring._from_int_raw(k)]

    _zero_raw, _one_raw = RingDescriptor._zero_raw, RingDescriptor._one_raw
    _nonzero_test, _wrapper = RingDescriptor._nonzero_test, RingDescriptor._wrapper


def _tabled(kernel, op: int):
    """The ring operation `kernel` on payloads, answered from slot op of the
    ring's `_tables` when both payloads have codes."""
    def tabled(self, a, b):
        tables = self._tables
        if tables is not None:
            index = tables.index
            i, j = index.get(a), index.get(b)
            if i is not None and j is not None:
                # `_slot` inlined for a filled slot: this is the hot path of
                # every series kernel over a tabled ring
                c = tables.results[op][i * tables.n + j]
                return tables.elems[tables._slot(op, i, j) if c is None else c]
        return kernel(self, a, b)
    return tabled


class ArtinianLocal(RingDescriptor):
    """k[e]/(e^m) for a finite field k; elements sum_{i<m} a_i e^i.

    `_mul`, `_add` and `_inv` read the tables when the ring is small
    enough (see the module docstring); `_mul_kernel`, `_add_kernel` and
    `_inv_kernel` fill them and serve payloads outside the index and larger
    rings."""

    kind = "artinian-local"
    is_field = False

    def __init__(self, base: RingDescriptor, m: int):
        if not base.is_field or isinstance(base, ArtinianLocal):
            raise AlgebraError("artinian coefficients must sit over a field")
        if m < 2:
            raise AlgebraError("nilpotency order m must be at least 2")
        if m > _NILPOTENCY_LIMIT:
            raise AlgebraError(f"nilpotency order m must be at most "
                               f"{_NILPOTENCY_LIMIT}, not {m}")
        self.base = base
        self.m = m
        self.char = base.char
        self.nil_bound = m
        self._zero = (base._zero_raw(),) * m
        self._one = (base._one_raw(),) + self._zero[1:]

    @staticmethod
    def _key(base, m):
        return (base, m)

    def __repr__(self):
        return f"{self.base}[e]/e^{self.m}"

    @functools.cached_property
    def _tables(self):
        """The tables, built on first use; None above the bound."""
        if self.base.size ** self.m <= _TABLE_BOUND:
            return _ScalarTables(self)
        return None

    def _add_kernel(self, a, b):
        return tuple(self.base._add(x, y) for x, y in zip(a, b))

    def _neg(self, a):
        tables = self._tables
        if tables is not None:
            i = tables.index.get(a)
            if i is not None:
                return tables.elems[tables._neg(i)]
        return tuple(self.base._neg(x) for x in a)

    def _mul_kernel(self, a, b):
        m, add, mul = self.m, self.base._add, self.base._mul
        zero = self.base._zero_raw()
        res = [zero] * m
        for i, ai in enumerate(a):
            if ai != zero:
                for j in range(m - i):
                    res[i + j] = add(res[i + j], mul(ai, b[j]))
        return tuple(res)

    _add = _tabled(_add_kernel, 0)
    _mul = _tabled(_mul_kernel, 1)

    def _inv(self, a):
        tables = self._tables
        if tables is not None:
            i = tables.index.get(a)
            if i is not None:
                c = tables.inverses[i]
                return tables.elems[tables._inv(i) if c is None else c]
        return self._inv_kernel(a)

    def _inv_kernel(self, a):
        base = self.base
        if not base._is_unit(a[0]):
            raise DivisionByNonUnit(f"constant term of {a} is not a unit in {self}")
        zero = base._zero_raw()
        tail = [(i, base._neg(c)) for i, c in enumerate(a) if i and c != zero]
        return tuple(_raw_series_div({0: base._one_raw()}, 0, tail,
                                     base._inv(a[0]), self.m, base))

    def _is_unit(self, a):
        return self.base._is_unit(a[0])

    def _valuation(self, a):
        """The least k with a unit coordinate k, m for none."""
        unit = self.base._is_unit
        return next((k for k, c in enumerate(a) if unit(c)), self.m)

    def _unshift(self, a, k):
        """a / e^k for a multiple a of e^k."""
        return a[k:] + self._zero[:k]

    def _from_int_raw(self, n):
        return (self.base._from_int_raw(n),) + self._zero[1:]

    def eps(self) -> "RingValue":
        return RingValue(self, self._zero[:1] + self._one[:1] + self._zero[2:])

    def elements(self):
        def rec(i):
            if i == self.m:
                yield ()
                return
            for rest in rec(i + 1):
                for x in self.base.elements():
                    yield (x.raw,) + rest
        for raw in rec(0):
            yield RingValue(self, raw)

    def _random_raw(self, rng):
        return tuple(self.base._random_raw(rng) for _ in range(self.m))


# ---------------------------------------------------------------------------
# values


class RingValue:
    __slots__ = ("ring", "raw")

    def __init__(self, ring: RingDescriptor, raw):
        self.ring = ring
        self.raw = raw

    def _lift(self, other) -> "RingValue":
        return self.ring.coerce(other)

    def __add__(self, other):
        o = self._lift(other)
        return RingValue(self.ring, self.ring._add(self.raw, o.raw))

    __radd__ = __add__

    def __neg__(self):
        return RingValue(self.ring, self.ring._neg(self.raw))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return RingValue(self.ring, self.ring._mul(self.raw, o.raw))

    __rmul__ = __mul__

    def inv(self) -> "RingValue":
        return RingValue(self.ring, self.ring._inv(self.raw))

    def __truediv__(self, other):
        return self * self._lift(other).inv()

    def __pow__(self, e: int):
        return RingValue(self.ring, _signed_power(self.ring, self.raw, e))

    def is_unit(self) -> bool:
        return self.ring._is_unit(self.raw)

    def is_nilpotent(self) -> bool:
        return self.ring._is_nilpotent(self.raw)

    def is_zero(self) -> bool:
        return self.raw == self.ring._zero_raw()

    def is_one(self) -> bool:
        return self.raw == self.ring._one_raw()

    def nilpotency_index(self):
        """Least k with self**k = 0, or math.inf for non-nilpotent elements."""
        if not self.is_nilpotent():
            return math.inf
        acc = self
        for k in range(1, self.ring.nil_bound + 1):
            if acc.is_zero():
                return k
            acc = acc * self
        return self.ring.nil_bound  # pragma: no cover (m^nil_bound = 0 by construction)

    def __eq__(self, other):
        if isinstance(other, int):
            try:
                other = self.ring.from_int(other)
            except Exception:
                return NotImplemented
        if not isinstance(other, RingValue):
            return NotImplemented
        return self.ring is other.ring and self.raw == other.raw

    def __hash__(self):
        return hash((self.ring, self.raw))

    def __repr__(self):
        return format_value(self)


def residue_field(ring: RingDescriptor) -> RingDescriptor:
    while isinstance(ring, ArtinianLocal):
        ring = ring.base
    return ring


def residue_raw(ring: RingDescriptor, raw):
    """Payload of the image of a payload of `ring` in its residue field."""
    while isinstance(ring, ArtinianLocal):
        raw = raw[0]
        ring = ring.base
    return raw


# ---------------------------------------------------------------------------
# formatting (the expression printer reuses this for scalar coefficients)

_composite = frozenset(" +*/^").intersection


def _fmt_poly(terms, sym, fmt_coeff, composite,
              bracket_constant: bool = False) -> str:
    """sum c*m over the (i, c) pairs, m = sym^i, or m = sym(i) for a function
    `sym` ("" for the constant monomial), skipping zero terms and
    coefficients 1; `composite(body)` says when a coefficient's text needs
    parentheses, which a constant term gets only with `bracket_constant`."""
    out = []
    for i, c in terms:
        body = fmt_coeff(c)
        if body == "0":
            continue
        power = (sym(i) if callable(sym)
                 else "" if i == 0 else sym if i == 1 else f"{sym}^{i}")
        if (power or bracket_constant) and composite(body):
            body = f"({body})"
        if not power:
            out.append(body)
        else:
            out.append(power if body == "1" else f"{body}*{power}")
    return " + ".join(out) if out else "0"


def format_value(x: RingValue) -> str:
    ring = x.ring
    if isinstance(ring, _ScalarTables):     # a code prints as its payload
        return format_value(RingValue(ring.ring, ring.elems[x.raw]))
    if isinstance(ring, PrimeField):
        return str(x.raw)
    if isinstance(ring, GaloisField):
        return _fmt_poly(enumerate(x.raw), "g", str, lambda body: False)
    if isinstance(ring, ArtinianLocal):
        base = ring.base

        def fmt_coeff(raw):
            return format_value(RingValue(base, raw))

        return _fmt_poly(enumerate(x.raw), "e", fmt_coeff,
                         lambda body: " + " in body)
    raise AlgebraError(f"cannot format value over {ring}")  # pragma: no cover


# ---------------------------------------------------------------------------
# the matrix kernel: lists of rows over F_q or F_q[e]/e^m
#
# One elimination serves every matrix in the package.  F_q[e]/e^m is a chain
# ring, every ideal is some (e^k), so a column pivoted on an entry of least
# e-adic valuation divides every other entry of that column, and each row
# operation is exact (Storjohann-Mulders, "Fast algorithms for linear algebra
# modulo N", ESA 1998).  Zero entries are skipped throughout.  `ring` is a
# descriptor on payloads or a `_ScalarTables` on codes, as `_coded` picks.


def _coded(ring, *lists):
    """What the kernels run on for these lists of payloads, and the lists
    in its entries: codes when the ring's tables index every payload."""
    tables = ring._tables
    if tables is not None:
        coded = [list(map(tables._code, lst)) for lst in lists]
        if not any(None in lst for lst in coded):
            return tables, coded
    return ring, lists


def _identity_columns(n: int, c: int, ring):
    """The first c columns of the n x n identity."""
    one, zero = ring._one_raw(), ring._zero_raw()
    return [[one if i == j else zero for j in range(c)] for i in range(n)]


def _mul_raw(a, b, ring):
    """Product of matrices; a's zero entries skip whole rows of b, whose
    nonzero entries are listed on first use."""
    zero, axpy = ring._zero_raw(), ring._axpy
    pairs_b = [None] * len(b)
    out = []
    for row in a:
        acc = [zero] * len(b[0])
        for k, x in enumerate(row):
            if x != zero:
                pairs = pairs_b[k]
                if pairs is None:
                    pairs = pairs_b[k] = [(j, y) for j, y in enumerate(b[k])
                                          if y != zero]
                axpy(acc, x, pairs)
        out.append(acc)
    return out


def _pivot_row(a, top: int, col: int, end: int, ring):
    """The pivot of column col among rows top .. end-1, with its e-adic
    valuation: the first unit (valuation 0), failing that the first entry of
    least valuation.  The row is None when every entry is zero."""
    is_unit = ring._is_unit
    for r in range(top, end):
        if is_unit(a[r][col]):
            return r, 0
    if ring.is_field:
        return None, None
    valuation = ring._valuation
    best, low = None, ring.m
    for r in range(top, end):
        k = valuation(a[r][col])
        if k < low:
            best, low = r, k
    return best, low


def _eliminate_below(a, top: int, col: int, end: int, ring) -> None:
    """Clear column col in rows top+1 .. end-1 with row top, whose entry
    there is a unit.  Only the columns right of col are written: callers
    never read col or the columns left of it again."""
    zero = ring._zero_raw()
    prow = a[top]
    nz = [(j, x) for j, x in enumerate(prow[col + 1:], col + 1) if x != zero]
    if not nz:
        return
    mul, axpy = ring._mul, ring._axpy
    s = None
    for row in a[top + 1:end]:
        x = row[col]
        if x != zero:
            if s is None:
                s = ring._neg(ring._inv(prow[col]))
            axpy(row, mul(x, s), nz)


def _solve(a, b, lower: int, ring):
    """X with a X = b for a square a with no entries more than `lower`
    places below the diagonal.  Forward elimination takes as the pivot of
    each column its first unit within the band, and a column without one
    raises SingularCompression; back substitution follows."""
    n = len(a)
    zero = ring._zero_raw()
    mul, neg, axpy = ring._mul, ring._neg, ring._axpy
    rows = [ra + rb for ra, rb in zip(a, b)]
    for col in range(n):
        end = min(n, col + lower + 1)
        piv, k = _pivot_row(rows, col, col, end, ring)
        if piv is None or k:
            raise SingularCompression(
                f"column {col} has no unit pivot; the compression is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        _eliminate_below(rows, col, col, end, ring)
    x = [None] * n
    pairs = [None] * n
    for r in range(n - 1, -1, -1):
        row = rows[r]
        acc = row[n:]
        for j, u in enumerate(row[r + 1:n], r + 1):
            if u != zero:
                axpy(acc, neg(u), pairs[j])
        s = ring._inv(row[r])
        x[r] = [y if y == zero else mul(s, y) for y in acc]
        pairs[r] = [(j, y) for j, y in enumerate(x[r]) if y != zero]
    return x


def _det_raw(a, ring):
    """Determinant by elimination with valuation pivots, exact also when it
    is not a unit: the column of a pivot e^k p', p' a unit, of least
    valuation k is divided by e^k and cleared with p'; a zero column gives 0."""
    n, det = len(a), ring._one_raw()
    a = [list(row) for row in a]
    for col in range(n):
        piv, k = _pivot_row(a, col, col, n, ring)
        if piv is None:
            return ring._zero_raw()
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = ring._neg(det)
        det = ring._mul(det, a[col][col])
        if k:
            for row in a[col:]:
                row[col] = ring._unshift(row[col], k)
        _eliminate_below(a, col, col, n, ring)
    return det


def _rank(m, lower: int, field) -> int:
    """Rank of a matrix over a field whose entries lie at most `lower`
    places below the diagonal; columns without a pivot are skipped."""
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    rank = 0
    for col in range(n_cols):
        end = min(n_rows, col + lower + 1)
        piv, _ = _pivot_row(m, rank, col, end, field)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        _eliminate_below(m, rank, col, end, field)
        rank += 1
        if rank == n_rows:
            break
    return rank


# ---------------------------------------------------------------------------
# embeddings and norms between scalar rings

def _raw_encoding(raw, ring) -> int:
    """Stable integer encoding of a payload: base-|k| digits, coordinate 0
    lowest (k the prime field, or the residue field of an artinian ring)."""
    if isinstance(raw, int):
        return raw
    base = getattr(ring, "base", None)
    size = base.size if base is not None else ring.char
    acc = 0
    for part in reversed(raw):
        acc = acc * size + (_raw_encoding(part, base) if base is not None
                            else part)
    return acc


# -- the polynomial kernel: lists of payloads, low to high, without trailing
# zeros; divisors are monic.  Sums, products, derivatives and division hold
# over any scalar ring; gcds, factoring and roots need a field


def _raw_trim(a: list, zero) -> list:
    """a without its trailing zeros, in place."""
    while a and a[-1] == zero:
        a.pop()
    return a


def _raw_monic(a: list, field) -> list:
    inv = field._inv(a[-1])
    return [field._mul(inv, c) for c in a]


def _raw_divmod(a: list, b: list, field) -> tuple[list, list]:
    mul, add, neg = field._mul, field._add, field._neg
    zero = field._zero_raw()
    a = list(a)
    n = len(b) - 1
    terms = [j for j in range(n) if b[j] != zero]
    quot = [zero] * max(len(a) - n, 0)
    for k in range(len(a) - 1, n - 1, -1):
        c = quot[k - n] = a[k]
        if c != zero:
            c, i = neg(c), k - n
            for j in terms:
                a[i + j] = add(a[i + j], mul(c, b[j]))
    del a[n:]
    return quot, _raw_trim(a, zero)


def _raw_add(a: list, b: list, field) -> list:
    if len(a) < len(b):
        a, b = b, a
    return _raw_trim([field._add(x, y) for x, y in zip(a, b)] + a[len(b):],
                     field._zero_raw())


def _raw_mul(a: list, b: list, field) -> list:
    mul, add, zero = field._mul, field._add, field._zero_raw()
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != zero:
            for j, y in enumerate(b):
                out[i + j] = add(out[i + j], mul(x, y))
    return _raw_trim(out, zero)


def _raw_series_div(x: dict, offset: int, tail: list, inv, length: int,
                    ring) -> list:
    """The first `length` coefficients y_n of x / u, x_n = x.get(offset + n),
    for a power series u with inv = u_0^-1 and (i, -u_i) in `tail` for the
    nonzero u_i, i >= 1 rising: y_n = inv (x_n - sum u_i y_{n-i}) (von zur
    Gathen-Gerhard, Modern Computer Algebra, 9.1), zero y_{n-i} skipped."""
    mul, add, zero = ring._mul, ring._add, ring._zero_raw()
    y: list = []
    for n in range(length):
        acc = x.get(offset + n)
        for i, c in tail:
            if i > n:
                break
            z = y[n - i]
            if z != zero:
                z = mul(c, z)
                acc = z if acc is None else add(acc, z)
        y.append(zero if acc is None else mul(acc, inv))
    return y


def _raw_mulmod(a: list, b: list, m: list, field) -> list:
    return _raw_divmod(_raw_mul(a, b, field), m, field)[1]


def _raw_derivative(a: list, field) -> list:
    return _raw_trim([field._mul(c, field._from_int_raw(i))
                      for i, c in enumerate(a)][1:], field._zero_raw())


def _raw_powmod(a: list, e: int, m: list, field) -> list:
    return _power(a, e, [field._one_raw()],
                  lambda u, v: _raw_mulmod(u, v, m, field))


def _raw_gcd(a: list, b: list, field) -> list:
    """Monic gcd of a and b, for b nonzero or a monic."""
    while b:
        b = _raw_monic(b, field)
        a, b = b, _raw_divmod(a, b, field)[1]
    return a


def _seeded_rng(coeffs: list, field) -> random.Random:
    """An rng seeded from a polynomial's payload encoding, for reproducible runs."""
    seed = field.size
    for c in coeffs:
        seed = seed * 1000003 + _raw_encoding(field._decode(c), field) + 1
    return random.Random(seed)


def _raw_ddf(f: list, field) -> list:
    """Pairs (g, d): g the product of the irreducible factors of degree d of
    a squarefree monic f, for every d that has any (distinct-degree split)."""
    zero, one = field._zero_raw(), field._one_raw()
    out = []
    h = [zero, one]
    d = 0
    while len(f) > 1:
        d += 1
        if 2 * d > len(f) - 1:
            out.append((f, len(f) - 1))
            break
        h = _raw_powmod(h, field.size, f, field)
        g = _raw_gcd(f, _raw_add(h, [zero, field._neg(one)], field), field)
        if len(g) > 1:
            out.append((g, d))
            f = _raw_divmod(f, g, field)[0]
            h = _raw_divmod(h, f, field)[1]
    return out


def _raw_split(g: list, d: int, field, rng) -> list:
    """A proper monic factor of g, a squarefree monic product of at least two
    irreducible factors of degree d (Cantor-Zassenhaus)."""
    zero, q = field._zero_raw(), field.size
    while True:
        # r of degree < 2d is uniform modulo any two factors (CRT), which
        # its quadratic character (odd p) or absolute trace (p = 2) in
        # F_{q^d} then separate with probability about 1/2
        r = _raw_trim([field._random_raw(rng) for _ in range(2 * d)], zero)
        if field.char == 2:
            h = acc = r
            for _ in range((q.bit_length() - 1) * d - 1):
                acc = _raw_mulmod(acc, acc, g, field)
                h = _raw_add(h, acc, field)
        else:
            h = _raw_powmod(r, (q ** d - 1) // 2, g, field)
            h = _raw_add(h, [field._neg(field._one_raw())], field)
        c = _raw_gcd(g, h, field)
        if 1 < len(c) < len(g):
            return c


def _raw_edf(g: list, d: int, field, rng, out: list) -> None:
    """Append the monic irreducible factors of g, a squarefree monic product
    of irreducible factors of degree d (equal-degree split)."""
    if len(g) - 1 == d:
        out.append(g)
        return
    c = _raw_split(g, d, field, rng)
    _raw_edf(c, d, field, rng, out)
    _raw_edf(_raw_divmod(g, c, field)[0], d, field, rng, out)


def _field_roots(coeffs: list, sub, field) -> list:
    """Distinct roots in `field`, in no particular order, of a nonzero f with
    raw coefficients (low to high) in its subfield `sub`.  gcd(f, x^Q - x),
    Q = |field|, is split over `sub` into irreducibles h; each h of degree d
    gives one root r in `field`, halved off into the smaller half each time,
    and its orbit r, r^q, ..., r^(q^(d-1)), q = |sub| (Rabin, SIAM J.
    Comput. 9, 1980).  Each field runs on codes where `_coded` gives them."""
    k, (g,) = _coded(sub, coeffs)
    g = _raw_monic(g, k)
    rng = _seeded_rng(g, k)
    if len(g) > 2:
        zero, one = k._zero_raw(), k._one_raw()
        h = _raw_powmod([zero, one], field.size, g, k)
        g = _raw_gcd(g, _raw_add(h, [zero, k._neg(one)], k), k)
    roots = []
    for h, d in _raw_ddf(g, k):
        irreducibles: list = []
        _raw_edf(h, d, k, rng, irreducibles)
        for irr in irreducibles:
            big, (r,) = _coded(field, [_embed_raw(k._decode(c), sub, field)
                                       for c in irr])
            while len(r) > 2:
                c = _raw_split(r, 1, big, rng)
                r = min(c, _raw_divmod(r, c, big)[0], key=len)
            orbit = [big._neg(r[0])]
            for _ in range(d - 1):
                orbit.append(big._pow(orbit[-1], sub.size))
            roots += map(big._decode, orbit)
    return roots


@functools.lru_cache(maxsize=256)       # a reciprocity round meets < 10 pairs
def _pinned_subfield_generator(sub: GaloisField, big: GaloisField):
    """The payload of the pinned image of sub's generator in big: the root of
    sub.minpoly with the lexicographically smallest payload (coordinate 0 first)."""
    roots = _field_roots(list(sub.minpoly) + [1], PrimeField(big.p), big)
    if not roots:
        raise AlgebraError(f"{sub} does not embed into {big}")
    return min(roots)


def _embed_raw(raw, src: RingDescriptor, dst: RingDescriptor):
    """The payload in dst of the canonical image of a payload of src: field
    into field of divisible degree (g to the pinned root of its minpoly),
    field into artinian, artinian into artinian of the same order m."""
    if src is dst:
        return raw
    if isinstance(dst, ArtinianLocal):
        if not isinstance(src, ArtinianLocal):
            return (_embed_raw(raw, src, dst.base),) + dst._zero[1:]
        if src.m != dst.m:
            raise DescriptorMismatch("artinian orders differ")
        return tuple([_embed_raw(c, src.base, dst.base) for c in raw])
    if isinstance(src, ArtinianLocal):
        raise DescriptorMismatch("cannot embed artinian ring into a field")
    if isinstance(src, PrimeField):
        if src.p != dst.char:
            raise DescriptorMismatch(f"characteristic mismatch {src} -> {dst}")
        return dst._from_int_raw(raw)
    if not isinstance(dst, GaloisField) or dst.p != src.p or dst.d % src.d:
        raise DescriptorMismatch(f"{src} does not embed into {dst}")
    ghat = _pinned_subfield_generator(src, dst)
    acc = dst._zero_raw()
    for c in reversed(raw):                 # Horner in the image of g
        acc = dst._add(dst._mul(acc, ghat), dst._from_int_raw(c))
    return acc


def embed(x: RingValue, target: RingDescriptor) -> RingValue:
    """Canonical embedding between scalar rings (see `_embed_raw`)."""
    return RingValue(target, _embed_raw(x.raw, x.ring, target))


@functools.lru_cache(maxsize=256)
def _subfield_basis(sub, big: GaloisField) -> tuple:
    """The matrix B whose columns are the payloads in `big` of the basis 1, g,
    ..., g^(s-1) of `sub`, s independent rows of B, and the inverse of the
    square matrix they form."""
    p, s = big.p, sub.degree
    g = (big._one_raw() if isinstance(sub, PrimeField)
         else _pinned_subfield_generator(sub, big))
    basis = [list(r) for r in zip(*(_signed_power(big, g, i) for i in range(s)))]
    fp, rows = PrimeField(p), []
    for i in range(big.d):
        if _rank([basis[r][:] for r in rows + [i]], big.d, fp) > len(rows):
            rows.append(i)
    return basis, rows, _solve(
        [basis[r] for r in rows], _identity_columns(s, s, fp), s - 1, fp)


def _subfield_coords(raw, big: GaloisField, sub):
    """A payload of `big` in the pinned copy of `sub` as a `sub` payload: its
    coordinates x in the basis 1, g, ..., g^(s-1) solve B x = raw over F_p,
    read off s independent rows of B (`_subfield_basis`), checked on all."""
    p = big.p
    basis, rows, inv = _subfield_basis(sub, big)
    x = [sum(c * raw[r] for c, r in zip(row, rows)) % p for row in inv]
    if any(sum(b * c for b, c in zip(brow, x)) % p != v
           for brow, v in zip(basis, raw)):
        raise AlgebraError("inconsistent linear system over F_p")
    return x[0] if isinstance(sub, PrimeField) else tuple(x)


def relative_norm(x: RingValue, sub_degree: int = 1) -> RingValue:
    """Norm down to the degree-`sub_degree` subfield F_q, q = p^sub_degree.

    Over F_Q, Q = p^D, or F_Q[e]/(e^m), the norm is the product of the r =
    D/sub_degree conjugates sigma^i(x), sigma the q-power Frobenius on each
    e-coefficient: the norm of a Galois extension is the product of its
    conjugates, also after base change to k[e]/(e^m) (Lang, Algebra, VI 5).
    The product lies in the pinned copy of F_q (or F_q[e]/(e^m)) and is
    pulled back to its coordinates.  For a field value it is the closed
    form x^((Q-1)/(q-1)), with norm(0) = 0.
    """
    ring = x.ring
    if isinstance(ring, PrimeField) and sub_degree != 1:
        raise DescriptorMismatch("prime field only norms to itself")
    field = residue_field(ring)
    if sub_degree < 1 or field.degree % sub_degree != 0:
        raise DescriptorMismatch(f"no degree-{sub_degree} subfield of {ring}")
    if sub_degree == field.degree:
        return x
    sub = _finite_field(field.char, sub_degree)
    q = field.char ** sub_degree
    if ring is field:
        return RingValue(sub, _subfield_coords(
            field._pow(x.raw, (field.size - 1) // (q - 1)), field, sub))
    acc = y = x.raw
    for _ in range(field.degree // sub_degree - 1):
        y = tuple(field._pow(c, q) for c in y)
        acc = ring._mul(acc, y)
    return RingValue(ArtinianLocal(sub, ring.m), tuple(
        _subfield_coords(c, field, sub) for c in acc))
