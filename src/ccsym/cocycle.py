"""2-cocycles on finite groups with unit values, and commutator pairings.

A 2-cocycle sigma : G x G -> R^x satisfies

    sigma(g, h) sigma(gh, k) = sigma(h, k) sigma(g, hk)

and describes a central extension 1 -> R^x -> E -> G -> 1 with multiplication
(a, g)(b, h) = (a b sigma(g, h), gh).  For commuting g, h the commutator of
any lifts is the central element

    c(g, h) = sigma(g, h) sigma(h, g)^-1,

independent of the lifts and of the cocycle's coboundary class.  An optional
grading (a homomorphism G -> Z/2) twists the pairing by (-1)^(v(g) v(h)),
matching the sign conventions of symbols built from graded determinant lines.
"""

from __future__ import annotations

from itertools import product

from .errors import AlgebraError, InvalidCocycle, NonCommutingPair
from .groups import FiniteGroup, _words
from .rings import _is_prime


class Cocycle2:
    __slots__ = ("group", "ring", "table", "grading")

    def __init__(self, group: FiniteGroup, table, grading=None, validate=True):
        self.group = group
        self.table = tuple(tuple(row) for row in table)
        if len(self.table) != group.n or any(len(r) != group.n for r in self.table):
            raise InvalidCocycle("table shape does not match the group")
        self.ring = self.table[0][0].ring
        if grading is not None:
            grading = tuple(int(x) % 2 for x in grading)
            if len(grading) != group.n:
                raise InvalidCocycle("grading length does not match the group")
        self.grading = grading
        if validate:
            self._validate()

    def _validate(self):
        g = self.group
        for row in self.table:
            for v in row:
                if v.ring is not self.ring:
                    raise InvalidCocycle("cocycle values live in different rings")
                if not v.is_unit():
                    raise InvalidCocycle(f"cocycle value {v!r} is not a unit")
        t = self.table
        for a in range(g.n):
            for b in range(g.n):
                ab = g.mul(a, b)
                for c in range(g.n):
                    if t[a][b] * t[ab][c] != t[b][c] * t[a][g.mul(b, c)]:
                        raise InvalidCocycle(
                            f"cocycle identity fails at ({a}, {b}, {c})")
        if self.grading is not None:
            v = self.grading
            for a in range(g.n):
                for b in range(g.n):
                    if v[g.mul(a, b)] != (v[a] + v[b]) % 2:
                        raise InvalidCocycle("grading is not a homomorphism to Z/2")

    # -- pairing ------------------------------------------------------------
    def commutator(self, i: int, j: int):
        """sigma(i,j)/sigma(j,i), sign-twisted by the grading; the two
        elements must commute in the group."""
        if not self.group.commutes(i, j):
            raise NonCommutingPair(
                f"elements {i} and {j} do not commute; the pairing is only "
                f"defined on commuting pairs")
        value = self.table[i][j] * self.table[j][i].inv()
        if self.grading is not None and self.grading[i] and self.grading[j]:
            value = -value
        return value

    # -- algebra on cocycles ---------------------------------------------------
    def multiply(self, other: "Cocycle2") -> "Cocycle2":
        if other.group is not self.group or other.ring is not self.ring:
            raise InvalidCocycle("can only multiply cocycles on the same data")
        table = [[self.table[i][j] * other.table[i][j]
                  for j in range(self.group.n)] for i in range(self.group.n)]
        grading = self.grading if self.grading is not None else other.grading
        return Cocycle2(self.group, table, grading=grading, validate=False)

    def with_coboundary(self, beta) -> "Cocycle2":
        """Multiply by the coboundary of beta : G -> R^x (index -> unit)."""
        g = self.group
        beta = list(beta)
        if len(beta) != g.n or any(not b.is_unit() for b in beta):
            raise InvalidCocycle("coboundary data must be one unit per element")
        table = [[self.table[i][j] * beta[i] * beta[j] * beta[g.mul(i, j)].inv()
                  for j in range(g.n)] for i in range(g.n)]
        return Cocycle2(g, table, grading=self.grading, validate=False)


def trivial_cocycle(group: FiniteGroup, ring, grading=None) -> Cocycle2:
    one = ring.one()
    return Cocycle2(group, [[one] * group.n for _ in range(group.n)],
                    grading=grading, validate=False)


def coboundary(group: FiniteGroup, beta, grading=None) -> Cocycle2:
    ring = beta[0].ring
    return trivial_cocycle(group, ring, grading=grading).with_coboundary(beta)


def bicharacter_cocycle(group: FiniteGroup, chi, psi, omega) -> Cocycle2:
    """sigma(g, h) = omega^(chi(g) psi(h)) for homomorphisms chi, psi into
    Z/r and omega a unit with omega^r = 1."""
    table = [[omega ** (chi[i] * psi[j]) for j in range(group.n)]
             for i in range(group.n)]
    return Cocycle2(group, table, validate=False)


def extension_commutator(cocycle: Cocycle2, i: int, j: int):
    """Oracle: multiply out the commutator of lifts inside the extension.

    Elements of the extension are pairs (a, g); the identity is
    (sigma(e,e)^-1, e) and inverses follow from that.  The commutator of the
    standard lifts (1, i), (1, j) of a commuting pair is central, and its
    value relative to the identity's scalar part must equal the pairing
    (ungraded).
    """
    g = cocycle.group
    ring = cocycle.ring
    sig = cocycle.table

    def mul(x, y):
        (a, gg), (b, hh) = x, y
        return (a * b * sig[gg][hh], g.mul(gg, hh))

    def inv(x):
        a, gg = x
        gi = g.inv(gg)
        # (a, gg)(b, gi) = (a b sigma(gg, gi), e) must equal the identity
        b = (a * sig[gg][gi]).inv() * sig[g.e][g.e].inv()
        return (b, gi)

    if not g.commutes(i, j):
        raise NonCommutingPair("oracle is only defined on commuting pairs")
    x = (ring.one(), i)
    y = (ring.one(), j)
    value, elem = mul(mul(x, y), mul(inv(x), inv(y)))
    if elem != g.e:  # pragma: no cover
        raise AlgebraError("commutator did not land in the center")
    # translate to a scalar: (a, e) = a * sigma(e,e) times the identity
    return value * sig[g.e][g.e]


def homs_to_cyclic(group: FiniteGroup, r: int):
    """All homomorphisms G -> Z/r for prime r, as value tuples."""
    if not _is_prime(r):
        raise AlgebraError("homomorphism enumeration expects a prime modulus")
    g = group
    kernel_gens = [g.commutator(i, j) for i in range(g.n) for j in range(g.n)]
    kernel_gens += [g.power(i, r) for i in range(g.n)]
    kernel = g.subgroup_closure(kernel_gens)
    quot, proj = g.quotient(kernel)
    # the quotient is elementary abelian of exponent r: pick a basis
    basis = []
    span = quot.subgroup_closure(basis)
    for x in range(quot.n):
        if x not in span:
            basis.append(x)
            span = quot.subgroup_closure(basis)
    # coordinates of each quotient element in the basis
    coords = {x: tuple(map(word.count, range(len(basis))))
              for x, word in _words(quot, basis).items()}
    return [tuple(sum(c * w for c, w in zip(coords[proj[i]], images)) % r
                  for i in range(g.n))
            for images in product(range(r), repeat=len(basis))]


def random_cocycle(group: FiniteGroup, ring, rng, grading=None) -> Cocycle2:
    """A random valid cocycle: random coboundary times a random bicharacter
    through the largest prime r with r | (#units of a cyclic piece).

    The bicharacter part can represent a nontrivial cohomology class; the
    coboundary part scrambles the table without changing the class.
    """
    sigma = trivial_cocycle(group, ring, grading=grading)
    # bicharacter part: pick a prime r with an order-r unit omega in the ring
    candidates = [2, 3, 5, 7]
    rng.shuffle(candidates)
    for r in candidates:
        omegas = _units_of_order(ring, r)
        if not omegas:
            continue
        homs = homs_to_cyclic(group, r)
        chi = rng.choice(homs)
        psi = rng.choice(homs)
        sigma = sigma.multiply(bicharacter_cocycle(group, chi, psi,
                                                   rng.choice(omegas)))
        break
    beta = [ring.random_unit(rng) for _ in range(group.n)]
    beta[group.e] = ring.one()
    return sigma.with_coboundary(beta)


def _units_of_order(ring, r: int):
    """The units of prime order r."""
    return [u for u in ring.units() if not u.is_one() and (u ** r).is_one()]
