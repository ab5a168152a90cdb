"""Finite groups as multiplication tables, and a catalog of small groups.

Groups are given by an n x n table of element indices with the identity at
index 0.  The catalog lists one representative of every isomorphism type of
order at most 16 (42 types); `are_isomorphic` is a brute-force checker used
to keep the catalog honest.  Every non-cyclic catalog group is built by
`extension` from an action and a 2-cocycle (direct products, dihedral,
dicyclic and the semidirect groups of order 16), with two exceptions: A4, the
even permutations of 4 points, and D4oC4, a quotient of D4 x C4.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations

from .errors import AlgebraError
from .rings import _power


class FiniteGroup:
    __slots__ = ("name", "table", "n", "e", "_inv", "_orders")

    def __init__(self, table, name="G"):
        self.name = name
        self.table = tuple(tuple(row) for row in table)
        self.n = len(self.table)
        for row in self.table:
            if len(row) != self.n or any(not (0 <= x < self.n) for x in row):
                raise AlgebraError("malformed multiplication table")
        e = None
        for i in range(self.n):
            if all(self.table[i][j] == j and self.table[j][i] == j
                   for j in range(self.n)):
                e = i
                break
        if e is None:
            raise AlgebraError("table has no identity")
        self.e = e
        inv = [None] * self.n
        for i in range(self.n):
            for j in range(self.n):
                if self.table[i][j] == e:
                    inv[i] = j
        if any(x is None for x in inv):
            raise AlgebraError("table has a non-invertible element")
        self._inv = tuple(inv)
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise AlgebraError("table is not associative")
        self._orders = None

    # -- basics ---------------------------------------------------------------
    def mul(self, i, j):
        return self.table[i][j]

    def inv(self, i):
        return self._inv[i]

    def elements(self):
        return range(self.n)

    def commutes(self, i, j) -> bool:
        return self.table[i][j] == self.table[j][i]

    def is_abelian(self) -> bool:
        return all(self.commutes(i, j) for i in range(self.n) for j in range(i))

    def order_of(self, i) -> int:
        k, x = 1, i
        while x != self.e:
            x = self.mul(x, i)
            k += 1
        return k

    def element_orders(self):
        if self._orders is None:
            self._orders = tuple(sorted(self.order_of(i) for i in range(self.n)))
        return self._orders

    def power(self, i, k: int):
        return _power(i, k % self.order_of(i), self.e, self.mul)

    def commutator(self, i, j):
        return self.mul(self.mul(i, j), self.mul(self.inv(i), self.inv(j)))

    def __repr__(self):
        return f"{self.name} (order {self.n})"

    # -- subgroups and quotients ------------------------------------------------
    def subgroup_closure(self, gens) -> frozenset:
        seen = {self.e}
        frontier = [self.e]
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def is_normal(self, subgroup) -> bool:
        return all(self.mul(self.mul(g, h), self.inv(g)) in subgroup
                   for g in range(self.n) for h in subgroup)

    def quotient(self, normal_subgroup):
        """Quotient group plus the projection index map; cosets are numbered
        in increasing order of their least element."""
        sub = frozenset(normal_subgroup)
        if self.subgroup_closure(sub) != sub:
            raise AlgebraError(f"{sorted(sub)} is not a subgroup")
        if not self.is_normal(sub):
            raise AlgebraError("subgroup is not normal")
        coset_of = [None] * self.n
        cosets = []
        for g in range(self.n):
            if coset_of[g] is None:
                for h in sub:
                    coset_of[self.mul(g, h)] = len(cosets)
                cosets.append(g)
        table = [[coset_of[self.mul(s, t)] for t in cosets] for s in cosets]
        return FiniteGroup(table, name=f"{self.name}/N"), coset_of

    def derived_subgroup(self) -> frozenset:
        comms = {self.commutator(i, j) for i in range(self.n) for j in range(self.n)}
        return self.subgroup_closure(comms)

    def center_size(self) -> int:
        return sum(1 for i in range(self.n)
                   if all(self.commutes(i, j) for j in range(self.n)))

    def conjugacy_class_sizes(self):
        seen = set()
        sizes = []
        for i in range(self.n):
            if i in seen:
                continue
            cls = {self.mul(self.mul(g, i), self.inv(g)) for g in range(self.n)}
            seen |= cls
            sizes.append(len(cls))
        return tuple(sorted(sizes))


# -- constructors ---------------------------------------------------------------

def cyclic(n: int) -> FiniteGroup:
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)],
                       name=f"C{n}")


def extension(n: FiniteGroup, h: FiniteGroup, act=None, cocycle=None,
              name=None) -> FiniteGroup:
    """Pairs (x, y), x in n varying fastest, under (x1, y1)(x2, y2) =
    (x1 act(y1, x2) cocycle(y1, y2), y1 y2); no action and no cocycle give
    the direct product h x n."""
    pairs = [(x, y) for y in range(h.n) for x in range(n.n)]
    table = [[h.mul(y1, y2) * n.n
              + n.mul(n.mul(x1, act(y1, x2) if act else x2),
                      cocycle(y1, y2) if cocycle else n.e)
              for x2, y2 in pairs] for x1, y1 in pairs]
    return FiniteGroup(table, name=name or f"{n.name}:{h.name}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    return extension(h, g, name=f"{g.name}x{h.name}")


def _inversion(n: FiniteGroup):
    """The action of y on n by x -> x^-1 for odd y."""
    return lambda y, x: n.inv(x) if y % 2 else x


def dihedral(n: int) -> FiniteGroup:
    """Order 2n: rotations r^i and reflections r^i s, with s r s = r^-1."""
    rotations = cyclic(n)
    return extension(rotations, cyclic(2), _inversion(rotations), name=f"D{n}")


def dicyclic(n: int) -> FiniteGroup:
    """Order 4n: a^(2n) = e, b^2 = a^n, b a b^-1 = a^-1.  dicyclic(2) = Q8."""
    a = cyclic(2 * n)
    return extension(a, cyclic(2), _inversion(a), lambda s, u: n * s * u,
                     name=f"Dic{n}")


def semidihedral16() -> FiniteGroup:
    """C8 with an involution acting by x -> 3x."""
    return extension(cyclic(8), cyclic(2), lambda s, x: x * 3 ** s % 8, name="SD16")


def modular16() -> FiniteGroup:
    """C8 with an involution acting by x -> 5x."""
    return extension(cyclic(8), cyclic(2), lambda s, x: x * 5 ** s % 8, name="M16")


def c4_semi_c4() -> FiniteGroup:
    """C4 acting on C4 by inversion."""
    return extension(cyclic(4), cyclic(4), _inversion(cyclic(4)))


def c2c2_semi_c4() -> FiniteGroup:
    """C4 acting on C2 x C2 by swapping the factors."""
    return extension(direct_product(cyclic(2), cyclic(2)), cyclic(4),
                     lambda j, x: 2 * (x % 2) + x // 2 if j % 2 else x,
                     name="(C2xC2):C4")


def central_product_d4_c4() -> FiniteGroup:
    """D4 and C4 glued along their common central C2."""
    big = direct_product(dihedral(4), cyclic(4))
    # r^2 in dihedral(4) is (2, 0) -> index 2; 2 in C4 -> index 2
    r2 = 2 * 4 + 2
    sub = big.subgroup_closure([r2])
    q, _ = big.quotient(sub)
    q.name = "D4oC4"
    return q


def alternating4() -> FiniteGroup:
    """Even permutations of 4 points in lexicographic order."""
    perms = [p for p in permutations(range(4))
             if sum(a > b for a, b in combinations(p, 2)) % 2 == 0]
    index = {p: k for k, p in enumerate(perms)}
    table = [[index[tuple(a[i] for i in b)] for b in perms] for a in perms]
    return FiniteGroup(table, name="A4")


def group_catalog(max_order: int = 16):
    """[(name, group)] covering every isomorphism type of order <= max_order."""
    C = cyclic
    groups = [
        C(1), C(2), C(3),
        C(4), direct_product(C(2), C(2)),
        C(5),
        C(6), dihedral(3),
        C(7),
        C(8), direct_product(C(4), C(2)),
        direct_product(direct_product(C(2), C(2)), C(2)),
        dihedral(4), dicyclic(2),
        C(9), direct_product(C(3), C(3)),
        C(10), dihedral(5),
        C(11),
        C(12), direct_product(direct_product(C(2), C(2)), C(3)),
        dihedral(6), alternating4(), dicyclic(3),
        C(13),
        C(14), dihedral(7),
        C(15),
        C(16), direct_product(C(4), C(4)),
        direct_product(C(8), C(2)),
        direct_product(direct_product(C(4), C(2)), C(2)),
        direct_product(direct_product(direct_product(C(2), C(2)), C(2)), C(2)),
        dihedral(8), dicyclic(4), semidihedral16(), modular16(),
        direct_product(dihedral(4), C(2)), direct_product(dicyclic(2), C(2)),
        c4_semi_c4(), c2c2_semi_c4(), central_product_d4_c4(),
    ]
    out = [(g.name, g) for g in groups if g.n <= max_order]
    return out


# -- isomorphism testing (for catalog hygiene) -----------------------------------

def _invariants(g: FiniteGroup):
    return (g.n, g.element_orders(), g.is_abelian(), g.center_size(),
            len(g.derived_subgroup()), g.conjugacy_class_sizes())


def _generating_set(g: FiniteGroup):
    gens = []
    span = g.subgroup_closure(gens)
    for x in sorted(range(g.n), key=lambda i: -g.order_of(i)):
        if x not in span:
            gens.append(x)
            span = g.subgroup_closure(gens)
            if len(span) == g.n:
                break
    return gens


def _words(g: FiniteGroup, gens) -> dict:
    """{element: word} over the indices of gens, breadth first from e."""
    words = {g.e: ()}
    frontier = deque([g.e])
    while frontier:
        x = frontier.popleft()
        for k, gen in enumerate(gens):
            y = g.mul(x, gen)
            if y not in words:
                words[y] = words[x] + (k,)
                frontier.append(y)
    return words


def are_isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    if _invariants(g) != _invariants(h):
        return False
    gens = _generating_set(g)
    expr = _words(g, gens)
    by_order = {}
    for i in range(h.n):
        by_order.setdefault(h.order_of(i), []).append(i)

    def extend(k, images):
        if k == len(gens):
            mapped = {}
            for x, word in expr.items():
                y = h.e
                for idx in word:
                    y = h.mul(y, images[idx])
                mapped[x] = y
            if len(set(mapped.values())) != g.n:
                return False
            return all(mapped[g.mul(a, b)] == h.mul(mapped[a], mapped[b])
                       for a in range(g.n) for b in range(g.n))
        for cand in by_order.get(g.order_of(gens[k]), []):
            if extend(k + 1, images + [cand]):
                return True
        return False

    return extend(0, [])
