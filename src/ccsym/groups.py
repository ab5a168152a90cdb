"""Finite groups as multiplication tables, and a catalog of small groups.

Groups are given by an n x n table of element indices with the identity at
index 0.  The catalog lists one representative of every isomorphism type of
order at most 16 (42 types); `are_isomorphic` is a brute-force checker used
to keep the catalog honest.
"""

from __future__ import annotations

from itertools import product

from .errors import AlgebraError


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
        k %= self.order_of(i)
        x = self.e
        for _ in range(k):
            x = self.mul(x, i)
        return x

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
        """Quotient group plus the projection index map."""
        sub = frozenset(normal_subgroup)
        if not self.is_normal(sub):
            raise AlgebraError("subgroup is not normal")
        coset_of = [None] * self.n
        cosets = []
        for g in range(self.n):
            if coset_of[g] is not None:
                continue
            members = sorted(self.mul(g, h) for h in sub)
            idx = len(cosets)
            cosets.append(members)
            for m in members:
                coset_of[m] = idx
        # reindex so the identity's coset is 0
        order = sorted(range(len(cosets)), key=lambda c: cosets[c][0])
        relabel = {old: new for new, old in enumerate(order)}
        coset_of = [relabel[c] for c in coset_of]
        cosets = [cosets[old] for old in order]
        table = [[coset_of[self.mul(cs[0], ct[0])] for ct in cosets] for cs in cosets]
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


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    n = g.n * h.n
    def enc(i, j):
        return i * h.n + j
    table = [[0] * n for _ in range(n)]
    for i1, j1 in product(range(g.n), range(h.n)):
        for i2, j2 in product(range(g.n), range(h.n)):
            table[enc(i1, j1)][enc(i2, j2)] = enc(g.mul(i1, i2), h.mul(j1, j2))
    return FiniteGroup(table, name=f"{g.name}x{h.name}")


def _from_pairs(pairs, law, name):
    index = {p: k for k, p in enumerate(pairs)}
    table = [[index[law(a, b)] for b in pairs] for a in pairs]
    return FiniteGroup(table, name=name)


def dihedral(n: int) -> FiniteGroup:
    """Order 2n: rotations r^i and reflections r^i s, with s r s = r^-1."""
    pairs = [(i, s) for s in (0, 1) for i in range(n)]
    def law(a, b):
        (i, s), (j, u) = a, b
        return ((i + (j if s == 0 else -j)) % n, s ^ u)
    return _from_pairs(pairs, law, f"D{n}")


def dicyclic(n: int) -> FiniteGroup:
    """Order 4n: a^(2n) = e, b^2 = a^n, b a b^-1 = a^-1.  dicyclic(2) = Q8."""
    pairs = [(i, s) for s in (0, 1) for i in range(2 * n)]
    def law(a, b):
        (i, s), (j, u) = a, b
        if s == 0:
            return ((i + j) % (2 * n), u)
        if u == 0:
            return ((i - j) % (2 * n), 1)
        return ((i - j + n) % (2 * n), 0)
    return _from_pairs(pairs, law, f"Dic{n}")


def _metacyclic16(k: int, name: str) -> FiniteGroup:
    """Order 16 with C8 normal: (i,s)(j,u) = (i + j*k^s mod 8, s xor u)."""
    pairs = [(i, s) for s in (0, 1) for i in range(8)]
    def law(a, b):
        (i, s), (j, u) = a, b
        return ((i + j * (k ** s)) % 8, s ^ u)
    return _from_pairs(pairs, law, name)


def semidihedral16() -> FiniteGroup:
    return _metacyclic16(3, "SD16")


def modular16() -> FiniteGroup:
    return _metacyclic16(5, "M16")


def c4_semi_c4() -> FiniteGroup:
    """C4 acting on C4 by inversion."""
    pairs = [(i, j) for j in range(4) for i in range(4)]
    def law(a, b):
        (i, j), (k, l) = a, b
        return ((i + (k if j % 2 == 0 else -k)) % 4, (j + l) % 4)
    return _from_pairs(pairs, law, "C4:C4")


def c2c2_semi_c4() -> FiniteGroup:
    """C4 acting on C2 x C2 by swapping the factors."""
    pairs = [((x, y), j) for j in range(4) for y in (0, 1) for x in (0, 1)]
    def law(a, b):
        ((x, y), j), ((z, w), l) = a, b
        if j % 2 == 1:
            z, w = w, z
        return (((x ^ z), (y ^ w)), (j + l) % 4)
    return _from_pairs(pairs, law, "(C2xC2):C4")


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
    """Even permutations of 4 points, generated as a permutation closure."""
    ident = (0, 1, 2, 3)
    gens = [(1, 0, 3, 2), (1, 2, 0, 3)]
    perms = [ident]
    seen = {ident}
    frontier = [ident]
    def compose(p, q):
        return tuple(p[q[i]] for i in range(4))
    while frontier:
        p = frontier.pop()
        for g in gens:
            r = compose(g, p)
            if r not in seen:
                seen.add(r)
                perms.append(r)
                frontier.append(r)
    perms = [ident] + sorted(p for p in perms if p != ident)
    index = {p: k for k, p in enumerate(perms)}
    table = [[index[compose(a, b)] for b in perms] for a in perms]
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


def are_isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    if _invariants(g) != _invariants(h):
        return False
    gens = _generating_set(g)
    # words expressing every element of g in terms of the generators
    expr = {g.e: ()}
    frontier = [g.e]
    while frontier:
        x = frontier.pop(0)
        for k, gen in enumerate(gens):
            y = g.mul(x, gen)
            if y not in expr:
                expr[y] = expr[x] + (k,)
                frontier.append(y)
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
