import hashlib
import itertools
from collections import Counter

import pytest

from ccsym.cocycle import homs_to_cyclic
from ccsym.errors import AlgebraError
from ccsym.groups import (FiniteGroup, alternating4, are_isomorphic,
                          c2c2_semi_c4, c4_semi_c4, central_product_d4_c4,
                          cyclic, dicyclic, dihedral, direct_product,
                          extension, group_catalog, modular16, semidihedral16)

EXPECTED_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
                   9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14}


class TestCatalog:
    def test_counts_per_order(self):
        counts = Counter(g.n for _, g in group_catalog())
        assert dict(counts) == EXPECTED_COUNTS

    def test_total(self):
        assert len(group_catalog()) == sum(EXPECTED_COUNTS.values()) == 42

    def test_pairwise_non_isomorphic(self):
        cat = group_catalog()
        for (n1, g1), (n2, g2) in itertools.combinations(cat, 2):
            if g1.n != g2.n:
                continue
            assert not are_isomorphic(g1, g2), (n1, n2)

    def test_isomorphism_detects_equals(self):
        assert are_isomorphic(direct_product(cyclic(2), cyclic(3)), cyclic(6))
        assert are_isomorphic(dihedral(3), dihedral(3))
        assert are_isomorphic(dicyclic(2), dicyclic(2))

    def test_all_tables_validate(self):
        # FiniteGroup's constructor re-checks associativity etc.
        for _, g in group_catalog():
            FiniteGroup(g.table, name=g.name)


def test_catalog_tables_and_homs_are_pinned():
    # sha256 of every name and table and of the homomorphisms to Z/r, as
    # built before the catalog went through `extension`
    digest = hashlib.sha256()
    for name, g in group_catalog():
        digest.update(repr((name, g.table)).encode())
    for n in range(1, 9):
        for make in (cyclic, dihedral, dicyclic):
            g = make(n)
            digest.update(repr((g.name, g.table)).encode())
    for make in (alternating4, semidihedral16, modular16, c4_semi_c4,
                 c2c2_semi_c4, central_product_d4_c4):
        g = make()
        digest.update(repr((g.name, g.table)).encode())
    for name, g in group_catalog():
        for r in (2, 3, 5, 7):
            digest.update(repr((name, r, homs_to_cyclic(g, r))).encode())
    assert digest.hexdigest() == (
        "ad2dbcd3b325f17a4c5c5ecdff460f7bf0ffa588b1e996b61e971c95454587f7")


def test_extension():
    c2, c3, c4 = cyclic(2), cyclic(3), cyclic(4)
    for n, h in ((c3, c2), (c2, c4), (dihedral(3), c2)):
        trivial = extension(n, h, lambda y, x: x, lambda y, z: n.e)
        assert trivial.table == extension(n, h).table == direct_product(h, n).table
    q8 = extension(c4, c2, lambda s, x: c4.inv(x) if s else x,
                   lambda s, u: 2 * s * u)
    assert are_isomorphic(q8, dicyclic(2))


class TestKnownStructure:
    def test_q8(self):
        q8 = dicyclic(2)
        assert q8.element_orders() == (1, 2, 4, 4, 4, 4, 4, 4)
        assert q8.center_size() == 2
        assert not q8.is_abelian()

    def test_q16(self):
        q16 = dicyclic(4)
        assert q16.n == 16
        assert q16.element_orders().count(2) == 1   # unique involution

    def test_a4(self):
        a4 = alternating4()
        assert a4.n == 12
        assert a4.element_orders() == (1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3)
        assert len(a4.derived_subgroup()) == 4      # Klein four group

    def test_dihedral(self):
        d4 = dihedral(4)
        assert d4.n == 8
        assert d4.center_size() == 2
        assert d4.element_orders().count(2) == 5

    def test_semidihedral_vs_modular(self):
        sd, m = semidihedral16(), modular16()
        assert sd.n == m.n == 16
        assert not are_isomorphic(sd, m)
        assert m.center_size() == 4
        assert sd.center_size() == 2

    def test_central_product(self):
        g = central_product_d4_c4()
        assert g.n == 16
        assert g.center_size() == 4
        assert not g.is_abelian()

    def test_semidirect_products(self):
        g = c4_semi_c4()
        assert g.n == 16 and not g.is_abelian()
        h = c2c2_semi_c4()
        assert h.n == 16 and not h.is_abelian()
        assert not are_isomorphic(g, h)


class TestGroupOps:
    def test_identity_and_inverses(self):
        for _, g in group_catalog(max_order=8):
            for x in g.elements():
                assert g.mul(x, g.inv(x)) == g.e
                assert g.mul(g.e, x) == x

    def test_quotient_of_q8_by_center(self):
        q8 = dicyclic(2)
        center = frozenset(i for i in q8.elements()
                           if all(q8.commutes(i, j) for j in q8.elements()))
        quot, proj = q8.quotient(center)
        assert quot.n == 4
        assert quot.is_abelian()
        assert quot.element_orders() == (1, 2, 2, 2)   # Klein four

    def test_quotient_rejects_non_normal(self):
        d3 = dihedral(3)
        reflection = next(i for i in d3.elements() if d3.order_of(i) == 2)
        sub = d3.subgroup_closure([reflection])
        with pytest.raises(AlgebraError):
            d3.quotient(sub)

    @pytest.mark.parametrize("group, subset", [
        (cyclic(4), {0, 1}),          # would project by a non-homomorphism
        (dihedral(3), {3, 4, 5}),     # the reflections: conjugation-invariant
        (cyclic(4), {1}),
    ])
    def test_quotient_rejects_a_non_subgroup(self, group, subset):
        with pytest.raises(AlgebraError, match=r"is not a subgroup"):
            group.quotient(subset)

    def test_quotient_names_a_non_normal_subgroup(self):
        d3 = dihedral(3)
        with pytest.raises(AlgebraError, match=r"^subgroup is not normal$"):
            d3.quotient(d3.subgroup_closure([3]))

    def test_malformed_table_rejected(self):
        with pytest.raises(AlgebraError):
            FiniteGroup([[0, 1], [1, 1]])   # 1 has no inverse / not a group
