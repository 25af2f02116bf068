"""Tests of the benchmark's own checkers on hand-computed small cases.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import unittest
from fractions import Fraction
from itertools import combinations, permutations, product

import checks


class CountingFormulas(unittest.TestCase):
    def test_stirling(self):
        self.assertEqual([checks.stirling2(4, k) for k in range(5)],
                         [0, 1, 7, 6, 1])

    def test_bell(self):
        self.assertEqual([checks.bell(n) for n in range(1, 5)],
                         [1, 2, 5, 15])

    def test_ordered_bell(self):
        self.assertEqual([checks.ordered_bell(n) for n in range(1, 5)],
                         [1, 3, 13, 75])

    def test_rado(self):
        self.assertEqual([checks.rado_orbits(n) for n in range(1, 5)],
                         [1, 3, 15, 127])

    def test_equiv(self):
        self.assertEqual([checks.equiv_orbits(n) for n in range(1, 5)],
                         [1, 3, 12, 60])

    def test_profile_formula_only_for_closed_forms(self):
        self.assertEqual(checks.profile_formula("dlo", 3), 13)
        self.assertIsNone(checks.profile_formula("pairs", 3))


class DifferentialCount(unittest.TestCase):
    def test_formula_matches_enumeration(self):
        for w in range(1, 7):
            for k in range(4):
                n = sum(1 for size in range(k + 1)
                        for f in combinations(range(w), size)
                        for x in range(w) if x not in f
                        for y in range(w) if y not in f)
                self.assertEqual(checks.differential_comparisons(w, k), n)

    def test_known_values(self):
        # W = 12: K = 2 is 144 + 12 * 121 + 66 * 100, K = 3 adds 220 * 81
        self.assertEqual(checks.differential_comparisons(12, 2), 8196)
        self.assertEqual(checks.differential_comparisons(12, 3), 26016)


def _brute_pair_classes(window, n):
    """Orbits of n-tuples of 2-subsets by relabelling the support in every
    possible way and keeping the least image."""
    forms = set()
    for tup in product(window, repeat=n):
        elems = sorted(set().union(*tup))
        best = None
        for perm in permutations(range(len(elems))):
            img = dict(zip(elems, perm))
            key = tuple(tuple(sorted(img[e] for e in p)) for p in tup)
            best = key if best is None or key < best else best
        forms.add(best)
    return len(forms)


class PairTuples(unittest.TestCase):
    def test_small_counts(self):
        window = [frozenset(p) for p in combinations(range(5), 2)]
        # one pair; two pairs: equal, sharing one element, disjoint
        self.assertEqual(checks.pair_tuple_classes(window, 1), 1)
        self.assertEqual(checks.pair_tuple_classes(window, 2), 3)

    def test_agrees_with_relabelling(self):
        for top in (4, 5):
            window = [frozenset(p) for p in combinations(range(top), 2)]
            for n in (2, 3):
                self.assertEqual(checks.pair_tuple_classes(window, n),
                                 _brute_pair_classes(window, n))


class ZOrder(unittest.TestCase):
    def test_difference_vectors(self):
        # pairs from {0, 1, 2}: differences -2..2
        self.assertEqual(checks.zorder_difference_vectors([0, 1, 2], 2), 5)
        # triples from {0, 1}: (0,0), (0,1), (1,0), (1,1) starting at 0 and
        # (0,-1), (-1,0), (-1,-1) starting at 1
        self.assertEqual(checks.zorder_difference_vectors([0, 1], 3), 7)


class RawRelations(unittest.TestCase):
    def test_bit_adjacency(self):
        # 5 = 0b101: adjacent to 0 and 2, not to 1
        self.assertTrue(checks.bit_adjacent(0, 5))
        self.assertTrue(checks.bit_adjacent(5, 2))
        self.assertFalse(checks.bit_adjacent(1, 5))
        self.assertFalse(checks.bit_adjacent(3, 3))

    def test_rado_typeset_prefix(self):
        # vertices adjacent to 0 are the odd numbers above it, and 1 is
        # adjacent to 0 as well
        self.assertEqual(checks.rado_typeset_prefix({0}, 1, 4), [1, 3, 5, 7])
        # not adjacent to 0: the even numbers
        self.assertEqual(checks.rado_typeset_prefix({0}, 2, 3), [2, 4, 6])

    def test_dlo_cut(self):
        self.assertTrue(checks.dlo_same_cut([Fraction(1, 8)], Fraction(0),
                                            Fraction(-5)))
        self.assertFalse(checks.dlo_same_cut([Fraction(1, 8)], Fraction(0),
                                             Fraction(1, 2)))

    def test_interval_copy(self):
        s = {0, 2}
        self.assertTrue(checks.interval_copy_member(s, Fraction(-1, 2)))
        self.assertTrue(checks.interval_copy_member(s, Fraction(5, 2)))
        self.assertFalse(checks.interval_copy_member(s, Fraction(3, 2)))
        self.assertFalse(checks.interval_copy_member(s, 2))
        self.assertFalse(checks.interval_copy_member(s, -1))

    def test_two_subsets(self):
        self.assertEqual(len(checks.two_subsets({0, 1, 2, 3})), 6)


if __name__ == "__main__":
    unittest.main()
