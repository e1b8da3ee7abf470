"""The small two-generated Cayley digraphs that several tests sweep."""

import itertools

from hampair.core import CayleyDigraph, FiniteAbelianGroup, InputError


def factorizations(order: int, minimum: int = 2):
    """Each way to write order as n1 * n2 * ... with minimum <= n1 <= n2 <= ..."""
    if order == 1:
        yield ()
        return
    for first in range(minimum, order + 1):
        if order % first == 0:
            for rest in factorizations(order // first, first):
                yield (first,) + rest


def two_generated(max_order: int, ordered: bool = True):
    """Every Cay(G; a, b) with G = Z_{n1} x Z_{n2} x ... (each
    factorization n1 <= n2 <= ... of each order 3..max_order) and a != b
    nonzero elements that generate G: each ordered pair (a, b), or with
    ordered=False each pair once, a before b in G.elements()."""
    pairs = itertools.permutations if ordered else itertools.combinations
    for order in range(3, max_order + 1):
        for orders in factorizations(order):
            group = FiniteAbelianGroup(orders)
            nonzero = [v for v in group.elements() if v != group.zero]
            for a, b in pairs(nonzero, 2):
                try:
                    yield CayleyDigraph(group, (a, b))
                except InputError:
                    continue  # the pair does not generate the group
