"""The search-node ledger: for each cell of the paper's grids that the exact
searches answer in well under a second, the optimum, the worst and the best
equilibrium owner counts, and the nodes each of the three searches took.

Node counts are exact and the same on every machine, so a change to a
search shows here as the rows it moves. Both equilibrium sides run through
`optimum._by_component` from the stabilized optimum, as `exact_efficiency`
runs them. The cells left out take seconds or stop at the node budget: SGG-AC
at k = 1 on karate (xi = 1, 2), `er_random(50, 0.1, 0)` (xi = 1, 2, 5) and
`chain(100)` (xi = 1).
"""

import functools

import pytest

from _oracles import disjoint_union, stabilized_start
from sharegoods import netgraph as ng
from sharegoods import optimum
from sharegoods.equilibria import _largest_search, _smallest_search
from sharegoods.optimum import min_dominating_exact


def three_er16() -> ng.Graph:
    h = ng.er_random(16, 0.25, 1)
    return disjoint_union(h, h, h)


GRAPHS = {
    "karate": ng.karate,
    "star(100)": lambda: ng.star(100),
    "chain(100)": lambda: ng.chain(100),
    "er_random(50,0.1,0)": lambda: ng.er_random(50, 0.1, 0),
    "er_random(16,0.25,1)": lambda: ng.er_random(16, 0.25, 1),
    "er_random(16,0.25,1)x3": three_er16,
}

# (graph, k, xi (None: SGG), optimum, worst, best owner counts,
#  optimum, largest side, smallest side search nodes)
LEDGER = [
    ("karate", 1, None, 4, 20, 4, 1, 230, 35),
    ("karate", 1, 5, 4, 20, 4, 1, 32_746, 1),
    ("karate", 1, 10, 4, 20, 4, 1, 1_983, 1),
    ("karate", 1, 20, 4, 20, 4, 1, 230, 35),
    ("karate", 2, None, 2, 4, 2, 1, 39, 1),
    ("karate", 2, 6, 2, 7, 2, 1, 2_220, 1),
    ("karate", 3, None, 1, 2, 1, 1, 51, 1),
    ("karate", 3, 6, 1, 5, 1, 1, 2_074, 1),
    ("karate", 4, None, 1, 2, 1, 1, 51, 1),
    ("karate", 4, 6, 1, 5, 1, 1, 921, 1),
    ("star(100)", 1, None, 1, 99, 1, 1, 102, 1),
    ("star(100)", 1, 1, 1, 99, 1, 1, 201, 1),
    ("star(100)", 1, 2, 1, 99, 1, 1, 201, 1),
    ("star(100)", 1, 5, 1, 99, 1, 1, 201, 1),
    ("star(100)", 1, 10, 1, 99, 1, 1, 201, 1),
    ("star(100)", 1, 20, 1, 99, 1, 1, 201, 1),
    ("chain(100)", 1, None, 34, 50, 34, 1, 151, 1),
    ("chain(100)", 1, 2, 34, 50, 34, 1, 151, 1),
    ("chain(100)", 1, 5, 34, 50, 34, 1, 151, 1),
    ("chain(100)", 1, 10, 34, 50, 34, 1, 151, 1),
    ("chain(100)", 1, 20, 34, 50, 34, 1, 151, 1),
    ("er_random(50,0.1,0)", 1, None, 9, 20, 10, 630, 1_071, 3_380),
    ("er_random(50,0.1,0)", 1, 10, 9, 20, 10, 630, 6_632, 3_378),
    ("er_random(50,0.1,0)", 1, 20, 9, 20, 10, 630, 1_071, 3_380),
    ("er_random(16,0.25,1)", 1, 1, 4, 10, 4, 40, 660, 1),
    ("er_random(16,0.25,1)x3", 1, 2, 12, 24, 12, 120, 1_287, 3),
]


@pytest.mark.parametrize("row", LEDGER, ids=lambda row: "-".join(
    (row[0], f"k{row[1]}", "sgg" if row[2] is None else f"xi{row[2]}")))
def test_ledger_row(row):
    graph, k, xi = row[:3]
    g = GRAPHS[graph]()
    xi = g.n if xi is None else xi
    opt = min_dominating_exact(g, k)
    assert opt.proven_optimal
    start = stabilized_start(g, k, xi)
    (worst, largest), (best, smallest) = (
        optimum._by_component(g, k, functools.partial(search, xi), start)
        for search in (_largest_search, _smallest_search))
    assert (graph, k, row[2], len(opt.owners), len(worst), len(best),
            opt.nodes_explored, largest, smallest) == row
