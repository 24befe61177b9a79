"""The bounded deterministic-tree search against the unbounded one it replaced.

``reference_det_tree_cost`` is the earlier memoized search, kept verbatim:
exact memo entries only, no bound handed to children, one ``extend`` per
(memo entry, splitting column).  The bounded search must return the same
cost and the same witness tree, printed byte for byte, and must do so
with at most half the ``extend`` calls on the ``params`` benchmark shapes.
"""

import sys

import pytest

from dtlab.measures import ComplexityMeasure, additive, depth, max_of, max_weight, sum_of
from dtlab.randgen import SplitMix64, random_table
from dtlab.solvers import det_tree_cost
from dtlab.tables import _bits_of, empty_table
from dtlab.trees import DecisionTree, Leaf, Node, format_tree
from dtlab.verify import standard_measures


def reference_det_tree_cost(measure, table):
    """The unbounded memoized search that ``det_tree_cost`` replaced."""
    if table.is_empty:
        return 0, None
    bits = _bits_of(table)
    k = table.k
    cols = table.columns
    masks, ones, full, order = bits.masks, bits.ones, bits.full, bits.ranks
    memo = {}

    def constant(mask):
        x = mask & ones
        return x == 0 or x == mask

    def solve(mask, state):
        if constant(mask):
            return measure.value(state)
        key = (mask, state)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        best = None
        best_p = -1
        for p in order:
            live = [masks[p][v] & mask for v in range(k)]
            live = [m for m in live if m]
            if len(live) < 2:
                continue
            st = measure.extend(state, cols[p].index)
            worst = 0
            for m in live:
                c = solve(m, st)
                if c > worst:
                    worst = c
                if best is not None and worst >= best:
                    break  # p can no longer beat best, so its exact worst is not needed
            if best is None or worst < best:
                best, best_p = worst, p
        assert best is not None, "non-constant subtable with no splitting attribute"
        memo[key] = (best, best_p)
        return best

    def rebuild(mask, state):
        if constant(mask):
            first = (mask & -mask).bit_length() - 1
            return Leaf(table.decisions[first])
        _, p = memo[(mask, state)]
        st = measure.extend(state, cols[p].index)
        edges = tuple(
            (v, rebuild(masks[p][v] & mask, st))
            for v in range(k)
            if masks[p][v] & mask
        )
        return Node(cols[p], edges)

    s0 = measure.initial_state()
    try:
        total = solve(full, s0)
        tree = DecisionTree(k, (rebuild(full, s0),))
    finally:
        del solve, rebuild  # each refers to itself through its closure cell
    return total, tree


def measure_bundle():
    """The standard measures, both combinators over them, and an additive
    measure whose default weight is not 1."""
    depth_m, add_m, max_m = (m for _, m in standard_measures())
    return [
        ("depth", depth_m),
        ("additive", add_m),
        ("maxw", max_m),
        ("sum", sum_of(add_m, depth())),
        ("max", max_of(max_m, additive({1: 4}, default=2))),
        ("additive-default-3", additive({0: 1, 2: 5}, default=3)),
        ("maxw-default-2", max_weight({3: 4}, default=2)),
    ]


def seeded_tables(seed, count):
    """Tables of k 2-4 and 1-6 columns (1-4 columns for k 4), p1 1/2."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        k = 2 + rng.below(3)
        cols = 1 + rng.below(6 if k < 4 else 4)
        rows = 1 + rng.below(min(24, k**cols))
        out.append(random_table(k, cols, rows, seed=rng))
    return out


def answer(solver, measure, table):
    cost, tree = solver(measure, table)
    return cost, None if tree is None else format_tree(tree)


@pytest.mark.parametrize("name,measure", measure_bundle(), ids=[n for n, _ in measure_bundle()])
def test_bounded_search_matches_reference(name, measure):
    for table in seeded_tables(20261019, 60):
        assert answer(det_tree_cost, measure, table) == answer(
            reference_det_tree_cost, measure, table
        ), (name, table)


def test_bounded_search_matches_reference_on_edge_shapes():
    one_col = random_table(3, 1, 3, seed=5)
    constant = random_table(2, 3, 5, p1=1, seed=6)
    single_row = random_table(2, 4, 1, seed=7)
    for _, measure in measure_bundle():
        for table in (one_col, constant, single_row, empty_table(3)):
            assert answer(det_tree_cost, measure, table) == answer(
                reference_det_tree_cost, measure, table
            )


def params_tables(variant):
    """The two tables of one ``params`` benchmark variant, drawn as the
    benchmark draws them."""
    rng = SplitMix64(20260900 + variant)
    return [random_table(*shape, seed=rng.next_u64()) for shape in ((2, 6, 32), (3, 5, 40))]


@pytest.mark.parametrize("variant", [0, 3])
def test_bounded_search_makes_at_most_half_the_extend_calls(monkeypatch, variant):
    calls = []
    extend = ComplexityMeasure.extend
    monkeypatch.setattr(
        ComplexityMeasure, "extend", lambda self, state, attr: calls.append(attr) or extend(self, state, attr)
    )
    for table in params_tables(variant):
        for name, measure in standard_measures():
            got, counts = [], []
            for solver in (det_tree_cost, reference_det_tree_cost):
                calls.clear()
                got.append(answer(solver, measure, table))
                counts.append(len(calls))
            assert got[0] == got[1], (table.k, name)
            assert 2 * counts[0] <= counts[1], (table.k, name, counts)


def solve_calls(measure, table):
    """Every call of ``det_tree_cost``'s inner ``solve`` as
    [mask, state, bound, returned value, nested solve calls], in call order."""
    code = det_tree_cost.__code__.co_consts
    solve_code = next(c for c in code if getattr(c, "co_name", None) == "solve")
    calls, stack = [], []

    def profile(frame, event, arg):
        if frame.f_code is not solve_code:
            return
        if event == "call":
            if stack:
                stack[-1][4] += 1
            f = frame.f_locals
            stack.append([f["mask"], f["state"], f["bound"], None, 0])
            calls.append(stack[-1])
        elif event == "return":
            stack.pop()[3] = arg

    sys.setprofile(profile)
    try:
        det_tree_cost(measure, table)
    finally:
        sys.setprofile(None)
    return calls


def exact_costs(measure, table):
    """The exact cost of any (row mask, state) subproblem, by memoized
    min-max over splitting columns, written without bounds."""
    bits = _bits_of(table)
    memo = {}

    def cost(mask, state):
        x = mask & bits.ones
        if x == 0 or x == mask:
            return measure.value(state)
        if (mask, state) not in memo:
            memo[mask, state] = min(
                max(cost(m, measure.extend(state, table.columns[p].index)) for m in live)
                for p in range(table.n_cols)
                for live in [[v & mask for v in bits.masks[p] if v & mask]]
                if len(live) > 1
            )
        return memo[mask, state]

    return cost


@pytest.mark.parametrize("name,measure", measure_bundle(), ids=[n for n, _ in measure_bundle()])
def test_every_solve_call_keeps_its_contract_and_its_prunes(name, measure):
    """Each call answers exactly below its bound and with a true lower
    bound otherwise; no call is made on a constant subtable or below a
    state whose floor reaches the bound; and a subproblem already known
    exactly, or known to cost at least the bound, is not searched again."""
    for table in seeded_tables(20261020, 25) + params_tables(0):
        cost = exact_costs(measure, table)
        known = {}  # (mask, state) -> (value, exact?)
        for mask, state, bound, got, nested in solve_calls(measure, table):
            x = mask & _bits_of(table).ones
            assert x not in (0, mask), "solve called on a constant subtable"
            floor = min(measure.value(measure.extend(state, a.index)) for a in table.columns)
            assert floor < bound, "solve called below a state whose floor reaches the bound"
            truth = cost(mask, state)
            assert got == truth if got < bound else truth >= bound
            before = known.get((mask, state))
            if before is not None and (before[1] or before[0] >= bound):
                assert nested == 0, "a settled subproblem was searched again"
            known[mask, state] = (got, got < bound)
