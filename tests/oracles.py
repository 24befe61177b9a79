"""Independent brute-force oracles for the tests.

Everything here recomputes solver answers from first principles with the
dumbest correct method available: full subset enumeration over plain
row lists, recursive min-max over whole path words, and
closure-by-definition with relabelings ranging over all value tuples.
Nothing imports solver internals beyond table/measure primitives, so a
solver bug cannot hide in its own oracle.
"""

from itertools import combinations, product

from dtlab.tables import canonical_key, is_constant, validate


def subsets_by_cost(measure, table, card_first=False):
    """All column subsets as (cost, key, attrs) in deterministic order."""
    cols = sorted(table.columns, key=lambda a: a.index)
    out = []
    for r in range(len(cols) + 1):
        for attrs in combinations(cols, r):
            cost = measure.set_cost(attrs)
            idx = tuple(a.index for a in attrs)
            key = (cost, len(attrs), idx) if card_first else (cost, idx)
            out.append((key, attrs))
    out.sort()
    return out


def brute_min_subset(measure, table, ok, card_first=False):
    for key, attrs in subsets_by_cost(measure, table, card_first):
        if ok(attrs):
            return key[0], attrs
    raise AssertionError("no subset satisfied the oracle predicate")


def brute_is_test(table, attrs):
    """Does every 1-row differ from every 0-row somewhere on ``attrs``?"""
    pos = [table.column_position(a) for a in attrs]
    for a, da in table.entries():
        for b, db in table.entries():
            if da == 0 and db == 1 and all(a[p] == b[p] for p in pos):
                return False
    return True


def brute_test_cost(measure, table):
    if is_constant(table):
        return 0, ()
    return brute_min_subset(measure, table, lambda attrs: brute_is_test(table, attrs))


def brute_row_separation(measure, table, row, card_first=False):
    row = tuple(row)

    def ok(attrs):
        pos = [table.column_position(a) for a in attrs]
        return all(
            any(other[p] != row[p] for p in pos)
            for other in table.rows
            if other != row
        )

    return brute_min_subset(measure, table, ok, card_first)


def brute_table_separation(measure, table):
    if table.is_empty:
        return 0
    return max(brute_row_separation(measure, table, r)[0] for r in table.rows)


def project(table, keep_attrs):
    """Independent column projection with minimum-decision merging."""
    keep = [table.column_position(a) for a in keep_attrs]
    merged = {}
    for row, d in table.entries():
        proj = tuple(row[p] for p in keep)
        merged[proj] = min(merged.get(proj, 1), d)
    if not keep:
        return validate(table.k, (), ())
    return validate(
        table.k, [table.columns[p] for p in keep], sorted(merged.items())
    )


def brute_closure_separation(measure, table):
    best = 0
    cols = list(table.columns)
    for r in range(len(cols) + 1):
        for keep in combinations(cols, r):
            best = max(best, brute_table_separation(measure, project(table, keep)))
    return best


def brute_fixing_for_tuple(measure, table, values):
    if is_constant(table):
        return 0, ()
    values = tuple(values)

    def ok(attrs):
        pos = [table.column_position(a) for a in attrs]
        survivors = [
            d
            for row, d in table.entries()
            if all(row[p] == values[p] for p in pos)
        ]
        return len(set(survivors)) <= 1

    return brute_min_subset(measure, table, ok)


def brute_fixing(measure, table):
    if is_constant(table):
        return 0
    return max(
        brute_fixing_for_tuple(measure, table, values)[0]
        for values in product(range(table.k), repeat=table.n_cols)
    )


def brute_det_cost(measure, table):
    """Min over deterministic trees, evaluating whole path words."""
    if table.is_empty:
        return 0

    def solve(rows, avail, word):
        decisions = {d for _, d in rows}
        if len(decisions) <= 1:
            return measure.cost(word)
        best = None
        for a in avail:
            p = table.column_position(a)
            groups = {}
            for row, d in rows:
                groups.setdefault(row[p], []).append((row, d))
            worst = max(
                solve(g, [b for b in avail if b != a], word + (a,))
                for g in groups.values()
            )
            if best is None or worst < best:
                best = worst
        assert best is not None
        return best

    return solve(list(table.entries()), list(table.columns), ())


def brute_rule_cost(measure, table, row):
    row = tuple(row)

    def ok(attrs):
        pos = [table.column_position(a) for a in attrs]
        return all(
            d == 1
            for other, d in table.entries()
            if all(other[p] == row[p] for p in pos)
        )

    return brute_min_subset(measure, table, ok)


def brute_snd_cost(measure, table):
    if is_constant(table):
        return 0
    return max(
        brute_rule_cost(measure, table, row)[0]
        for row, d in table.entries()
        if d == 1
    )


def brute_closure_keys(table):
    """Closure by definition: relabelings over all value tuples.

    Feasible only for tiny tables (the relabeling space is
    2^(k^columns) per retained column set).
    """
    keys = set()
    cols = list(table.columns)
    for r in range(len(cols) + 1):
        for keep in combinations(cols, r):
            proj = project(table, keep)
            m = len(keep)
            domain = sorted(product(range(table.k), repeat=m))
            for bits in product((0, 1), repeat=len(domain)):
                nu = dict(zip(domain, bits))
                relabeled = validate(
                    table.k,
                    proj.columns,
                    [(row, nu[row]) for row in proj.rows],
                )
                keys.add(canonical_key(relabeled))
    return keys


# ---------------------------------------------------------------------------
# decision trees by definition: a terminal carries a ``decision``; any
# other node carries an ``attribute`` and ``edges`` of (value, child)


def _is_terminal(node):
    return hasattr(node, "decision")


def _paths_below(node):
    if _is_terminal(node):
        return [((), (), node.decision)]
    return [
        ((node.attribute,) + word, ((node.attribute, value),) + fixings, decision)
        for value, child in node.edges
        for word, fixings, decision in _paths_below(child)
    ]


def brute_tree_paths(tree):
    """Every root-to-terminal path as (word, fixings, decision), the paths
    of each root child in turn, each edge's paths before the next edge's."""
    return [path for child in tree.children for path in _paths_below(child)]


def _attributes_below(node):
    if _is_terminal(node):
        return set()
    return {node.attribute}.union(*(_attributes_below(child) for _, child in node.edges))


def brute_tree_attributes(tree):
    """The attributes of all attribute nodes, those without edges included."""
    return frozenset().union(*(_attributes_below(child) for child in tree.children))


def _shape_below(node, k):
    if _is_terminal(node):
        d = node.decision
        if isinstance(d, int) and not isinstance(d, bool) and d in (0, 1):
            return []
        return [f"terminal decision {node.decision!r} is not 0 or 1"]
    if not hasattr(node, "edges") or type(node.attribute).__name__ != "Attribute":
        return [f"tree node {node!r} is neither a Leaf nor a Node of an Attribute"]
    name = node.attribute.name
    try:
        hash(node.attribute.index)
    except TypeError:
        return [f"attribute {name} has an unhashable index {node.attribute.index!r}"]
    try:
        edges = list(node.edges)
    except TypeError:
        return [f"edges {node.edges!r} at {name} are not a sequence of (value, child) pairs"]
    out = [] if edges else [f"attribute node {name} has no outgoing edges"]
    pairs = []
    for edge in edges:
        if isinstance(edge, tuple) and len(edge) == 2:
            pairs.append(edge)
        else:
            out.append(f"edge {edge!r} at {name} is not a (value, child) pair")
    for value, child in pairs:
        if not 0 <= value < k:
            out.append(f"edge value {value} at {name} is outside E_{k}")
        out += _shape_below(child, k)
    return out


def brute_tree_shape_problems(tree):
    """The bare k-decision-tree shape violations: the root's first, then
    each node's before those of its subtrees, in edge order.  A child that
    is neither a leaf nor a node of an ``Attribute`` is one problem, with
    nothing below it, and so is a node whose attribute index is unhashable
    or whose edges cannot be iterated, and a root whose children cannot
    be; a node's own problems are no edges, then each edge that is no
    (value, child) pair; a pair's value comes just before its subtree's
    problems."""
    out = []
    try:
        children = list(tree.children)
    except TypeError:
        children = []
        out.append(f"children {tree.children!r} of the root are not a sequence of tree nodes")
    else:
        if not children:
            out.append("the root has no outgoing edges; a tree needs at least two nodes")
    if tree.k < 2:
        out.append(f"alphabet size k must be >= 2, got {tree.k}")
    for child in children:
        out += _shape_below(child, tree.k)
    return out
