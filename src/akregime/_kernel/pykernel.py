"""Kleshchev kernel.

The kernel works on raw data (order e, class/shift tuples, multipartitions
as tuples of tuples) so it stays independent of the typed API layer in
`simples`.

Good-node rule, for a fixed residue: list the removable and addable nodes
of that residue in the "below" order (component, then row; within one
residue all such nodes have distinct (component, row) when q != 1).  A
removable node opens a bracket and an addable node closes the nearest open
one; the good node is the first removable node left open.

One walk per descent step applies the rule to every residue at once.  It
takes each component one run of equal rows at a time: a run has one
addable node, at its top row, then one removable node, at its bottom row,
so the walk costs one step per run rather than per row.
"""


def _good_index(e, classes, shifts, mp):
    """Open removable nodes of `mp` after bracketing all residues together.

    Returns dict residue -> list of (component, row), 0-based, in below
    order; the good node of a residue is the first entry of its list, and
    a residue without one has an empty list or no entry.
    """
    opened = {}
    for k, component in enumerate(mp):
        cls = classes[k]
        shift = shifts[k]
        rows = len(component)
        r = 0
        while True:
            row_len = component[r] if r < rows else 0
            # The addable node (r, row_len + 1) tops the run.
            exp = shift + row_len - r
            if e:
                exp %= e
            nodes = opened.get((cls, exp))
            if nodes:
                nodes.pop()
            if r == rows:
                break
            r += component.count(row_len)
            # The removable node (r - 1, row_len) ends the run.
            exp = shift + row_len - r
            if e:
                exp %= e
            opened.setdefault((cls, exp), []).append((k, r - 1))
    return opened


def good_node(e, classes, shifts, mp, residue):
    """The good node of the given residue, as (component, row, column)
    1-based, or None.  Requires e != 1."""
    nodes = _good_index(e, classes, shifts, mp).get(tuple(residue))
    if not nodes:
        return None
    k, r = nodes[0]
    return (k + 1, r + 1, mp[k][r])


def _remove(mp, k, r):
    component = mp[k]
    new_len = component[r] - 1
    rows = component[:r] + ((new_len,) if new_len else ()) + component[r + 1:]
    return mp[:k] + (rows,) + mp[k + 1:]


def _verdict(e, classes, shifts, mp, memo):
    # The Kleshchev labels are the crystal component of the empty
    # multipartition, and removing a good node is a crystal edge, so it
    # never leaves or enters that component: a label is Kleshchev exactly
    # when any one good-node descent reaches the empty multipartition.
    chain = []
    while True:
        result = memo.get(mp)
        if result is not None:
            break
        if not any(mp):
            result = True
            break
        chain.append(mp)
        opened = _good_index(e, classes, shifts, mp)
        residues = [res for res, nodes in opened.items() if nodes]
        if not residues:
            result = False
            break
        k, r = opened[min(residues)][0]
        mp = _remove(mp, k, r)
    for label in chain:
        memo[label] = result
    return result


def kleshchev_verdicts(e, classes, shifts, mps):
    """Kleshchev verdict for each multipartition, sharing one memo table.

    The memo is confined to this call, so concurrent callers never share
    state.  Requires e != 1.
    """
    memo = {}
    return [_verdict(e, classes, shifts, mp, memo) for mp in mps]
