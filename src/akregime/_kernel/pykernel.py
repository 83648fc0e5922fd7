"""Kleshchev kernel.

The kernel works on raw data (order e, class/shift tuples, multipartitions
as tuples of tuples) so it stays independent of the typed API layer in
`simples`.

Good-node rule, for a fixed residue: list the removable and addable nodes
of that residue in the "below" order (component, then row; within one
residue all such nodes have distinct (component, row) when q != 1).  A
removable node opens a bracket and an addable node closes the nearest open
one; the good node is the first removable node left open.
"""

REMOVABLE = 0
ADDABLE = 1


def _residue_nodes(e, classes, shifts, mp):
    """Removable and addable nodes grouped by residue, in below order.

    Returns dict residue -> list of (kind, component, row, column) with kind
    REMOVABLE/ADDABLE, plus the sorted tuple of residues of removable nodes.
    """
    groups = {}
    removable_residues = set()
    for k, component in enumerate(mp):
        rows = len(component)
        for r in range(rows + 1):
            row_len = component[r] if r < rows else 0
            if r < rows:
                below = component[r + 1] if r + 1 < rows else 0
                if row_len > below:
                    exp = shifts[k] + row_len - (r + 1)
                    if e > 0:
                        exp %= e
                    res = (classes[k], exp)
                    groups.setdefault(res, []).append((REMOVABLE, k, r, row_len))
                    removable_residues.add(res)
            above = component[r - 1] if r >= 1 else None
            if above is None or above > row_len:
                exp = shifts[k] + (row_len + 1) - (r + 1)
                if e > 0:
                    exp %= e
                res = (classes[k], exp)
                groups.setdefault(res, []).append((ADDABLE, k, r, row_len + 1))
    return groups, sorted(removable_residues)


def _good_index(nodes):
    """Index of the good node in a below-ordered residue group, or -1."""
    open_removables = []
    for idx, node in enumerate(nodes):
        if node[0] == REMOVABLE:
            open_removables.append(idx)
        elif open_removables:
            open_removables.pop()
    return open_removables[0] if open_removables else -1


def good_node(e, classes, shifts, mp, residue):
    """The good node of the given residue, as (component, row, column)
    1-based, or None.  Requires e != 1."""
    groups, _ = _residue_nodes(e, classes, shifts, mp)
    nodes = groups.get(tuple(residue))
    if not nodes:
        return None
    idx = _good_index(nodes)
    if idx < 0:
        return None
    _, k, r, c = nodes[idx]
    return (k + 1, r + 1, c)


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
        groups, removable_residues = _residue_nodes(e, classes, shifts, mp)
        for res in removable_residues:
            nodes = groups[res]
            idx = _good_index(nodes)
            if idx >= 0:
                _, k, r, _ = nodes[idx]
                mp = _remove(mp, k, r)
                break
        else:
            result = False
            break
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
