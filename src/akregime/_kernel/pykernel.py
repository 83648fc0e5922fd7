"""Kleshchev kernel on raw data (order e, class/shift tuples,
multipartitions as tuples of tuples), independent of the typed API layer
in `simples`.

Residue (cls, exp) is the int key class_index + stride * exp: a call numbers
the distinct class labels in first-seen order and stride is their count, so
keys never collide.  Component k's node of content d has key class_index +
stride * (shift + d), reduced mod stride * e when e > 0 (exp mod e).

Good-node rule, for a fixed residue: list the removable and addable nodes
of that residue in the "below" order (component, then row; within one
residue all such nodes have distinct (component, row) when q != 1).  A
removable node opens a bracket and an addable node closes the nearest open
one; the good node is the first removable node left open.  One walk per
descent step brackets every residue at once, one run of equal rows at a
time: a run has one addable node, at its top row, then one removable node,
at its bottom row.

Each step records every good child's verdict in the call's memo and goes
on through the lowest good node (largest component, then row; see
`_verdict`), so a bulk call makes about one walk per label.
"""


def _keys(e, classes, shifts):
    class_index = {cls: i for i, cls in enumerate(dict.fromkeys(classes))}
    stride = len(class_index)
    bases = tuple(class_index[cls] + stride * shift for cls, shift in zip(classes, shifts))
    return class_index, stride, stride * e, bases


def _good_index(stride, modulus, bases, mp):
    """Residue key -> open removable (component, row) of `mp`, below order."""
    opened = {}
    for k, component in enumerate(mp):
        base = bases[k]
        rows = len(component)
        r = 0
        while True:
            row_len = component[r] if r < rows else 0
            # The addable node (r, row_len + 1) tops the run.
            key = base + stride * (row_len - r)
            if modulus:
                key %= modulus
            nodes = opened.get(key)
            if nodes:
                nodes.pop()
            if r == rows:
                break
            r += component.count(row_len)
            # The removable node (r - 1, row_len) ends the run.
            key = base + stride * (row_len - r)
            if modulus:
                key %= modulus
            opened.setdefault(key, []).append((k, r - 1))
    return opened


def good_node(e, classes, shifts, mp, residue):
    """The good node of the given residue, as (component, row, column)
    1-based, or None.  Requires e != 1."""
    class_index, stride, modulus, bases = _keys(e, classes, shifts)
    cls, exp = residue
    if cls not in class_index:
        return None
    key = class_index[cls] + stride * (exp % e if e else exp)
    nodes = _good_index(stride, modulus, bases, mp).get(key)
    if not nodes:
        return None
    k, r = nodes[0]
    return (k + 1, r + 1, mp[k][r])


def _remove(mp, k, r):
    """`mp` without the last node of row r of component k."""
    rows = mp[k]
    new_len = rows[r] - 1
    rows = rows[:r] + ((new_len,) if new_len else ()) + rows[r + 1:]
    return mp[:k] + (rows,) + mp[k + 1:]


def _verdict(stride, modulus, bases, mp, memo):
    # The Kleshchev labels are the crystal component of the empty
    # multipartition, and removing a good node is a crystal edge, so it
    # never leaves or enters that component: every good child of a label
    # has the label's verdict.  So each step puts every good child but the
    # lowest on the chain, to be recorded when the chain resolves, and goes
    # on from the lowest one: it keeps the label's upper rows, so an
    # earlier label has usually recorded it already.
    chain = []
    result = memo.get(mp)
    while result is None:
        chain.append(mp)
        lowest = None
        for nodes in _good_index(stride, modulus, bases, mp).values():
            if nodes:
                node = nodes[0]
                if lowest is None:
                    lowest = node
                    continue
                if node > lowest:
                    lowest, node = node, lowest
                chain.append(_remove(mp, *node))
        if lowest is None:
            result = False
            break
        mp = _remove(mp, *lowest)
        result = memo.get(mp)
    for label in chain:
        memo[label] = result
    return result


def kleshchev_verdicts(e, classes, shifts, mps):
    """Kleshchev verdict for each multipartition, sharing one memo table
    confined to this call, so concurrent callers never share state.
    Requires e != 1."""
    _, stride, modulus, bases = _keys(e, classes, shifts)
    memo = {((),) * len(classes): True}
    return [_verdict(stride, modulus, bases, mp, memo) for mp in mps]
