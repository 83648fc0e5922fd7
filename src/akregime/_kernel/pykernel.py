"""Kleshchev kernel on raw data (order e, class/shift tuples,
multipartitions as tuples of tuples), independent of the typed API layer
in `simples`.

Class groups.  u_k = q^shift[k] * v_class[k] with the v_c independent, so a
node of component k has residue (class[k], shift[k] + content), and two
components of different classes never share a residue.  The kernel splits
the components by class label with `params.class_groups` (a class group,
in first-seen order) and decides each group's sub-multipartition on its
own, with the group's shifts.  Within a group every node has one class,
so its residue is the int key shift + content, reduced mod e when e > 0.

Why a label is Kleshchev iff every group's sub-multipartition is.  The
Kleshchev labels are those that descend to the empty multipartition by
removing good nodes.  The bracket for residue (cls, exp) reads only the
nodes of components of class cls, and removing a good node of one group
leaves every other group's nodes, hence its signatures, unchanged.  So the
good-node removals of a label are those of its groups, interleaved in any
order, and the label descends to the empty multipartition iff each group's
sub-multipartition does.

Good-node rule, for a fixed residue: list the removable and addable nodes
of that residue in the "below" order (component, then row; within one
residue all such nodes have distinct (component, row) when q != 1).  A
removable node opens a bracket and an addable node closes the nearest open
one; the good node is the first removable node left open.  One walk per
descent step brackets every residue at once, one run of equal rows at a
time: a run has one addable node, at its top row, then one removable node,
at its bottom row.

Level one.  A group of one component needs no descent: its Kleshchev
partitions are the e-restricted ones, every part gap (the last row's
included) below e, and at e = 0 every partition (Ariki-Mathas, Math. Z.
233 (2000)).  The shift only relabels the residues, so it plays no part.
`kleshchev_verdicts` decides such groups by this rule, in time linear in
the rows and once per distinct part in a bulk call, and a witness path
replayed through single-label calls costs one rule check per step.

Groups of two or more components take the good-node descent, `_verdict`.
Each step records every good child's verdict in the group's memo and goes
on through the lowest good node (largest component, then row; see
`_verdict`), so a bulk call makes about one walk per sub-multipartition.

A bulk call makes one pass per class group, in first-seen order, over the
labels that the earlier groups found Kleshchev: a label's later groups
are never decided once one group fails, and each group's memo meets the
sub-labels in the order that deciding the labels one at a time, group
after group, would meet them, so the walks are the same ones.
"""

from itertools import compress

from ..params import class_groups


def _good_index(e, shifts, mp):
    """Residue key -> open removable (component, row) of `mp`, below order.
    Every component of `mp` has one class."""
    opened = {}
    for k, component in enumerate(mp):
        shift = shifts[k]
        rows = len(component)
        r = 0
        while True:
            row_len = component[r] if r < rows else 0
            # The addable node (r, row_len + 1) tops the run.
            key = shift + row_len - r
            if e:
                key %= e
            nodes = opened.get(key)
            if nodes:
                nodes.pop()
            if r == rows:
                break
            r += component.count(row_len)
            # The removable node (r - 1, row_len) ends the run.
            key = shift + row_len - r
            if e:
                key %= e
            opened.setdefault(key, []).append((k, r - 1))
    return opened


def good_node(e, classes, shifts, mp, residue):
    """The good node of the given residue, as (component, row, column)
    1-based, or None.  Requires e != 1."""
    cls, exp = residue
    group = class_groups(classes).get(cls)
    if group is None:
        return None
    sub = tuple(mp[k] for k in group)
    nodes = _good_index(e, tuple(shifts[k] for k in group), sub).get(exp % e if e else exp)
    if not nodes:
        return None
    j, r = nodes[0]
    return (group[j] + 1, r + 1, sub[j][r])


def _remove(mp, k, r):
    """`mp` without the last node of row r of component k."""
    rows = mp[k]
    new_len = rows[r] - 1
    rows = rows[:r] + ((new_len,) if new_len else ()) + rows[r + 1:]
    return mp[:k] + (rows,) + mp[k + 1:]


def _verdict(e, shifts, mp, memo):
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
        for nodes in _good_index(e, shifts, mp).values():
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


def _restricted(e, part):
    """Level-one verdict: every part gap, the last row's included, is below
    e; every partition at e = 0."""
    return not e or all(a - b < e for a, b in zip(part, part[1:] + (0,)))


def kleshchev_verdicts(e, classes, shifts, mps):
    """Kleshchev verdict for each multipartition: the AND of its class
    groups' verdicts, one pass per group over the labels still Kleshchev.
    A group of one component reads the level-one rule once per distinct
    part; a larger group descends on a memo miss, in one memo table
    confined to this call, so concurrent callers never share state.
    Requires e != 1."""
    verdicts = [True] * len(mps)
    for group in class_groups(classes).values():
        # The labels still Kleshchev; `compress` reads each flag just
        # before its label is decided.
        alive = compress(range(len(mps)), verdicts)
        if len(group) == 1:
            if not e:
                continue  # every partition is Kleshchev at level one
            (k,) = group
            decided = {}
            for i in alive:
                part = mps[i][k]
                verdict = decided.get(part)
                if verdict is None:
                    verdict = decided[part] = _restricted(e, part)
                verdicts[i] = verdict
        else:
            group_shifts = tuple(shifts[k] for k in group)
            memo = {((),) * len(group): True}
            whole = len(group) == len(classes)
            for i in alive:
                sub = mps[i] if whole else tuple(mps[i][k] for k in group)
                verdict = memo.get(sub)
                if verdict is None:
                    verdict = _verdict(e, group_shifts, sub, memo)
                verdicts[i] = verdict
    return verdicts
