"""Kleshchev kernel: `kleshchev_verdicts(e, classes, shifts, mps)` and
`good_node(e, classes, shifts, mp, residue)` on raw data.  Both split a
multipartition into the sub-multipartitions of its class groups (the
components that share a class label, from `params.class_groups`), whose
residues never meet, and work on each group apart.  The bulk call makes
one pass per group over the labels still Kleshchev, deciding a
one-component group's distinct parts once each by the level-one rule.
`BACKEND` names the implementation that runs."""

from . import pykernel

BACKEND = "python"

kleshchev_verdicts = pykernel.kleshchev_verdicts
good_node = pykernel.good_node
