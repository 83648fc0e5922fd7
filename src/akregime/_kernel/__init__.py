"""Kleshchev kernel: `kleshchev_verdicts(e, classes, shifts, mps)` and
`good_node(e, classes, shifts, mp, residue)` on raw data.  `BACKEND` names
the implementation that runs."""

from . import pykernel

BACKEND = "python"

kleshchev_verdicts = pykernel.kleshchev_verdicts
good_node = pykernel.good_node
