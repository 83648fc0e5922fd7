"""Exact combinatorial engine for Ariki-Koike algebras at symbolic
parameters: simple-module counts, block partitions, almost-semisimple
regime detection, and the parameter-independent basic block algebra."""

from ._kernel import BACKEND as KERNEL_BACKEND
from .blocks import BlockPartition, block_partition, content, lambda_family
from .bn import BasicAlgebra, build_bn
from .combinatorics import (
    Multipartition,
    Node,
    Partition,
    addable_nodes,
    dim_irrep,
    enumerate_multipartitions,
    multipartition_count,
    removable_nodes,
)
from .params import (
    KappaInput,
    ParamScheme,
    Residue,
    derive_r,
    relation_exponents,
    residue_of,
    scheme_from_kappa,
)
from .simples import (
    KleshchevVerdict,
    ariki_semisimple,
    good_node,
    is_kleshchev,
    kleshchev_count,
    simple_count,
)
from .structure import (
    BlockStructure,
    RegimeReport,
    block_structure,
    classify_regime,
    hecke_dimension_audit,
    kz_dimensions,
)

__version__ = "0.1.0"

__all__ = [
    "BasicAlgebra",
    "BlockPartition",
    "BlockStructure",
    "KappaInput",
    "KERNEL_BACKEND",
    "KleshchevVerdict",
    "Multipartition",
    "Node",
    "ParamScheme",
    "Partition",
    "RegimeReport",
    "Residue",
    "addable_nodes",
    "ariki_semisimple",
    "block_partition",
    "block_structure",
    "build_bn",
    "classify_regime",
    "content",
    "derive_r",
    "dim_irrep",
    "enumerate_multipartitions",
    "good_node",
    "hecke_dimension_audit",
    "is_kleshchev",
    "kleshchev_count",
    "kz_dimensions",
    "lambda_family",
    "multipartition_count",
    "relation_exponents",
    "removable_nodes",
    "residue_of",
    "scheme_from_kappa",
    "simple_count",
]
