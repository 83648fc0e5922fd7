import io
import random

import pytest

from akregime import cli
from akregime.blocks import (
    BadWitnessError,
    QOneBlocksError,
    block_partition,
    content,
    lambda_family,
)
from akregime.combinatorics import enumerate_multipartitions
from akregime.oracle import SweepGrid, _residue, grid_points
from akregime.params import ParamScheme, Residue
from akregime.simples import ariki_semisimple, simple_count

REGIME_M2 = ParamScheme(m=2, e=0, classes=(0, 0), shifts=(0, 1))
# u_2 = q^2 u_3 with u_1 generic: witness (i, j) = (3, 2) for n = 3.
REGIME_M3 = ParamScheme(m=3, e=0, classes=(0, 1, 1), shifts=(0, 2, 0))

M3_FAMILY = (
    ((), (1, 1, 1), ()),
    ((), (1, 1), (1,)),
    ((), (1,), (2,)),
    ((), (), (3,)),
)


def test_content_examples():
    assert content(REGIME_M2, ((), ())) == ()
    assert content(REGIME_M2, ((1, 1), ())) == (Residue(0, -1), Residue(0, 0))


def test_content_of_family_is_a_residue_segment():
    for a, member in enumerate(M3_FAMILY):
        assert content(REGIME_M3, member) == (Residue(1, 0), Residue(1, 1), Residue(1, 2))


def test_content_rejects_q_one():
    with pytest.raises(QOneBlocksError):
        content(ParamScheme(m=1, e=1, classes=(0,), shifts=(0,)), ((1,),))


def test_block_partition_m2():
    partition = block_partition(REGIME_M2, 2)
    assert partition.blocks == (
        (((2,), ()), ((1,), (1,)), ((), (1, 1))),
        (((1, 1), ()),),
        (((), (2,)),),
    )
    assert partition.exceptional_index == 0


def test_block_partition_m3_exceptional_block():
    partition = block_partition(REGIME_M3, 3)
    assert len(partition.blocks) == 19  # |Irrep(W)| - n = 22 - 3
    exceptional = partition.blocks[partition.exceptional_index]
    assert set(exceptional) == set(M3_FAMILY)
    for idx, block in enumerate(partition.blocks):
        if idx != partition.exceptional_index:
            assert len(block) == 1


def test_semisimple_blocks_are_singletons():
    scheme = ParamScheme(m=2, e=0, classes=(0, 1), shifts=(0, 0))
    for n in (1, 2, 3, 4):
        assert ariki_semisimple(scheme, n)
        partition = block_partition(scheme, n)
        assert all(len(block) == 1 for block in partition.blocks)
        assert partition.exceptional_index is None


def test_block_partition_rejects_q_one():
    with pytest.raises(QOneBlocksError):
        block_partition(ParamScheme(m=2, e=1, classes=(0, 0), shifts=(0, 0)), 2)


def test_lambda_family_m3_display():
    assert lambda_family(REGIME_M3, 3, (3, 2)) == M3_FAMILY


def test_lambda_family_m2():
    assert lambda_family(REGIME_M2, 2, (1, 2)) == (
        ((), (1, 1)),
        ((1,), (1,)),
        ((2,), ()),
    )


def test_lambda_family_last_member_when_witness_ascending():
    # With the witness pair in ascending order the a = n member is the
    # unique non-simple label.
    _, non_simple = simple_count(REGIME_M2, 2)
    family = lambda_family(REGIME_M2, 2, (1, 2))
    assert family[-1] == non_simple[0]


def test_lambda_family_first_member_when_witness_descending():
    # With the witness pair in descending order it is the a = 0 member, the
    # column in the lower-indexed component.
    _, non_simple = simple_count(REGIME_M3, 3)
    family = lambda_family(REGIME_M3, 3, (3, 2))
    assert family[0] == non_simple[0]
    assert non_simple[0] == ((), (1, 1, 1), ())


def test_lambda_family_bad_witness():
    with pytest.raises(BadWitnessError):
        lambda_family(REGIME_M2, 2, (2, 1))
    with pytest.raises(BadWitnessError):
        lambda_family(REGIME_M2, 2, (1, 1))


def test_content_multiplicity_equals_size():
    for scheme in (REGIME_M2, REGIME_M3, ParamScheme(m=2, e=4, classes=(0, 1), shifts=(0, 3))):
        for n in (0, 1, 2, 3, 4):
            for mp in enumerate_multipartitions(scheme.m, n):
                entries = content(scheme, mp)
                assert len(entries) == n
                assert list(entries) == sorted(entries)


def test_blocks_union_is_full_enumeration():
    for scheme, n in [(REGIME_M2, 3), (REGIME_M3, 3), (REGIME_M3, 4)]:
        partition = block_partition(scheme, n)
        seen = [mp for block in partition.blocks for mp in block]
        assert sorted(seen) == sorted(enumerate_multipartitions(scheme.m, n))
        for block in partition.blocks:
            contents = {content(scheme, mp) for mp in block}
            assert len(contents) == 1


@pytest.fixture(scope="module")
def labelled_contents():
    """(scheme, n, [(label, content)]) at every default-grid point with
    e != 1, at seeded schemes with m = 2, 3 and n = 5, 6, and at points
    where some label has more nodes of one residue than a digit of
    block_partition's key one bit narrower holds (two at n = 3, one at
    n = 1), so a narrower digit would carry into the next residue's."""
    points = [(scheme, n) for _, n, scheme in grid_points(SweepGrid()) if scheme.e != 1]
    points += [
        (REGIME_M2, 1),
        (ParamScheme(m=4, e=4, classes=(0, 0, 0, 0), shifts=(0, 1, 2, 3)), 3),
    ]
    rng = random.Random(22)
    for m in (2, 3):
        for n in (5, 6):
            for _ in range(3):
                e = rng.choice([0, rng.randint(2, 2 * n + 1)])
                classes = tuple(rng.randint(0, 1) for _ in range(m))
                shifts = tuple(rng.randint(-n, n) for _ in range(m))
                points.append((ParamScheme(m=m, e=e, classes=classes, shifts=shifts), n))
    return [
        (scheme, n, [(mp, content(scheme, mp)) for mp in enumerate_multipartitions(scheme.m, n)])
        for scheme, n in points
    ]


def test_content_matches_a_node_by_node_rebuild(labelled_contents):
    # content() reads each part's residues; the rebuild takes every node's
    # residue on its own, from the oracle's first-principles helper.
    for scheme, _, labelled in labelled_contents:
        for mp, residues in labelled:
            nodes = [
                _residue(scheme, k, r, c)
                for k, part in enumerate(mp, start=1)
                for r, length in enumerate(part, start=1)
                for c in range(1, length + 1)
            ]
            assert residues == tuple(sorted(nodes)), (scheme, mp)


def test_block_partition_groups_the_enumeration_by_content(labelled_contents):
    # The same blocks, in the same order, as grouping the canonical
    # enumeration by content().
    for scheme, n, labelled in labelled_contents:
        groups = {}
        for mp, residues in labelled:
            groups.setdefault(residues, []).append(mp)
        assert block_partition(scheme, n).blocks == tuple(map(tuple, groups.values())), scheme


def test_blocks_text_is_the_per_label_text(labelled_contents):
    # The blocks verb writes each part's text once per call; the reference
    # writes every label anew with the unshared formatter.
    for scheme, n, _ in labelled_contents:
        partition = block_partition(scheme, n)
        exceptional = partition.exceptional_index
        head = (
            f"m={scheme.m}", f"n={n}", f"block_count={len(partition.blocks)}",
            f"exceptional_index={'none' if exceptional is None else exceptional}",
        )
        labels = [[cli.format_multipartition(mp) for mp in block] for block in partition.blocks]
        expected = {
            "machine": "\t".join(head) + "\n" + "".join(
                f"block={idx}\tsize={len(block)}\tmembers={'|'.join(block)}\n"
                for idx, block in enumerate(labels)
            ),
            "table": "".join(f"{pair.replace('=', ': ')}\n" for pair in head) + "".join(
                f"  block {idx} (size {len(block)}): {' '.join(block)}\n"
                for idx, block in enumerate(labels)
            ),
        }
        point = ["--m", str(scheme.m), "--n", str(n), "--scheme", scheme.describe()]
        for fmt, text in expected.items():
            out = io.StringIO()
            assert cli.run(["blocks", *point, "--format", fmt], out) == 0
            assert out.getvalue() == text, (scheme, n, fmt)
