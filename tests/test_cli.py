"""Golden tests for the machine output format and the exit-code contract."""

import contextlib
import io
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import akregime
from akregime import cli
from akregime.cli import build_parser, format_matrix, format_multipartition, run
from akregime.combinatorics import multipartition_count

README = Path(__file__).resolve().parents[1] / "README.md"


def invoke(*argv):
    out = io.StringIO()
    status = run(list(argv), out)
    return status, out.getvalue()


def test_format_helpers():
    assert format_multipartition(((2,), ())) == "[(2),()]"
    assert format_multipartition(((1, 1), (1,))) == "[(1,1),(1)]"
    assert format_matrix(((1, 0), (1, 1))) == "1,0;1,1"


def test_classify_machine_golden():
    status, text = invoke(
        "classify", "--m", "2", "--n", "2",
        "--scheme", "e=0;class=0,0;shift=0,1", "--format", "machine",
    )
    assert status == 0
    assert text == (
        "kind=almost_semisimple\tsimple_count=4\tirrep_count=5"
        "\twitness=(1,2,+1)\tnon_kleshchev=[(2),()]\n"
    )


def test_classify_kappa_machine_golden():
    status, text = invoke("classify", "--kappa", "m=1;n=2;kappa00=1/2", "--format", "machine")
    assert status == 0
    assert text == (
        "kind=almost_semisimple\tsimple_count=1\tirrep_count=2"
        "\twitness=none\tnon_kleshchev=[(2)]\tr=1\tdim_L_chi=1\n"
    )


def test_count_simples_machine_golden():
    status, text = invoke(
        "count-simples", "--m", "2", "--n", "2",
        "--scheme", "e=0;class=0,0;shift=0,1", "--format", "machine",
    )
    assert status == 0
    assert text == (
        "m=2\tn=2\te=0\tsimple_count=4\tirrep_count=5\tnon_simple=[(2),()]\n"
    )


def test_blocks_machine_exceptional_block():
    status, text = invoke(
        "blocks", "--m", "3", "--n", "3",
        "--scheme", "e=0;class=0,1,1;shift=0,2,0", "--format", "machine",
    )
    assert status == 0
    lines = text.splitlines()
    assert "block_count=19" in lines[0]
    exceptional = [line for line in lines[1:] if "size=4" in line]
    assert len(exceptional) == 1
    members = exceptional[0].split("members=")[1]
    assert members == "[(),(1,1,1),()]|[(),(1,1),(1)]|[(),(1),(2)]|[(),(),(3)]"


def test_block_structure_machine_golden():
    status, text = invoke(
        "block-structure", "--m", "2", "--n", "2",
        "--scheme", "e=0;class=0,0;shift=0,1", "--format", "machine",
    )
    assert status == 0
    assert text == (
        "n=2\n"
        "specht_order=[(),(1,1)]|[(1),(1)]|[(2),()]\n"
        "simple_order=[(),(1,1)]|[(1),(1)]\n"
        "decomposition=1,0;1,1;0,1\n"
        "cartan=2,1;1,2\n"
        "hom_dims=2,1;1,2\n"
        "kz_dims=1,1\n"
        "pkz_multiplicities=1,1\n"
        "exterior_dims=1,2,1\n"
    )


def test_bn_algebra_machine():
    status, text = invoke("bn-algebra", "--n", "2", "--format", "machine")
    assert status == 0
    lines = text.splitlines()
    assert lines[0] == "n=2\tdim=6\tassociativity=pass"
    assert lines[1] == "basis=e_1,e_2,xi_1,xi_2,f_1_2,f_2_1"
    assert "f_2_1,f_1_2,xi_1" in lines
    assert "f_1_2,f_2_1,xi_2" in lines


def test_audit_machine():
    status, text = invoke(
        "audit", "--m", "3", "--n", "3",
        "--scheme", "e=0;class=0,1,1;shift=0,2,0", "--format", "machine",
    )
    assert status == 0
    assert text == "total=162\texpected=162\tmatch=true\n"


def test_sweep_machine_summary():
    status, text = invoke("sweep", "--grid", "m=2;n=2", "--format", "machine")
    assert status == 0
    last = text.splitlines()[-1]
    assert "disagreements=0" in last
    assert "prediction_mismatches=0" in last


def test_sweep_n1_matches_prediction():
    # At n = 1 the algebra is commutative: for m >= 2 one coincidence
    # u_i = u_j is the regime whatever q is, and m = 1 never is.
    status, text = invoke("sweep", "--grid", "m=1,2,3;n=1", "--format", "machine")
    assert status == 0
    last = text.splitlines()[-1]
    assert "disagreements=0" in last and "prediction_mismatches=0" in last
    assert "regime_points=46" in last


def test_sweep_deterministic():
    first = invoke("sweep", "--grid", "m=2;n=2;e=0,3,5", "--format", "machine")
    second = invoke("sweep", "--grid", "m=2;n=2;e=0,3,5", "--format", "machine")
    assert first == second


def test_q_one_blocks_exit_code():
    status, _ = invoke("blocks", "--m", "2", "--n", "2", "--scheme", "e=1;class=0,0;shift=0,0")
    assert status == 1


def test_parse_error_exit_code():
    status, _ = invoke("classify", "--m", "2", "--n", "2", "--scheme", "e=0;class=0;shift=0")
    assert status == 1


def test_missing_params_exit_code():
    status, _ = invoke("classify", "--m", "2", "--n", "2")
    assert status == 1


def test_scheme_and_kappa_conflict():
    status, _ = invoke(
        "classify", "--m", "1", "--n", "2",
        "--scheme", "e=2;class=0;shift=0", "--kappa", "m=1;n=2;kappa00=1/2",
    )
    assert status == 1


def test_kappa_m_mismatch_exit_code():
    status, _ = invoke("classify", "--m", "3", "--kappa", "m=1;n=2;kappa00=1/2")
    assert status == 1


@pytest.mark.parametrize(
    "grid,key",
    [
        ("m=2;q=zzz", "q"),
        ("m=0;n=2", "m"),
        ("m=1;n=-1", "n"),
        ("e=-1", "e"),
        ("m=2,2;n=2", "m"),
        ("m=1;n=2;e=0,3,0", "e"),
        ("m=1;m=2;n=2", "m"),
    ],
    ids=[
        "unknown-key", "m-zero", "n-negative", "e-negative",
        "m-repeated-value", "e-repeated-value", "m-duplicate-key",
    ],
)
def test_bad_grid_exit_code(grid, key, capsys):
    status, out = invoke("sweep", "--grid", grid)
    assert status == 1
    assert out == ""
    assert f"{key!r}" in capsys.readouterr().err


def _refuse_enumeration(monkeypatch):
    """Make enumerate_multipartitions raise in every loaded akregime module
    that binds it, so a module that imports it again is covered too."""

    def refuse(m, n):
        raise AssertionError(f"enumerated m={m}, n={n}")

    modules = [
        module
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "akregime" and hasattr(module, "enumerate_multipartitions")
    ]
    assert akregime.combinatorics in modules
    for module in modules:
        monkeypatch.setattr(module, "enumerate_multipartitions", refuse)


@pytest.mark.parametrize(
    "argv",
    [
        [verb, "--m", "3", "--n", "30", "--scheme", "e=0;class=0,0,0;shift=0,1,3"]
        for verb in ("count-simples", "classify", "blocks", "block-structure", "audit")
    ]
    + [
        ["classify", "--kappa", "m=3;n=30;kappa00=1/2;kappa=0,1/3"],
        ["sweep", "--grid", "m=1,3;n=2,30"],
    ],
    ids=lambda argv: argv[0] + ("-kappa" if "--kappa" in argv else ""),
)
def test_oversized_input_exits_1_before_enumerating(argv, capsys, monkeypatch):
    # m = 3, n = 30 has 16,790,136 labels; the count comes from the
    # generating function, so the refusal costs no enumeration.  classify
    # lists no label and is charged its formula's cost instead, which m = 3,
    # n = 30 is well under: it answers, again without enumerating.
    _refuse_enumeration(monkeypatch)
    started = time.perf_counter()
    status, out = invoke(*argv, "--format", "machine")
    assert time.perf_counter() - started < 0.5
    if argv[0] == "classify":
        simple_count = 62748 if "--kappa" in argv else 4718712
        assert (status, out) == (
            0,
            f"kind=other\tsimple_count={simple_count}\tirrep_count=16790136"
            "\twitness=none\tnon_kleshchev=none\n",
        )
        return
    assert (status, out) == (1, "")
    err = capsys.readouterr().err
    assert "error: over-budget: m=3, n=30 has more than 350000 labels (m-multipartitions" in err


@pytest.mark.parametrize(
    "m, n, admitted",
    [(1, 999, True), (1, 1000, False), (100, 140, True), (1413, 1, True), (1414, 1, False)],
)
def test_classify_budget_charges_the_formula_cost(m, n, admitted):
    # (m + 1) n^2 + m^2 against CLASSIFY_LIMIT: admitted at m = 1, n = 999
    # (1,996,003) and refused at n = 1000 (2,000,001).
    if admitted:
        cli._check_formula_budget(m, n)
    else:
        with pytest.raises(ValueError, match=f"over-budget: m={m}, n={n} costs classify"):
            cli._check_formula_budget(m, n)


@pytest.mark.parametrize(
    "argv",
    [
        ["--m", "1", "--n", "1000", "--scheme", "e=0;class=0;shift=0"],
        ["--kappa", "m=1414;n=1;kappa00=1/2;kappa=" + ",".join(["0"] * 1413)],
    ],
    ids=["scheme", "kappa"],
)
def test_classify_over_its_budget_exits_1(argv, capsys, monkeypatch):
    # The refusal comes before the scheme is built or classified.
    monkeypatch.setattr(cli, "scheme_from_kappa", None)
    monkeypatch.setattr(akregime.structure, "classify_regime", None)
    started = time.perf_counter()
    status, out = invoke("classify", *argv, "--format", "machine")
    assert time.perf_counter() - started < 0.5
    assert (status, out) == (1, "")
    err = capsys.readouterr().err
    assert "error: over-budget:" in err and "costs classify's formula more than 2000000" in err


@pytest.mark.parametrize(
    "scheme, line, kernel_calls",
    [
        (
            "e=0;class=0,0,0;shift=0,1,3",
            "kind=other\tsimple_count=126435\tirrep_count=341649\twitness=none\tnon_kleshchev=none",
            [],
        ),
        (
            "e=0;class=0,0,1;shift=0,19,0",
            "kind=almost_semisimple\tsimple_count=341648\tirrep_count=341649"
            "\twitness=(1,2,+19)\tnon_kleshchev=[(20),(),()]",
            [1],
        ),
    ],
    ids=["other", "regime"],
)
def test_classify_m3_n20_lists_no_label(scheme, line, kernel_calls, monkeypatch):
    # 341,649 labels.  classify counts them and the simple modules by
    # generating functions; the kernel sees at most the one forced label.
    _refuse_enumeration(monkeypatch)
    sizes = []
    verdicts = akregime._kernel.kleshchev_verdicts

    def kernel(e, classes, shifts, mps):
        sizes.append(len(mps))
        return verdicts(e, classes, shifts, mps)

    monkeypatch.setattr(akregime._kernel, "kleshchev_verdicts", kernel)
    started = time.perf_counter()
    argv = ["classify", "--m", "3", "--n", "20", "--scheme", scheme, "--format", "machine"]
    status, out = invoke(*argv)
    assert time.perf_counter() - started < 0.5
    assert (status, out, sizes) == (0, line + "\n", kernel_calls)


@pytest.mark.parametrize(
    "verb, lines",
    [
        (
            "audit",
            ["total=8483004771271882804592640000\texpected=8483004771271882804592640000\tmatch=true"],
        ),
        (
            "block-structure",
            [
                "n=20",
                "kz_dims=1,19,171,969,3876,11628,27132,50388,75582,92378,"
                "92378,75582,50388,27132,11628,3876,969,171,19,1",
            ],
        ),
    ],
    ids=["audit", "block-structure"],
)
def test_regime_verbs_m3_n20_list_no_label(verb, lines, monkeypatch):
    # The audit reads the 21 labels of the block; the other 341,628 labels
    # are |W| less the block's squared dimensions.
    _refuse_enumeration(monkeypatch)
    started = time.perf_counter()
    argv = ["--m", "3", "--n", "20", "--scheme", "e=0;class=0,0,1;shift=0,19,0"]
    status, out = invoke(verb, *argv, "--format", "machine")
    assert time.perf_counter() - started < 0.5
    assert status == 0
    assert set(lines) <= set(out.splitlines())


@pytest.mark.parametrize(
    "point, line",
    [
        (
            ["--m", "2", "--n", "4", "--scheme", "e=100000000000000000000;class=0,0;shift=0,3"],
            "kind=almost_semisimple\tsimple_count=19\tirrep_count=20"
            "\twitness=(1,2,+3)\tnon_kleshchev=[(4),()]",
        ),
        (
            ["--kappa", "m=2;n=4;kappa00=1/100000000000000000000;kappa=1/3"],
            "kind=semisimple\tsimple_count=20\tirrep_count=20\twitness=none\tnon_kleshchev=none",
        ),
    ],
    ids=["scheme", "kappa"],
)
def test_classify_answers_at_order_1e20(point, line):
    # Above e = n only the intervals within n - 1 below a shift count, so
    # the cost does not grow with e.  count-simples decides all 20 labels.
    started = time.perf_counter()
    status, out = invoke("classify", *point, "--format", "machine")
    assert time.perf_counter() - started < 1.0
    assert (status, out) == (0, line + "\n")
    simple_count = line.split("\t")[1]
    status, out = invoke("count-simples", *point, "--format", "machine")
    assert status == 0 and f"\t{simple_count}\t" in out


def test_label_limit_admits_m3_n20():
    # The limit is set from m = 3, n = 20 (341,649 labels): that point runs,
    # the next n does not.
    cli._check_budget(3, 20)
    with pytest.raises(ValueError, match="m=3, n=21 has more than 350000 labels"):
        cli._check_budget(3, 21)


def _scheme_text(classes, shifts):
    return "e=0;class={};shift={}".format(",".join(map(str, classes)), ",".join(map(str, shifts)))


@pytest.mark.parametrize("verb", ["count-simples", "blocks", "block-structure", "audit"])
def test_label_size_over_budget_exits_1_before_enumerating(verb, capsys, monkeypatch):
    # 321,200 labels, under LABEL_LIMIT, of 800 components each: 256,960,000
    # in all.  m = 3, n = 20 (1,024,947) and m = 1000, n = 1 (1,000,000) are
    # admitted, by the tests beside this one.
    _refuse_enumeration(monkeypatch)
    scheme = _scheme_text([0] * 800, range(800))
    started = time.perf_counter()
    status, out = invoke(verb, "--m", "800", "--n", "2", "--scheme", scheme, "--format", "machine")
    assert time.perf_counter() - started < 0.5
    assert (status, out) == (1, "")
    err = capsys.readouterr().err
    assert "error: over-budget: m=800, n=2 has more than 1050000 label components" in err


@pytest.mark.parametrize(
    "verb, line",
    [
        ("count-simples", "m=1000\tn=1\te=0\tsimple_count=999\tirrep_count=1000\tnon_simple=[(1)"),
        ("blocks", "m=1000\tn=1\tblock_count=999\texceptional_index=0\n"),
        ("audit", "total=1000\texpected=1000\tmatch=true\n"),
    ],
    ids=["count-simples", "blocks", "audit"],
)
def test_a_thousand_components_enumerate_without_recursion(verb, line):
    # m = 1000, n = 1 is a regime point (u_1 = u_2) of 1000 labels; the
    # compositions of n into m parts are listed in a loop, not by one
    # recursive call per component.
    scheme = _scheme_text([0] * 1000, [0, *range(999)])
    status, out = invoke(verb, "--m", "1000", "--n", "1", "--scheme", scheme, "--format", "machine")
    assert status == 0
    assert out.startswith(line)


def test_bn_algebra_over_limit_exits_1_before_building(capsys, monkeypatch):
    # The limit is n = 50; n = 51 must be refused without building B(51).
    built = []
    small = akregime.bn.build_bn(2)

    def build(n):
        built.append(n)
        return small

    monkeypatch.setattr(akregime.bn, "build_bn", build)
    started = time.perf_counter()
    status, out = invoke("bn-algebra", "--n", "51", "--format", "machine")
    assert time.perf_counter() - started < 1.0
    assert (status, out, built) == (1, "", [])
    assert "error: over-budget: n=51 is more than 50, the limit for B(n)" in capsys.readouterr().err
    status, _ = invoke("bn-algebra", "--n", "50")
    assert (status, built) == (0, [50])


@pytest.mark.parametrize(
    "text, points, label_points",
    [(None, 4151, 148_806), ("m=1,2;n=2,3", 136, 1036), ("m=1;n=34", 70, 861_700)],
)
def test_grid_budget_admits(text, points, label_points):
    # The budget counts; the points are listed here, and each is charged
    # its own label count.
    grid = cli._parse_grid(text) if text else akregime.oracle.SweepGrid()
    listed = [(m, n) for m, n, _ in akregime.oracle.grid_points(grid)]
    assert len(listed) == points
    assert sum(multipartition_count(m, n) for m, n in listed) == label_points
    cli._check_grid_budget(grid)


@pytest.mark.parametrize(
    "text, where",
    [
        ("m=3;n=20", "m=3, n=20"),  # about 4.9e10 label-points
        ("m=1;n=35", "m=1, n=35"),  # 1,071,576
        ("m=1,2;n=2,3,14", "m=2, n=14"),  # passes up to m = 2, n = 3
        ("m=350000;n=1", "m=350000, n=1"),  # 2^350000 - 1 shift tuples at e = 0
        # e^(m-1) would take seconds to raise: 26.6M bits
        ("m=2000;n=1;e=1" + "0" * 4000, "m=2000, n=1"),
    ],
    ids=["m3-n20", "m1-n35", "m2-n14", "m350000", "e-4001-digits"],
)
def test_grid_over_budget_exits_1_at_once(text, where, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(akregime.oracle, "grid_points", refuse)
    monkeypatch.setattr(akregime.oracle, "regime_locus", refuse)
    started = time.perf_counter()
    status, out = invoke("sweep", "--grid", text, "--format", "machine")
    assert time.perf_counter() - started < 0.5
    assert (status, out) == (1, "")
    err = capsys.readouterr().err
    assert err == (
        "error: over-budget: the grid's label-points (each point's labels, summed "
        f"over the grid) pass 1000000, the limit for one sweep, at {where}\n"
    )


def test_block_structure_outside_regime_exit_code():
    status, _ = invoke(
        "block-structure", "--m", "2", "--n", "2", "--scheme", "e=0;class=0,1;shift=0,0"
    )
    assert status == 1


def test_table_format_runs():
    status, text = invoke(
        "classify", "--m", "2", "--n", "2", "--scheme", "e=0;class=0,0;shift=0,1"
    )
    assert status == 0
    assert "kind: almost_semisimple" in text


README_M2 = ("--m", "2", "--n", "2", "--scheme", "e=0;class=0,0;shift=0,1")
README_M3 = ("--m", "3", "--n", "3", "--scheme", "e=0;class=0,1,1;shift=0,2,0")


@pytest.mark.parametrize(
    "argv, head",
    [
        (
            ("count-simples",) + README_M2,
            "m: 2\nn: 2\ne: 0\nsimple_count: 4\nirrep_count: 5\nnon_simple: [(2),()]\n",
        ),
        (
            ("classify",) + README_M2,
            "kind: almost_semisimple\nsimple_count: 4\nirrep_count: 5\n"
            "witness: (1,2,+1)\nnon_kleshchev: [(2),()]\n",
        ),
        (
            ("classify", "--kappa", "m=1;n=2;kappa00=1/2"),
            "kind: almost_semisimple\nsimple_count: 1\nirrep_count: 2\n"
            "witness: none\nnon_kleshchev: [(2)]\nr: 1\ndim_L_chi: 1\n",
        ),
        (
            ("block-structure",) + README_M2,
            "n: 2\n"
            "specht_order: [(),(1,1)]|[(1),(1)]|[(2),()]\n"
            "simple_order: [(),(1,1)]|[(1),(1)]\n"
            "decomposition: 1,0;1,1;0,1\n"
            "cartan: 2,1;1,2\n"
            "hom_dims: 2,1;1,2\n"
            "kz_dims: 1,1\n"
            "pkz_multiplicities: 1,1\n"
            "exterior_dims: 1,2,1\n",
        ),
        (("audit",) + README_M3, "total: 162\nexpected: 162\nmatch: true\n"),
        (
            ("bn-algebra", "--n", "2"),
            "n: 2\ndim: 6\nassociativity: pass\nbasis=e_1,e_2,xi_1,xi_2,f_1_2,f_2_1\n",
        ),
        (
            ("sweep", "--grid", "m=1,2;n=2,3"),
            "disagreements: 0\npoints: 136\nprediction_mismatches: 0\nregime_points: 19\n",
        ),
    ],
    ids=["count-simples", "classify", "classify-kappa", "block-structure", "audit", "bn-algebra", "sweep"],
)
def test_table_format_golden(argv, head):
    # Table records are `key: value` lines; only bn-algebra's product table
    # follows its header record.
    status, text = invoke(*argv, "--format", "table")
    assert status == 0
    assert text.startswith(head)
    assert text == head or argv[0] == "bn-algebra"


GOOD_CLASSIFY = (
    "classify", "--m", "2", "--n", "2",
    "--scheme", "e=0;class=0,0;shift=0,1", "--format", "machine",
)


def test_shared_parser_keeps_no_state():
    sequence = [
        GOOD_CLASSIFY,
        ("classify", "--m", "2", "--n", "2", "--scheme"),  # --scheme lacks its value
        ("classify", "--grid", "m=2"),  # --grid exists only on sweep
        ("sweep", "--grid", "m=0;n=2"),
        GOOD_CLASSIFY,
        ("bn-algebra", "--n", "3"),
    ]

    def outcomes(fresh):
        # Each step gets its own stderr, so usage written to the stream of
        # an earlier step shows as a difference.
        build_parser.cache_clear()
        seen = []
        for argv in sequence:
            if fresh:
                build_parser.cache_clear()
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                status, text = invoke(*argv)
            seen.append((status, text, err.getvalue()))
        return seen

    shared = outcomes(fresh=False)
    assert build_parser.cache_info().misses == 1
    assert shared == outcomes(fresh=True)
    assert [status for status, _, _ in shared] == [0, 1, 1, 1, 0, 0]
    assert shared[0] == shared[4]
    assert shared[1][2].startswith("usage: akregime classify")
    assert "unrecognized arguments: --grid m=2" in shared[2][2]
    assert "'m'" in shared[3][2]


@pytest.mark.parametrize(
    "argv",
    [
        ("bn-algebra", "--n", "2", "--m", "5"),
        ("bn-algebra", "--n", "2", "--kappa", "m=1;n=2;kappa00=1/2"),
        ("sweep", "--grid", "m=1;n=2", "--scheme", "x"),
        ("sweep", "--grid", "m=1;n=2", "--n", "2"),
    ],
    ids=["bn-m", "bn-kappa", "sweep-scheme", "sweep-n"],
)
def test_each_verb_takes_only_its_own_options(argv, capsys):
    status, out = invoke(*argv)
    assert status == 1
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("usage: akregime")
    assert f"unrecognized arguments: {argv[-2]}" in err


def test_closed_pipe_exits_quietly():
    # The read end is closed before the process starts, so the first write
    # to stdout fails every time.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(akregime.__file__).parents[1]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "akregime.cli", "bn-algebra", "--n", "3", "--format", "machine"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 1


def test_unexpected_exception_exits_2_on_one_line(monkeypatch, capsys):
    def broken(args, out):
        raise KeyError("lost")

    monkeypatch.setitem(cli._COMMANDS, "classify", broken)
    monkeypatch.setattr(sys, "argv", ["akregime", "classify", "--m", "1", "--n", "2"])
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err == "error: internal: KeyError: 'lost'\n"
    assert "Traceback" not in err


def _shows(shown, lines):
    """True iff `lines` reads as `shown`, where a `...` line stands for any
    run of lines, the empty one included."""
    if not shown:
        return not lines
    if shown[0] == "...":
        return any(_shows(shown[1:], lines[k:]) for k in range(len(lines) + 1))
    return bool(lines) and lines[0] == shown[0] and _shows(shown[1:], lines[1:])


def _run_readme_examples(fmt):
    """Run each `$ akregime ... --format <fmt>` example of the README
    through `cli.run`, require the lines it shows, and return the verbs
    run."""
    lines = README.read_text().splitlines()
    verbs = set()
    for pos, line in enumerate(lines):
        if not (line.startswith("$ akregime ") and f"--format {fmt}" in line):
            continue
        shown = []
        for follow in lines[pos + 1 :]:
            if not follow or follow.startswith(("$", "```")):
                break
            shown.append(follow)
        command, _, pipe = line[2:].partition(" | ")
        argv = shlex.split(command)[1:]
        status, text = invoke(*argv)
        assert status == 0, command
        output = text.splitlines()
        if pipe:
            assert pipe.startswith("head -"), pipe
            output = output[: int(pipe.removeprefix("head -"))]
        assert _shows(shown, output), command
        verbs.add(argv[0])
    return verbs


def test_readme_machine_examples_match_output():
    verbs = _run_readme_examples("machine")
    assert verbs == {"classify", "blocks", "block-structure", "bn-algebra", "audit"}


def test_readme_table_examples_match_output():
    assert _run_readme_examples("table") == {"sweep"}
