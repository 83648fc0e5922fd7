"""A deterministic fuzz of the command line: every verb, drawn argv.

Each call must exit 0 or 1 within a few seconds, with no traceback and no
`internal:` error.  Valid points stay small (m <= 3, n <= 4; sweep grids
m <= 2, n <= 3), so a slow call means a cost that some input reaches
without being charged for it, such as a loop over every residue mod e at
e = 10^20.  Other drawn integers are huge or negative, past every budget.

The same draws, and a curated list of malformed command lines, must also
write the same status, stdout and stderr as when the top-level parser
reads the whole command line (`references.parse_through_top_level`).
"""

import contextlib
import io
import signal
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from akregime import cli
from akregime.cli import run

from references import parse_through_top_level

ALARM_SECONDS = 4

WILD = st.one_of(st.integers(-2, 0), st.integers(10**6, 10**30), st.integers(-(10**30), -3))
# integers(0, 10**20) mostly draws small values, so huge orders get a
# branch of their own.
ORDER = st.one_of(st.integers(-2, 9), st.integers(0, 10**20), st.integers(10**12, 10**20))
SHIFT = st.one_of(st.integers(-3, 9), st.integers(-(10**20), 10**20))
TEXT = st.text(alphabet="0123456789-+,;=/ .aekmnx", max_size=12)
POINT_VERBS = ("count-simples", "blocks", "classify", "block-structure", "audit")


def _sometimes(draw, tenths) -> bool:
    return draw(st.integers(0, 9)) < tenths


def _count(draw, high):
    """1..high, or in one draw of ten an integer that is not positive or
    past every budget."""
    return draw(WILD) if _sometimes(draw, 1) else draw(st.integers(1, high))


def _values(draw, size, values):
    return ",".join(str(draw(values)) for _ in range(size))


def _fields(draw, fields):
    """`k=v;...` from fields, with one field's value replaced by drawn text
    or one field dropped, in two draws of ten."""
    fields = dict(fields)
    if _sometimes(draw, 2):
        key = draw(st.sampled_from(sorted(fields)))
        if _sometimes(draw, 7):
            fields[key] = draw(TEXT)
        else:
            del fields[key]
    return ";".join(f"{key}={value}" for key, value in fields.items())


def _scheme(draw, m):
    size = m if 1 <= m <= 3 else draw(st.integers(1, 3))
    fields = {
        "e": draw(ORDER),
        "class": _values(draw, size, st.integers(-1, 2)),
        "shift": _values(draw, size, SHIFT),
    }
    return _fields(draw, fields)


def _kappa(draw):
    m, n = _count(draw, 3), _count(draw, 4)
    fraction = st.builds("{}/{}".format, st.integers(-5, 12), st.one_of(st.integers(-1, 12), ORDER))
    size = m - 1 if 1 <= m <= 3 else draw(st.integers(0, 2))
    fields = {"m": m, "n": n, "kappa00": draw(fraction), "kappa": _values(draw, size, fraction)}
    return _fields(draw, fields)


def _point_options(draw):
    m, n = _count(draw, 3), _count(draw, 4)
    given_as = draw(st.sampled_from(["scheme"] * 4 + ["kappa"] * 4 + ["both", "neither"]))
    options = []
    if given_as != "kappa" or draw(st.booleans()):
        options += ["--m", str(m), "--n", str(n)]
    if given_as in ("scheme", "both"):
        options += ["--scheme", _scheme(draw, m)]
    if given_as in ("kappa", "both"):
        options += ["--kappa", _kappa(draw)]
    return options


def _grid(draw):
    # Grid m and n values are small or refused at once: an admitted m = 1,
    # n = 34 sweeps for about a minute.
    fields = {
        "m": ",".join(str(_count(draw, 2)) for _ in range(draw(st.integers(1, 2)))),
        "n": ",".join(str(_count(draw, 3)) for _ in range(draw(st.integers(1, 2)))),
    }
    if draw(st.booleans()):
        fields["e"] = _values(draw, draw(st.integers(1, 3)), ORDER)
    return _fields(draw, fields)


@st.composite
def argv(draw):
    verb = draw(st.sampled_from(POINT_VERBS + ("sweep", "bn-algebra")))
    if verb == "sweep":
        options = ["--grid", _grid(draw)]
    elif verb == "bn-algebra":
        options = ["--n", str(_count(draw, 60))]
    else:
        options = _point_options(draw)
    return [verb, *options, "--format", draw(st.sampled_from(["table", "machine"]))]


class _Overran(BaseException):
    """Raised by the alarm; not an Exception, so `run` cannot report it."""


def _overran(signum, frame):
    raise _Overran


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    # Shrinking a hang would rerun it for seconds at a time.
    phases=[Phase.explicit, Phase.generate],
)
@given(argv())
def test_every_drawn_argv_exits_0_or_1_quickly(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.alarm(ALARM_SECONDS)
    try:
        with contextlib.redirect_stderr(err):
            status = run(argv, out)
    except _Overran:
        raise AssertionError(f"{argv} ran over {ALARM_SECONDS} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    text = err.getvalue()
    assert status in (0, 1), (argv, status, text)
    assert "Traceback" not in text and "internal:" not in text, (argv, text)


def _outcomes(argv):
    """(status, stdout, stderr) of `run(argv)` as it parses, then with the
    top-level parser reading the whole command line.  Help exits through
    SystemExit, whose code stands for the status."""
    seen = []
    for parse in (cli._parse, parse_through_top_level):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "_parse", parse):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = run(argv, out)
                except SystemExit as exc:
                    status = ("exit", exc.code)
        seen.append((status, out.getvalue(), err.getvalue()))
    return seen


POINT = ["--m", "2", "--n", "2", "--scheme", "e=0;class=0,0;shift=0,1"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["cla", *POINT],
        ["-h"],
        ["--format", "machine", "classify", *POINT],
        ["--n", "2", "bn-algebra"],
        ["classify", *POINT, "--form", "machine"],
        ["classify", *POINT, "--format=bogus"],
        ["classify", "--m=2", "--n=2", "--scheme=e=0;class=0,0;shift=0,1", "--format=machine"],
        ["classify", *POINT, "--m"],
        ["classify", "-h"],
        ["sweep", "--grid", "m=1;n=2", "--help"],
        ["classify", *POINT, "--grid", "m=2"],
        ["bn-algebra", "--n", "2", "extra", "--m", "1"],
        ["count-simples", *POINT, "--", "--format", "machine"],
        ["audit", *POINT, "--n", "3", "--format", "machine"],
    ],
    ids=[
        "no-verb", "unknown-verb", "verb-prefix", "help", "option-before-verb",
        "n-before-verb", "abbreviated-option", "bad-choice", "equals-forms", "missing-value",
        "help-after-verb", "help-after-options", "other-verbs-option", "leftover-positionals",
        "double-dash", "repeated-option",
    ],
)
def test_direct_verb_parsing_writes_the_top_level_bytes(argv):
    direct, top_level = _outcomes(argv)
    assert direct == top_level


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    phases=[Phase.explicit, Phase.generate],
)
@given(argv())
def test_every_drawn_argv_writes_the_top_level_bytes(argv):
    direct, top_level = _outcomes(argv)
    assert direct == top_level
