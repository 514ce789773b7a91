"""Fuzzed CLI calls, in-process through cli.run: every call exits 0 with an
empty stderr or 1 with one JSON diagnostic, and never escapes with a
traceback, a usage exit or a printed warning."""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from microcanon import cli, pbr


def run_captured(argv: list[str], out: io.StringIO | None = None) -> tuple[int, str]:
    """Exit code and stderr of one call; warnings count as stderr, since a
    command-line run would print them there.  stdout goes to `out` if given."""
    out, err = out if out is not None else io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.run(argv)
    return code, err.getvalue() + "".join(str(w.message) for w in caught)


def assert_clean_exit(code: int, stderr: str):
    assert code in (0, 1)
    if code == 0:
        assert stderr == ""
    else:
        assert set(json.loads(stderr)) == {"error", "message"}


NAMES = st.sampled_from(["A", "B", "G", "color", "x"])
NUMBERS = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0.5, 0.25, 1.0]),
                    st.just(float("nan")), st.booleans(), st.integers(-1, 2),
                    st.just(10 ** 400))
# a value of the wrong kind for whatever slot it lands in
WRONG = st.one_of(st.none(), st.booleans(), st.just(float("nan")), st.integers(-2, 2),
                  st.text(max_size=2), st.just({}), st.lists(st.none(), max_size=2))


def maybe_wrong(strategy):
    """strategy most of the time, a wrong-kind value one draw in eight."""
    return st.integers(0, 7).flatmap(lambda i: WRONG if i == 0 else strategy)


def lists_of(strategy, max_size=4):
    return maybe_wrong(st.lists(strategy, max_size=max_size))


MODEL_DOCS = st.fixed_dictionaries(
    {
        "lambda": lists_of(maybe_wrong(NAMES)),
        "preparations": lists_of(maybe_wrong(st.fixed_dictionaries(
            {"name": maybe_wrong(NAMES), "mu": lists_of(maybe_wrong(NUMBERS))})), max_size=3),
        # rows of independent lengths, so xi is often ragged
        "measurements": lists_of(maybe_wrong(st.fixed_dictionaries(
            {"name": maybe_wrong(NAMES), "outcomes": lists_of(maybe_wrong(NAMES)),
             "xi": lists_of(lists_of(maybe_wrong(NUMBERS)))})), max_size=2),
    },
    # born_targets may name preparations and measurements the model lacks
    optional={"born_targets": maybe_wrong(st.dictionaries(
        NAMES, maybe_wrong(st.dictionaries(NAMES, lists_of(maybe_wrong(NUMBERS)), max_size=2)),
        max_size=3))},
).flatmap(lambda doc: st.one_of(st.just(doc), WRONG))

ONTOLOGY_COMMANDS = st.one_of(
    st.sampled_from([["validate"], ["check"], ["classify"]]),
    st.tuples(NAMES, NAMES).map(lambda pair: ["overlap", "--pair", *pair]),
)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.json"


@given(doc=MODEL_DOCS, command=ONTOLOGY_COMMANDS, fmt=st.sampled_from(["csv", "json"]))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_model_documents_exit_cleanly(model_path, doc, command, fmt):
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    code, err = run_captured(["ontology", command[0], str(model_path), *command[1:],
                                 "--format", fmt])
    assert_clean_exit(code, err)


DELTAS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-320", "0.1", "1e6"]),
                   st.floats().map(repr))


@st.composite
def gas_argv(draw):
    command = draw(st.sampled_from(["enumerate", "argmax", "measure", "fit", "sample"]))
    n, m, eps0_units = draw(st.integers(-1, 18)), draw(st.integers(-1, 6)), draw(st.integers(-1, 3))
    # total energies around the feasible range, so most specs reach the work
    e = n * eps0_units + draw(st.integers(-1, max(n, 0) * max(m - 1, 0) + 1))
    argv = ["gas", command, "--n", str(n), "--m", str(m), "--e", str(e),
            f"--delta={draw(DELTAS)}", "--eps0-units", str(eps0_units),
            "--format", draw(st.sampled_from(["csv", "json"]))]
    if command == "sample":
        argv += ["--steps", str(draw(st.integers(-1, 30))), "--seed", str(draw(st.integers(-1, 3)))]
    return argv


@given(argv=gas_argv())
@settings(max_examples=150, deadline=None)
def test_gas_argv_exits_cleanly(argv):
    code, err = run_captured(argv)
    assert_clean_exit(code, err)


GRID_ITEMS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "-0.1", "1.5", "", " ", "0", "1",
                                        "1e-20", "0.25", "x"]),
                       st.floats(min_value=0.0, max_value=1.0).map(repr))
# every resolution up to 60 (the grid descent's cost grows as C(r + 3, 3)),
# and one past the cap
RESOLUTIONS = st.one_of(st.integers(-1, 60), st.just(pbr.MAX_GRID_RESOLUTION + 1))


@st.composite
def pbr_argv(draw):
    command = draw(st.sampled_from(["demo", "scan"]))
    # unsorted, repeated and empty items included
    items = draw(st.lists(GRID_ITEMS, max_size=4 if command == "demo" else 2))
    flag = "--q-grid" if command == "demo" else "--eps-grid"
    return ["pbr", command, flag + "=" + ",".join(items),
            "--method", draw(st.sampled_from(["lp", "grid"])),
            "--resolution", str(draw(RESOLUTIONS)),
            "--format", draw(st.sampled_from(["csv", "json"]))]


@given(argv=pbr_argv())
@settings(max_examples=100, deadline=None)
def test_pbr_argv_exits_cleanly(argv):
    code, err = run_captured(argv)
    assert_clean_exit(code, err)


SOLVE_NUMBERS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-320", "1",
                                           "1e308", "1000"]),
                          st.floats().map(repr))


@given(n=SOLVE_NUMBERS, t=SOLVE_NUMBERS, eps0=SOLVE_NUMBERS, k=SOLVE_NUMBERS,
       fmt=st.sampled_from(["csv", "json"]))
@example(n="5", t="1", eps0="0", k="1e308", fmt="csv")  # N * T overflows
@settings(max_examples=150, deadline=None)
def test_gas_solve_argv_exits_cleanly(n, t, eps0, k, fmt):
    out = io.StringIO()
    code, err = run_captured(["gas", "solve", f"--n={n}", f"--t={t}", f"--eps0={eps0}",
                              f"--k={k}", "--format", fmt], out)
    assert_clean_exit(code, err)
    if code == 0:
        text = out.getvalue()
        e1 = json.loads(text)["e1"] if fmt == "json" else float(text.split()[-1])
        assert math.isfinite(e1)
