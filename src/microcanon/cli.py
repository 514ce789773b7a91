"""Command-line front end.

Thin adapters over the library: every value printed is the library result
formatted at 17 significant digits, CSV with '.' decimals and LF endings.
Exit codes: 0 success, 1 computation error (JSON diagnostic on stderr),
2 usage error.

The pbr module is imported by the pbr commands only.  Two calls load
numpy: `gas sample`, for the walk's random generator, and the pbr commands
with `--method grid`, for the grid descent.

JSON is written by _json_value, a small recursive encoder that gives the
bytes of json.dumps(obj, indent=2) for every document the commands build:
str-keyed dicts, lists and tuples, str, None, bools, ints and floats (NaN
and the infinities as json names them).  CPython's C encoder runs only
when indent is None, so json.dumps(indent=2) takes the pure-Python
encoder.  Binning tables are the exception: _write_binnings fills one row
template per table with the same bytes, CSV too (README, "Row costs").
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import sys

from . import continuum, ensemble, ontology
from .errors import MicrocanonError

_ROWS_PER_WRITE = 1000  # binning-table rows per write; at N = 20,000 about 7 MB of text


def _emit(args, chunks):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


_json_str = json.encoder.encode_basestring_ascii


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# exact type -> text, for the leaves; subclasses take the isinstance chain
_JSON_SCALARS = {str: _json_str, int: int.__repr__, float: _json_float,
                 bool: {True: "true", False: "false"}.__getitem__,
                 type(None): lambda _: "null"}


def _json_value(obj, pad: str) -> str:
    """obj as json.dumps(obj, indent=2) writes it; pad is the line break and
    indentation of the line obj starts on.  Dict keys must be str."""
    leaf = _JSON_SCALARS.get(type(obj))
    if leaf:
        return leaf(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        if all(type(x) is int for x in obj):
            items = map(int.__repr__, obj)
        else:
            items = [enc(x) if (enc := _JSON_SCALARS.get(type(x))) else _json_value(x, inner)
                     for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join([
            _json_str(k) + ": "
            + (enc(v) if (enc := _JSON_SCALARS.get(type(v))) else _json_value(v, inner))
            for k, v in obj.items()]) + pad + "}"
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, int):  # bool is an exact type above
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    return _json_value(obj, "\n") + "\n"


def _cell(value) -> str:
    """A CSV cell: a float at 17 significant digits, a sequence as compact
    JSON, anything else by str."""
    kind = type(value)
    if kind is float:
        return f"{value:.17g}"
    if kind is int or kind is str:
        return str(value)
    if kind is tuple and all(type(x) is int for x in value):
        return "[" + ", ".join(map(int.__repr__, value)) + "]"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (tuple, list)):
        return json.dumps(value)
    return str(value)


def _emit_records(args, columns: tuple[str, ...], rows, doc=None) -> int:
    """Write a command's table as CSV or JSON; binning tables take _emit_binnings.

    rows are value tuples in column order.  CSV is a header plus one line per
    row, every cell by the rule in _cell.  JSON is the rows as records keyed
    by column, or doc() where the command's JSON document differs from its
    CSV rows; doc is called only for JSON, so CSV never builds it.
    """
    if args.format == "json":
        text = _json_text(doc() if doc else [dict(zip(columns, row)) for row in rows])
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(map(_cell, row) for row in rows)
        text = buf.getvalue()
    _emit(args, [text])
    return 0


def _gas_spec(args) -> ensemble.GasSpec:
    return ensemble.GasSpec(n=args.n, m=args.m, e_units=args.e,
                            delta=args.delta, eps0_units=args.eps0_units)


@contextlib.contextmanager
def _unlimited_int_digits():
    """Exact Omega at large N has more digits than Python's default int-to-str limit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before Python 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit_binnings(args, states) -> int:
    """One row per state: omega, entropy (k = 1) and mu = omega over the
    sum of omega across the listed states, all from ensemble.multiplicities."""
    omegas, log_omegas = ensemble.multiplicities(states)
    total = sum(omegas)
    return _write_binnings(args, states, omegas, log_omegas, [omega / total for omega in omegas])


def _write_binnings(args, states, omegas, log_omegas, mus) -> int:
    """The bytes _emit_records would write for a binning table, from one
    %-format row template per table, _ROWS_PER_WRITE rows at a time.  JSON
    writes ln omega's repr twice; CSV quotes the binning from two bins on."""
    m = len(states[0])
    if args.format == "json":
        template = ('\n  {\n    "binning": [' + ",".join(["\n      %d"] * m) + '\n    ],\n'
                    '    "omega": %d,\n    "log_omega": %s,\n    "entropy": %s,\n    "mu": %r\n  }')
        head, joiner, tail = "[", ",", "\n]\n"
        rows = ((*s, omega, r, r, mu)
                for s, omega, r, mu in zip(states, omegas, map(repr, log_omegas), mus))
    else:
        binning = "[" + ", ".join(["%d"] * m) + "]"
        template = (f'"{binning}"' if m > 1 else binning) + ",%d,%.17g,%.17g\n"
        head, joiner, tail = "binning,omega,entropy,mu\n", "", ""
        rows = ((*s, omega, x, mu) for s, omega, x, mu in zip(states, omegas, log_omegas, mus))
    with _unlimited_int_digits():  # rows are formatted as they are written
        lines = itertools.chain([head, template % next(rows)],
                                map((joiner + template).__mod__, rows), [tail])
        _emit(args, iter(lambda: "".join(itertools.islice(lines, _ROWS_PER_WRITE)), ""))
    return 0


def cmd_gas_enumerate(args) -> int:
    states = ensemble.enumerate_binnings(_gas_spec(args), max_states=args.max_states)
    return _emit_binnings(args, states)


def cmd_gas_argmax(args) -> int:
    states = ensemble.most_probable_binnings(_gas_spec(args), max_states=args.max_states)
    return _emit_binnings(args, states)


def cmd_gas_fit(args) -> int:
    spec = _gas_spec(args)
    fit = ensemble.boltzmann_fit(spec)
    rows = [(i, spec.energy(i), p, fit.alpha, fit.beta) for i, p in enumerate(fit.predicted)]
    return _emit_records(args, ("bin", "eps", "predicted", "alpha", "beta"), rows, doc=lambda: {
        "alpha": fit.alpha, "beta": fit.beta, "predicted": fit.predicted})


def cmd_gas_solve(args) -> int:
    gas = continuum.ContinuumGas(n=args.n, t=args.k * args.t, eps0=args.eps0)
    e1 = continuum.solve_total_energy(gas)
    return _emit_records(args, ("e1",), [(e1,)], doc=lambda: {"e1": e1})


def cmd_gas_sample(args) -> int:
    spec = _gas_spec(args)
    counts = ensemble.sample_microstates(spec, steps=args.steps, seed=args.seed)
    rows = sorted(counts.items())
    return _emit_records(args, ("binning", "count"), rows,
                         doc=lambda: {_cell(n): count for n, count in rows})


def cmd_gas_measure(args) -> int:
    spec = _gas_spec(args)
    law = ensemble.tagged_law(spec, max_states=args.max_states)
    rows = [(name, spec.energy(i), float(p))
            for i, (name, p) in enumerate(zip(ontology.tagged_outcome_names(spec), law))]
    return _emit_records(args, ("outcome", "eps", "p"), rows)


def cmd_ontology_validate(args) -> int:
    model = ontology.load_model(args.model)
    report = ontology.validate(model)
    return _emit_records(args, ("where", "message", "magnitude"),
                         [(v.where, v.message, v.magnitude) for v in report],
                         doc=lambda: {"valid": not report,
                                      "violations": [v.__dict__ for v in report]})


def cmd_ontology_check(args) -> int:
    model = ontology.load_model(args.model)
    max_dev, table = ontology.born_deviation(model)
    return _emit_records(
        args, ("preparation", "measurement", "outcome", "target", "actual", "deviation"),
        [(e.preparation, e.measurement, e.outcome, e.target, e.actual, e.deviation)
         for e in table],
        doc=lambda: {"max_deviation": max_dev, "table": [e.__dict__ for e in table]})


def cmd_ontology_overlap(args) -> int:
    model = ontology.load_model(args.model)
    p1 = model.preparation(args.pair[0])
    p2 = model.preparation(args.pair[1])
    report = ontology.overlap_classify(p1, p2, model.lam)
    return _emit_records(
        args, ("class", "omega", "common_support"),
        [(report.classification, report.overlap_mass, " ".join(report.common_support_labels))],
        doc=lambda: {"class": report.classification, "omega": report.overlap_mass,
                     "common_support": report.common_support_labels})


def cmd_ontology_classify(args) -> int:
    model = ontology.load_model(args.model)
    info = ontology.information_class(model)
    return _emit_records(args, ("lambda", "preparations", "verdict"),
                         [(label, " ".join(owners), info.verdict)
                          for label, owners in info.per_lambda.items()],
                         doc=lambda: {"verdict": info.verdict, "per_lambda": info.per_lambda})


def _parse_grid(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def cmd_pbr_demo(args) -> int:
    from . import pbr
    rows = [(q, pbr.min_forbidden_probability(q, resolution=args.resolution, method=args.method))
            for q in _parse_grid(args.q_grid)]
    return _emit_records(args, ("q", "min_forbidden_prob"), rows)


def cmd_pbr_scan(args) -> int:
    from . import pbr
    curve = pbr.epsilon_overlap_tradeoff(_parse_grid(args.eps_grid),
                                         resolution=args.resolution, method=args.method)
    return _emit_records(args, ("eps", "q_max"), curve)


def cmd_pbr_cat(args) -> int:
    # a model document, so JSON only: there is no table to print
    from . import pbr
    fixture = pbr.cat_fixture(complex(args.a), complex(args.b))
    _emit(args, [_json_text(ontology.model_to_dict(fixture.model))])
    return 0


def _add_common(p: argparse.ArgumentParser, default_format: str = "csv",
                formats: tuple[str, ...] = ("csv", "json")):
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=formats, default=default_format)


def _add_spec_flags(p: argparse.ArgumentParser, state_cap: bool = False):
    p.add_argument("--n", type=int, required=True, help="particle count")
    p.add_argument("--m", type=int, required=True, help="number of energy bins")
    p.add_argument("--e", type=int, required=True, help="total energy in lattice units")
    p.add_argument("--delta", type=float, default=1.0, help="energy per lattice unit")
    p.add_argument("--eps0-units", type=int, default=0, dest="eps0_units",
                   help="ground-state offset in lattice units")
    if state_cap:  # only the commands that enumerate binnings read it
        p.add_argument("--max-states", type=int, default=ensemble.DEFAULT_STATE_CAP,
                       dest="max_states")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="microcanon")
    sub = top.add_subparsers(dest="group", required=True)

    gas = sub.add_parser("gas", help="lattice-gas statistics")
    gas_sub = gas.add_subparsers(dest="command", required=True)

    p = gas_sub.add_parser("enumerate", help="all binning states with omega/entropy/mu")
    _add_spec_flags(p, state_cap=True); _add_common(p); p.set_defaults(func=cmd_gas_enumerate)

    p = gas_sub.add_parser("argmax", help="most probable binning states")
    _add_spec_flags(p, state_cap=True); _add_common(p); p.set_defaults(func=cmd_gas_argmax)

    p = gas_sub.add_parser("fit", help="Lagrange-multiplier occupancy fit")
    _add_spec_flags(p); _add_common(p); p.set_defaults(func=cmd_gas_fit)

    p = gas_sub.add_parser("solve", help="total energy from temperature")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--t", type=float, required=True, help="temperature (k = 1 units)")
    p.add_argument("--eps0", type=float, default=0.0)
    p.add_argument("--k", type=float, default=1.0,
                   help="Boltzmann-constant scale applied to --t at the boundary")
    _add_common(p); p.set_defaults(func=cmd_gas_solve)

    p = gas_sub.add_parser("sample", help="microstate random walk visit counts")
    _add_spec_flags(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p, default_format="json"); p.set_defaults(func=cmd_gas_sample)

    p = gas_sub.add_parser("measure", help="tagged-particle energy distribution")
    _add_spec_flags(p, state_cap=True); _add_common(p); p.set_defaults(func=cmd_gas_measure)

    ont = sub.add_parser("ontology", help="finite ontological models")
    ont_sub = ont.add_subparsers(dest="command", required=True)

    p = ont_sub.add_parser("validate", help="report violated model invariants")
    p.add_argument("model"); _add_common(p, default_format="json")
    p.set_defaults(func=cmd_ontology_validate)

    p = ont_sub.add_parser("check", help="deviation from Born targets")
    p.add_argument("model"); _add_common(p, default_format="json")
    p.set_defaults(func=cmd_ontology_check)

    p = ont_sub.add_parser("overlap", help="overlap class and mass of two preparations")
    p.add_argument("model")
    p.add_argument("--pair", nargs=2, required=True, metavar=("PREP1", "PREP2"))
    _add_common(p); p.set_defaults(func=cmd_ontology_overlap)

    p = ont_sub.add_parser("classify", help="minimal/non-minimal information verdict")
    p.add_argument("model"); _add_common(p, default_format="json")
    p.set_defaults(func=cmd_ontology_classify)

    pbr_p = sub.add_parser("pbr", help="overlap no-go checks")
    pbr_sub = pbr_p.add_subparsers(dest="command", required=True)

    p = pbr_sub.add_parser("demo", help="min forbidden probability over an overlap grid")
    p.add_argument("--q-grid", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
                   dest="q_grid")
    p.add_argument("--resolution", type=int, default=50)
    p.add_argument("--method", choices=["lp", "grid"], default="lp")
    _add_common(p); p.set_defaults(func=cmd_pbr_demo)

    p = pbr_sub.add_parser("scan", help="precision-versus-overlap tradeoff curve")
    p.add_argument("--eps-grid", required=True, dest="eps_grid",
                   help="comma-separated ascending tolerances in [0, 1]")
    p.add_argument("--resolution", type=int, default=50)
    p.add_argument("--method", choices=["lp", "grid"], default="lp")
    _add_common(p); p.set_defaults(func=cmd_pbr_scan)

    p = pbr_sub.add_parser("cat", help="disjoint-support cat/atom model as JSON")
    p.add_argument("--a", required=True, help="alive amplitude, e.g. 0.6 or 0.6+0j")
    p.add_argument("--b", required=True, help="dead amplitude")
    _add_common(p, default_format="json", formats=("json",)); p.set_defaults(func=cmd_pbr_cat)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first run(), not at import, so the handlers it binds are
    # whatever cmd_* attributes the module holds at that point.
    return build_parser()


def run(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (MicrocanonError, KeyError, ValueError, OSError) as exc:
        sys.stderr.write(_json_text({"error": type(exc).__name__, "message": str(exc)}))
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
