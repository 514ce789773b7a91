"""The shared bracketed bisection."""

import math

import pytest

from microcanon import continuum, ensemble, pbr, roots
from microcanon.errors import NoConvergence


def test_brackets_sqrt2_to_the_given_width():
    lo, hi = roots.bisect(lambda x: x * x < 2, 1.0, 2.0, lambda lo, hi: hi - lo <= 1e-12)
    assert hi - lo <= 1e-12
    assert lo * lo < 2 <= hi * hi
    assert lo <= math.sqrt(2) <= hi


def test_closed_bracket_is_returned_untouched():
    calls = []
    assert roots.bisect(calls.append, 0.0, 1.0, lambda lo, hi: True) == (0.0, 1.0)
    assert calls == []


def test_close_that_never_holds_stops_at_the_cap():
    # e.g. a zero width on a float bracket: the cap still ends the search
    calls = []
    with pytest.raises(NoConvergence) as err:
        roots.bisect(lambda x: calls.append(x) or False, 0.0, 1.0, lambda lo, hi: False)
    assert len(calls) == roots.MAX_STEPS == 200
    assert str(err.value) == f"bisection cap reached, bracket [0.0, {2.0 ** -200}]"


def test_every_root_solve_bisects_through_roots(monkeypatch):
    brackets = []
    real = roots.bisect
    monkeypatch.setattr(roots, "bisect", lambda *a: brackets.append(real(*a)) or brackets[-1])
    beta = ensemble.boltzmann_fit(ensemble.GasSpec(n=60, m=4, e_units=75)).beta
    e1 = continuum.solve_total_energy(continuum.ContinuumGas(n=1000.0, t=1.0))
    (_, q), = pbr.epsilon_overlap_tradeoff([0.01])
    (b_lo, b_hi), (e_lo, e_hi), (q_lo, q_hi) = brackets
    assert b_hi - b_lo <= ensemble.BETA_TOL and beta == 0.5 * (b_lo + b_hi)
    assert e_hi - e_lo <= continuum.E1_RTOL * e_hi and e1 == 0.5 * (e_lo + e_hi)
    assert q_hi - q_lo <= pbr.SEARCH_TOL and q == q_lo
