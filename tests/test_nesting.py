from __future__ import annotations

import json
from fractions import Fraction

import pytest

from inducibility import catalog, nesting, profiles
from inducibility.catalog import catalog_rows, run_row
from inducibility.cli import run_command
from inducibility.graphs import blow_up, build_named, compose, from_edges, tensor
from inducibility.models import from_graph
from inducibility.nesting import (
    DegenerateStationaryError,
    TransitionMatrix,
    compose_profile,
    iterate_profile,
    nested_spectral,
    stationary_profile,
    transition_matrix,
)
from inducibility.profiles import (
    BudgetError,
    LabeledProfile,
    induced_from_repetitive,
    induced_profile,
    iso_table,
    labeled_repetitive,
    labeled_repetitive_profile,
)


def _labeled(G, t):
    return labeled_repetitive_profile(from_graph(G), t)


def test_compose_profile_matches_composed_graph():
    cases = [
        (build_named("K", [2]), build_named("A", [2]), 2),
        (build_named("C", [5]), build_named("K", [2]), 3),
        (build_named("K4"), build_named("P4"), 4),
    ]
    for outer, inner, t in cases:
        predicted = compose_profile(outer, _labeled(inner, t))
        actual = _labeled(compose(outer, inner), t)
        assert predicted.values == actual.values


def test_compose_profile_two_vertex_hand_value():
    # outer edge, empty inner: both samples share a part half the time
    out = compose_profile(build_named("K", [2]), _labeled(build_named("A", [2]), 2))
    assert out.values == (Fraction(1, 2), Fraction(1, 2))
    # composing the edge over its own finite profile drifts toward all-edges
    step = compose_profile(build_named("K", [2]), _labeled(build_named("K", [2]), 2))
    assert step.values == (Fraction(1, 4), Fraction(3, 4))


def test_compose_profile_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compose_profile(from_edges(2, loops=[0]), _labeled(build_named("K", [2]), 2))
    from inducibility.profiles import induced_profile

    ordered_p = induced_profile(build_named("C", [5]), 3).as_labeled()
    with pytest.raises(ValueError):
        compose_profile(build_named("K", [2]), ordered_p)


def test_iterate_profile_levels():
    G = build_named("C", [5])
    assert iterate_profile(G, 3, 1).values == _labeled(G, 3).values
    two = iterate_profile(G, 3, 2)
    assert two.values == _labeled(compose(G, G), 3).values
    with pytest.raises(ValueError):
        iterate_profile(G, 3, 0)


def test_transition_matrix_of_an_edge():
    F = transition_matrix(build_named("K", [2]), 2)
    names = iso_table(2).type_names()
    assert names == ("K2", "A2")
    assert F.rows == ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(1, 2)))
    assert F.entry(0, 1) == Fraction(1, 2)


def test_transition_matrix_columns_are_stochastic():
    for base, t in [(build_named("C", [5]), 3), (build_named("K4"), 4)]:
        F = transition_matrix(base, t)
        size = len(iso_table(t).entries)
        for j in range(size):
            assert sum(F.rows[i][j] for i in range(size)) == 1
    with pytest.raises(ValueError):
        TransitionMatrix(t=2, numerators=((Fraction(1), Fraction(1)),) * 2)
    with pytest.raises(ValueError):
        TransitionMatrix(t=2, numerators=((0, 0),) * 2, denominator=0)


def test_transition_matrix_checks_and_reduces_its_input():
    # signs and the denominator are checked, not only the column sums
    refused = "entries must be nonnegative over a denominator of at least 1"
    for numerators, denominator in ((((2, -1), (-1, 2)), 1), (((1, 0), (0, 1)), 0), (((1, 0), (0, 1)), -1)):
        with pytest.raises(ValueError, match=refused):
            TransitionMatrix(2, numerators, denominator)
    # the pair is reduced once, so the Fraction rows give the computed matrix
    F = transition_matrix(build_named("C", [5]), 2)
    by_rows = TransitionMatrix(2, F.rows)
    assert by_rows == F and hash(by_rows) == hash(F)
    assert (by_rows.numerators, by_rows.denominator) == (((3, 2), (2, 3)), 5)
    assert type(by_rows.denominator) is int and all(type(x) is int for row in by_rows.numerators for x in row)
    assert TransitionMatrix(2, ((6, 4), (4, 6)), 10) == F


def test_apply_preserves_the_simplex():
    F = transition_matrix(build_named("C", [5]), 3)
    size = len(F.rows)
    vec = tuple(Fraction(1, size) for _ in range(size))
    for _ in range(3):
        vec = F.apply(vec)
        assert sum(vec) == 1
        assert all(v >= 0 for v in vec)


def test_stationary_profile_of_an_edge_and_a_cycle():
    q_edge = stationary_profile(build_named("K", [2]), 2)
    assert q_edge.entry("K2") == 1 and q_edge.entry("A2") == 0
    q_cycle = stationary_profile(build_named("C", [5]), 2)
    assert q_cycle.entry("K2") == Fraction(1, 2)


def test_stationary_profile_is_a_fixed_point():
    G = tensor(build_named("K", [3]), build_named("K", [3]))
    nested = stationary_profile(G, 4)
    values = nested.profile.values
    assert nested.matrix.apply(values) == values
    assert sum(values) == 1


def test_iterates_converge_to_the_stationary_profile():
    G = tensor(build_named("K", [3]), build_named("K", [3]))
    target = stationary_profile(G, 4).profile.as_labeled().values
    dists = []
    for n in range(1, 7):
        vals = iterate_profile(G, 4, n).values
        dists.append(sum(abs(a - b) for a, b in zip(vals, target)))
    assert all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))
    assert dists[-1] < Fraction(1, 100)


def test_single_vertex_base_is_degenerate():
    with pytest.raises(DegenerateStationaryError):
        stationary_profile(build_named("K", [1]), 2)


def test_nested_spectral_values():
    spectrum = nested_spectral(build_named("C", [5]), 2)
    assert spectrum.values[0] == 1
    assert spectrum.entry("K2") == 0
    q_hat = nested_spectral(tensor(build_named("K", [3]), build_named("K", [3])), 4)
    assert q_hat.entry("K4") == Fraction(18, 91)
    assert q_hat.entry("C4") == Fraction(9, 91)
    assert q_hat.entry("M4") == 0 and q_hat.entry("Q4") == 0 and q_hat.entry("V4") == 0


_BUILT_BASES = (
    ["nested-profile", "--t", "5", "C5"],
    ["nested-profile", "--t", "4", "paley(17)"],
    ["limit", "--t", "4", "--quantum", "P4", "--nested", "C5"],
)


def test_built_bases_enter_as_ordered_counts(capsys, monkeypatch):
    # a built nested base is counted once: with its lift into a profile and
    # the read-back refused, the commands print what they printed before,
    # and the catalog's nested rows over built graphs still pass
    def run(argv):
        transition_matrix.cache_clear()  # a cached matrix would hide the route
        code = run_command(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    before = [run(argv) for argv in _BUILT_BASES]

    def refuse(*args, **kwargs):
        raise AssertionError("a built base was lifted or read back")

    monkeypatch.setattr(nesting, "ordered_from_repetitive", refuse)
    monkeypatch.setattr(catalog, "_profile", refuse)
    after = [run(argv) for argv in _BUILT_BASES]
    assert after == before
    assert all(code == 0 for code, _, _ in after)
    value = json.loads(after[2][1])["values"][0]
    assert (value["num"], value["den"]) == ("6", "31")
    rows = {row.row_id: row for row in catalog_rows("headline") + catalog_rows("appendix5")}
    for row_id in ("headline-05", "headline-06", "headline-07", "appendix5-14"):
        transition_matrix.cache_clear()
        assert run_row(rows[row_id]).passed, row_id


def test_a_profile_of_no_graph_is_refused():
    # read back as a 6-vertex graph's, C5's profile would give an edge
    # N_2 = 72/5; as a 10-vertex graph's it is the profile of blow_up(C5, 2).
    # A float profile is not read back: floored, the float copy of
    # paley(13)'s read back N_1 = 12.0 and a count of -1.0, and its induced
    # profile had a -1.3e-17 entry
    C5 = build_named("C", [5])
    lab = labeled_repetitive(C5, 3)
    paley = labeled_repetitive(build_named("paley", [13]), 4)
    floats = LabeledProfile(t=4, flavor="r", numerators=tuple(float(v) for v in paley.values))
    for s, bad, message in (
        (6, lab, "^not the repetitive profile of a loopless 6-vertex graph$"),
        (13, floats, "^ordered counts are read back from exact profiles only$"),
    ):
        for call in (
            lambda: induced_from_repetitive(bad, s),
            lambda: transition_matrix((s, bad), bad.t),
            lambda: stationary_profile((s, bad), bad.t),
            lambda: compose_profile((s, bad), bad),
        ):
            with pytest.raises(ValueError, match=message):
                call()
    induced = induced_from_repetitive(lab, 10)
    assert induced == induced_profile(blow_up(C5, 2), 3)
    assert induced.values == (0, Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))


def test_graph_bases_check_the_order_then_loops_then_the_budget(monkeypatch):
    monkeypatch.setattr(profiles, "DEFAULT_BUDGET", 5)
    C5 = build_named("C", [5])
    transition_matrix.cache_clear()  # a cached matrix is not charged again
    with pytest.raises(BudgetError, match="^10 subsets exceed the budget of 5$"):
        transition_matrix(C5, 3)
    # a budget above the default reaches the charge, and stationary_profile
    # passes it through one call of the public transition_matrix
    assert transition_matrix(C5, 3, budget=100).t == 3
    calls = []

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return transition_matrix(*args, **kwargs)

    monkeypatch.setattr(nesting, "transition_matrix", recorder)
    assert stationary_profile(C5, 3, budget=100).entry("K3") == Fraction(1, 8)
    assert calls == [((C5, 3, 100), {})]
    with pytest.raises(ValueError, match="^profile order must be in 2..5$"):
        stationary_profile(C5, 9, budget=1)
    with pytest.raises(ValueError, match="^composition is defined over loopless outer graphs$"):
        stationary_profile(build_named("loopK", [3]), 3, budget=1)


def test_a_cached_transition_matrix_is_charged_again(monkeypatch):
    # a graph is charged before the cached lookup, so a lower budget refuses
    # a matrix that a cold call would have refused too
    C5 = build_named("C", [5])
    F = transition_matrix(C5, 3)
    assert transition_matrix(C5, 3) is F
    monkeypatch.setattr(profiles, "DEFAULT_BUDGET", 5)
    with pytest.raises(BudgetError, match="^10 subsets exceed the budget of 5$"):
        transition_matrix(C5, 3)


def test_a_profile_pair_has_an_int_n_of_at_least_one_and_the_order_asked_for(monkeypatch):
    # refused at the intake, before the cache and before any count is read
    # back; unchecked, (5, lab3) at t = 4 and (-5, lab3) failed with
    # "columns must sum to one", (0, lab3) divided by zero, and (True, K1's
    # profile) answered
    def refuse(*args, **kwargs):
        raise AssertionError("counts were read back")

    C5, K1 = build_named("C", [5]), build_named("K", [1])
    lab3 = labeled_repetitive(C5, 3)
    monkeypatch.setattr(nesting, "ordered_from_repetitive", refuse)
    transition_matrix.cache_clear()
    n_message = r"^the n of an \(n, LabeledProfile\) base must be an int of at least 1$"
    for base, t, message in (
        ((5, lab3), 4, r"^the profile of an \(n, LabeledProfile\) base must have order 4$"),
        ((-5, lab3), 3, n_message),
        ((0, lab3), 3, n_message),
        ((True, labeled_repetitive(K1, 3)), 3, n_message),
    ):
        inner = labeled_repetitive(C5, t)
        for call in (
            lambda: compose_profile(base, inner),
            lambda: transition_matrix(base, t),
            lambda: stationary_profile(base, t),
            lambda: nested_spectral(base, t),
        ):
            with pytest.raises(ValueError, match=message):
                call()


def test_a_base_is_a_loopless_graph_or_a_profile_pair(monkeypatch):
    # taken as a base, a pair (n, graph) would skip the loop check, the order
    # check and the charge: (400, K400) would count C(400, 3) subsets under a
    # budget of 10, and (3, loopK3) would answer K3's profile.  No base other
    # than the two forms reaches a count
    def refuse(*args, **kwargs):
        raise AssertionError("patterns were counted")

    C5 = build_named("C", [5])
    inner = labeled_repetitive(C5, 3)
    monkeypatch.setattr(profiles, "_decorated_subset_counts", refuse)
    transition_matrix.cache_clear()
    message = r"^a nesting base is a loopless LabeledGraph or an \(n, LabeledProfile\) pair$"
    for base, budget in (
        ((3, build_named("loopK", [3])), None),
        ((400, build_named("K", [400])), 10),
        (from_graph(C5), None),
        ("C5", None),
    ):
        for call in (
            lambda: compose_profile(base, inner),
            lambda: transition_matrix(base, 3, budget=budget),
            lambda: stationary_profile(base, 3, budget=budget),
            lambda: nested_spectral(base, 3, budget=budget),
        ):
            with pytest.raises(TypeError, match=message):
                call()
