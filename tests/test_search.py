import time
from itertools import combinations, permutations, product

import pytest

from deontic import (
    FrameProperty, RemainderError, SearchBounds, SearchError, SearchTimeout, check_property,
    compute_remainder, evaluate, find_countermodel, parse, render,
    rule_valid_on_frame, truth_set, validate_model,
)
from deontic.systems import SCHEMAS


class TestBounds:
    def test_world_cap(self):
        with pytest.raises(ValueError, match="max_worlds"):
            SearchBounds(6, 2, ("a",))
        with pytest.raises(ValueError, match="max_worlds"):
            SearchBounds(0, 2, ("a",))

    def test_negative_sets(self):
        with pytest.raises(ValueError, match="max_sets"):
            SearchBounds(2, -1, ("a",))

    def test_atomless_bounds_reject_atomful_target(self):
        with pytest.raises(ValueError, match="atoms"):
            find_countermodel(parse("p -> q"), set(), SearchBounds(2, 1, ()))

    def test_schema_needs_enough_atoms(self):
        with pytest.raises(ValueError, match="atoms"):
            find_countermodel(SCHEMAS["M_O"], set(), SearchBounds(2, 1, ("a",)))


class TestFindCountermodel:
    def test_separating_rule_from_axiom_guard(self):
        bounds = SearchBounds(5, 2, ("a", "b", "c"))
        report = find_countermodel("IFCP_O", {FrameProperty.AFCP_O}, bounds)
        assert report.found
        m = report.model
        assert validate_model(m) == []
        assert check_property(m, FrameProperty.AFCP_O) is None
        assert rule_valid_on_frame(m, "IFCP_O") is not None
        # the synthesised valuation realises the violating assignment
        w_all = frozenset(m.worlds)
        pa, qa, ra = (parse(x) for x in ("a", "b", "c"))
        assert evaluate(m, report.world, parse("Ps(a | b) & O c"))
        assert truth_set(m, ra) <= w_all - truth_set(m, pa)
        assert not evaluate(m, report.world, parse("Ps b"))

    def test_distribution_fails_without_supplementation(self):
        bounds = SearchBounds(5, 2, ("a", "b"))
        report = find_countermodel(SCHEMAS["M_O"], set(), bounds)
        assert report.found
        assert not evaluate(report.model, report.world, report.instance)
        wit = check_property(report.model, FrameProperty.O_SUPPLEMENTED)
        assert wit is not None

    def test_tautology_is_exhausted(self):
        report = find_countermodel(parse("p -> p"), set(), SearchBounds(2, 1, ("p",)))
        assert not report.found
        assert report.outcome == "ExhaustedUpToBounds"

    def test_concrete_formula_countermodel(self):
        report = find_countermodel(parse("O p -> Ps p"), set(), SearchBounds(2, 1, ("p",)))
        assert report.found
        assert not evaluate(report.model, report.world, parse("O p -> Ps p"))

    def test_required_properties_hold_on_found_models(self):
        bounds = SearchBounds(3, 2, ("a", "b"))
        report = find_countermodel(
            SCHEMAS["M_O"], {FrameProperty.PW_COHERENT, FrameProperty.PS_COHERENT}, bounds
        )
        assert report.found
        for prop in (FrameProperty.PW_COHERENT, FrameProperty.PS_COHERENT):
            assert check_property(report.model, prop) is None

    def test_search_is_deterministic(self):
        bounds = SearchBounds(4, 2, ("a", "b", "c"))
        first = find_countermodel("IFCP_O", {FrameProperty.AFCP_O}, bounds)
        second = find_countermodel("IFCP_O", {FrameProperty.AFCP_O}, bounds)
        assert first.model == second.model
        assert first.world == second.world
        assert first.examined == second.examined

    def test_supplemented_search_generates_closed_collections(self):
        bounds = SearchBounds(3, 2, ("a", "b"))
        report = find_countermodel(
            SCHEMAS["AFCP2_P"], {FrameProperty.O_SUPPLEMENTED}, bounds
        )
        assert report.found
        assert check_property(report.model, FrameProperty.O_SUPPLEMENTED) is None

    def test_rejects_nested_modalities(self):
        from deontic import schema

        deep = schema("O O p -> O p", "p")
        with pytest.raises(ValueError, match="nested"):
            find_countermodel(deep, set(), SearchBounds(2, 1, ("a",)))

    @pytest.mark.parametrize(
        "target, verdict",
        [
            (parse("O p -> Ps p"), True),  # formula regime
            (SCHEMAS["M_O"], True),  # schema regime
            ("IFCP_O", False),  # rule regime: the premise no longer holds
        ],
    )
    def test_failed_reverification_raises(self, monkeypatch, target, verdict):
        # Re-verification is an explicit check that survives ``python -O``.
        import deontic.search

        monkeypatch.setattr(deontic.search, "evaluate", lambda *args: verdict)
        with pytest.raises(SearchError, match="re-verif"):
            find_countermodel(target, set(), SearchBounds(3, 2, ("p", "q", "r")))


def test_timeout_is_kept_within_one_valuation():
    # One valuation of this search at 3 worlds spans 9 ** 6 candidates and takes about 26 s;
    # the clock is read once per 9 ** 3, so the search stops soon after its budget.
    target = parse("Ps(a | b) & Pw a -> Ps a")
    required = {FrameProperty.AFCP_O, FrameProperty.AFCP_P}
    start = time.monotonic()
    with pytest.raises(SearchTimeout):
        find_countermodel(target, required, SearchBounds(3, 1, ("a", "b")), timeout_secs=1.0)
    assert time.monotonic() - start < 3.0


def _independent_tuple_count(max_worlds: int, max_sets: int, n_atoms: int) -> int:
    """Count (W, N_O, N_P, V) tuples up to world permutation, directly."""
    total = 0
    for n in range(1, max_worlds + 1):
        masks = list(range(1 << n))
        collections = [
            tuple(sorted(c)) for k in range(max_sets + 1) for c in combinations(masks, k)
        ]

        def remap(mask, perm):
            return sum(1 << perm[i] for i in range(n) if mask >> i & 1)

        for valuation in product(masks, repeat=n_atoms):
            for no_assign in product(collections, repeat=n):
                for np_assign in product(collections, repeat=n):
                    encoding = (valuation, no_assign, np_assign)
                    best = encoding
                    for perm in permutations(range(n)):
                        cand_no = [()] * n
                        cand_np = [()] * n
                        for i in range(n):
                            cand_no[perm[i]] = tuple(sorted(remap(m, perm) for m in no_assign[i]))
                            cand_np[perm[i]] = tuple(sorted(remap(m, perm) for m in np_assign[i]))
                        cand = (
                            tuple(remap(m, perm) for m in valuation),
                            tuple(cand_no),
                            tuple(cand_np),
                        )
                        if cand < best:
                            best = cand
                    if best == encoding:
                        total += 1
    return total


def test_exhaustion_count_matches_direct_tuple_counting():
    bounds = SearchBounds(2, 1, ("a",))
    report = find_countermodel(parse("a | ~a"), set(), bounds)
    assert not report.found
    assert report.pruned_by_property == 0
    assert report.examined == _independent_tuple_count(2, 1, 1)


class TestRemainder:
    DISJUNCTS = [parse(x) for x in "p q r s t".split()]

    def test_partial_elimination_keeps_disjunction(self):
        res = compute_remainder(self.DISJUNCTS, [parse("O ~p"), parse("O ~q"), parse("O ~r")])
        assert [render(d) for d in res.surviving] == ["s", "t"]
        assert render(res.surviving_disjunction()) == "s | t"
        assert res.detached == ()
        assert {render(d) for d, _ in res.eliminated} == {"p", "q", "r"}

    def test_singleton_remainder_detaches(self):
        res = compute_remainder(
            self.DISJUNCTS, [parse(f"O ~{x}") for x in ("p", "q", "r", "s")]
        )
        assert [render(d) for d in res.surviving] == ["t"]
        assert [render(d) for d in res.detached] == ["t"]

    def test_full_elimination_is_inconsistent(self):
        with pytest.raises(RemainderError):
            compute_remainder([parse("p")], [parse("O ~p")])

    def test_lift_when_everything_weakly_permitted(self):
        res = compute_remainder(
            [parse("p"), parse("q")], [], weak_permissions=[parse("p"), parse("q")]
        )
        assert [render(d) for d in res.detached] == ["p", "q"]

    def test_no_lift_without_weak_permission_context(self):
        res = compute_remainder([parse("p"), parse("q")], [])
        assert res.detached == ()

    def test_matching_is_syntactic_after_normalisation(self):
        # O ~p written via the weak-permission spelling still eliminates p
        res = compute_remainder([parse("p"), parse("q")], [parse("O ~p")])
        assert [render(d) for d in res.surviving] == ["q"]
        # but no equivalence-class merging happens
        res2 = compute_remainder([parse("~~p"), parse("q")], [parse("O ~p")])
        assert [render(d) for d in res2.surviving] == ["~~p", "q"]

    def test_implication_sides_behind_flag(self):
        disjuncts = [parse("p"), parse("q")]
        obligations = [parse("O(~p & r)")]
        plain = compute_remainder(disjuncts, obligations)
        assert len(plain.surviving) == 2
        flagged = compute_remainder(disjuncts, obligations, use_implication_sides=True)
        assert [render(d) for d in flagged.surviving] == ["q"]

    def test_rejects_non_obligations(self):
        with pytest.raises(ValueError, match="not an obligation"):
            compute_remainder([parse("p")], [parse("Ps q")])

    def test_order_insensitive_outcome(self):
        obligations = [parse("O ~q"), parse("O ~s")]
        res_fwd = compute_remainder(self.DISJUNCTS, obligations)
        res_rev = compute_remainder(list(reversed(self.DISJUNCTS)), list(reversed(obligations)))
        assert set(map(render, res_fwd.surviving)) == set(map(render, res_rev.surviving))

    def test_never_detaches_a_forbidden_disjunct(self):
        import random

        rng = random.Random(99)
        atom_pool = "pqrst"
        for _ in range(200):
            names = rng.sample(atom_pool, rng.randint(1, 5))
            disjuncts = [parse(x) for x in names]
            forbidden = [x for x in names if rng.random() < 0.5]
            obligations = [parse(f"O ~{x}") for x in forbidden]
            try:
                res = compute_remainder(disjuncts, obligations)
            except RemainderError:
                assert set(forbidden) == set(names)
                continue
            for d in res.detached:
                assert render(d) not in forbidden
