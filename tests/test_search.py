import gc
import math
import random
import time
from functools import cache, partial, reduce
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import deontic.frames
import deontic.search
from deontic import (
    FrameProperty, RemainderError, SearchBounds, SearchError, SearchTimeout, bundled,
    check_property, check_proof, compute_remainder, evaluate, find_countermodel, parse,
    parse_proof_script, render, rule_valid_on_frame, scenario_registry, schema,
    schema_valid_on_frame, truth_set, validate_model,
)
from deontic.formula import (
    BOTTOM, TOP, And, Atom, Formula, Iff, Implies, Not, Obl, Or, PermS, PermW, Schema, atoms,
    bare_atoms, modal_depth,
)
from deontic.frames import (
    GUARDED_RULES, ColumnPlan, find_schema_violation, find_violation, schema_variables,
)
from deontic.model import ModelView, truth_mask
from deontic.proof import load_script
from deontic.search import (
    _canonical, _canonical_blocks, _collections, _generation, _image_col, _image_index,
    _image_indices, _perm_tables, _worlds,
)
from deontic.systems import FRAME_CLASSES, SCHEMAS


class TestBounds:
    def test_world_cap(self):
        with pytest.raises(ValueError, match="max_worlds"):
            SearchBounds(6, 2, ("a",))
        with pytest.raises(ValueError, match="max_worlds"):
            SearchBounds(0, 2, ("a",))

    def test_negative_sets(self):
        with pytest.raises(ValueError, match="max_sets"):
            SearchBounds(2, -1, ("a",))

    @pytest.mark.parametrize("worlds, sets, field", [
        (3, 1.5, "max_sets"), (3, 2.0, "max_sets"), (3, True, "max_sets"), (3, "2", "max_sets"),
        (2.0, 2, "max_worlds"), (False, 2, "max_worlds"), (None, 2, "max_worlds"),
    ])
    def test_bounds_that_are_not_integers(self, worlds, sets, field):
        # A set bound of 1.5 is never equal to a collection's size, so it would bound nothing.
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            SearchBounds(worlds, sets, ("a",))

    def test_repeated_atom(self):
        # Two assignment variables named by one atom would share its valuation.
        with pytest.raises(ValueError, match="^atom 'a' is given twice$"):
            SearchBounds(2, 2, ("a", "b", "a"))

    @pytest.mark.parametrize("name", ["O", "1x", "Ps", "T", "a-b", ""])
    def test_atom_names_the_parser_cannot_read(self, name):
        with pytest.raises(ValueError, match=r"^invalid atom name .*; atoms match \[a-z\]"):
            SearchBounds(2, 2, ("b", name))

    def test_bundled_atoms_are_valid(self):
        for names in (("a", "b", "c", "d"), tuple("pqrst"), ("x_1", "y2")):
            assert SearchBounds(2, 2, names).atoms == names

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

    def test_bare_atom_schema_is_searched_under_world_1_fixing_permutations(self):
        # O p -> p reads p at the world itself: with world 1 keeping its pair, p = {w2}
        # falsifies it at w1 but p = {w1} does not, so no permutation moving w1 applies.
        target = schema("O p -> p", "p")
        required = {FrameProperty.O_SUPPLEMENTED, FrameProperty.PW_COHERENT}
        report = find_countermodel(target, required, SearchBounds(2, 2, ("a",)))
        assert report.found
        m = report.model
        assert validate_model(m) == []
        assert all(check_property(m, p) is None for p in required)
        assert m.n_obl["w1"] == {frozenset({"w2"}), frozenset({"w1", "w2"})}
        assert (report.world, report.assignment) == ("w1", {"p": frozenset({"w2"})})
        assert not evaluate(m, report.world, report.instance)
        assert render(report.instance) == "O a -> a"

    def test_rejects_nested_modalities(self):
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

    @pytest.mark.parametrize("target", [parse("O p -> Ps p"), SCHEMAS["M_O"], "IFCP_O"])
    def test_required_properties_are_reverified_on_the_named_model(self, monkeypatch, target):
        # Candidates are filtered on their bitmask view; the found one is checked again by name.
        monkeypatch.setattr(deontic.search, "check_property", lambda *args: "violated")
        with pytest.raises(SearchError, match="re-verif"):
            find_countermodel(target, {FrameProperty.PW_COHERENT},
                              SearchBounds(3, 2, ("p", "q", "r")))


def test_timeout_is_kept_within_the_every_world_walk():
    # The target has modal depth 2, so every world's columns are walked: at 4 worlds and 2 sets
    # this search spans 137 ** 8 frames, far more than its budget covers.  The clock is read
    # once per key tried, so the search stops soon after its budget.
    target = parse("Ps(a | b) & Pw a -> Ps a | O Ps a")
    required = {FrameProperty.AFCP_O, FrameProperty.AFCP_P}
    start = time.monotonic()
    with pytest.raises(SearchTimeout):
        find_countermodel(target, required, SearchBounds(4, 2, ("a", "b")), timeout_secs=1.0)
    assert time.monotonic() - start < 3.0


@pytest.mark.parametrize("budget", [math.nan, -1.0, -0.5])
def test_nan_or_negative_budget_is_rejected(budget):
    # ``time.monotonic() > nan`` is always false, so NaN would be a search without a limit.
    with pytest.raises(ValueError, match=r"^timeout_secs must be a non-negative number"):
        find_countermodel(SCHEMAS["M_O"], set(), SearchBounds(2, 1, ("a", "b")),
                          timeout_secs=budget)


def test_zero_and_no_budget_keep_their_meaning():
    bounds = SearchBounds(2, 1, ("a", "b"))
    with pytest.raises(SearchTimeout, match="examined 0,"):
        find_countermodel(SCHEMAS["M_O"], set(), bounds, timeout_secs=0)
    assert find_countermodel(SCHEMAS["M_O"], set(), bounds, timeout_secs=None).found


def test_timeout_holds_while_collections_are_built():
    # Up to 4 worlds this search takes about 0.1 s.  At 5 worlds and 8 sets there are about
    # 15 M subset lists to try, so the budget must hold while they are built.
    required = {FrameProperty.O_SUPPLEMENTED, FrameProperty.P_SUPPLEMENTED}
    start = time.monotonic()
    with pytest.raises(SearchTimeout, match="examined 803,"):
        find_countermodel(schema("O p -> O p", "p"), required, SearchBounds(5, 8, ("a",)),
                          timeout_secs=1.0)
    assert time.monotonic() - start < 2.0


def test_a_build_the_budget_stops_is_not_kept(monkeypatch):
    # The search spaces up to 4 worlds are kept; the 5-world one, stopped while its collections
    # were built, is not, so the same search builds it again under its own budget.
    monkeypatch.setattr(deontic.search, "_SPACES", {})
    required = {FrameProperty.O_SUPPLEMENTED, FrameProperty.P_SUPPLEMENTED}
    for _ in range(2):
        start = time.monotonic()
        with pytest.raises(SearchTimeout, match="examined 803,"):
            find_countermodel(schema("O p -> O p", "p"), required, SearchBounds(5, 8, ("a",)),
                              timeout_secs=1.0)
        assert time.monotonic() - start < 2.0
        assert sorted(key[0] for key in deontic.search._SPACES) == [1, 2, 3, 4]


def _space_batch():
    """Searches taken in turn over search spaces of several keys: each validity search of
    ``EXHAUSTIVE_COUNTS`` (among them a supplemented class, FCP_3, and several required sets on
    the 3-world, 2-set key), a find, a bare atom (a group fixing w1) and an every-world walk."""
    afcp = {FrameProperty.AFCP_O, FrameProperty.AFCP_P}
    batch = [(SCHEMAS.get(name, name), FRAME_CLASSES[cls], SearchBounds(w, s, ("a", "b", "c")))
             for name, cls, w, s, _, _ in EXHAUSTIVE_COUNTS]
    batch[1:1] = [
        ("IFCP_O", FRAME_CLASSES["FCP_2"], SearchBounds(3, 3, ("a", "b", "c"))),
        (parse("O p -> p"), set(), SearchBounds(3, 2, ("p",))),
        (parse("Ps(a | b) & Pw a -> Ps a | O Ps a"), afcp, SearchBounds(3, 1, ("a", "b"))),
        (SCHEMAS["AFCP_O"], set(), SearchBounds(3, 2, ("a", "b", "c"))),
    ]
    return batch


def _report(target, required, bounds):
    out = find_countermodel(target, required, bounds).to_dict()
    del out["elapsed_secs"]
    return out


class TestSearchSpaces:
    def test_a_warm_search_equals_a_cold_one(self, monkeypatch):
        # The warm batch builds nothing, walks no N_O column list and decides no frame condition:
        # it walks the kept blocks and reads the kept verdicts.
        monkeypatch.setattr(deontic.search, "_SPACES", {})
        calls = []

        def counted(name, build):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return build(*args, **kwargs)
            return wrapper

        for module, name in ((deontic.search, "_collections"), (deontic.search, "_index_tables"),
                             (deontic.frames, "column_members"),
                             (deontic.search, "_canonical_blocks")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        tables = deontic.frames.ConditionTables
        monkeypatch.setattr(tables, "_failing", counted("_failing", tables._failing))
        batch = _space_batch()
        cold = [_report(*search) for search in batch]
        assert {"_collections", "_index_tables", "column_members", "_canonical_blocks",
                "_failing"} <= set(calls)
        calls.clear()
        assert [_report(*search) for search in batch] == cold
        assert calls == []
        assert cold[1]["outcome"] == "Found" and cold[0]["outcome"] == "ExhaustedUpToBounds"

    def test_no_search_changes_a_kept_space(self, monkeypatch):
        monkeypatch.setattr(deontic.search, "_SPACES", {})
        for search in _space_batch():
            find_countermodel(*search)
        spaces = deontic.search._SPACES
        assert len(spaces) >= 10
        for key, (cols, perms, conditions, blocks) in spaces.items():
            fresh_cols, fresh_perms = _generation(*key, _no_tick)
            assert cols == tuple(map(tuple, fresh_cols)) and perms == tuple(fresh_perms)
            full = (1 << key[0]) - 1
            fresh = deontic.frames.ConditionTables(cols[1], full)
            assert conditions.has == fresh.has
            for name, table in vars(conditions).items():  # the tables built on first use
                if name != "_verdicts":
                    assert table == getattr(fresh, name), (key, name)
            # Every verdict kept is the one fresh tables give, and the blocks are a fresh walk.
            for (no, props), verdict in conditions._verdicts.items():
                assert verdict == fresh.failing(no, props), (key, props, no)
            assert blocks == tuple(_canonical_blocks(fresh_cols, fresh_perms, _no_tick)), key

    def test_a_space_of_more_than_1024_columns_is_not_kept(self, monkeypatch):
        # The 5-world, 2-set space (529 columns per list) is kept; the 5-world, 3-set one
        # (5 489) is built for its search and freed with it.
        monkeypatch.setattr(deontic.search, "_SPACES", {})
        bounds = SearchBounds(5, 2, ("a", "b", "c"))
        assert not find_countermodel(SCHEMAS["AFCP2_P"], FRAME_CLASSES["FCP_2"], bounds).found
        spaces = deontic.search._SPACES
        assert sorted(key[:2] for key in spaces) == [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2)]
        assert max(len(cols) for (no, np_), *_ in spaces.values() for cols in (no, np_)) == 529
        (no_cols, np_cols), *_ = deontic.search._space(5, 3, (False, False), True, _no_tick)
        assert len(no_cols) == len(np_cols) == 5489
        assert len(spaces) == 5

    @pytest.mark.parametrize("cut", ["find", "budget"])
    def test_a_walk_cut_short_is_extended(self, monkeypatch, cut):
        # A find keeps its spaces whole, every canonical block walked; a budget stop keeps no
        # space it was building.  Either way a later search gives the cold search's report.
        monkeypatch.setattr(deontic.search, "_SPACES", {})
        required, bounds = FRAME_CLASSES["FCP_2"], SearchBounds(3, 3, ("a", "b", "c"))
        cold = _report(SCHEMAS["AFCP2_P"], required, bounds)
        deontic.search._SPACES.clear()
        if cut == "find":
            assert find_countermodel("IFCP_O", required, bounds).found
            spaces = deontic.search._SPACES.values()
            assert len(spaces) == 3
            for cols, perms, _, blocks in spaces:
                assert blocks == tuple(_canonical_blocks(cols, perms, _no_tick))
        else:
            clock = deontic.search._Clock
            monkeypatch.setattr(deontic.search, "_Clock", OneCandidateClock)
            with pytest.raises(SearchTimeout):
                find_countermodel("IFCP_O", required, bounds)
            monkeypatch.setattr(deontic.search, "_Clock", clock)
            assert deontic.search._SPACES == {}
        assert _report(SCHEMAS["AFCP2_P"], required, bounds) == cold

    def test_a_build_stopped_in_its_blocks_is_not_kept(self, monkeypatch):
        # The budget runs out while the 3-world space's blocks are walked, its lists and tables
        # built: the 1- and 2-world spaces are kept, that one is not.
        monkeypatch.setattr(deontic.search, "_SPACES", {})
        walk = deontic.search._canonical_blocks

        def stopped(cols, perms, tick):
            blocks = walk(cols, perms, tick)
            if len(cols[0]) == len(_collections(3, 3)):
                yield next(blocks)
                raise SearchTimeout("stopped in the blocks")
            yield from blocks

        monkeypatch.setattr(deontic.search, "_canonical_blocks", stopped)
        with pytest.raises(SearchTimeout, match="stopped in the blocks"):
            find_countermodel(SCHEMAS["AFCP2_P"], FRAME_CLASSES["FCP_2"],
                              SearchBounds(3, 3, ("a", "b", "c")))
        assert sorted(key[0] for key in deontic.search._SPACES) == [1, 2]


def _independent_tuple_count(max_worlds: int, max_sets: int) -> int:
    """Count (W, N_O, N_P) frames up to world permutation, directly."""
    total = 0
    for n in range(1, max_worlds + 1):
        masks = list(range(1 << n))
        collections = [
            tuple(sorted(c)) for k in range(max_sets + 1) for c in combinations(masks, k)
        ]

        def remap(mask, perm):
            return sum(1 << perm[i] for i in range(n) if mask >> i & 1)

        for no_assign in product(collections, repeat=n):
            for np_assign in product(collections, repeat=n):
                encoding = (no_assign, np_assign)
                best = encoding
                for perm in permutations(range(n)):
                    cand_no = [()] * n
                    cand_np = [()] * n
                    for i in range(n):
                        cand_no[perm[i]] = tuple(sorted(remap(m, perm) for m in no_assign[i]))
                        cand_np[perm[i]] = tuple(sorted(remap(m, perm) for m in np_assign[i]))
                    cand = (tuple(cand_no), tuple(cand_np))
                    if cand < best:
                        best = cand
                if best == encoding:
                    total += 1
    return total


def test_exhaustion_count_matches_direct_tuple_counting():
    # A tautology of modal depth 2: the every-world walk, under every permutation.
    bounds = SearchBounds(2, 1, ("a",))
    report = find_countermodel(parse("O Ps a | ~O Ps a"), set(), bounds)
    assert not report.found
    assert report.pruned_by_property == 0
    assert report.examined == _independent_tuple_count(2, 1)


def _independent_pair_count(max_worlds: int, max_sets: int) -> int:
    """Count one world's (N_O, N_P) pairs up to world permutation, as orbits."""
    total = 0
    for n in range(1, max_worlds + 1):
        masks = range(1 << n)
        collections = [c for k in range(max_sets + 1) for c in combinations(masks, k)]

        def image(col, perm):
            return tuple(sorted(sum(1 << perm[i] for i in range(n) if m >> i & 1) for m in col))

        orbits = {
            min((image(no, perm), image(np_, perm)) for perm in permutations(range(n)))
            for no in collections for np_ in collections
        }
        total += len(orbits)
    return total


def test_frame_exhaustion_count_matches_orbit_counting():
    report = find_countermodel(schema("O p -> O p", "p"), set(), SearchBounds(3, 3, ("a",)))
    assert not report.found
    assert report.pruned_by_property == 0
    assert report.examined == _independent_pair_count(3, 3)


def _independent_one_world_count(max_worlds, max_sets, required) -> tuple[int, int]:
    """Count (N_O(w1), N_P(w1)) pairs, the other worlds empty, up to permuting worlds in the
    sets of world 1's pair (which stays at w1), as orbits; and the orbits a required property
    prunes, checked on a named model."""
    examined = pruned = 0
    for n in range(1, max_worlds + 1):
        masks = range(1 << n)
        collections = [c for k in range(max_sets + 1) for c in combinations(masks, k)]

        def image(col, perm):
            return tuple(sorted(_remap_mask(m, perm) for m in col))

        orbits = {
            min((image(no, perm), image(np_, perm)) for perm in permutations(range(n)))
            for no in collections for np_ in collections
        }
        examined += len(orbits)
        empty = [frozenset()] * (n - 1)
        for no, np_ in orbits:
            model = ModelView(_worlds(n), [frozenset(no), *empty], [frozenset(np_), *empty],
                              {}).model()
            pruned += any(check_property(model, p) is not None for p in required)
    return examined, pruned


def _remap_mask(mask, perm):
    out = 0
    for i, target in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << target
    return out


def _sorted(col):
    """A column as the tuple of its sorted masks, the order in which the search lists columns."""
    return tuple(sorted(col))


def _canonical_model_oracle(no, np_, n):
    """The bit-loop canonicity check the permutation tables replaced."""
    encoding = (tuple(map(_sorted, no)), tuple(map(_sorted, np_)))
    for perm in permutations(range(n)):
        remapped_no = [None] * n
        remapped_np = [None] * n
        for i in range(n):
            remapped_no[perm[i]] = tuple(sorted(_remap_mask(m, perm) for m in no[i]))
            remapped_np[perm[i]] = tuple(sorted(_remap_mask(m, perm) for m in np_[i]))
        if (tuple(remapped_no), tuple(remapped_np)) < encoding:
            return False
    return True


def _canonical_pair_oracle(no, np_, n):
    encoding = (_sorted(no), _sorted(np_))
    for perm in permutations(range(n)):
        remapped = (
            tuple(sorted(_remap_mask(m, perm) for m in no)),
            tuple(sorted(_remap_mask(m, perm) for m in np_)),
        )
        if remapped < encoding:
            return False
    return True


def _one_world_oracle(n, cols, perms):
    """One-world encodings (N_O(w1), N_P(w1)) least under ``perms``, each renaming the worlds
    in the sets of world 1's pair, which stays at w1."""
    def moved(no, np_, perm):
        return (tuple(sorted(_remap_mask(m, perm) for m in no)),
                tuple(sorted(_remap_mask(m, perm) for m in np_)))

    return [(no, np_) for no in cols for np_ in cols
            if all(moved(no, np_, perm) >= (_sorted(no), _sorted(np_)) for perm in perms)]


def _orbit_least_model(no, np_, n):
    best = (tuple(map(_sorted, no)), tuple(map(_sorted, np_)))
    for perm in permutations(range(n)):
        moved_no, moved_np = [None] * n, [None] * n
        for i in range(n):
            moved_no[perm[i]] = tuple(sorted(_remap_mask(m, perm) for m in no[i]))
            moved_np[perm[i]] = tuple(sorted(_remap_mask(m, perm) for m in np_[i]))
        best = min(best, (tuple(moved_no), tuple(moved_np)))
    return best


def _no_tick():
    pass


def _setup(n, max_sets, all_perms=True):
    """The search's column list and permutations at n worlds, no column closed."""
    (cols, _), perms = _generation(n, max_sets, (False, False), all_perms, _no_tick)
    return cols, perms


def _images(every_world):
    """The N_O and N_P key images of one-world or every-world keys."""
    image = _image_indices if every_world else _image_index
    return partial(image, 2), partial(image, 3)


def _two_levels(no_keys, np_keys, perms, every_world):
    """The encodings two nested ``_canonical`` calls yield, in order: each canonical N_O key,
    then each of ``np_keys`` canonical under the N_O key's stabiliser."""
    no_image, np_image = _images(every_world)
    return [(no, np_) for no, fixing in _canonical(no_keys, perms, no_image, _no_tick)
            for np_, _ in _canonical(np_keys, fixing, np_image, _no_tick)]


def _as_columns(cols, encodings, every_world):
    """Encodings of index keys read back as columns."""
    if every_world:
        return [(tuple(cols[i] for i in no), tuple(cols[j] for j in np_)) for no, np_ in encodings]
    return [(cols[no], cols[np_]) for no, np_ in encodings]


def _generated(n, max_sets, every_world=False, all_perms=True):
    """What the search generates at n worlds with no required property, as columns."""
    cols, perms = _setup(n, max_sets, all_perms)
    keys = list(product(range(len(cols)), repeat=n)) if every_world else range(len(cols))
    return _as_columns(cols, _two_levels(keys, keys, perms, every_world), every_world)


def _is_generated(encoding, perms, every_world=False):
    """The level-by-level test that nested ``_canonical`` calls make, on one encoding of index
    keys."""
    for key, image in zip(encoding, _images(every_world)):
        found = next(_canonical([key], perms, image, _no_tick), None)
        if found is None:
            return False
        perms = found[1]
    return True


def _bits(x):
    return [j for j in range(x.bit_length()) if x >> j & 1]


def _block_candidates(monkeypatch, target, bounds):
    """Per world count, the candidates a one-world search decides, in the order it does: each
    canonical N_O column with the N_P columns of its canonical bitset, as columns.

    With no required property, a valid target decides every generated candidate.
    """
    monkeypatch.setattr(deontic.search, "_SPACES", {})  # so the search walks every space cold
    seen = []
    blocks = deontic.search._canonical_blocks

    def recorded(search_cols, perms, tick):
        n = len(seen) + 1
        cols = _collections(n, bounds.max_sets)
        assert search_cols == (tuple(cols), tuple(cols))  # kept spaces hold tuples
        seen.append([])
        for no, canonical in blocks(search_cols, perms, tick):
            seen[-1] += [(cols[no], cols[j]) for j in _bits(canonical)]
            yield no, canonical

    monkeypatch.setattr(deontic.search, "_canonical_blocks", recorded)
    assert not find_countermodel(target, set(), bounds).found
    return dict(enumerate(seen, 1))


def _searched(monkeypatch, target, bounds):
    """Per world count, the candidates a search builds a view for, in the order it does.

    With no required property, a valid target gives every generated candidate a view.
    """
    seen = {}

    class RecordedView(ModelView):
        def __init__(self, worlds, n_obl, n_perm, valuation):
            seen.setdefault(len(worlds), []).append((tuple(n_obl), tuple(n_perm)))
            super().__init__(worlds, n_obl, n_perm, valuation)

    monkeypatch.setattr(deontic.search, "ModelView", RecordedView)
    assert not find_countermodel(target, set(), bounds).found
    return seen


def _oracle_models(n, cols):
    """The every-world candidates over ``cols`` that ``_canonical_model_oracle`` accepts, in
    ascending order.  Each column is remapped once per permutation, and a candidate's N_P part
    is moved only where its N_O part ties, as tuple comparison reads it."""
    perms = list(permutations(range(n)))
    keys = {col: _sorted(col) for col in cols}
    images = [{col: tuple(sorted(_remap_mask(m, perm) for m in col)) for col in cols}
              for perm in perms]

    def move(k, part):
        out = [None] * n
        for i, col in enumerate(part):
            out[perms[k][i]] = images[k][col]
        return tuple(out)

    accepted = []
    for no in product(cols, repeat=n):
        no_key = tuple([keys[c] for c in no])
        moved = [move(k, no) for k in range(len(perms))]
        for np_ in product(cols, repeat=n):
            np_key = tuple([keys[c] for c in np_])
            if all(m > no_key or m == no_key and move(k, np_) >= np_key
                   for k, m in enumerate(moved)):
                accepted.append((no, np_))
    return accepted


class TestCanonicity:
    # Generation must yield exactly the candidates the oracle accepts, in ascending order.
    @pytest.mark.parametrize("n, max_sets", [(1, 2), (2, 4), (3, 3)])
    def test_pair_agrees_with_oracle_on_every_candidate(self, monkeypatch, n, max_sets):
        cols = _collections(n, max_sets)
        expected = [c for c in product(cols, repeat=2) if _canonical_pair_oracle(*c, n)]
        assert _generated(n, max_sets) == expected
        seen = _block_candidates(monkeypatch, schema("O p -> O p", "p"),
                                 SearchBounds(n, max_sets, ("a",)))
        assert seen[n] == expected

    def test_pair_generation_on_a_sample_of_n_o_at_4_worlds(self):
        cols, perms = _setup(4, 2)
        sample = sorted(random.Random(4).sample(range(len(cols)), 40))
        expected = [(cols[i], np_) for i in sample for np_ in cols
                    if _canonical_pair_oracle(cols[i], np_, 4)]
        encodings = _two_levels(sample, range(len(cols)), perms, False)
        assert _as_columns(cols, encodings, False) == expected

    @pytest.mark.parametrize("n", [4, 5])
    def test_pair_agrees_with_oracle_on_a_sample(self, n):
        rng = random.Random(n)
        cols, perms = _setup(n, 3)
        for _ in range(400):
            i, j = rng.randrange(len(cols)), rng.randrange(len(cols))
            assert (_is_generated((i, j), perms)
                    == _canonical_pair_oracle(cols[i], cols[j], n)), (cols[i], cols[j])

    @pytest.mark.parametrize("all_perms", [False, True], ids=["fixing-w1", "all"])
    @pytest.mark.parametrize("n, max_sets, n_atoms", [(1, 2, 2), (2, 3, 2), (3, 2, 1)])
    def test_one_world_generation_agrees_with_oracle(self, monkeypatch, all_perms, n, max_sets,
                                                     n_atoms):
        perms = [perm for perm in permutations(range(n)) if all_perms or perm[0] == 0]
        expected = _one_world_oracle(n, _collections(n, max_sets), perms)
        assert _generated(n, max_sets, all_perms=all_perms) == expected
        # Tautologies of modal depth <= 1 over n_atoms atoms, with an atom outside every modal
        # operator or none: a formula's atoms are assignment variables, so the frames are these.
        text = {(False, 1): "a | ~a", (False, 2): "a & b -> a",
                (True, 1): "Pw a | O ~a", (True, 2): "Pw(a & b) | O ~(a & b)"}[all_perms, n_atoms]
        seen = _block_candidates(monkeypatch, parse(text),
                                 SearchBounds(n, max_sets, ("a", "b")[:n_atoms]))
        assert seen[n] == expected

    def test_model_agrees_with_oracle_on_every_candidate(self, monkeypatch):
        # A tautology of modal depth 2: the every-world walk, under every permutation.
        seen = _searched(monkeypatch, parse("O Ps a | ~O Ps a"), SearchBounds(2, 2, ("a",)))
        for n in (1, 2):
            expected = _oracle_models(n, _collections(n, 2))
            assert _generated(n, 2, every_world=True) == expected
            assert seen[n] == expected

    @pytest.mark.parametrize("n, seed, size", [(3, 1, 4), (4, 0, 3), (4, 1, 2)])
    def test_model_generation_on_a_sample_of_columns(self, n, seed, size):
        # Every product of a sorted column sample, so both sides see the same candidates.
        cols, perms = _setup(n, 2)
        sample = sorted(random.Random(n * 10 + seed).sample(range(len(cols)), size))
        keys = list(product(sample, repeat=n))
        assert (_as_columns(cols, _two_levels(keys, keys, perms, True), True)
                == _oracle_models(n, [cols[i] for i in sample]))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_model_agrees_with_oracle_on_a_sample(self, n):
        # Random candidates are rarely canonical, so each one's orbit least is checked too.
        rng = random.Random(n)
        cols, perms = _setup(n, 2)
        index = {_sorted(col): i for i, col in enumerate(cols)}

        def key(no, np_):
            return tuple(index[_sorted(c)] for c in no), tuple(index[_sorted(c)] for c in np_)

        for _ in range(150):
            no = tuple(rng.choice(cols) for _ in range(n))
            np_ = tuple(rng.choice(cols) for _ in range(n))
            least = _orbit_least_model(no, np_, n)
            assert _is_generated(key(*least), perms, every_world=True)
            for candidate in ((no, np_), least):
                assert (_is_generated(key(*candidate), perms, every_world=True)
                        == _canonical_model_oracle(*candidate, n)), candidate

    def test_tables_are_the_non_identity_permutations(self):
        for n in range(1, 6):
            tables = _perm_tables(n)
            images = {t for _, t in tables}
            assert len(images) == len(tables) == math.factorial(n) - 1
            assert tuple(range(1 << n)) not in images
            for inverse, t in tables:
                perm = [t[1 << i].bit_length() - 1 for i in range(n)]
                assert [perm[j] for j in inverse] == list(range(n))
                assert all(t[m] == _remap_mask(m, perm) for m in range(1 << n))

    @pytest.mark.parametrize("closed", [(False, False), (True, False), (False, True)])
    def test_index_tables_name_the_image_columns(self, closed):
        # Indices compare as columns only if each list is sorted; column 0 is the empty one.
        for n in range(1, 5):
            cols, perms = _generation(n, 2, closed, True, _no_tick)
            assert len(perms) == math.factorial(n) - 1
            for side, side_cols in enumerate(cols, 2):
                keys = list(map(_sorted, side_cols))
                assert keys == sorted(keys) and side_cols[0] == frozenset()
                for perm in perms:
                    assert [side_cols[i] for i in perm[side]] == [_image_col(perm, c)
                                                                   for c in side_cols]
            _, fixing = _generation(n, 2, closed, False, _no_tick)
            assert [p[0] for p in fixing] == [p[0] for p in perms if p[0][0] == 0]
            assert len(fixing) == math.factorial(n - 1) - 1


# (examined, pruned_by_property) of the exhaustive benchmark's searches, and of AFCP2_P at 4
# worlds and 3 sets; each exhausts its bounds, so these count every canonical candidate and
# every one a required property prunes.
EXHAUSTIVE_COUNTS = [
    ("AFCP2_P", "FCP_2", 4, 3, 26707, 26099),
    ("AFCP2_P", "FCP_2", 4, 2, 1692, 1544),
    ("AFCP2_P", "FCP_2", 3, 3, 1919, 1778),
    ("AFCP_O", "FCP_2", 3, 3, 1919, 1778),
    ("D_s", "Min", 3, 3, 1919, 1324),
    ("M_Ps", "FCP_3", 3, 3, 46, 33),
    ("AFCP_O", "FCP_2", 3, 2, 407, 339),
    ("AFCP_P", "FCP_2", 3, 2, 407, 339),
    ("AFCP2_P", "FCP_4", 3, 2, 407, 339),
    ("AFCP_O", "FCP_4", 3, 2, 407, 339),
    ("D_w", "Min", 3, 2, 407, 182),
    ("P_sP_w", "Min", 3, 2, 407, 182),
    ("IFCP2_P", "FCP_1", 3, 3, 1919, 1801),
    ("IFCP_O", "FCP_1", 3, 2, 407, 342),
    ("IFCP_P", "FCP_5", 3, 2, 407, 342),
]


class TestCounters:
    @pytest.mark.parametrize("name, cls, worlds, sets, examined, pruned", EXHAUSTIVE_COUNTS)
    def test_frame_search_counters(self, name, cls, worlds, sets, examined, pruned):
        target = SCHEMAS.get(name, name)
        report = find_countermodel(target, FRAME_CLASSES[cls],
                                   SearchBounds(worlds, sets, ("a", "b", "c")))
        assert not report.found
        assert (report.examined, report.pruned_by_property) == (examined, pruned)

    def test_formula_search_counters(self):
        target = parse("Ps(a | b) & Pw a -> Ps a")
        required = {FrameProperty.AFCP_O, FrameProperty.AFCP_P}
        report = find_countermodel(target, required, SearchBounds(2, 1, ("a", "b")))
        assert not report.found
        assert (report.examined, report.pruned_by_property) == (26, 10)
        assert _independent_one_world_count(2, 1, required) == (26, 10)

    def test_every_world_search_counters(self):
        # Modal depth 2: only candidates whose every world meets AFCPO and AFCPP are generated,
        # so each one counts as examined and none as pruned.
        target = parse("Ps(a | b) & Pw a -> Ps a | O Ps a")
        required = {FrameProperty.AFCP_O, FrameProperty.AFCP_P}
        bounds = SearchBounds(3, 1, ("a", "b"))
        report = find_countermodel(target, required, bounds)
        assert not report.found
        assert (report.examined, report.pruned_by_property) == (1751, 0)
        assert _every_world_oracle(target, required, bounds)[:2] == (False, 1751)

    def test_valuations_range_over_the_targets_own_atoms(self):
        # The command-line default atoms a, b, c: c is not in the target, so it is no assignment
        # variable and is left empty; the search walks the same frames for both.
        target = parse("Ps(a | b) & Pw a -> Ps a")
        required = {FrameProperty.AFCP_O, FrameProperty.AFCP_P}
        for atom_names in (("a", "b", "c"), ("a", "b")):
            report = find_countermodel(target, required, SearchBounds(4, 2, atom_names))
            assert not report.found
            assert (report.examined, report.pruned_by_property) == (1692, 1473)

    def test_an_atom_outside_the_target_is_empty_in_the_found_model(self):
        report = find_countermodel(parse("O b -> b"), set(), SearchBounds(2, 1, ("a", "b", "c")))
        assert report.found
        assert report.model.valuation == {"a": frozenset(), "b": frozenset(), "c": frozenset()}
        assert report.world == "w1" and report.model.n_obl["w1"] == {frozenset()}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_view_from_masks_is_the_model_view(self, data):
        # A round trip: the view of the named model, built from its names, is the view itself.
        n = data.draw(st.integers(1, 4))
        cols = _collections(n, 3)
        val = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3))
        no = [data.draw(st.sampled_from(cols)) for _ in range(n)]
        np_ = [data.draw(st.sampled_from(cols)) for _ in range(n)]
        atom_names = ("a", "b", "c")[:len(val)]
        view = ModelView(_worlds(n), no, np_, dict(zip(atom_names, val)))
        named = view.model().view
        assert named is not view
        for field in ("worlds", "full", "n_obl", "n_perm", "valuation", "obl_at", "perm_at"):
            assert getattr(view, field) == getattr(named, field), field


def _depth_one_formulas(atom_names: str) -> st.SearchStrategy:
    def connectives(sub):
        return st.one_of(st.builds(Not, sub), *(st.builds(c, sub, sub) for c in (And, Or, Implies, Iff)))

    leaf = st.one_of(st.builds(Atom, st.sampled_from(atom_names)), st.just(TOP), st.just(BOTTOM))
    propositional = st.recursive(leaf, connectives, max_leaves=4)
    modal = st.one_of(leaf, *(st.builds(op, propositional) for op in (Obl, PermS, PermW)))
    return st.recursive(modal, connectives, max_leaves=5)


def _brute_force_found(target, required, bounds) -> bool:
    """Whether some model within the bounds meets ``required`` and falsifies ``target``: every
    frame, with every world's columns and no symmetry, under every valuation at once."""
    names = sorted(atoms(target))
    for n in range(1, bounds.max_worlds + 1):
        cols = _collections(n, bounds.max_sets)
        for no in product(cols, repeat=n):
            for np_ in product(cols, repeat=n):
                view = ModelView(_worlds(n), list(no), list(np_), {})
                if (all(find_violation(view, p) is None for p in required)
                        and find_schema_violation(view, target, names) is not None):
                    return True
    return False


class TestOneWorldReduction:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_found_agrees_with_brute_force(self, data):
        atom_names = ("a", "b")[:data.draw(st.integers(1, 2))]
        target = data.draw(_depth_one_formulas("".join(atom_names)))
        required = data.draw(st.sets(st.sampled_from(list(FrameProperty)), max_size=3))
        bounds = SearchBounds(data.draw(st.integers(1, 2)), data.draw(st.integers(0, 2)),
                              atom_names)
        assert modal_depth(target) <= 1
        report = find_countermodel(target, required, bounds)
        assert report.found == _brute_force_found(target, required, bounds)
        if report.found:
            assert all(check_property(report.model, p) is None for p in required)
            assert not evaluate(report.model, report.world, target)


def _depth_two_formulas(atom_names: str) -> st.SearchStrategy:
    """Formulas of modal depth 2: a modal operator over a depth-1 formula, alone, negated or
    joined with a formula of depth <= 1."""
    depth_one = _depth_one_formulas(atom_names)
    nested = st.builds(lambda op, f: op(f), st.sampled_from([Obl, PermS, PermW]),
                       depth_one.filter(lambda f: modal_depth(f) == 1))
    joined = st.builds(lambda c, f, g: c(f, g), st.sampled_from([And, Or, Implies, Iff]),
                       nested, depth_one)
    return st.one_of(nested, st.builds(Not, nested), joined)


@cache
def _all_oracle_models(n, max_sets):
    return _oracle_models(n, _collections(n, max_sets))


def _every_world_oracle(target, required, bounds):
    """The every-world walk, candidate by candidate: each canonical candidate in ascending
    order, kept if ``find_violation`` passes every required property on its view, and then
    decided by ``find_schema_violation`` over the formula's atoms.  Returns (found, the kept
    candidates tried, the first falsifying view, its world index, the falsifying masks)."""
    names = sorted(atoms(target))
    examined = 0
    for n in range(1, bounds.max_worlds + 1):
        for no, np_ in _all_oracle_models(n, bounds.max_sets):
            view = ModelView(_worlds(n), list(no), list(np_), {})
            if any(find_violation(view, p) is not None for p in required):
                continue
            examined += 1
            hit = find_schema_violation(view, target, names)
            if hit is not None:
                return True, examined, view, *hit
    return False, examined, None, None, None


class TestEveryWorldWalk:
    # Drawing each world's N_P column from those its N_O column leaves live generates exactly
    # the canonical candidates that no required property prunes, in the same order.
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_agrees_with_per_candidate_oracle_under_required_properties(self, data):
        target = data.draw(_depth_two_formulas("ab"))
        required = data.draw(st.sets(st.sampled_from(list(FrameProperty)), max_size=3))
        worlds, sets = data.draw(st.sampled_from(
            [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 1)]))
        bounds = SearchBounds(worlds, sets, ("a", "b"))
        assert modal_depth(target) == 2
        found, examined, view, world, masks = _every_world_oracle(target, required, bounds)
        report = find_countermodel(target, required, bounds)
        assert (report.found, report.examined, report.pruned_by_property) == (found, examined, 0)
        if found:
            named = view.model()
            assert (report.model.n_obl, report.model.n_perm) == (named.n_obl, named.n_perm)
            assert report.world == view.worlds[world]
            expected = dict(zip(sorted(atoms(target)), map(view.set_of, masks)))
            assert {a: report.model.valuation[a] for a in expected} == expected


def _candidate_search(target, required, bounds):
    """The per-candidate decision that the block walk replaced: nested ``_canonical`` calls over
    world 1's N_O and N_P indices, each frame pruned and then decided on its one-world view
    (``find_violation``, or ``find_schema_violation`` over a schema's variables or a formula's
    atoms).  Returns (found, examined, pruned, the first falsifying view, its world index, the
    falsifying assignment's masks or None for a rule)."""
    body = target if isinstance(target, Formula) else getattr(target, "body", None)
    variables = (sorted(atoms(target)) if isinstance(target, Formula)
                 else schema_variables(target) if isinstance(target, Schema) else [])
    closed = (FrameProperty.O_SUPPLEMENTED in required, FrameProperty.P_SUPPLEMENTED in required)
    checked = required - {FrameProperty.O_SUPPLEMENTED, FrameProperty.P_SUPPLEMENTED}
    all_perms = body is None or not bare_atoms(body)
    examined = pruned = 0
    for n in range(1, bounds.max_worlds + 1):
        (no_cols, np_cols), perms = _generation(n, bounds.max_sets, closed, all_perms, _no_tick)
        empty = [frozenset()] * (n - 1)
        for no, np_ in _two_levels(range(len(no_cols)), range(len(np_cols)), perms, False):
            examined += 1
            view = ModelView(_worlds(n), [no_cols[no], *empty], [np_cols[np_], *empty], {})
            if any(find_violation(view, p) is not None for p in checked):
                pruned += 1
                continue
            if body is None:
                hit = find_violation(view, GUARDED_RULES[target].prop)
                hit = None if hit is None else (hit[0], None)
            else:
                hit = find_schema_violation(view, body, variables)
            if hit is not None:
                return True, examined, pruned, view, *hit
    return False, examined, pruned, None, None, None


def _assert_block_walk_agrees(target, required, bounds):
    found, examined, pruned, view, world, masks = _candidate_search(target, required, bounds)
    report = find_countermodel(target, required, bounds)
    assert (report.found, report.examined, report.pruned_by_property) == (found, examined, pruned)
    if found:
        named = view.model()
        assert (report.model.n_obl, report.model.n_perm) == (named.n_obl, named.n_perm)
        assert report.world == view.worlds[world]
        if isinstance(target, Formula):
            # The first falsifying assignment to the formula's atoms is the model's valuation.
            expected = dict(zip(sorted(atoms(target)), map(view.set_of, masks)))
            assert {a: report.model.valuation[a] for a in expected} == expected
        elif isinstance(target, Schema):
            assert report.assignment == dict(zip(schema_variables(target),
                                                 map(view.set_of, masks)))
    return report


def _consequence(script_name):
    """A scenario's hypotheses, conjoined, implying its goal."""
    script = load_script(script_name)
    return Implies(reduce(And, [h.formula for h in script.hypotheses]), script.goal)


def _false_at_world_1(n, body, variables, no, col) -> bool:
    """Whether some subset assignment falsifies ``body`` at world 1 of the n-world frame with
    the pair (no, col) at world 1 and empty other worlds, one assignment at a time."""
    empty = [frozenset()] * (n - 1)
    view = ModelView(_worlds(n), [no, *empty], [col, *empty], {})
    return any(not truth_mask(view, body, dict(zip(variables, masks))) & 1
               for masks in product(range(1 << n), repeat=len(variables)))


def _depth_one_targets():
    """A depth-1 schema over p, q, a guarded rule by name, or a depth-1 formula over a, b."""
    schemas = st.builds(lambda body: Schema(body, frozenset("pq")), _depth_one_formulas("pq"))
    return st.one_of(schemas, st.sampled_from(sorted(GUARDED_RULES)), _depth_one_formulas("ab"))


class TestBlockWalk:
    # Deciding a prefix's whole N_P block by bitsets gives what deciding each candidate did.
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_block_walk_agrees_with_per_candidate_oracle(self, data):
        target = data.draw(_depth_one_targets())
        required = data.draw(st.sets(st.sampled_from(list(FrameProperty)), max_size=3))
        worlds, sets = data.draw(st.tuples(st.integers(1, 3), st.integers(0, 3)))
        _assert_block_walk_agrees(target, required, SearchBounds(worlds, sets, tuple("abcd")))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_small_blocks_agree_with_per_column_oracle(self, data):
        # One free variable per block and walks of one, five or all pairs: ``first`` walks
        # several blocks, each in chunks that may mix rows, fixes variables per block, and cuts
        # a later block's pairs to those before the first one an earlier block falsified.  With
        # walks of one pair, up to 88 pairs make windows of 32 and then 64 pairs.
        n, max_sets = data.draw(st.sampled_from([(2, 2), (3, 1)]))
        body = data.draw(_depth_one_formulas("pqr"))
        variables = sorted(atoms(body))
        cols = _collections(n, max_sets)
        rows = data.draw(st.lists(st.tuples(st.sampled_from(cols),
                                            st.integers(0, (1 << len(cols)) - 1)), max_size=8))
        falsified = next(((r, j) for r, (no, live) in enumerate(rows) for j in _bits(live)
                          if _false_at_world_1(n, body, variables, no, cols[j])), None)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(deontic.frames, "_FREE_BITS", n)
            patch.setattr(deontic.frames, "_WALK_BITS",
                          data.draw(st.sampled_from([1 << n, 5 << n, 1 << 16])))
            assert ColumnPlan(n, body, variables, cols).first(rows) == falsified

    @pytest.mark.parametrize("target, required, bounds", [
        # Atoms outside every modal operator: only permutations fixing world 1 apply.
        (schema("O p -> p", "p"), {FrameProperty.O_SUPPLEMENTED, FrameProperty.PW_COHERENT},
         SearchBounds(3, 2, ("a",))),
        (parse("Pw a -> a"), set(), SearchBounds(3, 1, ("a",))),
        (parse("Pw a -> a"), {FrameProperty.PW_COHERENT}, SearchBounds(2, 3, ("a", "b"))),
        (parse("Ps b & O a -> b | a"), {FrameProperty.PS_COHERENT}, SearchBounds(3, 1, ("a", "b"))),
        # Found past a block's first live column, and exhausted.
        ("IFCP_O", FRAME_CLASSES["FCP_2"], SearchBounds(3, 3, ("a", "b", "c"))),
        (SCHEMAS["AFCP2_P"], {FrameProperty.AFCP_O}, SearchBounds(3, 3, ("a", "b"))),
        (SCHEMAS["AFCP2_P"], FRAME_CLASSES["FCP_2"], SearchBounds(3, 2, ("a", "b"))),
        (SCHEMAS["M_O"], {FrameProperty.PS_COHERENT}, SearchBounds(3, 2, ("a", "b"))),
        # Five atoms, exhausted: a ColumnPlan walks 8 blocks at 3 worlds, one variable fixed in
        # each, and 256 at 4 worlds, two fixed.
        (_consequence("five_disjuncts.proof"), FRAME_CLASSES["FCP_2"],
         SearchBounds(3, 2, tuple("pqrst"))),
        (_consequence("five_disjuncts.proof"), FRAME_CLASSES["FCP_2"],
         SearchBounds(4, 1, tuple("pqrst"))),
    ])
    def test_block_walk_agrees_on_chosen_targets(self, target, required, bounds):
        _assert_block_walk_agrees(target, required, bounds)

    def test_a_find_past_the_first_block(self):
        # Without AFCPO the five_disjuncts consequence fails on a 3-world frame.  Its first
        # atom p is the variable fixed per block there, and no assignment with p empty falsifies
        # it on that frame, so the falsifying pair is found past the first block and the later
        # blocks only search the pairs before it.
        required = FRAME_CLASSES["FCP_2"] - {FrameProperty.AFCP_O}
        report = _assert_block_walk_agrees(_consequence("five_disjuncts.proof"), required,
                                           SearchBounds(3, 2, tuple("pqrst")))
        assert report.found and len(report.model.worlds) == 3
        assert report.model.valuation["p"] == {"w2"}

    def test_a_find_in_a_later_window(self, monkeypatch):
        # With one pair a walk of the 3-world blocks, the first window of rows ends once it holds
        # 32 of their 44 live pairs; the falsifying pair, the 37th, is found in the second.
        monkeypatch.setattr(deontic.frames, "_WALK_BITS", 1 << 12)
        required = FRAME_CLASSES["FCP_2"] - {FrameProperty.AFCP_O}
        report = _assert_block_walk_agrees(_consequence("five_disjuncts.proof"), required,
                                           SearchBounds(3, 2, tuple("pqrst")))
        assert (report.found, report.examined, report.pruned_by_property) == (True, 349, 287)


def test_each_assignment_block_is_built_once_per_world_count(monkeypatch):
    # One ColumnPlan run per world count builds each block of assignments once, as the live
    # pairs of each world count (at most 12 here) fit one window of rows: the five atoms fit one
    # block at 1 and 2 worlds, and take 8 at 3 worlds and 256 at 4.  A run per N_O column built
    # them again for each column past the first 64 blocks: 1 226 builds.
    builds, made = [], deontic.frames._Assignments
    monkeypatch.setattr(deontic.frames, "_Assignments",
                        lambda *args: builds.append(1) or made(*args))
    report = find_countermodel(_consequence("five_disjuncts.proof"), FRAME_CLASSES["FCP_2"],
                               SearchBounds(4, 1, tuple("pqrst")))
    assert not report.found
    assert (report.examined, report.pruned_by_property, len(builds)) == (101, 65, 1 + 1 + 8 + 256)


def test_every_world_walk_decides_a_candidate_in_one_walk(monkeypatch):
    # The four atoms of this depth-2 formula share one block of assignments at up to three
    # worlds, so ``find_schema_violation`` decides each candidate in one ``truth_mask`` walk.
    walk, walks = deontic.frames.truth_mask, []
    monkeypatch.setattr(deontic.frames, "truth_mask", lambda *args: walks.append(1) or walk(*args))
    report = find_countermodel(parse("Ps(a | b) & Pw(c & d) -> Ps(b | a) | O Ps c"),
                               {FrameProperty.AFCP_O, FrameProperty.AFCP_P},
                               SearchBounds(3, 1, tuple("abcd")))
    assert not report.found
    assert (report.examined, report.pruned_by_property) == (1751, 0)
    assert len(walks) == 1751


def test_one_world_search_reads_the_clock_once_per_prefix(monkeypatch):
    seen, walks = [], []

    class CountingClock(deontic.search._Clock):
        def check(self, report):
            seen.append(report.examined)
            super().check(report)

    target, bounds = schema("O p -> O p", "p"), SearchBounds(3, 3, ("a",))
    find_countermodel(target, set(), bounds)  # keeps the spaces, so no read below builds one
    walk = ColumnPlan._false_at
    monkeypatch.setattr(ColumnPlan, "_false_at", lambda *args: walks.append(1) or walk(*args))
    monkeypatch.setattr(deontic.search, "_Clock", CountingClock)
    report = find_countermodel(target, set(), bounds)
    assert not report.found
    # The clock is read once per canonical N_O prefix, before its block is decided, and once
    # per ColumnPlan walk.  A world count's candidates are counted only once its walk is done,
    # so every read sees the candidates of the world counts before it: a stop at any read
    # counts no candidate left undecided.
    prefixes, before, total = 0, [], 0
    for n in (1, 2, 3):
        candidates = _one_world_oracle(n, _collections(n, 3), list(permutations(range(n))))
        prefixes += len({no for no, _ in candidates})
        before.append(total)
        total += len(candidates)
    assert total == report.examined
    assert len(seen) == prefixes + len(walks)
    assert sorted(set(seen)) == before and seen == sorted(seen)


@pytest.mark.parametrize("target", [SCHEMAS["AFCP2_P"], schema("Ps(p | q) -> Ps(q | p)", "p q")])
def test_a_large_block_keeps_the_budget(target):
    # 697 N_P columns in a block at 4 worlds and 5 489 at 5, every one live without a
    # required property: the budget is read once per N_O column and per walk, so it holds.
    required = FRAME_CLASSES["FCP_2"] if target == SCHEMAS["AFCP2_P"] else set()
    start = time.monotonic()
    with pytest.raises(SearchTimeout):
        find_countermodel(target, required, SearchBounds(5, 3, ("a", "b")), timeout_secs=0.05)
    assert time.monotonic() - start < 1.0


def test_many_assignment_blocks_keep_the_budget():
    # Five atoms at 5 worlds take 32 768 blocks of assignments: the budget is read once per
    # walk of a block, not only once per N_O column.
    start = time.monotonic()
    with pytest.raises(SearchTimeout):
        find_countermodel(_consequence("five_disjuncts.proof"), FRAME_CLASSES["FCP_2"],
                          SearchBounds(5, 1, tuple("pqrst")), timeout_secs=0.5)
    assert time.monotonic() - start < 1.5


def test_an_exhausted_search_leaves_no_reference_cycle():
    # Garbage in a cycle waits for the cyclic collector, which a search that makes little other
    # garbage seldom triggers: a search's column lists held that way piled up between runs.
    gc.collect()
    gc.disable()
    try:
        report = find_countermodel(SCHEMAS["AFCP2_P"], FRAME_CLASSES["FCP_2"],
                                   SearchBounds(3, 2, ("a", "b")))
        assert not report.found and gc.collect() == 0
    finally:
        gc.enable()


def _fixture():
    return bundled.load_fixture_model("corollary3_model1")


@pytest.mark.parametrize("call", [
    lambda: truth_set(_fixture(), parse("O a -> Ps(a | b)")) == frozenset(_fixture().worlds),
    lambda: schema_valid_on_frame(_fixture(), SCHEMAS["AFCP_O"]) is None,
    lambda: schema_valid_on_frame(_fixture(), SCHEMAS["M_O"]) is not None,
    lambda: check_proof(parse_proof_script(bundled.fixture_text("proofs/fcp2__afcp2_p.proof")),
                        scenario_registry()).valid,
    lambda: find_countermodel("IFCP_O", FRAME_CLASSES["FCP_2"],
                              SearchBounds(3, 3, ("a", "b", "c"))).found,
    lambda: find_countermodel(SCHEMAS["M_O"], FRAME_CLASSES["FCP_5"],
                              SearchBounds(3, 2, ("a", "b"))).found,
    lambda: find_countermodel(parse("O Ps a -> Ps a"), set(), SearchBounds(2, 2, ("a",))).found,
], ids=["truth-set", "schema-valid", "schema-violated", "proof", "rule-countermodel",
        "schema-countermodel", "depth-two-formula-search"])
def test_a_call_leaves_no_reference_cycle(call):
    # As for the exhausted search above; a walker that calls itself through its own closure
    # cell would leave a cycle on every call.
    gc.collect()
    gc.disable()
    try:
        assert call()
        assert gc.collect() == 0
    finally:
        gc.enable()


class OneCandidateClock(deontic.search._Clock):
    """A clock whose budget is spent as soon as it has been read once."""

    def check(self, report):
        super().check(report)
        self.deadline = float("-inf")


BUDGET_SEARCHES = [
    (SCHEMAS["AFCP2_P"], FRAME_CLASSES["FCP_2"], SearchBounds(4, 2, ("a", "b"))),
    (parse("Ps(a | b) & Pw a -> Ps a"), {FrameProperty.AFCP_O, FrameProperty.AFCP_P},
     SearchBounds(4, 1, ("a", "b"))),
    (parse("Ps(a | b) & Pw a -> Ps a | O Ps a"), {FrameProperty.AFCP_O, FrameProperty.AFCP_P},
     SearchBounds(4, 1, ("a", "b"))),
]


@pytest.mark.parametrize("target, required, bounds", BUDGET_SEARCHES,
                         ids=["frames", "models", "every-world-models"])
def test_clock_is_read_once_per_candidate(monkeypatch, target, required, bounds):
    monkeypatch.setattr(deontic.search, "_Clock", OneCandidateClock)
    with pytest.raises(SearchTimeout, match=r"examined [01],"):
        find_countermodel(target, required, bounds)


@pytest.mark.parametrize("target, required, bounds", BUDGET_SEARCHES,
                         ids=["frames", "models", "every-world-models"])
def test_clock_is_read_once_per_candidate_when_warm(monkeypatch, target, required, bounds):
    # Each space is kept whole by the first search; the second replays its blocks, each after
    # a clock read.
    monkeypatch.setattr(deontic.search, "_SPACES", {})
    assert not find_countermodel(target, required, bounds).found
    monkeypatch.setattr(deontic.search, "_Clock", OneCandidateClock)
    with pytest.raises(SearchTimeout, match=r"examined [01],"):
        find_countermodel(target, required, bounds)


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
