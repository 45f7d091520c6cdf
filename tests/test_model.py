"""Model data structures, JSON round-trips, and validation."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amcheck.model
from amcheck.cli import main
from amcheck.benchgen import gen_castle, gen_modulo, gen_random_cgf
from amcheck.errors import ModelError
from amcheck.formula import format_coalition
from amcheck.model import (
    MAX_LISTED_MISSING,
    CanonicalFamily,
    Cgf,
    Ef,
    canonical_family,
    format_grand,
    load_model,
    loads_model,
    model_to_json,
    save_model,
    validate_cgf,
    validate_ef,
)

FAMILIES = {
    "castle": lambda: gen_castle(2, 1)[0],
    "modulo": lambda: gen_modulo(3, 4, 10)[0],
    "random": lambda: gen_random_cgf(12, 3, 3, ("p", "q"), 7),
}


class TestFixture:
    def test_loads_and_validates(self, smallgame):
        assert smallgame.kind == "cgf"
        assert smallgame.states == ("w1", "w2", "w3")
        assert smallgame.agents == 3
        assert validate_cgf(smallgame) == []

    def test_valuation(self, smallgame):
        assert smallgame.atom_states("p") == frozenset({"w2"})
        assert smallgame.atom_states("q") == frozenset({"w3"})
        assert smallgame.atom_states("unlisted") == frozenset()

    def test_move_counts(self, smallgame):
        assert smallgame.move_counts["w1"][0] == 2
        assert smallgame.move_counts["w2"][2] == 1

    def test_grand_outcomes(self, smallgame):
        table = smallgame.transitions["w1"]
        assert table[1, 2, 1] == "w2"
        assert table[2, 2, 2] == "w3"
        assert smallgame.transitions["w2"][1, 1, 1] == "w2"
        to_w2 = {g for g, v in table.items() if v == "w2"}
        assert to_w2 == {(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 1)}


class TestJointMoves:
    """A game frame's outcome groups: one per joint move of the coalition."""

    def test_empty_coalition_has_one_joint_move(self, smallgame):
        groups = smallgame.groups("w1", ())
        assert [choice for choice, _ in groups] == [()]
        table = smallgame.transitions["w1"]
        assert groups[0][1] == [table[g] for g in sorted(table)]

    def test_pair_coalition_lexicographic(self, smallgame):
        assert smallgame.groups("w1", (1, 3)) == [
            ((1, 1), ["w2", "w2"]),
            ((1, 2), ["w2", "w3"]),
            ((2, 1), ["w2", "w2"]),
            ((2, 2), ["w3", "w3"]),
        ]

    def test_grand_coalition(self, smallgame):
        assert len(smallgame.groups("w1", (1, 2, 3))) == 8
        assert smallgame.groups("w2", (1, 2, 3)) == [((1, 1, 1), ["w2"])]

    def test_count_is_product_of_bounds(self, smallgame):
        for coalition in [(), (1,), (2,), (1, 2), (1, 2, 3)]:
            expected = 1
            for a in coalition:
                expected *= smallgame.move_counts["w1"][a - 1]
            assert len(smallgame.groups("w1", coalition)) == expected

    def test_unordered_input_normalized(self, smallgame):
        assert smallgame.groups("w1", (3, 1)) == smallgame.groups("w1", (1, 3))

    def test_table_order_does_not_matter(self, smallgame):
        shuffled = loads_model(model_to_json(smallgame))
        shuffled.transitions["w1"] = dict(reversed(shuffled.transitions["w1"].items()))
        for coalition in [(), (2,), (1, 3), (1, 2, 3)]:
            assert shuffled.groups("w1", coalition) == smallgame.groups("w1", coalition)

    def test_errors(self, smallgame):
        with pytest.raises(ModelError, match="unknown state"):
            smallgame.groups("w9", (1,))
        with pytest.raises(ModelError, match="unknown agent 4"):
            smallgame.groups("w1", (4,))


class TestEffectivityGroups:
    def test_listed_sets_in_family_order(self, smallgame_min_ef):
        assert smallgame_min_ef.groups("w1", ()) == [(frozenset({"w2", "w3"}), ["w2", "w3"])]
        assert smallgame_min_ef.groups("w1", (3, 1)) == [
            (frozenset({"w2"}), ["w2"]),
            (frozenset({"w3"}), ["w3"]),
        ]

    def test_errors(self, smallgame_min_ef):
        with pytest.raises(ModelError, match="unknown state"):
            smallgame_min_ef.groups("w9", (1,))
        with pytest.raises(ModelError, match="unknown agent 4"):
            smallgame_min_ef.groups("w1", (4,))


class TestValidation:
    @pytest.mark.parametrize("kind", ["cgf", "ef"])
    def test_header_lines(self, kind):
        # Both frame kinds check the agent count, the states, the initial
        # state and the valuation first, with the same lines in this order.
        validate = validate_cgf if kind == "cgf" else validate_ef

        def frame(states, initial):
            valuation = {"p": frozenset({"w9", "w8"}), "q": frozenset({"w1"})}
            if kind == "cgf":
                return Cgf(states, 0, {}, {}, valuation, initial)
            return Ef(states, 0, {}, valuation, initial)

        assert validate(frame((), "w9")) == [
            "agent count must be at least 1, got 0",
            "state set is empty",
            "initial state w9 is not a state",
            "valuation of p mentions unknown state w8",
            "valuation of p mentions unknown state w9",
            "valuation of q mentions unknown state w1",
        ]
        assert validate(frame(("w1", "w2", "w1"), "w2"))[:4] == [
            "agent count must be at least 1, got 0",
            "duplicate state ids",
            "valuation of p mentions unknown state w8",
            "valuation of p mentions unknown state w9",
        ]

    def test_missing_transition(self, smallgame):
        broken = loads_model(model_to_json(smallgame))
        del broken.transitions["w1"][(1, 1, 1)]
        assert validate_cgf(broken) == [
            "outcome undefined for admissible grand move 1,1,1 at state w1"
        ]

    def test_large_move_counts_enumerate_nothing(self, smallgame, monkeypatch):
        # Too many undefined grand moves to name: they are counted from the
        # move counts, never enumerated.
        def product(*ranges):
            raise AssertionError("grand moves enumerated")

        broken = loads_model(model_to_json(smallgame))
        broken.move_counts["w2"] = (50, 50, 1)
        monkeypatch.setattr(amcheck.model, "itertools", SimpleNamespace(product=product))
        assert 50 * 50 - 1 > MAX_LISTED_MISSING
        assert validate_cgf(broken) == [
            "outcome undefined for 2499 of 2500 admissible grand moves at state w2"
        ]
        with pytest.raises(ModelError, match="undefined for 2499 of 2500"):
            loads_model(model_to_json(broken))

    def test_zero_moves(self, smallgame):
        broken = loads_model(model_to_json(smallgame))
        broken.move_counts["w2"] = (1, 0, 1)
        errors = validate_cgf(broken)
        assert "m(w2,2)=0: every agent needs at least one move at every state" in errors
        # move counts given as lists, as a frame built in code may have them,
        # are as valid as tuples
        listed = Cgf(("a",), 1, {"a": [1]}, {"a": {(1,): "a"}}, {})
        assert validate_cgf(listed) == []
        assert listed.groups("a", ()) == [((), ["a"])]

    def test_extra_transition(self, smallgame):
        broken = loads_model(model_to_json(smallgame))
        broken.transitions["w2"][(1, 2, 1)] = "w2"
        assert validate_cgf(broken) == ["inadmissible grand move 1,2,1 at state w2"]

    def test_target_outside_state_set(self, smallgame):
        broken = loads_model(model_to_json(smallgame))
        broken.transitions["w3"][(1, 1, 1)] = "w9"
        assert validate_cgf(broken) == ["transition w3 --1,1,1--> w9 leaves the state set"]

    def test_duplicate_states(self, smallgame):
        broken = loads_model(model_to_json(smallgame))
        broken.states = ("w1", "w2", "w2")
        assert "duplicate state ids" in validate_cgf(broken)

    def test_unknown_initial(self, smallgame):
        broken = loads_model(model_to_json(smallgame))
        broken.initial = "w9"
        assert "initial state w9 is not a state" in validate_cgf(broken)

    def test_valuation_unknown_state(self, smallgame):
        broken = loads_model(model_to_json(smallgame))
        broken.valuation["p"] = frozenset({"w2", "w9"})
        assert validate_cgf(broken) == ["valuation of p mentions unknown state w9"]

    def test_stray_tables(self, smallgame):
        broken = loads_model(model_to_json(smallgame))
        broken.move_counts["w9"] = (1, 1, 1)
        broken.transitions["w8"] = {(1, 1, 1): "w1"}
        errors = validate_cgf(broken)
        assert "move counts given for unknown state w9" in errors
        assert "transitions given for unknown state w8" in errors

    def test_ef_defects(self, smallgame_min_ef):
        broken = loads_model(model_to_json(smallgame_min_ef))
        broken.effectivity["w1"][(2, 3)] = ()
        broken.effectivity["w2"][(1,)] = (frozenset(),)
        broken.effectivity["w3"][(4,)] = (frozenset({"w3"}),)
        broken.effectivity["w9"] = {(): (frozenset({"w1"}),)}
        errors = validate_ef(broken)
        assert "empty effectivity family for {2,3} at state w1" in errors
        assert "empty effectivity set in {1} at state w2" in errors
        assert "unknown agent in coalition {4} at state w3" in errors
        assert "effectivity given for unknown state w9" in errors

    def test_ef_descending_coalition(self):
        # the reader refuses a descending coalition key; a frame built in
        # code is checked here
        frame = Ef(("a",), 2, {"a": {(2, 1): (frozenset({"a"}),)}}, {})
        assert validate_ef(frame) == ["coalition not strictly ascending: {2,1} at state a"]

    def test_ef_unknown_target_state(self, smallgame_min_ef):
        broken = loads_model(model_to_json(smallgame_min_ef))
        broken.effectivity["w1"][(3,)] = (frozenset({"w9"}),)
        errors = validate_ef(broken)
        assert "effectivity set for {3} at state w1 mentions unknown state w9" in errors


class TestEffectivityFrames:
    def test_golden_file_loads(self, smallgame_min_ef):
        assert smallgame_min_ef.kind == "ef"
        assert validate_ef(smallgame_min_ef) == []

    def test_family_lookup(self, smallgame_min_ef):
        fam = smallgame_min_ef.family("w1", (1, 3))
        assert fam == (frozenset({"w2"}), frozenset({"w3"}))
        assert smallgame_min_ef.family("w1", ()) == (frozenset({"w2", "w3"}),)

    def test_family_errors(self, smallgame_min_ef):
        with pytest.raises(ModelError, match="unknown state w9"):
            smallgame_min_ef.family("w9", ())
        # sparse frames answer only for listed coalitions, and may list none
        # at a state they have
        sparse = loads_model(
            '{"kind":"ef","agents":2,"states":["a","b"],"valuation":{},'
            '"effectivity":{"a":{"{1}":[["a"]]}}}'
        )
        assert sparse.family("a", (1,)) == (frozenset({"a"}),)
        with pytest.raises(ModelError, match=r"no effectivity entry for coalition \{2\} at state a"):
            sparse.family("a", (2,))
        with pytest.raises(ModelError, match=r"^no effectivity entry for coalition \{1\} at state b$"):
            sparse.family("b", (1,))

    def test_canonical_family_order(self):
        fam = canonical_family([{"b", "a"}, {"c"}, {"a", "b"}, {"a"}])
        assert fam == (frozenset({"a"}), frozenset({"c"}), frozenset({"a", "b"}))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.frozensets(st.sampled_from(("a", "b", "w1", "w10", "w2", "w9")), min_size=1)))
def test_canonical_family_sorts_by_size_then_sorted_states(family):
    # the order of the key (len(u), sorted(u)), written out
    expected = tuple(sorted(set(family), key=lambda u: (len(u), sorted(u))))
    got = canonical_family(iter(family))
    assert got == expected
    assert type(got) is CanonicalFamily
    assert canonical_family(got) is got


def _keyed(text: str) -> str:
    """A game frame's text with each flat row written as a table keyed by
    grand-move text in lexicographic order, as frames were once written."""
    data = json.loads(text)
    data["transitions"] = {
        w: dict(zip(
            (format_grand(g) for g in itertools.product(*(range(1, c + 1) for c in data["moves"][w]))), row
        ))
        for w, row in data["transitions"].items()
    }
    return json.dumps(data, separators=(",", ":")) + "\n"


class TestJson:
    def test_round_trip_cgf(self, smallgame, smallgame_path):
        # the keyed file under tests/data is written back as flat rows
        text = model_to_json(smallgame)
        assert text == smallgame_path.with_name("smallgame.flat.cgf.json").read_text()
        again = loads_model(text)
        assert again == smallgame
        assert model_to_json(again) == text

    @pytest.mark.parametrize("family", ["smallgame", *sorted(FAMILIES)])
    def test_keyed_file_saves_flat(self, family, smallgame_path, tmp_path):
        # a keyed file, loaded and saved again, gives a flat file that loads
        # to an equal frame
        keyed = smallgame_path.read_text() if family == "smallgame" else _keyed(model_to_json(FAMILIES[family]()))
        model = loads_model(keyed)
        save_model(model, tmp_path / "m.json")
        flat = (tmp_path / "m.json").read_text()
        assert all(type(row) is list for row in json.loads(flat)["transitions"].values())
        assert load_model(tmp_path / "m.json") == model
        assert _keyed(flat) == keyed

    def test_round_trip_ef(self, smallgame_min_ef, smallgame_min_ef_path):
        text = model_to_json(smallgame_min_ef)
        assert text == smallgame_min_ef_path.read_text()

    def test_initial_preserved(self, smallgame):
        smallgame.initial = "w1"
        obj = json.loads(model_to_json(smallgame))
        assert obj["initial"] == "w1"
        assert loads_model(model_to_json(smallgame)).initial == "w1"

    def test_key_order(self, smallgame):
        obj = json.loads(model_to_json(smallgame))
        assert list(obj) == ["kind", "agents", "states", "valuation", "moves", "transitions"]

    def test_rejects_non_json(self):
        with pytest.raises(ModelError, match="not valid JSON"):
            loads_model("{nope")

    def test_rejects_missing_kind(self):
        with pytest.raises(ModelError, match='"kind"'):
            loads_model('{"agents":1,"states":["a"]}')

    def test_rejects_missing_section(self):
        with pytest.raises(ModelError, match="malformed model JSON"):
            loads_model('{"kind":"cgf","agents":1,"states":["a"],"moves":{"a":[1]}}')

    def test_rejects_bad_grand_key(self):
        with pytest.raises(ModelError, match="bad grand move key"):
            loads_model(
                '{"kind":"cgf","agents":1,"states":["a"],"valuation":{},'
                '"moves":{"a":[1]},"transitions":{"a":{"x":"a"}}}'
            )

    def test_rejects_bad_coalition_key(self):
        with pytest.raises(ModelError, match="bad coalition key"):
            loads_model(
                '{"kind":"ef","agents":1,"states":["a"],"valuation":{},'
                '"effectivity":{"a":{"1":[["a"]]}}}'
            )

    def test_rejects_descending_coalition_key(self):
        with pytest.raises(ModelError, match="not strictly ascending"):
            loads_model(
                '{"kind":"ef","agents":2,"states":["a"],"valuation":{},'
                '"effectivity":{"a":{"{2,1}":[["a"]]}}}'
            )

    @pytest.mark.parametrize("kind, section, value", [
        ("cgf", "transitions", {"a": 5}),
        ("cgf", "transitions", {"a": "a"}),
        ("cgf", "transitions", [1]),
        ("cgf", "moves", [1]),
        ("cgf", "valuation", [1]),
        ("ef", "effectivity", {"a": [1]}),
        ("cgf", "states", "a"),
        ("cgf", "valuation", {"p": "a"}),
        ("cgf", "moves", {"a": "1"}),
        ("ef", "effectivity", {"a": {"{1}": "a"}}),
        ("ef", "effectivity", {"a": {"{1}": ["a"]}}),
    ], ids=[
        "table-int", "table-string", "transitions-list", "moves-list", "valuation-list", "ef-family-list",
        "states-string", "atom-string", "counts-string", "family-string", "set-string",
    ])
    def test_rejects_wrong_shaped_section(self, tmp_path, capsys, kind, section, value):
        obj = {"kind": kind, "agents": 1, "states": ["a"], "valuation": {}}
        if kind == "cgf":
            obj.update(moves={"a": [1]}, transitions={"a": {"1": "a"}})
        else:
            obj.update(effectivity={"a": {"{1}": [["a"]]}})
        obj[section] = value
        text = json.dumps(obj)
        with pytest.raises(ModelError, match="malformed model JSON"):
            loads_model(text)
        model = tmp_path / "m.json"
        model.write_text(text)
        formula = tmp_path / "f.amc"
        formula.write_text("p\n")
        engine = "cgf-game" if kind == "cgf" else "ef-game"
        code = main(["check", "--model", str(model), "--formula", str(formula), "--engine", engine])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("error: malformed model JSON")

    @pytest.mark.parametrize("text, key", [
        ('{"kind":"cgf","agents":1,"states":["a"],"valuation":{},"moves":{"a":[1]},'
         '"transitions":{"a":{"1":"a"},"a":{"1":"a"}}}', "a"),
        ('{"kind":"cgf","agents":1,"states":["a","b"],"valuation":{},"moves":{"a":[1],"b":[1]},'
         '"transitions":{"a":{"1":"a","1":"b"},"b":["b"]}}', "1"),
        ('{"kind":"cgf","agents":1,"states":["a"],"valuation":{},"moves":{"a":[1]},'
         '"transitions":{"a":["a"]},"agents":2}', "agents"),
    ], ids=["state", "grand-move", "top-level"])
    def test_rejects_repeated_key(self, tmp_path, capsys, text, key):
        # json.loads alone keeps a repeated key's last value without a word
        message = f"model JSON repeats the key {key!r} in one object"
        with pytest.raises(ModelError) as raised:
            loads_model(text)
        assert str(raised.value) == message
        (tmp_path / "m.json").write_text(text)
        (tmp_path / "f.amc").write_text("p\n")
        argv = ["check", "--model", str(tmp_path / "m.json"), "--formula", str(tmp_path / "f.amc")]
        assert main([*argv, "--engine", "cgf-game"]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_invalid_model_reports_defects(self):
        with pytest.raises(ModelError, match="outcome undefined"):
            loads_model(
                '{"kind":"cgf","agents":1,"states":["a"],"valuation":{},'
                '"moves":{"a":[2]},"transitions":{"a":{"1":"a"}}}'
            )

    def test_load_model_reads_files(self, smallgame_path):
        model = load_model(smallgame_path)
        assert model.states == ("w1", "w2", "w3")

    def test_format_helpers(self):
        assert format_grand((2, 1, 3)) == "2,1,3"
        assert format_coalition((1, 3)) == "{1,3}"
        assert format_coalition(()) == "{}"


def _defect_file(table):
    """Two states and two agents; state a has move counts (2, 1) and the
    given transition table, b a single self-loop."""
    return json.dumps({
        "kind": "cgf", "agents": 2, "states": ["a", "b"], "valuation": {},
        "moves": {"a": [2, 1], "b": [1, 1]},
        "transitions": {"a": table, "b": {"1,1": "b"}},
    })


KEYED_DEFECTS = [
    ({"1,1": "a", "01,1": "b"}, "outcome undefined for admissible grand move 2,1 at state a"),
    ({"1,1": "a"}, "outcome undefined for admissible grand move 2,1 at state a"),
    ({"1,1": "a", "2,1": "b", "3,1": "a"}, "inadmissible grand move 3,1 at state a"),
    ({"1,1": "a", "2,1": "z"}, "transition a --2,1--> z leaves the state set"),
    ({"1,x": "a", "2,1": "b"}, "bad grand move key '1,x' at state a"),
    ({"1,1": "a", "3,1": "b"},
     "outcome undefined for admissible grand move 2,1 at state a\n"
     "inadmissible grand move 3,1 at state a"),
]
KEYED_DEFECT_IDS = ["same-move-twice", "missing", "inadmissible", "outside", "non-digit", "full-size-inadmissible"]


class TestLoader:
    @pytest.mark.parametrize("family", ["castle", "modulo"])
    def test_each_key_row_is_parsed_once(self, family):
        model = FAMILIES[family]()
        text = model_to_json(model)
        keyed = _keyed(text)
        rows = [tuple(table) for table in json.loads(keyed)["transitions"].values()]
        amcheck.model._grand_row.cache_clear()
        loaded = loads_model(keyed)
        info = amcheck.model._grand_row.cache_info()
        assert info.misses == len(set(rows)) < len(rows)
        assert info.hits == len(rows) - len(set(rows))
        assert loaded.transitions == model.transitions
        assert model_to_json(loaded) == text
        # flat rows name no grand move, so no key row is parsed
        amcheck.model._grand_row.cache_clear()
        assert loads_model(text) == loaded
        assert amcheck.model._grand_row.cache_info().misses == 0

    def test_repeated_bad_row_names_its_state(self):
        amcheck.model._grand_row.cache_clear()
        for state in ("a", "b", "a"):
            text = json.dumps({
                "kind": "cgf", "agents": 2, "states": [state], "valuation": {},
                "moves": {state: [2, 1]}, "transitions": {state: {"1,1": state, "1,x": state}},
            })
            with pytest.raises(ModelError) as exc:
                loads_model(text)
            assert str(exc.value) == f"bad grand move key '1,x' at state {state}"

    def test_huge_and_zero_counts_enumerate_nothing(self, monkeypatch):
        def product(*ranges):
            raise AssertionError("grand moves enumerated")

        monkeypatch.setattr(amcheck.model, "itertools", SimpleNamespace(product=product))
        text = json.dumps({
            "kind": "cgf", "agents": 2, "states": ["a"], "valuation": {},
            "moves": {"a": [1000000000, 0]}, "transitions": {"a": {}},
        })
        with pytest.raises(ModelError) as exc:
            loads_model(text)
        assert str(exc.value) == "m(a,2)=0: every agent needs at least one move at every state"

    def test_non_canonical_key_is_parsed(self):
        model = loads_model(_defect_file({"01,1": "a", "2,1": "b"}))
        assert model.transitions["a"] == {(1, 1): "a", (2, 1): "b"}

    @pytest.mark.parametrize("table, message", [
        *KEYED_DEFECTS,
        # a keyed table's defects read the same whatever its key order
        *((dict(reversed(table.items())), message) for table, message in KEYED_DEFECTS),
    ], ids=[*KEYED_DEFECT_IDS, *(f"reversed-{name}" for name in KEYED_DEFECT_IDS)])
    def test_defect_texts(self, table, message):
        with pytest.raises(ModelError) as exc:
            loads_model(_defect_file(table))
        assert str(exc.value) == message


def _naive_groups(model, w, coalition):
    """Per joint move in lexicographic order, the outcomes of its completions
    in lexicographic order, by a scan of the whole table per joint move."""
    counts = model.move_counts[w]
    table = model.transitions[w]
    return [
        (joint, [table[g] for g in sorted(table) if tuple(g[a - 1] for a in coalition) == joint])
        for joint in itertools.product(*(range(1, counts[a - 1] + 1) for a in coalition))
    ]


class TestRoundTripAndOrder:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("order", ["stored", "reversed"])
    def test_text_and_groups(self, family, order):
        # stored: the flat file as written; reversed: keyed tables whose keys
        # run against the lexicographic order
        text = model_to_json(FAMILIES[family]())
        data = json.loads(text)
        if order == "reversed":
            data["transitions"] = {
                w: dict(reversed(table.items())) for w, table in json.loads(_keyed(text))["transitions"].items()
            }
        model = loads_model(json.dumps(data))
        assert model_to_json(model) == text
        coalitions = [
            c for size in range(model.agents + 1)
            for c in itertools.combinations(range(1, model.agents + 1), size)
        ]
        for w in model.states:
            for coalition in coalitions:
                assert model.groups(w, coalition) == _naive_groups(model, w, coalition)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("table", ["exact", "missing-and-extra", "no-counts"])
    def test_text_matches_sorted_key_formatting(self, family, table, tmp_path, capsys):
        # an exact table is the row of its targets in sorted grand-move
        # order; a table that misses one grand move and has one extra key,
        # so that its size still matches its move counts, is keyed by its own
        # keys, sorted and formatted, and loading it names both defects, as
        # validate_cgf does; so is a table at a state without move counts,
        # which gets no "moves" entry
        model = FAMILIES[family]()
        broken = model.states[-1] if table != "exact" else None
        if table == "missing-and-extra":
            first = min(model.transitions[broken])
            model.transitions[broken][(9,) * model.agents] = model.transitions[broken].pop(first)
            message = (
                f"outcome undefined for admissible grand move {format_grand(first)} at state {broken}\n"
                f"inadmissible grand move {format_grand((9,) * model.agents)} at state {broken}"
            )
        elif table == "no-counts":
            del model.move_counts[broken]
            message = f"no move counts for state {broken}"
        expected = json.loads(model_to_json(model))
        assert list(expected["moves"]) == [w for w in model.states if w != broken or table != "no-counts"]
        expected["transitions"] = {
            w: (
                {format_grand(g): model.transitions[w][g] for g in sorted(model.transitions[w])} if w == broken
                else [model.transitions[w][g] for g in sorted(model.transitions[w])]
            )
            for w in model.states
        }
        text = model_to_json(model)
        assert text == json.dumps(expected, separators=(",", ":")) + "\n"
        if broken:
            with pytest.raises(ModelError) as exc:
                loads_model(text)
            assert str(exc.value) == "\n".join(validate_cgf(model)) == message
            (tmp_path / "m.json").write_text(text)
            (tmp_path / "f.amc").write_text("p\n")
            argv = ["check", "--model", str(tmp_path / "m.json"), "--formula", str(tmp_path / "f.amc")]
            assert main([*argv, "--engine", "cgf-game"]) == 3
            assert capsys.readouterr() == ("", f"error: {message}\n")
        else:
            assert loads_model(text) == model


class TestStrayStates:
    def test_unknown_state_lines_sorted_under_any_hash_seed(self):
        # set iteration order follows PYTHONHASHSEED; the error text must not
        script = (
            "from amcheck.model import Cgf, Ef, validate_cgf, validate_ef\n"
            "stray = ('x2', 'x3', 'x1')\n"
            "g = Cgf(('a',), 1, {'a': (1,), **dict.fromkeys(stray, (1,))},\n"
            "        {'a': {(1,): 'a'}, **{w: {} for w in stray}}, {})\n"
            "e = Ef(('a',), 1, {'a': {(1,): (frozenset('a'),)}, **{w: {} for w in stray}}, {})\n"
            "print('\\n'.join(validate_cgf(g) + validate_ef(e)))\n"
        )
        src = str(Path(amcheck.__file__).resolve().parent.parent)
        expected = "".join(
            f"{what} given for unknown state x{i}\n"
            for what in ("move counts", "transitions", "effectivity") for i in (1, 2, 3)
        )
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            assert run.stdout == expected
