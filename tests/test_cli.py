"""Workspace parsing, serialization round-trip, and the command driver."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import stat
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from conftest import loaded_modules, package_module_names, run_python
from prochain.cli import COMMANDS, DISPATCH, main
from prochain.errors import ParseError, ValidationError
from prochain.workspace import _TABLES, parse_workspace, serialize_workspace

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "workspaces", "moore.json")


def write(tmp_path, doc, name="ws.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


MINIMAL = {
    "ring": "Z",
    "complexes": {"Z0": {"ranks": {"0": 1}, "diffs": {}}},
}


# every section, with integers where the canonical form has strings and
# strings where it has integers, optional fields left out, and keys that no
# parser reads (which the canonical form drops, but for a tower's tail)
NONCANONICAL = {
    "ring": "Z",
    "config": {"budget_filler": "9", "colour": "red"},
    "comment": "not a section",
    "complexes": {"M3": {"ranks": {"0": "1", "1": 1}, "diffs": {"1": [[3]]}, "note": 1},
                  "Z0": {"ranks": {"0": 1}}, "O": {}},
    "maps": {"id_Z0": {"source": "Z0", "target": "Z0", "comps": {"0": [[1]]}},
             "x3_Z0": {"source": "Z0", "target": "Z0", "comps": {"0": [["3"]]},
                       "note": True},
             "to_O": {"source": "Z0", "target": "O"}},
    "groups": {"Z": {"generators": 1}, "Z3": {"generators": "1", "relations": [[3]]},
               "T": {}},
    "group_maps": {"g3": {"source": "Z", "target": "Z", "matrix": [[3]]},
                   "g_id": {"source": "Z", "target": "Z", "matrix": [["1"]], "note": 0},
                   "g0": {"source": "Z", "target": "Z3"}},
    "towers": {"const_Z0": {"entries": ["Z0"], "tail": {"constant_from": "0"}},
               "x3_tower": {"entries": ["Z0", "Z0"], "structure": ["x3_Z0"],
                            "tail": {"repeat_from": 1, "endo": "x3_Z0", "period": "2"},
                            "note": "x"}},
    "group_towers": {"const_Z": {"entries": ["Z"], "structure": [],
                                 "tail": {"constant_from": 0}},
                     "g3_Z": {"entries": ["Z"], "tail": {"repeat_from": "0", "endo": "g3"}}},
    "promaps": {"id_P": {"source": "const_Z0", "target": "const_Z0", "comps": ["id_Z0"],
                         "note": []},
                "x3_P": {"source": "const_Z0", "target": "const_Z0", "comps": ["x3_Z0"]}},
    "group_promaps": {"g_id_P": {"source": "const_Z", "target": "const_Z",
                                 "comps": ["g_id"], "note": {}}},
}

NONCANONICAL_SERIALIZED = {
    "complexes": {"M3": {"diffs": {"1": [["3"]]}, "ranks": {"0": 1, "1": 1}},
                  "O": {"diffs": {}, "ranks": {}},
                  "Z0": {"diffs": {}, "ranks": {"0": 1}}},
    "config": {"budget_filler": 9, "budget_reindex": 8, "lim_window": 24},
    "group_maps": {"g0": {"matrix": [], "source": "Z", "target": "Z3"},
                   "g3": {"matrix": [["3"]], "source": "Z", "target": "Z"},
                   "g_id": {"matrix": [["1"]], "source": "Z", "target": "Z"}},
    "group_promaps": {"g_id_P": {"comps": ["g_id"], "source": "const_Z",
                                 "target": "const_Z"}},
    "group_towers": {"const_Z": {"entries": ["Z"], "structure": [],
                                 "tail": {"constant_from": 0}},
                     "g3_Z": {"entries": ["Z"], "structure": [],
                              "tail": {"endo": "g3", "repeat_from": 0}}},
    "groups": {"T": {"generators": 0, "relations": []},
               "Z": {"generators": 1, "relations": []},
               "Z3": {"generators": 1, "relations": [["3"]]}},
    "maps": {"id_Z0": {"comps": {"0": [["1"]]}, "source": "Z0", "target": "Z0"},
             "to_O": {"comps": {}, "source": "Z0", "target": "O"},
             "x3_Z0": {"comps": {"0": [["3"]]}, "source": "Z0", "target": "Z0"}},
    "promaps": {"id_P": {"comps": ["id_Z0"], "source": "const_Z0", "target": "const_Z0"},
                "x3_P": {"comps": ["x3_Z0"], "source": "const_Z0", "target": "const_Z0"}},
    "ring": "Z",
    "towers": {"const_Z0": {"entries": ["Z0"], "structure": [],
                            "tail": {"constant_from": 0}},
               "x3_tower": {"entries": ["Z0", "Z0"], "structure": ["x3_Z0"],
                            "tail": {"endo": "x3_Z0", "repeat_from": 1}}},
}

# a field ring given as a string, and empty sections, which the canonical
# form leaves out; matrix entries are reduced for the ring, 4 to 1 over F_3
SMALL_F3 = {"ring": {"p": "3"},
            "complexes": {"A": {"ranks": {"0": 1, "1": "1"}, "diffs": {"1": [[4]]}}},
            "maps": {}, "groups": {}}

SMALL_F3_SERIALIZED = {
    "complexes": {"A": {"diffs": {"1": [["1"]]}, "ranks": {"0": 1, "1": 1}}},
    "config": {"budget_filler": 8, "budget_reindex": 8, "lim_window": 24},
    "ring": {"p": 3},
}


class TestParsing:
    def test_minimal(self, tmp_path):
        ws = parse_workspace(write(tmp_path, MINIMAL))
        assert "Z0" in ws.complexes
        assert ws.complexes["Z0"].rank(0) == 1

    def test_golden_moore_file(self):
        ws = parse_workspace(GOLDEN)
        M2 = ws.complexes["M2"]
        assert M2.diff(1).entries == (2,)
        assert "times2" in ws.maps
        assert ws.maps["times2"].comp(0).entries == (2,)

    def test_invalid_differential_names_degree(self, tmp_path):
        doc = {"ring": "Z", "complexes": {"bad": {
            "ranks": {"0": 1, "1": 1, "2": 1},
            "diffs": {"1": [["2"]], "2": [["1"]]}}}}
        with pytest.raises(ValidationError) as err:
            parse_workspace(write(tmp_path, doc))
        assert "bad" in str(err.value) and "degree 2" in str(err.value)

    def test_noncommuting_map_names_degree(self, tmp_path):
        doc = {
            "ring": "Z",
            "complexes": {"M2": {"ranks": {"0": 1, "1": 1},
                                 "diffs": {"1": [["2"]]}}},
            "maps": {"bad": {"source": "M2", "target": "M2",
                             "comps": {"0": [["1"]], "1": [["2"]]}}},
        }
        with pytest.raises(ValidationError) as err:
            parse_workspace(write(tmp_path, doc))
        assert "bad" in str(err.value)

    def test_map_component_shape_names_degree(self, tmp_path):
        doc = {
            "ring": "Z",
            "complexes": {"M2": {"ranks": {"0": 1, "1": 1},
                                 "diffs": {"1": [["2"]]}}},
            "maps": {"bad": {"source": "M2", "target": "M2",
                             "comps": {"0": [["1", "0"]]}}},
        }
        with pytest.raises(ValidationError) as err:
            parse_workspace(write(tmp_path, doc))
        assert "bad" in str(err.value) and "degree 0" in str(err.value)

    @pytest.mark.parametrize("doc, message", [
        ({"ring": "Z", "complexes": {"bad": {
            "ranks": {"0": 1, "1": 1, "2": 1},
            "diffs": {"1": [["2"]], "2": [["1"]]}}}},
         "error: complex 'bad': d o d != 0 at degree 2"),
        ({"ring": "Z",
          "complexes": {"bad": {"ranks": {"0": 1, "1": 1},
                                "diffs": {"1": [["2"]]}}},
          "maps": {"f": {"source": "bad", "target": "bad",
                         "comps": {"0": [["1"]], "1": [["2"]]}}}},
         "error: map 'f': square does not commute at degree 1"),
        ({"ring": "Z", "complexes": {"bad": {"ranks": {"0": 1, "1": -1, "2": 1},
                                             "diffs": {}}}},
         "error: complex 'bad': negative rank -1 at degree 1"),
        ({"ring": "Z",
          "complexes": {"Z0": {"ranks": {"0": 1}, "diffs": {}},
                        "Z1": {"ranks": {"1": 1}, "diffs": {}}},
          "maps": {"x2": {"source": "Z0", "target": "Z0", "comps": {"0": [["2"]]}}},
          "towers": {"bad": {"entries": ["Z0", "Z1"], "structure": ["x2"],
                             "tail": {"constant_from": 1}}}},
         "error: tower 'bad': map 0 source"),
        ({"ring": "Z",
          "complexes": {"Z0": {"ranks": {"0": 1}, "diffs": {}}},
          "maps": {"id": {"source": "Z0", "target": "Z0", "comps": {"0": [["1"]]}},
                   "x2": {"source": "Z0", "target": "Z0", "comps": {"0": [["2"]]}},
                   "x3": {"source": "Z0", "target": "Z0", "comps": {"0": [["3"]]}}},
          "towers": {"T": {"entries": ["Z0", "Z0"], "structure": ["x2"],
                           "tail": {"constant_from": 1}}},
          "promaps": {"bad": {"source": "T", "target": "T", "comps": ["id", "x3"]}}},
         "error: promap 'bad': squares do not commute"),
    ])
    def test_validation_holds_without_asserts(self, tmp_path, doc, message):
        # python -O strips assert statements; parsing must not rely on them.
        # Each case runs the command that reads the object called 'bad'.
        command = ("whitehead" if "bad" in doc.get("promaps", {}) else
                   "postnikov" if "bad" in doc.get("towers", {}) else "homology")
        ws = write(tmp_path, doc)
        p = run_python("-O", "-m", "prochain.cli", command, "bad",
                       "--workspace", ws, "--out", str(tmp_path / "out"))
        assert p.returncode == 1
        assert p.stderr.splitlines() == [message]

    def test_unknown_reference(self, tmp_path):
        doc = {"ring": "Z",
               "maps": {"f": {"source": "nope", "target": "nope", "comps": {}}}}
        with pytest.raises(ParseError):
            parse_workspace(write(tmp_path, doc))

    def test_group_map_off_the_relations_is_one_error_line(self, tmp_path, capsys):
        # 1: Z/2 -> Z sends the generator, of order 2, to one of infinite order
        doc = {"complexes": {"Z0": {"ranks": {"0": 1}}},
               "groups": {"Z2": {"generators": 1, "relations": [[2]]},
                          "Z": {"generators": 1}},
               "group_maps": {"bad": {"source": "Z2", "target": "Z", "matrix": [[1]]}}}
        code = main(["homology", "Z0", "--workspace", write(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: group map 'bad': does not respect relations\n"

    def test_promap_square_past_the_window_is_one_error_line(self, tmp_path, capsys):
        # const Z -> Z <- Z <- Z <- Z <-x2- Z (constant from 4) by the
        # identity: the square at t = 3 does not commute, past the window
        # (0) plus two tail steps
        doc = {"groups": {"Z": {"generators": 1}},
               "group_maps": {"id": {"source": "Z", "target": "Z", "matrix": [[1]]},
                              "x2": {"source": "Z", "target": "Z", "matrix": [[2]]}},
               "group_towers": {
                   "const": {"entries": ["Z"], "structure": [],
                             "tail": {"constant_from": 0}},
                   "late": {"entries": ["Z"] * 5, "structure": ["id", "id", "id", "x2"],
                            "tail": {"constant_from": 4}}},
               "group_promaps": {"bad": {"source": "const", "target": "late",
                                         "comps": ["id"]}}}
        code = main(["pro-iso", "bad", "--workspace", write(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: promap 'bad': squares do not commute\n"

    def test_duplicate_names(self, tmp_path):
        doc = {"ring": "Z",
               "complexes": {"x": {"ranks": {"0": 1}, "diffs": {}}},
               "groups": {"x": {"generators": 1, "relations": []}}}
        with pytest.raises(ValidationError):
            parse_workspace(write(tmp_path, doc))

    def test_bad_ring(self, tmp_path):
        with pytest.raises(ParseError):
            parse_workspace(write(tmp_path, {"ring": {"p": 6}}))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_workspace("/nonexistent/ws.json")

    @pytest.mark.parametrize("raw", [
        b'{"ring": "\xff"}',
        b'{"config": {"lim_window": ' + b"1" * 5000 + b"}}",
    ], ids=["not-utf8", "5000-digits"])
    def test_unreadable_text_is_a_parse_error(self, tmp_path, raw):
        p = tmp_path / "ws.json"
        p.write_bytes(raw)
        with pytest.raises(ParseError):
            parse_workspace(str(p))

    def test_directory_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            parse_workspace(str(tmp_path))

    @pytest.mark.parametrize("doc", [
        {"complexes": {"A": {"ranks": {"0": 10 ** 12}}}},
        {"complexes": {"A": {"ranks": {"0": 3000, "1": 3000}}}},
        {"complexes": {"A": {"ranks": {"0": 1, "100000000000": 1}}}},
        {"groups": {"G": {"generators": 10 ** 12}}},
        {"groups": {"G": {"generators": -3}}},
    ])
    def test_sizes_beyond_the_bounds_are_refused(self, tmp_path, doc):
        with pytest.raises(ValidationError):
            parse_workspace(write(tmp_path, doc))

    def test_huge_modulus_is_refused(self, tmp_path):
        with pytest.raises(ParseError):
            parse_workspace(write(tmp_path, {"ring": {"p": 2 ** 61 - 1}}))

    Z0 = {"ranks": {"0": 1}, "diffs": {}}

    @pytest.mark.parametrize("doc, message", [
        ({"complexes": {"Z0": Z0}, "maps": {"x2": {
            "source": "Z0", "target": "Z0", "comps": {"0": [["2"]]}}},
          "towers": {"T": {"entries": ["Z0"], "structure": [],
                           "tail": {"constant_from": "x"}}}},
         "error: tower 'T' tail: expected an integer, got \"x\""),
        ({"complexes": {"Z0": Z0, "bad": {"ranks": {"0": 1, "1": 1},
                                          "diffs": {"x": [["2"]]}}}},
         "error: complex 'bad' differential degree: expected an integer, got \"x\""),
        ({"complexes": {"Z0": Z0, "bad": {"ranks": {"0": "one"}, "diffs": {}}}},
         "error: complex 'bad' rank: expected an integer, got \"one\""),
        ({"complexes": {"Z0": Z0}, "maps": {"f": {
            "source": "Z0", "target": "Z0", "comps": {"y": [["1"]]}}}},
         "error: map 'f' component degree: expected an integer, got \"y\""),
        ({"complexes": {"Z0": Z0}, "maps": {"f": {
            "source": "Z0", "target": "Z0", "comps": {"0": [["z"]]}}}},
         "error: map 'f' degree 0 row 0: expected an integer, got \"z\""),
        ({"complexes": {"Z0": Z0}, "groups": {"G": {"generators": "two"}}},
         "error: group 'G' generators: expected an integer, got \"two\""),
        ({"complexes": {"Z0": Z0},
          "groups": {"G": {"generators": 1, "relations": [["z"]]}}},
         "error: group 'G' relation 0: expected an integer, got \"z\""),
        ({"complexes": {"Z0": Z0}, "config": {"budget_filler": "eight"}},
         "error: config budget_filler: expected an integer, got \"eight\""),
        ({"complexes": {"Z0": Z0}, "config": {"lim_window": [24]}},
         "error: config lim_window: expected an integer, got [24]"),
        ({"ring": {"p": "x"}, "complexes": {"Z0": Z0}},
         "error: ring: expected an integer, got \"x\""),
    ])
    def test_malformed_number_is_one_error_line(self, tmp_path, capsys, doc, message):
        code = main(["homology", "Z0", "--workspace", write(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize("doc, message", [
        ({"complexes": {"Z0": {"ranks": {"0": 1.9}}}},
         "error: complex 'Z0' rank: expected an integer, got 1.9"),
        ({"complexes": {"Z0": Z0}, "maps": {"f": {
            "source": "Z0", "target": "Z0", "comps": {"0": [[2.7]]}}}},
         "error: map 'f' degree 0 row 0: expected an integer, got 2.7"),
        ({"complexes": {"Z0": {"ranks": {"0": True}}}},
         "error: complex 'Z0' rank: expected an integer, got true"),
    ], ids=["fractional-rank", "fractional-entry", "bool-rank"])
    def test_float_or_bool_is_one_error_line(self, tmp_path, capsys, doc, message):
        # int() would take 1.9 as 1, 2.7 as 2 and true as 1
        code = main(["roundtrip", "--workspace", write(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"complexes": {"Z0": Z0}, "config": [1]},
         "error: config: expected an object, got [1]"),
        ({"complexes": {"Z0": Z0, "x": [1]}},
         "error: complex 'x': expected an object, got [1]"),
        ({"complexes": {"Z0": Z0, "x": {"ranks": [1]}}},
         "error: complex 'x' ranks: expected an object, got [1]"),
        ({"complexes": {"Z0": Z0},
          "groups": {"G": {"generators": 1, "relations": [1]}}},
         "error: group 'G' relation 0: expected an array, got 1"),
        ({"complexes": {"Z0": Z0}, "maps": {"f": {
            "source": ["Z0"], "target": "Z0", "comps": {}}}},
         "error: map 'f' source: expected a string, got [\"Z0\"]"),
        ({"complexes": {"Z0": Z0}, "towers": {"T": {
            "entries": [["Z0"]], "structure": [], "tail": {"constant_from": 0}}}},
         "error: tower 'T' entries: expected a string, got [\"Z0\"]"),
        # every name is checked to be a string before any is looked up
        ({"complexes": {"Z0": Z0}, "towers": {"T": {
            "entries": ["nosuch", 5], "structure": [], "tail": {"constant_from": 1}}}},
         "error: tower 'T' entries: expected a string, got 5"),
    ])
    def test_wrong_json_type_is_one_error_line(self, tmp_path, capsys, doc, message):
        code = main(["homology", "Z0", "--workspace", write(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [message]


# keys the parser reads, so that generated documents get past the top level
WORKSPACE_KEYS = ("ring", "p", "config", "budget_filler", "budget_reindex",
                  "lim_window", "complexes", "ranks", "diffs", "maps", "source",
                  "target", "comps", "groups", "generators", "relations",
                  "group_maps", "matrix", "towers", "group_towers", "entries",
                  "structure", "tail", "constant_from", "repeat_from", "endo",
                  "promaps", "group_promaps", "M2", "Z0", "Z", "Z2", "times2_Z0")

json_keys = st.one_of(st.text(max_size=6), st.sampled_from(WORKSPACE_KEYS),
                      st.integers(min_value=-3, max_value=3).map(str))
# numbers a workspace must refuse cleanly, which st.integers and st.floats
# seldom reach inside a nested document
EXTREME_NUMBERS = (float("inf"), float("-inf"), float("nan"), 1e300, 10 ** 12,
                   -10 ** 12, 2 ** 64)
json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6) | st.sampled_from(EXTREME_NUMBERS)
                | st.sampled_from(WORKSPACE_KEYS)
                | st.integers(min_value=-3, max_value=3).map(str))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_keys, inner, max_size=4),
    max_leaves=24)


@st.composite
def mutated_golden(draw):
    """workspaces/moore.json with about one value in twelve, at any depth,
    replaced: a number or string by a JSON scalar, an array or object by
    an arbitrary JSON value."""
    def mutate(node):
        if isinstance(node, (dict, list)):
            if draw(st.integers(0, 11)) == 0:
                return draw(json_values)
            if isinstance(node, dict):
                return {k: mutate(v) for k, v in node.items()}
            return [mutate(v) for v in node]
        return draw(json_scalars) if draw(st.integers(0, 11)) == 0 else node
    with open(GOLDEN) as f:
        return mutate(json.load(f))


class TestParserFuzz:
    @given(st.one_of(json_values, st.dictionaries(json_keys, json_values, max_size=6),
                     mutated_golden()))
    @settings(max_examples=300, deadline=None)
    def test_only_parse_and_validation_errors(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ws.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            try:
                parse_workspace(path)
            except (ParseError, ValidationError):
                pass


class TestRoundTrip:
    def test_canonical_byte_identity(self):
        with open(GOLDEN) as f:
            text = f.read()
        ws = parse_workspace(GOLDEN)
        assert serialize_workspace(ws) == text

    def test_idempotent_on_noncanonical(self, tmp_path):
        p = write(tmp_path, MINIMAL)
        once = serialize_workspace(parse_workspace(p))
        q = tmp_path / "canon.json"
        q.write_text(once)
        assert serialize_workspace(parse_workspace(str(q))) == once

    @pytest.mark.parametrize("doc, canonical", [
        (NONCANONICAL, NONCANONICAL_SERIALIZED), (SMALL_F3, SMALL_F3_SERIALIZED),
    ], ids=["every-section", "field-ring"])
    def test_noncanonical_document(self, tmp_path, doc, canonical):
        once = serialize_workspace(parse_workspace(write(tmp_path, doc)))
        assert once == json.dumps(canonical, indent=2, sort_keys=True) + "\n"
        q = tmp_path / "canon.json"
        q.write_text(once)
        assert serialize_workspace(parse_workspace(str(q))) == once

    def test_non_integer_extra_tail_key_is_dropped(self, tmp_path, capsys):
        # parsing reads only the tail keys it knows, and the canonical form
        # keeps only those
        doc = {"complexes": {"Z0": {"ranks": {"0": 1}}},
               "towers": {"T": {"entries": ["Z0"],
                                "tail": {"constant_from": 0, "period": "x"}}}}
        out = tmp_path / "out"
        code = main(["roundtrip", "--workspace", write(tmp_path, doc), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        canonical = json.loads((out / "workspace_canonical.json").read_text())
        assert canonical["towers"]["T"]["tail"] == {"constant_from": 0}


# one name tuple per command on workspaces/moore.json; lift and whitehead
# reach only clean errors there, lift after its handler's imports and
# whitehead at the kind check before its handler, so that
# test_whitehead_reports_are_pinned runs whitehead under python -O
EVERY_COMMAND = [
    ["homology", "M2"], ["truncate", "M2", "0"], ["classify", "times2"],
    ["factor", "times2", "0"], ["lift", "times2", "times2", "times2", "times2", "0"],
    ["cohomology", "M2", "Z2", "0"], ["pro-iso", "id_tower2"],
    ["limlim1", "tower2_Z"], ["prohom", "tower2_Z", "const_Z4"],
    ["whitehead", "id_tower2"], ["postnikov", "const_M2"],
    ["fibrant-check", "tower2_Z0"], ["prohom-const", "Z0", "tower2_Z0", "0"],
    ["derived-hom", "M2", "M2", "0"], ["ahss", "M2", "M2"],
    ["pro-ahss", "const_M2", "M2"], ["selftest"], ["roundtrip"],
]

# sha256 of every ahss and pro-ahss report on workspaces/moore.json, as
# test_ahss_reports_are_pinned hashes them
AHSS_REPORTS_SHA256 = "9399398ddcf5ace2861b0f532401716f9d61f339e8d45fa4c18a69f0860638b6"

# sha256 of the limlim1, pro-iso, prohom, prohom-const, postnikov,
# fibrant-check and whitehead reports on workspaces/moore.json, as
# test_pro_reports_are_pinned hashes them
PRO_REPORTS_SHA256 = "25df399245448ff0dcccd390472c446788ff9a49e6dcba5fe8a2e167c5bd2846"

# sha256 of the homology, truncate, classify, factor, cohomology,
# derived-hom and lift runs on workspaces/moore.json, as
# test_tstruct_reports_are_pinned hashes them
TSTRUCT_REPORTS_SHA256 = "ea47363ad617781aee9d944e2d05db25d5153ae3468132a36e58fe22b1051471"

# python -c RUN_COMMANDS WORKSPACE OUT CASES: every case in one interpreter,
# each into its own out dir; prints [exit code, stderr] per case as JSON
RUN_COMMANDS = """
import contextlib, io, json, sys
from prochain.cli import main
workspace, out, cases = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
results = []
for k, args in enumerate(cases):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(args + ["--workspace", workspace, "--out", f"{out}/{k}"])
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def run_cases(tmp_path, cases, *flags, workspace=GOLDEN):
    """Run the cases in one interpreter; their [exit code, stderr] pairs."""
    p = run_python(*flags, "-c", RUN_COMMANDS, workspace, str(tmp_path),
                   json.dumps(cases))
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


def assert_report_or_one_error_line(args, code, err):
    lines = err.splitlines()
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error:"), (args, err)
    else:
        assert code in (0, 2) and lines == [], (args, err)


# the operands of each command as a user writes them: the kind of object
# each name must be, or int for an integer; prohom-const takes a complex and
# a tower in either order, written here in one of them
OPERANDS = {
    "homology": ("complex",), "truncate": ("complex", int), "classify": ("map",),
    "factor": ("map", int), "lift": ("map", "map", "map", "map", int),
    "cohomology": ("complex", "group", int), "pro-iso": ("group promap",),
    "limlim1": ("group tower",), "prohom": ("group tower", "group tower"),
    "whitehead": ("promap",), "postnikov": ("tower",), "fibrant-check": ("tower",),
    "prohom-const": ("complex", "tower", int),
    "derived-hom": ("complex", "complex", int), "ahss": ("complex", "complex"),
    "pro-ahss": ("tower", "complex", int, int), "selftest": (), "roundtrip": (),
}

# one object of each kind on workspaces/moore.json, which has no chain promap
NAME_OF_KIND = {"complex": "M2", "map": "times2", "group": "Z2", "group map": "g_times2",
                "tower": "const_M2", "group tower": "tower2_Z",
                "group promap": "id_tower2"}
KIND_OF_NAME = {name: kind for kind, name in NAME_OF_KIND.items()}


def operand_error_cases(cmd):
    """(names, stderr) for the operand errors of cmd on workspaces/moore.json,
    each case with one fault, and then a few with two, which show the order
    of the checks: count, integers, window ends, unknown names, kinds."""
    kinds = OPERANDS[cmd]
    # no case looks up whitehead's base name: a promap would be valid there
    base = ["0" if kind is int else NAME_OF_KIND.get(kind, "nosuch") for kind in kinds]
    objects = [k for k, kind in enumerate(kinds) if kind is not int]
    ints = [k for k, kind in enumerate(kinds) if kind is int]

    def at(k, name, names=base):
        return names[:k] + [name] + names[k + 1:]

    def wrong(k):
        return next(name for kind, name in NAME_OF_KIND.items() if kind != kinds[k])

    def count_error(got):
        if cmd == "pro-ahss":
            return "error: pro-ahss takes X Y [n_lo n_hi]\n"
        return f"error: {cmd} takes {len(kinds)} arguments, got {got}\n"

    def kind_error(k, name):
        if cmd == "prohom-const":
            return "error: prohom-const needs one tower and one complex\n"
        return f"error: '{name}' is a {KIND_OF_NAME[name]}, expected a {kinds[k]}\n"

    unknown = "error: unknown object 'nosuch'\n"
    not_int = "error: expected an integer argument, got 'x'\n"
    cases = [(base + ["x"], count_error(len(base) + 1))]
    if base:
        cases.append((base[:-1], count_error(len(base) - 1)))
    if cmd == "pro-ahss":
        cases.append((base[:1], count_error(1)))
    for k in objects:
        cases.append((at(k, "nosuch"), unknown))
        cases += [(at(k, name), kind_error(k, name))
                  for kind, name in NAME_OF_KIND.items() if kind != kinds[k]]
    cases += [(at(k, "x"), not_int) for k in ints]
    if len(objects) > 1:
        first, last = objects[0], objects[-1]
        cases.append((at(last, "nosuch", at(first, wrong(first))), unknown))
        cases.append((at(last, wrong(last), at(first, wrong(first))),
                      kind_error(first, wrong(first))))
    if objects and ints:
        cases.append((at(ints[-1], "x", at(objects[0], "nosuch")), not_int))
    if cmd == "pro-ahss":
        bound = "error: pro-ahss window ends must lie within +-2050\n"
        cases.append((at(3, "2051", at(0, "nosuch")), bound))
        cases.append((at(3, "x", at(2, "2051")), not_int))
    return cases


class TestOperandErrors:
    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_operand_errors_are_pinned(self, tmp_path, cmd):
        # exit code 1, one error line on stderr, nothing on stdout and no report
        cases = operand_error_cases(cmd)
        results = []
        for k, (names, _) in enumerate(cases):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([cmd, *names, "--workspace", GOLDEN,
                             "--out", str(tmp_path / str(k))])
            results.append((names, code, err.getvalue(), out.getvalue()))
        assert results == [(names, 1, stderr, "") for names, stderr in cases]
        assert [f for f in tmp_path.rglob("*") if f.is_file()] == []

    def test_operand_kinds_are_known(self):
        # a mistyped kind in DISPATCH would fail only on a user's command line
        known = {kind for kind, _ in _TABLES} | {int, None}
        assert [(cmd, kind) for cmd, (_, kinds) in DISPATCH.items()
                for kind in kinds if kind not in known] == []


# workspaces/moore.json has no chain promap; this workspace has three,
# on towers of Z0: the identity and x2 on the constant tower, and zero
# components from Z0 <-0- Z0 <-0- ... to the constant zero tower
WHITEHEAD_WORKSPACE = {
    "ring": "Z",
    "complexes": {"Z0": {"ranks": {"0": 1}, "diffs": {}},
                  "O": {"ranks": {}, "diffs": {}}},
    "maps": {"id_Z0": {"source": "Z0", "target": "Z0", "comps": {"0": [["1"]]}},
             "x2_Z0": {"source": "Z0", "target": "Z0", "comps": {"0": [["2"]]}},
             "x0_Z0": {"source": "Z0", "target": "Z0", "comps": {"0": [["0"]]}},
             "to_O": {"source": "Z0", "target": "O", "comps": {}}},
    "towers": {"const_Z0": {"entries": ["Z0"], "structure": [],
                            "tail": {"constant_from": 0}},
               "zero_Z0": {"entries": ["Z0"], "structure": [],
                           "tail": {"repeat_from": 0, "endo": "x0_Z0"}},
               "const_O": {"entries": ["O"], "structure": [],
                           "tail": {"constant_from": 0}}},
    "promaps": {"id": {"source": "const_Z0", "target": "const_Z0", "comps": ["id_Z0"]},
                "x2": {"source": "const_Z0", "target": "const_Z0", "comps": ["x2_Z0"]},
                "to_zero": {"source": "zero_Z0", "target": "const_O",
                            "comps": ["to_O"]}},
}


def lift_squares_workspace():
    """The squares i -> i, p -> p of factor_n(times2, n) = (i, p) on the
    Moore complex M2, n in degrees, which the identity of the middle complex
    lifts: (the workspace document, degrees)."""
    from prochain.tstruct import factor_n

    def complex_doc(X):
        return {"ranks": {str(k): X.rank(k) for k in X.degrees},
                "diffs": {str(k): X.diff(k).to_lists() for k in X.degrees[1:]}}

    def map_doc(f, source, target):
        # a component without rows is written as [], which has no shape
        return {"source": source, "target": target,
                "comps": {str(k): f.comp(k).to_lists()
                          for k in range(f.lo, f.lo + len(f.comps)) if f.comp(k).rows}}

    times2 = parse_workspace(GOLDEN).maps["times2"]
    doc = {"complexes": {"M2": complex_doc(times2.source)}, "maps": {}}
    degrees = ("-1", "0", "1")
    for n in degrees:
        i, p = factor_n(times2, int(n))
        doc["complexes"][f"Z{n}"] = complex_doc(i.target)
        doc["maps"][f"i{n}"] = map_doc(i, "M2", f"Z{n}")
        doc["maps"][f"p{n}"] = map_doc(p, f"Z{n}", "M2")
    return doc, degrees


class TestDriver:
    def run(self, tmp_path, *args):
        out = tmp_path / "out"
        code = main([*args, "--workspace", GOLDEN, "--out", str(out)])
        return code, out

    def test_homology(self, tmp_path):
        code, out = self.run(tmp_path, "homology", "M2")
        assert code == 0
        body = (out / "homology_M2.tsv").read_text()
        assert "0\tZ/2" in body

    def test_derived_hom(self, tmp_path):
        code, out = self.run(tmp_path, "derived-hom", "M2", "M2", "0")
        assert code == 0
        assert "Z/2" in (out / "derived_hom_M2_M2_0.tsv").read_text()

    def test_ahss_outputs(self, tmp_path):
        code, out = self.run(tmp_path, "ahss", "M2", "M2")
        assert code == 0
        e2 = (out / "ahss_M2_M2_e2.tsv").read_text()
        assert "0\t0\t2\t0" in e2 and "-1\t0\t2\t0" in e2
        report = (out / "ahss_M2_M2_report.tsv").read_text()
        assert "graded_comparison_all_iso\ttrue" in report

    def test_unknown_exit_code(self, tmp_path):
        # lim1 obstruction makes the value UNKNOWN: exit code 2
        code, out = self.run(tmp_path, "prohom-const", "Z0", "tower2_Z0", "0")
        assert code == 2
        body = (out / "prohom_const_Z0_tower2_Z0_0.tsv").read_text()
        assert "UNKNOWN" in body and "NonzeroUncountable" in body

    @staticmethod
    def derived_hom_b_b_0(tmp_path, document):
        """derived-hom B B 0 on the workspace document in a child process.
        The address-space limit of the child only keeps a regression from
        filling the machine's memory; the size checks refuse before any
        allocation."""
        path = tmp_path / "B.json"
        path.write_text(document)
        return run_python("-c", "import resource, sys\n"
                          "resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))\n"
                          "from prochain.cli import main\n"
                          "sys.exit(main(sys.argv[1:]))",
                          "derived-hom", "B", "B", "0", "--workspace", str(path),
                          "--out", str(tmp_path / "out"))

    def test_dense_matrix_past_the_budget_is_one_error_line(self, tmp_path):
        # Hom(B, B) has 2 * 1500^2 generators in degree 0 and 1500^2 in
        # degree -1, so its differential would have 10^13 entries; it is
        # refused from the ranks, before a block is built
        p = self.derived_hom_b_b_0(
            tmp_path, '{"ring":"Z","complexes":{"B":{"ranks":{"0":1500,"1":1500},"diffs":{}}}}')
        assert p.returncode == 1
        assert p.stderr == ("error: Hom complex differential of shape 2250000x4500000 would "
                            "have 10125000000000 entries, more than the 16777216 allowed\n")

    def test_smith_transform_past_the_budget_is_one_error_line(self, tmp_path):
        # Hom(B, B) has 3000^2 generators in degree 0 and a 0 x 9 * 10^6
        # differential, whose cycles would be read off a Smith V with
        # 8.1 * 10^13 entries
        p = self.derived_hom_b_b_0(
            tmp_path, '{"ring":"Z","complexes":{"B":{"ranks":{"0":3000},"diffs":{}}}}')
        assert p.returncode == 1
        assert p.stderr == ("error: Smith transform of shape 9000000x9000000 would have "
                            "81000000000000 entries, more than the 16777216 allowed\n")

    def test_error_exit_code(self, tmp_path):
        code = main(["homology", "missing_object", "--workspace", GOLDEN,
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_pro_iso(self, tmp_path):
        code, out = self.run(tmp_path, "pro-iso", "id_tower2")
        assert code == 0
        assert "verdict\ttrue" in (out / "pro_iso_id_tower2.tsv").read_text()

    def test_limlim1(self, tmp_path):
        code, out = self.run(tmp_path, "limlim1", "tower2_Z")
        assert code == 0
        body = (out / "limlim1_tower2_Z.tsv").read_text()
        assert "lim\t0" in body and "NonzeroUncountable" in body

    def test_determinism(self, tmp_path):
        _, out1 = self.run(tmp_path, "ahss", "M2", "M2")
        first = (out1 / "ahss_M2_M2_e2.tsv").read_bytes()
        code = main(["ahss", "M2", "M2", "--workspace", GOLDEN,
                     "--out", str(tmp_path / "out2")])
        second = (tmp_path / "out2" / "ahss_M2_M2_e2.tsv").read_bytes()
        assert first == second

    def test_whitehead_and_postnikov(self, tmp_path):
        code, out = self.run(tmp_path, "postnikov", "const_M2")
        assert code == 0
        assert "weak_equivalence" in (out / "postnikov_const_M2.tsv").read_text()
        code, out = self.run(tmp_path, "fibrant-check", "const_M2")
        assert code == 0

    def test_selftest(self, tmp_path):
        code = main(["selftest", "--out", str(tmp_path / "st"), "--seed", "1"])
        assert code == 0
        body = (tmp_path / "st" / "selftest.tsv").read_text()
        assert "FAIL" not in body

    @pytest.mark.parametrize("args", [
        ["homology", "tower2_Z0"],
        ["limlim1", "M2"],
        ["whitehead", "id_tower2"],
        ["truncate", "M2", "x"],
        ["homology", "M2", "--seed", "x"],
        ["nosuch"],
        [],
    ])
    def test_bad_argument_is_one_error_line(self, tmp_path, args):
        p = run_python("-m", "prochain.cli", *args, "--workspace", GOLDEN,
                       "--out", str(tmp_path / "out"))
        assert p.returncode == 1
        assert "Traceback" not in p.stderr
        lines = p.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        if not args:
            # names may be empty (selftest, roundtrip), so only command is required
            assert lines == ["error: the following arguments are required: command"]

    def test_unknown_rows_name_a_reason_and_no_setting(self, tmp_path):
        # an UNKNOWN row gives its reason; the lim_window key, which
        # workspaces still carry, changes no report
        with open(GOLDEN) as f:
            doc = json.load(f)
        doc["config"]["lim_window"] = 1
        cases = [["pro-ahss", "tower2_Z0", "Z0"], ["prohom", "tower2_Z", "tower2_Z"],
                 ["prohom-const", "Z0", "tower2_Z0", "0"],
                 ["prohom-const", "tower2_Z0", "Z0", "0"]]
        runs = []
        for workspace in (GOLDEN, write(tmp_path, doc)):
            out = tmp_path / ("golden" if workspace == GOLDEN else "window1")
            assert run_cases(out, cases, workspace=workspace) == [[2, ""]] * len(cases)
            runs.append({str(f.relative_to(out)): f.read_text()
                         for f in out.rglob("*") if f.is_file()})
        assert runs[0] == runs[1]
        reports = runs[0]
        assert reports["2/prohom_const_Z0_tower2_Z0_0.tsv"].splitlines()[1] == \
            "from_constant\tUNKNOWN: lim1 obstruction\t0\tNonzeroUncountable"
        unknown = "UNKNOWN: colimit not finitely generated"
        assert reports["1/prohom_tower2_Z_tower2_Z.tsv"] == f"group\n{unknown}\n"
        assert reports["3/prohom_const_tower2_Z0_Z0_0.tsv"].splitlines()[1] == \
            f"to_constant\t{unknown}"
        for name in ("e2", "abutment"):
            rows = reports[f"0/pro_ahss_tower2_Z0_Z0_{name}.tsv"].splitlines()
            assert [r.split("\t")[-1] for r in rows if "UNKNOWN" in r] == [unknown]

    def test_a_colimit_neither_invertible_nor_nilpotent_is_decided(self, tmp_path):
        # colim_s Hom(Z/2 (+) Z, Z/2) along precomposition with diag(0, 1)
        # is its stable image Z/2, a report with no UNKNOWN row
        with open(GOLDEN) as f:
            doc = json.load(f)
        doc["groups"]["Z2_Z"] = {"generators": 2, "relations": [[2, 0]]}
        doc["group_maps"]["diag01"] = {"source": "Z2_Z", "target": "Z2_Z",
                                       "matrix": [[0, 0], [0, 1]]}
        doc["group_towers"]["diag01_tower"] = {
            "entries": ["Z2_Z"], "tail": {"repeat_from": 0, "endo": "diag01"}}
        doc["group_towers"]["const_Z2"] = {"entries": ["Z2"], "tail": {"constant_from": 0}}
        out = tmp_path / "out"
        code = main(["prohom", "diag01_tower", "const_Z2", "--workspace",
                     write(tmp_path, doc), "--out", str(out)])
        assert code == 0
        assert (out / "prohom_diag01_tower_const_Z2.tsv").read_text() == "group\nZ/2\n"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["-h"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: prochain")

    @pytest.mark.parametrize("below", [False, True])
    def test_out_at_a_file_is_one_error_line(self, tmp_path, below):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "out" if below else blocker)
        p = run_python("-m", "prochain.cli", "homology", "M2", "--workspace", GOLDEN,
                       "--out", out)
        assert p.returncode == 1
        lines = p.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and out in lines[0]

    @pytest.mark.parametrize("args", [
        ["ahss", "M2", "M2"],
        ["pro-ahss", "const_M2", "M2"],
        ["limlim1", "tower2_Z"],
    ])
    def test_reports_are_identical_under_optimize(self, tmp_path, args):
        # python -O strips assert statements; no report may depend on them
        reports = []
        for flags in ([], ["-O"]):
            out = tmp_path / ("O" if flags else "plain")
            p = run_python(*flags, "-m", "prochain.cli", *args, "--workspace", GOLDEN,
                           "--out", str(out))
            assert p.returncode == 0, p.stderr
            reports.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert reports[0] and reports[0] == reports[1]

    def test_every_command_is_identical_under_optimize(self, tmp_path):
        # python -O strips assert statements; no report, exit code or error
        # may depend on them, nor on a handler's imports
        assert sorted(args[0] for args in EVERY_COMMAND) == sorted(COMMANDS)
        runs = []
        for flags in ([], ["-O"]):
            out = tmp_path / ("O" if flags else "plain")
            results = run_cases(out, EVERY_COMMAND, *flags)
            reports = {str(f.relative_to(out)): f.read_bytes()
                       for f in out.rglob("*") if f.is_file()}
            runs.append((results, reports))
        assert runs[0] == runs[1]
        results, reports = runs[0]
        for args, (code, err) in zip(EVERY_COMMAND, results):
            assert_report_or_one_error_line(args, code, err)
        assert [args[0] for args, (code, _) in zip(EVERY_COMMAND, results)
                if code == 1] == ["lift", "whitehead"]
        assert {name.split("/")[0] for name in reports} == \
            {str(k) for k, (code, _) in enumerate(results) if code != 1}

    def test_degrees_past_the_ends_and_reversed_windows(self, tmp_path):
        # truncate --mode below and pro-ahss windows at degrees outside every
        # complex, and with the window ends reversed
        cases = [["truncate", X, n, "--mode", "below"]
                 for X in ("M2", "Z0") for n in ("-2", "3")]
        cases += [["pro-ahss", T, Y, lo, hi]
                  for T in ("const_M2", "tower2_Z0") for Y in ("M2", "Z0")
                  for lo, hi in (("-2", "3"), ("3", "-2"))]
        for args, (code, err) in zip(cases, run_cases(tmp_path, cases)):
            assert_report_or_one_error_line(args, code, err)

    def test_ahss_reports_are_pinned(self, tmp_path):
        # every ahss pair, and every pro-ahss pair with the default window and
        # three others (one empty, one reversed), on workspaces/moore.json:
        # exit codes, report names and report bytes, byte for byte
        ws = parse_workspace(GOLDEN)
        cases = [["ahss", X, Y] for X in sorted(ws.complexes) for Y in sorted(ws.complexes)]
        cases += [["pro-ahss", T, Y, *window] for T in sorted(ws.towers)
                  for Y in sorted(ws.complexes)
                  for window in ([], ["-2", "3"], ["0", "0"], ["3", "-2"])]
        digest = hashlib.sha256()
        for k, args in enumerate(cases):
            out = tmp_path / str(k)
            code = main([*args, "--workspace", GOLDEN, "--out", str(out)])
            digest.update(json.dumps([args, code]).encode())
            for f in sorted(out.iterdir()):
                body = f.read_bytes()
                digest.update(f"{f.name} {len(body)}\n".encode() + body)
        assert len(cases) == 20
        assert digest.hexdigest() == AHSS_REPORTS_SHA256

    def test_pro_reports_are_pinned(self, tmp_path):
        # the pro-layer commands on workspaces/moore.json, hashed as in
        # test_ahss_reports_are_pinned; the workspace has group promaps only,
        # so whitehead pins its clean error there
        ws = parse_workspace(GOLDEN)
        cases = [["limlim1", T] for T in sorted(ws.group_towers)]
        cases += [["pro-iso", f] for f in sorted(ws.group_promaps)]
        cases += [["prohom", X, Y] for X in sorted(ws.group_towers)
                  for Y in sorted(ws.group_towers)]
        cases += [["prohom-const", *pair, n] for T in sorted(ws.towers)
                  for Y in sorted(ws.complexes) for pair in ((T, Y), (Y, T))
                  for n in ("-1", "0", "1")]
        cases += [[cmd, T] for T in sorted(ws.towers)
                  for cmd in ("postnikov", "fibrant-check")]
        cases += [["whitehead", f] for f in sorted(ws.promaps) + sorted(ws.group_promaps)]
        digest = hashlib.sha256()
        for k, args in enumerate(cases):
            out = tmp_path / str(k)
            code = main([*args, "--workspace", GOLDEN, "--out", str(out)])
            digest.update(json.dumps([args, code]).encode())
            for f in sorted(out.iterdir()):
                body = f.read_bytes()
                digest.update(f"{f.name} {len(body)}\n".encode() + body)
        assert len(cases) == 36
        assert digest.hexdigest() == PRO_REPORTS_SHA256

    def test_tstruct_reports_are_pinned(self, tmp_path):
        # the t-structure commands on workspaces/moore.json, hashed as in
        # test_ahss_reports_are_pinned and with stderr too: no 4-tuple of
        # maps there is a lifting problem, so lift pins its clean errors
        ws = parse_workspace(GOLDEN)
        complexes, maps = sorted(ws.complexes), sorted(ws.maps)
        degrees = ("-2", "-1", "0", "1", "3")
        cases = [["homology", X] for X in complexes]
        cases += [["truncate", X, n, "--mode", mode] for X in complexes
                  for mode in ("above", "below") for n in degrees]
        cases += [["classify", f] for f in maps]
        cases += [["factor", f, n] for f in maps for n in degrees]
        cases += [["cohomology", X, A, p] for X in complexes for A in sorted(ws.groups)
                  for p in ("-1", "0", "1", "2")]
        cases += [["derived-hom", X, Y, n] for X in complexes for Y in complexes
                  for n in ("-1", "0", "1")]
        cases += [["lift", *square, n] for square in itertools.product(maps, repeat=4)
                  for n in ("-1", "0", "1")]
        digest = hashlib.sha256()
        codes = []
        for k, args in enumerate(cases):
            out = tmp_path / str(k)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*args, "--workspace", GOLDEN, "--out", str(out)])
            codes.append(code)
            digest.update(json.dumps([args, code, err.getvalue()]).encode())
            for f in sorted(out.iterdir()):
                body = f.read_bytes()
                digest.update(f"{f.name} {len(body)}\n".encode() + body)
        assert len(cases) == 319
        assert (codes.count(0), codes.count(1)) == (76, 243)
        assert digest.hexdigest() == TSTRUCT_REPORTS_SHA256

    def test_whitehead_reports_are_pinned(self, tmp_path):
        # plain and under python -O, which strips assert statements: on
        # workspaces/moore.json whitehead stops at the kind check, so here
        # is where is_hstar_weak_equivalence runs under -O
        cases = [["whitehead", f] for f in ("id", "x2", "to_zero")]
        workspace = write(tmp_path, WHITEHEAD_WORKSPACE)
        for flags in ([], ["-O"]):
            out = tmp_path / ("O" if flags else "plain")
            assert run_cases(out, cases, *flags, workspace=workspace) == [[0, ""]] * 3
            reports = {str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*.tsv")}
            assert reports == {
                "0/whitehead_id.tsv": b"field\tvalue\nverdict\tweak_equivalence\n",
                "1/whitehead_x2.tsv":
                    b"field\tvalue\nverdict\tnot\nreason\tH_0 is not a pro-isomorphism\n",
                "2/whitehead_to_zero.tsv":
                    b"field\tvalue\nverdict\tweak_equivalence\nm_witness\t0\n",
            }, flags

    def test_lift_reports_are_pinned(self, tmp_path):
        # by the lifting axiom every square that meets find_lift's
        # preconditions has a lift, so no workspace reaches "found false"
        doc, degrees = lift_squares_workspace()
        cases = [["lift", f"i{n}", f"p{n}", f"i{n}", f"p{n}", n] for n in degrees]
        assert run_cases(tmp_path, cases, workspace=write(tmp_path, doc)) == [[0, ""]] * 3
        reports = {str(f.relative_to(tmp_path)): f.read_bytes()
                   for f in tmp_path.rglob("*.tsv")}
        found = b"found\tupper_triangle\tlower_triangle\ntrue\ttrue\ttrue\n"
        assert reports == {f"{k}/lift_i{n}_p{n}_{n}.tsv": found
                           for k, n in enumerate(degrees)}

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_reports_honour_the_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            codes = [main([*args, "--workspace", GOLDEN, "--out", str(tmp_path)])
                     for args in (["homology", "M2"], ["roundtrip"])]
        finally:
            os.umask(old)
        assert codes == [0, 0]
        assert sorted(f.name for f in tmp_path.iterdir()) == \
            ["homology_M2.tsv", "workspace_canonical.json"]
        assert {stat.S_IMODE(f.stat().st_mode) for f in tmp_path.iterdir()} == {mode}

    def test_import_does_not_load_sympy(self, tmp_path):
        # a cold start loads only the modules its command uses
        assert {m for m in loaded_modules("import prochain")
                if m.startswith("prochain.")} == set()

        def loaded_by(*args):
            return loaded_modules(
                "from prochain.cli import main\n"
                f"assert main({list(args)!r} + ['--workspace', {GOLDEN!r}, "
                f"'--out', {str(tmp_path)!r}]) == 0")
        loaded = loaded_by("homology", "M2")
        assert loaded & {"prochain.ahss", "prochain.tstruct", "prochain.prohomotopy",
                         "prochain.selftest", "prochain.exactalg.poly", "sympy"} == set()
        assert "prochain.workspace" in loaded
        loaded = loaded_by("limlim1", "tower2_Z")
        assert "prochain.exactalg.poly" in loaded and "sympy" not in loaded

    def test_cold_start_loads_no_code_generator(self, tmp_path):
        # @dataclass runs exec on source it writes, at every import, and
        # importing dataclasses loads inspect: every command, in one fresh
        # interpreter, with every module of the package loaded after them
        moore = os.path.abspath(GOLDEN)
        squares = write(tmp_path, lift_squares_workspace()[0], "squares.json")
        whitehead = write(tmp_path, WHITEHEAD_WORKSPACE, "whitehead.json")
        cases = [[*args, "--workspace", moore] for args in EVERY_COMMAND
                 if args[0] not in ("lift", "whitehead")]
        cases += [["lift", "i0", "p0", "i0", "p0", "0", "--workspace", squares],
                  ["whitehead", "x2", "--workspace", whitehead]]
        assert {args[0] for args in cases} == set(DISPATCH)
        modules = package_module_names()
        loaded = loaded_modules(
            "import importlib\nfrom prochain.cli import main\n"
            f"for k, args in enumerate({cases!r}):\n"
            f"    assert main(args + ['--out', {str(tmp_path)!r} + f'/{{k}}']) in (0, 2), args\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module(name)\n")
        assert set(modules) <= loaded
        assert loaded & {"dataclasses", "inspect"} == set()

    def test_commands_run_without_sympy(self, tmp_path):
        # a None entry in sys.modules makes every import of sympy fail
        p = run_python("-c", "import sys\nsys.modules['sympy'] = None\n"
                       "from prochain.cli import main\n"
                       f"sys.exit(max(main(args + ['--workspace', {GOLDEN!r}, "
                       f"'--out', {str(tmp_path)!r}]) "
                       "for args in (['selftest'], ['limlim1', 'tower2_Z'])))")
        assert p.returncode == 0, p.stderr
        assert "lim\t0" in (tmp_path / "limlim1_tower2_Z.tsv").read_text()

    def test_pro_ahss_zero_entry(self, tmp_path):
        with open(GOLDEN) as f:
            doc = json.load(f)
        doc["complexes"]["O"] = {"ranks": {}, "diffs": {}}
        doc["maps"]["to_O"] = {"source": "Z0", "target": "O", "comps": {}}
        doc["towers"]["T"] = {"entries": ["O", "Z0"], "structure": ["to_O"],
                              "tail": {"constant_from": 1}}
        p = run_python("-m", "prochain.cli", "pro-ahss", "T", "M2", "--workspace",
                       write(tmp_path, doc), "--out", str(tmp_path / "out"))
        assert p.returncode == 0, p.stderr
        assert "Traceback" not in p.stderr
        assert "comparison_holds\ttrue" in \
            (tmp_path / "out" / "pro_ahss_T_M2_report.tsv").read_text()

    def test_pro_ahss_window_ends_are_bounded(self, tmp_path):
        # 2 * MAX_DEGREE + 2 = 2050 is the largest end a default window can
        # have; one past it is refused before any work
        cases = [["pro-ahss", "tower2_Z0", "M2", "0", "2051"],
                 ["pro-ahss", "tower2_Z0", "M2", "-2051", "0"],
                 ["pro-ahss", "tower2_Z0", "M2", "2050", "2050"]]
        results = run_cases(tmp_path, cases)
        assert results[:2] == [[1, "error: pro-ahss window ends must lie within +-2050\n"]] * 2
        assert results[2] == [0, ""]
        assert (tmp_path / "2" / "pro_ahss_tower2_Z0_M2_abutment.tsv").read_text() == \
            "n\tgroup\n2050\t0\n"

    def test_pro_ahss(self, tmp_path):
        code, out = self.run(tmp_path, "pro-ahss", "tower2_Z0", "M2")
        assert code == 0
        assert "comparison_holds\ttrue" in \
            (out / "pro_ahss_tower2_Z0_M2_report.tsv").read_text()
