import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sheafkit

from sheafkit.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    demo_counterexample,
    main,
    parse_ring,
)
from sheafkit.errors import SpaceTooLarge
from sheafkit.finalg import FinRing, gaussian_binomial, make_field
from sheafkit.finspace import build_space, components, enumerate_opens, pseudo_circle
from sheafkit.grassmann import classify
from sheafkit.vecsheaf import Budget, constant_algebra_sheaf

SIERPINSKI = {"min_open": {"o": ["o"], "c": ["o", "c"]}}
PSEUDO_CIRCLE = {"min_open": {"a": ["a"], "b": ["b"],
                              "c": ["a", "b", "c"], "d": ["a", "b", "d"]}}
F3 = {"kind": "Fp", "p": 3}

CONSTANT_F2_PRESHEAF = {
    "carriers": {"": ["0"], "o": ["0", "1"], "c,o": ["0", "1"]},
    "restrictions": {
        "o|": {"0": "0", "1": "0"},
        "c,o|": {"0": "0", "1": "0"},
        "c,o|o": {"0": "0", "1": "1"},
    },
}

MOBIUS_COCYCLE = {
    "cover": [["a", "b", "c"], ["a", "b", "d"]],
    "rank": 1,
    "transitions": {"0,1": [[{"a": "1", "b": "2"}]]},
}

TRIVIAL_WEIGHTS = {"cover": [["a", "b", "c", "d"]], "weights": ["1"]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


# -- space-check -------------------------------------------------------------

def test_space_check_ok(tmp_path, capsys):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    code, report, err = run(capsys, ["space-check", "--space", sp])
    assert code == EXIT_OK
    assert report["open_count"] == 3
    assert report["connected"] is True
    assert "space-check" in err


def test_space_check_invalid_space(tmp_path, capsys):
    sp = write(tmp_path, "bad.json", {"min_open": {"a": ["b"], "b": ["b"]}})
    code, report, err = run(capsys, ["space-check", "--space", sp])
    assert code == EXIT_INVALID and report is None
    assert "validation error" in err


def test_space_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, report, err = run(capsys, ["space-check", "--space", str(path)])
    assert code == EXIT_INVALID and report is None
    assert "parse error" in err


def test_space_check_too_large_space(tmp_path, capsys):
    big = {"min_open": {str(i): [str(i)] for i in range(13)}}
    sp = write(tmp_path, "big.json", big)
    code, report, err = run(capsys, ["space-check", "--space", sp])
    assert code == EXIT_BUDGET and report is None


def test_missing_subcommand_is_invalid(capsys):
    assert main([]) == EXIT_INVALID


# -- presheaf commands -------------------------------------------------------

def test_presheaf_check_ok(tmp_path, capsys):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    ph = write(tmp_path, "presheaf.json", CONSTANT_F2_PRESHEAF)
    code, report, err = run(capsys,
                            ["presheaf-check", "--space", sp, "--presheaf", ph])
    assert code == EXIT_OK
    assert report["valid"] is True
    assert report["monopresheaf"] is True


def test_presheaf_check_reports_violations(tmp_path, capsys):
    # composition X -> o -> {} disagrees with the direct X -> {} map
    bad = {
        "carriers": {"": ["0", "1"], "o": ["0", "1"], "c,o": ["0", "1"]},
        "restrictions": {
            "o|": {"0": "0", "1": "1"},
            "c,o|": {"0": "1", "1": "0"},
            "c,o|o": {"0": "0", "1": "1"},
        },
    }
    sp = write(tmp_path, "space.json", SIERPINSKI)
    ph = write(tmp_path, "presheaf.json", bad)
    code, report, err = run(capsys,
                            ["presheaf-check", "--space", sp, "--presheaf", ph])
    assert code == EXIT_OK  # a diagnostic run that finds violations still reports
    assert report["valid"] is False and report["violations"]


@pytest.mark.parametrize("restriction", [{"0": "0"}, {"0": "0", "1": "7"}],
                         ids=["undefined", "outside-carrier"])
def test_broken_restriction_is_a_violation(tmp_path, capsys, restriction):
    bad = json.loads(json.dumps(CONSTANT_F2_PRESHEAF))
    bad["restrictions"]["c,o|o"] = restriction
    sp = write(tmp_path, "space.json", SIERPINSKI)
    ph = write(tmp_path, "presheaf.json", bad)
    code, report, err = run(capsys,
                            ["presheaf-check", "--space", sp, "--presheaf", ph])
    assert code == EXIT_OK
    assert report["valid"] is False and report["violations"]
    code, report, err = run(capsys, ["sheafify", "--space", sp, "--presheaf", ph])
    assert code == EXIT_INVALID and report is None


def test_presheaf_check_missing_carrier(tmp_path, capsys):
    bad = {"carriers": {"": ["0"]}, "restrictions": {}}
    sp = write(tmp_path, "space.json", SIERPINSKI)
    ph = write(tmp_path, "presheaf.json", bad)
    code, report, err = run(capsys,
                            ["presheaf-check", "--space", sp, "--presheaf", ph])
    assert code == EXIT_INVALID and report is None


@pytest.mark.parametrize("broken, err", [
    # a,b,d (size 3) is scanned before a,b,c,d though its key sorts after
    ({"a,b,c,d|a": None, "a,b,d|b": None},
     "parse error: presheaf restriction missing for 'a,b,d|b'\n"),
    # under one u, b (size 1) is scanned before a,b
    ({"a,b,c,d|b": None, "a,b,c,d|a,b": None},
     "parse error: presheaf restriction missing for 'a,b,c,d|b'\n"),
    ({"a,b|a": ["xx", "yy"]},
     "parse error: presheaf restriction 'a,b|a' must be a JSON object, "
     "not ['xx', 'yy']\n"),
    ({"a,b,c|": "x", "a,b,d|a": None},
     "parse error: presheaf restriction 'a,b,c|' must be a JSON object, not 'x'\n"),
], ids=["missing", "missing-under-one-open", "list", "string"])
@pytest.mark.parametrize("command", ["presheaf-check", "sheafify", "stalks"])
def test_presheaf_restriction_errors_name_the_first_key_in_scan_order(
        tmp_path, capsys, broken, err, command):
    """The stderr of a presheaf with a missing or non-object restriction,
    pinned as the scan over every pair of opens printed it: the opens u in
    (size, lex) order, and the opens v < u in that order."""
    obj = presheaf_tables(PSEUDO_CIRCLE["min_open"], "locally-constant", 2)
    for key, value in broken.items():
        if value is None:
            del obj["restrictions"][key]
        else:
            obj["restrictions"][key] = value
    sp = write(tmp_path, "space.json", PSEUDO_CIRCLE)
    ph = write(tmp_path, "presheaf.json", obj)
    assert run(capsys, [command, "--space", sp, "--presheaf", ph]) == (
        EXIT_INVALID, None, err)


def test_sheafify_constant_is_already_a_sheaf(tmp_path, capsys):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    ph = write(tmp_path, "presheaf.json", CONSTANT_F2_PRESHEAF)
    code, report, err = run(capsys, ["sheafify", "--space", sp, "--presheaf", ph])
    assert code == EXIT_OK
    assert report["opens"]["c,o"]["sections"] == 2
    assert report["unit_bijective_everywhere"] is True


def test_sheafify_enlarges_sections_on_disconnected_space(tmp_path, capsys):
    sp = write(tmp_path, "space.json",
               {"min_open": {"u": ["u"], "v": ["v"]}})
    const = {"0": "0", "1": "0"}
    ph = write(tmp_path, "presheaf.json", {
        "carriers": {"": ["0"], "u": ["0", "1"], "v": ["0", "1"],
                     "u,v": ["0", "1"]},
        "restrictions": {
            "u|": const, "v|": const, "u,v|": const,
            "u,v|u": {"0": "0", "1": "1"},
            "u,v|v": {"0": "0", "1": "1"},
        },
    })
    code, report, err = run(capsys, ["sheafify", "--space", sp, "--presheaf", ph])
    assert code == EXIT_OK
    assert report["opens"]["u,v"]["carrier"] == 2
    assert report["opens"]["u,v"]["sections"] == 4
    assert report["unit_bijective_everywhere"] is False


def test_sheafify_counts_a_disconnected_open_past_the_section_guard(tmp_path, capsys):
    """The constant presheaf of 33 symbols on four discrete points has
    33^4 = 1,185,921 sections over the whole space, past the 10^6 guard on
    listing them; a disconnected open's sections are counted as the product
    of its components' counts, so both commands exit 0."""
    points = "abcd"
    opens = [frozenset(c) for r in range(5) for c in itertools.combinations(points, r)]
    symbols = [f"s{i}" for i in range(33)]
    key = ",".join
    carriers = {key(sorted(u)): symbols if u else ["*"] for u in opens}
    sp = write(tmp_path, "space.json", {"min_open": {x: [x] for x in points}})
    ph = write(tmp_path, "presheaf.json", {
        "carriers": carriers,
        "restrictions": {f"{key(sorted(u))}|{key(sorted(v))}":
                         {e: e if v else "*" for e in carriers[key(sorted(u))]}
                         for u in opens for v in opens if v < u}})
    code, report, err = run(capsys, ["sheafify", "--space", sp, "--presheaf", ph])
    assert code == EXIT_OK
    assert report["opens"]["a,b,c,d"] == {"carrier": 33, "sections": 1185921,
                                         "unit_bijective": False}
    assert report["opens"]["a"]["unit_bijective"] is True
    code, report, err = run(capsys, ["presheaf-check", "--space", sp, "--presheaf", ph])
    assert code == EXIT_OK
    assert (report["monopresheaf"], report["complete"]) == (True, False)


@pytest.mark.parametrize("bound, message", [
    (2, "section enumeration over open ['a'] exceeds 2 states at 3"),
    (3, "section enumeration over open ['a', 'b', 'c', 'd'] exceeds 3 states at 9")])
def test_presheaf_commands_exit_on_the_section_guard_of_the_first_open(
        tmp_path, capsys, monkeypatch, bound, message):
    """Three symbols on the pseudo-circle under a lowered section bound:
    the first open refused is {a}, with one maximal point, under 2, and the
    whole space, with two, under 3; both commands exit 2 with its message."""
    monkeypatch.setattr(sheafkit.presheaf, "DEFAULT_STATE_BOUND", bound)
    sp = write(tmp_path, "space.json", PSEUDO_CIRCLE)
    ph = write(tmp_path, "presheaf.json",
               presheaf_tables(PSEUDO_CIRCLE["min_open"], "constant", 3))
    for command in ("presheaf-check", "sheafify"):
        code, report, err = run(capsys, [command, "--space", sp, "--presheaf", ph])
        assert (code, report, err) == (EXIT_BUDGET, None, f"size guard hit: {message}\n")


@pytest.mark.parametrize("empty_open, complete", [(["*"], True), ([], False)])
def test_presheaf_reports_on_empty_carriers(tmp_path, capsys, empty_open, complete):
    """On a <= b, every carrier but the empty open's is empty, so a and
    {a, b} have no sections and a bijective unit.  The empty open has one
    section, the empty family: its unit is bijective on one element and
    not on none."""
    sp = write(tmp_path, "space.json", {"min_open": {"a": ["a"], "b": ["a", "b"]}})
    ph = write(tmp_path, "presheaf.json", {
        "carriers": {"": empty_open, "a": [], "a,b": []},
        "restrictions": {"a|": {}, "a,b|": {}, "a,b|a": {}}})
    base = ["--space", sp, "--presheaf", ph]
    assert run(capsys, ["presheaf-check"] + base) == (EXIT_OK, {
        "command": "presheaf-check", "violations": [], "valid": True,
        "monopresheaf": True, "complete": complete},
        f"presheaf-check: valid=True, monopresheaf=True, complete={complete}\n")
    assert run(capsys, ["sheafify"] + base) == (EXIT_OK, {
        "command": "sheafify",
        "opens": {"": {"carrier": len(empty_open), "sections": 1,
                       "unit_bijective": complete},
                  "a": {"carrier": 0, "sections": 0, "unit_bijective": True},
                  "a,b": {"carrier": 0, "sections": 0, "unit_bijective": True}},
        "unit_bijective_everywhere": complete}, "sheafify: done\n")


@pytest.mark.parametrize("name", ["a,b", "a|b"])
@pytest.mark.parametrize("command", ["space-check", "sheafify"])
def test_point_names_with_key_separators_are_invalid(tmp_path, capsys, name, command):
    """With points a, b and "a,b", the opens {a, b} and {"a,b"} would share
    the key "a,b"; such a name is refused before any key is made."""
    sp = write(tmp_path, "space.json",
               {"min_open": {"a": ["a"], "b": ["b"], name: [name]}})
    ph = write(tmp_path, "presheaf.json", {"carriers": {}, "restrictions": {}})
    argv = [command, "--space", sp] + (["--presheaf", ph] if command == "sheafify" else [])
    code, report, err = run(capsys, argv)
    assert code == EXIT_INVALID and report is None
    assert err == f"parse error: point name {name!r} contains ',' or '|'\n"


def test_stalks_command(tmp_path, capsys):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    ph = write(tmp_path, "presheaf.json", CONSTANT_F2_PRESHEAF)
    code, report, err = run(capsys, ["stalks", "--space", sp, "--presheaf", ph])
    assert code == EXIT_OK
    assert report["stalk_sizes"] == {"o": 2, "c": 2}


def test_pullback_command(tmp_path, capsys):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    ph = write(tmp_path, "presheaf.json", CONSTANT_F2_PRESHEAF)
    mp = write(tmp_path, "map.json", {
        "space": {"min_open": {"p": ["p"]}},
        "assignment": {"p": "c"},
    })
    code, report, err = run(capsys, ["pullback", "--space", sp,
                                     "--presheaf", ph, "--map", mp])
    assert code == EXIT_OK
    assert report["stalk_sizes"] == {"p": 2}


def test_pullback_rejects_discontinuous_map(tmp_path, capsys):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    ph = write(tmp_path, "presheaf.json", CONSTANT_F2_PRESHEAF)
    mp = write(tmp_path, "map.json", {
        "space": {"min_open": {"o": ["o"], "c": ["o", "c"]}},
        "assignment": {"o": "c", "c": "o"},
    })
    code, report, err = run(capsys, ["pullback", "--space", sp,
                                     "--presheaf", ph, "--map", mp])
    assert code == EXIT_INVALID and report is None


def test_pullback_from_a_12_point_discrete_space_lists_only_its_stalks(tmp_path, capsys,
                                                                        monkeypatch):
    """A five-element presheaf on one point pulled back along the map from
    the 12-point discrete space: the report holds stalk sizes only, so the
    families are listed over the 12 minimal opens, in open order, and not
    over the 4096 opens, whose families would number 6^12."""
    listed = []
    families = sheafkit.presheaf.compatible_families

    def recording(space, u, elems_at, res):
        listed.append(sorted(u))
        return families(space, u, elems_at, res)

    monkeypatch.setattr(sheafkit.presheaf, "compatible_families", recording)
    names = [f"x{i:02d}" for i in range(12)]
    sp = write(tmp_path, "space.json", {"min_open": {"p": ["p"]}})
    ph = write(tmp_path, "presheaf.json", {
        "carriers": {"": ["*"], "p": list("abcde")},
        "restrictions": {"p|": {e: "*" for e in "abcde"}}})
    mp = write(tmp_path, "map.json", {
        "space": {"min_open": {x: [x] for x in names}},
        "assignment": dict.fromkeys(names, "p")})
    code, report, err = run(capsys, ["pullback", "--space", sp,
                                     "--presheaf", ph, "--map", mp])
    assert code == EXIT_OK
    assert report["stalk_sizes"] == dict.fromkeys(names, 5)
    assert listed == [[x] for x in names]


# -- grassmann / classify ----------------------------------------------------

def test_grassmann_command(tmp_path, capsys):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    rg = write(tmp_path, "ring.json", {"kind": "Fp", "p": 2})
    code, report, err = run(capsys, ["grassmann", "--space", sp, "--ring", rg,
                                     "-k", "1", "-n", "2"])
    assert code == EXIT_OK
    assert report["value_counts"] == {"": 1, "o": 3, "c,o": 3}
    assert report["sections_over_whole"] == 3
    assert report["monopresheaf"] is True


def test_grassmann_enumerates_the_whole_space_once(tmp_path, capsys, monkeypatch):
    """`sections_over_whole` is read from the value counts, so `grassmann`
    lists no section over the whole space, and it equals the enumerated
    section count."""
    from sheafkit import grassmann
    whole = frozenset("abcd")
    calls = []
    original = grassmann._sections

    def counted(g, u):
        out = original(g, u)
        if u == whole:
            calls.append(len(out))
        return out

    monkeypatch.setattr(grassmann, "_sections", counted)
    sp = write(tmp_path, "space.json", PSEUDO_CIRCLE)
    rg = write(tmp_path, "ring.json", {"kind": "Fp", "p": 2})
    code, report, err = run(capsys, ["grassmann", "--space", sp, "--ring", rg,
                                     "-k", "1", "-n", "2"])
    assert code == EXIT_OK
    assert calls == []
    g = grassmann.build_grassmann_presheaf(
        constant_algebra_sheaf(pseudo_circle(), make_field(2)), 1, 2)
    assert len(grassmann.enumerate_sections(g, whole)) == report["sections_over_whole"] == 3


def test_grassmann_budget_exit(tmp_path, capsys):
    sp = write(tmp_path, "space.json", PSEUDO_CIRCLE)
    rg = write(tmp_path, "ring.json", F3)
    code, report, err = run(capsys, ["grassmann", "--space", sp, "--ring", rg,
                                     "-k", "1", "-n", "2", "--budget", "2"])
    assert code == EXIT_BUDGET and report is None
    assert err.startswith("budget exhausted: freeness search exceeded")


def test_grassmann_budget_exit_names_open_rank_and_count(tmp_path, capsys):
    """The first search over F_3 on the pseudo-circle, the line {a}, takes a
    third step that a budget of 2 refuses."""
    sp = write(tmp_path, "space.json", PSEUDO_CIRCLE)
    rg = write(tmp_path, "ring.json", F3)
    code, report, err = run(capsys, ["grassmann", "--space", sp, "--ring", rg,
                                     "-k", "1", "-n", "2", "--budget", "2"])
    assert code == EXIT_BUDGET and report is None
    assert err == ("budget exhausted: freeness search exceeded the budget of 2 steps "
                   "over open ['a'] at rank 1, 3 steps used\n")


@pytest.mark.parametrize("budget, message", [
    (10, "open ['a', 'b', 'd'] at rank 1, 11 steps used"),
    (11, "open ['a', 'b', 'd'] at rank 1, 12 steps used"),
    (12, None),
])
def test_classify_budget_exit_names_the_open_of_a_replayed_answer(capsys, budget, message):
    """`classify -n 1 -N 2` on the pseudo-circle over F_2 takes 12 steps,
    all in G's freeness asks over the minimal opens, one per (open, value);
    V, the sections and the pairing read G's values.  The budget runs out
    in the ask it names (10, 11); 12 steps give the report of the default
    budget."""
    inputs = Path(__file__).resolve().parents[1] / "tools" / "inputs"
    args = ["classify", "--space", str(inputs / "pseudo_circle.json"),
            "--ring", str(inputs / "f2.json"), "-n", "1", "-N", "2"]
    code, report, err = run(capsys, [*args, "--budget", str(budget)])
    if message is None:
        assert code == EXIT_OK and report == run(capsys, args)[1]
        return
    assert code == EXIT_BUDGET and report is None
    assert err == (f"budget exhausted: freeness search exceeded the budget of {budget} "
                   f"steps over {message}\n")


def test_free_sheaf_guard_exits_before_listing(tmp_path, capsys, monkeypatch):
    def listing(*args):
        raise AssertionError("a stalk's vectors were listed")

    monkeypatch.setattr(sheafkit.vecsheaf, "all_vecs", listing)
    sp = write(tmp_path, "space.json", SIERPINSKI)
    rg = write(tmp_path, "ring.json", {"kind": "Fp", "p": 2})
    code, report, err = run(capsys, ["grassmann", "--space", sp, "--ring", rg,
                                     "-k", "0", "-n", "40"])
    assert code == EXIT_BUDGET and report is None
    assert err == ("size guard hit: free sheaf const(F_2)^40: stalk F_2^40 "
                   "exceeds bound 100000 vectors\n")


# The report corpus: the five named spaces and Sierpinski + point, F_2 and
# F_3, small sizes.  Each digest is the sha256 of the command's stdout as
# reported when every open's values came from a search of their own, before
# values over disconnected opens were built as products.
REPORT_SPACES = {
    "point": {"p": ["p"]},
    "sierpinski": SIERPINSKI["min_open"],
    "chain3": {"p1": ["p1"], "p2": ["p1", "p2"], "p3": ["p1", "p2", "p3"]},
    "discrete2": {"u": ["u"], "v": ["v"]},
    "pseudo_circle": PSEUDO_CIRCLE["min_open"],
    "sierpinski_plus_point": {"o": ["o"], "c": ["o", "c"], "p": ["p"]},
}
REPORT_DIGESTS = {
    "grassmann point F2 1 2":
        "55545de0ba9539937d5f00aa8a7f1df50d4fe1fc1adfb0a2dfef01a2bb52cda7",
    "grassmann point F2 2 3":
        "55bf830dfd3c812c8ef2ccf94cb358ff42828fcbe41e38c432ee582fa872eb13",
    "grassmann point F3 1 2":
        "d5db12ce04bdcd6c939d7a097910ef93682fee02c062157e8ac6f506c0f646d6",
    "grassmann point F3 2 3":
        "5a68aabdad72c4901e91703431d3643e7d18848b6546bd8c2c7832e57960b3d5",
    "classify point F2 1 2":
        "c2e83089c2ce49241a3a55dd9dfd949d5c435791a2e1fb38e5b7363cc2baac0a",
    "classify point F2 2 3":
        "c62006d9148d6e04950d54094ace81132d03225305575d91e28240e225d0aacb",
    "classify point F3 1 2":
        "7baa5e7f15ef1dfda0147769ffa0e54eeae939629d384ba4a71c31cfa5b6c616",
    "classify point F3 2 3":
        "c89348b3c3e55c6b7800e9c7bda66429ae0595578e6c8b889ea14e28fb543da8",
    "grassmann sierpinski F2 1 2":
        "397c4133f7e2a920784dc6aa381ccc515fdd1e76a720cc4170b3c017609fd009",
    "grassmann sierpinski F2 2 3":
        "95787ca1df0366869aa6af662d0c427f2533ead5be7102df925a18c3042bc452",
    "grassmann sierpinski F3 1 2":
        "7065f4194b91696324eb0761050fe25c2cee0b8ee2fce7540dfabe6746e815d9",
    "grassmann sierpinski F3 2 3":
        "3270cf11c3d1ab2fbb7d7a90f55273109377af2d9769ff948b4e57b21c53fe2c",
    "classify sierpinski F2 1 2":
        "c2e83089c2ce49241a3a55dd9dfd949d5c435791a2e1fb38e5b7363cc2baac0a",
    "classify sierpinski F2 2 3":
        "c62006d9148d6e04950d54094ace81132d03225305575d91e28240e225d0aacb",
    "classify sierpinski F3 1 2":
        "7baa5e7f15ef1dfda0147769ffa0e54eeae939629d384ba4a71c31cfa5b6c616",
    "classify sierpinski F3 2 3":
        "c89348b3c3e55c6b7800e9c7bda66429ae0595578e6c8b889ea14e28fb543da8",
    "grassmann chain3 F2 1 2":
        "a6cdc79da3ebd0e437e0d8382d8c1023b6d5667d8189680774429666af87ed4f",
    "grassmann chain3 F2 2 3":
        "287246fb904f23abcf35088cb1645b8e453aaa69ee355f91b145a3de300e2d47",
    "grassmann chain3 F3 1 2":
        "cdfded5e59648168d41ee8c98170c548f89994000d51c45d5dace89809943900",
    "grassmann chain3 F3 2 3":
        "cbc7b505ef1a9534e957c6b56ba21e85bd9b7212aac02bfae28866110f1987fb",
    "classify chain3 F2 1 2":
        "c2e83089c2ce49241a3a55dd9dfd949d5c435791a2e1fb38e5b7363cc2baac0a",
    "classify chain3 F2 2 3":
        "c62006d9148d6e04950d54094ace81132d03225305575d91e28240e225d0aacb",
    "classify chain3 F3 1 2":
        "7baa5e7f15ef1dfda0147769ffa0e54eeae939629d384ba4a71c31cfa5b6c616",
    "classify chain3 F3 2 3":
        "c89348b3c3e55c6b7800e9c7bda66429ae0595578e6c8b889ea14e28fb543da8",
    "grassmann discrete2 F2 1 2":
        "f25ad854bfdcf91c804e9d361acb4f2a7c9bdc13ee561231fe129d2708a9bc3a",
    "grassmann discrete2 F2 2 3":
        "95d3455f4aefebad5be01d7140885cc5dcebb2cfc30a3f2dc4398c7723c509ac",
    "grassmann discrete2 F3 1 2":
        "da340e059e104b18875adee957677bcae2f4fb6d669198266e96dd530c42ad8d",
    "grassmann discrete2 F3 2 3":
        "74a77ffddc166e2548ec0665862d74fae2109b2ad9c087e8f22609ee5adfa543",
    "classify discrete2 F2 1 2":
        "6a1a77061bb1fecfc3eee1cd21dc0a230fa1b29d5b3a0ea4269850fcc391c087",
    "classify discrete2 F2 2 3":
        "11a89e068c114bc4ae0fa2dc4c96f535d063c0a4f39d25f4e1d92815bbf42fa1",
    "classify discrete2 F3 1 2":
        "f8e0a6fb4865926d49b62584bc5b19d0fa1410473e5f8319ffcd27cadc52fa77",
    "classify discrete2 F3 2 3":
        "71fc27dd76480559163ed55b2aa8f7f28e98085e883d0e596aedfdf252754918",
    "grassmann pseudo_circle F2 1 2":
        "f60eedbbda3a7f78edce91f25210a78c089965227f6139c439b4a6bb13cf04ee",
    "grassmann pseudo_circle F2 2 3":
        "7470d648a3bba9417557d583abd038d5fd73c6648fe010038ec6fea8bdc72fce",
    "grassmann pseudo_circle F3 1 2":
        "9356facee9133a1aa4699dcce0674368ac983a5a24b68cade2b68d40f9e009b4",
    "grassmann pseudo_circle F3 2 3":
        "0efa286125ebf2fb03940ca6c99f26b4616372f586e24ef30870ec6dfed9d279",
    "classify pseudo_circle F2 1 2":
        "c2e83089c2ce49241a3a55dd9dfd949d5c435791a2e1fb38e5b7363cc2baac0a",
    "classify pseudo_circle F2 2 3":
        "c62006d9148d6e04950d54094ace81132d03225305575d91e28240e225d0aacb",
    "classify pseudo_circle F3 1 2":
        "7baa5e7f15ef1dfda0147769ffa0e54eeae939629d384ba4a71c31cfa5b6c616",
    "classify pseudo_circle F3 2 3":
        "c89348b3c3e55c6b7800e9c7bda66429ae0595578e6c8b889ea14e28fb543da8",
    "grassmann sierpinski_plus_point F2 1 2":
        "87437666aec326c1c7a65dc16aa15fe41c9c695ba311435b9ab0a65b065477e6",
    "grassmann sierpinski_plus_point F2 2 3":
        "1bd951e8a126b9cbf701aa537a64ce2fdfc018f4411bd4f2d4fdf64119eaf901",
    "grassmann sierpinski_plus_point F3 1 2":
        "76a39673c846bb0fb63c26be506301b7f8b42d7187555b53484246bc313dc3fd",
    "grassmann sierpinski_plus_point F3 2 3":
        "1de999b4dd24797907042d86f8f0c51a2994f86b0508572aff5063204ff05c64",
    "classify sierpinski_plus_point F2 1 2":
        "6a1a77061bb1fecfc3eee1cd21dc0a230fa1b29d5b3a0ea4269850fcc391c087",
    "classify sierpinski_plus_point F2 2 3":
        "11a89e068c114bc4ae0fa2dc4c96f535d063c0a4f39d25f4e1d92815bbf42fa1",
    "classify sierpinski_plus_point F3 1 2":
        "f8e0a6fb4865926d49b62584bc5b19d0fa1410473e5f8319ffcd27cadc52fa77",
    "classify sierpinski_plus_point F3 2 3":
        "71fc27dd76480559163ed55b2aa8f7f28e98085e883d0e596aedfdf252754918",
}


def test_report_corpus_is_byte_identical(tmp_path, capsys):
    options = {"grassmann": ("-k", "-n"), "classify": ("-n", "-N")}
    digests = {}
    for case in REPORT_DIGESTS:
        command, space, field, a, b = case.split()
        sp = write(tmp_path, f"{space}.json", {"min_open": REPORT_SPACES[space]})
        rg = write(tmp_path, f"{field}.json", {"kind": "Fp", "p": int(field[1:])})
        small, large = options[command]
        assert main([command, "--space", sp, "--ring", rg, small, a, large, b]) == EXIT_OK
        digests[case] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == REPORT_DIGESTS


# The presheaf report corpus: constant and locally constant set presheaves
# with 2 or 3 symbols over the report spaces and a five-point cone, each as
# given and with one restriction entry broken (changed inside the carrier on
# a cover step or on a longer step, dropped, sent outside the carrier, or
# sent to a JSON list).  The digest of a (command, variant) is the sha256 of
# every case's exit code, stdout and stderr in turn, as reported when
# `validate` checked composition on every triple of opens.  Violation
# messages print each open as the sorted list of its points.
PRESHEAF_SPACES = {**REPORT_SPACES, "cone": {
    "a": ["a"], "b": ["b"], "c": ["a", "b", "c"], "d": ["a", "b", "d"],
    "e": ["a", "b", "c", "d", "e"]}}
PRESHEAF_VARIANTS = ("given", "cover", "longer", "undefined", "outside", "list")
PRESHEAF_DIGESTS = {
    "presheaf-check cover":
        "5c8cb079edc5e05775f3687f81cdece3bf6e60001de3fd113a72fceac610bc7f",
    "presheaf-check given":
        "8b8709fe5abaf8d110380a0d4d5aa67fbcfc5eb6358df1faf3ec54e1ea7c7778",
    "presheaf-check list":
        "cf9aa167e2b6bb6b2b9c6fe2cde6eec24ddefb2f6b0c16a92554797b898233d9",
    "presheaf-check longer":
        "1bd763eabc4f9c71d65bfe3d2ae09cda0e67a9de90938b2693bd0eac96045885",
    "presheaf-check outside":
        "cf9aa167e2b6bb6b2b9c6fe2cde6eec24ddefb2f6b0c16a92554797b898233d9",
    "presheaf-check undefined":
        "4e4ab8bd9b729ba3a512d3d0ade8eabb0c414173c7773642e4333cf76c4552cf",
    "pullback cover":
        "267de6e3e94f8a246ce4a211847ffc56266c2364834ec968672828a5bd0e6fd6",
    "pullback given":
        "d744cf4752d7ed0e0db49ef98d21fe3bbf5ac01dd97551fd04eacae216b5a0d4",
    "pullback list":
        "267de6e3e94f8a246ce4a211847ffc56266c2364834ec968672828a5bd0e6fd6",
    "pullback longer":
        "53a745b895f86762a8cebd8f7287a4d32fde31b1578c43008612aa35662438f7",
    "pullback outside":
        "267de6e3e94f8a246ce4a211847ffc56266c2364834ec968672828a5bd0e6fd6",
    "pullback undefined":
        "b189b4746842109d5908c07c4e222afb363ee92bc3d62564869659b7d6e70dac",
    "sheafify cover":
        "bb6b60b345fc114eab43a732bf73b44644ba0bdfa2fb6dfd8e3fccba5057e089",
    "sheafify given":
        "ac68d2ae281d0abdce3db9e548b71ae4dfc0c5065aaf1f0a63eb34df0f0d0b29",
    "sheafify list":
        "0dd5213a4863c84ddd91876c336aa7bca21cdee41bf6cdfea7e6a6911547433d",
    "sheafify longer":
        "192c81a0cfa7274a1c593646e8a178bdb2361de4760335b5fbeef93e7ff389f4",
    "sheafify outside":
        "0dd5213a4863c84ddd91876c336aa7bca21cdee41bf6cdfea7e6a6911547433d",
    "sheafify undefined":
        "e2b29144748120d3665efe7fb17123261d2b14732b345f61498c79b747692efe",
    "stalks cover":
        "749b9e48644901b5d92e32c586308414a7ee60cbbf00552be3292de8e7bed355",
    "stalks given":
        "c806a184d53c54438e2c030eb328db1abe45cb5dd072e26dae9d79a3f7e6985f",
    "stalks list":
        "749b9e48644901b5d92e32c586308414a7ee60cbbf00552be3292de8e7bed355",
    "stalks longer":
        "0e307127dd1de245fe09385a2d4bc6c603130bcd849177bf52db3ce57a19b136",
    "stalks outside":
        "749b9e48644901b5d92e32c586308414a7ee60cbbf00552be3292de8e7bed355",
    "stalks undefined":
        "749b9e48644901b5d92e32c586308414a7ee60cbbf00552be3292de8e7bed355",
}


def presheaf_tables(table, kind, s):
    """The JSON presheaf of `kind` with symbols from "xyz"[:s], like
    perfbench's sheaf-ops inputs: a locally constant carrier over an open
    holds one symbol per connected component."""
    space = build_space(table)
    opens = enumerate_opens(space)
    comps = {u: components(space, u) for u in opens}
    key = ",".join

    def elements(u):
        if kind == "constant":
            return list("xyz"[:s]) if u else ["*"]
        return ["".join(t) for t in itertools.product("xyz"[:s], repeat=len(comps[u]))]

    def restriction(u, v):
        if kind == "constant":
            return {e: e if v else "*" for e in elements(u)}
        where = [next(i for i, c in enumerate(comps[u]) if cv <= c) for cv in comps[v]]
        return {e: "".join(e[i] for i in where) for e in elements(u)}

    return {"carriers": {key(sorted(u)): elements(u) for u in opens},
            "restrictions": {f"{key(sorted(u))}|{key(sorted(v))}": restriction(u, v)
                             for u in opens for v in opens if v < u}}


def break_presheaf(obj, variant):
    """obj with one restriction entry broken as `variant` says, or None when
    the presheaf has no restriction to break that way."""
    if variant == "given":
        return obj
    carriers, restrictions = obj["carriers"], obj["restrictions"]
    for pair in sorted(restrictions):
        u, v = (set(k.split(",")) - {""} for k in pair.split("|"))
        cover = len(u) - len(v) == 1
        if not v or (variant, cover) in (("cover", False), ("longer", True)):
            continue
        entry = restrictions[pair]
        e = sorted(entry)[0]
        if variant in ("cover", "longer"):
            entry[e] = next(t for t in carriers[pair.split("|")[1]] if t != entry[e])
        elif variant == "undefined":
            del entry[e]
        else:
            entry[e] = "q" if variant == "outside" else ["x"]
        return obj
    return None


def test_presheaf_report_corpus_is_byte_identical(tmp_path, capsys):
    transcripts = {}
    for name, table in PRESHEAF_SPACES.items():
        sp = write(tmp_path, "space.json", {"min_open": table})
        point = write(tmp_path, "point.json", {
            "space": {"min_open": {"p": ["p"]}}, "assignment": {"p": max(table)}})
        identity = write(tmp_path, "identity.json", {
            "space": {"min_open": table}, "assignment": {x: x for x in table}})
        for kind, s in itertools.product(("constant", "locally-constant"), (2, 3)):
            for variant in PRESHEAF_VARIANTS:
                obj = break_presheaf(presheaf_tables(table, kind, s), variant)
                if obj is None:
                    continue
                ph = write(tmp_path, "presheaf.json", obj)
                base = ["--space", sp, "--presheaf", ph]
                for argv in (["presheaf-check"] + base, ["sheafify"] + base,
                             ["stalks"] + base, ["pullback"] + base + ["--map", point],
                             ["pullback"] + base + ["--map", identity]):
                    code = main(argv)
                    captured = capsys.readouterr()
                    transcripts.setdefault(f"{argv[0]} {variant}", []).append(
                        f"{name} {kind} {s}\n{code}\n{captured.out}\n{captured.err}\n")
    digests = {case: hashlib.sha256("".join(lines).encode()).hexdigest()
               for case, lines in transcripts.items()}
    assert digests == PRESHEAF_DIGESTS


def break_one_entry(rng, obj, fault):
    """obj with one entry of a random restriction broken as `fault` names:
    "missing" deletes it, "outside" maps it out of the target carrier,
    "composition" maps it to another element of the target carrier, and
    "extra" adds a key outside the source carrier, which every reader
    skips.  None when no restriction can be broken that way."""
    carriers, restrictions = obj["carriers"], obj["restrictions"]
    pairs = [pair for pair in sorted(restrictions)
             if fault != "composition" or len(carriers[pair.split("|")[1]]) >= 2]
    if not pairs:
        return None
    pair = rng.choice(pairs)
    entry, target = restrictions[pair], carriers[pair.split("|")[1]]
    e = rng.choice(sorted(entry))
    if fault == "missing":
        del entry[e]
    elif fault == "outside":
        entry[e] = "q"
    elif fault == "composition":
        entry[e] = rng.choice([t for t in target if t != entry[e]])
    else:
        entry["q"] = rng.choice(["q", ["x"], target[0]])
    return obj


def check_outcome(check, p):
    try:
        return check(p)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_rows_from_parsed_tables_agree_with_rows_tabulated_from_restrict():
    """Random table presheaves, valid or with one entry broken: `validate`
    and `unit_counts` of the parsed presheaf, which read its tables, give
    what they give on the same carriers and restriction with no tables,
    which tabulates `restrict` row by row."""
    from test_presheaf import random_space
    rng = random.Random(32)
    seen = set()
    for _ in range(80):
        space = random_space(rng, rng.randint(1, 5))
        table = {x: sorted(space.min_open[x]) for x in space.points}
        fault = rng.choice(["none", "missing", "outside", "composition", "extra"])
        obj = presheaf_tables(table, rng.choice(["constant", "locally-constant"]),
                              rng.choice([2, 3]))
        if fault != "none" and break_one_entry(rng, obj, fault) is None:
            continue
        p = sheafkit.cli.parse_presheaf(space, obj)
        q = sheafkit.presheaf.Presheaf(space, p.carriers, p.restrict)
        assert p.tables is not None and q.tables is None
        report = sheafkit.presheaf.validate(p)
        assert report == sheafkit.presheaf.validate(q), fault
        if fault != "composition":  # another entry may keep the laws
            assert (report == []) == (fault in ("none", "extra")), fault
        assert (check_outcome(sheafkit.presheaf.unit_counts, p)
                == check_outcome(sheafkit.presheaf.unit_counts, q)), fault
        seen.add((fault, report == []))
    assert seen >= {("none", True), ("missing", False), ("outside", False),
                    ("composition", False), ("extra", True)}


def full_pullback_outcome(space_table, presheaf_obj, map_obj):
    """Oracle for `pullback`: the pulled-back presheaf built over every open
    of the domain, reported as the command reports it: stalk sizes, or the
    undefined restriction's message."""
    space = sheafkit.cli.parse_space({"min_open": space_table})
    p = sheafkit.cli.parse_presheaf(space, presheaf_obj)
    f = sheafkit.cli.parse_map(space, map_obj)
    try:
        q = sheafkit.presheaf.pullback(p, f)
    except KeyError as exc:
        return f"validation error: presheaf restriction undefined at {exc}\n"
    return {y: len(sheafkit.presheaf.stalk(q, y).carrier.elements)
            for y in sorted(f.domain.points)}


def test_pullback_over_the_minimal_opens_reports_as_the_full_build(tmp_path, capsys):
    """Random set presheaves, most with an entry deleted from two
    restrictions between minimal opens (the only restrictions a pullback
    reads), pulled back along the identity or random continuous maps:
    listing only the domain's minimal opens gives the stalk sizes, or the
    first undefined restriction, that listing every open gives.  Some runs
    have minimal opens that raise different messages, so the order in
    which they are listed shows."""
    from test_presheaf import random_space
    rng = random.Random(30)
    outcomes, orders = set(), 0
    for _ in range(60):
        codomain = random_space(rng, rng.randint(2, 4))
        domain = codomain if rng.random() < 0.5 else random_space(rng, rng.randint(2, 5))
        table = {x: sorted(codomain.min_open[x]) for x in codomain.points}
        obj = presheaf_tables(table, rng.choice(["constant", "locally-constant"]), 3)
        key = ",".join
        pairs = sorted(f"{key(sorted(codomain.min_open[x]))}|{key(sorted(codomain.min_open[y]))}"
                       for x in codomain.points for y in codomain.min_open[x] if y != x)
        for pair in rng.sample(pairs, min(len(pairs), rng.choice([0, 2, 2, 2]))):
            entry = obj["restrictions"][pair]
            del entry[rng.choice(sorted(entry))]
        f = None
        while f is None or not sheafkit.finspace.validate_map(f):
            f = sheafkit.finspace.ContinuousMap(domain, codomain, {
                y: y if domain is codomain else rng.choice(sorted(codomain.points))
                for y in domain.points})
        map_obj = {"space": {"min_open": {y: sorted(domain.min_open[y])
                                          for y in domain.points}},
                   "assignment": dict(f.assignment)}
        expected = full_pullback_outcome(table, obj, map_obj)
        code, report, err = run(capsys, [
            "pullback", "--space", write(tmp_path, "space.json", {"min_open": table}),
            "--presheaf", write(tmp_path, "presheaf.json", obj),
            "--map", write(tmp_path, "map.json", map_obj)])
        if isinstance(expected, str):
            assert (code, err) == (EXIT_INVALID, expected)
        else:
            assert code == EXIT_OK and report["stalk_sizes"] == expected
        outcomes.add(code)
        space = sheafkit.cli.parse_space({"min_open": table})
        p, g = (sheafkit.cli.parse_presheaf(space, obj), sheafkit.cli.parse_map(space, map_obj))
        messages = set()
        for u in set(g.domain.min_open.values()):
            try:
                sheafkit.presheaf.pullback(p, g, [u])
            except KeyError as exc:
                messages.add(str(exc))
        orders += len(messages) > 1
    assert outcomes == {EXIT_OK, EXIT_INVALID} and orders


def test_grassmann_ring_size_exit(tmp_path, capsys):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    rg = write(tmp_path, "ring.json", {"kind": "Zm", "m": 1000000})
    code, report, err = run(capsys, ["grassmann", "--space", sp, "--ring", rg,
                                     "-k", "1", "-n", "2"])
    assert code == EXIT_BUDGET and report is None
    assert err == "size guard hit: ring size 1000000 exceeds bound 128\n"


def run_module(argv, timeout=60):
    """`python -m sheafkit.cli` on this checkout's sources, in a fresh
    process; a run past `timeout` seconds fails the test."""
    src = Path(sheafkit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)


# b0-b5 open, and t0-t5 closed, each above all of b0-b5
BIPARTITE66 = json.loads((Path(__file__).resolve().parents[1] / "tools" / "inputs"
                          / "bipartite66.json").read_text())


@pytest.mark.parametrize("space,argv,expected", [
    # [12 4]_2 candidates of 2^4 vectors, refused before any is built
    ({"min_open": {"p": ["p"]}}, ["grassmann", "-k", "4", "-n", "12"],
     "13910980083 candidates of 16 vectors exceed bound 100000 vectors"),
    # 16383 lines at each point of an 11-point chain: every open has one
    # maximal point, so the join over the whole chain charges 16383 index
    # map entries per point below p11 (10) and one node per line at p11,
    # within 10^6 steps
    ({"min_open": {f"p{i:02d}": [f"p{j:02d}" for j in range(1, i + 1)]
                   for i in range(1, 12)}},
     ["grassmann", "-k", "1", "-n", "14"],
     (",".join(f"p{i:02d}" for i in range(1, 12)), 16383)),
    # 32767 lines at each point, each of t0-t5 above all of b0-b5: over the
    # whole space the join charges 32767 index map entries per related
    # pair (36) before any node, past 10^6 steps at the 31st pair
    (BIPARTITE66, ["classify", "-n", "1", "-N", "15", "--budget", "100000000"],
     "stalk-family join over open ['b0', 'b1', 'b2', 'b3', 'b4', 'b5', 't0', "
     "'t1', 't2', 't3', 't4', 't5'] exceeds 1000000 steps at 1015777"),
    # 255 lines at each of three pairwise unrelated points: 255^3 values
    # over {a1, a2, e}, counted from their factors and never listed
    ({"min_open": {"a1": ["a1"], "a2": ["a2"], "e": ["e"], "m": ["a1", "a2", "m"]}},
     ["grassmann", "-k", "1", "-n", "8"], ("a1,a2,e", 255 ** 3)),
], ids=["candidates", "join", "bipartite", "product"])
def test_grassmann_size_guards_exit_quickly(tmp_path, space, argv, expected):
    sp = write(tmp_path, "space.json", space)
    rg = write(tmp_path, "ring.json", {"kind": "Fp", "p": 2})
    proc = run_module(["-m", "sheafkit.cli", argv[0], "--space", sp, "--ring", rg,
                       *argv[1:]])
    if isinstance(expected, tuple):
        assert proc.returncode == EXIT_OK, proc.stderr
        key, count = expected
        assert json.loads(proc.stdout)["value_counts"][key] == count
        return
    assert proc.returncode == EXIT_BUDGET and proc.stdout == ""
    assert proc.stderr.startswith("size guard hit: ") and expected in proc.stderr


@pytest.mark.parametrize("n, big_n, count", [(2, 7, 2667), (3, 6, 1395)])
def test_classify_on_the_pseudo_circle_joins_past_the_old_guard(capsys, n, big_n, count):
    """Joined through index maps, the whole pseudo-circle's join over F_2
    stays within the join guard at N = 7 and at rank 3: the subsheaves are
    the [N n]_2 subspaces, and each is a section."""
    inputs = Path(__file__).resolve().parents[1] / "tools" / "inputs"
    code, report, err = run(capsys, ["classify", "--space", str(inputs / "pseudo_circle.json"),
                                     "--ring", str(inputs / "f2.json"),
                                     "-n", str(n), "-N", str(big_n)])
    assert code == EXIT_OK, err
    assert count == gaussian_binomial(big_n, n, 2)
    assert report["counts"] == {"sections": count, "subsheaves": count}
    assert report["bijection"] is True


def test_grassmann_on_the_pseudo_circle_keeps_the_value_product_guard(capsys):
    """`grassmann -k 2 -n 7` counts the 2667^2 values over the disconnected
    open {a, b} from their factors and exits 0; listing them, as
    `g.presheaf()` and `enumerate_free_subsheaves` do, stays refused."""
    from sheafkit import grassmann
    inputs = Path(__file__).resolve().parents[1] / "tools" / "inputs"
    code, report, err = run(capsys, ["grassmann", "--space", str(inputs / "pseudo_circle.json"),
                                     "--ring", str(inputs / "f2.json"), "-k", "2", "-n", "7"])
    assert code == EXIT_OK, err
    assert report["value_counts"]["a,b"] == 2667 ** 2 == 7112889
    assert report["sections_over_whole"] == report["value_counts"]["a,b,c,d"] == 2667
    a = constant_algebra_sheaf(pseudo_circle(), make_field(2))
    message = "value product over open ['a', 'b'] exceeds 1000000 values at 7112889"
    with pytest.raises(SpaceTooLarge, match=re.escape(message)):
        grassmann.build_grassmann_presheaf(a, 2, 7).presheaf()
    with pytest.raises(SpaceTooLarge, match=re.escape(message)):
        grassmann.enumerate_free_subsheaves(a, 2, 7, frozenset("ab"))
    # `classify` lists V over a disconnected whole space, as {a, b} is here
    ab = constant_algebra_sheaf(build_space({"a": ["a"], "b": ["b"]}), make_field(2))
    with pytest.raises(SpaceTooLarge, match=re.escape(message)):
        classify(ab, 2, 7)


def test_module_entry_point_runs_without_warnings():
    proc = run_module(["-W", "error", "-m", "sheafkit.cli", "--help"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: sheafkit")


def test_violation_report_does_not_follow_the_hash_seed(tmp_path, monkeypatch):
    """Violations name opens by their sorted points, so a broken presheaf's
    report is the same under string hash seeds that order sets apart."""
    sp = write(tmp_path, "space.json", PSEUDO_CIRCLE)
    ph = write(tmp_path, "presheaf.json", break_presheaf(
        presheaf_tables(PSEUDO_CIRCLE["min_open"], "constant", 2), "cover"))
    reports = []
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = run_module(["-m", "sheafkit.cli", "presheaf-check",
                           "--space", sp, "--presheaf", ph])
        assert proc.returncode == EXIT_OK, proc.stderr
        reports.append(proc.stdout)
    assert reports[0] == reports[1]
    assert "composition fails ['a', 'b', 'c', 'd']->['a', 'b', 'c']->['a']" in reports[0]


def test_grassmann_bad_ring_kind(tmp_path, capsys):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    rg = write(tmp_path, "ring.json", {"kind": "mystery"})
    code, report, err = run(capsys, ["grassmann", "--space", sp, "--ring", rg,
                                     "-k", "1", "-n", "2"])
    assert code == EXIT_INVALID and report is None


def test_grassmann_non_prime_field(tmp_path, capsys):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    rg = write(tmp_path, "ring.json", {"kind": "Fp", "p": 4})
    code, report, err = run(capsys, ["grassmann", "--space", sp, "--ring", rg,
                                     "-k", "1", "-n", "2"])
    assert code == EXIT_INVALID and report is None


def test_cli_rings_build_without_the_axiom_check(monkeypatch):
    def axiom_check(self):
        raise AssertionError("axiom check run")
    monkeypatch.setattr(FinRing, "check_axioms", axiom_check)
    rings = [F3, {"kind": "Zm", "m": 12}, {"kind": "quotient", "p": 2, "poly": [1, 1, 1]},
             {"kind": "product", "left": F3, "right": {"kind": "Zm", "m": 4}}]
    assert [parse_ring(r).label for r in rings] == ["F_3", "Z/12", "F_2[t]/(t^2+t+1)",
                                                    "F_3xZ/4"]


@pytest.mark.parametrize("ring,message", [
    ({"kind": "Zm", "m": 1}, "modulus 1 < 2"),
    ({"kind": "Zm", "m": -5}, "modulus -5 < 2"),
    ({"kind": "Fp", "p": 9}, "9 is not prime"),
    ({"kind": "quotient", "p": 4, "poly": [1, 1]}, "4 is not prime"),
    ({"kind": "quotient", "p": 3, "poly": [1, 2]}, "must be monic of degree >= 1"),
    ({"kind": "quotient", "p": 3, "poly": [1, 3]}, "must be monic of degree >= 1"),
    ({"kind": "product", "left": F3, "right": {"kind": "Zm", "m": 0}}, "modulus 0 < 2"),
], ids=["m1", "m-5", "p9", "quotient-p4", "non-monic", "degree-0", "product-m0"])
def test_bad_cli_rings_exit_invalid_without_the_axiom_check(tmp_path, capsys, monkeypatch,
                                                            ring, message):
    """Moduli and polynomials are refused before any table is built."""
    def axiom_check(self):
        raise AssertionError("axiom check run")
    monkeypatch.setattr(FinRing, "check_axioms", axiom_check)
    sp = write(tmp_path, "space.json", SIERPINSKI)
    rg = write(tmp_path, "ring.json", ring)
    code, report, err = run(capsys, ["grassmann", "-k", "1", "-n", "2",
                                     "--space", sp, "--ring", rg])
    assert code == EXIT_INVALID and report is None
    assert message in err.strip().splitlines()[-1], err


@pytest.mark.parametrize("ring,argv,message", [
    ({"kind": "Zm", "m": 4}, ["grassmann", "-k", "1", "-n", "2"], "not a field"),
    ({"kind": "Zm", "m": 4}, ["classify", "-n", "1", "-N", "2"], "not a field"),
    (F3, ["grassmann", "-k", "-1", "-n", "2"], "-1 is negative"),
    (F3, ["grassmann", "-k", "1", "-n", "-2"], "-2 is negative"),
    (F3, ["classify", "-n", "-1", "-N", "2"], "-1 is negative"),
    (F3, ["classify", "-n", "1", "-N", "-2"], "-2 is negative"),
    (F3, ["classify", "-n", "3", "-N", "2"], "rank 3 exceeds truncation 2"),
], ids=["grassmann-Zm4", "classify-Zm4", "grassmann-k", "grassmann-n",
        "classify-n", "classify-N", "classify-rank-above-N"])
def test_rejected_input_exits_invalid_without_traceback(tmp_path, capsys,
                                                        ring, argv, message):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    rg = write(tmp_path, "ring.json", ring)
    code, report, err = run(capsys, argv + ["--space", sp, "--ring", rg])
    assert code == EXIT_INVALID and report is None
    assert "Traceback" not in err
    assert message in err.strip().splitlines()[-1]


F2_SQUARED = {"kind": "product", "left": {"kind": "Fp", "p": 2},
              "right": {"kind": "Fp", "p": 2}}
F2_SPLIT_QUOTIENT = {"kind": "quotient", "p": 2, "poly": [0, 1, 1]}  # F_2[t]/(t^2+t)


@pytest.mark.parametrize("ring", [F2_SQUARED, F2_SPLIT_QUOTIENT],
                         ids=["F2xF2", "F2[t]/(t^2+t)"])
@pytest.mark.parametrize("argv", [["grassmann", "-k", "{}", "-n", "2"],
                                  ["classify", "-n", "{}", "-N", "1"]],
                         ids=["grassmann", "classify"])
def test_rank_zero_accepts_any_ring(tmp_path, capsys, ring, argv):
    """The zero submodule is free of rank 0 over any ring, and the candidate
    listing returns it before its field check: rank 0 over a ring that is
    not a field exits 0 with a report, rank 1 exits 1."""
    sp = write(tmp_path, "space.json", SIERPINSKI)
    rg = write(tmp_path, "ring.json", ring)
    files = ["--space", sp, "--ring", rg]
    code, report, err = run(capsys, [a.format(0) for a in argv] + files)
    assert code == EXIT_OK and report is not None
    code, report, err = run(capsys, [a.format(1) for a in argv] + files)
    assert code == EXIT_INVALID and report is None
    assert err.strip().splitlines()[-1].endswith("is not a field")


def test_classify_budget_caps_the_whole_command(tmp_path, capsys):
    a = constant_algebra_sheaf(pseudo_circle(), make_field(2))
    b = Budget()
    classify(a, 2, 3, b)
    sp = write(tmp_path, "space.json", PSEUDO_CIRCLE)
    rg = write(tmp_path, "ring.json", {"kind": "Fp", "p": 2})
    argv = ["classify", "--space", sp, "--ring", rg, "-n", "2", "-N", "3"]
    code, report, err = run(capsys, argv + ["--budget", str(b.used)])
    assert code == EXIT_OK and report["bijection"] is True
    code, report, err = run(capsys, argv + ["--budget", str(b.used - 1)])
    assert code == EXIT_BUDGET and report is None
    assert "budget" in err


@pytest.mark.parametrize("argv", [
    ["space-check", "--space", "s.json"],
    ["presheaf-check", "--space", "s.json", "--presheaf", "p.json"],
    ["sheafify", "--space", "s.json", "--presheaf", "p.json"],
    ["stalks", "--space", "s.json", "--presheaf", "p.json"],
    ["pullback", "--space", "s.json", "--presheaf", "p.json", "--map", "m.json"],
    ["embed", "--space", "s.json", "--ring", "r.json", "--cocycle", "c.json",
     "--weights", "w.json"],
    ["demo-counterexample"],
], ids=lambda argv: argv[0])
def test_budget_only_on_searching_commands(capsys, argv):
    code, report, err = run(capsys, argv + ["--budget", "5"])
    assert code == EXIT_INVALID and report is None
    assert "unrecognized arguments: --budget" in err


@pytest.mark.parametrize("argv", [
    ["grassmann", "-k", "1", "-n", "2"],
    ["classify", "-n", "1", "-N", "2"],
], ids=lambda argv: argv[0])
def test_negative_budget_is_invalid(tmp_path, capsys, argv):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    rg = write(tmp_path, "ring.json", F3)
    code, report, err = run(capsys, argv + ["--space", sp, "--ring", rg,
                                            "--budget", "-1"])
    assert code == EXIT_INVALID and report is None
    assert "-1 is negative" in err


def test_classify_command(tmp_path, capsys):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    rg = write(tmp_path, "ring.json", {"kind": "Fp", "p": 2})
    code, report, err = run(capsys, ["classify", "--space", sp, "--ring", rg,
                                     "-n", "1", "-N", "2"])
    assert code == EXIT_OK
    assert report["bijection"] is True
    assert report["counts"]["sections"] == report["counts"]["subsheaves"] == 3


# -- embed -------------------------------------------------------------------

def test_embed_command(tmp_path, capsys):
    sp = write(tmp_path, "space.json", PSEUDO_CIRCLE)
    rg = write(tmp_path, "ring.json", F3)
    cc = write(tmp_path, "cocycle.json", MOBIUS_COCYCLE)
    # proper weights do not exist on the pseudo-circle; use the trivial cover
    # weights against a matching trivial cover cocycle instead
    triv_cc = write(tmp_path, "triv_cocycle.json", {
        "cover": [["a", "b", "c", "d"]], "rank": 1, "transitions": {}})
    wt = write(tmp_path, "weights.json", TRIVIAL_WEIGHTS)
    code, report, err = run(capsys, ["embed", "--space", sp, "--ring", rg,
                                     "--cocycle", triv_cc, "--weights", wt])
    assert code == EXIT_OK
    assert report["monomorphism"] is True
    assert report["target_rank"] == 1


def test_embed_rejects_bad_weights(tmp_path, capsys):
    sp = write(tmp_path, "space.json", PSEUDO_CIRCLE)
    rg = write(tmp_path, "ring.json", F3)
    cc = write(tmp_path, "cocycle.json", {
        "cover": [["a", "b", "c", "d"]], "rank": 1, "transitions": {}})
    # weight vanishing at c but the cover member contains c: support is fine,
    # but no member has a unit germ at c, so covering fails
    wt = write(tmp_path, "weights.json", {
        "cover": [["a", "b", "c", "d"]],
        "weights": [{"a": "0", "b": "0", "c": "0", "d": "0"}],
    })
    code, report, err = run(capsys, ["embed", "--space", sp, "--ring", rg,
                                     "--cocycle", cc, "--weights", wt])
    assert code == EXIT_INVALID and report is None


def test_embed_rejects_bad_cocycle(tmp_path, capsys):
    sp = write(tmp_path, "space.json", PSEUDO_CIRCLE)
    rg = write(tmp_path, "ring.json", F3)
    cc = write(tmp_path, "cocycle.json", {
        "cover": [["a", "b", "c"], ["a", "b", "d"]],
        "rank": 1,
        "transitions": {"0,1": [[{"a": "0", "b": "1"}]]},
    })
    wt = write(tmp_path, "weights.json", TRIVIAL_WEIGHTS)
    code, report, err = run(capsys, ["embed", "--space", sp, "--ring", rg,
                                     "--cocycle", cc, "--weights", wt])
    assert code == EXIT_INVALID and report is None


def test_embed_missing_transition_is_invalid(tmp_path, capsys):
    sp = write(tmp_path, "space.json", PSEUDO_CIRCLE)
    rg = write(tmp_path, "ring.json", F3)
    cc = write(tmp_path, "cocycle.json", {**MOBIUS_COCYCLE, "transitions": {}})
    wt = write(tmp_path, "weights.json", TRIVIAL_WEIGHTS)
    code, report, err = run(capsys, ["embed", "--space", sp, "--ring", rg,
                                     "--cocycle", cc, "--weights", wt])
    assert code == EXIT_INVALID and report is None
    assert err == "validation error: no transition between charts 0 and 1\n"


# The embed report corpus: (space, ring, cocycle, weights) per case, valid
# weighted covers and each way a cocycle or weight family is rejected.  The
# digest of a case is the sha256 of its exit code, stdout and stderr, as
# reported when each chart change was looked up, and each weight family
# validated, on its own at every use.
CHAIN3 = {"min_open": REPORT_SPACES["chain3"]}
DISCRETE2 = {"min_open": REPORT_SPACES["discrete2"]}
WHOLE_PC = ["a", "b", "c", "d"]
CHAIN3_CHARTS = [["p1", "p2", "p3"], ["p1", "p2"], ["p1"]]
DISCRETE2_CHARTS = [["u"], ["v"]]
PARTITION = {"cover": DISCRETE2_CHARTS,
             "weights": [{"u": "1", "v": "0"}, {"u": "0", "v": "1"}]}


def field(p):
    return {"kind": "Fp", "p": p}


def trivial(points, rank):
    return {"cover": [points], "rank": rank, "transitions": {}}


def charts(cover, rank, transitions):
    return {"cover": cover, "rank": rank, "transitions": transitions}


def one_weight(cover):
    return {"cover": cover, "weights": ["1"] + ["0"] * (len(cover) - 1)}


EMBED_CASES = {
    "trivial rank 1 F3": (PSEUDO_CIRCLE, F3, trivial(WHOLE_PC, 1), TRIVIAL_WEIGHTS),
    "trivial rank 2 F2": (PSEUDO_CIRCLE, field(2), trivial(WHOLE_PC, 2), TRIVIAL_WEIGHTS),
    "trivial rank 0": (SIERPINSKI, F3, trivial(["c", "o"], 0),
                       one_weight([["c", "o"]])),
    "trivial rank 1 Z4": (PSEUDO_CIRCLE, {"kind": "Zm", "m": 4}, trivial(WHOLE_PC, 1),
                          TRIVIAL_WEIGHTS),
    "given chart change": (
        PSEUDO_CIRCLE, F3,
        charts([WHOLE_PC, ["a", "b", "c"]], 1, {"0,1": [["2"]]}),
        one_weight([WHOLE_PC, ["a", "b", "c"]])),
    "reverse chart change rank 2": (
        PSEUDO_CIRCLE, F3,
        charts([WHOLE_PC, ["a", "b", "c"]], 2, {"1,0": [["1", "1"], ["0", "1"]]}),
        one_weight([WHOLE_PC, ["a", "b", "c"]])),
    "both directions F5": (
        PSEUDO_CIRCLE, field(5),
        charts([WHOLE_PC, ["a", "b", "d"]], 1, {"0,1": [["2"]], "1,0": [["3"]]}),
        one_weight([WHOLE_PC, ["a", "b", "d"]])),
    "three charts": (
        CHAIN3, F3,
        charts(CHAIN3_CHARTS, 1, {"0,1": [["2"]], "0,2": [["2"]], "2,1": [["1"]]}),
        one_weight(CHAIN3_CHARTS)),
    "partition of unity": (DISCRETE2, F3, charts(DISCRETE2_CHARTS, 1, {}), PARTITION),
    "partition of unity rank 2": (DISCRETE2, field(2), charts(DISCRETE2_CHARTS, 2, {}),
                                  PARTITION),
    "weights without a unit germ": (
        PSEUDO_CIRCLE, F3, trivial(WHOLE_PC, 1),
        {"cover": [WHOLE_PC], "weights": [{"a": "0", "b": "0", "c": "0", "d": "0"}]}),
    "weight not a global section": (
        CHAIN3, F3, trivial(CHAIN3_CHARTS[0], 1),
        {"cover": [CHAIN3_CHARTS[0]], "weights": [{"p1": "1", "p2": "2", "p3": "1"}]}),
    "weight count": (DISCRETE2, F3, charts(DISCRETE2_CHARTS, 1, {}),
                     {"cover": DISCRETE2_CHARTS, "weights": ["1"]}),
    "weight off its support": (
        DISCRETE2, F3, charts(DISCRETE2_CHARTS, 1, {}),
        {"cover": DISCRETE2_CHARTS,
         "weights": [{"u": "1", "v": "1"}, {"u": "0", "v": "1"}]}),
    "weight cover differs": (DISCRETE2, F3, trivial(["u", "v"], 1), PARTITION),
    "not invertible": (
        PSEUDO_CIRCLE, F3,
        charts([["a", "b", "c"], ["a", "b", "d"]], 1, {"0,1": [[{"a": "0", "b": "1"}]]}),
        TRIVIAL_WEIGHTS),
    "not invertible rank 2": (
        PSEUDO_CIRCLE, field(2),
        charts([WHOLE_PC, ["a", "b", "c"]], 2, {"0,1": [["1", "1"], ["1", "1"]]}),
        one_weight([WHOLE_PC, ["a", "b", "c"]])),
    "cocycle condition both directions": (
        PSEUDO_CIRCLE, field(5),
        charts([WHOLE_PC, ["a", "b", "d"]], 1, {"0,1": [["2"]], "1,0": [["2"]]}),
        one_weight([WHOLE_PC, ["a", "b", "d"]])),
    "cocycle condition three charts": (
        CHAIN3, F3,
        charts(CHAIN3_CHARTS, 1, {"0,1": [["2"]], "0,2": [["1"]], "1,2": [["1"]]}),
        one_weight(CHAIN3_CHARTS)),
    "wrong shape": (
        PSEUDO_CIRCLE, F3,
        charts([WHOLE_PC, ["a", "b", "c"]], 1, {"0,1": [["1", "1"]], "1,0": [["1"], ["1"]]}),
        one_weight([WHOLE_PC, ["a", "b", "c"]])),
    "entry not a section": (
        CHAIN3, F3,
        charts(CHAIN3_CHARTS[:2], 1, {"0,1": [[{"p1": "1", "p2": "2"}]]}),
        one_weight(CHAIN3_CHARTS[:2])),
    "cover misses a point": (PSEUDO_CIRCLE, F3, trivial(["a", "b", "c"], 1),
                             TRIVIAL_WEIGHTS),
    "cover member not open": (
        PSEUDO_CIRCLE, F3, charts([["a", "b", "d"], ["a", "c"]], 1, {"0,1": [["1"]]}),
        one_weight([["a", "b", "d"], ["a", "c"]])),
}
EMBED_DIGESTS = {
    "trivial rank 1 F3":
        "08f96de0f28f34b531531a1724857c34c8d07c57bc0937898b4452f818bc17b4",
    "trivial rank 2 F2":
        "443363e965ee0a9d777418e02543eb8942828638001ba458fb3a97417bf970de",
    "trivial rank 0":
        "7c3f05e2c08da075adf8732840cdd13fc067abd126c635c6e12b2578710886c1",
    "trivial rank 1 Z4":
        "08f96de0f28f34b531531a1724857c34c8d07c57bc0937898b4452f818bc17b4",
    "given chart change":
        "a6c462b38f39636d95afbc32c89d4150fbf56b66e3ab258a301ef22b3fd6c450",
    "reverse chart change rank 2":
        "da198fb3e4cd98db77cd0cad765ae225b8e84c8a1456e05792c7d57cdbf5b686",
    "both directions F5":
        "a6c462b38f39636d95afbc32c89d4150fbf56b66e3ab258a301ef22b3fd6c450",
    "three charts":
        "d555a13542c65415732d1f600bbdb2f176a7eb34617c2ff8ad86fd0f8c63b3fe",
    "partition of unity":
        "a6c462b38f39636d95afbc32c89d4150fbf56b66e3ab258a301ef22b3fd6c450",
    "partition of unity rank 2":
        "da198fb3e4cd98db77cd0cad765ae225b8e84c8a1456e05792c7d57cdbf5b686",
    "weights without a unit germ":
        "7583c5c2ef53e6d2301d2622f43e3728790ba1b7dd7490237abe27bb8e4492d0",
    "weight not a global section":
        "7abb9b6b7f1cea05eaad73b526267f0771856a019f3298f6ae600ea6bbed36cc",
    "weight count":
        "c9cb76a155b495be3f3a6e69bb4cd470926dbdb6c6311a3eb79c6da5d38e7338",
    "weight off its support":
        "3167c0f4b4fd32d51e2c185c68460726657af337ddae7f427a84e1093c7ffcdc",
    "weight cover differs":
        "997e53cb88d89d3e67dffa25b3b0ef91ab2e40a37620e4c1378f9cbc1a0101c8",
    "not invertible":
        "ba594b6f9cabc286ae8017ba6fe833a33e650633523194a5dc3edc297a39a7b7",
    "not invertible rank 2":
        "ddb8298e4e49f389f5378452f7e58b00455d2b1a529cf15bc83b617c29acba64",
    "cocycle condition both directions":
        "b7b6a3341301a968ea7f79efb60ea096c2998e01fc79961f80f27db9934eda7d",
    "cocycle condition three charts":
        "75615cae7bc5d4c555bbaaf2dbda6eff8c9b02151583afe75c3e4e4e9c81f1a5",
    "wrong shape":
        "27ac3b62c6429f5eb43806bc5f4f901709322ead27c80dee80c03d6cd94141e8",
    "entry not a section":
        "67e6f9dc9f4c96670f65821fae9aa652fe121b2826eb906b348d9926546d8b06",
    "cover misses a point":
        "b4626027946e62bdd174b44ebf8f4f2b5d9b7ec1211dc83a14bd3d31e7f4d2c2",
    "cover member not open":
        "e937034cf62a7d6b0acb0bb2b6d4e76c87c38cc331bd7ffbdd51daa40f41c49a",
}


def test_embed_report_corpus_is_byte_identical(tmp_path, capsys):
    digests = {}
    for case, (space, ring, cocycle, weights) in EMBED_CASES.items():
        argv = ["embed"]
        for option, obj in (("space", space), ("ring", ring), ("cocycle", cocycle),
                            ("weights", weights)):
            argv += [f"--{option}", write(tmp_path, f"{option}.json", obj)]
        code = main(argv)
        captured = capsys.readouterr()
        digests[case] = hashlib.sha256(
            f"{code}\n{captured.out}\n{captured.err}".encode()).hexdigest()
    assert digests == EMBED_DIGESTS


@pytest.mark.parametrize("transitions", [
    {}, {"0,0": [["1" if r == c else "0" for c in range(17)] for r in range(17)]},
], ids=["none", "identity"])
def test_embed_stalk_guard_exits_before_the_cocycle_check(tmp_path, transitions):
    """A glued stalk of F_2^17 lists 2^17 > 10^5 vectors: refused before
    the stalks are listed and before any 17 x 17 germ is checked."""
    point = write(tmp_path, "space.json", {"min_open": {"p": ["p"]}})
    rg = write(tmp_path, "ring.json", field(2))
    cc = write(tmp_path, "cocycle.json", charts([["p"]], 17, transitions))
    wt = write(tmp_path, "weights.json", one_weight([["p"]]))
    proc = run_module(["-m", "sheafkit.cli", "embed", "--space", point, "--ring", rg,
                       "--cocycle", cc, "--weights", wt], timeout=30)
    assert proc.returncode == EXIT_BUDGET and proc.stdout == ""
    assert proc.stderr == ("size guard hit: glued sheaf of rank 17: stalk F_2^17 "
                           "exceeds bound 100000 vectors\n")


def reverse_identity(rank):
    """Two charts of one point, glued by the identity given only as (1, 0)."""
    return charts([["p"], ["p"]], rank,
                  {"1,0": [["1" if r == c else "0" for c in range(rank)]
                           for r in range(rank)]})


def test_embed_guards_the_glued_stalk_not_the_target(tmp_path, capsys):
    """The target A^(k m) lists no stalk, so only the glued stalk meets the
    10^5-vector guard: rank 9 on two charts embeds into F_2^18 (it exited 2
    on the target's 2^18 vectors when the target was listed), and rank 17
    still exits 2 on the glued stalk F_2^17."""
    point = write(tmp_path, "space.json", {"min_open": {"p": ["p"]}})
    rg = write(tmp_path, "ring.json", field(2))
    wt = write(tmp_path, "weights.json", one_weight([["p"], ["p"]]))
    cc = write(tmp_path, "cocycle.json", reverse_identity(9))
    code, report, err = run(capsys, ["embed", "--space", point, "--ring", rg,
                                     "--cocycle", cc, "--weights", wt])
    assert code == EXIT_OK and err == "embed: monomorphism=True\n"
    assert report == {"command": "embed", "rank": 9, "cover_size": 2,
                      "target_rank": 18, "monomorphism": True}
    cc = write(tmp_path, "cocycle.json", reverse_identity(17))
    code, report, err = run(capsys, ["embed", "--space", point, "--ring", rg,
                                     "--cocycle", cc, "--weights", wt])
    assert code == EXIT_BUDGET and report is None
    assert err == ("size guard hit: glued sheaf of rank 17: stalk F_2^17 "
                   "exceeds bound 100000 vectors\n")


def test_weight_check_lists_no_global_section(capsys):
    """The trivial rank-1 bundle on twelve discrete points over F_5 has
    5^12 global sections of A, past the 10^6-state guard on listing them.
    Weights are checked against A's restrictions, so `classify` (whose
    embedding check validates the trivial weights) and `embed` exit 0;
    both exited 2 on the guard when the weight check listed the sections."""
    inputs = Path(__file__).resolve().parents[1] / "tools" / "inputs"
    discrete12 = str(inputs / "discrete12.json")
    common = ["--space", discrete12, "--ring", str(inputs / "f5.json")]
    code, report, err = run(capsys, ["classify", *common, "-n", "1", "-N", "1"])
    assert code == EXIT_OK and err == "classify: bijection=True\n"
    assert report == {"command": "classify", "ring": "F_5", "k": 1, "n": 1,
                      "counts": {"sections": 1, "subsheaves": 1}, "pairs": [[0, 0]],
                      "bijection": True, "embed_image_found": True}
    code, report, err = run(capsys, ["embed", *common, "--cocycle", discrete12,
                                     "--weights", discrete12])
    assert code == EXIT_OK and err == "embed: monomorphism=True\n"
    assert report == {"command": "embed", "rank": 1, "cover_size": 1,
                      "target_rank": 1, "monomorphism": True}


# Each check on an input that fails at c->a and at c->b on the pseudo-circle
# over F_3; every check walks a minimal open in sorted order.
HASH_SEED_CHECKS = """
from sheafkit import vecsheaf as vs
from sheafkit.finalg import Matrix, make_field
from sheafkit.finspace import pseudo_circle

f3 = make_field(3)
a = vs.constant_algebra_sheaf(pseudo_circle(), f3)
e = vs.free_sheaf(a, 1)
whole = frozenset(a.space.points)
one = {v: (1,) for v in e.stalk_elems["c"]}  # not additive
print(vs.ModuleSheaf(a, e.rank_at, e.stalk_elems,
                     {**e.res, ("c", "a"): one, ("c", "b"): one}).validate())
zero, full = frozenset({(0,)}), frozenset(e.stalk_elems["c"])
print(vs.validate_subsheaf(vs.make_subsheaf(e, {"a": zero, "b": zero, "c": full,
                                                "d": zero})))
maps = {x: {v: v for v in e.stalk_elems[x]} for x in whole}
maps["c"] = {v: (2 * v[0] % 3,) for v in e.stalk_elems["c"]}
print(vs.validate_module_morphism(vs.ModuleMorphism(e, e, maps)))
triv = {**vs.identity_trivialization(e, whole, 1), "c": Matrix(f3, 1, 1, (2,))}
try:
    vs.embed_via_weights(e, (whole,), {0: triv}, vs.trivial_weight_family(a), 1)
except vs.TrivializationMismatch as exc:
    print(exc)
print(vs.validate_cocycle(vs.TransitionCocycle(a, (whole, frozenset("abc")), 1,
                                               {(0, 1): (((1, 1, 2),),)})))
"""


def test_check_problems_do_not_follow_the_hash_seed(tmp_path, monkeypatch):
    """Under string hash seeds that order the minimal open {a, b, c} apart,
    each check lists its two failing pairs, and `embed` names its
    incompatible transition entry, in the same bytes."""
    sp = write(tmp_path, "space.json", PSEUDO_CIRCLE)
    rg = write(tmp_path, "ring.json", F3)
    cc = write(tmp_path, "cocycle.json", charts(
        [WHOLE_PC, ["a", "b", "c"]], 1, {"0,1": [[{"a": "1", "b": "1", "c": "2"}]]}))
    wt = write(tmp_path, "weights.json", one_weight([WHOLE_PC, ["a", "b", "c"]]))
    outputs = []
    for seed in ("0", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        checks = run_module(["-c", HASH_SEED_CHECKS])
        assert checks.returncode == 0, checks.stderr
        embed = run_module(["-m", "sheafkit.cli", "embed", "--space", sp, "--ring", rg,
                            "--cocycle", cc, "--weights", wt])
        assert embed.returncode == EXIT_INVALID and embed.stdout == ""
        outputs.append((checks.stdout, embed.stderr))
    assert outputs[0] == outputs[1]
    incompatible = "transition (0,1) entry incompatible at 'c'->"
    assert outputs[0] == (
        "[\"res('c','a') not additive\", \"res('c','b') not additive\"]\n"
        "[\"restriction 'c'->'a' leaves the stalk family\", "
        "\"restriction 'c'->'b' leaves the stalk family\"]\n"
        "[\"naturality fails 'c'->'a'\", \"naturality fails 'c'->'b'\"]\n"
        "trivialization 0 not natural at 'c'->'a'\n"
        f"[\"{incompatible}'a'\", \"{incompatible}'b'\"]\n",
        f"validation error: {incompatible}'a'; {incompatible}'b'\n")


# -- malformed input ---------------------------------------------------------

@pytest.mark.parametrize("argv,inputs", [
    (["space-check"], {"space": [1, 2]}),
    (["grassmann", "-k", "1", "-n", "2"],
     {"space": SIERPINSKI, "ring": {"kind": "Fp", "p": "3"}}),
    (["embed"], {"space": PSEUDO_CIRCLE, "ring": F3,
                 "cocycle": {**MOBIUS_COCYCLE, "transitions": {"0,5": [["1"]]}},
                 "weights": TRIVIAL_WEIGHTS}),
    (["space-check"], {"space": {"min_open": [1]}}),
    (["space-check"], {"space": {"min_open": {"o": "o"}}}),
    (["space-check"], {"space": {"min_open": {"o": [["o"]]}}}),
    (["embed"], {"space": PSEUDO_CIRCLE, "ring": F3,
                 "cocycle": {**MOBIUS_COCYCLE, "transitions": []},
                 "weights": TRIVIAL_WEIGHTS}),
    (["embed"], {"space": PSEUDO_CIRCLE, "ring": F3,
                 "cocycle": {**MOBIUS_COCYCLE, "cover": 5},
                 "weights": TRIVIAL_WEIGHTS}),
    (["embed"], {"space": PSEUDO_CIRCLE, "ring": F3,
                 "cocycle": {**MOBIUS_COCYCLE,
                             "cover": [["a", "b", "c"], ["a", "b", "z"]]},
                 "weights": TRIVIAL_WEIGHTS}),
    (["embed"], {"space": PSEUDO_CIRCLE, "ring": F3,
                 "cocycle": {**MOBIUS_COCYCLE, "rank": -1},
                 "weights": TRIVIAL_WEIGHTS}),
    (["embed"], {"space": PSEUDO_CIRCLE, "ring": F3,
                 "cocycle": {**MOBIUS_COCYCLE, "rank": "1"},
                 "weights": TRIVIAL_WEIGHTS}),
    (["embed"], {"space": PSEUDO_CIRCLE, "ring": F3,
                 "cocycle": {**MOBIUS_COCYCLE, "transitions": {"0,1": [[{"a": "1"}]]}},
                 "weights": TRIVIAL_WEIGHTS}),
    (["embed"], {"space": PSEUDO_CIRCLE, "ring": F3, "cocycle": MOBIUS_COCYCLE,
                 "weights": {**TRIVIAL_WEIGHTS, "weights": 1}}),
    (["embed"], {"space": PSEUDO_CIRCLE, "ring": F3,
                 "cocycle": {"cover": [WHOLE_PC, ["c"]], "rank": 1,
                             "transitions": {"0,1": [["1"]]}},
                 "weights": one_weight([WHOLE_PC, ["c"]])}),
    (["presheaf-check"], {"space": SIERPINSKI, "presheaf": {
        **CONSTANT_F2_PRESHEAF,
        "carriers": {**CONSTANT_F2_PRESHEAF["carriers"], "": [["x"]]}}}),
    (["presheaf-check"], {"space": SIERPINSKI, "presheaf": {
        **CONSTANT_F2_PRESHEAF,
        "restrictions": {**CONSTANT_F2_PRESHEAF["restrictions"], "o|": "0"}}}),
    (["stalks"], {"space": SIERPINSKI, "presheaf": {
        **CONSTANT_F2_PRESHEAF,
        "carriers": {**CONSTANT_F2_PRESHEAF["carriers"], "o": ["x", "x"]}}}),
    (["pullback"], {"space": SIERPINSKI, "presheaf": CONSTANT_F2_PRESHEAF,
                    "map": {"space": {"min_open": {"p": ["p"]}},
                            "assignment": {"p": ["c"]}}}),
    (["pullback"], {"space": SIERPINSKI, "presheaf": CONSTANT_F2_PRESHEAF,
                    "map": {"space": SIERPINSKI, "assignment": {"c": "o"}}}),
], ids=["space-not-an-object", "ring-p-a-string", "transition-key-out-of-range",
        "min-open-a-list", "min-open-value-a-string", "min-open-point-a-list",
        "transitions-a-list", "cover-a-number", "cover-point-outside",
        "rank-negative", "rank-a-string", "transition-entry-missing-a-point",
        "weights-a-number", "member-not-open", "carrier-element-a-list", "restriction-a-string",
        "carrier-element-twice", "map-image-a-list", "map-partial"])
def test_malformed_input_exits_invalid_without_traceback(tmp_path, capsys,
                                                         argv, inputs):
    for option, obj in inputs.items():
        argv = argv + [f"--{option}", write(tmp_path, f"{option}.json", obj)]
    code, report, err = run(capsys, argv)
    assert code == EXIT_INVALID and report is None
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf-8", "nested-100000-deep"])
def test_unreadable_input_exits_invalid_with_one_line(tmp_path, capsys, content):
    sp = tmp_path / "space.json"
    sp.write_bytes(content)
    code, report, err = run(capsys, ["space-check", "--space", str(sp)])
    assert code == EXIT_INVALID and report is None
    assert err.startswith(f"parse error: {sp}: ") and err.count("\n") == 1


def test_out_in_a_missing_directory_exits_invalid_with_one_line(tmp_path, capsys):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    out = tmp_path / "missing" / "report.json"
    code, report, err = run(capsys, ["space-check", "--space", sp, "--out", str(out)])
    assert code == EXIT_INVALID and report is None and not out.parent.exists()
    assert err.startswith("output error: ") and str(out) in err and err.count("\n") == 1


# -- demo --------------------------------------------------------------------

def test_demo_counterexample_values():
    report = demo_counterexample()
    assert report["presheaf_valid"] is True
    assert report["stalk_sizes"] == {"x0": 4, "x1": 2}
    assert report["pullback_stalk_sizes"] == {"f0": 4, "f1": 2}
    assert report["pullback_stalks_isomorphic"] is False
    assert "not isomorphic" in report["conclusion"]


def test_demo_command(capsys):
    code, report, err = run(capsys, ["demo-counterexample"])
    assert code == EXIT_OK
    assert report["pullback_stalks_isomorphic"] is False


def test_demo_degenerate_inputs():
    from sheafkit.finalg import RingMorphism, make_field
    f2 = make_field(2)
    ident = RingMorphism(f2, f2, (0, 1))
    report = demo_counterexample(f2, f2, ident)
    assert report["pullback_stalks_isomorphic"] is True
    assert "degenerate" in report["conclusion"]


# -- output handling ---------------------------------------------------------

def test_out_flag_writes_identical_report(tmp_path, capsys):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    out = tmp_path / "report.json"
    code1, report1, _ = run(capsys, ["space-check", "--space", sp])
    code2 = main(["space-check", "--space", sp, "--out", str(out)])
    capsys.readouterr()
    assert code1 == code2 == EXIT_OK
    assert json.loads(out.read_text()) == report1


def test_reports_are_deterministic(tmp_path, capsys):
    sp = write(tmp_path, "space.json", PSEUDO_CIRCLE)
    rg = write(tmp_path, "ring.json", F3)
    argv = ["grassmann", "--space", sp, "--ring", rg, "-k", "1", "-n", "2"]
    _, _, _ = run(capsys, argv)
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first[1] == second[1]


def test_console_script_installed(tmp_path):
    # Builds the wrapper an install would make for the `sheafkit` entry of
    # [project.scripts], so the declared entry point is checked from the
    # checkout with nothing installed and no other `sheafkit` on PATH used.
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    import pytest

    import sheafkit

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "sheafkit" in scripts
    module, attr = scripts["sheafkit"].split(":")

    bindir = tmp_path / "bin"
    bindir.mkdir()
    wrapper = bindir / "sheafkit"
    wrapper.write_text(f"#!{sys.executable}\n"
                       "import sys\n"
                       f"from {module} import {attr}\n"
                       f"sys.exit({attr}())\n")
    wrapper.chmod(0o755)

    path = os.pathsep.join([str(bindir), os.environ.get("PATH", "")])
    exe = shutil.which("sheafkit", path=path)
    assert exe is not None
    assert Path(exe) == wrapper
    src = Path(sheafkit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([exe, "demo-counterexample"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pullback_stalks_isomorphic"] is False
