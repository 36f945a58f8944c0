import json

import pytest

from sheafkit.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    demo_counterexample,
    main,
)
from sheafkit.finalg import make_field
from sheafkit.finspace import pseudo_circle
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
    """`sections_over_whole` is read from the sheafification that also gives
    the monopresheaf verdict, and equals the enumerated section count."""
    from sheafkit import grassmann, presheaf
    whole = frozenset("abcd")
    calls = []
    original = presheaf.compatible_families

    def counted(space, u, *args, **kwargs):
        out = original(space, u, *args, **kwargs)
        if u == whole:
            calls.append(len(out))
        return out

    for module in (presheaf, grassmann):
        monkeypatch.setattr(module, "compatible_families", counted)
    sp = write(tmp_path, "space.json", PSEUDO_CIRCLE)
    rg = write(tmp_path, "ring.json", {"kind": "Fp", "p": 2})
    code, report, err = run(capsys, ["grassmann", "--space", sp, "--ring", rg,
                                     "-k", "1", "-n", "2"])
    assert code == EXIT_OK
    assert calls == [report["sections_over_whole"]]
    g = grassmann.build_grassmann_presheaf(
        constant_algebra_sheaf(pseudo_circle(), make_field(2)), 1, 2)
    assert len(grassmann.enumerate_sections(g, whole)) == calls[0]


def test_grassmann_budget_exit(tmp_path, capsys):
    sp = write(tmp_path, "space.json", PSEUDO_CIRCLE)
    rg = write(tmp_path, "ring.json", F3)
    code, report, err = run(capsys, ["grassmann", "--space", sp, "--ring", rg,
                                     "-k", "1", "-n", "2", "--budget", "2"])
    assert code == EXIT_BUDGET and report is None
    assert "budget" in err


def test_grassmann_ring_size_exit(tmp_path, capsys):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    rg = write(tmp_path, "ring.json", {"kind": "Zm", "m": 1000000})
    code, report, err = run(capsys, ["grassmann", "--space", sp, "--ring", rg,
                                     "-k", "1", "-n", "2"])
    assert code == EXIT_BUDGET and report is None
    assert "ring size 1000000 exceeds bound 128" in err


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


@pytest.mark.parametrize("ring,argv,message", [
    ({"kind": "Zm", "m": 4}, ["grassmann", "-k", "1", "-n", "2"], "not a field"),
    ({"kind": "Zm", "m": 4}, ["classify", "-n", "1", "-N", "2"], "not a field"),
    (F3, ["grassmann", "-k", "-1", "-n", "2"], "-1 is negative"),
    (F3, ["grassmann", "-k", "1", "-n", "-2"], "-2 is negative"),
    (F3, ["classify", "-n", "-1", "-N", "2"], "-1 is negative"),
    (F3, ["classify", "-n", "1", "-N", "-2"], "-2 is negative"),
], ids=["grassmann-Zm4", "classify-Zm4", "grassmann-k", "grassmann-n",
        "classify-n", "classify-N"])
def test_rejected_input_exits_invalid_without_traceback(tmp_path, capsys,
                                                        ring, argv, message):
    sp = write(tmp_path, "space.json", SIERPINSKI)
    rg = write(tmp_path, "ring.json", ring)
    code, report, err = run(capsys, argv + ["--space", sp, "--ring", rg])
    assert code == EXIT_INVALID and report is None
    assert "Traceback" not in err
    assert message in err.strip().splitlines()[-1]


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
    (["presheaf-check"], {"space": SIERPINSKI, "presheaf": {
        **CONSTANT_F2_PRESHEAF,
        "carriers": {**CONSTANT_F2_PRESHEAF["carriers"], "": [["x"]]}}}),
    (["presheaf-check"], {"space": SIERPINSKI, "presheaf": {
        **CONSTANT_F2_PRESHEAF,
        "restrictions": {**CONSTANT_F2_PRESHEAF["restrictions"], "o|": "0"}}}),
    (["pullback"], {"space": SIERPINSKI, "presheaf": CONSTANT_F2_PRESHEAF,
                    "map": {"space": {"min_open": {"p": ["p"]}},
                            "assignment": {"p": ["c"]}}}),
    (["pullback"], {"space": SIERPINSKI, "presheaf": CONSTANT_F2_PRESHEAF,
                    "map": {"space": SIERPINSKI, "assignment": {"c": "o"}}}),
], ids=["space-not-an-object", "ring-p-a-string", "transition-key-out-of-range",
        "min-open-a-list", "min-open-value-a-string", "min-open-point-a-list",
        "transitions-a-list", "cover-a-number", "cover-point-outside",
        "rank-negative", "rank-a-string", "transition-entry-missing-a-point",
        "weights-a-number", "carrier-element-a-list", "restriction-a-string",
        "map-image-a-list", "map-partial"])
def test_malformed_input_exits_invalid_without_traceback(tmp_path, capsys,
                                                         argv, inputs):
    for option, obj in inputs.items():
        argv = argv + [f"--{option}", write(tmp_path, f"{option}.json", obj)]
    code, report, err = run(capsys, argv)
    assert code == EXIT_INVALID and report is None
    assert "Traceback" not in err


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
