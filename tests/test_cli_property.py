"""Property test over the CLI boundary: any input ends in exit 0, 1 or 2.

Inputs are near-valid descriptions: valid descriptions over one space with
up to two nested values replaced by small JSON values or deleted, or a
whole file replaced, handed to every subcommand with small size options.
"""

import copy
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sheafkit import finspace
from sheafkit.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, main

SPACES = [{"min_open": {x: sorted(u) for x, u in make().min_open.items()}}
          for make in (finspace.point_space, finspace.sierpinski, finspace.chain3,
                       finspace.discrete2, finspace.pseudo_circle)]
SIERPINSKI = SPACES[1]
RINGS = [{"kind": "Fp", "p": 2}, {"kind": "Fp", "p": 3}, {"kind": "Zm", "m": 4},
         {"kind": "quotient", "p": 2, "poly": [1, 1, 1]},
         {"kind": "product", "left": {"kind": "Fp", "p": 2},
          "right": {"kind": "Fp", "p": 2}}]


def scene(space: dict) -> dict:
    """Valid descriptions of every kind over one space, as JSON."""
    space_obj = finspace.build_space(space["min_open"])
    opens = finspace.enumerate_opens(space_obj)
    pts = sorted(space_obj.points)
    key = ",".join
    presheaf = {  # the constant presheaf {0, 1}
        "carriers": {key(sorted(u)): ["0", "1"] for u in opens},
        "restrictions": {f"{key(sorted(u))}|{key(sorted(v))}": {"0": "0", "1": "1"}
                         for u in opens for v in opens if v < u}}
    cocycles = [{"cover": [pts], "rank": 1, "transitions": {}}]
    if pts == ["a", "b", "c", "d"]:
        cocycles.append({"cover": [["a", "b", "c"], ["a", "b", "d"]], "rank": 1,
                         "transitions": {"0,1": [[{"a": "1", "b": "2"}]]}})
    return {"space": [space], "presheaf": [presheaf], "ring": RINGS,
            "map": [{"space": SPACES[0], "assignment": {"p": pts[0]}},
                    {"space": space, "assignment": {x: x for x in pts}}],
            "cocycle": cocycles, "weights": [{"cover": [pts], "weights": ["1"]}]}


SCENES = [scene(space) for space in SPACES]

COMMANDS = {
    "space-check": (("space",), ()),
    "presheaf-check": (("space", "presheaf"), ()),
    "sheafify": (("space", "presheaf"), ()),
    "stalks": (("space", "presheaf"), ()),
    "pullback": (("space", "presheaf", "map"), ()),
    "grassmann": (("space", "ring"), ("-k", "-n")),
    "classify": (("space", "ring"), ("-n", "-N")),
    "embed": (("space", "ring", "cocycle", "weights"), ()),
    "demo-counterexample": ((), ()),
}

text = st.text(alphabet="abcdop01,|", max_size=3)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10 ** 6) | text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(text, inner, max_size=3),
    max_leaves=6)


def _slots(obj):
    """(container, key) of every nested value of a JSON value."""
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, list):
        items = list(enumerate(obj))
    else:
        items = []
    for key, value in items:
        yield obj, key
        yield from _slots(value)


def mutate(draw, obj):
    """obj with one nested value replaced or deleted, or obj replaced."""
    slots = list(_slots(obj))
    if not slots or draw(st.integers(0, 5)) == 0:
        return draw(json_values)
    container, key = draw(st.sampled_from(slots))
    if isinstance(container, dict) and draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(json_values)
    return obj


@st.composite
def cli_inputs(draw):
    """A subcommand, its files as JSON values and its size options: valid
    descriptions over one space, then up to two mutations."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    files, sizes = COMMANDS[command]
    templates = draw(st.sampled_from(SCENES))
    inputs = {option: copy.deepcopy(draw(st.sampled_from(templates[option])))
              for option in files}
    for _ in range(draw(st.integers(0, 2)) if files else 0):
        option = draw(st.sampled_from(files))
        inputs[option] = mutate(draw, inputs[option])
    argv = [command]
    for option in sizes:
        argv += [option, str(draw(st.integers(-1, 3)))]
    if sizes and draw(st.booleans()):
        argv += ["--budget", str(draw(st.integers(0, 3000)))]
    return argv, inputs


def run_cli(argv, inputs) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for option, obj in inputs.items():
            path = os.path.join(tmp, f"{option}.json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            argv = argv + [f"--{option}", path]
        return main(argv)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(cli_inputs())
@example((["pullback"], {  # a map with no image for o
    "space": SIERPINSKI, "presheaf": SCENES[1]["presheaf"][0],
    "map": {"space": SIERPINSKI, "assignment": {"c": "o"}}}))
@example((["grassmann", "-k", "1", "-n", "2"],  # a ring of 10^6 elements
          {"space": SIERPINSKI, "ring": {"kind": "Zm", "m": 1000000}}))
@example((["pullback"], {  # a carrier element no restriction is defined at
    "space": SIERPINSKI, "map": SCENES[1]["map"][1],
    "presheaf": {**SCENES[1]["presheaf"][0],
                 "carriers": {"": ["0", "1"], "o": ["0", "1"], "c,o": ["", "1"]}}}))
@example((["embed"], {  # a cocycle on two charts, weights on one
    "space": SCENES[4]["space"][0], "ring": {"kind": "Fp", "p": 3},
    "cocycle": SCENES[4]["cocycle"][1], "weights": SCENES[4]["weights"][0]}))
@example((["embed"], {  # two overlapping charts, no transition either way
    "space": SCENES[4]["space"][0], "ring": {"kind": "Fp", "p": 3},
    "cocycle": {**SCENES[4]["cocycle"][1], "transitions": {}},
    "weights": SCENES[4]["weights"][0]}))
def test_cli_exits_with_a_documented_code(case):
    argv, inputs = case
    assert run_cli(argv, inputs) in (EXIT_OK, EXIT_INVALID, EXIT_BUDGET)
