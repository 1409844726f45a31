"""The CLI's indented JSON writer against ``json.dumps``.

``cli._write_json`` must print exactly the bytes of
``print(json.dumps(obj, indent=2, sort_keys=True))``, also when it
streams the strata list item by item; the streamed items come encoded
by ``json.dumps`` and nested four spaces deep, the form
``cli._stratum_record`` writes.  The SHA-256 digests below were
computed with a plain ``json.dumps`` of the whole document.
"""

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelevel import cli
from treelevel.cli import main
from treelevel.selftest import singular_cone_tree

TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
    st.characters()), max_size=8)
LEAVES = st.one_of(
    st.none(), st.booleans(), TEXT,
    st.integers(min_value=-2**70, max_value=2**70))
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20)


def nested(item):
    """``item`` as a streamed "strata" item: encoded by ``json.dumps``
    for a value four spaces deep."""
    return json.dumps(item, indent=2, sort_keys=True).replace("\n", "\n    ")


def printed(obj, **kw):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_json(obj, **kw)
    return out.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(VALUES)
def test_matches_json_dumps(obj):
    assert printed(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.dictionaries(TEXT.filter(lambda k: k < "strata"), VALUES,
                       max_size=4),
       st.lists(VALUES, max_size=4))
def test_streamed_list_matches_json_dumps(head, items):
    doc = {**head, "strata": items}
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    encoded = iter([nested(item) for item in items])
    assert printed({**head, "strata": encoded}, stream="strata") == expected


def test_streams_each_item_before_building_the_next():
    out = io.StringIO()
    written = []

    def items():
        for i in range(3):
            written.append(out.getvalue().count('"item"'))
            yield nested({"item": i})

    with contextlib.redirect_stdout(out):
        cli._write_json({"a": 1, "strata": items()}, stream="strata")
    assert written == [0, 1, 2]


def test_stream_key_must_sort_last():
    with pytest.raises(ValueError):
        printed({"z": 1, "strata": iter([])}, stream="strata")


# what json.dumps refuses; it writes floats, tuples and int keys
@pytest.mark.parametrize("bad", [{"a": 1, 2: "b"}, [1, {2}], b"x", {"k": 1j}],
                         ids=["bad3", "bad4", "x", "bad6"])
def test_rejects_other_types(bad):
    with pytest.raises(TypeError):
        printed(bad)


# SHA-256 of the stdout of each command, pinned with the json.dumps writer.
PINNED = {
    'strata --space m0 --n 3 --json':
        '73d1b19fbef2ba4f07f1ed6622674f2d32662ab4d943065090ea554b851bfd9b',
    'strata --space m0 --n 4 --json':
        '87e3b43e870e8776cfc6d69101da02aec8a5d404c959092d4a696d2af662d2bf',
    'strata --space m0 --n 5 --json':
        '1f7b85611f5eb0c417dfacc35923756ceaf42fd0647822365423ab3c28b80e0d',
    'strata --space m0 --n 6 --json':
        '5293ef2c6da4b1c7d59146a878fb384863c0c1fc6bbe56f129c96958fc2c1190',
    'strata --space fm --n 0 --json':
        '8c1deafd0c231c64edca9d0bcce5d330da8f08068d6afcdc4f9ee537bd158439',
    'strata --space fm --n 1 --json':
        'cc9f192baf6fbc2ab6acddfb73c7236d7ea2559681027f15600b01c3a6eb45a0',
    'strata --space fm --n 2 --json':
        '100f941032f109620dc113866a3523a24f1d742935e056c69eafe764f3cfc026',
    'strata --space fm --n 3 --json':
        '0d821956ad6f1c530ecff48edc6c88a8d08b52808abf1a4d46ee6b1ad1803800',
    'strata --space fm --n 4 --json':
        '0e2cc43b76573a262227051a54723cbff4a959d2a16d5c9c40d3000a91a02055',
    'strata --space mult --n 1 --json':
        '627d674427898d4068651ad318a0a430acef748e5803d0ffefc0c37b68754374',
    'strata --space mult --n 2 --json':
        '3fcee61d8b52e5caee54fa8aa98e3740e527184ea76e42c74251e71b642413d7',
    'strata --space mult --n 3 --json':
        'cd8cf78343d0a0afe419bee22511f3b124218d2df8f7b80e31bd107cf99f871a',
    'strata --space mult --n 4 --json':
        'ea74f0ec96747119c009ca407d6518c9e199998c8a3070c17f1dce11523c8a0b',
    'strata --space scaled --n 0 --json':
        'e21202afb05c8ffa78595c5e8d660bd4302a6d536cf5b54484f92beadd8484c1',
    'strata --space scaled --n 1 --json':
        '155c7559b6b0827e214630e08944e61b9611cafb0bf854ab6b132a93e2e20c70',
    'strata --space scaled --n 2 --json':
        'd416d76a20fab2f7d615fc4353ae233252c1c1f1e0927f7474d21ee5d1db1751',
    'strata --space scaled --n 3 --json':
        '870abe005f1af4d6c3773d22d34a1e76106cfeaf1a0ce8212063d5b0816b005c',
    'strata --space scaled --n 4 --json':
        'b3d777df51a0739e65cb238d7c2273de0c9895685625ef21961e24c9574432ec',
    'divisors --space mult --n 4 --json':
        '187c7810d2d57dff032abbd25ffa253edb6d47d05f23309e569f6375a9e729c6',
    'kirwan --weights 1,2 --degree-bound 3 --json':
        '080f3ebe409a984a3854dea0133fe3a386b145eb51b1e5676754dca60bb41047',
}
CONE_SHA = (
    '012c12e3144be8ef6d1b021f36aefe3b2684e981aacf3d090da04d1379dd8539')


def stdout_sha(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(PINNED))
def test_pinned_stdout(capsys, command):
    assert stdout_sha(capsys, command.split()) == PINNED[command]


def test_pinned_cone_stdout(capsys, tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(singular_cone_tree().to_json())
    assert stdout_sha(capsys, ["cone", "--graph", str(path), "--json"]) == CONE_SHA
