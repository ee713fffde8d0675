import json

import numpy as np
import pytest

from linsys import (
    FormatError,
    LinearSystem,
    SizeLimit,
    dumps_json,
    dumps_plane_json,
    dumps_text,
    loads_json,
    loads_text,
    plane_to_dict,
    projective_plane,
    system_from_dict,
    system_to_dict,
)
from linsys.limits import Caps


@pytest.fixture
def sample():
    return LinearSystem(4, [[0, 1], [1, 2, 3]], name="sample")


def test_dict_round_trip(sample):
    d = system_to_dict(sample)
    assert d["name"] == "sample"
    assert d["num_points"] == 4
    assert d["lines"] == [[0, 1], [1, 2, 3]]
    assert system_from_dict(d) == sample


def test_name_omitted_when_unset():
    d = system_to_dict(LinearSystem(2, [[0, 1]]))
    assert "name" not in d
    assert system_from_dict(d).name is None


def test_json_round_trip(sample):
    text = dumps_json(sample)
    assert loads_json(text) == sample
    # canonical form: compact separators, sorted keys
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


def test_json_is_deterministic(sample):
    assert dumps_json(sample) == dumps_json(sample)


def test_from_dict_rejects_bad_shapes():
    with pytest.raises(FormatError):
        system_from_dict({"lines": [[0]]})
    with pytest.raises(FormatError):
        system_from_dict({"num_points": 2})
    with pytest.raises(FormatError):
        system_from_dict({"num_points": "2", "lines": [[0]]})
    with pytest.raises(FormatError):
        system_from_dict({"num_points": 2, "lines": [[0, True]]})
    with pytest.raises(FormatError):
        system_from_dict({"num_points": 2, "lines": "01"})
    with pytest.raises(FormatError):
        system_from_dict({"num_points": 2, "lines": [0]})


def test_loads_json_rejects_non_object():
    with pytest.raises(FormatError):
        loads_json("[1,2]")
    with pytest.raises(FormatError):
        loads_json("not json")


def test_loads_json_types_every_decoding_error():
    # undecodable bytes and integers past str()'s 4,300-digit limit are
    # ValueErrors but not JSONDecodeErrors
    with pytest.raises(FormatError, match=r"^invalid JSON: 'utf-8' codec"):
        loads_json(b"\xff")
    huge = "1" + "0" * 4999
    for text in (
        f'{{"num_points": {huge}, "lines": []}}',
        f'{{"num_points": 3, "lines": [[0, {huge}]]}}',
    ):
        with pytest.raises(FormatError, match=r"^invalid JSON: Exceeds the limit"):
            loads_json(text)
        with pytest.raises(FormatError, match=r"^invalid JSON: Exceeds the limit"):
            loads_json(text.encode())
    # nesting past the recursion limit is a RecursionError, not a ValueError
    deep = '{"lines": ' + "[" * 100_000
    for text in (deep, deep.encode()):
        with pytest.raises(FormatError, match=r"^invalid JSON: maximum recursion depth"):
            loads_json(text)


def test_loaders_apply_their_caps():
    tight = Caps(system_points=3)
    text = '{"num_points": 4, "lines": [[0, 1]]}'
    with pytest.raises(SizeLimit, match=r"^4 points exceeds cap 3$"):
        loads_json(text, tight)
    with pytest.raises(SizeLimit, match=r"^4 points exceeds cap 3$"):
        loads_text("4 1\n0 1\n", tight)
    assert loads_json(text).num_points == 4


def test_system_from_dict_names_the_first_bad_entry():
    for entry, shown in ((True, "bool"), (1.0, "float"), ("2", "str"), (None, "NoneType")):
        data = {"num_points": 4, "lines": [[0, 1], [2, 3, entry, 0.5]]}
        with pytest.raises(FormatError, match=rf"^line 1 contains a non-integer entry of type {shown}$"):
            system_from_dict(data)
    # numpy integers pass the loader as they pass the constructor
    data = {"num_points": 4, "lines": [[np.int64(0), np.uint8(3)]]}
    assert system_from_dict(data).line_tuples == ((0, 3),)


def test_system_from_dict_takes_num_points_as_the_constructor_does():
    # one integer rule for the loader and LinearSystem: a numpy int passes
    # both, a bool neither
    data = {"num_points": np.int64(3), "lines": [[0, 1]]}
    built = system_from_dict(data)
    assert built == LinearSystem(np.int64(3), [[0, 1]])
    assert type(built.num_points) is int and built.num_points == 3
    with pytest.raises(FormatError, match=r'^"num_points" must be an integer$'):
        system_from_dict({"num_points": True, "lines": [[0]]})


def test_text_round_trip(sample):
    text = dumps_text(sample)
    lines = text.splitlines()
    assert lines[0] == "4 2"
    assert lines[1:] == ["0 1", "1 2 3"]
    assert text.endswith("\n")
    back = loads_text(text)
    assert back.num_points == 4 and back.line_tuples == sample.line_tuples


def test_text_tolerates_blank_lines(sample):
    noisy = "\n4 2\n\n0 1\n\n1 2 3\n\n"
    assert loads_text(noisy).line_tuples == sample.line_tuples


def test_text_rejects_bad_input():
    with pytest.raises(FormatError):
        loads_text("")
    with pytest.raises(FormatError):
        loads_text("3\n0 1\n")
    with pytest.raises(FormatError):
        loads_text("3 2\n0 1\n")  # one line short
    with pytest.raises(FormatError):
        loads_text("3 1\n0 1\n1 2\n")  # one line extra
    with pytest.raises(FormatError):
        loads_text("3 1\n0 x\n")


def test_zero_line_round_trips():
    empty = LinearSystem(5, [])
    assert loads_text(dumps_text(empty)).num_points == 5
    assert loads_json(dumps_json(empty)) == empty


def test_plane_export_includes_coords():
    plane = projective_plane(2)
    d = plane_to_dict(plane)
    assert d["num_points"] == 7
    assert len(d["coords"]) == 7
    assert d["coords"][0] == [0, 0, 1]
    assert all(len(c) == 3 for c in d["coords"])
    # coords order matches point indexing
    for i, c in enumerate(plane.point_coords):
        assert list(c) == d["coords"][i]
    text = dumps_plane_json(plane)
    parsed = json.loads(text)
    assert parsed["name"] == "PG(2,2)"
    assert system_from_dict(
        {k: parsed[k] for k in ("name", "num_points", "lines")}
    ) == plane.system
