"""Any input to the loaders gives a system or a typed error, and the CLI
turns it into exit 0, 1 or 2, never a traceback."""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from linsys import LinearSystem, LinsysError, loads_json, loads_text
from linsys.cli import main

# a JSON document that nests past Python's recursion limit
DEEP = '{"lines": ' + "[" * 100_000

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
small = st.integers(-1, 9)
# well-typed lines reach the constructor's checks: indices, empty and
# duplicate lines, linearity
lines = st.lists(st.lists(st.integers(-1, 6), max_size=4), max_size=6)
system_objects = st.fixed_dictionaries(
    {"num_points": small, "lines": lines}, optional={"name": st.text(max_size=3)}
)
ill_typed_objects = st.fixed_dictionaries(
    {
        "num_points": small | json_values,
        "lines": st.lists(st.lists(small | json_values, max_size=4), max_size=4)
        | json_values,
    },
    optional={"name": json_values},
)
text_systems = st.builds(
    lambda n, ls: "\n".join([f"{n} {len(ls)}"] + [" ".join(map(str, l)) for l in ls]),
    small,
    lines,
)
token = small.map(str) | st.text(max_size=3)
ill_formed_texts = st.lists(
    st.lists(token, min_size=1, max_size=4).map(" ".join), min_size=1, max_size=5
).map("\n".join)
texts = (
    st.text()
    | json_values.map(json.dumps)
    | (system_objects | ill_typed_objects).map(json.dumps)
    | text_systems
    | ill_formed_texts
)
inputs = texts | texts.map(str.encode) | st.binary()


@settings(max_examples=200, deadline=None)
@given(inputs)
@example(DEEP)
@example(DEEP.encode())
def test_loaders_return_a_system_or_a_typed_error(data):
    for load in (loads_json, loads_text):
        try:
            assert isinstance(load(data), LinearSystem)
        except LinsysError:
            pass


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(inputs)
@example(DEEP)
def test_cli_solve_exits_with_a_code(tmp_path, capsys, data):
    path = tmp_path / "input"
    if isinstance(data, str):
        path.write_text(data, encoding="utf-8")
    else:
        path.write_bytes(data)
    assert main(["solve", "--tau", str(path)]) in (0, 1, 2)
    capsys.readouterr()
