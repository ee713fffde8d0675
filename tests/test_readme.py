"""The README's quick starts, replayed: every ``$ linsys`` line of a
shell block through ``cli.main`` in one fresh directory, and the library
block through ``exec``, each compared with the output the README shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from linsys.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
MS = re.compile(r'"ms":[0-9.]+')


def shell_commands():
    """(argv, exit code, expected lines) per ``$ linsys`` line, in order;
    expected lines that start with "..." are a tail of the output."""
    out = []
    for lang, body in BLOCKS:
        if lang or not body.startswith("$ linsys"):
            continue
        for chunk in re.split(r"^(?=\$ )", body, flags=re.M):
            if not chunk:
                continue
            command, *shown = chunk.rstrip("\n").split("\n")
            command, _, comment = command[2:].partition("#")
            code = re.match(r" ?exit (\d)", comment)
            argv = shlex.split(command)
            assert argv[0] == "linsys", command
            out.append((argv[1:], int(code.group(1)) if code else 0, shown))
    return out


def test_readme_shell_quick_start(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LINSYS_CAPS", raising=False)
    commands = shell_commands()
    assert len(commands) == 9
    for argv, code, shown in commands:
        assert main(argv) == code, argv
        got = MS.sub('"ms":_', capsys.readouterr().out).splitlines()
        want = [MS.sub('"ms":_', line) for line in shown]
        if want[:1] == ["..."]:
            want = want[1:]
            got = got[max(len(got) - len(want), 0):]
        assert got == want, argv


def test_readme_library_quick_start():
    (body,) = [body for lang, body in BLOCKS if lang == "python"]
    want = re.findall(r"^print\(.*\)\s+# (.*)$", body, re.M)
    assert want
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(body, {})
    assert printed.getvalue().splitlines() == want
