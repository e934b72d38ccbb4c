"""README.md's examples are what the program prints.

Each `$ classlab ...` line in a fenced block of README.md is run through
`classlab.cli.main` in a temporary directory, with no CLASSLAB_* variable
set, and its output must be the lines that follow it, up to the next `$`
line or the end of the block.  Text output is compared byte for byte; JSON
output is compared parsed, without `timing`, and README must show it in the
printed layout.  The cap table must list the program's caps, flags,
environment variables and defaults, and the fixed bounds their values.
"""
import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

from classlab.classes import MAX_DUAL_DEPTH, MAX_NESTING
from classlab.cli import _common_parser, main
from classlab.config import _CAP_ROWS, _ENV_FIELDS, Caps
from classlab.structure import COMPLEMENT_SPACE_BOUND

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```[a-z]*\n(.*?)^```\n", README, flags=re.S | re.M)


def _examples() -> list[tuple[str, str]]:
    """(command line, expected output) for each `$ classlab` line."""
    out = []
    for block in BLOCKS:
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            if command.startswith("classlab "):
                out.append((command, output.rstrip("\n") + "\n"))
    return out


EXAMPLES = _examples()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for var in _ENV_FIELDS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _run(capsys, command: str) -> str:
    main(shlex.split(command)[1:])
    return capsys.readouterr().out


def test_every_command_section_has_examples():
    commands = {shlex.split(command)[1] for command, _ in EXAMPLES}
    assert commands == {"group", "class", "audit", "dual-chain", "realize", "search",
                        "universe", "selftest"}


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_output(capsys, workdir, command, expected):
    got = _run(capsys, command)
    if "--json" in shlex.split(command):
        # README shows the report as printed, one value per line.
        shown = json.loads(expected)
        assert expected == json.dumps(shown, indent=2, sort_keys=True) + "\n"
        got, expected = json.loads(got), shown
        del got["timing"], expected["timing"]
    assert got == expected


def test_universe_file_example(capsys, workdir):
    command = next(c for c, _ in EXAMPLES if c.startswith("classlab universe build"))
    out_path = shlex.split(command)[shlex.split(command).index("--out") + 1]
    _run(capsys, command)
    shown = next(b for b in BLOCKS if b.startswith("classlab-universe v1\n"))
    assert (workdir / out_path).read_text() == shown


def test_cap_table_matches_the_program():
    rows = re.findall(r"^\| [^|]+ \| (\d+) \| `(--[a-z-]+)` \| `(CLASSLAB_[A-Z_]+)` \|$",
                      README, flags=re.M)
    cap_fields = {f.name for f in dataclasses.fields(Caps)}
    # every cap can be raised by a flag and a variable: a field with no row
    # would be a setting that only library code reaches
    assert sorted(field for field, _, _ in _CAP_ROWS) == sorted(cap_fields)
    flags = {a.option_strings[0]: a.dest for a in _common_parser()._actions
             if a.dest in cap_fields}
    assert sorted(var for _, _, var in rows) == sorted(_ENV_FIELDS)
    assert sorted(flag for _, flag, _ in rows) == sorted(flags)
    for default, flag, var in rows:
        assert flags[flag] == _ENV_FIELDS[var]
        assert int(default) == getattr(Caps(), _ENV_FIELDS[var])


def test_fixed_bounds_match_the_program():
    text = " ".join(README.split())
    assert f"`dual-chain --k` take k at most {MAX_DUAL_DEPTH}" in text
    assert f"exceeds configured dual-iteration depth {MAX_DUAL_DEPTH}`" in text
    assert f"nests at most {MAX_NESTING} parentheses deep" in text
    assert f"more than {MAX_NESTING} parentheses deep is a parse error" in text
    assert f"at most {COMPLEMENT_SPACE_BOUND} candidate lifts" in text
    assert f"exceeds fixed bound {COMPLEMENT_SPACE_BOUND}`" in text
