"""The README's command lines and library quick start run as documented."""

import contextlib
import io
import json
import os
import re
import shlex

from ffunits.cli import run_cli

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _first_block(heading: str) -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split(heading + "\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


def test_command_line_block(monkeypatch):
    monkeypatch.chdir(ROOT)  # the commands name instance files relative to the root
    lines = [ln for ln in _first_block("## Command line").splitlines() if ln.strip()]
    assert len(lines) >= 8 and all(ln.startswith("ffunits ") for ln in lines)
    for line in lines:
        out, err = io.StringIO(), io.StringIO()
        code = run_cli(shlex.split(line)[1:], stdout=out, stderr=err)
        assert code in (0, 2), (line, err.getvalue())
        assert isinstance(json.loads(out.getvalue()), dict), line


def test_library_quick_start():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_first_block("## Library quick start"), {})
    printed = out.getvalue().splitlines()
    assert printed[0] == "certified-solutions 2"
    assert sorted(printed[1:3]) == ["['1', 'T + 1']", "['1/(T + 1)', '1/(T + 1)']"]
