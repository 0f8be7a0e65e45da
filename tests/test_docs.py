"""The README's code examples run as documented."""

import re
import shlex
from pathlib import Path

from pifam.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # optimize=0 keeps the example's asserts under python -O
    exec(compile(code, str(README), "exec", optimize=0), {})


def test_readme_command_lines_run_in_order(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)  # the lines write and read files such as h12.txt
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "pifam"
        assert main(argv[1:]) == 0, f"{line!r}: {capsys.readouterr().err}"
    assert {"h12.txt", "g12.json", "fano.json", "g9.json"} <= {p.name for p in tmp_path.iterdir()}
