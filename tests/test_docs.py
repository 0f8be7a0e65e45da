"""The README's code examples run as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # optimize=0 keeps the example's asserts under python -O
    exec(compile(code, str(README), "exec", optimize=0), {})
