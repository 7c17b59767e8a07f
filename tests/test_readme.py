"""The README's library sketch runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_sketch() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under '## Library sketch'"
    return match.group(1)


def test_library_sketch_runs():
    namespace: dict = {}
    exec(compile(library_sketch(), "README.md#library-sketch", "exec"), namespace)
    assert set(namespace["splits"]) == {16, 64}
