"""README's examples run as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _first_python_block(heading: str) -> str:
    """The first ```python block after the line ``heading`` in README."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, capsys):
    """The first python block under README's Library heading runs with
    ``path`` bound to a small file, so it names no method the library
    lacks; its file search and its stream agree."""
    path = tmp_path / "text.bin"
    path.write_bytes(b"xxaabxxaab")
    names = {"path": path}
    exec(compile(_first_python_block("## Library"), README, "exec"), names)
    assert names["outcome"].positions == [2, 7]
    assert capsys.readouterr().out == "2\n7\n"
    assert names["stream"].verification_count == names["outcome"].verification_count
