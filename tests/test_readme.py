"""The README's library sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    (sketch,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(sketch, "README.md", "exec"), {})
