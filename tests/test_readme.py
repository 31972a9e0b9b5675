"""The README's Python example runs against the package as it is."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_python_example_runs_and_prints_what_it_says():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    # the first line, a series value, rounds differently across Python versions
    _, order, certificate, radii = out.getvalue().splitlines()
    assert order == "0.5"
    assert certificate.split()[0] == "pass"
    assert radii == "(0.25, 0.5, 0.75, 0.9)"
