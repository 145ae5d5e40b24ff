"""The README's library tour runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, str(README), "exec"), namespace)
    assert namespace["m"].reliable
