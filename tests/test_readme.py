"""The README's library tour runs as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from pwmperc import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, str(README), "exec"), namespace)
    assert namespace["m"].reliable


def test_cli_examples_parse():
    text = README.read_text()
    block = re.search(r"```bash\n(.*?)```", text[text.index("## CLI"):], re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "pwmperc"]
    assert {argv[0] for argv in commands} == set(cli.KINDS)
    for argv in commands:
        cli._build_parser().parse_args(argv)
