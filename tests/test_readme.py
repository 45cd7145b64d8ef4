"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from avlprange.cli import main

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order(capsys):
    # later blocks use names the earlier ones define
    namespace: dict = {}
    sources = [body for lang, body in BLOCKS if lang == "python"]
    assert sources
    for source in sources:
        exec(compile(source, "README.md", "exec"), namespace)


def test_command_lines_exit_0(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    lines = [line for lang, body in BLOCKS if lang != "python"
             for line in body.splitlines() if line.startswith("avlprange ")]
    assert lines
    for line in lines:
        code = main(shlex.split(line)[1:])
        assert code == 0, (line, capsys.readouterr().err)
