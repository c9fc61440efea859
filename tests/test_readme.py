"""README.md's examples run as written, and it names the whole CLI.

Every ```python block of README.md is a doctest, run in a fresh namespace,
so each block imports what it uses and prints what its text shows.  The
README names every CLI flag and every exit code.
"""

import doctest
import re
from pathlib import Path

import pytest

from twinbeam import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = [  # (the README line a block's code starts on, its code)
    (TEXT.count("\n", 0, match.start(1)) + 1, match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, flags=re.M | re.S)
]


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"line {line}" for line, _ in BLOCKS])
def test_block_runs_as_shown(line, source):
    assert source.startswith(">>> "), "a python block is a doctest from its first line"
    test = doctest.DocTestParser().get_doctest(source, {}, f"README.md:{line}", str(README), line - 1)
    report = []
    assert doctest.DocTestRunner().run(test, out=report.append).failed == 0, "".join(report)


def test_every_flag_is_named():
    missing = [flag for flag in ("--" + name.replace("_", "-") for name in cli._PARAMS)
               if not re.search(re.escape(flag) + r"\b", TEXT)]
    assert missing == []


def test_every_exit_code_is_named():
    paragraph = TEXT[TEXT.index("Exit codes:") :].split("\n\n")[0]
    assert [code for code in (0, 1, 2, 141) if f"`{code}`" not in paragraph] == []
