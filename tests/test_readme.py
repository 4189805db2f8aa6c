"""The command-line examples in README.md print what the README says.

Every ``$ qser ...`` line of the shell block under "Command line" runs
through ``qser.cli.main`` in-process; the lines after it, up to the next
blank line, are its expected stdout.  So does every "`qser ...` prints:"
sentence, whose expected stdout is the code block that follows it.  An
expected line containing ``...`` matches any real line that starts with the
text before it and ends with the text after it.

The python block under "Library" runs as written, and each line whose
comment is a value (``# -175``) or an equality (``# == Series.one(50)``)
evaluates to that value.
"""

import re
import shlex
from pathlib import Path

import pytest

from qser.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()


def _block_after(text: str, start: int) -> list[str]:
    """Lines of the first fenced code block at or after offset start."""
    m = re.compile(r"^```\w*\n(.*?)^```$", re.M | re.S).search(text, start)
    return m.group(1).splitlines()


def shell_examples() -> list[tuple[str, list[str]]]:
    section = README[README.index("## Command line"):]
    section = section[:section.index("\n## ")]
    lines = _block_after(section, section.index("```sh"))
    out = []
    for i, line in enumerate(lines):
        if line.startswith("$ qser "):
            expected = []
            for follow in lines[i + 1:]:
                if not follow:
                    break
                expected.append(follow)
            out.append((line[2:], expected))
    return out


def prints_examples() -> list[tuple[str, list[str]]]:
    return [
        (m.group(1), _block_after(README, m.end()))
        for m in re.finditer(r"`(qser [^`]*)` prints:", README)
    ]


def _matches(expected: str, got: str) -> bool:
    head, dots, tail = expected.partition("...")
    if not dots:
        return got == expected
    return len(got) >= len(head) + len(tail) and got.startswith(head) and got.endswith(tail)


def library_block() -> list[str]:
    section = README[README.index("## Library"):]
    return _block_after(section, section.index("```python"))


def library_results() -> list[tuple[str, str]]:
    """(expression, expected) for each Library line whose comment is a result."""
    out = []
    for line in library_block():
        code, _, comment = line.partition("#")
        comment = comment.strip()
        if comment.startswith("== "):
            out.append((code.strip(), comment[3:]))
        elif re.fullmatch(r"-?\d+", comment):
            out.append((code.strip(), comment))
    return out


def test_readme_has_examples():
    assert len(shell_examples()) == 3
    assert len(prints_examples()) == 1


@pytest.mark.parametrize(
    "command,expected",
    [pytest.param(c, e, id=c) for c, e in shell_examples() + prints_examples()],
)
def test_readme_example_output(capsys, command, expected):
    assert main(shlex.split(command)[1:]) == 0
    got = capsys.readouterr().out.splitlines()
    assert len(got) == len(expected), got
    for e, g in zip(expected, got):
        assert _matches(e, g), (e, g)


def test_readme_library_example():
    namespace = {}
    exec("\n".join(library_block()), namespace)
    results = library_results()
    assert [e for _, e in results] == ["-175", "Series.one(50)", "Series([1] * 10)"]
    for expression, expected in results:
        assert eval(expression, namespace) == eval(expected, namespace), expression
