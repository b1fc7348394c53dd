"""The README's quick start runs as shown, and its API list is ``__all__``."""

import doctest
import re
from pathlib import Path

import simulpal

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    # the text from the heading ``## title`` to the next second-level heading
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end != -1 else len(README)]


def test_quick_start_runs_as_shown():
    block = re.search(r"```python\n(.*?)```", _section("Library quick start"), re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README quick start", "README.md", 0)
    assert test.examples
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, len(test.examples))


def test_library_api_lists_exactly_the_exports():
    section = _section("Library API")
    entries = re.findall(r"^- `(\w+)", section, re.M)
    assert sorted(entries) == sorted(simulpal.__all__)
    # no other name in the section, such as a helper outside the API
    named = set(re.findall(r"`(\w+)", section))
    assert named == set(simulpal.__all__)
