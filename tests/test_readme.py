"""The README's quick session, run as a doctest."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_session():
    parser = doctest.DocTestParser()
    test = parser.get_doctest(README.read_text(), {}, "README.md", str(README), 0)
    report = []
    runner = doctest.DocTestRunner()
    result = runner.run(test, out=report.append)
    assert result.attempted > 0
    assert result.failed == 0, "".join(report)
