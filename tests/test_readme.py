"""The README's Library example runs as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example():
    # Only the ```python blocks: run on the whole file, doctest would read
    # each closing fence as expected output.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    test = doctest.DocTestParser().get_doctest(
        "\n".join(blocks), {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
