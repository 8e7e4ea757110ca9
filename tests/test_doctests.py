import doctest
import importlib
import re
from pathlib import Path

# attribute access like schubcalc.schubert finds the re-exported function,
# not the submodule, so resolve the modules by name
MODULES = [
    "schubcalc",
    "schubcalc._limits",
    "schubcalc.cli",
    "schubcalc.perm",
    "schubcalc.poly",
    "schubcalc.schubert",
    "schubcalc.transition",
    "schubcalc.verify",
    "schubcalc.words",
]

README = Path(__file__).resolve().parent.parent / "README.md"


def test_doctests():
    total = 0
    for name in MODULES:
        result = doctest.testmod(importlib.import_module(name), verbose=False)
        assert result.failed == 0, name
        total += result.attempted
    assert total > 30  # the examples are load-bearing documentation


def test_readme_library_examples():
    # Only the fenced block's body: doctest would read the closing fence
    # as part of the last expected output.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    runner = doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        runner.run(doctest.DocTestParser().get_doctest(block, {}, f"README[{i}]", str(README), 0))
    assert (runner.failures, runner.tries) == (0, 4)
