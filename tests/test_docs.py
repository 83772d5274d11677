"""The README's examples and the module doctests, run as written."""
import doctest
import pkgutil
import re
from importlib import import_module
from pathlib import Path

import elnitsky

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    # each fenced python block is parsed on its own, so a closing fence
    # right after an output line is not read as part of that output
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    globs = {}
    for i, block in enumerate(blocks, 1):
        test = parser.get_doctest(block, globs, f"README.md block {i}", str(README), 0)
        runner.run(test, clear_globs=False)
        globs = test.globs  # later blocks use names defined in earlier ones
    failed, attempted = runner.summarize(verbose=False)
    prompts = sum(line.startswith(">>> ") for b in blocks for line in b.splitlines())
    assert attempted == prompts >= 13
    assert failed == 0


def test_module_doctests():
    failed = attempted = 0
    for info in pkgutil.iter_modules(elnitsky.__path__):
        result = doctest.testmod(import_module(f"elnitsky.{info.name}"))
        failed += result.failed
        attempted += result.attempted
    sources = Path(elnitsky.__file__).parent.glob("*.py")
    prompts = sum(
        line.lstrip().startswith(">>> ")
        for path in sources
        for line in path.read_text(encoding="utf-8").splitlines()
    )
    assert attempted == prompts >= 5
    assert failed == 0
