import pathlib
import re
import warnings

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    # the README's Python example runs as written, and leaks no numpy
    # RuntimeWarning, the filter every tier-1 test runs under
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(block, str(README), "exec"), {})
