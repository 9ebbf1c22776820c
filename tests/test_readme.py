import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    code = re.search(r"## Library use\n.*?```python\n(.*?)```", text, re.S).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out == "Attack at dawn.\n"
