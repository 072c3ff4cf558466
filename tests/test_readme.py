"""The README's library quick tour runs as written."""
import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    # the printed word is the one its comment shows
    (shown,) = re.findall(r"print\(.*\)\s+# (\S+)", code)
    assert out.getvalue() == shown + "\n"
