"""Source checks that a linter does not make.

A ``take(..., out=...)`` under NumPy's default ``mode="raise"`` writes
through a temporary buffer and copies it into ``out``, about twice the
cost of the unbuffered ``mode="clip"``/``"wrap"`` gather on large
arrays.  Every such call in ``src/repro`` must say which mode it means.
"""

import ast
import os

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")
)


def buffered_takes(source: str, filename: str) -> list[str]:
    """``file:line`` of each ``take`` call passing ``out=`` but no
    ``mode=``, as ``np.take(a, i, out=o)`` or ``a.take(i, out=o)``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        keywords = {kw.arg for kw in node.keywords}
        if name == "take" and "out" in keywords and "mode" not in keywords:
            found.append(f"{filename}:{node.lineno}")
    return found


def test_checker_flags_buffered_take():
    source = (
        "np.take(a, i, out=o)\n"
        "a.take(i, out=o)\n"
        "np.take(a, i, out=o, mode='clip')\n"
        "a.take(i)\n"
        "take(a, i, out=o)\n"
    )
    assert buffered_takes(source, "x.py") == ["x.py:1", "x.py:2", "x.py:5"]


def test_no_buffered_take_in_src():
    found, checked = [], 0
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                checked += 1
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    found += buffered_takes(
                        fh.read(), os.path.relpath(path, SRC)
                    )
    assert checked > 50
    assert not found, (
        "take(..., out=...) without mode= buffers its output; pass "
        "mode='clip' once the indices are known to be in range: "
        + ", ".join(found)
    )
