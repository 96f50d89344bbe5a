"""The README's Python quick tour runs, and each ``# value`` comment that
is a Python literal is what its line evaluates to."""

import ast
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Python quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def line_comments(source: str) -> dict[int, str]:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.start[0]: t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT}


def test_quick_tour_values():
    source = quick_tour()
    comments = line_comments(source)
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], type_ignores=[]), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        try:
            want = ast.literal_eval(comments.get(stmt.end_lineno, ""))
        except (ValueError, SyntaxError):
            continue  # a comment in words, not a value
        assert value == want, ast.unparse(stmt)
        checked.append(ast.unparse(stmt))
    # every literal value the tour shows
    assert checked == [
        "sturmian_stream(alpha).word(12)",
        "x.word(20)",
        "pv.verdict",
        "pv.proximal_evidence",
        "cert.K",
        "rep.max_clique_size",
    ]
