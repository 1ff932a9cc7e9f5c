"""Print the code lines and the public names of each module of a package
directory, and the totals.

    python tools/code_lines.py [src/qchar]

A code line is a line that holds a token other than a comment, a newline or
an indent; the lines of docstrings (the first statement of a module, class
or function, when it is a string) do not count.  The public names of a
module are the entries of its __all__, plus the names without a leading
underscore that the classes it lists define.  A package's __init__ counts
the names it re-exports, so the total counts those twice.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def public_names(source: str) -> int:
    tree = ast.parse(source)
    listed = []
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            listed = ast.literal_eval(node.value)
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in listed:
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(item.name)
                elif isinstance(item, ast.Assign):
                    names.update(t.id for t in item.targets
                                 if isinstance(t, ast.Name))
    return len(listed) + sum(not name.startswith("_") for name in names)


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/qchar")
    lines = names = 0
    print(f"{'module':<16} {'lines':>5} {'public':>6}")
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        count, public = code_lines(source), public_names(source)
        lines, names = lines + count, names + public
        print(f"{path.name:<16} {count:>5} {public:>6}")
    print(f"{'total':<16} {lines:>5} {names:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
