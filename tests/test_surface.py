"""Nothing public sits in ``src/`` unused: every public top-level function
and class of ``simulpal.*`` is exported by the package, read by other code
in ``src/`` (a call, an attribute or an annotation), or documented library
API on the list below."""

import ast
from pathlib import Path

import simulpal

SRC = Path(simulpal.__file__).parent

# documented library API that no code in src/ reads: the paper's explicit
# bounds and tail-fit threshold, the exact palindrome count and the checked
# form of the exponent vector that dependence_witness takes unchecked
UNREAD_API = {
    "bounds": {"matveev_lower_bound", "laurent_lower_bound", "solve_log_majorant", "tail_fit_threshold"},
    "palgen": {"count_palindromes_upto"},
    "lindep": {"prime_exponent_vector"},
}


def _names_read(node: ast.AST) -> set[str]:
    # the names a piece of code reads, bare or as an attribute; an import alone is no read
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name | ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def test_every_public_name_has_a_reader():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    statements = [(module, stmt, _names_read(stmt)) for module, tree in trees.items() for stmt in tree.body]
    unread = []
    for module, stmt, _ in statements:
        if not isinstance(stmt, ast.FunctionDef | ast.ClassDef) or stmt.name.startswith("_"):
            continue
        # reads inside the definition itself, such as a method naming its class, do not count
        if not (
            stmt.name in simulpal.__all__
            or stmt.name in UNREAD_API.get(module, ())
            or any(stmt.name in reads for _, other, reads in statements if other is not stmt)
        ):
            unread.append(f"{module}.{stmt.name}")
    assert unread == []
    # a name deleted from src/ leaves the list too
    for module, names in UNREAD_API.items():
        assert names <= {stmt.name for stmt in trees[module].body if isinstance(stmt, ast.FunctionDef)}
