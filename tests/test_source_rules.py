"""Rules the package source keeps, checked on its syntax trees."""

import ast
import functools
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "bgprel").glob("*.py"))


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _where(path: Path, node: ast.AST) -> str:
    return f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_attribute_of_another_object(path):
    """A single-underscore attribute is read only through ``self`` or
    ``cls``: other code uses an object's public interface."""
    reads = [
        f"{_where(path, node)} {ast.unparse(node)}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    assert reads == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """Every name an import binds is read somewhere in the module or
    listed in its ``__all__``, but on lines marked ``# noqa: F401``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{_where(path, alias)} {name}")
    assert unused == []


def _writes_text(node: ast.AST) -> bool:
    """Whether ``node`` imports ``csv``, calls ``json.dump``,
    ``json.dumps`` or a ``write_text``/``write_bytes`` method, or opens a
    file in a mode that writes."""
    if isinstance(node, ast.Import):
        return any(alias.name == "csv" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "csv"
    if not isinstance(node, ast.Call):
        return False
    func = ast.unparse(node.func)
    if func.endswith((".write_text", ".write_bytes")) or func in ("json.dump", "json.dumps"):
        return True
    if func != "open" and not func.endswith(".open"):
        return False
    # open(file, mode), io.open(file, mode) and Path.open(mode)
    modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[:2]
    return any(
        isinstance(m, ast.Constant) and isinstance(m.value, str)
        and re.fullmatch("[rwxabt+]+", m.value) and re.search("[wxa+]", m.value)
        for m in modes
    )


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "ingest.py"],
                         ids=lambda p: p.name)
def test_only_ingest_writes_text_files(path):
    """Every output's format is decided in ``ingest``, whose writers the
    other modules call: none of them imports ``csv``, calls ``json.dump``
    or ``json.dumps``, writes through ``Path.write_text``, or opens a file
    for writing."""
    writes = [f"{_where(path, node)} {ast.unparse(node)}"
              for node in ast.walk(_tree(path)) if _writes_text(node)]
    assert writes == []


def test_run_writes_every_manifest():
    """``cli.run`` is the one caller of ``write_manifest``: each command
    returns its ``Manifest`` record, and ``run`` writes it."""
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = _tree(path)

    def calls(node: ast.AST) -> list[str]:
        return [_where(path, n) for n in ast.walk(node) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "write_manifest"]

    runs = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "run"]
    assert len(runs) == 1
    assert len(calls(runs[0])) == 1 and calls(tree) == calls(runs[0])


def test_make_dataset_draws_every_split():
    """``pipeline.make_dataset`` is the one caller of
    ``balance_and_split``: ``train``, ``sweep``, ``dataset`` and
    ``predict``'s redraw of train's split all draw through it."""

    def calls(node: ast.AST, path: Path) -> list[str]:
        return [_where(path, n) for n in ast.walk(node) if isinstance(n, ast.Call)
                and ast.unparse(n.func).split(".")[-1] == "balance_and_split"]

    path = next(p for p in SOURCES if p.name == "pipeline.py")
    makers = [fn for fn in _tree(path).body
              if isinstance(fn, ast.FunctionDef) and fn.name == "make_dataset"]
    assert len(makers) == 1
    inside = calls(makers[0], path)
    assert len(inside) == 1 and [w for p in SOURCES for w in calls(_tree(p), p)] == inside


def _imports_scipy_sparse(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("scipy.sparse") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("scipy.sparse") or (
            module == "scipy" and any(alias.name == "sparse" for alias in node.names))
    return False


def test_only_training_plans_rows_and_loads_scipy_sparse():
    """``gcn.train`` is the one caller of ``RowPlan.build``, whose cuts
    of A_hat are scipy's, and ``scipy.sparse`` is imported only inside
    ``RowPlan.build`` and ``incidence_matrix``, the head's scatter:
    ``predict`` multiplies A_hat itself.  An import under
    ``TYPE_CHECKING`` loads nothing."""
    path = next(p for p in SOURCES if p.name == "gcn.py")
    body = {node.name: node for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    [build] = [fn for fn in body["RowPlan"].body
               if isinstance(fn, ast.FunctionDef) and fn.name == "build"]

    def plans(node: ast.AST, where: Path) -> list[str]:
        return [_where(where, n) for n in ast.walk(node) if isinstance(n, ast.Call)
                and ast.unparse(n.func).split(".")[-2:] == ["RowPlan", "build"]]

    inside = plans(body["train"], path)
    assert len(inside) == 1 and [w for p in SOURCES for w in plans(_tree(p), p)] == inside

    def imports(node: ast.AST, where: Path) -> set[str]:
        return {_where(where, n) for n in ast.walk(node) if _imports_scipy_sparse(n)}

    typing_only = {w for p in SOURCES for node in ast.walk(_tree(p))
                   if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
                   for w in imports(node, p)}
    allowed = imports(build, path) | imports(body["incidence_matrix"], path)
    assert len(allowed) == 2
    assert {w for p in SOURCES for w in imports(_tree(p), p)} - typing_only == allowed
