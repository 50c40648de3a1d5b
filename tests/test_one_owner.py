"""Each decision of the package has one owner.

``src/roweis`` is parsed with ``ast``, as in ``test_one_core.py``:

* only ``datasets`` imports ``csv``, so ``datasets.write_csv`` is the one
  CSV writer and the CSV session the one reader;
* only ``experiments`` imports ``evaluate``, so ``experiments.grid_scores``
  is the one scorer of a grid, for the sweep and the table alike;
* ``kernels.resolve_label_kernel`` is referenced only by the eigen core,
  ``rda._solve_grid``, which resolves each requested label kernel once per
  grid, by the kernel-trick fits' ``kernel_rda._fit_trick``, and by the
  table's ``experiments._split_rmse``, which resolves one bandwidth per
  split for its two grids;
* ``rda.RoweisConfig`` alone checks a fit's settings: the second copies
  (``persist._fraction`` and ``persist._flag``) and the CLI's own CSV
  writer (``cli._write_rows``) are gone.
"""

import ast
from pathlib import Path

from test_dead_code import PACKAGE, package_imports, references
from test_one_core import undefined

IMPORTERS = {"csv": {"datasets"}, "evaluate": {"experiments"}}
RESOLVE = ("kernels", "resolve_label_kernel")
RESOLVERS = {("rda", "_solve_grid"), ("kernel_rda", "_fit_trick"), ("experiments", "_split_rmse")}
GONE = {("persist", "_fraction"), ("persist", "_flag"), ("cli", "_write_rows")}


def importers(package: Path, name: str) -> set:
    """The modules of ``package`` that import the module ``name``: the
    standard library's (``import csv``, ``from csv import ...``) or, for a
    module of the package, by a relative import."""
    modules = {p.stem for p in package.glob("*.py")}
    out = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if name in modules:
                hit = isinstance(node, ast.ImportFrom) and node.level == 1 and (
                    node.module == name or (node.module is None and name in {a.name for a in node.names}))
            else:
                hit = (isinstance(node, ast.Import) and name in {a.name.split(".")[0] for a in node.names}) or (
                    isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == name)
            if hit:
                out.add(path.stem)
    return out


def test_a_second_importer_is_caught(tmp_path):
    (tmp_path / "evaluate.py").write_text("def score():\n    return 0\n")
    (tmp_path / "cli.py").write_text("def sweep():\n    import csv\n    from . import evaluate\n")
    (tmp_path / "experiments.py").write_text("from csv import writer\nfrom .evaluate import score\n")
    (tmp_path / "datasets.py").write_text("import csv.writer as w\nfrom .experiments import evaluate\n")
    assert importers(tmp_path, "csv") == {"cli", "experiments", "datasets"}
    assert importers(tmp_path, "evaluate") == {"cli", "experiments"}


def test_csv_and_evaluate_have_one_importer_each():
    assert {name: importers(PACKAGE, name) for name in IMPORTERS} == IMPORTERS


def referrers(package: Path, target: tuple) -> set:
    """The (module, owner) pairs referring to ``target``, a (module, name)
    pair; owner is the module-level function or class a reference sits in."""
    modules = {p.stem for p in package.glob("*.py")}
    out = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module_alias, name_alias = package_imports(tree, modules)
        for stmt in tree.body:
            if target in references(stmt, path.stem, module_alias, name_alias):
                out.add((path.stem, getattr(stmt, "name", None)))
    return out


def test_a_second_resolver_is_caught(tmp_path):
    (tmp_path / "kernels.py").write_text("def resolve_label_kernel(spec, labels):\n    return spec\n")
    (tmp_path / "cli.py").write_text("from . import kernels\n\n\ndef sweep(y):\n"
                                     "    return kernels.resolve_label_kernel(None, y)\n")
    assert referrers(tmp_path, RESOLVE) == {("cli", "sweep")}


def test_label_kernels_are_resolved_only_by_the_fits_and_the_table():
    assert undefined(PACKAGE, RESOLVERS | {RESOLVE}) == set()
    assert referrers(PACKAGE, RESOLVE) == RESOLVERS


def test_the_second_copies_are_gone():
    assert undefined(PACKAGE, GONE) == GONE
