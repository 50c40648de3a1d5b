"""Every generalized solve goes through one eigen core, ``rda._solve_grid``.

``src/roweis`` is parsed with ``ast``, and each reference to a guarded
function is attributed to the module-level definition it sits in, with
references qualified by module as in ``test_dead_code.py``. The builders
and the generalized solver of the (R1, R2) problem may be referenced only
from the core, so a second solve loop cannot grow back; so may the robust
repair of R2, so the constraint's B side keeps one caller. ``symmetric_eig``
also serves the robust repair and the kernel-trick fits, whose cores are
plain eigenproblems. A label Gram K_y is built once per grid by the core
and handed to ``objective``; besides the core only the kernel-trick fits'
``label_factor`` and the noise floor's ``_label_kernel_scale`` may build
it, so no per-config label build grows back in ``objective`` or a caller.
The class indicator E is built only by ``label_factor``, for the
kernel-trick fits: every other fit takes its class sums Xc E from the
class statistics.

Every route solves from ``scatter.ClassMoments`` through the same core:
``_solve_grid`` is called only by the primal fit of held coordinates
(``rda.fit_grid``: X, or the span route's Z), by the primal fit of
streamed ones (``rda.fit_blocks``: X in a CSV's parse blocks) and by the
kernel direct fit. A route follows from the shape alone, so nothing
parts the configs by their label kernel: ``rda.class_grouping`` is gone.
One pass of class statistics, ``scatter.class_moments``, gives all of
them S_T, S_W and the class sums: it alone merges slabs (``merge_slab``)
into ``ClassStats``, and ``cli`` refers to neither, nor to the pass, the
slab width or the class indicator. The bulk CSV parse, ``_parse_bulk``, is read only through the
CSV session. The moments' fields are read only where R1 and R2 are
built: S_T and the class sums by ``objective`` (S_T's trace also by the
core, for its noise floor) and S_W by ``constraint``. ``objective``,
``constraint`` and the core take the moments as their first argument,
``objective`` has no class-factor argument, and no code asks whether a
value is ``ClassMoments``: there is no other kind of input.

Every (module, name) these guards name, guarded or allowed, must be defined
at module level in ``src/roweis``, and every moments field must be one of
``scatter.ClassMoments``' slots: a guard on a name that is gone guards nothing.
"""

import ast
from pathlib import Path

from roweis import scatter

from test_dead_code import PACKAGE, package_imports, references

CORE = ("rda", "_solve_grid")
ALLOWED = {
    ("linalg", "generalized_eig"): {CORE},
    ("linalg", "factor_constraint"): {CORE},
    ("rda", "constraint"): {CORE},
    ("rda", "robustify"): {CORE},
    ("rda", "objective"): {CORE},
    ("linalg", "symmetric_eig"): {CORE, ("rda", "robustify"), ("kernel_rda", "_fit_trick")},
    ("kernels", "label_gram"): {CORE, ("rda", "label_factor"), ("rda", "_label_kernel_scale")},
    ("kernels", "class_indicator"): {("rda", "label_factor")},
    CORE: {("rda", "fit_grid"), ("rda", "fit_blocks"), ("kernel_rda", "fit_direct_grid")},
    ("scatter", "merge_slab"): {("scatter", "class_moments")},
    ("scatter", "ClassStats"): {("scatter", "class_moments"), ("scatter", "merge_slab")},
    ("datasets", "_parse_bulk"): {("datasets", "CsvSession")},
}
# What the command line leaves to rda.fit_blocks, the pass and the CSV session.
NOT_IN_CLI = {("scatter", "class_moments"), ("scatter", "merge_slab"), ("scatter", "STATS_BLOCK"),
              ("scatter", "ClassStats"), ("kernels", "class_indicator")}
# The functions that take the class moments as their first argument.
TAKE_MOMENTS = {("rda", "objective"), ("rda", "constraint"), CORE}
MOMENTS = {
    "scatter_total": {("rda", "objective"), CORE},
    "class_sums": {("rda", "objective")},
    "scatter_within": {("rda", "constraint")},
}


def undefined(package: Path, pairs) -> set:
    """The (module, name) pairs among ``pairs`` that no module-level
    function, class or assignment of ``package`` defines."""
    defined = set()
    for path in package.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, stmt.name))
            elif isinstance(stmt, ast.Assign):
                defined |= {(path.stem, t.id) for t in stmt.targets if isinstance(t, ast.Name)}
    return set(pairs) - defined


def test_a_guard_on_a_name_that_is_gone_is_caught(tmp_path):
    (tmp_path / "rda.py").write_text("STATS_BLOCK = 4\n\n\ndef fit(x):\n    return x\n\n\nclass Stats:\n    pass\n")
    assert undefined(tmp_path, {("rda", "STATS_BLOCK"), ("rda", "fit"), ("rda", "Stats"), ("rda", "merge"),
                                ("cli", "fit")}) == {("rda", "merge"), ("cli", "fit")}


def callers(package: Path) -> dict:
    """Guarded (module, name) -> the (module, owner) pairs referring to it;
    owner is the module-level function or class a reference sits in, None
    for a module-level statement."""
    paths = sorted(package.glob("*.py"))
    modules = {p.stem for p in paths}
    out = {target: set() for target in ALLOWED}
    for path in paths:
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        module_alias, name_alias = package_imports(tree, modules)
        for stmt in tree.body:
            for target in references(stmt, module, module_alias, name_alias) & out.keys():
                out[target].add((module, getattr(stmt, "name", None)))
    return out


def test_a_second_solve_loop_is_caught(tmp_path):
    (tmp_path / "linalg.py").write_text("def generalized_eig(a, b):\n    return a\n")
    (tmp_path / "kernel_rda.py").write_text(
        "from . import linalg\nfrom .linalg import generalized_eig as solve\n\n\n"
        "def fit(a, b):\n    return solve(a, b) + linalg.generalized_eig(b, a)\n\n\n"
        "LOOP = solve\n"
    )
    assert callers(tmp_path)[("linalg", "generalized_eig")] == {("kernel_rda", "fit"), ("kernel_rda", None)}


def test_the_solvers_are_referenced_only_where_allowed():
    assert undefined(PACKAGE, set(ALLOWED).union(*ALLOWED.values())) == set()
    assert callers(PACKAGE) == ALLOWED


def module_references(package: Path, name: str) -> set:
    """Every (module, name) pair the module ``name`` of ``package`` refers to."""
    modules = {p.stem for p in package.glob("*.py")}
    tree = ast.parse((package / f"{name}.py").read_text())
    module_alias, name_alias = package_imports(tree, modules)
    return references(tree, name, module_alias, name_alias)


def test_a_slab_loop_in_the_cli_is_caught(tmp_path):
    (tmp_path / "scatter.py").write_text("STATS_BLOCK = 4\n")
    (tmp_path / "cli.py").write_text("from . import scatter\n\n\ndef fit(x):\n    return x[:, :scatter.STATS_BLOCK]\n")
    assert module_references(tmp_path, "cli") & NOT_IN_CLI == {("scatter", "STATS_BLOCK")}


def test_the_cli_leaves_the_slabs_and_the_statistics_to_rda():
    assert undefined(PACKAGE, NOT_IN_CLI) == set()
    assert module_references(PACKAGE, "cli") & NOT_IN_CLI == set()


def moment_readers(package: Path) -> dict:
    """ClassMoments field -> the (module, owner) pairs reading it as an
    attribute (its constructor's stores do not count)."""
    out = {name: set() for name in MOMENTS}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in out:
                    out[node.attr].add((path.stem, getattr(stmt, "name", None)))
    return out


def test_a_second_reader_of_the_moments_is_caught(tmp_path):
    (tmp_path / "cli.py").write_text(
        "def fit(moments, x):\n    return moments.scatter_total @ x\n\n\n"
        "def build(moments):\n    return ClassMoments(scatter_total=moments, class_sums=moments)\n\n\n"
        "class ClassMoments:\n    def __init__(self, a):\n        self.scatter_within = a\n"
    )
    assert moment_readers(tmp_path) == {"scatter_total": {("cli", "fit")}, "class_sums": set(),
                                        "scatter_within": set()}


def test_the_moments_are_read_only_where_r1_and_r2_are_built():
    assert set(MOMENTS) <= set(scatter.ClassMoments.__slots__)
    assert undefined(PACKAGE, set().union(*MOMENTS.values())) == set()
    assert moment_readers(PACKAGE) == MOMENTS


def moment_checks(package: Path) -> list:
    """Where ``package`` asks whether a value is ClassMoments (an
    ``isinstance`` call naming it), as (module, owner)."""
    out = []
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                        and any(isinstance(sub, (ast.Name, ast.Attribute))
                                and getattr(sub, "id", getattr(sub, "attr", None)) == "ClassMoments"
                                for arg in node.args[1:] for sub in ast.walk(arg))):
                    out.append((path.stem, getattr(stmt, "name", None)))
    return out


def first_parameters(package: Path) -> dict:
    """(module, function) -> its parameter names, for the module-level functions of ``package``."""
    out = {}
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, ast.FunctionDef):
                out[(path.stem, stmt.name)] = [a.arg for a in stmt.args.args + stmt.args.kwonlyargs]
    return out


def test_a_branch_on_the_moments_is_caught(tmp_path):
    (tmp_path / "rda.py").write_text(
        "def objective(data, r1):\n    if isinstance(data, (list, scatter.ClassMoments)):\n        return data\n"
        "    return isinstance(data, ClassStats)\n"
    )
    assert moment_checks(tmp_path) == [("rda", "objective")]


def test_every_route_hands_the_core_its_class_moments():
    assert moment_checks(PACKAGE) == []
    params = first_parameters(PACKAGE)
    assert {name: params[name][0] for name in TAKE_MOMENTS} == {name: "moments" for name in TAKE_MOMENTS}
    assert "factor" not in params[("rda", "objective")]
    assert ("scatter", "within_scatter") not in params
    assert undefined(PACKAGE, {("rda", "class_grouping")}) == {("rda", "class_grouping")}
