"""The package's options, listed by name.

An option is a parameter with a default in any function signature of the
package, nested functions and methods included, or a field with a default in
a dataclass.  Each is named ``module.qualified_name.parameter``.  The list is
kept here in full, so adding or removing an option is a one-line change to
this file and shows in review.
"""

import ast
from pathlib import Path

import vardens

OPTIONS = {
    "assemble.rt_blocks.dg_tab",
    "assemble.eval_scalar.cells",
    "assemble.eval_mini_vector.cells",
    "cli.main.argv",
    "harness.run_case.trace",
    "harness.StudySpec.tau",
    "harness.StudySpec.T",
    "harness.StudySpec.mu",
    "harness.StudySpec.cutoff_mode",
    "harness.ConvergenceRecord.E_rho",
    "harness.ConvergenceRecord.E_u",
    "harness.ConvergenceRecord.order_rho",
    "harness.ConvergenceRecord.order_u",
    "harness.ConvergenceRecord.seconds",
    "harness.ConvergenceRecord.failed",
    "harness.ConvergenceRecord.message",
    "harness.run_study.progress",
    "harness.run_study.finished",
    "linalg.SolveReport.iterations",
    "linalg.SolveReport.extras",
    "scheme.SchemeConfig.rho_min",
    "scheme.SchemeConfig.rho_max",
    "scheme.SchemeConfig.cutoff_mode",
    "scheme.SchemeConfig.f",
    "scheme.SchemeConfig.g",
}


def _is_dataclass(node):
    return any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Call) and getattr(d.func, "id", "") == "dataclass")
        for d in node.decorator_list)


def _options(node, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            args = child.args
            positional = args.posonlyargs + args.args
            for arg in positional[len(positional) - len(args.defaults):]:
                yield f"{name}.{arg.arg}"
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{name}.{arg.arg}"
            yield from _options(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            name = prefix + child.name
            if _is_dataclass(child):
                for stmt in child.body:
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        yield f"{name}.{stmt.target.id}"
            yield from _options(child, name + ".")
        else:
            yield from _options(child, prefix)


def package_options():
    """Every option of the package's modules, as a list (repeats kept)."""
    found = []
    for path in sorted(Path(vardens.__file__).parent.glob("*.py")):
        found += _options(ast.parse(path.read_text()), path.stem + ".")
    return found


def test_package_options_are_the_listed_ones():
    found = package_options()
    assert len(found) == len(set(found))
    assert set(found) - OPTIONS == set(), "options added"
    assert OPTIONS - set(found) == set(), "options removed"


def test_option_census_sees_every_kind():
    """Positional and keyword-only defaults, nested functions, methods and
    dataclass fields with a default count; required parameters, fields
    without a default and plain class attributes do not."""
    src = '''
from dataclasses import dataclass

def f(a, b=1, *, c, d=2):
    def inner(e=3):
        pass

@dataclass
class C:
    x: int
    y: int = 0
    def m(self, z=None):
        pass

class Plain:
    w: int = 0
'''
    assert sorted(_options(ast.parse(src), "m.")) == [
        "m.C.m.z", "m.C.y", "m.f.b", "m.f.d", "m.f.inner.e"]
