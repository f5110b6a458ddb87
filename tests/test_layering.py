"""The package's layering, read statically from its source with ast.

The arithmetic, series, chart, curve and recognition modules sit below
Frobenius and Coleman integration: none of them imports frobenius, coleman,
pipeline or cli, so a chart or a checker can be built from them alone.
Recognition, exact evaluation over Q and Q(x) and the recovery of an exact
point included, sits below the curve model on the kernels and padic.  The
Frobenius budget (the prescale C = scale_exp and the working exponent
W = work_exp) belongs to frobenius.py: no other module names it, and the
monic model's scaling (scale_x, scale_y, to_monic) belongs to curve.py.
The kernels are the leaf every layer builds on: they import only errors.
No module reads a _private name of another: what one module calls in
another is that module's public interface.  One test imports the CLI in
a fresh interpreter, to see which standard modules the package pulls in.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PKG = pathlib.Path(__file__).resolve().parents[1] / "src" / "g3chabauty"
LOWER = ("_kernels", "padic", "series", "localdisk", "curve", "jacobian",
         "recognize")
UPPER = {"frobenius", "coleman", "pipeline", "cli"}
BUDGET = {"work_exp", "scale_exp"}
MONIC = {"scale_x", "scale_y", "to_monic"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_imports(tree):
    """The g3chabauty modules a module imports, relatively or not."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("g3chabauty."))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "g3chabauty":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                out.add(parts[0])
            else:
                # from . import x, from g3chabauty import x
                out.update(a.name for a in node.names)
    return out


def _names(tree):
    """The names a module reads as attributes, names or strings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_reads(tree):
    """(module, name) for every _name a module reads from another package
    module: as module._name through a module it imported, or by
    from .module import _name."""
    modules = {}
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0:
            if parts[0] != "g3chabauty":
                continue
            parts = parts[1:]
        if parts and parts[0]:
            found.update((parts[0], a.name) for a in node.names
                         if _is_private(a.name))
        else:
            # from . import m as alias: the alias names module m
            modules.update((a.asname or a.name, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            found.add((modules[node.value.id], node.attr))
    return found


def test_private_scanner_sees_every_form():
    tree = ast.parse("from . import _kernels as kernels\n"
                     "from g3chabauty import frobenius\n"
                     "from .padic import _hidden, ord_p\n"
                     "from g3chabauty.curve import _squarefree_mod\n"
                     "kernels._product(a, b)\n"
                     "kernels.poly_trim(a)\n"
                     "frobenius._Horner.__init__\n"
                     "self._disks\n")
    assert _private_reads(tree) == {("_kernels", "_product"),
                                    ("frobenius", "_Horner"),
                                    ("padic", "_hidden"),
                                    ("curve", "_squarefree_mod")}


@pytest.mark.parametrize("module", sorted(p.stem for p in PKG.glob("*.py")))
def test_no_module_reads_a_private_name_of_another(module):
    assert _private_reads(_tree(PKG / (module + ".py"))) == set()


def test_import_scanner_sees_every_form():
    tree = ast.parse("import g3chabauty.cli\n"
                     "from . import frobenius as f\n"
                     "from .coleman import ColemanContext\n"
                     "from g3chabauty.pipeline import analyze_curve\n"
                     "from g3chabauty import padic\n"
                     "import json\n"
                     "def late():\n"
                     "    from .series import PadicPowerSeries\n")
    assert _package_imports(tree) == {"cli", "frobenius", "coleman",
                                      "pipeline", "padic", "series"}


@pytest.mark.parametrize("module", LOWER)
def test_lower_layers_import_no_frobenius_coleman_pipeline_or_cli(module):
    tree = _tree(PKG / (module + ".py"))
    assert not _package_imports(tree) & UPPER


def test_kernels_import_no_package_module_but_errors():
    # every layer builds on _kernels, so it must pull none of them in
    assert _package_imports(_tree(PKG / "_kernels.py")) <= {"errors"}


def test_jacobian_builds_only_on_kernels_and_errors():
    # Cantor arithmetic over F_p needs no curve model: a point is read
    # only for its x and y
    assert _package_imports(_tree(PKG / "jacobian.py")) <= {
        "_kernels", "errors"}


def test_recognize_builds_only_on_kernels_errors_and_padic():
    # the exact point behind a zero is found below the curve model, so a
    # checker can recover it without curve, pipeline or Frobenius code
    assert _package_imports(_tree(PKG / "recognize.py")) <= {
        "_kernels", "errors", "padic"}


@pytest.mark.parametrize("name", ["eval_exact", "exact_point"])
def test_exact_point_routines_live_in_recognize_alone(name):
    homes = {path.stem for path in sorted(PKG.glob("*.py"))
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.FunctionDef) and node.name == name}
    assert homes == {"recognize"}


def test_only_frobenius_names_its_budget():
    readers = {path.name for path in sorted(PKG.glob("*.py"))
               if _names(_tree(path)) & BUDGET}
    assert readers == {"frobenius.py"}


def test_only_curve_names_the_monic_scaling():
    # every other module works on one model and asks curve to translate
    # (padic_point, to_original, scaling_strings, weierstrass_points_qp)
    readers = {path.name for path in sorted(PKG.glob("*.py"))
               if _names(_tree(path)) & MONIC}
    assert readers == {"curve.py"}


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast and dis, about 10 ms of every
    # interpreter's start; the points are namedtuples instead
    code = ("import sys, g3chabauty.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PKG.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
