"""Every module of the package uses each name it imports, every private
top-level name is read somewhere in the package, the public names are
the pinned list below with the pinned signatures, and a process that runs
the package never loads ``numpy.polynomial`` or ``numpy.random``.

A deletion that leaves its imports or its private helpers behind fails here.
The scans use only the standard library ``ast`` module.  An imported name
counts as used when it is read anywhere in the module or listed in its
``__all__`` (which is how the package ``__init__`` re-exports), and
``from __future__`` imports are exempt.  A private top-level name (one
leading underscore) counts as read when its own module loads it, another
module imports it from there, or any module reads an attribute of that name.
"""

import ast
import enum
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import disknorms

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "disknorms"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Callable, Optional\n"
        "from .errors import DomainError\n"
        "__all__ = ['DomainError']\n"
        "x: Optional[int] = np.pi\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Callable")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id


def unread_private_names(sources):
    """(module, name) for each private top-level name that no module reads;
    sources maps each module's name to its source."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    attributes, imported = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update((node.module, alias.name) for alias in node.names)
    unread = []
    for module, tree in trees.items():
        loads = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for name in _top_level_names(tree):
            private = name.startswith("_") and not name.startswith("__")
            if private and name not in loads | attributes and (module, name) not in imported:
                unread.append((module, name))
    return sorted(unread)


def test_scanner_flags_an_unread_private_name():
    sources = {
        "a": "_KEPT = 1\n_LEFT, _USED = 2, 3\ndef _helper():\n    return _KEPT\nclass _Dead:\n    pass\n",
        "b": "from .a import _helper\nimport a\nx = _helper() + a._USED\n__all__ = ['x']\n",
    }
    assert unread_private_names(sources) == [("a", "_Dead"), ("a", "_LEFT")]


def test_package_has_no_unread_private_names():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unread_private_names(sources) == []


# 37 public names and __version__; the README and ROADMAP count them, so a
# name comes or goes only with an edit here
PUBLIC_NAMES = [
    "AnnulusExclude", "COUNTEREXAMPLE_NAMES", "ConfigurationError",
    "DiskNormsError", "DiskRule", "DivergenceError", "DomainError", "EvaluationError",
    "Integral", "Mobius", "NormKind", "NormQuery", "NormResult", "Operator",
    "PrecisionError", "Target", "UnsupportedQueryError", "adjoint_pairing_residual",
    "apply", "closed_form_norm", "counterexample", "counterexample_l2_mass",
    "dbar_identity_residual", "divergence_ladder", "divergence_slope",
    "extremal_function", "fatou_limit_integrand", "fatou_limit_integrand_adjoint",
    "integrate_disk", "integrate_disk_singular", "l2_norm_numeric",
    "lower_bound_via_extremal", "mode_best_constant", "mode_rayleigh_maximum",
    "mode_reduce", "riesz_thorin_bound", "truncated_singular_integral", "__version__",
]


def test_public_names_are_pinned():
    assert disknorms.__all__ == PUBLIC_NAMES
    assert all(hasattr(disknorms, name) for name in PUBLIC_NAMES)


# str(inspect.signature(...)) of every public function and dataclass (enums,
# exceptions and constants left out): a parameter comes or goes only with
# an edit here
PUBLIC_SIGNATURES = {
    "AnnulusExclude": "(epsilon: 'float') -> None",
    "DiskRule": "(radial_nodes: 'int' = 256, angular_nodes: 'int' = 512, "
    "singularity: 'AnnulusExclude | Mobius | None' = None) -> None",
    "Integral": "(value: 'complex', abs_error_estimate: 'float') -> None",
    "Mobius": "() -> None",
    "NormQuery": "(operator: 'Operator', source_p: 'float', "
    "target: 'Target' = <Target.SAME_P: 'same'>) -> None",
    "NormResult": "(value: 'float', kind: 'NormKind', provenance: 'str', "
    "error_estimate: 'float' = 0.0) -> None",
    "adjoint_pairing_residual": "(f: 'FieldFn', g: 'FieldFn', rule: 'Optional[DiskRule]' = None) -> 'float'",
    "apply": "(op: 'Operator', f: 'FieldFn', z: 'complex', rule: 'Optional[DiskRule]' = None) -> 'Integral'",
    "closed_form_norm": "(query: 'NormQuery') -> 'NormResult'",
    "counterexample": "(name: 'str') -> 'Tuple[FieldFn, float, str]'",
    "counterexample_l2_mass": "(name: 'str', epsilon: 'float' = 0.05) -> 'float'",
    "dbar_identity_residual": "(f: 'FieldFn', z: 'complex', h: 'float', rule: 'Optional[DiskRule]' = None, "
    "op: 'Operator' = <Operator.C_DELTA: 'cdelta'>) -> 'float'",
    "divergence_ladder": "(name: 'str', epsilons: 'Tuple[float, ...]' = (0.01, 0.001, 0.0001, 1e-05, 1e-06)) "
    "-> 'Tuple[np.ndarray, np.ndarray]'",
    "divergence_slope": "(name: 'str', epsilons: 'Tuple[float, ...]' = (0.01, 0.001, 0.0001, 1e-05, 1e-06)) "
    "-> 'float'",
    "extremal_function": "(op: 'Operator', p: 'float', b: 'complex') -> 'FieldFn'",
    "fatou_limit_integrand": "(t: 'float', rho: 'float', r: 'float') -> 'float'",
    "fatou_limit_integrand_adjoint": "(t: 'float', rho: 'float', r: 'float') -> 'float'",
    "integrate_disk": "(f: 'FieldFn', rule: 'DiskRule') -> 'Integral'",
    "integrate_disk_singular": "(g: 'FieldFn', b: 'complex', s: 'float', rule: 'DiskRule') -> 'Integral'",
    "l2_norm_numeric": "(max_d: 'int') -> 'NormResult'",
    "lower_bound_via_extremal": "(op: 'Operator', p: 'float', b: 'complex') -> 'NormResult'",
    "mode_best_constant": "(d: 'int') -> 'Tuple[float, Callable]'",
    "mode_rayleigh_maximum": "(d: 'int') -> 'float'",
    "mode_reduce": "(d: 'int', f_d: 'Callable') -> 'Union[float, complex]'",
    "riesz_thorin_bound": "(p: 'float') -> 'NormResult'",
    "truncated_singular_integral": "(f: 'FieldFn', b: 'complex', epsilon_list: 'Sequence[float]', "
    "rule: 'DiskRule | None' = None) -> 'list[float]'",
}


def test_public_signatures_are_pinned():
    signatures = {}
    for name in disknorms.__all__:
        obj = getattr(disknorms, name)
        if isinstance(obj, type) and issubclass(obj, (enum.Enum, BaseException)):
            continue
        if callable(obj):
            signatures[name] = str(inspect.signature(obj))
    assert signatures == PUBLIC_SIGNATURES


def test_a_default_apply_and_every_suite_load_no_polynomial_or_random_module():
    # each cost 5-17 ms cold on first use; the radial rules come from their
    # own recurrences and verify draws from the standard library (numpy 2,
    # the floor in pyproject.toml, loads neither inside ``import numpy``)
    script = (
        "import sys\n"
        "import disknorms\n"
        "from disknorms.verify import run_suite\n"
        "disknorms.apply(disknorms.Operator.CAUCHY, lambda w: w * w + 1.0, 0.3 + 0.2j)\n"
        "run_suite('all')\n"
        "print(sorted(m for m in ('numpy.polynomial', 'numpy.random') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", done.stdout
