"""The library exports only what the CLI, the other modules and the benchmark use.

Every module-level public function and class in ``src/tfloc`` (``__init__.py``
aside), and every public method or property of such a class, must be
referenced, as a name or an attribute, somewhere in those modules or in
``perfbench/child.py`` outside its own definition.  Tests do not count: a
name that only tests call belongs in ``tests/helpers.py``.  The names that
only ``child.py`` calls are pinned, so new code is not kept alive by the
benchmark alone.  And importing the package and its CLI loads no ``scipy``,
which only the tests use.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "tfloc").glob("*.py") if p.name != "__init__.py")


def names_used(node):
    """The names and attribute names that occur in ``node``."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def parse_sources():
    """The syntax trees of the library modules, then of ``perfbench/child.py``."""
    return [ast.parse(p.read_text()) for p in [*MODULES, ROOT / "perfbench" / "child.py"]]


def public_names_without_caller(trees):
    """The library's module-level public functions and classes that no statement of ``trees`` uses.

    ``trees`` starts with the library modules, in ``MODULES`` order; a
    definition's own statement does not count as a use of it.
    """
    uses = [(node, names_used(node)) for tree in trees for node in tree.body]
    return {
        f"{path.stem}.{node.name}"
        for path, tree in zip(MODULES, trees)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not any(node.name in names for other, names in uses if other is not node)
    }


def test_every_public_library_name_has_a_caller():
    unused = public_names_without_caller(parse_sources())
    assert not unused, f"public names with no caller outside tests: {sorted(unused)}"


def test_harness_only_names_are_pinned():
    # the names that only the benchmark keeps alive; new library code must
    # have a library caller, so this set may shrink but never grow
    library = parse_sources()[:-1]
    assert public_names_without_caller(library) == {
        "frames.norm_equivalence_constants", "frames.epsilon_sweep", "gabor.gabor_multiplier",
    }
    # the benchmark's frames.build_s sums the spans of these calls of a CLI frame build
    cli = library[[p.name for p in MODULES].index("cli.py")]
    calls = {n.func.id for n in ast.walk(cli) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert {"assemble_frame", "canonical_tight", "gabor_eigenframe"} <= calls


def test_every_public_method_has_a_caller():
    trees = parse_sources()
    # each top-level statement, a class body statement by statement, with the
    # names it uses; a method's own definition does not count as a use of it
    uses = [
        (stmt, names_used(stmt))
        for tree in trees
        for node in tree.body
        for stmt in (node.body if isinstance(node, ast.ClassDef) else [node])
    ]
    unused = [
        f"{path.stem}.{cls.name}.{fn.name}"
        for path, tree in zip(MODULES, trees)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and not any(fn.name in names for other, names in uses if other is not fn)
    ]
    assert not unused, f"public methods and properties with no caller outside tests: {unused}"


def test_import_leaves_scipy_out():
    # numpy is the only runtime dependency; scipy is a test-only oracle
    code = "import sys, tfloc, tfloc.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_setup_leaves_numpy_ma_out():
    # a bare np.unique imports numpy.ma, which costs every process 10-15 ms
    # and 1.3 MB; loading, generating, reading and validating covers need none
    code = (
        "import sys\n"
        "from tfloc.cli import load_config, resolve_cover, resolve_window\n"
        "from tfloc.covers import validate_cover\n"
        "for path in sys.argv[1:]:\n"
        "    cfg = load_config(path)\n"
        "    resolve_window(cfg)\n"
        "    validate_cover(resolve_cover(cfg), **cfg.admissibility)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    configs = [str(ROOT / "configs" / name) for name in ("regular16.json", "gabor16.json")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code, *configs], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_frame_and_diagnose_leave_numpy_ma_out(tmp_path):
    # the frequency period marks a count grid rather than calling np.isin or np.unique
    code = (
        "import sys\n"
        "from tfloc.cli import main\n"
        "for path in sys.argv[2:]:\n"
        "    for command in ('frame', 'diagnose'):\n"
        "        assert main([command, '--config', path, '--out', sys.argv[1]]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    configs = [str(ROOT / "configs" / name) for name in ("regular16.json", "gabor16.json")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path), *configs], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
