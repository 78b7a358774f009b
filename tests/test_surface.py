"""The library exports only what the CLI, the other modules and the benchmark use.

Every module-level public function and class in ``src/tfloc`` (``__init__.py``
aside), and every public method or property of such a class, must be
referenced, as a name or an attribute, somewhere in those modules or in
``perfbench/child.py`` outside its own definition.  Tests do not count: a
name that only tests call belongs in ``tests/helpers.py``.  The names that
only ``child.py`` calls are pinned, so new code is not kept alive by the
benchmark alone.  Importing the package and its CLI loads no ``scipy``,
which only the tests use, and each entry point loads only the tfloc modules
its work calls.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert public_names_without_caller(library) == {"frames.epsilon_sweep", "gabor.gabor_multiplier"}
    # the benchmark wraps these names by identity: frames.build_s sums the spans of the
    # first three in a CLI frame build, and frames.norm_equivalence times diagnose's pass
    cli = library[[p.name for p in MODULES].index("cli.py")]
    calls = {n.func.id for n in ast.walk(cli) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert {"assemble_frame", "canonical_tight", "gabor_eigenframe", "norm_equivalence_constants"} <= calls


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


def fresh(code: str, *args) -> str:
    """The stripped stdout of ``code`` run in a new interpreter with ``args`` as its argv[1:]."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


# prints the tfloc submodules the process has loaded
LOADED = "print(sorted(m for m in sys.modules if m.startswith('tfloc.')))\n"
SETUP = (
    "import sys\n"
    "from tfloc.cli import load_config, resolve_cover, resolve_window\n"
    "from tfloc.covers import validate_cover\n"
    "for path in sys.argv[1:]:\n"
    "    cfg = load_config(path)\n"
    "    resolve_window(cfg)\n"
    "    validate_cover(resolve_cover(cfg), **cfg.admissibility)\n"
)


def test_import_leaves_scipy_out():
    # numpy is the only runtime dependency; scipy is a test-only oracle
    assert fresh("import sys, tfloc, tfloc.cli; print('scipy' in sys.modules)") == "False"


def test_setup_leaves_numpy_ma_out():
    # a bare np.unique imports numpy.ma, which costs every process 10-15 ms
    # and 1.3 MB; loading, generating, reading and validating covers need none
    configs = [ROOT / "configs" / name for name in ("regular16.json", "gabor16.json")]
    assert fresh(SETUP + "print('numpy.ma' in sys.modules)\n", *configs) == "False"


def test_frame_and_diagnose_leave_numpy_ma_out(tmp_path):
    # the frequency period compares sorted shifts rather than calling np.isin or np.unique
    code = (
        "import sys\n"
        "from tfloc.cli import main\n"
        "for path in sys.argv[2:]:\n"
        "    for command in ('frame', 'diagnose'):\n"
        "        assert main([command, '--config', path, '--out', sys.argv[1]]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    configs = [ROOT / "configs" / name for name in ("regular16.json", "gabor16.json")]
    assert fresh(code, tmp_path, *configs) == "False"


class TestLayering:
    """A process loads only the tfloc modules its work calls (the package is lazy)."""

    def test_import_loads_no_submodule(self):
        assert fresh("import sys, tfloc\n" + LOADED) == "[]"

    def test_stored_frame_needs_only_frames_core_errors(self, tmp_path):
        from tfloc.cli import main

        assert main(["frame", "--config", str(ROOT / "configs" / "regular16.json"), "--out", str(tmp_path)]) == 0
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from tfloc.core import Signal\n"
            "from tfloc.frames import frame_certificate, read_frame, reconstruct\n"
            "frame = read_frame(sys.argv[1] + '/frame.json', sys.argv[1] + '/frame_atoms.tfat')\n"
            "_, rel = reconstruct(frame, Signal(np.arange(16.0)), frame_certificate(frame))\n"
            "assert rel < 1e-8, rel\n"
        )
        assert fresh(code + LOADED, tmp_path) == "['tfloc.core', 'tfloc.errors', 'tfloc.frames']"

    def test_grid_setup_loads_no_operator_or_gabor_module(self):
        loaded = fresh(SETUP + LOADED, ROOT / "configs" / "regular16.json")
        assert loaded == "['tfloc.cli', 'tfloc.core', 'tfloc.covers', 'tfloc.errors', 'tfloc.frames']"

    def test_lattice_commands_load_gabor_when_they_run(self, tmp_path):
        code = (
            "import sys\n"
            "from tfloc.cli import main\n"
            "assert 'tfloc.gabor' not in sys.modules\n"
            "for command in ('frame', 'diagnose'):\n"
            "    assert main([command, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print('tfloc.gabor' in sys.modules)\n"
        )
        assert fresh(code, ROOT / "configs" / "gabor16.json", tmp_path) == "True"


def test_lazy_package_keeps_its_names():
    # in a new interpreter, so no submodule is loaded before the names are looked up
    code = (
        "import sys, tfloc\n"
        "assert tfloc.locop.eigendecomp is sys.modules['tfloc.locop'].eigendecomp\n"
        "assert set(tfloc.__all__) <= set(dir(tfloc))\n"
        "for name in tfloc.__all__:\n"
        "    obj = getattr(tfloc, name)\n"
        "    assert obj.__module__.startswith('tfloc.') and getattr(sys.modules[obj.__module__], name) is obj\n"
        "star = {}\n"
        "exec('from tfloc import *', star)\n"
        "assert all(star[name] is getattr(tfloc, name) for name in tfloc.__all__)\n"
        "try:\n"
        "    tfloc.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert fresh(code) == "module 'tfloc' has no attribute 'no_such_name'"


def test_script_entry_is_the_main_block_entry():
    # the installed ``tfloc`` script and ``python -m tfloc.cli`` end through one function
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    tree = ast.parse((ROOT / "src" / "tfloc" / "cli.py").read_text())
    [block] = [node for node in tree.body
               if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    [call] = [node.value for node in block.body
              if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)]
    assert scripts["tfloc"] == f"tfloc.cli:{ast.unparse(call.func)}"
