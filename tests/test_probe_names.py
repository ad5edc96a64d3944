"""The benchmark's probes wrap program functions by module and name
(``perfbench/probes.py``); a name the program no longer has makes every
benchmark run incorrect.  This checks, without running a workload, that each
wrapped name exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

from chrononet.tensor import Graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _program_modules() -> dict:
    """run.py's CHRONONET_MODULES, read from its source: importing run.py
    would set the BLAS thread variables for the whole test process."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "CHRONONET_MODULES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no CHRONONET_MODULES")


def test_every_probed_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PERFBENCH / "probes.py")
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    mods = {key: importlib.import_module(name) for key, name in _program_modules().items()}
    before = {key: dict(vars(mod)) for key, mod in mods.items()}
    p = probes.Probes(mods)
    p.install("time")
    try:
        assert not p.missing, sorted(p.missing)
    finally:
        p.uninstall()
    for key, mod in mods.items():   # every wrapper is gone again
        assert all(getattr(mod, attr) is value for attr, value in before[key].items()), key
    # the traced backward probe counts a step's tape nodes with len(graph)
    assert len(Graph()) == 0
