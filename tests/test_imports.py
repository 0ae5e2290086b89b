"""Import hygiene: the symbolic subcommands never load numpy, the layers
import only downward, and the package still offers every public name.

Each check runs in a fresh interpreter, since this test process has
numpy loaded already.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# The package's public names: the algebra and closure layers, imported
# eagerly, and the names resolved on first use.
PUBLIC = (
    "AmbientMismatchError BasisLabel ParseError ScaledElement all_labels canonical_key "
    "commutator commutes format_element generator hermitize parse_element parse_label product "
    "CapExceededError Certificate ClosureResult GeneratorSet UnreachableTargetError "
    "certificate chain_generators close universal_generators "
    "PauliFactorization decompose expm_hermitian format_matrix gamma "
    "parse_matrix pauli_factorization reconstruct recursive_construct "
    "replay_certificate represent verify_representation "
    "CoefficientVector Gate GateSequence PowerResult commutator_gate "
    "irrational_power minimal_power_scan operator_distance synthesize trotter"
).split()


def python(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


CERTIFY = ["certify", "-m", "4", "--target", "e[0,1,2,3]", "e[0]", "e[1]", "e[2]", "e[3]",
           "i*e[0,1,2]"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["closure", "-m", "4", "e[0]", "e[1]", "e[2]", "e[3]", "i*e[0,1,2]"], 0),
        (CERTIFY, 0),
        (["power", "--angle", "1.3", "--eps", "1e-4"], 0),
        (["power", "--angle", "1.3", "--eps", "1e-9"], 5),
        (["gateset", "-n", "4"], 0),
        (["verify-rep", "-n", "9"], 5),
        (["verify-rep", "-n", "1", "--seed", "-1"], 2),
        (["closure", "-m", "70", "e[0]"], 5),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_symbolic_subcommands_leave_numpy_unloaded(argv, code):
    out = python(
        "import contextlib, io, sys\n"
        "from cliffgate.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    assert out.split() == [str(code), "False"]


def test_lazy_names_resolve_after_a_bare_import():
    out = python(
        "import sys\n"
        "import cliffgate\n"
        "print('numpy' in sys.modules, cliffgate.decompose.__module__, 'numpy' in sys.modules)\n"
    )
    assert out.split() == ["False", "cliffgate.matrices", "True"]


def test_dir_lists_every_public_name():
    import cliffgate

    names = dir(cliffgate)
    assert sorted(set(names)) == names
    missing = [name for name in PUBLIC if name not in names]
    assert missing == []
    for name in PUBLIC:
        assert getattr(cliffgate, name).__name__ == name


def test_unknown_name_raises_attribute_error():
    import cliffgate

    with pytest.raises(AttributeError, match="no_such_name"):
        cliffgate.no_such_name


def test_each_public_name_has_one_home():
    # a module's __all__ lists only what the module defines; a name moved
    # elsewhere is imported from its new home, not re-exported
    import cliffgate

    strays = []
    for info in pkgutil.iter_modules(cliffgate.__path__):
        module = importlib.import_module(f"cliffgate.{info.name}")
        for name in getattr(module, "__all__", ()):
            home = getattr(module, name).__module__
            if home != module.__name__:
                strays.append(f"{module.__name__}.{name} (defined in {home})")
    assert strays == []


def package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports, at any depth of its
    source: a function-local import counts too."""
    tree = ast.parse((SRC / "cliffgate" / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            found |= {name.split(".")[1] for name in names if name.startswith("cliffgate.")}
    return found


def reachable(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        for other in package_imports(todo.pop()) - seen:
            seen.add(other)
            todo.append(other)
    return seen


# The integer layers never reach the dense ones, ``pauli`` and ``power``
# reach only ``algebra``, and ``synthesis`` needs no closure; a module
# reached through another counts as imported.
LAYERS = {path.stem for path in (SRC / "cliffgate").glob("*.py")} - {"__init__"}
FORBIDDEN = {
    "algebra": LAYERS - {"algebra"},
    "closure": {"matrices", "synthesis"},
    "pauli": LAYERS - {"algebra", "pauli"},
    "power": LAYERS - {"algebra", "power"},
    "synthesis": {"closure"},
}


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_layers_import_only_downward(module):
    assert reachable(module) & FORBIDDEN[module] == set()


def names_in(tree) -> set[str]:
    # every name a module reads, binds, imports or takes as an attribute
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found |= {node.name, node.asname}
    return found


@pytest.mark.parametrize(
    "path", sorted(set((SRC / "cliffgate").glob("*.py")) - {SRC / "cliffgate" / "matrices.py"}),
    ids=lambda p: p.name,
)
def test_only_matrices_names_the_chunk_rule(path):
    # the one chunk rule and its byte budget live in matrices; every other layer
    # takes its chunks from a matrices stream
    assert names_in(ast.parse(path.read_text())) & {"_chunks", "CHUNK_BYTES"} == set()


@pytest.mark.parametrize(
    "path", sorted(set((SRC / "cliffgate").glob("*.py")) - {SRC / "cliffgate" / "algebra.py"}),
    ids=lambda p: p.name,
)
def test_only_algebra_raises_an_ambient_mismatch(path):
    # the ambient rule lives in algebra's _require_qubits and _require_same_ambient;
    # every other layer calls one of them rather than building the error itself
    nodes = list(ast.walk(ast.parse(path.read_text())))
    built = [node.func for node in nodes if isinstance(node, ast.Call)]
    built += [node.exc for node in nodes if isinstance(node, ast.Raise)
              and isinstance(node.exc, (ast.Name, ast.Attribute))]  # a bare `raise Error`
    assert not any("AmbientMismatchError" in names_in(node) for node in built)


@pytest.mark.parametrize(
    "path", sorted(set((SRC / "cliffgate").glob("*.py")) - {SRC / "cliffgate" / "closure.py"}),
    ids=lambda p: p.name,
)
def test_only_closure_walks_a_certificates_steps(path):
    # a certificate's derivation rules live in closure's Certificate.replay; every other
    # layer hands it an arithmetic rather than looping over the steps itself
    loops = [node.iter for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))]
    assert not any(isinstance(it, ast.Attribute) and it.attr == "steps" for it in loops)


def scoped_nodes():
    """``(scope, node)`` for every node under ``src/cliffgate``, where the
    scope is ``module.function`` (with the class, for a method) or the bare
    module at its top level."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            yield inner, child
            yield from visit(child, inner)

    for path in (SRC / "cliffgate").glob("*.py"):
        yield from visit(ast.parse(path.read_text()), path.stem)


def generator_set_builders() -> set[str]:
    """The scope of every call to ``GeneratorSet(...)`` under ``src/cliffgate``."""
    return {scope for scope, node in scoped_nodes()
            if isinstance(node, ast.Call) and "GeneratorSet" in names_in(node.func)}


def test_a_generator_set_is_built_only_where_generators_enter():
    # GeneratorSet checks its elements once; the closure, its certificates and the
    # certificate walk carry that set rather than building (and checking) another
    assert generator_set_builders() == {
        "closure.universal_generators",
        "closure.chain_generators",
        "closure.Certificate.from_text",
        "cli._parse_generators",
    }


def test_only_the_internal_constructor_gets_round_a_values_checks():
    # algebra._scaled is the one constructor that skips the public checks, and only
    # algebra calls it: object.__new__ and the slot descriptors' __set__ are bound once,
    # at algebra's top level, and only _scaled reads those names; object.__setattr__
    # appears only in __post_init__ methods
    nodes = list(scoped_nodes())
    assert {scope.split(".")[0] for scope, node in nodes if "_scaled" in names_in(node)} == {
        "algebra"
    }
    bypass = {"__new__", "__set__"}
    attrs = [(scope, node.attr) for scope, node in nodes if isinstance(node, ast.Attribute)]
    assert {scope for scope, attr in attrs if attr in bypass} == {"algebra"}
    bound = set()
    for scope, node in nodes:
        if scope == "algebra" and isinstance(node, ast.Assign) and names_in(node.value) & bypass:
            bound |= names_in(ast.Tuple(node.targets))
    assert {"_new", "_set_mask", "_set_is_zero"} <= bound
    readers = {scope for scope, node in nodes if isinstance(node, ast.Name)
               and node.id in bound and isinstance(node.ctx, ast.Load)}
    assert readers == {"algebra._scaled"}
    setters = {scope for scope, attr in attrs if attr == "__setattr__"}
    assert setters and all(scope.endswith(".__post_init__") for scope in setters)
