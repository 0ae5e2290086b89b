"""Import hygiene: the symbolic subcommands never load numpy, and the
package still offers every public name.

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
    "certificate chain_generators close dimension is_universal universal_generators "
    "PauliFactorization decompose expm_hermitian format_matrix gamma hermitized_matrix "
    "parse_matrix pauli_factorization reconstruct recursive_construct "
    "replay_certificate represent verify_representation "
    "CoefficientVector Gate GateSequence PowerResult commutator_gate "
    "irrational_power minimal_power_scan operator_distance "
    "phase_aligned_distance synthesize trotter"
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


def test_pauli_layer_stands_below_closure():
    # the monomial layer needs no closure: the gate set's closure is the
    # command line's to run
    tree = ast.parse((SRC / "cliffgate" / "pauli.py").read_text())
    sources = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "algebra" in sources and "closure" not in sources
