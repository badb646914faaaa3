"""Start-up imports: a command loads only the modules it runs.

Each check runs in a fresh interpreter and lists the modules loaded after
``import numpy``, so it counts only what the package itself imports.  Under
numpy < 2, ``import numpy`` loads ``numpy.random`` and ``numpy.polynomial``
itself, and the checks hold trivially.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the bracket tables are Python ints, so no command needs fractions, which loads decimal
NOT_AT_IMPORT = ("numpy.polynomial", "numpy.random", "fractions", "decimal")
NOT_IN_VALIDATE = ("numpy.random",)


def _loaded_after_numpy(code: str) -> set:
    """Modules that ``code`` loads in a fresh interpreter after ``import numpy``."""
    script = "\n".join(
        [
            "import json, sys",
            "import numpy",
            "baseline = set(sys.modules)",
            code,
            "sys.__stdout__.write(json.dumps(sorted(set(sys.modules) - baseline)))",
        ]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_neither_polynomial_nor_random():
    loaded = _loaded_after_numpy("import backflow.cli")
    assert "backflow.cli" in loaded
    assert not loaded & set(NOT_AT_IMPORT)


def test_validate_loads_no_numpy_random():
    code = "\n".join(
        [
            "import contextlib, io",
            "from backflow.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert main(['validate'], standalone_mode=False) is None",
        ]
    )
    loaded = _loaded_after_numpy(code)
    assert "backflow.cli" in loaded
    assert not loaded & set(NOT_IN_VALIDATE)
