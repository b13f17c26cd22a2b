"""The import budget (DESIGN.md §11): the run path is stdlib + numpy.

Each case runs in a fresh interpreter — pytest's own process may already
hold scipy, so its ``sys.modules`` proves nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

#: Child script: run ``{body}``, then print every module loaded since
#: interpreter start whose file lives under a site-packages directory.
_CHILD = """\
import sys
from pathlib import Path
before = set(sys.modules)
{body}
for name, module in sorted(sys.modules.items()):
    path = Path(getattr(module, "__file__", None) or "")
    if name not in before and "site-packages" in path.parts:
        print(name)
"""


def _loaded_after(body: str) -> set[str]:
    """Third-party modules a fresh interpreter holds after running ``body``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    child = subprocess.run(
        [sys.executable, "-c", _CHILD.format(body=body)],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(child.stdout.split())


def test_run_path_imports_numpy_only():
    loaded = _loaded_after(
        "import repro.experiments.cli\n"
        "from repro.core.design import all_designs\n"
        "from repro.experiments.runner import run_scenario\n"
        "from repro.experiments.scenarios import get_scenario\n"
        "config = get_scenario('basic').config(scale=0.002, seed=1)\n"
        "run_scenario(config, all_designs()[0])\n"
    )
    assert {name.split(".")[0] for name in loaded} == {"numpy"}
    assert not loaded & {"numpy.testing", "numpy.f2py"}


def test_chain_solve_loads_scipy():
    loaded = _loaded_after(
        "from repro.fluid.markov import MarkovChain\n"
        "chain = MarkovChain(0, lambda s: [(1 - s, 1.0 + s)])\n"
        "assert 'scipy' not in sys.modules\n"
        "chain.stationary_distribution()\n"
    )
    assert "scipy.sparse.linalg" in loaded
