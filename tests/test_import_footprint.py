"""scipy.special loads only where a Beta label law enters.

Only the Beta laws need it (``betainc``, ``betaincinv``).  A run on
Bernoulli labels, its audit and the CLI module never import it; a Beta
adversary imports it while it is built, before round 1, so the import is
never inside a round; a Beta law built on its own imports it at its first
draw.  Each check runs in a fresh interpreter, because this test process
may have imported scipy already.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_fresh(code: str) -> list[str]:
    """Run ``code`` in a new interpreter with src/ and tests/ on the path; return its output words."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(HERE.parent / "src"), str(HERE)])}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_bernoulli_run_and_audit_leave_scipy_special_unloaded():
    out = run_fresh(
        """
        import sys

        import swapcal
        import swapcal.cli
        from swapcal.harness import ExperimentConfig, audit_result, run
        from test_pinned_digests import WORKLOADS

        config, _ = WORKLOADS["online_finite"]
        result = run(ExperimentConfig.from_dict({**config, "T": 256, "seed": 1}))
        print(audit_result(result).passed, "scipy.special" in sys.modules)
        """
    )
    assert out == ["True", "False"]


def test_beta_adversary_loads_scipy_special_at_set_up():
    out = run_fresh(
        """
        import sys

        from swapcal.harness import ExperimentConfig
        from test_pinned_digests import WORKLOADS

        config, _ = WORKLOADS["persisted_pipeline"]
        print("scipy.special" in sys.modules)
        # from_dict builds the components once to validate them
        ExperimentConfig.from_dict({**config, "T": 256, "seed": 1}).build_components()
        print("scipy.special" in sys.modules)
        """
    )
    assert out == ["False", "True"]


def test_beta_law_loads_scipy_special_at_first_use():
    out = run_fresh(
        """
        import sys

        from swapcal.properties import beta_law

        law = beta_law(2.0, 2.0)
        print("scipy.special" in sys.modules)
        print(law.sample(0.5), "scipy.special" in sys.modules)
        """
    )
    assert out == ["False", "0.5", "True"]
