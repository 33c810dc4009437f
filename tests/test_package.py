import os
import subprocess
import sys

import pdnet


def test_every_export_resolves():
    missing = [name for name in pdnet.__all__ if not hasattr(pdnet, name)]
    assert not missing, f"pdnet.__all__ names what the package does not define: {missing}"
    assert len(set(pdnet.__all__)) == len(pdnet.__all__)


def test_importing_the_package_and_the_cli_leaves_scipy_unloaded():
    # only the strict-mode oracle imports scipy, whose cold import costs about half a second;
    # the aggregate oracle does without it too
    src = os.path.dirname(os.path.dirname(os.path.abspath(pdnet.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, pdnet, pdnet.cli\n"
        "loaded = lambda: any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
        "print(loaded())\n"
        "pdnet.exact_optimum(pdnet.default_instance('baseline'))\n"
        "print(loaded())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\nFalse\n"
