"""The benchmark's tracer must keep working on the package as it is.

perfbench/tracer.py wraps darkcount's public functions by name and its hooks
read their arguments and return values.  One small operation per subcommand
runs with the tracer installed; a renamed function or argument fails here.
"""

import importlib.util
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from darkcount.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

OPERATIONS = [
    "count --n 4 --s 2",
    "rank --n 4 --s 2 --method both",
    "protocol --n 4 --s 2",
    "montecarlo --n 4 --s 2 --trials 100",
    "darkbasis --n 4 --s 2",
    "sweep --n-list 3,4 --format svg",
    "trajectory --n 2 --s 1",
]


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    installed = module.Tracer()
    installed.install()
    try:
        yield installed
    finally:
        installed.uninstall()


@pytest.mark.parametrize("argv", OPERATIONS)
def test_traced_operation_succeeds(tracer, argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main([*argv.split(), "--seed", "0"])
    assert code == 0, err.getvalue()
    assert tracer.spans and tracer.layer_metrics()
