"""The benchmark's tracer and checks must keep working on the package as it is.

perfbench/tracer.py wraps darkcount's public functions by name and its hooks
read their arguments and return values; perfbench/checks.py probes routes by
name and recomputes the rank margin through the package's tolerance policy.
One small operation per subcommand runs with the tracer installed; a renamed
function or argument fails here.
"""

import importlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from darkcount.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

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
def perfbench():
    """perfbench's tracer and checks modules, imported as run.py imports them."""
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("tracer"), importlib.import_module("checks")


@pytest.fixture(scope="module")
def tracer(perfbench):
    installed = perfbench[0].Tracer()
    installed.install()
    try:
        yield installed
    finally:
        installed.uninstall()


def run(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main([*argv.split(), "--seed", "0"])
    assert code == 0, err.getvalue()


@pytest.mark.parametrize("argv", OPERATIONS)
def test_traced_operation_succeeds(tracer, argv):
    run(argv)
    assert tracer.spans and tracer.layer_metrics()


def test_every_traced_and_probed_name_is_callable(perfbench):
    tracer_module, checks = perfbench
    names = [f"{layer}.{fname}" for layer, fnames in tracer_module.LAYERS.items()
             for fname in fnames]
    for name in [*names, *tracer_module.HOOKS, *checks.PROBED]:
        module, _, attr = name.rpartition(".")
        assert callable(getattr(importlib.import_module(f"darkcount.{module}"), attr)), name


def test_rank_margin_reads_every_traced_block(tracer, perfbench):
    for argv in OPERATIONS[:3]:  # count, rank and protocol reach rank_numeric and null_basis
        run(argv)
    assert tracer.svd_blocks
    for op, policy in tracer.svd_blocks:
        margin = perfbench[1].rank_margin(op, policy)
        assert np.isfinite(margin) and margin > 1.0, (op.shape, margin)
