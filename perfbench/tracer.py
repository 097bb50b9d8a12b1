"""Span tracer that wraps darkcount's public functions from outside the package.

``rebind`` is the one place where a darkcount function gets wrapped: it
replaces every binding of the function, in every loaded ``darkcount`` module
namespace.  The checks' value probes use it, and ``Tracer.install`` uses it
to wrap each listed function with a wrapper that records a span
(name, start, end, parent) in memory.  Calls made inside a module through its
own globals are therefore traced too.  Hot per-element helpers
(``state_index``, class constructors such as ``PureState``) stay unwrapped so
that tracing costs little.  ``nullity_numeric`` is left unwrapped as well:
its only caller is ``rank_numeric``, whose span then holds the SVD.

Hooks turn a call's arguments and return value into work counters.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import defaultdict
from time import perf_counter

# The public functions the workloads reach, by module.
LAYERS = {
    "sector": ("enumerate_sector",),
    "couplings": ("sample_profile",),
    "operators": (
        "build_lowering_block", "build_hamiltonian", "total_s_squared", "total_sz",
    ),
    "darkspace": (
        "dark_subspace", "null_basis", "rank_numeric", "projector", "verify_dark",
        "rank_exact_modp",
    ),
    "counting": (
        "ndark_formula", "order_parameter", "thermodynamic_order",
        "count_dark_uniform_oracle", "sweep", "sweep_to_svg",
    ),
    "protocol": ("null_emission_probability", "measure_d", "monte_carlo_protocol"),
    "trajectory": ("standard_config", "run_trajectories", "no_click_vs_kappa"),
    "cli": ("main",),
}


def _svd_block(tracer, a, result):
    m, n = a["op"].shape
    tracer.counters["darkspace.svd_cols"] += n
    # dense copy of the block plus the full U and V^H that the SVD returns
    tracer.counters["darkspace.svd_bytes_computed"] += 16 * (m * n + m * m + n * n)
    tracer.svd_blocks.append((a["op"], a["tol_policy"]))


def _projector(tracer, a, result):
    dim = a["sub"].sector.size
    # one outer product and one accumulation per basis vector
    tracer.counters["darkspace.projector_bytes_computed"] += a["sub"].nullity * dim * dim * 16 * 2


def _modp(tracer, a, result):
    n, s = a["n_qubits"], a["n_excited"]
    tracer.counters["darkspace.modp_rows"] += min(math.comb(n, s), math.comb(n, s - 1))


def _lowering(tracer, a, result):
    tracer.counters["operators.lowering_nnz"] += result.matrix.nnz


def _trajectories(tracer, a, result):
    config = a["config"]
    key = "trajectory.dim_max"
    tracer.counters[key] = max(tracer.counters[key], config.model.dim)
    tracer.counters["trajectory.steps"] += max(1, math.ceil(config.t_max / config.dt))


def _sector(tracer, a, result):
    tracer.counters["sector.states_enumerated"] += result.size


HOOKS = {
    "darkspace.null_basis": _svd_block,
    "darkspace.rank_numeric": _svd_block,
    "darkspace.projector": _projector,
    "darkspace.rank_exact_modp": _modp,
    "operators.build_lowering_block": _lowering,
    "trajectory.run_trajectories": _trajectories,
    "sector.enumerate_sector": _sector,
}


def rebind(qualname: str, make) -> list:
    """Replace each binding of ``darkcount.<qualname>`` with ``make(binding)``.

    Every loaded ``darkcount`` module namespace is searched.  A binding is the
    function when it unwraps to it through ``__wrapped__``, so wrappers made
    with ``functools.wraps`` stack.  Returns the (module, name, old binding)
    triples that undo the change.
    """
    layer, fname = qualname.split(".")
    original = inspect.unwrap(getattr(sys.modules[f"darkcount.{layer}"], fname))
    undo = []
    for key, module in list(sys.modules.items()):
        if key != "darkcount" and not key.startswith("darkcount."):
            continue
        for attr, bound in list(vars(module).items()):
            if callable(bound) and inspect.unwrap(bound) is original:
                undo.append((module, attr, bound))
                setattr(module, attr, make(bound))
    return undo


class Tracer:
    """In-memory spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self.svd_blocks: list = []  # (SectorOperator, TolerancePolicy) per SVD call
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        for layer, names in LAYERS.items():
            for fname in names:
                name = f"{layer}.{fname}"
                self._undo += rebind(name, lambda fn, name=name: self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, bound = self._undo.pop()
            setattr(module, attr, bound)

    def layer_metrics(self) -> dict[str, float]:
        """self_s and calls per traced function, self_s per module, and the counters."""
        own = [end - start for _, start, end, _ in self.spans]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            out[f"{layer}.self_s"] = 0.0
            for fname in names:
                out[f"{layer}.{fname}.self_s"] = 0.0
                out[f"{layer}.{fname}.calls"] = 0
        for (name, *_), t in zip(self.spans, own):
            out[f"{name}.self_s"] += t
            out[f"{name}.calls"] += 1
            out[f"{name.split('.')[0]}.self_s"] += t
        for key in ("darkspace.svd_cols", "darkspace.svd_bytes_computed",
                    "darkspace.projector_bytes_computed", "darkspace.modp_rows",
                    "operators.lowering_nnz", "trajectory.dim_max", "trajectory.steps",
                    "sector.states_enumerated"):
            out[key] = self.counters[key]
        return out
