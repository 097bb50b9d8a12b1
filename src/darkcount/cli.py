"""Command-line front end: reproducible experiments with versioned outputs.

Every run echoes its full configuration into the output; timestamps live
only under ``meta`` so rerunning with identical flags and seed reproduces
the data fields byte for byte.  A subcommand returns a record or a CSV or
SVG string, and ``main`` writes either, or the record of a failed check,
from one call site: a record as one payload, through one encoder.  Exit
code 0 means every requested computation completed and all cross-method
consistency checks passed; 2, a check failed, even when its record could
not be written; 1, a bad argument, a cap or a file that could not be read
or written, with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator
from datetime import datetime, timezone
from math import comb
from pathlib import Path

import numpy as np

from . import __version__
from .counting import (
    count_dark_uniform_oracle,
    ndark_formula,
    sweep,
    sweep_to_csv,
    sweep_to_svg,
    thermodynamic_order,
)
from .couplings import (
    DEFAULT_DISORDER,
    CouplingProfile,
    DisorderSpec,
    profile_from_json,
    profile_record,
    sample_profile,
    uniform_profile,
)
from .darkspace import (
    DEFAULT_TOLERANCE,
    MERSENNE_31,
    check_basis_fits,
    dark_subspace,
    diagonal_fits,
    rank_exact_modp,
    rank_numeric,
)
from .operators import S_SQUARED_SECTOR_CAP, HamiltonianModel, build_lowering_block
from .protocol import measure_d, monte_carlo_protocol, null_emission_probability
from .trajectory import no_click_vs_kappa, standard_config

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "DARKCOUNT_OUTPUT_DIR"

# C(22, 11), where the certificate takes 0.8-0.9 s and 192 MB peak RSS, the
# numeric rank with its block 1.3-1.5 s and 554 MB, and count, on one W for
# both, 1.5-1.9 s and 554 MB (2-vCPU VM): count stays within seconds and 600 MB
EXACT_SECTOR_CAP = 705_432
HISTOGRAM_BINS = 40  # rows of trajectory's first-click histogram
HORIZON_RESIDUAL_LIMIT = 0.01  # bright population left at t_max that counts as drained
NORM_CURVE_ERROR = 1e-8  # 100 times the 1e-10 the curve is tested to against the full space

DISORDER_PRESETS = {
    "log3": DEFAULT_DISORDER,
    "log2": DisorderSpec(1e-2, 1.0, True, "log-uniform"),
    "log1": DisorderSpec(1e-1, 1.0, True, "log-uniform"),
    "narrow": DisorderSpec(0.5, 1.0, True, "uniform"),
}


class ConsistencyError(RuntimeError):
    """A cross-method check failed; the CLI prints ``record`` and exits 2."""

    def __init__(self, message: str, record: dict):
        super().__init__(message)
        self.record = record


# --------------------------------------------------------------------------
# plumbing
# --------------------------------------------------------------------------


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _dump_json(payload: dict) -> Iterator[str]:
    """``json.dumps(payload, sort_keys=True)`` and a newline, in pieces.

    The one encoder of every JSON record.  A dict is written key by key in
    sorted order, an ndarray row by row through :func:`_array_rows`, and any
    other value by json's C encoder, so no record is held as nested lists of
    Python floats or as one string.
    """
    def pieces(value) -> Iterator[str]:
        if isinstance(value, dict):
            yield "{"
            for i, key in enumerate(sorted(value)):
                yield (", " if i else "") + json.dumps(key) + ": "
                yield from pieces(value[key])
            yield "}"
        elif isinstance(value, np.ndarray):
            yield from _array_rows(value)
        else:
            yield json.dumps(value, sort_keys=True)

    yield from pieces(payload)
    yield "\n"


def _array_rows(array: np.ndarray) -> Iterator[str]:
    """``json.dumps(array.tolist())`` for a float array, one string per row.

    Each row fills a ``%r`` template, built once, in C; ``%r`` writes
    nan and inf where json writes NaN and Infinity.
    """
    row = "%r"
    for size in reversed(array.shape[1:]):
        row = "[" + ", ".join([row] * size) + "]"
    finite = bool(np.isfinite(array).all())
    yield "["
    for i, values in enumerate(array):
        text = (", " + row if i else row) % tuple(values.ravel().tolist())
        yield text if finite else text.replace("nan", "NaN").replace("inf", "Infinity")
    yield "]"


def _emit(chunks: Iterable[str], output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.writelines(chunks)
        return
    path = Path(output)
    if not path.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as stream:
        stream.writelines(chunks)
    print(f"wrote {path}", file=sys.stderr)


def _payload(command: str, config: dict, data: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "generator": f"darkcount {__version__}",
        "command": command,
        "config": config,
        "meta": {"timestamp": _now_iso()},
        "data": data,
    }


def _bitstring(pattern: int, n: int) -> str:
    return format(pattern, f"0{n}b")


def _margins(report: dict) -> dict:
    """A numeric-rank report rounded to 4 significant digits, so reruns reproduce it."""
    return {k: None if v is None else float(f"{v:.4g}") for k, v in report.items()}


def _profile_from_args(args, n_qubits: int) -> CouplingProfile:
    """Build the coupling profile from the profile flags of a sector subcommand."""
    if args.profile_json:
        profile = profile_from_json(Path(args.profile_json).read_text())
        if profile.n_qubits != n_qubits:
            raise ValueError(f"--profile-json has {profile.n_qubits} couplings for --n {n_qubits}")
        return profile
    if args.uniform is not None:
        return uniform_profile(n_qubits, args.uniform)
    spec = DISORDER_PRESETS[args.disorder]
    overrides = {"magnitude_low": args.g_min, "magnitude_high": args.g_max,
                 "distribution": args.dist}
    spec = dataclasses.replace(spec, phase_random=spec.phase_random and not args.no_phases,
                               **{k: v for k, v in overrides.items() if v is not None})
    return sample_profile(n_qubits, spec, args.seed)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--output", "-o", default=None,
                     help=f"output path ('-' = stdout; relative paths join ${OUTPUT_DIR_ENV})")
    sub.add_argument("--config", default=None, metavar="PATH",
                     help="key = value file supplying flag defaults")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_count(args) -> dict:
    n = args.n
    if args.all_s == (args.s is not None):
        raise ValueError("pass one of --s and --all-s")
    profile = _profile_from_args(args, n)
    results = []
    for s in range(n + 1) if args.all_s else [args.s]:
        formula = ndark_formula(n, s)
        size = comb(n, s)
        if s == 0:  # no lowering block: the all-ground state is dark by convention
            numeric = modp = {"ran": False,
                              "why": "no lowering block at s=0; nullity 1 by convention"}
        elif max(size, comb(n, s - 1)) <= args.exact_cap:  # both routes build s and s-1
            how, cert = {}, {}
            rank = rank_numeric(build_lowering_block(n, s, profile), report=how)
            numeric = {"ran": True, "value": size - rank, **_margins(how)}
            rank = rank_exact_modp(n, s, report=cert)
            modp = {"ran": True, "rank": rank, "value": size - rank, **cert}
        else:
            numeric = modp = {"ran": False, "why": "s or s-1 sector size over cap"}
        if size <= S_SQUARED_SECTOR_CAP:
            oracle = {"ran": True, "value": count_dark_uniform_oracle(n, s)}
        else:
            oracle = {"ran": False, "why": f"sector size {size} over dense S^2 cap"}
        methods = {"numeric": numeric, "oracle": oracle, "exact_modp": modp}

        got = [m["value"] for m in methods.values() if m.get("ran")]
        agree = all(v == formula for v in got) if got else None  # None: nothing checked it
        results.append(
            {"s": s, "formula": formula, "sector_size": size, "methods": methods,
             "agree": agree}
        )
    verdicts = {r["agree"] for r in results}
    all_agree = False if False in verdicts else None if None in verdicts else True
    record = {"n": n, "results": results, "all_agree": all_agree}
    if all_agree is False:
        disagreements = [
            f"s={r['s']}: formula {r['formula']}, " + ", ".join(
                f"{name} {m['value']}" for name, m in r["methods"].items() if m["ran"])
            for r in results if r["agree"] is False
        ]
        raise ConsistencyError(
            "counting methods disagree with the closed form: " + "; ".join(disagreements), record)
    return record


def cmd_rank(args) -> dict:
    n, s = args.n, args.s
    if s < 1:
        raise ValueError("rank needs s >= 1 (no lowering block at s = 0)")
    size = comb(n, s)
    if args.method != "modp" and max(size, comb(n, s - 1)) > EXACT_SECTOR_CAP:
        raise ValueError(f"the s or s-1 sector is over the cap of {EXACT_SECTOR_CAP} states")
    records = []
    if args.method in ("modp", "both"):
        how: dict = {}
        rank = rank_exact_modp(n, s, report=how)
        records.append(
            {"N": n, "s": s, "method": f"modp({MERSENNE_31})", "rank": rank,
             "nullity": size - rank, "tolerance": None, **how}
        )
    if args.method in ("numeric", "both"):
        profile = _profile_from_args(args, n)
        op = build_lowering_block(n, s, profile)
        how = {}
        rank = rank_numeric(op, report=how)
        records.append(
            {"N": n, "s": s, "method": "svd", "rank": rank, "nullity": size - rank,
             "tolerance": DEFAULT_TOLERANCE.relative(op.shape), "seed": args.seed,
             **_margins(how)}
        )
    record = {"records": records,
              "expected_generic_rank": comb(n, s - 1) if 2 * s <= n else comb(n, s)}
    if len({r["rank"] for r in records}) > 1:
        raise ConsistencyError(f"rank methods disagree: {records}", record)
    return record


def cmd_darkbasis(args) -> dict:
    n, s = args.n, args.s
    check_basis_fits(n, s)
    profile = _profile_from_args(args, n)
    sub = dark_subspace(n, s, profile)
    # P = diag(phases) Q^T Q diag(phases)^* is Hermitian; it is idempotent iff Q Q^T = I
    q = sub.real_basis
    ortho = float(np.abs(q @ q.T - np.eye(sub.nullity)).max()) if q.size else 0.0
    diagonal = sub.diagonal()
    trace = float(diagonal.sum())
    checks = {
        "basis_orthonormal_max_dev": ortho,
        "trace": trace,
        "trace_matches_nullity": abs(trace - sub.nullity) <= 1e-9,
    }
    record = {
        "n": n, "s": s, "nullity": sub.nullity, "formula": ndark_formula(n, s),
        "nullity_route": sub.nullity_route, **_margins({"qr_margin": sub.qr_margin}),
        "checks": checks, "profile": profile_record(profile),
        "basis": sub.basis[..., None].view(np.float64),  # [re, im] per amplitude
        "projector_diagonal": diagonal,
    }
    if not (checks["trace_matches_nullity"] and ortho <= 1e-10):
        raise ConsistencyError(f"dark basis failed self-checks: {checks}", record)
    return record


def cmd_protocol(args) -> dict | str:
    n, s = args.n, args.s
    profile = _profile_from_args(args, n)
    result = measure_d(n, s, profile)
    deviation = abs(result.d_of_s - result.n_dark_expected)
    record = {
        "n": n, "s": s,
        "arrangement_order": "canonical (patterns ascending as integers)",
        "per_arrangement": [
            {"arrangement": _bitstring(pat, n), "null_probability": p}
            for pat, p in result.per_arrangement
        ],
        "d_of_s": result.d_of_s,
        "n_dark_expected": result.n_dark_expected,
        "deviation": deviation,
        "nullity_route": result.nullity_route, **_margins({"qr_margin": result.qr_margin}),
        "profile": profile_record(profile),
    }
    if deviation > 1e-8:
        raise ConsistencyError(
            f"D(s)={result.d_of_s!r} is off the dark count {result.n_dark_expected} "
            f"by {deviation:.3e}", record)
    if args.format == "csv":
        return "".join(["arrangement,null_probability\n"] + [
            f"{row['arrangement']},{row['null_probability']:.12g}\n"
            for row in record["per_arrangement"]])
    return record


def cmd_montecarlo(args) -> dict:
    n, s = args.n, args.s
    profile = _profile_from_args(args, n)
    mc = monte_carlo_protocol(n, s, profile, trials=args.trials, seed=args.seed)
    exact = mc.exact_d
    dev = abs(mc.estimated_d - exact)
    limit = max(5.0 * mc.standard_error, 1e-9)
    record = {
        "n": n, "s": s, "trials_per_arrangement": mc.trials_per_arrangement,
        "estimated_d": mc.estimated_d, "standard_error": mc.standard_error,
        "exact_d": exact, "n_dark": ndark_formula(n, s),
        "profile": profile_record(profile),
    }
    if dev > limit:
        raise ConsistencyError(
            f"Monte Carlo estimate {mc.estimated_d:.4f} deviates from exact "
            f"{exact:.4f} by {dev:.4f} > 5 SE = {limit:.4f}", record)
    return record


def cmd_sweep(args) -> dict | str:
    n_list = [int(tok) for tok in args.n_list.split(",")]
    records = sweep(n_list)
    for rec in records:
        assert rec.order_param * rec.sector_size == rec.n_dark
    if args.format == "csv":
        return sweep_to_csv(records)
    if args.format == "svg":
        return sweep_to_svg(records)
    curve = [
        {"alpha": k / 200.0, "order_param": thermodynamic_order(k / 200.0)}
        for k in range(201)
    ]
    return {
        "n_list": n_list,
        "records": [
            {
                "N": r.n_qubits, "s": r.n_excited,
                "alpha": f"{r.alpha.numerator}/{r.alpha.denominator}",
                "alpha_float": float(r.alpha),
                "order_param": f"{r.order_param.numerator}/{r.order_param.denominator}",
                "order_param_float": float(r.order_param),
                "n_dark": r.n_dark, "sector_size": r.sector_size,
            }
            for r in records
        ],
        "thermodynamic_curve": curve,
    }


def cmd_trajectory(args) -> dict | str:
    n, s = args.n, args.s
    if args.kappa_ratios and (args.histogram or args.format == "csv"):
        raise ValueError("--kappa-ratios takes neither --histogram nor --format csv")
    profile = _profile_from_args(args, n)
    initial = int(args.initial, 2) if args.initial else (1 << s) - 1
    if initial.bit_count() != s:
        raise ValueError(
            f"initial arrangement {args.initial} has {initial.bit_count()} "
            f"excitations, expected s={s}"
        )
    model = HamiltonianModel(n_qubits=n, profile=profile, n_photon_max=s)
    base = standard_config(model, args.kappa_ratio, initial, args.trajectories, args.seed,
                           args.waiting_factor)

    # a single run is the one-point sweep at --kappa-ratio, whose kappa is base.kappa
    ratios = ([float(tok) for tok in args.kappa_ratios.split(",")] if args.kappa_ratios
              else [args.kappa_ratio])
    data: dict = {
        "n": n, "s": s, "initial": _bitstring(initial, n),
        "kappa": base.kappa, "t_max": base.t_max, "n_trajectories": base.n_trajectories,
        "profile": profile_record(profile),
    }

    expectation = None
    if diagonal_fits(n, s):
        expectation = null_emission_probability(initial, dark_subspace(n, s, profile))
        data["projector_expectation"] = expectation

    points = []
    for kappa, stats in no_click_vs_kappa(base, [r * profile.max_magnitude for r in ratios]):
        points.append({
            "kappa": kappa, "n_no_click": stats.n_no_click, "n_click": stats.n_click,
            "p_no_click": stats.p_no_click, "standard_error": stats.standard_error,
            "first_click_times": dataclasses.asdict(stats.first_click_times),
        })
        if expectation is not None:  # the bright population the engine leaves at t_max
            points[-1]["horizon_residual"] = float(stats.norm_grid[-1]) - expectation
    if args.kappa_ratios:
        data["kappa_sweep"] = points
    else:  # the loop ran once, so stats is that run's
        data.update(points[0])
        if args.histogram or args.format == "csv":
            data["first_click_histogram"] = _click_histogram(stats)
        if expectation is not None:
            residual, dev = data["horizon_residual"], abs(stats.p_no_click - expectation)
            sufficient = residual <= HORIZON_RESIDUAL_LIMIT
            data.update(deviation_from_projector=dev, waiting_time_sufficient=sufficient)
            if sufficient:  # p_no_click within max(0.03, 5 SE) of the norm at t_max
                data["tolerance"] = residual + max(0.03, 5.0 * stats.standard_error)
    low = min(point.get("horizon_residual", 0.0) for point in points)
    if low < -NORM_CURVE_ERROR:  # the dark weight is conserved, so no norm falls below it
        raise ConsistencyError(f"the no-click norm at t_max is {-low:.3e} below the projector "
                               f"expectation, past the norm error {NORM_CURVE_ERROR:g}", data)
    if args.format == "csv":
        return "".join(["t_low,t_high,click_fraction\n"] + [
            f"{row['t_low']:.12g},{row['t_high']:.12g},{row['click_fraction']:.12g}\n"
            for row in data["first_click_histogram"]])
    return data


def _click_histogram(stats) -> list[dict]:
    """First-click-time distribution, exact: the norm-curve drop in each bin
    is the click probability mass there, so no resampling noise enters."""
    if stats.first_click_times.count == 0:
        return []
    t = stats.norm_grid_times
    drops = -np.diff(stats.norm_grid)
    edges = np.linspace(t[0], t[-1], HISTOGRAM_BINS + 1)
    weights, _ = np.histogram(t[1:], bins=edges, weights=drops)
    total = weights.sum()
    return [
        {"t_low": float(edges[i]), "t_high": float(edges[i + 1]),
         "click_fraction": float(weights[i] / total) if total > 0 else 0.0}
        for i in range(HISTOGRAM_BINS)
    ]


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


@functools.cache  # parsing leaves the parser as it was, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkcount",
        description="Count, construct and herald dark states of qubits in a lossy cavity.",
    )
    parser.add_argument("--version", action="version", version=f"darkcount {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def sector(name: str, func, help: str, s_required: bool = True):
        """A subcommand on one (N, s) sector: --n, --s, the profile and the common flags."""
        p = subs.add_parser(name, help=help)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--s", type=int, required=s_required)
        p.add_argument("--uniform", type=float, default=None, metavar="G",
                       help="uniform coupling strength instead of disorder")
        p.add_argument("--disorder", choices=sorted(DISORDER_PRESETS), default="log3",
                       help="disorder preset (default %(default)s; "
                            "log3: 3 decades, random phases)")
        p.add_argument("--g-min", type=float, default=None, help="override magnitude low")
        p.add_argument("--g-max", type=float, default=None, help="override magnitude high")
        p.add_argument("--dist", choices=["log-uniform", "uniform"], default=None,
                       help="override magnitude distribution")
        p.add_argument("--no-phases", action="store_true", help="zero coupling phases")
        p.add_argument("--profile-json", default=None, metavar="PATH",
                       help="import couplings from a JSON file of (re, im) pairs")
        _add_common_flags(p)
        p.set_defaults(func=func)
        return p

    p = sector("count", cmd_count, "dark-state count by every applicable method",
               s_required=False)
    p.add_argument("--all-s", action="store_true")
    p.add_argument("--exact-cap", type=int, default=EXACT_SECTOR_CAP,
                   help="largest s or s-1 sector size for both sparse rank routes, "
                        "numeric and exact F_p")

    p = sector("rank", cmd_rank, "rank of the lowering block, exact and/or numeric")
    p.add_argument("--method", choices=["modp", "numeric", "both"], default="modp")

    sector("darkbasis", cmd_darkbasis, "orthonormal dark basis and projector diagonal")

    p = sector("protocol", cmd_protocol, "exact null-emission probabilities and D(s)")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sector("montecarlo", cmd_montecarlo, "finite-trials estimate of D(s)")
    p.add_argument("--trials", type=int, default=10_000)

    p = subs.add_parser("sweep", help="order parameter vs filling, with the limit curve")
    p.add_argument("--n-list", default="4,8,12,16,20")
    p.add_argument("--format", choices=["json", "csv", "svg"], default="json")
    _add_common_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sector("trajectory", cmd_trajectory, "quantum-jump heralding simulation")
    p.add_argument("--initial", default=None,
                   help="initial arrangement as a bitstring (qubit 1 rightmost)")
    p.add_argument("--kappa-ratio", type=float, default=100.0,
                   help="cavity decay over the largest coupling magnitude")
    p.add_argument("--kappa-ratios", default=None,
                   help="comma list: sweep kappa/g over these ratios instead")
    p.add_argument("--trajectories", type=int, default=10_000)
    p.add_argument("--waiting-factor", type=float, default=50.0,
                   help="horizon t_max = factor / g_min")
    p.add_argument("--histogram", action="store_true",
                   help="include a first-click-time histogram")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="csv emits the first-click-time histogram")
    # at (8,4), seeds 0-3, the default horizon leaves 1.2-2.8 % of the population
    # bright under narrow, where sigma_min stays near g_min, and up to 34 % under log3
    p.set_defaults(disorder="narrow")

    return parser


def _splice_config(argv: list[str]) -> list[str]:
    """Insert the `key = value` lines of a --config file as flags after the subcommand.

    Flags given on the command line come later, so they win, and argparse
    checks every value and rejects unknown keys.  A switch is set by
    true/yes/on and left out by false/no/off.
    """
    pre = argparse.ArgumentParser(prog="darkcount", add_help=False)
    pre.add_argument("--config", metavar="PATH")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        pre.error(f"argument --config: {exc}")
    flags = []
    for line in lines:
        key, _, value = line.split("#", 1)[0].partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            continue
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "yes", "on"):
            flags.append(flag)
        elif value.lower() not in ("false", "no", "off"):
            flags.append(f"{flag}={value}")
    at = next((i + 1 for i, tok in enumerate(argv) if not tok.startswith("-")), 0)
    return argv[:at] + flags + argv[at:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_splice_config(argv))

    config_echo = {k: v for k, v in vars(args).items() if k != "func"}
    code = 0
    try:
        try:
            result = args.func(args)
        except ConsistencyError as exc:
            print(f"consistency check failed: {exc}", file=sys.stderr)
            result, code = exc.record, 2
        # csv / svg payloads carry their own format
        chunks = [result] if isinstance(result, str) else _dump_json(
            _payload(args.command, config_echo, result))
        _emit(chunks, args.output)
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return code or 1  # a failed check whose record cannot be written still exits 2
    return code


if __name__ == "__main__":
    sys.exit(main())
