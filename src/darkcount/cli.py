"""Command-line front end: reproducible experiments with versioned outputs.

Every run echoes its full configuration into the output; timestamps live
only under ``meta`` so rerunning with identical flags and seed reproduces
the data fields byte for byte.  Exit code 0 means every requested
computation completed and all cross-method consistency checks passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
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
    CouplingProfile,
    DisorderSpec,
    profile_from_json,
    sample_profile,
    uniform_profile,
)
from .darkspace import (
    DEFAULT_TOLERANCE,
    MERSENNE_31,
    dark_subspace,
    projector,
    rank_exact_modp,
    rank_numeric,
)
from .operators import S_SQUARED_MAX_QUBITS, HamiltonianModel, build_lowering_block
from .protocol import (
    BASIS_BYTES_CAP,
    dark_basis_bytes,
    measure_d,
    monte_carlo_protocol,
    null_emission_probability,
)
from .trajectory import no_click_vs_kappa, run_trajectories, standard_config

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "DARKCOUNT_OUTPUT_DIR"

NUMERIC_SECTOR_CAP = comb(16, 8)  # dense Gram of the smaller side, 1.05 GB at (16,8)
EXACT_SECTOR_CAP = 705_432  # C(22, 11): about 1 s of certificate, so count stays light
HISTOGRAM_BINS = 40  # rows of trajectory's first-click histogram

DISORDER_PRESETS = {
    "log3": DisorderSpec(1e-3, 1.0, True, "log-uniform"),
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


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"  # no indent: keeps json's C encoder


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    path = Path(output)
    if not path.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
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
    """Build the coupling profile from the flags of ``_add_profile_flags``."""
    if args.profile_json:
        return profile_from_json(Path(args.profile_json).read_text())
    if args.uniform is not None:
        return uniform_profile(n_qubits, args.uniform)
    spec = DISORDER_PRESETS[args.disorder]
    if args.g_min is not None or args.g_max is not None or args.dist is not None or args.no_phases:
        spec = DisorderSpec(
            magnitude_low=spec.magnitude_low if args.g_min is None else args.g_min,
            magnitude_high=spec.magnitude_high if args.g_max is None else args.g_max,
            phase_random=not args.no_phases,
            distribution=spec.distribution if args.dist is None else args.dist,
        )
    return sample_profile(n_qubits, spec, args.seed)


def _profile_config(profile: CouplingProfile) -> dict:
    return {
        "label": profile.label,
        "couplings": [[g.real, g.imag] for g in profile.values],
    }


def _add_profile_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--uniform", type=float, default=None, metavar="G",
                     help="uniform coupling strength instead of disorder")
    sub.add_argument("--disorder", choices=sorted(DISORDER_PRESETS), default="log3",
                     help="disorder preset (default %(default)s; log3: 3 decades, random phases)")
    sub.add_argument("--g-min", type=float, default=None, help="override magnitude low")
    sub.add_argument("--g-max", type=float, default=None, help="override magnitude high")
    sub.add_argument("--dist", choices=["log-uniform", "uniform"], default=None,
                     help="override magnitude distribution")
    sub.add_argument("--no-phases", action="store_true", help="zero coupling phases")
    sub.add_argument("--profile-json", default=None, metavar="PATH",
                     help="import couplings from a JSON file of (re, im) pairs")


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
    s_values = list(range(n + 1)) if args.all_s else [args.s]
    if s_values == [None]:
        raise ValueError("pass --s or --all-s")
    profile = _profile_from_args(args, n)
    results = []
    for s in s_values:
        formula = ndark_formula(n, s)
        methods: dict[str, dict] = {}
        size = comb(n, s)

        if s == 0:
            # no lowering block: the all-ground state is dark by convention
            methods["numeric"] = {"ran": True, "value": 1}
        elif size <= NUMERIC_SECTOR_CAP:
            how = {}
            rank = rank_numeric(build_lowering_block(n, s, profile), report=how)
            methods["numeric"] = {"ran": True, "value": size - rank, **_margins(how)}
        else:
            methods["numeric"] = {"ran": False, "why": f"sector size {size} over cap"}

        if n <= S_SQUARED_MAX_QUBITS:
            methods["oracle"] = {"ran": True, "value": count_dark_uniform_oracle(n, s)}
        else:
            methods["oracle"] = {"ran": False, "why": f"N {n} over dense cap"}

        if s == 0:
            methods["exact_modp"] = {
                "ran": False,
                "why": "no lowering block at s=0; nullity 1 by convention",
            }
        elif max(size, comb(n, s - 1)) <= args.exact_cap:
            # the certificate builds both the s and s-1 sectors; gate on the larger
            how: dict = {}
            rank = rank_exact_modp(n, s, report=how)
            methods["exact_modp"] = {"ran": True, "rank": rank, "value": size - rank, **how}
        else:
            methods["exact_modp"] = {"ran": False, "why": "s or s-1 sector size over cap"}

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
    records = []
    if args.method in ("modp", "both"):
        how: dict = {}
        rank = rank_exact_modp(n, s, report=how)
        records.append(
            {"N": n, "s": s, "method": f"modp({MERSENNE_31})", "rank": rank,
             "nullity": size - rank, "tolerance": None, **how}
        )
    if args.method in ("numeric", "both"):
        if size > NUMERIC_SECTOR_CAP:
            raise ValueError(f"sector size {size} exceeds the dense Gram cap")
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
    nbytes = 16 * comb(n, s) ** 2  # each of the complex dim x dim projector and p @ p
    if nbytes > BASIS_BYTES_CAP:
        raise ValueError(f"the ({n}, {s}) dense projector takes {nbytes >> 20} MiB, "
                         f"over BASIS_BYTES_CAP of {BASIS_BYTES_CAP >> 20} MiB")
    profile = _profile_from_args(args, n)
    sub = dark_subspace(n, s, profile)
    p = projector(sub)
    herm = float(np.abs(p - p.conj().T).max()) if p.size else 0.0
    idem = float(np.abs(p @ p - p).max()) if p.size else 0.0
    trace = float(np.real(np.trace(p)))
    checks = {
        "projector_hermitian_max_dev": herm,
        "projector_idempotent_max_dev": idem,
        "trace": trace,
        "trace_matches_nullity": abs(trace - sub.nullity) <= 1e-9,
    }
    record = {
        "n": n, "s": s, "nullity": sub.nullity, "formula": ndark_formula(n, s),
        "nullity_route": sub.nullity_route, **_margins({"qr_margin": sub.qr_margin}),
        "checks": checks, "profile": _profile_config(profile),
        "basis": [[[a.real, a.imag] for a in v] for v in sub.basis],
        "projector_diagonal": [float(x) for x in sub.diagonal()],
    }
    if not (checks["trace_matches_nullity"] and herm <= 1e-12 and idem <= 1e-10):
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
        "profile": _profile_config(profile),
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
        "profile": _profile_config(profile),
    }
    if dev > limit:
        raise ConsistencyError(
            f"Monte Carlo estimate {mc.estimated_d:.4f} deviates from exact "
            f"{exact:.4f} by {dev:.4f} > 5 SE = {limit:.4f}", record)
    return record


def cmd_sweep(args) -> dict | str:
    n_list = [int(tok) for tok in args.n_list.split(",") if tok]
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
    profile = _profile_from_args(args, n)
    initial = int(args.initial, 2) if args.initial else (1 << s) - 1
    if initial.bit_count() != s:
        raise ValueError(
            f"initial arrangement {args.initial} has {initial.bit_count()} "
            f"excitations, expected s={s}"
        )
    model = HamiltonianModel(n_qubits=n, profile=profile, n_photon_max=s)
    base = standard_config(
        model, kappa_ratio=args.kappa_ratio, initial=initial,
        n_trajectories=args.trajectories, seed=args.seed,
        waiting_factor=args.waiting_factor,
    )

    ratios = [float(tok) for tok in args.kappa_ratios.split(",")] if args.kappa_ratios else None
    data: dict = {
        "n": n, "s": s, "initial": _bitstring(initial, n),
        "kappa": base.kappa, "t_max": base.t_max, "n_trajectories": base.n_trajectories,
        "profile": _profile_config(profile),
    }

    expectation = None
    if dark_basis_bytes(n, s) <= BASIS_BYTES_CAP:
        expectation = null_emission_probability(initial, dark_subspace(n, s, profile))
        data["projector_expectation"] = expectation

    def stats_block(st):
        return {
            "n_no_click": st.n_no_click, "n_click": st.n_click,
            "p_no_click": st.p_no_click, "standard_error": st.standard_error,
            "first_click_times": dataclasses.asdict(st.first_click_times),
        }

    if ratios:
        points = no_click_vs_kappa(
            base, [r * profile.max_magnitude for r in ratios]
        )
        data["kappa_sweep"] = [
            {"kappa": kappa, **stats_block(st)} for kappa, st in points
        ]
    else:
        stats = run_trajectories(base)
        data.update(stats_block(stats))
        if args.histogram or args.format == "csv":
            data["first_click_histogram"] = _click_histogram(stats)
        if expectation is not None:
            dev = abs(stats.p_no_click - expectation)
            data["deviation_from_projector"] = dev
            # a lone bright mode at the weakest coupling decays at 4 g_min^2 / kappa;
            # only enforce the tolerance when the horizon provably drains it below 1%
            g_min = profile.min_magnitude
            suppression_exponent = 4.0 * g_min**2 * base.t_max / base.kappa
            guaranteed = args.kappa_ratio >= 50.0 and suppression_exponent >= 4.6
            data["waiting_time_sufficient"] = guaranteed
            if guaranteed:
                limit = max(0.03, 5.0 * stats.standard_error)
                data["tolerance"] = limit
                if dev > limit:
                    raise ConsistencyError(
                        f"p_no_click={stats.p_no_click:.4f} is {dev:.4f} away from the "
                        f"projector expectation {expectation:.4f} (limit {limit:.4f})", data)
    if args.format == "csv":
        return "".join(["t_low,t_high,click_fraction\n"] + [
            f"{row['t_low']:.12g},{row['t_high']:.12g},{row['click_fraction']:.12g}\n"
            for row in data.get("first_click_histogram", [])])
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkcount",
        description="Count, construct and herald dark states of qubits in a lossy cavity.",
    )
    parser.add_argument("--version", action="version", version=f"darkcount {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("count", help="dark-state count by every applicable method")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--all-s", action="store_true")
    p.add_argument("--exact-cap", type=int, default=EXACT_SECTOR_CAP,
                   help="largest sector size for the exact F_p rank")
    _add_profile_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_count, format="json")

    p = subs.add_parser("rank", help="rank of the lowering block, exact and/or numeric")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--method", choices=["modp", "numeric", "both"], default="modp")
    _add_profile_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_rank, format="json")

    p = subs.add_parser("darkbasis", help="orthonormal dark basis and projector")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    _add_profile_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_darkbasis, format="json")

    p = subs.add_parser("protocol", help="exact null-emission probabilities and D(s)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_profile_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_protocol)

    p = subs.add_parser("montecarlo", help="finite-trials estimate of D(s)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    _add_profile_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_montecarlo, format="json")

    p = subs.add_parser("sweep", help="order parameter vs filling, with the limit curve")
    p.add_argument("--n-list", default="4,8,12,16,20")
    p.add_argument("--format", choices=["json", "csv", "svg"], default="json")
    _add_common_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("trajectory", help="quantum-jump heralding simulation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--initial", default=None,
                   help="initial arrangement as a bitstring (qubit 1 rightmost)")
    p.add_argument("--kappa-ratio", type=float, default=100.0,
                   help="cavity decay over the largest coupling magnitude")
    p.add_argument("--kappa-ratios", default=None,
                   help="comma list: sweep kappa/g over these ratios instead")
    p.add_argument("--trajectories", type=int, default=10_000)
    p.add_argument("--waiting-factor", type=float, default=50.0,
                   help="required t_max * g_min")
    p.add_argument("--histogram", action="store_true",
                   help="include a first-click-time histogram")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="csv emits the first-click-time histogram")
    _add_profile_flags(p)
    _add_common_flags(p)
    # a lone bright mode at g_min decays at 4 g_min^2 / kappa, so at the default
    # kappa = 100 g_max the horizon 50 / g_min drains it only by exp(-2 g_min / g_max):
    # exp(-0.002) under log3's three decades.  So trajectories default to narrow.
    p.set_defaults(func=cmd_trajectory, disorder="narrow")

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

    config_echo = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func",) and not callable(v)
    }
    try:
        result = args.func(args)
    except ConsistencyError as exc:
        print(f"consistency check failed: {exc}", file=sys.stderr)
        _emit(_dump_json(_payload(args.command, config_echo, exc.record)), args.output)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if isinstance(result, str):  # csv / svg payloads carry their own format
        _emit(result, args.output)
        return 0
    _emit(_dump_json(_payload(args.command, config_echo, result)), args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
