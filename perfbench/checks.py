"""Independent checks of each CLI operation's output.

Expected values come from ``math.comb`` and from matrices the benchmark
builds itself from the couplings echoed in the output; nothing is taken on
trust from the exit code.  ``check`` returns a list of problems (empty when
the output is right) and the facts worth keeping in the result record.
"""

from __future__ import annotations

import functools
import json
import xml.etree.ElementTree as ET
from itertools import combinations
from math import comb

import numpy as np
import scipy.linalg

from tracer import rebind

SVG_NS = "{http://www.w3.org/2000/svg}"


def dark_count(n: int, s: int) -> int:
    """C(N, s) - C(N, s-1) up to half filling, zero above."""
    if 2 * s > n:
        return 0
    return comb(n, s) - (comb(n, s - 1) if s >= 1 else 0)


def generic_rank(n: int, s: int) -> int:
    """Rank of the (N, s) lowering block for nonzero couplings, s >= 1."""
    return comb(n, s) - dark_count(n, s)


def flags(argv) -> dict[str, str]:
    """``--key value`` pairs of an argv; a bare flag maps to ''."""
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else ""
            out[tok[2:]] = "" if nxt.startswith("--") else nxt
    return out


def sector_states(n: int, s: int) -> list[int]:
    """Bit patterns with s of n bits set, ascending."""
    return sorted(sum(1 << b for b in bits) for bits in combinations(range(n), s))


def lowering_matrix(couplings, s: int) -> np.ndarray:
    """Dense sum_j g_j S_j^- from the s-sector to the (s-1)-sector."""
    g = [complex(re, im) for re, im in couplings]
    n = len(g)
    src = sector_states(n, s)
    row_of = {t: k for k, t in enumerate(sector_states(n, s - 1))}
    mat = np.zeros((len(row_of), len(src)), dtype=np.complex128)
    for j, m in enumerate(src):
        for i in range(n):
            if m >> i & 1:
                mat[row_of[m ^ (1 << i)], j] = g[i]
    return mat


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _check_count(a, data, problems, facts):
    n = int(a["n"])
    for res in data["results"]:
        s = res["s"]
        want = dark_count(n, s)
        values = {k: m.get("value") for k, m in res["methods"].items() if m.get("ran")}
        facts.setdefault("counts", []).append({"s": s, "expected": want, **values})
        if res["formula"] != want or res["sector_size"] != comb(n, s):
            problems.append(f"({n},{s}) formula {res['formula']} / size {res['sector_size']}")
        if not values:
            problems.append(f"({n},{s}) no counting method ran")
        for method, value in values.items():
            if value != want:
                problems.append(f"({n},{s}) {method} gave {value}, expected {want}")
        modp = res["methods"].get("exact_modp", {})
        if modp.get("ran") and modp["rank"] != generic_rank(n, s):
            problems.append(f"({n},{s}) F_p rank {modp['rank']}, expected {generic_rank(n, s)}")


def _check_rank(a, data, problems, facts):
    n, s = int(a["n"]), int(a["s"])
    want = generic_rank(n, s)
    methods = {r["method"].split("(")[0]: r["rank"] for r in data["records"]}
    facts["ranks"] = {"expected": want, **methods}
    expected_methods = {"modp", "svd"} if a.get("method") == "both" else None
    if expected_methods and set(methods) != expected_methods:
        problems.append(f"rank methods {sorted(methods)}, expected both")
    for r in data["records"]:
        if r["rank"] != want or r["nullity"] != comb(n, s) - want:
            problems.append(f"{r['method']} rank {r['rank']} nullity {r['nullity']}, "
                            f"expected {want} / {comb(n, s) - want}")
    if data["expected_generic_rank"] != want:
        problems.append(f"expected_generic_rank {data['expected_generic_rank']} != {want}")


# The plot's layout in sweep_to_svg: a 640 x 480 canvas whose axes run from
# x = 70 to 620 (filling 0 to 1) and from y = 425 up to 20 (dark fraction 0 to 1).
SVG_SIZE = ("640", "480")
SVG_X0, SVG_X1, SVG_Y0, SVG_Y1 = 70.0, 620.0, 425.0, 20.0
SVG_LEGEND_X, SVG_LEGEND_Y0, SVG_LEGEND_DY = 530.0, 34.0, 16.0
SVG_PIXEL_TOL = 0.1  # circles and squares print their coordinates to 0.1 px


def _marker_centre(el) -> tuple[float, float] | None:
    """Centre of a marker element's bounding box; None for elements that are not markers."""
    tag = el.tag[len(SVG_NS):]
    if tag == "circle":
        return float(el.get("cx")), float(el.get("cy"))
    if tag == "rect" and el.get("fill") == "none":
        return (float(el.get("x")) + float(el.get("width")) / 2,
                float(el.get("y")) + float(el.get("height")) / 2)
    if tag == "polygon":
        coords = [float(v) for v in el.get("points").replace(",", " ").split()]
    elif tag == "path":
        coords = [float(v) for v in el.get("d").split() if v not in ("M", "L")]
    else:
        return None
    xs, ys = coords[0::2], coords[1::2]
    return (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2


def _check_sweep_svg(a, text, problems, facts):
    n_list = sorted(set(int(tok) for tok in a["n-list"].split(",")))
    root = ET.fromstring(text)
    if root.tag != SVG_NS + "svg" or (root.get("width"), root.get("height")) != SVG_SIZE:
        problems.append(f"root element {root.tag} {root.attrib}, expected a 640x480 svg")
        return
    labels = {el.text for el in root.iter(SVG_NS + "text")}
    missing = [n for n in n_list if f"N = {n}" not in labels]
    if missing:
        problems.append(f"legend lacks N = {missing}")
    # per N in ascending order: one marker per s = 0..N at (s/N, n_dark/C(N,s)),
    # then the legend marker
    want = []
    for i, n in enumerate(n_list):
        want += [(SVG_X0 + s / n * (SVG_X1 - SVG_X0),
                  SVG_Y0 + dark_count(n, s) / comb(n, s) * (SVG_Y1 - SVG_Y0))
                 for s in range(n + 1)]
        want.append((SVG_LEGEND_X, SVG_LEGEND_Y0 + SVG_LEGEND_DY * i))
    got = [c for c in map(_marker_centre, root.iter()) if c is not None]
    facts["svg_markers"] = len(got)
    if len(got) != len(want):
        problems.append(f"{len(got)} markers, expected {len(want)}")
        return
    off = max(max(abs(gx - wx), abs(gy - wy)) for (gx, gy), (wx, wy) in zip(got, want))
    facts["svg_marker_offset_px"] = off
    if off > SVG_PIXEL_TOL:
        problems.append(f"a marker sits {off:.2f} px from its (s/N, dark fraction) point")


def _check_protocol(a, data, problems, facts):
    n, s = int(a["n"]), int(a["s"])
    want = dark_count(n, s)
    d = data["d_of_s"]
    facts["d_of_s"] = d
    facts["d_dev"] = abs(d - want)
    if data["n_dark_expected"] != want or not _close(d, want, 1e-8):
        problems.append(f"D(s) = {d!r}, expected {want}")
    rows = data["per_arrangement"]
    wanted_rows = [format(m, f"0{n}b") for m in sector_states(n, s)]
    if [r["arrangement"] for r in rows] != wanted_rows:
        problems.append("arrangements are not the canonical s-sector list")
    probs = [r["null_probability"] for r in rows]
    if any(not -1e-9 <= p <= 1 + 1e-9 for p in probs):
        problems.append("a null-emission probability lies outside [0, 1]")
    if not _close(sum(probs), d, 1e-9 * max(1, len(probs))):
        problems.append(f"per-arrangement sum {sum(probs)!r} != D(s) {d!r}")


def _check_montecarlo(a, data, problems, facts):
    n, s = int(a["n"]), int(a["s"])
    want = dark_count(n, s)
    se = data["standard_error"]
    dev = abs(data["estimated_d"] - want)
    facts["mc_z"] = dev / se if se > 0 else (0.0 if dev == 0 else float("inf"))
    facts["d_dev"] = abs(data["exact_d"] - want)
    if data["n_dark"] != want or not _close(data["exact_d"], want, 1e-8):
        problems.append(f"exact D(s) {data['exact_d']!r}, expected {want}")
    if data["trials_per_arrangement"] != int(a["trials"]):
        problems.append(f"trials {data['trials_per_arrangement']}, asked for {a['trials']}")
    if dev > max(5.0 * se, 1e-9):
        problems.append(f"estimate {data['estimated_d']!r} is {facts['mc_z']:.2f} SE from {want}")


def _check_darkbasis(a, data, problems, facts):
    n, s = int(a["n"]), int(a["s"])
    want = dark_count(n, s)
    facts["nullity"] = data["nullity"]
    if data["nullity"] != want or data["formula"] != want:
        problems.append(f"nullity {data['nullity']}, expected {want}")
    if not _close(data["checks"]["trace"], want, 1e-9 * max(1, want)):
        problems.append(f"projector trace {data['checks']['trace']!r}, expected {want}")
    basis = np.asarray(data["basis"], dtype=np.float64).reshape(len(data["basis"]), -1, 2)
    basis = basis[..., 0] + 1j * basis[..., 1]
    if basis.shape != (want, comb(n, s)):
        problems.append(f"basis shape {basis.shape}, expected {(want, comb(n, s))}")
        return
    ortho = float(np.abs(basis @ basis.conj().T - np.eye(want)).max()) if want else 0.0
    lower = lowering_matrix(data["profile"]["couplings"], s)
    residual = float(np.linalg.norm(lower @ basis.T, axis=0).max()) if want else 0.0
    scale = float(np.linalg.norm(lower))
    facts.update(orthonormality_dev=ortho, max_residual_over_norm=residual / scale)
    if ortho > 1e-10:
        problems.append(f"basis is not orthonormal (max dev {ortho:.2e})")
    if residual > 1e-9 * scale:
        problems.append(f"a basis state is not annihilated (residual {residual:.2e})")
    diag = np.asarray(data["projector_diagonal"])
    if diag.shape != (comb(n, s),) or np.abs(diag - (np.abs(basis) ** 2).sum(0)).max() > 1e-12:
        problems.append("projector diagonal does not match the basis")


def _dark_weight(couplings, s: int, initial: int) -> float:
    """<initial|P_dark|initial> from the benchmark's own SVD of the lowering block."""
    n = len(couplings)
    _, _, vh = np.linalg.svd(lowering_matrix(couplings, s))
    null = vh[generic_rank(n, s):]
    k = sector_states(n, s).index(initial)
    return float((np.abs(null[:, k]) ** 2).sum())


def no_click_probability(couplings, s: int, initial: int, kappa: float, t: float) -> float:
    """Squared norm at time t of the no-jump state started in |initial> (x) |0 photons>.

    The benchmark builds the effective Hamiltonian sum_j (g_j* S_j^+ a + g_j S_j^- a^dag)
    - (i kappa / 2) a^dag a itself, on the excitation-s block only (states
    |q, k> with popcount(q) + k = s; omega is a constant there and drops
    out), and takes the exact exponential.  A trajectory stays dark until its
    uniform variate exceeds this norm, so it is the mean of p_no_click.
    """
    g = [complex(re, im) for re, im in couplings]
    n = len(g)
    index = {(q, k): i for i, (q, k) in enumerate(
        (q, k) for k in range(s + 1) for q in sector_states(n, s - k))}
    h = np.zeros((len(index), len(index)), dtype=np.complex128)
    for (q, k), col in index.items():
        h[col, col] = -0.5j * kappa * k
        for i in range(n):
            if q >> i & 1:
                row = index[(q ^ (1 << i), k + 1)]
                h[row, col] = g[i] * np.sqrt(k + 1)
                h[col, row] = np.conj(g[i]) * np.sqrt(k + 1)
    psi = scipy.linalg.expm(-1j * t * h)[:, index[(initial, 0)]]
    return float(np.vdot(psi, psi).real)


def _check_clicks(block, n_traj, want, problems, facts):
    """Click counts add up, and p_no_click lies within 5 SE (plus one trajectory) of want."""
    if block["n_no_click"] + block["n_click"] != n_traj:
        problems.append("click counts do not add up to the trajectory count")
    if block["p_no_click"] != block["n_no_click"] / n_traj:
        problems.append("p_no_click is not n_no_click / n_trajectories")
    se = np.sqrt(want * (1.0 - want) / n_traj)
    z = abs(block["p_no_click"] - want) / se if se > 0 else 0.0
    facts["traj_z"] = max(facts.get("traj_z", 0.0), z)
    if abs(block["p_no_click"] - want) > 5.0 * se + 1.0 / n_traj:
        problems.append(f"p_no_click {block['p_no_click']!r} at kappa {block['kappa']!r} is "
                        f"{z:.1f} SE from the exact no-jump norm {want!r}")


def _check_trajectory(a, data, problems, facts):
    s = int(a["s"])
    initial = int(data["initial"], 2)
    if initial.bit_count() != s:
        problems.append(f"initial arrangement {data['initial']} is not in the s-sector")
        return
    couplings = data["profile"]["couplings"]
    weight = _dark_weight(couplings, s, initial)
    got = data["projector_expectation"]
    facts["projector_expectation"] = got
    if not _close(got, weight, 1e-8):
        problems.append(f"projector expectation {got!r}, benchmark computes {weight!r}")
    n_traj = data["n_trajectories"]
    for block in data.get("kappa_sweep", [data]):
        want = no_click_probability(couplings, s, initial, block["kappa"], data["t_max"])
        _check_clicks(block, n_traj, want, problems, facts)
    if "kappa_sweep" in data:
        return
    dev = abs(data["p_no_click"] - got)
    facts["traj_dev"] = dev
    if not _close(data["deviation_from_projector"], dev, 1e-12):
        problems.append("deviation_from_projector does not match p_no_click")
    # the CLI's own guarantee; none of the workload's operations meets its
    # horizon condition, so the exact check above is the one that binds
    if data["waiting_time_sufficient"] and dev > data["tolerance"]:
        problems.append(f"p_no_click off the projector by {dev:.4f} > {data['tolerance']:.4f}")


JSON_CHECKS = {
    "count": _check_count,
    "rank": _check_rank,
    "protocol": _check_protocol,
    "montecarlo": _check_montecarlo,
    "darkbasis": _check_darkbasis,
    "trajectory": _check_trajectory,
}


def check(argv, stdout: str) -> tuple[list[str], dict]:
    """Problems with a successful operation's output, and the facts it reported."""
    problems: list[str] = []
    facts: dict = {}
    a = flags(argv)
    if argv[0] == "sweep" and a.get("format") == "svg":
        _check_sweep_svg(a, stdout, problems, facts)
        return problems, facts
    payload = json.loads(stdout)
    if payload["command"] != argv[0]:
        problems.append(f"output is for command {payload['command']!r}")
    JSON_CHECKS[argv[0]](a, payload["data"], problems, facts)
    return problems, facts


# Return values of the counting routes, kept so that a refused `count` or
# `rank` still records what each method computed: function -> (label, value).
PROBED = {
    "darkspace.dark_subspace": ("svd_nullity", lambda sub: sub.nullity),
    "counting.count_dark_uniform_oracle": ("oracle_count", int),
    "darkspace.rank_exact_modp": ("modp_rank", int),
    "darkspace.rank_numeric": ("svd_rank", int),
}


def install_probes(sink: list) -> None:
    """Record each probed route's value in ``sink`` whenever it is called."""

    def probe(fn, label, value_of):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append([label, value_of(result)])
            return result

        return probed

    for name, (label, value_of) in PROBED.items():
        rebind(name, functools.partial(probe, label=label, value_of=value_of))


def expected_values(argv) -> dict:
    """The dark count and generic rank an operation on one (N, s) sector should report."""
    a = flags(argv)
    if "n" not in a or "s" not in a:
        return {}
    n, s = int(a["n"]), int(a["s"])
    return {"dark_count": dark_count(n, s), "generic_rank": generic_rank(n, s)}


def rank_margin(op, tol_policy) -> float:
    """Smallest singular value the SVD route must keep, over its cutoff.

    Below 1 the numeric route drops part of the generic rank and reports a
    false dark count.  Singular values come from the benchmark's own
    ``svdvals`` of the block; the cutoff is the package's policy.
    """
    sv = scipy.linalg.svdvals(op.matrix.toarray())
    n, s = op.source.n_qubits, op.source.n_excited
    return float(sv[generic_rank(n, s) - 1] / tol_policy.cutoff(float(sv[0]), op.shape))
