"""Seeded inputs, operations and correctness checks for the benchmark.

Inputs come from ``random.Random`` keyed by (workload, seed, stream), so the
same seed always yields the same operations.  Each operation calls lgsim
through module attributes looked up at call time (``lgsim.sweep``, never a
name bound at import), so the wrappers of ``tracing.Tracer`` see every call.
Reference values are computed here with numpy alone and never call lgsim;
the Heisenberg-picture oracle that ``point-checks`` compares the circuit
against is itself checked against them.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np

TWO_PI = 2.0 * math.pi
SWEEP_STEPS = 721

K_TOL = 1e-9            # swept or printed K against the closed form
CORR_TOL = 1e-10        # circuit correlator against the oracle
MIXED_DIST_TOL = 1e-12  # disturbance of I/2
DIST_TOL = 1e-10        # disturbance of a pure state against the reference
NOISY_TOL = 1e-9        # k_noisy against exp(-duration/t2_probe) * k_ideal
TOMO_TOL = 1e-12        # fidelity against the reference
EDGE_TOL = 1e-8         # violation interval endpoints (bisection stops at 1e-9)
TANGENT_EDGE_TOL = 1e-7  # endpoints where K touches 1 (see violation_ref)
PRINT_TOL = 1e-9        # values printed by the CLI with 9 decimals

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (_I2, _SX, _SY, _SZ)


def stream(workload: str, seed: int, index: int) -> random.Random:
    """Generator for one worker's (or one client's) input stream."""
    return random.Random(f"{workload}/{seed}/{index}")


# --------------------------------------------------------------------------
# numpy-only references


def k_closed_form(theta: float) -> float:
    return 2.0 * math.cos(theta) - math.cos(2.0 * theta)


def _evolution(h: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i * angle * h) through numpy's Hermitian eigensolver."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


def correlator_ref(rho, obs, omega, t_k, t_m) -> float:
    """Re Tr[rho O(t_m) O(t_k)] with O(t) = exp(iHt) O exp(-iHt), H = omega sx."""
    h = omega * _SX

    def heis(t):
        u = _evolution(h, t)
        return u.conj().T @ obs @ u

    return float(np.trace(rho @ heis(t_m) @ heis(t_k)).real)


def disturbance_ref(rho, obs, h, theta_k, theta_m) -> float:
    """Trace distance between the system state after the scattering circuit
    and before it.

    Whatever the probe polarization, the first Hadamard leaves the probe with
    equal populations, so the system ends in the equal mixture of its two
    interferometer-arm evolutions V0 = U2 U1 and V1 = O U2 O U1.
    """
    u1 = _evolution(h, theta_k)
    u2 = _evolution(h, theta_m - theta_k)
    v0 = u2 @ u1
    v1 = obs @ u2 @ obs @ u1
    out = 0.5 * (v0 @ rho @ v0.conj().T + v1 @ rho @ v1.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(out - rho))))


def tomography_ref(rho, sigma: float, seed: int):
    """(coefficients, fidelity) of the Pauli tomography model.

    Noise on coefficient (i, j) != (0, 0) is sigma times one standard normal
    from a generator keyed by (seed, i, j), as the lgsim model documents.
    """
    c = np.empty((4, 4))
    for i, left in enumerate(_PAULIS):
        for j, right in enumerate(_PAULIS):
            c[i, j] = np.trace(rho @ np.kron(left, right)).real
            if sigma > 0.0 and (i, j) != (0, 0):
                c[i, j] += sigma * np.random.default_rng((seed, i, j)).standard_normal()
    rho_hat = sum(
        c[i, j] * np.kron(left, right)
        for i, left in enumerate(_PAULIS)
        for j, right in enumerate(_PAULIS)
    ) / 4.0
    eye = np.eye(4) / 4.0
    measured, ideal = rho_hat - eye, rho - eye
    fid = np.trace(measured @ ideal).real / math.sqrt(
        np.trace(measured @ measured).real * np.trace(ideal @ ideal).real
    )
    return c, float(fid)


def violation_ref(thetas, ks, threshold=1.0, guard=1e-12):
    """Expected ``find_violations`` intervals for swept values ``ks``.

    Grid membership follows the documented rule K > threshold + guard on the
    swept values.  An interior endpoint is the point where the closed form
    2 cos(t) - cos(2t) crosses 1 (cos t = 0 or cos t = 1) between the last
    point outside and the first point inside; when no crossing lies in that
    bracket the closed form already exceeds 1 at the outside point, which is
    then the endpoint.

    Returns ``(lo, hi, tolerance)`` triples.  At a tangent crossing
    (cos t = 1) K - 1 grows like (t - t0)^2, so double precision resolves the
    endpoint only to about sqrt(2.2e-16) = 1.5e-8 and the tolerance widens.
    """
    n = len(thetas)
    above = [k > threshold + guard for k in ks]
    intervals = []
    i = 0
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and above[j + 1]:
            j += 1
        lo, lo_tol = (thetas[i], EDGE_TOL) if i == 0 else _crossing(thetas[i - 1], thetas[i])
        hi, hi_tol = (thetas[j], EDGE_TOL) if j == n - 1 else _crossing(thetas[j + 1], thetas[j])
        intervals.append((lo, hi, max(lo_tol, hi_tol)))
        i = j + 1
    return intervals


def _crossing(outside: float, inside: float) -> tuple[float, float]:
    a, b = min(outside, inside), max(outside, inside)
    found = [
        (x, tol)
        for step, offset, tol in ((math.pi, math.pi / 2.0, EDGE_TOL),
                                  (TWO_PI, 0.0, TANGENT_EDGE_TOL))
        for x in (offset + step * k for k in range(
            math.ceil((a - offset) / step), math.floor((b - offset) / step) + 1
        ))
    ]
    return found[0] if len(found) == 1 else (outside, EDGE_TOL)


# --------------------------------------------------------------------------
# shared input draws


def _theta_range(rng: random.Random) -> tuple[float, float]:
    """The paper's full [0, 2 pi] one time in four, else a sub-interval."""
    if rng.random() < 0.25:
        return 0.0, TWO_PI
    width = rng.uniform(0.5, TWO_PI)
    lo = rng.uniform(0.0, TWO_PI - width)
    return lo, lo + width


def _unit_vector(rng: random.Random) -> np.ndarray:
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, TWO_PI)
    s = math.sqrt(1.0 - z * z)
    return np.array([s * math.cos(phi), s * math.sin(phi), z])


def _bloch(vec) -> np.ndarray:
    return vec[0] * _SX + vec[1] * _SY + vec[2] * _SZ


def _random_density(rng: random.Random) -> np.ndarray:
    r = rng.random() ** (1.0 / 3.0)
    return (_I2 + r * _bloch(_unit_vector(rng))) / 2.0


def _random_ket(rng: random.Random) -> np.ndarray:
    theta = math.acos(rng.uniform(-1.0, 1.0))
    phi = rng.uniform(0.0, TWO_PI)
    return np.array([math.cos(theta / 2.0),
                     complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)])


# --------------------------------------------------------------------------
# sweep-grid


def sweep_input(rng: random.Random) -> dict:
    theta_min, theta_max = _theta_range(rng)
    return {
        "kind": "sweep",
        "eps": rng.uniform(0.05, 1.0),
        "p0": rng.random(),
        "ket": rng.randrange(2),
        "theta_min": theta_min,
        "theta_max": theta_max,
    }


def run_sweep(lgsim, op):
    rho = lgsim.classical_mixture(op["p0"], 1.0 - op["p0"])
    obs = lgsim.observable_from_state(lgsim.KET1 if op["ket"] else lgsim.KET0)
    results = lgsim.sweep(lgsim.Evolution(1.0), rho, op["eps"], op["theta_min"],
                          op["theta_max"], SWEEP_STEPS, obs)
    return results, lgsim.find_violations(results)


def check_sweep(op, out) -> str | None:
    results, intervals = out
    grid = np.linspace(op["theta_min"], op["theta_max"], SWEEP_STEPS)
    if len(results) != SWEEP_STEPS:
        return f"sweep returned {len(results)} points, expected {SWEEP_STEPS}"
    err = max(abs(r.k - k_closed_form(float(g))) for r, g in zip(results, grid))
    if err > K_TOL:
        return f"max |K - analytic| = {err:.3e} > {K_TOL:g}"
    drift = max(abs(r.theta - float(g)) for r, g in zip(results, grid))
    if drift > 1e-12:
        return f"sweep theta grid is off by {drift:.3e}"
    expected = violation_ref([r.theta for r in results], [r.k for r in results])
    if len(intervals) != len(expected):
        return f"{len(intervals)} violation intervals, expected {len(expected)}"
    for got, (lo, hi, tol) in zip(intervals, expected):
        if max(abs(got[0] - lo), abs(got[1] - hi)) > tol:
            return f"violation interval {got} differs from {(lo, hi)}"
    return None


# --------------------------------------------------------------------------
# point-checks

# Fixed proportions: each block of ten operations has this mix.
POINT_CYCLE = (
    "correlator", "k_value", "correlator", "disturbance_mixed", "correlator",
    "attenuation", "correlator", "k_value", "disturbance_pure", "tomography",
)


def point_input(rng: random.Random, index: int) -> dict:
    kind = POINT_CYCLE[index % len(POINT_CYCLE)]
    op = {"kind": kind, "eps": rng.uniform(0.05, 1.0)}
    if kind in ("correlator", "k_value"):
        op["prepared"] = kind == "correlator" and rng.random() < 0.25
        op["n_phases"] = rng.randrange(2, 17)
        op["rho"] = _I2 / 2.0 if op["prepared"] else _random_density(rng)
        op["obs"] = _bloch(_unit_vector(rng))
        # The circuit route runs at omega = 1: away from it
        # correlation_circuit applies omega^2 t (README, "Known defect"), and
        # the workload must hold only ops that pass.  The oracle is also run
        # at a drawn omega, so arbitrary drives still reach it.
        op["omega"] = 1.0
        op["omega_oracle"] = rng.uniform(0.25, 4.0)
        if kind == "correlator":
            op["times"] = tuple(sorted((rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0))))
        else:
            op["t1"] = rng.uniform(0.0, 2.0)
            op["dt"] = rng.uniform(0.0, 1.5)
    elif kind.startswith("disturbance"):
        op["omega"] = rng.uniform(0.25, 4.0)
        op["obs"] = _bloch(_unit_vector(rng))
        op["phases"] = tuple(sorted((rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0))))
        if kind == "disturbance_pure":
            op["ket"] = _random_ket(rng)
    elif kind == "attenuation":
        op["theta"] = rng.uniform(0.0, TWO_PI)
        op["t2"] = (rng.uniform(0.5, 5.0), rng.uniform(0.1, 2.0), rng.uniform(0.0, 0.05))
    else:
        op["sigma"] = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 0.05)
        op["seed"] = rng.randrange(2**31)
    return op


def run_point(lgsim, op):
    kind = op["kind"]
    if kind in ("correlator", "k_value"):
        if op["prepared"]:
            rho = lgsim.gradient_dephase_prepare(op["n_phases"])
        else:
            rho = lgsim.density(op["rho"])
        obs = lgsim.dichotomic_observable(op["obs"])
        evo = lgsim.Evolution(op["omega"])
        drawn = lgsim.Evolution(op["omega_oracle"])
        if kind == "correlator":
            t_k, t_m = op["times"]
            _, value = lgsim.correlation_circuit(rho, obs, evo, t_k, t_m, op["eps"])
            return (value, lgsim.correlation_oracle(rho, obs, evo, t_k, t_m),
                    lgsim.correlation_oracle(rho, obs, drawn, t_k, t_m))
        t1, dt = op["t1"], op["dt"]
        result = lgsim.k_value(rho, obs, evo, lgsim.Schedule(t1, t1 + dt, t1 + 2 * dt),
                               op["eps"])
        return (result.k, _oracle_k(lgsim, rho, obs, evo, t1, dt),
                _oracle_k(lgsim, rho, obs, drawn, t1, dt))
    if kind.startswith("disturbance"):
        if kind == "disturbance_mixed":
            rho = lgsim.maximally_mixed()
        else:
            rho = lgsim.pure_density(op["ket"])
        obs = lgsim.dichotomic_observable(op["obs"])
        circ = lgsim.build_scattering_circuit(op["omega"] * lgsim.SIGMA_X, obs, *op["phases"])
        out = lgsim.run(circ, lgsim.kron(lgsim.pseudo_pure(op["eps"], lgsim.KET0), rho))
        return lgsim.trace_distance(lgsim.partial_trace(out, "system"), rho)
    if kind == "attenuation":
        return lgsim.k_attenuation_check(lgsim.T2Config(*op["t2"]), op["theta"], op["eps"])
    return lgsim.tomography_fidelity_experiment(op["sigma"], op["seed"])


def _oracle_k(lgsim, rho, obs, evo, t1, dt) -> float:
    return (lgsim.correlation_oracle(rho, obs, evo, t1, t1 + dt)
            + lgsim.correlation_oracle(rho, obs, evo, t1 + dt, t1 + 2 * dt)
            - lgsim.correlation_oracle(rho, obs, evo, t1, t1 + 2 * dt))


def _k_ref(rho, obs, omega, t1, dt) -> float:
    return sum(sign * correlator_ref(rho, obs, omega, a, b)
               for sign, (a, b) in ((1, (t1, t1 + dt)), (1, (t1 + dt, t1 + 2 * dt)),
                                    (-1, (t1, t1 + 2 * dt))))


def check_point(op, out) -> str | None:
    kind = op["kind"]
    if kind == "correlator":
        value, oracle, drawn = out
        t_k, t_m = op["times"]
        ref = correlator_ref(op["rho"], op["obs"], op["omega"], t_k, t_m)
        drawn_ref = correlator_ref(op["rho"], op["obs"], op["omega_oracle"], t_k, t_m)
        return (_near("oracle", oracle, ref, CORR_TOL)
                or _near(f"oracle (omega={op['omega_oracle']:.3f})", drawn, drawn_ref,
                         CORR_TOL)
                or _near(f"circuit correlator (omega={op['omega']:.3f})",
                         value, oracle, CORR_TOL))
    if kind == "k_value":
        k, oracle, drawn = out
        t1, dt = op["t1"], op["dt"]
        return (_near("oracle K", oracle, _k_ref(op["rho"], op["obs"], op["omega"], t1, dt),
                      CORR_TOL)
                or _near(f"oracle K (omega={op['omega_oracle']:.3f})", drawn,
                         _k_ref(op["rho"], op["obs"], op["omega_oracle"], t1, dt), CORR_TOL)
                or _near(f"k_value (omega={op['omega']:.3f})", k, oracle, CORR_TOL))
    if kind == "disturbance_mixed":
        return None if out <= MIXED_DIST_TOL else (
            f"I/2 disturbance {out:.3e} > {MIXED_DIST_TOL:g}")
    if kind == "disturbance_pure":
        rho = np.outer(op["ket"], op["ket"].conj())
        ref = disturbance_ref(rho, op["obs"], op["omega"] * _SX, *op["phases"])
        return _near("pure-state disturbance", out, ref, DIST_TOL)
    if kind == "attenuation":
        k_ideal, k_noisy = out
        t2_probe, _, duration = op["t2"]
        return (_near("k_ideal", k_ideal, k_closed_form(op["theta"]), K_TOL)
                or _near("k_noisy", k_noisy, math.exp(-duration / t2_probe) * k_ideal,
                         NOISY_TOL))
    if op["sigma"] == 0.0:
        return None if out == 1.0 else f"noise-free fidelity {out!r} != 1"
    rho = np.kron(np.diag([1.0, 0.0]), _I2 / 2.0)
    _, ref = tomography_ref(rho, op["sigma"], op["seed"])
    return _near("fidelity", out, ref, TOMO_TOL)


def omega_defect_probe(lgsim, seed: int, cases: int = 10) -> dict:
    """Circuit correlators at drawn omega != 1 against the reference, untimed.

    Not part of any workload and not counted in ``failed``: it reports, in
    the run's record, how many of ``cases`` draws hit the known omega
    defect, so a fix shows as ``mismatched`` falling to 0.
    """
    rng = stream("omega-defect", seed, 0)
    mismatched, worst = 0, 0.0
    for _ in range(cases):
        rho, obs = _random_density(rng), _bloch(_unit_vector(rng))
        omega = rng.uniform(0.25, 4.0)
        t_k, t_m = sorted((rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)))
        _, value = lgsim.correlation_circuit(
            lgsim.density(rho), lgsim.dichotomic_observable(obs), lgsim.Evolution(omega),
            t_k, t_m, rng.uniform(0.05, 1.0))
        err = abs(value - correlator_ref(rho, obs, omega, t_k, t_m))
        mismatched += err > CORR_TOL
        worst = max(worst, err)
    return {"cases": cases, "mismatched": mismatched, "max_error": worst}


def _near(what: str, got: float, want: float, tol: float) -> str | None:
    if abs(got - want) <= tol:
        return None
    return f"{what}: {got!r} vs {want!r} (tolerance {tol:g})"


# --------------------------------------------------------------------------
# cli

# One rotation; long (sweep-type) and short invocations alternate.
CLI_ROTATION = (
    "sweep-csv", "noninvasive-check", "sweep-json", "tomography",
    "sweep-svg", "noise-check", "correlations-csv",
)
CLI_SWEEP_SLOTS = frozenset({"sweep-csv", "sweep-json", "sweep-svg", "correlations-csv"})
CLI_VARIANTS = 2  # each slot repeats one of two argument sets per seed


def cli_variants(seed: int) -> dict[tuple[str, int], dict]:
    """Argument sets keyed by (slot, variant)."""
    rng = stream("cli", seed, 0)
    out = {}
    for variant in range(CLI_VARIANTS):
        for slot in CLI_ROTATION:
            command, _, fmt = slot.partition("-")
            if slot in CLI_SWEEP_SLOTS:
                p0 = round(rng.random(), 6)
                theta_min, theta_max = _theta_range(rng)
                params = {"p0": p0, "eps": rng.uniform(0.05, 1.0),
                          "theta_min": theta_min, "theta_max": theta_max}
                args = [command, "--format", fmt,
                        "--populations", f"{p0!r},{round(1.0 - p0, 6)!r}",
                        "--epsilon", repr(params["eps"]),
                        "--theta-min", repr(theta_min), "--theta-max", repr(theta_max)]
            elif slot == "noninvasive-check":
                params = {"eps": rng.uniform(0.05, 1.0), "theta_max": rng.uniform(1.0, TWO_PI)}
                args = [slot, "--epsilon", repr(params["eps"]),
                        "--theta-max", repr(params["theta_max"])]
            elif slot == "tomography":
                params = {"eps": rng.uniform(0.05, 1.0), "seed": rng.randrange(2**31)}
                args = [slot, "--noise-sigma", "0.03", "--seed", str(params["seed"]),
                        "--epsilon", repr(params["eps"])]
            else:
                params = {"t2_probe": rng.uniform(0.5, 5.0), "t2_system": rng.uniform(0.1, 2.0),
                          "duration": rng.uniform(0.0, 0.05), "eps": rng.uniform(0.05, 1.0)}
                args = [slot, "--t2-probe", repr(params["t2_probe"]),
                        "--t2-system", repr(params["t2_system"]),
                        "--duration", repr(params["duration"]),
                        "--epsilon", repr(params["eps"])]
            out[(slot, variant)] = {"slot": slot, "args": args, "params": params,
                                    "ext": fmt if slot in CLI_SWEEP_SLOTS else "csv"}
    return out


def _csv_rows(text: str) -> list[list[str]]:
    lines = text.strip("\n").split("\n")
    return [line.split(",") for line in lines]


def check_cli(inv: dict, data: bytes) -> str | None:
    """Check one CLI output file against the references."""
    slot, p = inv["slot"], inv["params"]
    text = data.decode("utf-8")
    if slot in CLI_SWEEP_SLOTS:
        grid = np.linspace(p["theta_min"], p["theta_max"], SWEEP_STEPS)
        if slot == "sweep-svg":
            if not text.startswith("<svg") or text.count('class="curve"') != 1:
                return "svg output lacks its single K curve"
            points = text.split('class="curve"', 1)[1].split('points="', 1)[1].split('"', 1)[0]
            n = len(points.split())
            return None if n == SWEEP_STEPS else f"svg curve has {n} points"
        if slot == "sweep-json":
            import json
            rows = json.loads(text)["rows"]
            ks = [row["k"] for row in rows]
        else:
            table = _csv_rows(text)
            header, body = table[0], table[1:]
            cols = {name: [float(r[i]) for r in body] for i, name in enumerate(header)}
            if slot == "correlations-csv":
                if len(body) != SWEEP_STEPS:
                    return f"{len(body)} rows, expected {SWEEP_STEPS}"
                err = max(
                    max(abs(c12 - math.cos(g)), abs(c23 - math.cos(g)),
                        abs(c13 - math.cos(2.0 * g)))
                    for c12, c23, c13, g in zip(cols["c12"], cols["c23"], cols["c13"], grid)
                )
                return None if err <= PRINT_TOL else f"max correlator error {err:.3e}"
            ks = cols["k"]
        if len(ks) != SWEEP_STEPS:
            return f"{len(ks)} rows, expected {SWEEP_STEPS}"
        err = max(abs(k - k_closed_form(float(g))) for k, g in zip(ks, grid))
        return None if err <= K_TOL else f"max |K - analytic| = {err:.3e}"

    body = _csv_rows(text)[1:]
    rows = {r[0]: [float(v) for v in r[1:]] for r in body}
    if slot == "noninvasive-check":
        mixed = rows["mixed"][0]
        if mixed > MIXED_DIST_TOL:
            return f"I/2 disturbance {mixed!r} > {MIXED_DIST_TOL:g}"
        rho = np.diag([1.0, 0.0]).astype(complex)
        phases = np.linspace(0.0, p["theta_max"] / 2.0, 5)
        ref = max(disturbance_ref(rho, _SZ, _SX, float(min(a, b)), float(max(a, b)))
                  for a in phases for b in phases)
        return _near("pure_zero disturbance", rows["pure_zero"][0], ref, PRINT_TOL)
    if slot == "tomography":
        eps = p["eps"]
        probe = np.diag([(1.0 + eps) / 2.0, (1.0 - eps) / 2.0])
        coeffs, fid = tomography_ref(np.kron(probe, _I2 / 2.0), 0.03, p["seed"])
        labels = "Ixyz"
        err = max(abs(rows[f"c_{labels[i]}{labels[j]}"][0] - coeffs[i, j])
                  for i in range(4) for j in range(4))
        if err > PRINT_TOL:
            return f"tomography coefficients off by {err:.3e}"
        return _near("tomography fidelity", rows["fidelity"][0], fid, PRINT_TOL)
    theta, k_ideal, k_noisy, ratio = (float(v) for v in body[0])
    factor = math.exp(-p["duration"] / p["t2_probe"])
    return (_near("noise-check theta", theta, math.pi / 3.0, PRINT_TOL)
            or _near("k_ideal", k_ideal, k_closed_form(math.pi / 3.0), PRINT_TOL)
            or _near("k_noisy", k_noisy, factor * k_closed_form(math.pi / 3.0), PRINT_TOL)
            or _near("ratio", ratio, factor, PRINT_TOL))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
