"""Seeded inputs and output checks of the three workloads.

Each workload turns a seed into a fixed pool of CLI argument lists and the
order in which they run (``plan``).  The program sees only those lists.
The checks run after the timed loop, on the captured output of each case,
and are independent of the library: the exact ladder and the wavefunction
reference are written out here from the closed forms, the latter evaluated
in 50-digit mpmath arithmetic.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

# The forward-parameter box the test suite samples.
BOX = {"omega_bar": (0.2, 4.0), "rho_q": (0.1, 3.0), "d": (0.2, 3.0)}

# Frozen feasible (omega, alpha, beta) triples, copied from tests/conftest.py.
FEASIBLE_TRIPLES = [
    (0.0375710788598238, -2.4421921617411186, 0.8317834733059061),
    (-0.04972304300243702, -0.44820697619758043, 0.11360053437380646),
    (-0.2598833450661626, 0.7390455133687768, -3.116496031644873),
    (-1.4295989748215783, -3.1741300961429753, 0.6827385366812224),
    (0.43525445662819795, 0.3009118010171472, -1.9386463668915057),
]

# Identity ids that only inverse-mode reports carry.
INVERSE_ONLY = {"similarity_first_order", "partner_similarity",
                "metric_intertwining"}

SWEEP_LEVEL_TOL = 1e-5
SWEEP_RESIDUAL_TOL = 1e-10
WAVE_TOL = 1e-8
WAVE_N_MAX = 40
WAVE_Z_POINTS = 64
WAVE_DPS = 50


# Seconds one unit of work takes at commit 3193ca8, scaled to the reference
# host of run.py: a verify case, a swept value, a wavefunctions case.  They
# only size a run, so that its fixed number of cases lasts about --seconds.
UNIT_S = {"verify": 6.0, "sweep": 2.8, "wavefunctions": 0.021}
SWEEP_STEPS = (3, 2, 4)
WAVE_BLOCKS = 1


@dataclass
class Case:
    argv: list[str]
    items: int
    meta: dict = field(default_factory=dict)


@dataclass
class Verdict:
    problem: str | None = None
    fd_rel_err: float | None = None


# ---------------------------------------------------------------------------
# inputs


def _point(rng) -> dict:
    return {k: float(rng.uniform(*BOX[k])) for k in ("omega_bar", "rho_q", "d")}


def _point_flags(p: dict) -> list[str]:
    return ["--omega-bar", repr(p["omega_bar"]), "--rho-q", repr(p["rho_q"]),
            "--d", repr(p["d"])]


def verify_pool(rng, size: int) -> list[Case]:
    """Blocks of five cases, forward, forward, inverse, forward, forward:
    four points of the box and one of the frozen inverse triples."""
    cases = []
    while len(cases) < size:
        if len(cases) % 5 == 2:
            om, al, be = FEASIBLE_TRIPLES[int(rng.integers(5))]
            argv = ["verify", "--mode", "inverse", "--omega", repr(om),
                    "--alpha", repr(al), "--beta", repr(be)]
            cases.append(Case(argv, 1, {"mode": "inverse"}))
        else:
            cases.append(Case(["verify"] + _point_flags(_point(rng)), 1,
                              {"mode": "forward"}))
    return cases


def sweep_case(rng, steps: int) -> Case:
    param = str(rng.choice(sorted(BOX)))
    p = _point(rng)
    lo, hi = sorted(float(v) for v in rng.uniform(*BOX[param], size=2))
    argv = (["sweep"] + _point_flags(p)
            + ["--param", param, "--range", f"{lo!r}:{hi!r}",
               "--steps", str(steps)])
    return Case(argv, steps, {"point": p, "param": param, "lo": lo, "hi": hi,
                              "steps": steps})


def wavefunction_pool(rng, blocks: int = WAVE_BLOCKS) -> list[Case]:
    """Blocks holding every (side, n) pair once, n from 0 to 40, in seeded
    order, each at its own forward point.

    Every n is equally frequent on every seed; the high states where the
    Kummer sum loses accuracy are as common as the low ones.
    """
    pairs = [(side, n) for side in ("plus", "minus")
             for n in range(WAVE_N_MAX + 1)]
    cases = []
    for _ in range(blocks):
        for idx in rng.permutation(len(pairs)):
            side, n = pairs[int(idx)]
            p = _point(rng)
            zs = state_grid(p, n)
            argv = (["wavefunctions", "--format", "csv"] + _point_flags(p)
                    + ["--side", side, "--n-list", str(n),
                       "--z-grid", ",".join(repr(z) for z in zs)])
            cases.append(Case(argv, len(zs), {"point": p, "side": side,
                                              "n": n, "zs": zs}))
    return cases


def plan(workload: str, rng, seconds: float) -> tuple[list[Case], list[int]]:
    """(pool, order): the seeded cases and the pool index of each case run.

    The number of cases depends on the workload and ``seconds`` only, never
    on how fast they run, so two runs with one seed attempt the same cases.
    Case 0 always runs at least twice and every later run of a case must
    repeat its first one byte for byte.

    - verify: ``seconds / 6`` cases, rounded up (at least 2): case 0,
      case 0 again, then cases 1, 2, ...; case 2 of every five is an
      inverse one.
    - sweep: case 0 (3 steps) twice, then 2, 4, 3, ... steps while the
      swept values stay within ``seconds / 2.8``.
    - wavefunctions: 82 cases, one of each (side, n), run as a whole in
      each of ``seconds / (82 * 0.021)`` passes (at least 2).
    """
    unit = UNIT_S[workload]
    if workload == "verify":
        count = max(2, math.ceil(seconds / unit))
        return verify_pool(rng, count - 1), [0] + list(range(count - 1))
    if workload == "sweep":
        pool, order, points = [], [], 0
        while True:
            steps = SWEEP_STEPS[len(pool) % len(SWEEP_STEPS)]
            runs = 1 if pool else 2
            if pool and (points + steps) * unit > seconds:
                return pool, order
            order += [len(pool)] * runs
            points += steps * runs
            pool.append(sweep_case(rng, steps))
    pool = wavefunction_pool(rng)
    passes = max(2, round(seconds / (len(pool) * unit)))
    return pool, list(range(len(pool))) * passes


def _omega_hat_gamma(p: dict) -> tuple[float, float]:
    sw = math.sqrt(p["omega_bar"])
    return (p["d"] * sw / 2 * (2 * p["rho_q"] + 3 * sw),
            p["rho_q"] / sw + 1.5)


def state_grid(p: dict, n: int) -> list[float]:
    """64 points from near 0 to a few decay lengths past the turning point
    of level n, which sits at omega_hat z^2 ~ 4n + 2 gamma."""
    oh, g = _omega_hat_gamma(p)
    z_max = math.sqrt((4 * n + 2 * g + 12) / oh)
    return [z_max * k / WAVE_Z_POINTS for k in range(1, WAVE_Z_POINTS + 1)]


def exact_ladder(p: dict, levels: int) -> list[float]:
    """E_n = 2 omega_hat (2n + 2 rho_q / sqrt(omega_bar) + 5)."""
    oh, g = _omega_hat_gamma(p)
    return [2 * oh * (2 * n + 2 * g + 2) for n in range(levels)]


# ---------------------------------------------------------------------------
# checks


def check(workload: str, case: Case, rc: int, out: str,
          default_tols: dict) -> Verdict:
    """Check one case's exit code and output; never raises."""
    try:
        if workload == "verify":
            return _check_verify(case, rc, out, default_tols)
        if workload == "sweep":
            return _check_sweep(case, rc, out)
        return _check_wavefunctions(case, rc, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Verdict(f"unreadable output: {type(exc).__name__}: {exc}")


def _check_verify(case, rc, out, default_tols) -> Verdict:
    doc = json.loads(out)
    verdict = Verdict()
    entries = doc["identities"]
    by_id = {e["id"]: e for e in entries}
    fd = [float(by_id[k]["residual"]) for k in ("fd_spectrum_plus",
                                                 "isospectrality")
          if k in by_id]
    verdict.fd_rel_err = max(fd) if fd else None
    expected = set(default_tols)
    if case.meta["mode"] == "forward":
        expected -= INVERSE_ONLY
    failing = [e["id"] for e in entries if e["status"] != "PASS"]
    if len(by_id) != len(entries) or set(by_id) != expected:
        verdict.problem = "identity ids differ from DEFAULT_TOLS"
    elif failing or rc != 0:
        verdict.problem = f"exit code {rc}, not PASS: {','.join(failing)}"
    return verdict


def _check_sweep(case, rc, out) -> Verdict:
    m = case.meta
    rows = list(csv.reader(io.StringIO(out)))
    header, rows = rows[0], rows[1:]
    verdict = Verdict()
    if rc != 0:
        verdict.problem = f"exit code {rc}"
        return verdict
    if header[0] != m["param"] or header[-1] != "status":
        verdict.problem = f"unexpected header {header}"
        return verdict
    values = np.linspace(m["lo"], m["hi"], m["steps"])
    if len(rows) != len(values):
        verdict.problem = f"{len(rows)} rows for {len(values)} steps"
        return verdict
    worst = 0.0
    for value, row in zip(values, rows):
        if row[-1] != "ok":
            verdict.problem = f"row status {row[-1]} at {m['param']}={value}"
            return verdict
        if float(row[0]) != float(value):
            verdict.problem = f"swept value {row[0]} != {value!r}"
            return verdict
        p = dict(m["point"], **{m["param"]: float(value)})
        exact = exact_ladder(p, 3)
        analytic = [float(x) for x in row[1:4]]
        numeric = [float(x) for x in row[4:7]]
        for e, a, x in zip(exact, analytic, numeric):
            if abs(a - e) > 1e-12 * abs(e):
                verdict.problem = f"analytic level {a} != exact {e}"
                return verdict
            worst = max(worst, abs(x - e) / abs(e))
        if float(row[7]) > SWEEP_RESIDUAL_TOL:
            verdict.problem = f"identity residual {row[7]}"
            return verdict
    verdict.fd_rel_err = worst
    if worst > SWEEP_LEVEL_TOL:
        verdict.problem = f"numeric level off by {worst:.3g} relative"
    return verdict


def _check_wavefunctions(case, rc, out) -> Verdict:
    m = case.meta
    rows = list(csv.reader(io.StringIO(out)))
    header, rows = rows[0], rows[1:]
    verdict = Verdict()
    if rc != 0:
        verdict.problem = f"exit code {rc}"
        return verdict
    if header != ["n", "z", "value", "derivative"]:
        verdict.problem = f"unexpected header {header}"
        return verdict
    if len(rows) != len(m["zs"]):
        verdict.problem = f"{len(rows)} rows for {len(m['zs'])} grid points"
        return verdict
    for row, z in zip(rows, m["zs"]):
        if int(row[0]) != m["n"] or float(row[1]) != z:
            verdict.problem = f"row ({row[0]}, {row[1]}) not ({m['n']}, {z!r})"
            return verdict
    ref = reference_wavefunction(m["side"], m["n"], m["point"], m["zs"])
    for col, name in ((0, "value"), (1, "derivative")):
        scale = max(abs(r[col]) for r in ref)
        err = max(abs(float(row[2 + col]) - float(r[col]))
                  for row, r in zip(rows, ref))
        if not err <= WAVE_TOL * scale:
            verdict.problem = (f"{m['side']} n={m['n']}: {name} off by "
                               f"{float(err / scale):.3g} of the grid max")
            return verdict
    return verdict


def reference_wavefunction(side: str, n: int, p: dict, zs: list[float]):
    """(value, derivative) of the normalized eigenfunction at each z.

    Plus side: C_n z^(g-1/2) exp(-oh z^2 / 2) M(-n; g; oh z^2).  Minus side:
    the ladder relation (w phi - phi') / sqrt(E_n) with the half-line
    superpotential w = oh z + (g - 1/2)/z + 2 d ob z / (1 + d ob z^2).
    The Kummer polynomial and its derivatives come from a Horner pass; all
    arithmetic is mpmath at 50 digits.
    """
    import mpmath
    from mpmath import mpf

    out = []
    with mpmath.workdps(WAVE_DPS):
        ob, rq, d = mpf(p["omega_bar"]), mpf(p["rho_q"]), mpf(p["d"])
        sw = mpmath.sqrt(ob)
        oh = d * sw / 2 * (2 * rq + 3 * sw)
        g = rq / sw + mpf(1.5)
        cn = (-1) ** n * mpmath.sqrt(2 * oh ** g * mpmath.rf(g, n)
                                     / (mpmath.factorial(n) * mpmath.gamma(g)))
        coeffs = [mpf(1)]
        for k in range(n):
            coeffs.append(coeffs[-1] * (k - n) / ((g + k) * (k + 1)))
        half = g - mpf(0.5)
        minus = side == "minus"
        if minus:
            root_e = mpmath.sqrt(2 * oh * (2 * n + 2 * g + 2))
            dob = d * ob
        for zf in zs:
            z = mpf(zf)
            y = oh * z * z
            m0, m1, m2 = coeffs[n], mpf(0), mpf(0)
            for k in range(n - 1, -1, -1):
                if minus:
                    m2 = m2 * y + m1
                m1 = m1 * y + m0
                m0 = m0 * y + coeffs[k]
            pre = cn * z ** half * mpmath.exp(-y / 2)
            lg = half / z - oh * z          # (log prefactor)'
            yz = 2 * oh * z                 # dy/dz
            mz = m1 * yz
            phi = pre * m0
            dphi = pre * (lg * m0 + mz)
            if not minus:
                out.append((phi, dphi))
                continue
            mzz = 2 * m2 * yz * yz + 2 * oh * m1
            dlg = -half / (z * z) - oh
            ddphi = pre * ((dlg + lg * lg) * m0 + 2 * lg * mz + mzz)
            q = 1 + dob * z * z
            w = oh * z + half / z + 2 * dob * z / q
            dw = oh - half / (z * z) + 2 * dob * (1 - dob * z * z) / (q * q)
            out.append(((w * phi - dphi) / root_e,
                        (dw * phi + w * dphi - ddphi) / root_e))
    return out
