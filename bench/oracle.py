"""Output oracle gate.

Independent reference computations for every CSV the workloads write.  This
file shares no code with the package: the block spectrum comes from dense
eigvalsh, Bessel values from scipy.special.jv, sideband orders from a brute
integer scan, and the echo from its own fourth-order commutator-free
integrator on the Jacobi-Anger closed form of the drive-rotated Hamiltonian,
run at half the package's step.  Tolerances are the ones tier-1 uses.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.special import jv

#: Model defaults of the config schema.
MODEL_DEFAULTS = {"omega1": 0.5, "omega2": 0.25, "Omega1": 1.25, "Omega2": 1.0,
                  "g1": 0.05, "g2": 0.05}
SIDEBAND_EPS = 1e-10
#: Validity thresholds of the drive audit.
HIERARCHY_MAX = 0.4
RWA_MAX = 0.01
#: Coherent amplitude of both modes in the echo's initial state (fixed by
#: the echo command).
ECHO_ALPHA = 0.01

ENERGY_RTOL = 1e-12      # |E - eigvalsh| <= 1e-12 * max(|block|, 1)
NORM_DRIFT_MAX = 1e-8
LEAKAGE_MAX = 1e-6
FIDELITY_TOL = 1e-6      # step-halving agreement of the sampled fidelity
FIDELITY_BOUND_TOL = 1e-12

GRID_COLUMNS = ["axis1_name", "axis1_value", "axis2_name", "axis2_value",
                "energy", "n_label", "m_label", "category", "gap",
                "window_capped", "rwa_ok", "hierarchy_ok"]
ECHO_COLUMNS = ["t", "fidelity", "norm_a", "norm_b", "leakage"]

GRID_SAMPLE = 256


def _read_csv(path) -> tuple[list[str], list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return [], []
    return lines[0].split(","), lines[1:]


def _model(cfg: dict) -> dict:
    model = dict(MODEL_DEFAULTS)
    model.update(cfg.get("model", {}))
    return model


def _axis_values(axis: dict) -> np.ndarray:
    if axis["points"] == 1:
        return np.array([float(axis["start"])])
    return np.linspace(axis["start"], axis["stop"], axis["points"])


def sample_cells(total: int, seed: int, k: int = GRID_SAMPLE) -> list[int]:
    """Seeded cell sample; every cell when the grid holds at most k."""
    if total <= k:
        return list(range(total))
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(total, size=k, replace=False).tolist())


# ---------------------------------------------------------------------------
# grids


def block_spectra(w1, w2, W1, W2, g1, g2, window):
    """Lowest eigenvalue and matrix scale of every dressed 3x3 block.

    Arguments are arrays over cells; results have shape (cells, (window+1)^2)
    in label order n * (window+1) + m.
    """
    n, m = np.meshgrid(np.arange(window + 1.0), np.arange(window + 1.0),
                       indexing="ij")
    n, m = n.ravel(), m.ravel()
    col = [np.asarray(x, dtype=float)[:, None] for x in (w1, w2, W1, W2, g1, g2)]
    w1, w2, W1, W2, g1, g2 = col
    mats = np.zeros((w1.shape[0], n.size, 3, 3))
    mats[..., 0, 0] = w1 + w2 + W1 * n + W2 * (m - 1)
    mats[..., 1, 1] = -w1 + W1 * (n + 1) + W2 * (m - 1)
    mats[..., 2, 2] = -w2 + W1 * n + W2 * m
    mats[..., 0, 1] = mats[..., 1, 0] = g1 * np.sqrt(n + 1)
    mats[..., 0, 2] = mats[..., 2, 0] = g2 * np.sqrt(m)
    lowest = np.linalg.eigvalsh(mats)[..., 0]
    scale = np.maximum(np.abs(mats).max(axis=(-2, -1)), 1.0)
    return lowest, scale


def _sideband(base: float, omega_d: float) -> tuple[int, float]:
    """Brute-force argmin of |base + n omega_d|; ties go to the smaller n."""
    center = int(round(-base / omega_d))
    best_n, best_v = None, math.inf
    for n in range(center - 40, center + 41):
        v = abs(base + n * omega_d)
        if v < best_v:
            best_n, best_v = n, v
    return best_n, base + best_n * omega_d


def effective_model(model: dict, amplitude: float, omega_d: float) -> dict:
    """Drive-renormalized parameters and the two audit verdicts.

    Verdicts within 1e-9 (relative) of their threshold are reported as None
    (undecidable at double precision against another Bessel evaluator).
    """
    w1, w2, W1, W2 = (model[k] for k in ("omega1", "omega2", "Omega1", "Omega2"))
    g1, g2 = model["g1"], model["g2"]
    theta = amplitude / omega_d
    d1 = 2 * w1 + w2 - W1
    d2 = 2 * w2 + w1 - W2
    n0, dn = _sideband(2 * w1 + w2 + W1, omega_d)
    m0, dm = _sideband(2 * w2 + w1 + W2, omega_d)
    gc1 = g1 * jv(n0, theta)
    gc2 = g2 * jv(m0, 2 * theta)

    def verdict(ratios, limit):
        if any(abs(r - limit) <= 1e-9 * limit for r in ratios):
            return None
        return all(r < limit for r in ratios)

    hier = [abs(d1) / omega_d, abs(d2) / omega_d, abs(dn) / omega_d,
            abs(dm) / omega_d, g1 / omega_d, g2 / omega_d]
    rwa = [abs(gc1 / dn) if dn != 0 else math.inf,
           abs(gc2 / dm) if dm != 0 else math.inf]
    return {
        "Omega1": (dn - d1) / 2, "Omega2": (dm - d2) / 2,
        "omega1": ((2 * d1 - d2) + (2 * dn - dm)) / 6,
        "omega2": ((2 * d2 - d1) + (2 * dm - dn)) / 6,
        "g1": g1 * jv(0, theta), "g2": g2 * jv(0, 2 * theta),
        "hierarchy_ok": verdict(hier, HIERARCHY_MAX),
        "rwa_ok": verdict(rwa, RWA_MAX),
    }


def _category(n: int, m: int) -> str:
    if n == 0 and m == 0:
        return "normal"
    if m == 0:
        return "y1"
    if n == 0:
        return "y2"
    return "mixed"


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"not a boolean: {text!r}")
    return text == "true"


def check_grid(csv_path, cfg: dict, driven: bool, seed: int,
               k: int = GRID_SAMPLE) -> list[str]:
    """Row count, axes and a seeded sample of cells against the oracles."""
    header, rows = _read_csv(csv_path)
    if header != GRID_COLUMNS:
        return [f"grid header {header!r}"]
    ax1, ax2 = cfg["sweep"]
    v1, v2 = _axis_values(ax1), _axis_values(ax2)
    if len(rows) != v1.size * v2.size:
        return [f"grid has {len(rows)} rows, expected {v1.size * v2.size}"]
    window = cfg["truncation"]["block_window"]
    model = _model(cfg)
    drive = cfg.get("drive", {})
    cells = sample_cells(len(rows), seed, k)

    errors: list[str] = []
    params = {key: [] for key in ("omega1", "omega2", "Omega1", "Omega2", "g1", "g2")}
    forced, audits, parsed = [], [], []
    for cell in cells:
        f = rows[cell].split(",")
        i, j = divmod(cell, v2.size)
        try:
            axes_ok = (len(f) == len(GRID_COLUMNS) and f[0] == ax1["name"]
                       and f[2] == ax2["name"] and float(f[1]) == v1[i]
                       and float(f[3]) == v2[j])
        except ValueError:
            axes_ok = False
        if not axes_ok:
            errors.append(f"cell {cell}: axes {f[:4]!r}")
            continue
        cell_model = dict(model)
        amplitude = drive.get("amplitude", 0.036)
        for axis, value in ((ax1, v1[i]), (ax2, v2[j])):
            if axis["parameter"] == "A_D":
                amplitude = value
            else:
                cell_model[axis["parameter"]] = value
        if driven:
            eff = effective_model(cell_model, amplitude, drive.get("frequency", 0.18))
            cell_model = {key: eff[key] for key in params}
            forced.append(eff["Omega1"] <= 0 or eff["Omega2"] <= 0)
            audits.append((eff["rwa_ok"], eff["hierarchy_ok"]))
        else:
            forced.append(False)
            audits.append((True, True))
        for key in params:
            params[key].append(cell_model[key])
        parsed.append((cell, f))
    if not parsed:
        return errors

    lowest, scale = block_spectra(*(params[key] for key in
                                    ("omega1", "omega2", "Omega1", "Omega2", "g1", "g2")),
                                  window)
    for row, (cell, f) in enumerate(parsed):
        try:
            energy, gap = float(f[4]), float(f[8])
            n, m = int(f[5]), int(f[6])
            capped, rwa, hier = _bool(f[9]), _bool(f[10]), _bool(f[11])
        except ValueError as exc:
            errors.append(f"cell {cell}: {exc}")
            continue
        if not (0 <= n <= window and 0 <= m <= window):
            errors.append(f"cell {cell}: label ({n}, {m}) outside the window")
            continue
        spectrum = lowest[row]
        label = n * (window + 1) + m
        tol = ENERGY_RTOL * scale[row].max()
        ordered = np.sort(spectrum)
        if abs(energy - spectrum[label]) > ENERGY_RTOL * scale[row, label]:
            errors.append(f"cell {cell}: energy {energy!r} vs block ({n}, {m}) "
                          f"eigvalsh {spectrum[label]!r}")
        if energy > ordered[0] + tol:
            errors.append(f"cell {cell}: label ({n}, {m}) is not the ground block "
                          f"({energy!r} > {ordered[0]!r})")
        if abs(gap - max(ordered[1] - ordered[0], 0.0)) > 2 * tol:
            errors.append(f"cell {cell}: gap {gap!r} vs {ordered[1] - ordered[0]!r}")
        if f[7] != _category(n, m):
            errors.append(f"cell {cell}: category {f[7]!r} for label ({n}, {m})")
        if capped != (forced[row] or n == window or m == window):
            errors.append(f"cell {cell}: window_capped {capped}")
        want_rwa, want_hier = audits[row]
        if want_rwa is not None and rwa != want_rwa:
            errors.append(f"cell {cell}: rwa_ok {rwa}, oracle {want_rwa}")
        if want_hier is not None and hier != want_hier:
            errors.append(f"cell {cell}: hierarchy_ok {hier}, oracle {want_hier}")
    return errors


# ---------------------------------------------------------------------------
# echo


def _step_count(interval: float, phi_max: float) -> int:
    """Substeps per sample interval under the package's documented rule:
    h <= 2 pi / (80 phi_max)."""
    if phi_max <= 0:
        return 1
    return max(1, math.ceil(interval / (2 * math.pi / (80 * phi_max))))


def _sideband_order(z: float, eps: float) -> int:
    above = [p for p in range(65) if abs(jv(p, abs(z))) >= eps]
    return max(above) if above else 0


class EchoReference:
    """Drive-rotated echo (all sidebands vs dominant sideband) integrated
    independently at half the package's step."""

    def __init__(self, cfg: dict):
        model = _model(cfg)
        drive = cfg.get("drive", {})
        trunc = cfg.get("truncation", {})
        dyn = cfg.get("dynamics", {})
        self.t_max = float(dyn.get("t_max", 200.0))
        self.samples = int(dyn.get("samples", 2000))
        eps = float(trunc.get("sideband_eps", SIDEBAND_EPS))
        d1, d2 = trunc.get("n_c1", 6) + 1, trunc.get("n_c2", 6) + 1
        self.dim = 3 * d1 * d2
        self.tops = (np.arange(self.dim) // d2 % d1 == d1 - 1,
                     np.arange(self.dim) % d2 == d2 - 1)

        w1, w2, W1, W2 = (model[k] for k in ("omega1", "omega2", "Omega1", "Omega2"))
        g1, g2 = model["g1"], model["g2"]
        wd = float(drive.get("frequency", 0.18))
        theta = float(drive.get("amplitude", 0.036)) / wd
        delta1, delta2 = 2 * w1 + w2 - W1, 2 * w2 + w1 - W2
        base1, base2 = 2 * w1 + w2 + W1, 2 * w2 + w1 + W2
        n0, dn = _sideband(base1, wd)
        m0, dm = _sideband(base2, wd)
        self.wd, self.theta = wd, theta
        # (amplitude, phase rate, drive index multiple) per operator; the
        # full branch sums every sideband in closed form (Jacobi-Anger):
        # sum_p J_p(z) exp(i p wd t) = exp(i z sin(wd t)).
        self.full = [(g1, delta1, 1.0), (g1, base1, 1.0), (g2, delta2, 2.0), (g2, base2, 2.0)]
        self.dominant = [(g1 * jv(0, theta), delta1, 0.0), (g1 * jv(n0, theta), dn, 0.0),
                         (g2 * jv(0, 2 * theta), delta2, 0.0),
                         (g2 * jv(m0, 2 * theta), dm, 0.0)]

        p1, p2 = _sideband_order(theta, eps), _sideband_order(2 * theta, eps)
        phi_full = max(max(abs(delta1) + p1 * wd, abs(base1) + p1 * wd),
                       max(abs(delta2) + p2 * wd, abs(base2) + p2 * wd))
        phi_dom = max(abs(delta1), abs(dn), abs(delta2), abs(dm))
        interval = self.t_max / (self.samples - 1)
        self.substeps = 2 * _step_count(interval, max(phi_full, phi_dom))

        a1 = np.diag(np.sqrt(np.arange(1.0, d1)), 1)
        a2 = np.diag(np.sqrt(np.arange(1.0, d2)), 1)
        e31 = np.zeros((3, 3)); e31[2, 0] = 1.0
        e32 = np.zeros((3, 3)); e32[2, 1] = 1.0
        i1, i2 = np.eye(d1), np.eye(d2)
        ops = [np.kron(np.kron(e31, a1), i2), np.kron(np.kron(e31, a1.T), i2),
               np.kron(np.kron(e32, i1), a2), np.kron(np.kron(e32, i1), a2.T)]
        # both branches side by side in one block-diagonal operator; slot s
        # of the 16 coefficients scales every entry of operator s
        rows, cols, vals, slots = [], [], [], []
        for branch in range(2):
            shift = branch * self.dim
            for k, op in enumerate(ops):
                for mat, slot in ((op, 8 * branch + k), (op.T, 8 * branch + 4 + k)):
                    r, c = np.nonzero(mat)
                    rows.append(r + shift); cols.append(c + shift)
                    vals.append(mat[r, c]); slots.append(np.full(r.size, slot))
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        order = np.lexsort((cols, rows))
        self.vals = np.concatenate(vals)[order]
        self.slots = np.concatenate(slots)[order]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=2 * self.dim))])
        self.op = sp.csr_matrix((self.vals.astype(complex), cols[order], indptr),
                                shape=(2 * self.dim, 2 * self.dim))

        atom = np.array([0.0, 1.0, 0.0])
        c1 = self._coherent(d1)
        c2 = self._coherent(d2)
        psi = np.kron(np.kron(atom, c1), c2).astype(complex)
        self.psi0 = psi / np.linalg.norm(psi)

    @staticmethod
    def _coherent(d: int) -> np.ndarray:
        n = np.arange(d)
        amp = np.array([ECHO_ALPHA ** k / math.sqrt(math.factorial(k)) for k in n])
        return amp * math.exp(-0.5 * ECHO_ALPHA ** 2)

    def _coefficients(self, t: np.ndarray) -> np.ndarray:
        """(16, len(t)) coefficients: operators then conjugates, per branch."""
        out = np.empty((16, t.size), dtype=complex)
        wave = np.sin(self.wd * t)
        for branch, terms in enumerate((self.full, self.dominant)):
            for k, (amp, rate, mult) in enumerate(terms):
                c = amp * np.exp(1j * (rate * t + mult * self.theta * wave))
                out[8 * branch + k] = c
                out[8 * branch + 4 + k] = np.conj(c)
        return out

    def _expm_apply(self, coeff: np.ndarray, factor: complex, psi: np.ndarray):
        self.op.data[:] = self.vals * coeff[self.slots]
        out = psi.copy()
        term = psi
        for k in range(1, 64):
            term = (self.op @ term) * (factor / k)
            out += term
            if np.vdot(term, term).real <= 1e-36 * np.vdot(out, out).real:
                return out
        raise RuntimeError("reference Taylor series did not converge")

    def run(self) -> dict:
        """Sampled fidelity, norms and leakage of the two branches."""
        times = np.linspace(0.0, self.t_max, self.samples)
        h = (times[1] - times[0]) / self.substeps
        r3 = math.sqrt(3.0)
        c_lo, c_hi = 0.5 - r3 / 6, 0.5 + r3 / 6
        x_lo, x_hi = 0.25 - r3 / 6, 0.25 + r3 / 6
        psi = np.concatenate([self.psi0, self.psi0])
        states = np.empty((self.samples, psi.size), dtype=complex)
        states[0] = psi
        k = np.arange(self.substeps)
        for i in range(1, self.samples):
            t = times[i - 1] + k * h
            early = self._coefficients(t + c_lo * h)
            late = self._coefficients(t + c_hi * h)
            first = x_hi * early + x_lo * late
            second = x_lo * early + x_hi * late
            for s in range(self.substeps):
                psi = self._expm_apply(first[:, s], -1j * h, psi)
                psi = self._expm_apply(second[:, s], -1j * h, psi)
            states[i] = psi
        a, b = states[:, :self.dim], states[:, self.dim:]
        pops = [np.abs(a) ** 2, np.abs(b) ** 2]
        leak = np.max([p[:, top].sum(axis=1) for p in pops for top in self.tops], axis=0)
        return {"t": times, "fidelity": np.abs(np.einsum("ij,ij->i", a.conj(), b)) ** 2,
                "norm_a": np.linalg.norm(a, axis=1), "norm_b": np.linalg.norm(b, axis=1),
                "leakage": leak}


def check_echo(csv_path, reference: dict) -> list[str]:
    """Row count, time grid, norms, leakage and fidelity against the
    step-halved reference."""
    header, rows = _read_csv(csv_path)
    if header != ECHO_COLUMNS:
        return [f"echo header {header!r}"]
    if len(rows) != reference["t"].size:
        return [f"echo has {len(rows)} rows, expected {reference['t'].size}"]
    try:
        data = np.array([[float(x) for x in row.split(",")] for row in rows])
    except ValueError as exc:
        return [f"echo row: {exc}"]
    if data.shape[1] != len(ECHO_COLUMNS):
        return [f"echo rows have {data.shape[1]} fields"]
    t, fid, na, nb, leak = data.T
    errors = []
    if not np.array_equal(t, reference["t"]):
        errors.append("echo time grid differs from linspace(0, t_max, samples)")
    drift = max(np.abs(na - 1).max(), np.abs(nb - 1).max())
    if drift > NORM_DRIFT_MAX:
        errors.append(f"echo norm drift {drift:.3e} > {NORM_DRIFT_MAX:g}")
    if leak.min() < 0 or leak.max() > LEAKAGE_MAX:
        errors.append(f"echo leakage outside [0, {LEAKAGE_MAX:g}]")
    if abs(fid[0] - 1) > FIDELITY_BOUND_TOL or fid.min() < 0 or fid.max() > 1 + FIDELITY_BOUND_TOL:
        errors.append("echo fidelity outside [0, 1] or not 1 at t = 0")
    dev = np.abs(fid - reference["fidelity"]).max()
    if not dev <= FIDELITY_TOL:
        errors.append(f"echo fidelity differs from the step-halved reference by {dev:.3e}")
    return errors


def echo_norm_drift(csv_path) -> float:
    _, rows = _read_csv(csv_path)
    data = np.array([[float(x) for x in row.split(",")] for row in rows])
    return float(max(np.abs(data[:, 2] - 1).max(), np.abs(data[:, 3] - 1).max()))
