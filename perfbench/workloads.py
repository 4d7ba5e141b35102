"""The four benchmark workloads.

Each workload is a closed loop with one client: op i starts only after op
i - 1 has returned.  A workload generates every input itself, from
(workload name, seed, index) alone, and hands the library only those
inputs.  ``setup`` runs once per process; ``make_input``, ``digest`` and
``check`` run outside the timed region; only ``op`` is timed.

``check`` raises ``CheckFailed`` when an output disagrees with a reference
the benchmark computes on its own (numpy formulas, or the stored
``cli_reference.json``), so a wrong answer counts as a failed op.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import zlib
from pathlib import Path

import numpy as np

# library calls go through the package namespace, which the tracer rebinds
import onticsim as ot
from onticsim import cli

HERE = Path(__file__).resolve().parent
CLI_REFERENCE = HERE / "cli_reference.json"

# agreement required between a library output and the benchmark's reference
TABLE_TOL = 1e-10
BORN_TOL = 1e-10
MASS_TOL = 1e-9
CLI_REL_TOL = 1e-9
# numbers that are rounding residue (a completeness defect, a vanishing Choi
# eigenvalue) have no relative precision; below this they count as equal
CLI_ABS_FLOOR = 1e-12


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's own reference."""


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank density matrix G G† / Tr, G complex Ginibre."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conjugate().T
    rho = 0.5 * (rho + rho.conjugate().T)
    return rho / np.trace(rho).real


def _descending_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    evals, evecs = np.linalg.eigh(matrix)
    return evals[::-1], evecs[:, ::-1]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


class Workload:
    name = ""
    # ops per cycle; a run stops only at a cycle boundary, so every run
    # measures the same mix of ops
    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, index: int) -> np.random.Generator:
        """Generator for one input; index 0 is set-up, index 1 + i is op i."""
        return np.random.default_rng([zlib.crc32(self.name.encode()), self.seed, index])

    def setup(self) -> None:
        pass


# ---------------------------------------------------------------------------
# tables_d48
# ---------------------------------------------------------------------------

class TablesD48(Workload):
    name = "tables_d48"
    DS, DE, DF = 6, 8, 2
    SPLITS = (("s",), ("e",))
    w_space = ot.HilbertSpace.of(("s", DS), ("e", DE))

    def setup(self) -> None:
        rng = self.rng(0)
        parent = ot.HilbertSpace.of(("s", self.DS), ("e", self.DE), ("f", self.DF))
        self.u = haar_unitary(rng, parent.total_dim)
        self.sigma_f = random_density(rng, self.DF)
        ancilla = ot.DensityMatrix(ot.HilbertSpace.of(("f", self.DF)), self.sigma_f)
        self.channel = ot.dilation_channel(
            ot.UnitaryOperator(parent, self.u), ancilla, (["s", "e"], ["f"])
        )

    def make_input(self, i: int):
        return ot.DensityMatrix(self.w_space, random_density(self.rng(1 + i), self.w_space.total_dim))

    def op(self, rho):
        table = ot.conditional_probabilities(self.channel, rho, self.SPLITS)
        gap = ot.bayesian_propagation_check(self.channel, rho, self.SPLITS)
        system = ot.parent_conditioned_probabilities(self.channel, rho, ("s",))
        return table, gap, system

    def digest(self, inp, out) -> str:
        table, gap, system = out
        return _digest(table.values, gap, system.values)

    def _evolve(self, x: np.ndarray) -> np.ndarray:
        """Tr_f[U (x (x) sigma_f) U†], straight from the dilation unitary."""
        d = self.w_space.total_dim
        big = self.u @ np.kron(x, self.sigma_f) @ self.u.conjugate().T
        return np.trace(big.reshape(d, self.DF, d, self.DF), axis1=1, axis2=3)

    def check(self, rho, out) -> None:
        table, gap, system = out
        ds, de, d = self.DS, self.DE, self.w_space.total_dim
        _, parent_vecs = _descending_eigh(rho.matrix)
        evolved = self._evolve(rho.matrix).reshape(ds, de, ds, de)
        _, vs = _descending_eigh(np.trace(evolved, axis1=1, axis2=3))
        _, ve = _descending_eigh(np.trace(evolved, axis1=0, axis2=2))
        basis = np.kron(vs, ve)
        # p(i, j | w) = Tr[(P_i (x) P_j) ch(P_w)] for every cell
        direct = np.empty((d, d))
        for w in range(d):
            v = parent_vecs[:, w]
            moved = self._evolve(np.outer(v, v.conjugate()))
            direct[w] = np.real(np.einsum("ic,ij,jc->c", basis.conjugate(), moved, basis))
        expected_columns = tuple((i, j) for i in range(ds) for j in range(de))
        if table.values.shape != (d, d) or table.column_indices != expected_columns:
            raise CheckFailed("joint table has the wrong shape or column order")
        worst = float(np.max(np.abs(table.values - direct)))
        if not worst <= TABLE_TOL:
            raise CheckFailed(f"joint table cell off the trace formula by {worst}")
        if not gap <= TABLE_TOL:
            raise CheckFailed(f"Bayesian propagation gap {gap}")
        marginal = direct.reshape(d, ds, de).sum(axis=2)
        worst = float(np.max(np.abs(system.values - marginal))) if system.values.shape == (d, ds) else math.inf
        if not worst <= TABLE_TOL:
            raise CheckFailed(f"parent-conditioned table off the marginal by {worst}")


# ---------------------------------------------------------------------------
# measure_d128
# ---------------------------------------------------------------------------

class MeasureD128(Workload):
    name = "measure_d128"
    D = 128
    space = ot.HilbertSpace.of(("s", D))

    def make_input(self, i: int):
        rng = self.rng(1 + i)
        psi = rng.standard_normal(self.D) + 1j * rng.standard_normal(self.D)
        psi /= np.linalg.norm(psi)
        model = ot.MeasurementModel(
            subject_dim=self.D,
            n_a=int(rng.integers(4, 9)),
            n_e=int(rng.integers(8, 17)),
            gamma_a=1.0,
            gamma_e=1.0,
            dt=float(rng.uniform(0.4, 0.7)),
        )
        return model, ot.PureState(self.space, psi)

    def op(self, inp):
        model, psi = inp
        return ot.simulate_measurement(model, psi), ot.born_conditional_check(model, psi)

    def digest(self, inp, out) -> str:
        report, born_check = out
        return _digest(
            report.rho_s.matrix,
            report.decomposition.probabilities,
            report.outcome_of_entry,
            report.max_born_deviation,
            born_check,
        )

    def check(self, inp, out) -> None:
        model, psi = inp
        report, born_check = out
        amps = psi.amplitudes
        c = math.exp(-model.gamma_a * model.dt) ** model.n_a * math.exp(-model.gamma_e * model.dt) ** model.n_e
        expected = np.outer(amps, amps.conjugate()) * c
        np.fill_diagonal(expected, np.abs(amps) ** 2)
        worst = float(np.max(np.abs(report.rho_s.matrix - expected)))
        if not worst <= BORN_TOL:
            raise CheckFailed(f"reduced state off the closed form by {worst}")
        assignment = report.outcome_of_entry
        if sorted(assignment) != list(range(self.D)):
            raise CheckFailed("outcome assignment is not a bijection")
        born = np.abs(amps) ** 2
        evals = np.linalg.eigvalsh(report.rho_s.matrix)[::-1]
        deviation = float(np.max(np.abs(evals - born[list(assignment)])))
        for name, value in (("max_born_deviation", report.max_born_deviation), ("born check", born_check)):
            if not abs(value - deviation) <= BORN_TOL:
                raise CheckFailed(f"{name} {value} differs from eigvalsh recomputation {deviation}")


# ---------------------------------------------------------------------------
# chains_q2
# ---------------------------------------------------------------------------

class ChainsQ2(Workload):
    name = "chains_q2"
    STEPS = 32
    SAMPLES = 200
    ENUMERATED_STEPS = 12
    s_space = ot.HilbertSpace.of(("s", 2))
    e_space = ot.HilbertSpace.of(("e", 2))

    def make_input(self, i: int):
        rng = self.rng(1 + i)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (g + g.conjugate().T)
        rho_e = ot.DensityMatrix(self.e_space, random_density(rng, 2))
        rho_s0 = ot.DensityMatrix(self.s_space, random_density(rng, 2))
        step = float(rng.uniform(0.2, 0.5))
        sample_seed = int(rng.integers(2**32))
        return h, rho_e, rho_s0, step, sample_seed

    def op(self, inp):
        h, rho_e, rho_s0, step, sample_seed = inp
        chain = ot.markov_chain_from_repeated_interaction(h, rho_e, rho_s0, step, self.STEPS)
        paths = ot.sample_trajectories(chain, 0, sample_seed, self.SAMPLES)
        n = self.ENUMERATED_STEPS
        head = ot.MarkovKernelChain(chain.times[: n + 1], chain.kernels[:n])
        return chain, paths, ot.enumerate_trajectory_measure(head, 2, 0)

    def digest(self, inp, out) -> str:
        chain, paths, measure = out
        return _digest(
            np.stack([k.values for k in chain.kernels]),
            [p.indices for p in paths],
            sorted(measure.items()),
        )

    def check(self, inp, out) -> None:
        chain, paths, measure = out
        if len(measure) != 2**self.ENUMERATED_STEPS:
            raise CheckFailed(f"{len(measure)} enumerated paths, expected {2**self.ENUMERATED_STEPS}")
        mass = math.fsum(measure.values())
        if not abs(mass - 1.0) <= MASS_TOL:
            raise CheckFailed(f"enumerated mass {mass}")
        if len(paths) != self.SAMPLES:
            raise CheckFailed(f"{len(paths)} sampled paths, expected {self.SAMPLES}")
        kernels = [k.values for k in chain.kernels]
        for path in paths:
            idx = path.indices
            if len(idx) != self.STEPS + 1 or idx[0] != 0 or any(i not in (0, 1) for i in idx):
                raise CheckFailed(f"sampled path {idx} is malformed")
            p = math.prod(float(kern[a, b]) for kern, a, b in zip(kernels, idx, idx[1:]))
            if not p > 0.0:
                raise CheckFailed(f"sampled path {idx} has probability {p}")


# ---------------------------------------------------------------------------
# cli_mix
# ---------------------------------------------------------------------------

CLI_SCENARIOS = ("measure", "sweep", "semigroup", "trajectories", "helix", "nonlinear", "verify")
CLI_FORMATS = ("csv", "json")
# fixed inputs: the stored reference holds for every seed, which only
# rotates the order in which a run starts the cycle
CLI_INPUT_SEED = 1807
MEASURE_DIM = 64
SWEEP_DIM = 16
SWEEP_N = tuple(range(2, 130, 2))
TRAJECTORY_STEPS = 14
HELIX_POINTS = 20000
VERIFY_DIM = 16
VERIFY_KRAUS = 4


def _fixed_psi(rng: np.random.Generator, d: int) -> str:
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return ", ".join(repr(complex(a)) for a in psi)


def cli_inputs(workdir: Path) -> dict[str, Path]:
    """Write the scaled scenario configs and the verify channel; return config paths."""
    rng = np.random.default_rng(CLI_INPUT_SEED)
    v = haar_unitary(rng, VERIFY_DIM * VERIFY_KRAUS)[:, :VERIFY_DIM]
    kraus = [v[k * VERIFY_DIM:(k + 1) * VERIFY_DIM] for k in range(VERIFY_KRAUS)]
    space = [{"label": "s", "dim": VERIFY_DIM}]
    channel = {
        "in_space": space,
        "out_space": space,
        "kraus": [{"re": k.real.tolist(), "im": k.imag.tolist()} for k in kraus],
    }
    channel_path = workdir / "channel_d16.json"
    channel_path.write_text(json.dumps(channel))
    texts = {
        "measure": f"subject_dim = {MEASURE_DIM}\npsi = {_fixed_psi(rng, MEASURE_DIM)}\n",
        "sweep": (
            f"subject_dim = {SWEEP_DIM}\npsi = {_fixed_psi(rng, SWEEP_DIM)}\n"
            f"n_values = {', '.join(str(n) for n in SWEEP_N)}\n"
        ),
        "semigroup": "",
        "trajectories": f"mode = enumerate\nsteps = {TRAJECTORY_STEPS}\n",
        "helix": f"points = {HELIX_POINTS}\n",
        "nonlinear": "pair = werner\nlam1 = 0.9\nlam2 = 0.2\n",
        "verify": f"channel_path = {channel_path}\n",
    }
    paths = {}
    for scenario, body in texts.items():
        paths[scenario] = workdir / f"{scenario}.cfg"
        paths[scenario].write_text(f"scenario = {scenario}\n{body}")
    return paths


def _floats(cells) -> np.ndarray:
    return np.array([float(x) for x in cells], dtype=float)


SWEEP_KEYS = ("N", "overlap_A", "overlap_E", "max_offdiag", "max_born_deviation", "S_max", "bound")


def parse_artifact(scenario: str, fmt: str, data: bytes) -> dict:
    """Canonical numbers and labels of one artifact, the same for both formats."""
    text = data.decode()
    if fmt == "json":
        payload = json.loads(text)
    else:
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        payload = [dict(zip(header, row)) for row in body]
    if scenario in ("measure", "sweep"):
        records = payload if isinstance(payload, list) else [payload]
        return {"rows": np.array([[float(r[k]) for k in SWEEP_KEYS] for r in records])}
    if scenario in ("semigroup", "nonlinear", "verify"):
        record = payload if fmt == "json" else payload[0]
        return {k: str(v).lower() if isinstance(v, bool) else v for k, v in record.items()}
    if scenario == "trajectories":
        if fmt == "json":
            paths = [t["indices"] for t in payload["trajectories"]]
            probs = [t["p"] for t in payload["trajectories"]]
            return {"times": _floats(payload["times"]), "paths": np.array(paths), "p": _floats(probs)}
        keys = [k for k in payload[0] if k != "p"]
        return {
            "paths": np.array([[int(r[k]) for k in keys] for r in payload]),
            "p": _floats(r["p"] for r in payload),
        }
    if scenario == "helix":
        if fmt == "json":
            return {
                "times": _floats(payload["times"]),
                "strands": np.hstack([np.array(payload["strand1"]), np.array(payload["strand2"])]),
            }
        return {
            "times": _floats(r["t"] for r in payload),
            "index": np.array([int(r["index"]) for r in payload]),
            "strands": np.array([[float(r[k]) for k in ("theta1", "phi1", "theta2", "phi2")] for r in payload]),
        }
    raise ValueError(f"unknown scenario {scenario!r}")


def _close(name: str, got, want) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, expected {want.shape}")
    err = np.abs(got - want)
    bad = ~((err <= CLI_REL_TOL * np.abs(want)) | (err <= CLI_ABS_FLOOR))
    if bad.any():
        k = int(np.argmax(bad.ravel()))
        raise CheckFailed(f"{name}: {got.ravel()[k]!r} against reference {want.ravel()[k]!r}")


def _path_measure(kernels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every two-state path from index 0, in lexicographic order, with its probability."""
    steps = len(kernels)
    codes = np.arange(2**steps)[:, None]
    bits = (codes >> np.arange(steps - 1, -1, -1)) & 1
    paths = np.hstack([np.zeros((len(codes), 1), dtype=int), bits])
    p = np.ones(len(paths))
    for s, kern in enumerate(kernels):
        p = p * kern[paths[:, s], paths[:, s + 1]]
    return paths, p


def check_artifact(reference: dict, scenario: str, fmt: str, data: bytes) -> None:
    try:
        got = parse_artifact(scenario, fmt, data)
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise CheckFailed(f"{scenario} {fmt}: unreadable artifact: {type(err).__name__}: {err}") from err
    ref = reference[scenario]
    if scenario in ("measure", "sweep"):
        _close(scenario, got["rows"], ref["rows"])
    elif scenario in ("semigroup", "nonlinear", "verify"):
        for key, want in ref.items():
            if key not in got:
                raise CheckFailed(f"{scenario}: missing {key}")
            if isinstance(want, float):
                _close(f"{scenario}.{key}", float(got[key]), want)
            elif str(got[key]) != str(want):
                raise CheckFailed(f"{scenario}.{key}: {got[key]!r}, expected {want!r}")
    elif scenario == "trajectories":
        paths, p = _path_measure(np.array(ref["kernels"]))
        if not np.array_equal(got["paths"], paths):
            raise CheckFailed("trajectories: path list differs from the enumeration order")
        _close("trajectories.p", got["p"], p)
        if "times" in got:
            _close("trajectories.times", got["times"], ref["times"])
    elif scenario == "helix":
        t = np.linspace(0.0, ref["t_max"], ref["points"])
        theta1 = np.arccos(np.clip(np.sin(ref["omega"] * t), -1.0, 1.0))
        phi1 = np.where(np.cos(ref["omega"] * t) >= 0.0, 0.0, math.pi)
        strands = np.column_stack([theta1, phi1, math.pi - theta1, (phi1 + math.pi) % (2.0 * math.pi)])
        _close("helix.times", got["times"], t)
        _close("helix.strands", got["strands"], strands)
        if "index" in got and np.any(got["index"] != 0):
            raise CheckFailed("helix: a configuration index is not 0")


class CliMix(Workload):
    name = "cli_mix"
    cycle = len(CLI_SCENARIOS) * len(CLI_FORMATS)

    def setup(self) -> None:
        self.configs = cli_inputs(self.workdir)
        self.reference = json.loads(CLI_REFERENCE.read_text())

    def make_input(self, i: int):
        k = (self.seed + i) % self.cycle
        scenario, fmt = CLI_SCENARIOS[k // len(CLI_FORMATS)], CLI_FORMATS[k % len(CLI_FORMATS)]
        out = self.workdir / f"{scenario}.{fmt}"
        argv = [scenario, "--config", str(self.configs[scenario]), "--out", str(out),
                "--format", fmt, "--seed", str(self.seed)]
        return scenario, fmt, out, argv

    def op(self, inp):
        argv = inp[3]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def digest(self, inp, out) -> str:
        return _digest(out, inp[2].read_bytes())

    def check(self, inp, out) -> None:
        scenario, fmt, path, _ = inp
        if out != 0:
            raise CheckFailed(f"{scenario} --format {fmt} exited with code {out}")
        check_artifact(self.reference, scenario, fmt, path.read_bytes())


WORKLOADS = {w.name: w for w in (TablesD48, MeasureD128, ChainsQ2, CliMix)}
