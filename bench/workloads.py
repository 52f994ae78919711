"""The benchmark's four workloads: inputs, measured rounds, traced rounds, checks.

Each workload builds its inputs from the run's seed, measures whole rounds of
the same operations with tracing off, can replay a round with a span around
each call it makes into the program, and checks the program's outputs with
the numpy-only functions in ``reference``.  The program only ever sees the
generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np

import nujd.simulation as nsim
from nujd import io as nio
from nujd.core import CongruenceKind, DiagonalStack, GLElement, TaggedMatrix, is_essentially_equivalent
from nujd.errors import NujdError
from nujd.linalg import general_evd, symmetric_orthogonalize, takagi
from nujd.simulation import SourceSpec, amari_index, estimate_statistic, generate, mix, population_stacks, run_experiment
from nujd.solvers import put, sut
from nujd.uniqueness import identifiability_master

import reference as ref

T = 100_000
MS = (2, 4, 8, 16, 32)
BATCH = 6            # trials per run_experiment call in the simulate workloads
POOL_ROUNDS = 8      # distinct certify_solve rounds; one measured operation runs all of them
CMD_TIMEOUT_S = 120

# Amari-index bounds; README ("Correctness checks") gives the reasoning.
AMARI_BOUND_CLI = 0.05
AMARI_BOUND_SUT = 0.05
AMARI_BOUND_CUM4 = 0.1
WITNESS_RESIDUAL_MAX = 1e-10
WITNESS_DISTANCE_MIN = 0.1

SUT_SOURCES = [
    {"kind": "noncircular_gaussian", "circularity": 0.9},
    {"kind": "noncircular_gaussian", "circularity": 0.3},
    {"kind": "ar1_noncircular", "circularity": 0.7, "coefficient": 0.9},
    {"kind": "ar1_noncircular", "circularity": 0.5, "coefficient": -0.5},
]
CUM4_SOURCES = [
    {"kind": "bpsk"},
    {"kind": "qpsk"},
    {"kind": "bpsk", "power": 2.0},
    {"kind": "qpsk", "power": 0.5},
]
SUT_CONFIG = {
    "sources": SUT_SOURCES,
    "T": T,
    "statistics": [{"statistic": "covariance"}, {"statistic": "pseudo_covariance"}],
    "solver": "sut",
    "trials": BATCH,
}
CUM4_CONFIG = {
    "sources": CUM4_SOURCES,
    "T": T,
    "statistics": [
        {"statistic": "covariance"},
        {"statistic": "cumulant_slice", "pattern": "0000", "axes": [1, 2], "fixed": [1, 1]},
    ],
    "solver": "put",
    "trials": BATCH,
}


def _maybe_span(tracer, name, layer, **attrs):
    return tracer.span(name, layer, **attrs) if tracer else contextlib.nullcontext()


def _until(seconds: float):
    """Yield round indices until ``seconds`` have passed; always at least one."""
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        yield i
        i += 1


def _close(a, b, rtol=1e-8) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# cli_pipeline


class CliPipeline:
    """estimate -> solve -> check, each a fresh ``python -m nujd.cli`` process."""

    name = "cli_pipeline"

    def __init__(self, seed: int, workdir: str, src: str):
        self.seed = seed
        self.dir = workdir
        self.env = {k: v for k, v in os.environ.items() if k not in ("NUJD_THREADS", "PYTHONDONTWRITEBYTECODE")}
        self.env["PYTHONPATH"] = src
        self.signal_path = os.path.join(workdir, "signal.json")
        self.passes = []
        self.attempted = self.failed = 0
        self.summary = {}

    def setup(self, tracer=None):
        specs = [SourceSpec(**s) for s in SUT_SOURCES]
        sources, truth = generate(specs, T, [self.seed, 0])
        w = mix(sources, truth.a)
        with _maybe_span(tracer, "io.signal_write", "io"):
            nio.write_json(nio.signal_to_dict(w), self.signal_path)
        self.data, self.a = w.data, truth.a.matrix

    def _run(self, name, argv, tracer):
        with _maybe_span(tracer, name, "cli"):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *argv], cwd=self.dir, env=self.env,
                capture_output=True, text=True, timeout=CMD_TIMEOUT_S,
            )
            wall = time.perf_counter() - t0
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
        return proc, wall

    def _write_spectra(self):
        """check input: Hermitian row = the solution's lambda, transpose row = ones."""
        try:
            with open(os.path.join(self.dir, "sol.json"), encoding="utf-8") as fh:
                lam = json.load(fh)["lambda"]
        except (OSError, ValueError, KeyError):
            lam = []
        doc = {"m": len(lam), "spectra": [
            {"kind": "hermitian", "diag": lam},
            {"kind": "transpose", "diag": [[1.0, 0.0]] * len(lam)},
        ]}
        with open(os.path.join(self.dir, "spectra.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def run_pass(self, tracer=None) -> float:
        cli = ["-m", "nujd.cli"]
        procs, wall = [], 0.0
        for name, args in (
            ("cli.estimate", ["estimate", "signal.json", "--cov", "--pseudocov", "--out", "set.json"]),
            ("cli.solve", ["solve", "set.json", "--method", "sut", "--out", "sol.json"]),
        ):
            proc, t = self._run(name, cli + args, tracer)
            procs.append(proc)
            wall += t
        self._write_spectra()
        proc, t = self._run("cli.check", cli + ["check", "spectra.json"], tracer)
        procs.append(proc)
        wall += t
        h = hashlib.sha256()
        for f in ("set.json", "sol.json"):
            with contextlib.suppress(OSError), open(os.path.join(self.dir, f), "rb") as fh:
                h.update(fh.read())
        h.update(proc.stdout.encode())
        self.passes.append({"rcs": [p.returncode for p in procs], "digest": h.hexdigest(),
                            "check_stdout": proc.stdout, "stderr": [p.stderr[-400:] for p in procs]})
        return wall

    def import_only(self, tracer=None) -> float:
        _, wall = self._run("cli.import", ["-c", "import nujd.cli"], tracer)
        return wall

    def measure(self, seconds: float) -> list:
        self.import_only()  # warm the file cache before the timed passes
        return [self.run_pass() for _ in _until(seconds)]

    def traced_round(self, tracer, i: int, with_baseline: bool) -> float:
        if i == 0:
            tracer.group = None
            self.import_only(tracer)
            with tracer.span("io.signal_read", "io"):
                nio.signal_from_dict(nio.read_json(self.signal_path))
        base = self.run_pass() if with_baseline else 0.0
        tracer.group = f"pass-{i}"
        traced = self.run_pass(tracer)
        return traced - base if with_baseline else 0.0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def check(self) -> list:
        problems = []
        for p in self.passes:
            if p["rcs"] != [0, 0, 0]:
                problems.append(f"cli exit codes {p['rcs']}: {p['stderr']}")
        if len({p["digest"] for p in self.passes}) > 1:
            problems.append("cli outputs differ between passes of the same input")
        if problems:
            return problems
        with open(os.path.join(self.dir, "set.json"), encoding="utf-8") as fh:
            mset = json.load(fh)
        with open(os.path.join(self.dir, "sol.json"), encoding="utf-8") as fh:
            sol = json.load(fh)
        m = mset["m"]
        mats = {d["kind"]: _pairs(d["entries"]).reshape(m, m) for d in mset["matrices"]}
        c1, c2 = mats["hermitian"], mats["transpose"]
        if ref.relative_error(c1, ref.covariance(self.data)) > 1e-10:
            problems.append("estimated covariance differs from the reference")
        if ref.relative_error(c2, ref.pseudo_covariance(self.data)) > 1e-10:
            problems.append("estimated pseudo-covariance differs from the reference")
        x = _pairs(sol["x"]).reshape(m, m)
        if ref.offdiag_ratio(x, c1, transpose=False) > 1e-8:
            problems.append("solution does not diagonalize the covariance")
        if ref.put_certificate(x, c2) > 1e-8 * m:
            problems.append("solution fails X^H C2 conj(X) = I")
        score = ref.amari(x.conj().T @ self.a)
        self.summary["amari"] = score
        if score > AMARI_BOUND_CLI:
            problems.append(f"Amari index {score:.4f} above {AMARI_BOUND_CLI}")
        lam = _pairs(sol["lambda"])
        own = "NotUnique" if ref.modulus_product_pairs(np.ones(m), lam.real) else "Unique"
        got = json.loads(self.passes[-1]["check_stdout"])["verdict"]
        if got != "Unique" or own != "Unique":
            problems.append(f"check verdict {got}, reference verdict {own}")
        return problems


def _pairs(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


# ---------------------------------------------------------------------------
# simulate_sut and simulate_cum4


class Simulate:
    """Seeded run_experiment batches of BATCH trials at T = 1e5."""

    def __init__(self, name: str, doc: dict, amari_bound: float, seed: int):
        self.name = name
        self.doc = doc
        self.amari_bound = amari_bound
        self.seed = seed
        self.batches = []
        self.mismatches = []
        self.attempted = self.failed = 0
        self.summary = {"not_unique_trials": 0}

    def config(self, batch: int):
        return nio.config_from_dict(dict(self.doc, seed=self.seed * 1000 + batch))

    def setup(self, tracer=None):
        self.first = self.config(0)

    def _batch(self, b: int):
        cfg = self.config(b)
        t0 = time.perf_counter()
        report = run_experiment(cfg)
        wall = time.perf_counter() - t0
        self.batches.append((cfg, report))
        self.attempted += len(report["trials"])
        self.failed += report["aggregate"]["failed"]
        return report, wall

    def measure(self, seconds: float) -> list:
        report, _ = self._batch(0)  # warm-up batch, kept for the rerun check
        self.first_text = nio.write_json(report)
        return [self._batch(b + 1)[1] / BATCH for b in _until(seconds)]

    def traced_round(self, tracer, i: int, with_baseline: bool) -> float:
        report, base = self._batch(i)
        traced = 0.0
        with tracer.wrapped(nsim, ("covariance", "pseudo_covariance", "cumulant_slice"), "statistics"):
            for trial, want in enumerate(report["trials"]):
                tracer.group = f"{self.name}:{i}:{trial}"
                t0 = time.perf_counter()
                got = rebuild_trial(self.batches[-1][0], trial, tracer)
                traced += time.perf_counter() - t0
                self.attempted += 1
                bad = [k for k in got if k in want and not _agree(got[k], want[k])]
                if bad or want.get("error"):
                    self.mismatches.append((i, trial, bad, want.get("error")))
        return traced - base if with_baseline else 0.0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _population_rows(self, cfg, trial):
        specs = cfg.sources
        powers = np.array([s.power for s in specs])
        if self.doc is SUT_CONFIG:
            sym = np.array([s.circularity for s in specs]) * powers
        else:
            # The mixing draw comes from the first spawned stream only, so a
            # short generate() returns the trial's A (verified in check()).
            _, truth = generate(specs, 100, [cfg.seed, trial], cfg.cond_cap)
            sym = ref.cum4_0000_diagonal([s.kind for s in specs], powers, truth.a.matrix)
        return sym[None, :], powers[None, :]

    def check(self) -> list:
        problems = [f"trace rebuild disagrees with run_trial: {m}" for m in self.mismatches]
        amaris = []
        for cfg, report in self.batches:
            if report["aggregate"]["failed"]:
                problems.append(f"seed {cfg.seed}: {report['aggregate']['failed']} failed trials")
            for rec in report["trials"]:
                if rec["error"]:
                    problems.append(f"seed {cfg.seed} trial {rec['trial']}: {rec['error']}")
                    continue
                amaris.append(rec["amari"])
                own = ref.expected_verdict(*self._population_rows(cfg, rec["trial"]), tol=cfg.margin)
                if rec["identifiability"] != own:
                    problems.append(
                        f"seed {cfg.seed} trial {rec['trial']}: verdict "
                        f"{rec['identifiability']}, reference {own}"
                    )
                self.summary["not_unique_trials"] += own != "Unique"
        self.summary["amari_median"] = statistics.median(amaris) if amaris else None
        if amaris and statistics.median(amaris) > self.amari_bound:
            problems.append(f"median Amari {statistics.median(amaris):.4f} > {self.amari_bound}")
        if getattr(self, "first_text", None) is not None:
            if nio.write_json(run_experiment(self.first)) != self.first_text:
                problems.append("rerun of the first batch is not byte-identical")
            if self.doc is CUM4_CONFIG:
                full = generate(self.first.sources, T, [self.first.seed, 0])[1].a.matrix
                short = generate(self.first.sources, 100, [self.first.seed, 0])[1].a.matrix
                if not np.array_equal(full, short):
                    problems.append("mixing draw depends on T; population check invalid")
        return problems


def _agree(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return _close(got, want)
    return got == want


def rebuild_trial(cfg, trial: int, tr) -> dict:
    """run_trial's record, rebuilt from the public steps with a span around each."""
    rec = {}
    with tr.span("simulation.generate", "simulation"):
        sources, truth = generate(cfg.sources, cfg.T, [cfg.seed, trial], cfg.cond_cap)
    with tr.span("simulation.mix", "simulation"):
        w = mix(sources, truth.a)
    with tr.span("simulation.population_stacks", "simulation"):
        sym, herm, _ = population_stacks(truth, cfg.statistics, cfg.T)
    with tr.span("uniqueness.identifiability_master", "uniqueness"):
        master = identifiability_master(sym if sym.n else None, herm if herm.n else None, cfg.margin)
    rec.update(identifiability=master.verdict, rho_transpose=master.rho_transpose,
               rho_hermitian=master.rho_hermitian)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mats = []
        for stat in cfg.statistics:
            with tr.span("statistics.estimate_statistic", "statistics"):
                mats.extend(estimate_statistic(stat, w))
        c1 = next(t for t in mats if t.kind is CongruenceKind.HERMITIAN)
        c2 = next(t for t in mats if t.kind is CongruenceKind.TRANSPOSE)
        with tr.span(f"solvers.{cfg.solver}", "solvers"):
            res = (sut if cfg.solver == "sut" else put)(c1, c2)
    rec.update(eig_gap=res.eig_gap, residual_identity=res.residual_identity,
               residual_offdiag=res.residual_offdiag)
    with tr.span("simulation.amari_index", "simulation"):
        rec["amari"] = amari_index(res.x.matrix.conj().T @ truth.a.matrix)
    with tr.span("core.GLElement", "core"):
        target = GLElement(np.linalg.inv(truth.a.matrix).conj().T)
    with tr.span("core.is_essentially_equivalent", "core"):
        eq, _ = is_essentially_equivalent(res.x, target, cfg.equiv_tol)
    rec["essentially_equivalent"] = bool(eq)
    return rec


# ---------------------------------------------------------------------------
# certify_solve


def _unitary(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ratio_pair(rng, m, pair=None):
    """(t, h): |t_k|/|h_k| pairwise >= 8% apart, except equal at ``pair``."""
    h = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
    r = np.exp(rng.permutation(0.1 * np.arange(m) + rng.uniform(0.0, 0.02, m)))
    if pair is not None:
        r[pair[1]] = r[pair[0]]
    return r * np.abs(h) * np.exp(2j * np.pi * rng.uniform(size=m)), h


def make_round(rng, r: int) -> list:
    """Fifteen instances: for each m, a Unique scan, a NotUnique pair, a multi-row family.

    The scan stops at the first matching pair in row-major order, so the
    NotUnique cost depends on where the pair sits.  Round r of the pool puts
    it at the (r / POOL_ROUNDS) quantile of that order, which gives every
    seed the same spread of positions and the same cost.
    """
    out = []
    for i, m in enumerate(MS):
        t, h = _ratio_pair(rng, m)
        a = (_unitary(rng, m) * np.exp(rng.uniform(0.0, np.log(10.0), m))) @ _unitary(rng, m)
        out.append({
            "kind": "scan", "m": m, "sym": t[None, :], "herm": h[None, :], "a": a,
            "c1": a @ np.diag(h) @ a.conj().T, "c2": a @ np.diag(t) @ a.T,
            "verdict": "Unique", "rule": "Identifiability-iii", "pair": None,
        })
        pairs = [(k, l) for k in range(m) for l in range(k + 1, m)]
        pair = pairs[r * len(pairs) // POOL_ROUNDS]
        t, h = _ratio_pair(rng, m, pair)
        out.append({"kind": "not_unique", "m": m, "sym": t[None, :], "herm": h[None, :],
                    "verdict": "NotUnique", "rule": "Identifiability-iii", "pair": pair})
        rows_s = 3 if i % 2 == 0 else 1
        rows_h = 1 if i % 2 == 0 else 3
        out.append({
            "kind": "branch_i" if i % 2 == 0 else "branch_ii", "m": m,
            "sym": rng.standard_normal((rows_s, m)) + 1j * rng.standard_normal((rows_s, m)),
            "herm": rng.standard_normal((rows_h, m)),
            "verdict": "Unique", "rule": "Identifiability-i" if i % 2 == 0 else "Identifiability-ii",
            "pair": None,
        })
    return out


class CertifySolve:
    """Certify every instance; solve the Unique scan instances with put."""

    name = "certify_solve"

    def __init__(self, seed: int):
        self.seed = seed
        self.outcomes = []
        self._kept = set()
        self.attempted = self.failed = 0
        self.summary = {}

    def setup(self, tracer=None):
        rng = np.random.default_rng([self.seed, 3])
        self.pool = [make_round(rng, r) for r in range(POOL_ROUNDS)]

    def _instance(self, inst, tr=None):
        with _maybe_span(tr, "core.DiagonalStack", "core"):
            sym = DiagonalStack(CongruenceKind.TRANSPOSE, inst["sym"])
        with _maybe_span(tr, "core.DiagonalStack", "core"):
            herm = DiagonalStack(CongruenceKind.HERMITIAN, inst["herm"])
        if inst["kind"] == "scan":
            with _maybe_span(tr, "core.TaggedMatrix", "core"):
                c1 = TaggedMatrix(inst["c1"], CongruenceKind.HERMITIAN)
            with _maybe_span(tr, "core.TaggedMatrix", "core"):
                c2 = TaggedMatrix(inst["c2"], CongruenceKind.TRANSPOSE)
            with _maybe_span(tr, "core.GLElement", "core"):
                GLElement(inst["a"])
        with _maybe_span(tr, "uniqueness.identifiability_master", "uniqueness",
                         m=inst["m"], kind=inst["kind"]) as sp:
            rep = identifiability_master(sym, herm)
            if sp is not None:
                sp["witness"] = rep.witness is not None
        res = None
        if inst["kind"] == "scan" and rep.unique:
            with _maybe_span(tr, "solvers.put", "solvers", m=inst["m"]):
                res = put(c1, c2)
        return rep, res

    def _keep(self, inst, rep, res, err):
        """Keep the first outcome of each instance and each verdict, for check()."""
        key = (id(inst), None if rep is None else rep.verdict, err)
        if key not in self._kept:
            self._kept.add(key)
            self.outcomes.append((inst, rep, res, err))

    def _round(self, r: int, tr=None) -> float:
        """Run one pool round; returns the wall time spent in program calls."""
        wall = 0.0
        for j, inst in enumerate(self.pool[r % POOL_ROUNDS]):
            if tr:
                tr.group = f"round-{r}:{j}"
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                rep, res = self._instance(inst, tr)
            except (NujdError, np.linalg.LinAlgError) as exc:
                wall += time.perf_counter() - t0
                self.failed += 1
                self._keep(inst, None, None, type(exc).__name__)
                continue
            wall += time.perf_counter() - t0
            self._keep(inst, rep, res, None)
            if tr and inst["kind"] == "scan" and inst["m"] == MS[-1]:
                self._linalg_steps(inst, tr)
        return wall

    @staticmethod
    def _linalg_steps(inst, tr):
        """The put pipeline's factorizations, called on the instance's own matrices."""
        with tr.span("linalg.takagi", "linalg", m=inst["m"]):
            tak = takagi(inst["c2"])
        isq = 1.0 / np.sqrt(tak.sigma)
        c1t = isq[:, None] * (tak.u.conj().T @ inst["c1"] @ tak.u) * isq[None, :]
        c1t = (c1t + c1t.conj().T) / 2.0
        with tr.span("linalg.general_evd", "linalg", m=inst["m"]):
            w, _ = general_evd(c1t @ c1t.T)
        with tr.span("linalg.symmetric_orthogonalize", "linalg", m=inst["m"]):
            symmetric_orthogonalize(w)

    def _cycle(self) -> float:
        """Run every pool round once; returns the wall time per instance."""
        wall = sum(self._round(r) for r in range(POOL_ROUNDS))
        return wall / sum(len(rnd) for rnd in self.pool)

    def measure(self, seconds: float) -> list:
        # Every measured operation is the same work, so the median does not
        # depend on how many rounds of which kind fitted into the run.
        self._cycle()  # warm-up
        return [self._cycle() for _ in _until(seconds)]

    def traced_round(self, tracer, i: int, with_baseline: bool) -> float:
        base = self._round(i) if with_baseline else 0.0
        traced = self._round(i, tracer)
        return traced - base if with_baseline else 0.0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self) -> list:
        problems = []
        for inst in {id(o[0]): o[0] for o in self.outcomes}.values():
            own = ref.expected_verdict(inst["sym"], inst["herm"])
            if own != inst["verdict"]:
                problems.append(f"construction gives {own}, expected {inst['verdict']}")
        for inst, rep, res, err in self.outcomes:
            tag = f"{inst['kind']} m={inst['m']}"
            if err:
                problems.append(f"{tag}: raised {err}")
                continue
            if rep.verdict != inst["verdict"] or rep.rule_fired != inst["rule"]:
                problems.append(f"{tag}: {rep.verdict}/{rep.rule_fired}, expected {inst['verdict']}/{inst['rule']}")
            if rep.verdict == "NotUnique":
                if rep.witness is None or tuple(rep.violating_pair) != inst["pair"]:
                    problems.append(f"{tag}: witness missing or at the wrong pair")
                    continue
                x = rep.witness.matrix
                resid = ref.witness_residual(x, inst["sym"], inst["herm"])
                dist = ref.pattern_distance(x)
                if resid > WITNESS_RESIDUAL_MAX or dist <= WITNESS_DISTANCE_MIN:
                    problems.append(f"{tag}: witness residual {resid:.2e}, pattern distance {dist:.3f}")
            if inst["kind"] == "scan":
                if res is None or not ref.is_diag_times_perm(res.x.matrix.conj().T @ inst["a"]):
                    problems.append(f"{tag}: X^H A is not diagonal times a permutation")
        return problems


def make(name: str, seed: int, workdir: str, src: str):
    if name == "cli_pipeline":
        return CliPipeline(seed, workdir, src)
    if name == "simulate_sut":
        return Simulate(name, SUT_CONFIG, AMARI_BOUND_SUT, seed)
    if name == "simulate_cum4":
        return Simulate(name, CUM4_CONFIG, AMARI_BOUND_CUM4, seed)
    if name == "certify_solve":
        return CertifySolve(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("cli_pipeline", "simulate_sut", "simulate_cum4", "certify_solve")
