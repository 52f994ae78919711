import gc
import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import nujd
import nujd.cli
import nujd.simulation
from nujd import io as nio
from nujd.cli import main
from nujd.core import CongruenceKind, DiagonalStack, GLElement, TaggedMatrix
from nujd.simulation import SourceSpec, generate, mix

from conftest import BAD_TOLERANCES, run_fresh


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def write_signal(path, seed=5, t=20000):
    specs = (
        SourceSpec("noncircular_gaussian", circularity=0.9),
        SourceSpec("noncircular_gaussian", circularity=0.3),
    )
    src, truth = generate(specs, t, seed)
    nio.write_json(nio.signal_to_dict(mix(src, truth.a)), path)
    return truth


def write_spectra(path, collinear):
    if collinear:
        sym = DiagonalStack(CongruenceKind.TRANSPOSE, np.array([[1 + 1j, 2 + 2j]]))
        herm = None
    else:
        sym = DiagonalStack(CongruenceKind.TRANSPOSE, np.array([[1.0, 0], [0, 1j]]))
        herm = DiagonalStack(CongruenceKind.HERMITIAN, np.array([[1.0, 0], [0, 1.0]]))
    nio.write_json(nio.stacks_to_dict(sym, herm), path)


class TestCheck:
    def test_collinear_exits_3_with_witness(self, runner, tmp_path):
        path = tmp_path / "s.json"
        write_spectra(path, collinear=True)
        res = invoke(runner, "check", str(path))
        assert res.exit_code == 3
        doc = json.loads(res.output)
        assert doc["verdict"] == "NotUnique" and doc["witness"] is not None

    def test_rho_zero_exits_0(self, runner, tmp_path):
        path = tmp_path / "s.json"
        write_spectra(path, collinear=False)
        res = invoke(runner, "check", str(path))
        assert res.exit_code == 0
        assert json.loads(res.output)["verdict"] == "Unique"

    def test_malformed_json_exits_1_with_position(self, runner, tmp_path):
        cases = [
            (b'{"m": 2, "spectra": [\n', "invalid JSON at line 2, column 1"),
            (b'\xff\xfe{"m": 2}', "not UTF-8 text (invalid start byte at byte 0)"),
            (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
            (b'{"a": ' * 100_000 + b"1" + b"}" * 100_000, "JSON nested too deeply"),
            (b'{"channels": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "JSON nested too deeply"),
        ]
        for i, (content, message) in enumerate(cases):
            path = tmp_path / f"bad{i}.json"
            path.write_bytes(content)
            res = runner.invoke(main, ["check", str(path)], catch_exceptions=False)
            assert res.exit_code == 1
            assert f"error: {path}: {message}" in res.output

    def test_diagonal_matrix_set_accepted(self, runner, tmp_path):
        items = [
            TaggedMatrix(np.diag([1.0, 2.0]), CongruenceKind.HERMITIAN),
            TaggedMatrix(np.diag([1 + 1j, 2.0]), CongruenceKind.TRANSPOSE),
        ]
        path = tmp_path / "d.json"
        nio.write_json(nio.matrix_set_to_dict(items), path)
        res = invoke(runner, "check", str(path))
        assert res.exit_code == 0

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"m": 2, "spectra": [{"kind": "bogus", "diag": [[1, 0], [2, 0]]}]}, "spectra[0].kind"),
            ({"m": 2, "spectra": [{"diag": [[1, 0], [2, 0]]}]}, "spectra[0].kind"),
            (
                {"m": 2, "matrices": [{"kind": "bogus", "entries": [[1, 0], [0, 0], [0, 0], [2, 0]]}]},
                "matrices[0].kind",
            ),
            ({"m": 2, "matrices": [{"entries": [[1, 0], [0, 0], [0, 0], [2, 0]]}]}, "matrices[0].kind"),
        ],
    )
    def test_bad_kind_exits_1_naming_the_json_path(self, runner, tmp_path, doc, path):
        src = tmp_path / "k.json"
        nio.write_json(doc, src)
        for command in ("check", "solve") if "matrices" in doc else ("check",):
            res = invoke(runner, command, str(src))
            assert res.exit_code == 1
            assert f"error: {path}" in res.output

    @pytest.mark.parametrize(
        "spectra, code, options",
        [
            # not identifiable: a negative tolerance used to certify it Unique
            (([0.5, 0.5],), 3, [["--tol", "-1"], ["--margin", "-0.5"]]),
            # identifiable: a tolerance of 1 or more used to "verify" a witness
            (([1, 0.2], [0.3, 1]), 0, [["--tol", "2"], ["--margin", "inf"], ["--tol", "nan"]]),
        ],
    )
    def test_out_of_range_tolerance_exits_1_naming_the_value(self, runner, tmp_path, spectra, code, options):
        sym = DiagonalStack(CongruenceKind.TRANSPOSE, np.array(spectra, dtype=complex))
        herm = DiagonalStack(CongruenceKind.HERMITIAN, np.array([[1.0, 1.0 if code else 2.0]]))
        path = tmp_path / "sp.json"
        nio.write_json(nio.stacks_to_dict(sym, herm), path)
        assert invoke(runner, "check", str(path)).exit_code == code
        for option, value in options:
            res = invoke(runner, "check", str(path), option, value)
            assert res.exit_code == 1
            assert res.output == f"error: {option} must be finite and lie in [0, 1), got {float(value)}\n"

    def test_empty_spectra_exits_1(self, runner, tmp_path):
        path = tmp_path / "e.json"
        nio.write_json({"m": 2, "spectra": []}, path)
        res = invoke(runner, "check", str(path))
        assert res.exit_code == 1
        assert res.output == "error: both stacks are empty\n"

    _MIXED = [TaggedMatrix(np.array([[1.0, 0.3], [0.3, 2.0]]), CongruenceKind.HERMITIAN),
              TaggedMatrix(np.eye(2), CongruenceKind.TRANSPOSE)]

    @pytest.mark.parametrize(
        "items, options",
        [
            ([TaggedMatrix(np.array([[1.0, 0.5], [0.5, 2.0]]), CongruenceKind.HERMITIAN)], []),
            # the diagonality bound is TAU_SYM whatever the certification margin
            (_MIXED, []),
            (_MIXED, ["--margin", "0.5"]),
        ],
        ids=["hermitian-only", "mixed-default-tol", "mixed-margin-0.5"],
    )
    def test_non_diagonal_matrix_set_rejected(self, runner, tmp_path, items, options):
        path = tmp_path / "nd.json"
        nio.write_json(nio.matrix_set_to_dict(items), path)
        res = runner.invoke(main, ["check", str(path), *options])
        assert res.exit_code == 1
        assert "must hold diagonal matrices" in res.output
        assert "solve" in res.output


class TestScaledProbes:
    """Inputs past the range of an unscaled Frobenius norm exit as they do at unit scale."""

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_check_rejects_a_non_diagonal_set(self, runner, tmp_path, scale):
        path = tmp_path / "nd.json"
        nio.write_json(nio.matrix_set_to_dict(
            [TaggedMatrix(t.matrix * scale, t.kind) for t in TestCheck._MIXED]), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = invoke(runner, "check", str(path))
        assert res.exit_code == 1
        assert res.stderr == (
            "error: matrix-set input to check must hold diagonal matrices "
            "(ground-truth spectra); run solve first for estimated sets\n"
        )

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e200, 1e-200])
    def test_solve_rejects_a_non_symmetric_transpose_matrix(self, runner, tmp_path, scale):
        # written entry by entry: TaggedMatrix would reject the second matrix
        path = tmp_path / "ns.json"
        nio.write_json({"m": 2, "matrices": [
            {"kind": "hermitian", "entries": nio._pairs(np.diag([2.0, 1.0]) * scale)},
            {"kind": "transpose", "entries": nio._pairs(np.array([[1.0, 1.0], [1.001, 1.0]]) * scale)},
        ]}, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = invoke(runner, "solve", str(path), "--method", "put")
        assert res.exit_code == 1
        assert res.stderr == "error: matrix is not transpose-symmetric: relative error 7.069e-04 > 1e-08\n"


_SIMULATE_DOC = {
    "sources": [{"kind": "bpsk"}, {"kind": "qpsk"}],
    "T": 1000,
    "seed": 1,
    "statistics": [{"statistic": "covariance"}, {"statistic": "pseudo_covariance"}],
}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("check", {"m": 2, "matrices": 5}, "matrices must be a list"),
        ("check", {"m": "x", "spectra": []}, "m must be a positive integer, got 'x'"),
        ("check", 5, "document must be an object"),
        ("solve", {"m": 2, "matrices": 5}, "matrices must be a list"),
        ("estimate", {"m": 2, "T": 100, "channels": 7}, "channels must be a list"),
        ("simulate", 5, "document must be an object"),
        ("simulate --seed 3", 5, "document must be an object"),
        ("simulate", dict(_SIMULATE_DOC, sources=5), "sources must be a list"),
        ("simulate", dict(_SIMULATE_DOC, T="x"), "T must be a positive integer, got 'x'"),
        ("simulate", dict(_SIMULATE_DOC, statistics=[5]), "statistics[0] must be an object"),
        ("check", {"m": 2}, "input is neither a spectra file nor a matrix-set file"),
        (
            "check",
            {"m": 2, "spectra": [{"kind": "transpose", "diag": [["1", "0"], ["2", "0"]]}]},
            "spectra[0].diag must hold numeric [re, im] pairs",
        ),
        (
            "check",
            {"m": 2, "spectra": [{"kind": "hermitian", "diag": [[True, 0], [2, 0]]}]},
            "spectra[0].diag must hold numeric [re, im] pairs",
        ),
        (
            "solve",
            {"m": 1, "matrices": [{"kind": "hermitian", "entries": [[10**400, 0]]}]},
            "matrices[0].entries must hold numeric [re, im] pairs",
        ),
        (
            "solve",
            {"m": 1, "matrices": [{"kind": "hermitian", "entries": [[None, 0]]}]},
            "matrices[0].entries must hold numeric [re, im] pairs",
        ),
        (
            "estimate",
            {"m": 1, "T": 2, "channels": [[["1", "0"], [2.0, 0.0]]]},
            "channels[0] must hold numeric [re, im] pairs",
        ),
        (
            "simulate",
            dict(
                _SIMULATE_DOC,
                sources=[{"kind": "block_nonstationary", "variance_profile": [1, 2]}, {"kind": "bpsk"}],
                statistics=[{"statistic": "windowed_covariance", "windows": [[0, 0], [500, 500]]}],
                solver="gevd",
            ),
            "statistics[0]: bad window (start=0, length=0)",
        ),
        (
            "simulate",
            dict(_SIMULATE_DOC, statistics=[{"statistic": "autocorrelation", "lag": 1, "prat": "skew"}]),
            "statistics[0] has unknown fields ['prat']",
        ),
        (
            "simulate",
            dict(_SIMULATE_DOC, statistics=[{"statistic": "covariance", "part": "skew"}]),
            "statistics[0] has unknown fields ['part']",
        ),
        (
            "simulate",
            dict(_SIMULATE_DOC, statistics=[{"statistic": "pseudo_autocorrelation", "lag": 1, "windows": 3}]),
            "statistics[0] has unknown fields ['windows']",
        ),
        (
            "simulate",
            dict(_SIMULATE_DOC, statistics=[{"statistic": "bogus"}]),
            "statistics[0].statistic must be one of 'covariance', ",
        ),
        # unhashable names used to end in a TypeError traceback
        (
            "simulate",
            dict(_SIMULATE_DOC, statistics=[{"statistic": []}]),
            "statistics[0].statistic must be one of 'covariance', ",
        ),
        (
            "simulate",
            dict(_SIMULATE_DOC, statistics=[{"statistic": {"a": 1}}]),
            "statistics[0].statistic must be one of 'covariance', ",
        ),
    ],
)
def test_malformed_document_exits_1_naming_the_field(runner, tmp_path, command, doc, message):
    src = tmp_path / "bad.json"
    nio.write_json(doc, src)
    command, *options = command.split()
    extra = ["--cov"] if command == "estimate" else []
    res = invoke(runner, command, str(src), *options, *extra)
    assert res.exit_code == 1
    assert f"error: {message}" in res.output


_STARTUP_PROBE = """
import json, sys
import nujd, nujd.io, nujd.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_import = scipy_modules()
codes = []
for args in json.loads(sys.argv[1]):
    try:
        nujd.cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps({"after_import": after_import, "after_commands": scipy_modules(), "codes": codes}))
"""


def _run_startup_probe(commands) -> dict:
    """Run ``commands`` in one fresh interpreter; its scipy modules and exit codes."""
    return run_fresh(_STARTUP_PROBE, json.dumps(commands))


class TestStartup:
    def test_import_and_generic_commands_load_no_scipy(self, tmp_path, rng):
        spectra = tmp_path / "s.json"
        write_spectra(spectra, collinear=False)
        a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        items = [
            TaggedMatrix(a @ a.conj().T, CongruenceKind.HERMITIAN),
            TaggedMatrix(a @ np.diag([0.9, 0.3]) @ a.T, CongruenceKind.TRANSPOSE),
        ]
        pair = tmp_path / "set.json"
        nio.write_json(nio.matrix_set_to_dict(items), pair)
        # a PUT whose C2 has a repeated Takagi value, as in a clustered spectrum
        b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        repeated = tmp_path / "repeated.json"
        nio.write_json(nio.matrix_set_to_dict([
            TaggedMatrix(b @ b.conj().T, CongruenceKind.HERMITIAN),
            TaggedMatrix(q @ np.diag([1.0, 1.0, 0.5]) @ q.T, CongruenceKind.TRANSPOSE),
        ]), repeated)
        out = _run_startup_probe([["check", str(spectra)], ["solve", str(pair), "--method", "sut"],
                                  ["solve", str(repeated), "--method", "put"]])
        assert out["codes"] == [0, 0, 0]
        assert out["after_import"] == []
        assert not {"scipy.linalg", "scipy.signal"} & set(out["after_commands"])

    def test_ar1_simulate_loads_the_blas_module_alone(self, tmp_path):
        # an AR(1) source is a BLAS banded solve from scipy's compiled BLAS
        # module: the scipy.linalg package would add about 28 MB to a
        # simulate run's peak RSS, scipy.signal about 76 MB
        cfg = tmp_path / "cfg.json"
        nio.write_json({
            "sources": [{"kind": "ar1_noncircular", "circularity": 0.9, "coefficient": 0.9},
                        {"kind": "ar1_noncircular", "circularity": 0.3, "coefficient": -0.5}],
            "T": 2000, "seed": 3, "trials": 1, "solver": "sut",
            "statistics": [{"statistic": "covariance"}, {"statistic": "pseudo_covariance"}],
        }, cfg)
        out = _run_startup_probe([["simulate", str(cfg), "--out", str(tmp_path / "report.json")]])
        assert out["codes"] == [0]
        assert nio.read_json(tmp_path / "report.json")["aggregate"]["failed"] == 0
        assert "scipy.linalg._fblas" in out["after_commands"]
        assert not {"scipy.linalg", "scipy.signal"} & set(out["after_commands"])


class TestEstimateAndSolve:
    def test_signal_decode_runs_no_collection(self, runner, tmp_path, monkeypatch):
        # the signal document is about 2 T fresh pair lists; with the cyclic
        # GC back on while they lived, the next allocation collected over all
        # of them (30-40 ms per estimate of a 4 x 1e5 signal)
        sig = tmp_path / "sig.json"
        write_signal(sig, t=2000)
        events = []
        read, check = nio.read_json, nio._statistic_from_dict
        monkeypatch.setattr(nio, "read_json", lambda path: events.append("read") or read(path))
        monkeypatch.setattr(nio, "_statistic_from_dict", lambda *a: events.append("check") or check(*a))

        def on_gc(phase, info):
            if phase == "start":
                events.append("collect")

        gc.collect()
        gc.callbacks.append(on_gc)
        try:
            result = invoke(runner, "estimate", str(sig), "--cov")
        finally:
            gc.callbacks.remove(on_gc)
        assert result.exit_code == 0
        assert gc.isenabled()
        # from reading the file to checking the first flag
        assert events[: events.index("check") + 1] == ["read", "check"]

    def test_pipe_compatibility(self, runner, tmp_path):
        sig = tmp_path / "sig.json"
        est = tmp_path / "est.json"
        sol = tmp_path / "sol.json"
        truth = write_signal(sig)
        res = invoke(runner, "estimate", str(sig), "--cov", "--pseudocov", "--out", str(est))
        assert res.exit_code == 0
        doc = nio.read_json(est)
        assert doc["m"] == 2 and len(doc["matrices"]) == 2
        assert doc["provenance"]["recipe"][0]["statistic"] == "covariance"
        res = invoke(runner, "solve", str(est), "--method", "sut", "--tol", "0.05", "--out", str(sol))
        assert res.exit_code == 0
        out = nio.read_json(sol)
        assert out["tolerance_met"] is True
        assert out["input_digest"] == nio.file_digest(est)
        pairs = np.array(out["x"])
        x = GLElement((pairs[:, 0] + 1j * pairs[:, 1]).reshape(out["m"], out["m"]))
        g = x.matrix.conj().T @ truth.a.matrix
        from nujd.simulation import amari_index

        assert amari_index(g) < 0.1

    def test_estimate_output_roundtrips_byte_identical(self, runner, tmp_path):
        sig = tmp_path / "sig.json"
        est = tmp_path / "est.json"
        est2 = tmp_path / "est2.json"
        write_signal(sig, t=2000)
        invoke(runner, "estimate", str(sig), "--cov", "--out", str(est))
        doc = nio.read_json(est)
        nio.write_json(doc, est2)
        assert est.read_bytes() == est2.read_bytes()

    def test_lag_flag_emits_put_pair(self, runner, tmp_path):
        sig = tmp_path / "sig.json"
        est = tmp_path / "est.json"
        write_signal(sig, t=5000)
        res = invoke(runner, "estimate", str(sig), "--lag", "1", "--out", str(est))
        assert res.exit_code == 0
        kinds = [m["kind"] for m in nio.read_json(est)["matrices"]]
        assert sorted(kinds) == ["hermitian", "transpose"]

    def test_cum4_flag(self, runner, tmp_path):
        sig = tmp_path / "sig.json"
        est = tmp_path / "est.json"
        write_signal(sig, t=5000)
        res = invoke(
            runner, "estimate", str(sig), "--cum4", "0000", "3,4", "1,1", "--out", str(est)
        )
        assert res.exit_code == 0
        doc = nio.read_json(est)
        assert doc["matrices"][0]["kind"] == "transpose"

    def test_window_flag(self, runner, tmp_path):
        sig = tmp_path / "sig.json"
        write_signal(sig, t=4000)
        res = invoke(runner, "estimate", str(sig), "--window", "0:2000", "--window", "2000:2000")
        assert res.exit_code == 0
        assert len(json.loads(res.output)["matrices"]) == 2

    def test_empty_recipe_exits_2(self, runner, tmp_path):
        sig = tmp_path / "sig.json"
        write_signal(sig, t=2000)
        res = runner.invoke(main, ["estimate", str(sig)])
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "method, kinds, message",
        [
            ("put", ["hermitian", "hermitian"],
             "put needs exactly one Hermitian and one transpose matrix, got 2 + 0"),
            ("sut", ["hermitian", "transpose", "transpose"],
             "sut needs exactly one Hermitian and one transpose matrix, got 1 + 2"),
            ("gevd", ["hermitian", "transpose"], "gevd needs exactly two matrices of one kind"),
        ],
        ids=["put", "sut", "gevd"],
    )
    def test_wrong_kinds_exit_2(self, runner, tmp_path, method, kinds, message):
        # the same solve_pair message that a simulate trial records
        items = [
            TaggedMatrix(np.diag([1.0 + i, 2.0]), CongruenceKind(kind))
            for i, kind in enumerate(kinds)
        ]
        path = tmp_path / "wrong.json"
        nio.write_json(nio.matrix_set_to_dict(items), path)
        res = runner.invoke(main, ["solve", str(path), "--method", method])
        assert res.exit_code == 2
        assert res.stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "herm, second, method, name",
        [
            (np.diag([1.0, 2.0]), TaggedMatrix(np.diag([1.0, 0.0]), CongruenceKind.TRANSPOSE),
             "put", "SingularPseudoCovariance"),
            # C1 C2^{-1} = [[1, -1], [1, -1]] is nilpotent, so the pencil is defective
            (np.ones((2, 2)), TaggedMatrix(np.diag([1.0, -1.0]), CongruenceKind.HERMITIAN),
             "gevd", "DefectiveMatrix"),
        ],
        ids=["put-singular-pseudo", "gevd-defective"],
    )
    def test_singular_pseudo_exits_4(self, runner, tmp_path, herm, second, method, name):
        items = [TaggedMatrix(herm, CongruenceKind.HERMITIAN), second]
        path = tmp_path / "sing.json"
        nio.write_json(nio.matrix_set_to_dict(items), path)
        res = runner.invoke(main, ["solve", str(path), "--method", method])
        assert res.exit_code == 4
        assert res.stderr.startswith(f"error: {name}:")

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_out_of_range_tolerance_exits_1_naming_the_value(self, runner, tmp_path, tol):
        # the rule check --tol follows: unchecked, nan and -1 would exit 4 and
        # inf and 2 exit 0 with tolerance_met true whatever the residuals
        items = [
            TaggedMatrix(np.diag([1.0, 2.0]), CongruenceKind.HERMITIAN),
            TaggedMatrix(np.diag([1.0 + 1.0j, 3.0]), CongruenceKind.TRANSPOSE),
        ]
        path = tmp_path / "set.json"
        nio.write_json(nio.matrix_set_to_dict(items), path)
        assert invoke(runner, "solve", str(path)).exit_code == 0
        res = invoke(runner, "solve", str(path), "--tol", str(tol))
        assert res.exit_code == 1
        assert res.output == f"error: --tol must be finite and lie in [0, 1), got {tol}\n"

    def test_gevd_method(self, runner, tmp_path, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        items = [
            TaggedMatrix(a @ np.diag([1.0, 3.0]) @ a.conj().T, CongruenceKind.HERMITIAN),
            TaggedMatrix(a @ a.conj().T, CongruenceKind.HERMITIAN),
        ]
        path = tmp_path / "g.json"
        nio.write_json(nio.matrix_set_to_dict(items), path)
        res = invoke(runner, "solve", str(path), "--method", "gevd")
        assert res.exit_code == 0

    def test_outputs_roundtrip_byte_identical(self, runner, tmp_path):
        # solution files and check reports re-serialize to the same bytes
        sig = tmp_path / "sig.json"
        est = tmp_path / "est.json"
        sol = tmp_path / "sol.json"
        write_signal(sig, t=5000)
        invoke(runner, "estimate", str(sig), "--cov", "--pseudocov", "--out", str(est))
        invoke(runner, "solve", str(est), "--method", "sut", "--tol", "0.05", "--out", str(sol))
        assert nio.write_json(nio.read_json(sol)).encode() == sol.read_bytes()
        spectra = tmp_path / "sp.json"
        rep = tmp_path / "rep.json"
        write_spectra(spectra, collinear=True)
        res = runner.invoke(main, ["check", str(spectra), "--out", str(rep)])
        assert nio.write_json(nio.read_json(rep)).encode() == rep.read_bytes()
        # check prints the report it writes
        assert res.stdout.encode() == rep.read_bytes()


@pytest.mark.parametrize(
    "flags",
    [
        "--cum4 0000 5,6 1,1",
        "--cum4 0000 1,2,3 1",
        "--cum4 0000 1,1 1,1",
        "--cum4 0000 3,4 0,1",
        "--cum4 0000 3,4 1,3",
        "--cum4 00000 3,4 1,1",
        "--lag -1",
        "--lag T",
        "--window 0:0",
        "--window a",
        "--cov --window 0:1",
    ],
)
def test_estimate_flag_errors_exit_2(runner, tmp_path, monkeypatch, flags):
    # every entry is checked before any is estimated, so nothing reaches stdout
    def no_estimate(stat, w):
        raise AssertionError(f"estimated {stat} before every flag was checked")

    monkeypatch.setattr(nujd.cli, "estimate_statistic", no_estimate)
    sig = tmp_path / "sig.json"
    write_signal(sig, t=2000)
    res = runner.invoke(main, ["estimate", str(sig), *flags.split()])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "error: " in res.output.lower() and "Traceback" not in res.output
    named = [token for token in flags.split() if token.startswith("--")][-1]
    assert named in res.stderr
    assert res.stdout == ""


def test_estimate_provenance_recipe(runner, tmp_path):
    sig = tmp_path / "sig.json"
    write_signal(sig, t=2000)
    flags = "--cov --pseudocov --lag 2 --window 0:1000 --cum4 0011 1,3 1,2".split()
    res = invoke(runner, "estimate", str(sig), *flags)
    assert res.exit_code == 0
    recipe = json.loads(res.output)["provenance"]["recipe"]
    assert json.dumps(recipe) == json.dumps(
        [
            {"statistic": "covariance"},
            {"statistic": "pseudo_covariance"},
            {"statistic": "autocorrelation", "lag": 2, "part": "hermitian"},
            {"statistic": "pseudo_autocorrelation", "lag": 2},
            {"statistic": "windowed_covariance", "windows": [[0, 1000]]},
            {"statistic": "cumulant_slice", "pattern": "0011", "axes": [1, 3], "fixed": [1, 2], "kind": "hermitian"},
        ]
    )


@pytest.fixture(scope="module")
def signal_m3(tmp_path_factory):
    """A three-channel signal of 300 samples."""
    path = tmp_path_factory.mktemp("signal") / "sig.json"
    specs = (SourceSpec("bpsk"), SourceSpec("qpsk"), SourceSpec("circular_gaussian"))
    src, truth = generate(specs, 300, 11)
    nio.write_json(nio.signal_to_dict(mix(src, truth.a)), path)
    return path


# values on both sides of each bound at m = 3, T = 300, most of them inside
_LAGS = st.sampled_from([0, 1, 2, 298, 299, -1, 300])
_STARTS = st.sampled_from([0, 1, 150, 296, 297, -1])
_LENGTHS = st.sampled_from([3, 4, 150, 299, 300, 2, 301])
_PATTERNS = st.sampled_from(["0000", "0101", "0011", "1110", "000", "00000", "0a00", "0201"])
_AXES = st.sampled_from(["1,2", "3,4", "2,4", "4,1", "1,1", "0,2", "4,5", "1,2,3", "1", "x", ""])
_FIXED = st.sampled_from(["1,1", "1,3", "3,2", "0,1", "1,4", "1", "1,2,3", "1.5,1", ""])


@st.composite
def _estimate_flags(draw):
    """(flags, recipe entries a successful run records) for a drawn flag list."""
    flags, entries = [], 0
    for flag in ("--cov", "--pseudocov"):
        if draw(st.booleans()):
            flags.append(flag)
            entries += 1
    for lag in draw(st.lists(_LAGS, max_size=2)):
        flags += ["--lag", str(lag)]
        entries += 2
    windows = draw(st.lists(st.tuples(_STARTS, _LENGTHS), max_size=2))
    for start, length in windows:
        flags += ["--window", f"{start}:{length}"]
    entries += bool(windows)
    for _ in range(draw(st.integers(0, 2))):
        flags += ["--cum4", draw(_PATTERNS), draw(_AXES), draw(_FIXED)]
        entries += 1
    return flags, entries


@settings(max_examples=100, deadline=None)
@given(_estimate_flags())
def test_estimate_flag_lists_exit_0_or_2(signal_m3, drawn):
    flags, entries = drawn
    res = CliRunner().invoke(main, ["estimate", str(signal_m3), *flags])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code in (0, 2), res.output
    if res.exit_code == 0:
        assert len(json.loads(res.stdout)["provenance"]["recipe"]) == entries


class TestSimulate:
    def _config(self, tmp_path, **kw):
        doc = {
            "sources": [
                {"kind": "noncircular_gaussian", "circularity": 0.9},
                {"kind": "noncircular_gaussian", "circularity": 0.3},
            ],
            "T": 10000,
            "seed": 17,
            "trials": 3,
            "statistics": [{"statistic": "covariance"}, {"statistic": "pseudo_covariance"}],
            "solver": "sut",
        }
        doc.update(kw)
        path = tmp_path / "cfg.json"
        nio.write_json(doc, path)
        return path

    def test_batch_runs_and_is_deterministic(self, runner, tmp_path):
        cfg = self._config(tmp_path)
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        assert invoke(runner, "simulate", str(cfg), "--out", str(r1)).exit_code == 0
        assert invoke(runner, "simulate", str(cfg), "--out", str(r2)).exit_code == 0
        assert r1.read_bytes() == r2.read_bytes()
        rep = nio.read_json(r1)
        assert len(rep["trials"]) == 3

    def test_ten_trial_batch(self, runner, tmp_path):
        cfg = self._config(tmp_path, trials=10, T=2000)
        res = invoke(runner, "simulate", str(cfg))
        assert res.exit_code == 0
        assert len(json.loads(res.output)["trials"]) == 10

    def test_unknown_solver_exits_1(self, runner, tmp_path):
        cfg = self._config(tmp_path, solver="banana")
        res = runner.invoke(main, ["simulate", str(cfg)])
        assert res.exit_code == 1

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_thread_variable_is_ignored(self, runner, tmp_path, monkeypatch, value):
        # values the batch once rejected with exit 1 now change nothing
        cfg = self._config(tmp_path)
        monkeypatch.delenv("NUJD_THREADS", raising=False)
        unset = invoke(runner, "simulate", str(cfg))
        monkeypatch.setenv("NUJD_THREADS", value)
        res = invoke(runner, "simulate", str(cfg))
        assert res.exit_code == 0
        assert res.stdout_bytes == unset.stdout_bytes

    def test_part_on_transpose_kind_slice_exits_1(self, runner, tmp_path):
        # Equal conjugation bits on the axes make this slice transpose-kind,
        # and "part" names a half of the Hermitian-kind split.
        slice_ = {"statistic": "cumulant_slice", "pattern": "0000", "axes": [1, 2], "fixed": [1, 1]}
        cfg = self._config(
            tmp_path,
            sources=[{"kind": "bpsk"}, {"kind": "qpsk"}],
            T=2000,
            seed=3,
            trials=1,
            solver="put",
            statistics=[{"statistic": "covariance"}, dict(slice_, part="hermitian")],
        )
        res = invoke(runner, "simulate", str(cfg))
        assert res.exit_code == 1
        assert "error: statistics[1]: part applies only to a Hermitian-kind slice" in res.output

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("margin", -1, "margin must be finite and lie in [0, 1), got -1.0"),
            ("margin", 1, "margin must be finite and lie in [0, 1), got 1.0"),
            ("equiv_tol", 0, "equiv_tol must be finite and lie in (0, 1), got 0.0"),
        ],
    )
    def test_out_of_range_tolerance_exits_1_naming_the_field(self, runner, tmp_path, field, value, message):
        # a negative margin used to record every trial of this
        # non-identifiable pair as Unique; a zero equiv_tol ended the batch
        # with exit 2 after the signals were generated
        cfg = self._config(
            tmp_path,
            sources=[{"kind": "noncircular_gaussian", "circularity": 0.5}] * 2,
            solver="put",
            **{field: value},
        )
        res = invoke(runner, "simulate", str(cfg))
        assert res.exit_code == 1
        assert res.output == f"error: {message}\n"

    @pytest.mark.parametrize("stat, message", [
        ({"statistic": "windowed_covariance", "windows": [[0, 5000]]},
         "statistics[0]: bad window (start=0, length=5000)"),
        ({"statistic": "autocorrelation", "lag": 1000},
         "statistics[0]: lag must satisfy 0 <= lag < T, got 1000"),
    ], ids=["window", "lag"])
    def test_argument_past_the_signal_exits_1(self, runner, tmp_path, stat, message):
        # the config check knows T, so these fail before any trial runs
        cfg = self._config(tmp_path, T=1000, statistics=[stat], solver="gevd")
        res = invoke(runner, "simulate", str(cfg))
        assert res.exit_code == 1
        assert res.output == f"error: {message}\n"

    @pytest.mark.parametrize("fields, message", [
        ({"T": 50}, "T must be at least 100, got 50"),
        ({"sources": []}, "sources must list at least one source"),
        ({"cond_cap": 0.5}, "cond_cap must be at least 1, got 0.5"),
        ({"cond_cap": 1}, "cond_cap must be above 1 for two or more sources, got 1.0"),
        ({"statistics": [{"statistic": "covariance"},
                         {"statistic": "cumulant_slice", "pattern": [0.5, 1, 0, 0.9],
                          "axes": [1, 2], "fixed": [1, 1]}]},
         "statistics[1].pattern: pattern bits must be a list of integers, got [0.5, 1, 0, 0.9]"),
    ], ids=["short_T", "no_sources", "cond_cap_below_1", "cond_cap_1", "float_pattern_bits"])
    def test_config_no_trial_can_run_exits_1(self, runner, tmp_path, monkeypatch, fields, message):
        # these used to exit 0 with every trial failed (or, for the pattern,
        # to run it as 0100); now they fail before any signal is generated
        def no_generate(*args, **kw):
            raise AssertionError("generated a signal for a rejected config")

        monkeypatch.setattr(nujd.simulation, "generate", no_generate)
        cfg = self._config(tmp_path, **fields)
        res = invoke(runner, "simulate", str(cfg))
        assert res.exit_code == 1
        assert res.output == f"error: {message}\n"

    def test_signal_past_the_memory_exits_1_naming_T(self, runner, tmp_path, monkeypatch):
        # T = 2**40 on two sources fits one numpy array but not the memory, and
        # used to end in numpy's MemoryError traceback; the stand-in raises at
        # once, so no test depends on how the host refuses 32 TiB
        def no_memory(*args, **kw):
            raise MemoryError("Unable to allocate 32.0 TiB")

        monkeypatch.setattr(nujd.simulation, "generate", no_memory)
        res = invoke(runner, "simulate", str(self._config(tmp_path, T=2**40)))
        assert res.exit_code == 1
        assert res.output == (
            "error: T = 1099511627776 needs more memory than is available for 2 sources\n"
        )

    _CUM4 = [{"statistic": "covariance"},
             {"statistic": "cumulant_slice", "pattern": "0000", "axes": [1, 2], "fixed": [1, 1]}]

    @pytest.mark.parametrize("fields, message", [
        ({"margin": 10**400}, f"margin must be a number, got {10**400}"),
        ({"cond_cap": 10**400}, f"cond_cap must be a number, got {10**400}"),
        ({"sources": [{"kind": "bpsk", "power": 10**400}, {"kind": "qpsk"}]},
         f"sources[0]: power must be a number, got {10**400}"),
        ({"sources": [{"kind": "bpsk", "power": 1e300}, {"kind": "qpsk"}]},
         "sources[0]: power must be at most 2**200, got 1e+300"),
        ({"sources": [{"kind": "block_nonstationary", "variance_profile": [1e308, 1]}, {"kind": "qpsk"}],
          "statistics": [{"statistic": "covariance"}, {"statistic": "pseudo_covariance"}]},
         "sources[0]: power * variance_profile[0] must be at most 2**200, got 1e+308"),
    ], ids=["margin_401_digits", "cond_cap_401_digits", "power_401_digits", "power_1e300",
            "variance_profile_1e308"])
    def test_value_past_the_float_range_exits_1(self, runner, tmp_path, fields, message):
        # the first four used to end in an OverflowError traceback; the
        # profile exited 0 with an overflow warning and every trial failed
        cfg = self._config(tmp_path, **dict(dict(sources=[{"kind": "bpsk"}, {"kind": "qpsk"}],
                                                 statistics=self._CUM4, T=200, solver="put"), **fields))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = invoke(runner, "simulate", str(cfg))
        assert res.exit_code == 1
        assert res.output == f"error: {message}\n"

    def test_seed_override_changes_report(self, runner, tmp_path):
        cfg = self._config(tmp_path)
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        invoke(runner, "simulate", str(cfg), "--out", str(r1))
        invoke(runner, "simulate", str(cfg), "--seed", "99", "--out", str(r2))
        assert r1.read_bytes() != r2.read_bytes()


def _command_inputs(tmp_path) -> dict:
    """One valid input file and its options per command; `check` gets a
    NotUnique spectra file, which exits 3 when the report is written."""
    spectra = tmp_path / "spectra.json"
    write_spectra(spectra, collinear=True)
    pair = tmp_path / "set.json"
    items = [
        TaggedMatrix(np.diag([1.0, 2.0]), CongruenceKind.HERMITIAN),
        TaggedMatrix(np.diag([1.0 + 1.0j, 3.0]), CongruenceKind.TRANSPOSE),
    ]
    nio.write_json(nio.matrix_set_to_dict(items), pair)
    sig = tmp_path / "sig.json"
    write_signal(sig, t=500)
    cfg = tmp_path / "cfg.json"
    nio.write_json(
        {
            "sources": [
                {"kind": "noncircular_gaussian", "circularity": 0.9},
                {"kind": "noncircular_gaussian", "circularity": 0.3},
            ],
            "T": 500,
            "seed": 3,
            "trials": 1,
            "statistics": [{"statistic": "covariance"}, {"statistic": "pseudo_covariance"}],
            "solver": "sut",
        },
        cfg,
    )
    return {
        "check": [str(spectra)],
        "solve": [str(pair)],
        "estimate": [str(sig), "--cov"],
        "simulate": [str(cfg)],
    }


@pytest.mark.parametrize("command", ["check", "solve", "estimate", "simulate"])
def test_unwritable_out_exits_1_naming_the_path(runner, tmp_path, command):
    out = tmp_path / "missing" / "x.json"
    res = invoke(runner, command, *_command_inputs(tmp_path)[command], "--out", str(out))
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert str(out) in res.stderr


class TestWarnings:
    """Library warnings reach stderr as one `warning:` line each, with no
    source location; stdout and the exit code are those of a quiet run."""

    def test_rank_deficient_covariance(self, runner, tmp_path):
        sig = tmp_path / "sig.json"
        nio.write_json({"m": 2, "T": 1, "channels": [[[1.0, 0.0]], [[0.0, 2.0]]]}, sig)
        res = invoke(runner, "estimate", str(sig), "--cov")
        assert res.exit_code == 0
        assert res.stderr == "warning: T = 1 < m = 2: covariance is rank deficient\n"
        assert json.loads(res.stdout)["m"] == 2

    def test_degenerate_put_spectrum(self, runner, tmp_path):
        items = [
            TaggedMatrix(np.zeros((2, 2)), CongruenceKind.HERMITIAN),
            TaggedMatrix(np.diag([1.0 + 1.0j, 3.0]), CongruenceKind.TRANSPOSE),
        ]
        path = tmp_path / "set.json"
        nio.write_json(nio.matrix_set_to_dict(items), path)
        res = invoke(runner, "solve", str(path))
        assert res.exit_code == 0
        assert res.stderr.startswith("warning: whitened eigenvalue gap 0.000e+00 is degenerate")
        assert res.stderr.count("\n") == 1
        assert json.loads(res.stdout)["eig_gap"] == 0.0
