import json

import numpy as np
import pytest
from click.testing import CliRunner

from nujd import io as nio
from nujd.cli import main
from nujd.core import CongruenceKind, DiagonalStack, TaggedMatrix
from nujd.simulation import SourceSpec, generate, mix


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
        path = tmp_path / "bad.json"
        path.write_text('{"m": 2, "spectra": [\n')
        res = runner.invoke(main, ["check", str(path)])
        assert res.exit_code == 1
        assert "line" in res.output and "column" in res.output

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

    def test_non_diagonal_matrix_set_rejected(self, runner, tmp_path):
        items = [TaggedMatrix(np.array([[1.0, 0.5], [0.5, 2.0]]), CongruenceKind.HERMITIAN)]
        path = tmp_path / "nd.json"
        nio.write_json(nio.matrix_set_to_dict(items), path)
        res = runner.invoke(main, ["check", str(path)])
        assert res.exit_code == 1
        assert "solve" in res.output


class TestEstimateAndSolve:
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
        x = nio.gl_from_dict({"m": out["m"], "entries": out["x"]})
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

    def test_wrong_kinds_exit_2(self, runner, tmp_path):
        items = [
            TaggedMatrix(np.diag([1.0, 2.0]), CongruenceKind.HERMITIAN),
            TaggedMatrix(np.diag([2.0, 1.0]), CongruenceKind.HERMITIAN),
        ]
        path = tmp_path / "hh.json"
        nio.write_json(nio.matrix_set_to_dict(items), path)
        res = runner.invoke(main, ["solve", str(path), "--method", "put"])
        assert res.exit_code == 2

    def test_singular_pseudo_exits_4(self, runner, tmp_path):
        items = [
            TaggedMatrix(np.diag([1.0, 2.0]), CongruenceKind.HERMITIAN),
            TaggedMatrix(np.diag([1.0, 0.0]), CongruenceKind.TRANSPOSE),
        ]
        path = tmp_path / "sing.json"
        nio.write_json(nio.matrix_set_to_dict(items), path)
        res = runner.invoke(main, ["solve", str(path), "--method", "put"])
        assert res.exit_code == 4
        assert "SingularPseudoCovariance" in res.output

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
        runner.invoke(main, ["check", str(spectra), "--out", str(rep)])
        assert nio.write_json(nio.read_json(rep)).encode() == rep.read_bytes()


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
    def test_invalid_thread_count_exits_1(self, runner, tmp_path, monkeypatch, value):
        monkeypatch.setenv("NUJD_THREADS", value)
        res = invoke(runner, "simulate", str(self._config(tmp_path)))
        assert res.exit_code == 1
        assert "error: NUJD_THREADS" in res.output

    def test_seed_override_changes_report(self, runner, tmp_path):
        cfg = self._config(tmp_path)
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        invoke(runner, "simulate", str(cfg), "--out", str(r1))
        invoke(runner, "simulate", str(cfg), "--seed", "99", "--out", str(r2))
        assert r1.read_bytes() != r2.read_bytes()
