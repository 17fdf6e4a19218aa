import json

import numpy as np
import pytest

from sparsecut import (FAMILIES, InputError, WeightedGraphPair,
                       exact_sparsest_cut, format_instance, generate,
                       parse_instance, run_pipeline, sparsity)
from sparsecut.cli import main
from sparsecut.graphs import Cut

from conftest import four_cycle_complete


class TestGenerators:
    def test_deterministic_bytes(self):
        for family in FAMILIES:
            a = format_instance(generate(family, 6, 1))
            b = format_instance(generate(family, 6, 1))
            assert a == b

    def test_seeds_differ(self):
        assert format_instance(generate("uniform", 6, 1)) != \
            format_instance(generate("uniform", 6, 2))

    def test_unknown_family(self):
        with pytest.raises(InputError):
            generate("nope", 5, 0)

    def test_negative_seed_rejected(self, capsys):
        # numpy's own ValueError once escaped the CLI with exit code 1
        with pytest.raises(InputError, match="seed"):
            generate("uniform", 4, -1)
        assert main(["generate", "uniform", "4", "-1"]) == 5
        assert "seed" in capsys.readouterr().err

    def test_smallest_instances_valid(self):
        for family in FAMILIES:
            g = generate(family, 2, 1)
            assert g.n == 2
            assert g.total_demand > 0

    def test_uniform_is_complete_unit_demand(self):
        g = generate("uniform", 7, 3)
        assert len(g.demand) == 21
        assert all(w == 1.0 for w in g.demand.values())
        assert len(g.cost) == 21

    def test_planted_bridge_cut_is_optimal(self):
        g = generate("planted", 10, 7)
        res = exact_sparsest_cut(g)
        bridge = sparsity(g, Cut.from_vertices(range(5), 10))
        assert res.sparsity == pytest.approx(bridge.sparsity, abs=1e-12)
        side = set(res.cut.vertices())
        assert side in ({0, 1, 2, 3, 4}, {5, 6, 7, 8, 9})

    def test_expander_vs_pair_single_demand(self):
        g = generate("expander-vs-pair", 9, 4)
        assert len(g.demand) == 1
        # union of three closed tours: even total degree at every vertex
        deg = np.zeros(9)
        for (i, j), w in g.cost.items():
            deg[i] += w
            deg[j] += w
        assert np.allclose(deg, 6.0)


class TestRunReport:
    def test_invariants_on_pipeline_output(self):
        rep = run_pipeline(four_cycle_complete())
        assert rep.phi_sdp <= rep.phi_star + 1e-6
        assert rep.phi_star <= rep.phi_alg + 1e-9
        assert rep.phi_star == pytest.approx(0.5)
        assert rep.phi_alg == pytest.approx(0.5)
        if rep.min_bound is not None:
            assert rep.phi_alg <= rep.min_bound + 1e-6
        assert rep.courant_fisher_holds

    def test_report_deterministic_modulo_timing(self):
        g = four_cycle_complete()
        a = run_pipeline(g).to_json(include_timing=False)
        b = run_pipeline(g).to_json(include_timing=False)
        assert a == b

    def test_oracle_skipped_above_threshold(self):
        rep = run_pipeline(four_cycle_complete(), oracle_max=3)
        assert rep.phi_star is None
        assert rep.courant_fisher_holds is None
        d = rep.to_dict()
        assert d["phi_star"] is None

    def test_disconnected_cost_graph(self):
        # two cost components, complete demand: Phi* = 0, and the relaxation
        # value must not come out a rounding error below zero
        cost = [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)]
        demand = [(i, j, 1.0) for i in range(6) for j in range(i + 1, 6)]
        rep = run_pipeline(WeightedGraphPair.from_edges(6, cost, demand))
        assert rep.phi_sdp == rep.phi_alg == rep.phi_star == 0.0
        assert sorted(rep.alg_cut) in ([1, 2, 3], [4, 5, 6])

    def test_tiny_demand_scale(self):
        # demand x 1e-12 scales the Gram matrix by 1e12: the rounding gate
        # and the audits, relative to the point scale, accept the solution
        g = generate("planted", 8, 1)
        tiny = WeightedGraphPair(g.n, dict(g.cost), {p: 1e-12 * w for p, w in g.demand.items()})
        base, rep = run_pipeline(g), run_pipeline(tiny)
        assert rep.phi_sdp * 1e-12 == pytest.approx(base.phi_sdp, rel=1e-6)
        assert rep.phi_alg * 1e-12 == pytest.approx(base.phi_alg, rel=1e-6)

    def test_stage_seconds(self):
        rep = run_pipeline(four_cycle_complete())
        stages = rep.timing["stage_seconds"]
        assert stages.keys() == {"formulate", "solve", "round", "spectral", "audit", "oracle"}
        assert all(v >= 0 for v in stages.values())
        assert sum(stages.values()) <= rep.timing["total_seconds"]
        untimed = json.loads(rep.to_json(include_timing=False))
        assert untimed.keys() == rep.to_dict().keys() - {"timing"}
        assert "stage_seconds" not in rep.to_json(include_timing=False)

    def test_json_round_trips(self):
        rep = run_pipeline(four_cycle_complete())
        parsed = json.loads(rep.to_json())
        assert parsed["phi_alg"]["value"] == rep.phi_alg
        assert parsed["instance"]["n"] == 4
        assert len(parsed["lambda"]) == 3
        assert len(parsed["sigma"]) == 4


class TestCli:
    def _write_instance(self, tmp_path, g):
        path = tmp_path / "inst.txt"
        path.write_text(format_instance(g))
        return str(path)

    def test_run_four_cycle(self, tmp_path, capsys):
        path = self._write_instance(tmp_path, four_cycle_complete())
        assert main(["run", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["phi_star"]["value"] == pytest.approx(0.5)
        assert out["phi_alg"]["value"] == pytest.approx(0.5)
        assert out["phi_sdp"] <= 0.5 + 1e-4

    def test_run_report_and_gram_files(self, tmp_path):
        path = self._write_instance(tmp_path, four_cycle_complete())
        rep = tmp_path / "rep.json"
        gram = tmp_path / "gram.txt"
        assert main(["run", path, "--report", str(rep), "--dump-gram", str(gram)]) == 0
        data = json.loads(rep.read_text())
        assert "timing" in data
        G = np.array([[float(v) for v in row.split()]
                      for row in gram.read_text().splitlines() if row.strip()])
        assert G.shape == (4, 4)
        assert np.allclose(G, G.T)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("n 3\nc 1 1 2.0\nd 1 2 1.0\n")
        assert main(["run", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["run", "/nonexistent/instance.txt"]) == 2

    def test_directory_as_instance_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_report_into_missing_directory_exit_code(self, tmp_path, capsys):
        path = self._write_instance(tmp_path, four_cycle_complete())
        rep = tmp_path / "missing" / "rep.json"
        assert main(["run", path, "--oracle-max", "0", "--report", str(rep)]) == 5
        assert f"cannot write {rep}" in capsys.readouterr().err

    def test_closed_stdout_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # a closed pipe, as in `sparsecut run inst.txt | head -1`, is a failed write
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        path = self._write_instance(tmp_path, four_cycle_complete())
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main(["run", path]) == 5
        assert "cannot write" in capsys.readouterr().err

    def test_non_finite_dual_iterate_exit_code(self, tmp_path, monkeypatch, capsys):
        import sparsecut.sdp as sdp
        monkeypatch.setattr(sdp, "MU", float("nan"))
        path = self._write_instance(tmp_path, four_cycle_complete())
        assert main(["run", path]) == 3
        assert "non-finite dual iterate" in capsys.readouterr().err

    def test_eigensolver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        import scipy.linalg.lapack as lapack
        import sparsecut.sdp as sdp
        real = lapack.dsyevr
        monkeypatch.setattr(sdp, "SUBSET_EIG_MIN_N", 0)
        monkeypatch.setattr(lapack, "dsyevr", lambda *a, **k: (*real(*a, **k)[:-1], 1))
        path = self._write_instance(tmp_path, four_cycle_complete())
        assert main(["run", path]) == 3
        assert "eigensolver failed" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["run"]) == 5
        assert main(["generate", "nope", "5", "1"]) == 5
        assert main([]) == 5

    def test_generate_writes_deterministic_file(self, tmp_path, capsys):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        assert main(["generate", "uniform", "6", "1", "-o", str(out1)]) == 0
        assert main(["generate", "uniform", "6", "1", "-o", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        parse_instance(out1.read_text())

    def test_generate_stdout(self, capsys):
        assert main(["generate", "uniform", "2", "1"]) == 0
        g = parse_instance(capsys.readouterr().out)
        assert g.n == 2

    def test_cli_determinism_modulo_timing(self, tmp_path):
        path = self._write_instance(tmp_path, four_cycle_complete())
        reports = []
        for name in ("r1.json", "r2.json"):
            rep = tmp_path / name
            assert main(["run", path, "--report", str(rep)]) == 0
            data = json.loads(rep.read_text())
            del data["timing"]
            reports.append(json.dumps(data, sort_keys=True))
        assert reports[0] == reports[1]

    def test_audit_round_trip_and_tamper(self, tmp_path, capsys):
        # `audit` on the dumped Gram matrix repeats the report's audits block
        gram = tmp_path / "gram.txt"
        rep = tmp_path / "rep.json"
        for g in [generate(family, 6, 5) for family in FAMILIES] + [four_cycle_complete()]:
            path = self._write_instance(tmp_path, g)
            assert main(["run", path, "--report", str(rep), "--dump-gram", str(gram)]) == 0
            expected = json.loads(rep.read_text())["audits"]
            capsys.readouterr()
            assert main(["audit", str(gram), path]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out.keys() == expected.keys()
            assert out["triangle_violation"] <= 1e-6
            # ties near zero can pick a different worst triple
            assert (out.pop("worst_triple") is None) == (expected.pop("worst_triple") is None)
            for key, value in expected.items():
                assert out[key] == pytest.approx(value, rel=0, abs=1e-9), key
        # tamper: an indefinite direction violating the triangle family
        G = np.array([[float(v) for v in row.split()]
                      for row in gram.read_text().splitlines() if row.strip()])
        X = np.array([[0.0], [3.0], [4.0], [0.0]])
        bad = X @ X.T
        gram.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in bad) + "\n")
        assert main(["audit", str(gram), path]) == 4
        assert "property violation" in capsys.readouterr().err

    def test_audit_non_symmetric_gram(self, tmp_path, capsys):
        # a dumped Gram matrix is exactly symmetric; an edited one that is not
        # is rejected before its symmetric part could be audited in its place
        path = self._write_instance(tmp_path, generate("planted", 8, 1))
        gram = tmp_path / "gram.txt"
        assert main(["run", path, "--dump-gram", str(gram)]) == 0
        G = np.array([[float(v) for v in row.split()]
                      for row in gram.read_text().splitlines() if row.strip()])
        assert np.array_equal(G, G.T)
        G[0, 1] += 5.0
        gram.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in G) + "\n")
        capsys.readouterr()
        assert main(["audit", str(gram), path]) == 2
        assert "not symmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_audit_non_finite_gram_entry(self, tmp_path, capsys, entry):
        path = self._write_instance(tmp_path, four_cycle_complete())
        gram = tmp_path / "gram.txt"
        rows = [["0.25" if i == j else "0.0" for j in range(4)] for i in range(4)]
        rows[1][2] = entry
        gram.write_text("\n".join(" ".join(row) for row in rows) + "\n")
        assert main(["audit", str(gram), path]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_audit_dimension_mismatch(self, tmp_path, capsys):
        path = self._write_instance(tmp_path, four_cycle_complete())
        gram = tmp_path / "gram.txt"
        gram.write_text("1.0 0.0\n0.0 1.0\n")
        assert main(["audit", str(gram), path]) == 5

    def test_convergence_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import sparsecut.sdp as sdp
        monkeypatch.setattr(sdp, "TOTAL_CAP", 10)  # far too few iterations to converge
        path = self._write_instance(tmp_path, generate("uniform", 6, 1))
        assert main(["run", path]) == 3
        assert "convergence error" in capsys.readouterr().err

    def test_non_finite_tolerance_is_usage_error(self, tmp_path, capsys):
        path = self._write_instance(tmp_path, generate("planted", 8, 1))
        assert main(["run", path, "--obj-tol", "nan"]) == 5
        assert "finite and positive" in capsys.readouterr().err

    def test_solver_flags_accepted(self, tmp_path, capsys):
        path = self._write_instance(tmp_path, four_cycle_complete())
        code = main(["run", path, "--feas-tol", "1e-7", "--obj-tol", "1e-5",
                     "--oracle-max", "0"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["phi_star"] is None
