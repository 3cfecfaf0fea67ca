import json
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from flatknot import verify
from flatknot.cli import main
from flatknot.curve import hausdorff_distance
from flatknot.fixtures import limacon_curve, noisy_circle, trefoil_curve
from flatknot.jsonio import curve_to_json, dump_json


@pytest.fixture()
def trefoil_json(tmp_path):
    path = tmp_path / "trefoil.json"
    dump_json(curve_to_json(trefoil_curve(512)), path)
    return path


class TestPendulumCmd:
    def test_r2(self, tmp_path, capsys):
        assert main(["pendulum", "--r", "2", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("xi = 0.908908")
        xi = float(out.splitlines()[0].split("=")[1])
        assert xi == pytest.approx(0.90890856, abs=1e-8)
        assert (tmp_path / "infinity_r2.json").exists()
        assert (tmp_path / "infinity_r2.svg").exists()

    def test_r3_parity_exit(self, tmp_path, capsys):
        assert main(["pendulum", "--r", "3", "--out", str(tmp_path)]) == 2
        assert "odd" in capsys.readouterr().err

    def test_r4_homothetic(self, tmp_path, capsys):
        assert main(["pendulum", "--r", "2", "--n", "1024", "--out", str(tmp_path)]) == 0
        assert main(["pendulum", "--r", "4", "--n", "2048", "--out", str(tmp_path)]) == 0
        c2 = np.asarray(json.loads((tmp_path / "infinity_r2.json").read_text())["points"])
        c4 = np.asarray(json.loads((tmp_path / "infinity_r4.json").read_text())["points"])
        assert hausdorff_distance(2 * c4, c2) < 1e-4


class TestEnergyCmd:
    def test_trefoil_re_breakdown(self, trefoil_json, capsys):
        assert main(["energy", str(trefoil_json), "--family", "RE"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["family"] == "RE"
        assert len(report["per_cycle"]) == 11

    def test_circle_u(self, tmp_path, capsys):
        from flatknot.fixtures import circle_curve

        path = tmp_path / "circle.json"
        dump_json(curve_to_json(circle_curve(512)), path)
        assert main(["energy", str(path), "--f", "x^2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(2 * np.pi, abs=1e-6)
        assert {"functional", "value", "gradient_norm", "el"} <= set(report)

    def test_gmre_equals_mre_for_trefoil(self, trefoil_json, capsys):
        assert main(["energy", str(trefoil_json), "--family", "MRE", "--delta", "3.0"]) == 0
        m = json.loads(capsys.readouterr().out)
        assert main(["energy", str(trefoil_json), "--family", "GMRE", "--delta", "3.0"]) == 0
        g = json.loads(capsys.readouterr().out)
        assert m["total"] == pytest.approx(g["total"], abs=1e-10)

    @pytest.mark.parametrize("family", ["MRE", "GMRE"])
    def test_nan_delta_is_usage_error(self, trefoil_json, family, capsys):
        assert main(["energy", str(trefoil_json), "--family", family, "--delta", "nan"]) == 2
        assert "delta must be positive" in capsys.readouterr().err


class TestCyclesCmd:
    def test_trefoil_census(self, trefoil_json, capsys):
        assert main(["cycles", "--diagram", str(trefoil_json)]) == 0
        census = json.loads(capsys.readouterr().out)
        assert census["counts_by_arcs"] == {"1": 6, "2": 3, "3": 2}
        assert census["alternated"] == 11
        assert census["total"] == 11

    @pytest.mark.parametrize("n,total", [(4, 9349), (5, 1222363)])
    def test_grid(self, n, total, capsys):
        assert main(["cycles", "--grid", str(n)]) == 0
        assert json.loads(capsys.readouterr().out)["total"] == total

    def test_explosion_exit(self, trefoil_json, capsys):
        assert main(["cycles", "--diagram", str(trefoil_json), "--limit", "5"]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "cycle explosion"
        assert err["partial"] > 0

    @pytest.mark.parametrize("fit", ["extra", "missing"])
    def test_crossing_list_must_fit_curve(self, tmp_path, capsys, fit):
        from flatknot.diagram import detect_crossings
        from flatknot.jsonio import diagram_to_json

        obj = diagram_to_json(detect_crossings(trefoil_curve(256)))
        if fit == "extra":
            obj["crossings"].append({"pos": [0.0, 0.0], "over": 6, "under": 7})
        else:
            obj["crossings"].pop()
        path = tmp_path / "trefoil_diagram.json"
        dump_json(obj, path)
        assert main(["cycles", "--diagram", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_gstar(self, capsys):
        assert main(["cycles", "--gstar", "2"]) == 0
        census = json.loads(capsys.readouterr().out)
        assert census["total"] == 13
        assert census["alternated"] == 4

    def test_gstar_full_census(self, capsys):
        assert main(["cycles", "--gstar", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "counts_by_arcs": {"4": 36, "6": 64, "8": 74, "10": 32, "12": 7},
            "alternated": 35,
            "total": 213,
        }


class TestRelaxCmd:
    def test_noisy_circle(self, tmp_path, capsys):
        curve_path = tmp_path / "noisy.json"
        dump_json(curve_to_json(noisy_circle(128, seed=5)), curve_path)
        cfg_path = tmp_path / "cfg.json"
        dump_json(
            {"resistance": "MRE", "delta": 0.05, "step0": 1e-4, "grad_tol": 1e-3,
             "max_iters": 200},
            cfg_path,
        )
        outdir = tmp_path / "run"
        assert main(["relax", str(curve_path), str(cfg_path), str(outdir)]) == 0
        final = json.loads((outdir / "final_curve.json").read_text())
        from flatknot.diagram import detect_crossings
        from flatknot.jsonio import curve_from_json

        assert detect_crossings(curve_from_json(final)).n_crossings == 0
        lines = (outdir / "trace.jsonl").read_text().strip().splitlines()
        first = json.loads(lines[0])
        assert {"iter", "U", "R", "gmre", "crossings"} <= set(first)

    def test_forbidden_exit(self, tmp_path):
        curve_path = tmp_path / "limacon.json"
        dump_json(curve_to_json(limacon_curve(inner=2.0, n=256)), curve_path)
        cfg_path = tmp_path / "cfg.json"
        # adversarial: collapse above the curvature threshold
        dump_json(
            {"functional": "adversarial", "resistance": "none", "step0": 1e-4,
             "grad_tol": 1e-6, "max_iters": 500},
            cfg_path,
        )
        outdir = tmp_path / "run"
        assert main(["relax", str(curve_path), str(cfg_path), str(outdir)]) == 5


class TestRenderCmd:
    def test_svg_valid_xml(self, trefoil_json, tmp_path):
        out = tmp_path / "trefoil.svg"
        assert main(["render", str(trefoil_json), str(out)]) == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")


class TestVerifyCmd:
    def test_only_pendulum(self, capsys):
        assert main(["verify", "--only", "pendulum"]) == 0
        out = capsys.readouterr().out
        assert "c01-xi-root" in out
        assert "c07-parity" in out
        assert "c08-elliptic-identities" in out

    def test_prints_each_check_time(self):
        lines = []
        results = verify.run_checks(only="pendulum", out=lines.append)
        assert len(lines) == len(results) == 3
        for line, res in zip(lines, results):
            assert line.startswith(f"PASS  {res.name:<26} {res.seconds:7.2f} s  {res.detail}")

    def test_flow_check_runs_only_its_own_flow(self, monkeypatch):
        calls = []

        def fake_relax(curve, cfg):
            calls.append(cfg)
            return SimpleNamespace(final_curve=curve, crossing_counts=[0], terminated="converged")

        monkeypatch.setattr(verify, "relax", fake_relax)
        monkeypatch.setattr(verify, "_flow_cache", {})
        results = verify.run_checks(only="c12a", out=lambda line: None)
        assert [res.name for res in results] == ["c12a-flow-circle"]
        assert len(calls) == 1
        assert calls[0].resistance == "MRE" and calls[0].delta == 0.05

    def test_unknown_group(self, capsys):
        assert main(["verify", "--only", "nonsense"]) == 2
