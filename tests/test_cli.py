import json
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from flatknot import verify
from flatknot.cli import main
from flatknot.curve import hausdorff_distance
from flatknot.fixtures import circle_curve, limacon_curve, noisy_circle, trefoil_curve
from flatknot.jsonio import curve_to_json, diagram_to_json, dump_json


@pytest.fixture()
def trefoil_json(tmp_path):
    path = tmp_path / "trefoil.json"
    dump_json(curve_to_json(trefoil_curve(512)), path)
    return path


@pytest.fixture()
def triple_point_json(tmp_path):
    """Three straight strands through the origin, joined far away: the
    triple-point curve that crossing detection rejects."""
    angles = [0, np.pi / 3, 2 * np.pi / 3]
    pieces = []
    R = 4.0
    for i, th in enumerate(angles):
        u = np.array([np.cos(th), np.sin(th)])
        pieces.append(np.linspace(-R * u, R * u, 41))
        joint_from = R * u
        joint_to = -R * np.array([np.cos(angles[(i + 1) % 3]), np.sin(angles[(i + 1) % 3])])
        mid = 2.2 * R * (joint_from + joint_to) / np.linalg.norm(joint_from + joint_to)
        pieces.append(np.array([joint_from * 0.98 + 0.2 * mid, mid, joint_to * 0.98 + 0.2 * mid]))
    path = tmp_path / "triple.json"
    dump_json({"points": np.vstack(pieces).tolist(), "length": 1.0}, path)
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

    def test_unknown_functional_is_usage_error(self, trefoil_json, capsys):
        assert main(["energy", str(trefoil_json), "--f", "foo"]) == 2
        assert "unknown functional 'foo'" in capsys.readouterr().err

    def test_triple_point_is_singular(self, triple_point_json, capsys):
        assert main(["energy", str(triple_point_json)]) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_zero_area_curve_is_singular(self, tmp_path, capsys):
        path = tmp_path / "dot.json"
        dump_json({"points": [[k * 1e-16, 0.0] for k in range(8)], "length": 1.0}, path)
        assert main(["energy", str(path), "--family", "RE"]) == 3
        assert "zero-area" in capsys.readouterr().err

    @pytest.mark.parametrize("poly,cuts,message", [
        # a vertex touching a segment without crossing it, each edge cut in 4 (28 points)
        ([(0, 0), (4, 0), (4, 3), (3, 3), (2, 0), (1, 3), (0, 3)], 4, "touch without crossing"),
        # a segment lying back along another
        ([(0, 0), (4, 0), (4, 2), (3, 2), (3, 0), (1, 0), (1, -1), (0, -1)], 1, "collinear overlap"),
    ])
    def test_degenerate_contact_is_singular(self, tmp_path, capsys, poly, cuts, message):
        p = np.asarray(poly, dtype=float)
        s = np.arange(cuts)[None, :, None] / cuts
        points = (p[:, None] + s * (np.roll(p, -1, axis=0) - p)[:, None]).reshape(-1, 2)
        path = tmp_path / "contact.json"
        dump_json({"points": points.tolist(), "length": 1.0}, path)
        assert main(["energy", str(path), "--family", "RE"]) == 3
        assert message in capsys.readouterr().err

    def test_cycle_limit_is_explosion(self, trefoil_json, capsys, monkeypatch):
        from flatknot import diagram

        monkeypatch.setattr(diagram, "DEFAULT_CYCLE_LIMIT", 5)
        assert main(["energy", str(trefoil_json), "--family", "RE"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(partial count " in err


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

    def test_triple_point_is_singular(self, triple_point_json, capsys):
        assert main(["cycles", "--diagram", str(triple_point_json)]) == 3
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("fit", ["extra", "missing", "mismatched", "float"])
    def test_crossing_list_must_fit_curve(self, tmp_path, capsys, fit):
        from flatknot.diagram import detect_crossings
        from flatknot.jsonio import diagram_to_json

        obj = diagram_to_json(detect_crossings(trefoil_curve(256)))
        if fit == "extra":
            obj["crossings"].append({"pos": [0.0, 0.0], "over": 6, "under": 7})
        elif fit == "missing":
            obj["crossings"].pop()
        elif fit == "float":
            # the detected pairs, one index written as a float
            obj["crossings"][0]["over"] = float(obj["crossings"][0]["over"])
        else:
            # as many records as crossings, but not the curve's passage pairs
            for rec, (over, under) in zip(obj["crossings"], [(0, 99), (-5, 1), (7, 3)]):
                rec.update(over=over, under=under)
        path = tmp_path / "trefoil_diagram.json"
        dump_json(obj, path)
        assert main(["cycles", "--diagram", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_gstar(self, capsys):
        assert main(["cycles", "--gstar", "2"]) == 0
        census = json.loads(capsys.readouterr().out)
        assert census["total"] == 13
        assert census["alternated"] == 4

    def test_gstar_honours_limit(self, capsys):
        assert main(["cycles", "--gstar", "2", "--limit", "5"]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "cycle explosion", "partial": 6}

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_gstar_range(self, n, capsys):
        assert main(["cycles", "--gstar", n]) == 2
        assert "out of supported range" in capsys.readouterr().err

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
        assert {"iter", "U", "R", "gmre", "crossings", "whitney", "grad_norm", "step", "backtracks",
                "rejected"} <= set(first)

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

    def test_unknown_functional_is_usage_error(self, tmp_path, capsys):
        curve_path = tmp_path / "circle.json"
        dump_json(curve_to_json(noisy_circle(128, seed=5)), curve_path)
        cfg_path = tmp_path / "cfg.json"
        dump_json({"functional": "foo"}, cfg_path)
        assert main(["relax", str(curve_path), str(cfg_path), str(tmp_path / "run")]) == 2
        assert "unknown functional 'foo'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({"resistence": "RE"}, "unknown flow config keys ['resistence']"),
            ({"max_iters": "3"}, "max_iters must be an integer >= 1"),
            ({"max_iters": 0}, "max_iters must be an integer >= 1"),
            ({"max_iters": -1}, "max_iters must be an integer >= 1"),
            (["resistance", "RE"], "flow config must be a JSON object"),
            ({"delta": "0.1"}, "delta must be a real number"),
            ({"step0": "1e-4"}, "step0 must be a real number"),
            ({"grad_tol": True}, "grad_tol must be a real number"),
            ({"functional": None}, "functional must be a string, not None"),
            ({"max_iters": True}, "max_iters must be an integer >= 1"),
            ({"step0": float("nan")}, "step0 and grad_tol must be positive"),
        ],
        ids=["misspelt-key", "string-iters", "zero-iters", "negative-iters", "list-config", "string-delta",
             "string-step0", "bool-grad-tol", "null-functional", "bool-iters", "nan-step0"],
    )
    def test_bad_config_is_usage_error(self, tmp_path, capsys, cfg, message):
        curve_path = tmp_path / "circle.json"
        dump_json(curve_to_json(noisy_circle(128, seed=5)), curve_path)
        cfg_path = tmp_path / "cfg.json"
        dump_json(cfg, cfg_path)
        assert main(["relax", str(curve_path), str(cfg_path), str(tmp_path / "run")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_start_that_cannot_close_exits_singular(self, tmp_path, capsys, out_and_back_polygon):
        """The angle lift of the out-and-back polygon does not close, so the
        flow ends singular before its first record."""
        curve_path = tmp_path / "out_and_back.json"
        dump_json(curve_to_json(out_and_back_polygon), curve_path)
        cfg_path = tmp_path / "cfg.json"
        dump_json({}, cfg_path)
        outdir = tmp_path / "run"
        assert main(["relax", str(curve_path), str(cfg_path), str(outdir)]) == 3
        assert capsys.readouterr().out.startswith("terminated: singular after 0 iterations")
        assert (outdir / "trace.jsonl").read_text() == ""

    def test_stalled_exit(self, tmp_path, capsys, monkeypatch):
        from flatknot import flow
        from flatknot.errors import StalledError

        def stall(*args):
            raise StalledError("stalled")

        monkeypatch.setattr(flow, "_step_from_alpha", stall)
        curve_path = tmp_path / "circle.json"
        dump_json(curve_to_json(noisy_circle(128, seed=5)), curve_path)
        cfg_path = tmp_path / "cfg.json"
        dump_json({"resistance": "none", "max_iters": 5}, cfg_path)
        assert main(["relax", str(curve_path), str(cfg_path), str(tmp_path / "run")]) == 0
        assert capsys.readouterr().out.startswith("terminated: stalled after 1 iterations")


_CIRCLE16 = curve_to_json(circle_curve(16))["points"]
_POINTS = "curve points must be a finite (N, 2) array with N >= 8, got shape"
_LENGTH = "curve length must be a finite number > 0, got"


class TestMalformedCurveJson:
    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"points": [[0, 0, 0], [1, 0, 0]], "length": 1.0}, f"{_POINTS} (2, 3)"),
            ({"points": [[0, 0], [1, 0], [0, 1]], "length": 3.5}, f"{_POINTS} (3, 2)"),
            ({"points": _CIRCLE16[:-1] + [[float("inf"), 0.0]], "length": 6.3}, f"{_POINTS} (16, 2)"),
            ({"points": _CIRCLE16, "length": "nan"}, f"{_LENGTH} 'nan'"),
            ({"points": _CIRCLE16, "length": float("nan")}, f"{_LENGTH} nan"),
            ({"points": _CIRCLE16, "length": 0}, f"{_LENGTH} 0"),
            ({"length": 6.3}, "curve JSON needs points and length: KeyError('points')"),
            ({"points": _CIRCLE16}, "curve JSON needs points and length: KeyError('length')"),
        ],
        ids=["3d-points", "triangle", "inf-point", "string-nan-length", "nan-length", "zero-length",
             "no-points", "no-length"],
    )
    @pytest.mark.parametrize("command", ["energy", "relax"])
    def test_usage_error(self, tmp_path, capsys, command, obj, message):
        curve_path = tmp_path / "curve.json"
        curve_path.write_text(json.dumps(obj))
        cfg_path = tmp_path / "cfg.json"
        dump_json({"resistance": "none", "max_iters": 5}, cfg_path)
        rest = [] if command == "energy" else [str(cfg_path), str(tmp_path / "run")]
        assert main([command, str(curve_path), *rest]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""


class TestMalformedDiagramJson:
    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"crossings": []}, "diagram JSON needs a curve"),
            ({"curve": curve_to_json(trefoil_curve(256)), "crossings": [{"pos": [0, 0], "over": 0}]},
             "diagram crossings need over and under passages: KeyError('under')"),
            ({"curve": curve_to_json(trefoil_curve(256)), "crossings": [{"over": "a", "under": 1}]},
             "diagram crossings need over and under passages: TypeError("),
        ],
        ids=["no-curve", "no-under", "string-over"],
    )
    @pytest.mark.parametrize("command", ["energy", "cycles", "render"])
    def test_usage_error(self, tmp_path, capsys, command, obj, message):
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(obj))
        argv = {"energy": ["energy", str(path)], "cycles": ["cycles", "--diagram", str(path)],
                "render": ["render", str(path), str(tmp_path / "out.svg")]}[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""


class TestRenderCmd:
    def test_svg_valid_xml(self, trefoil_json, tmp_path):
        out = tmp_path / "trefoil.svg"
        assert main(["render", str(trefoil_json), str(out)]) == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")

    def test_diagram_json(self, tmp_path):
        from flatknot.diagram import detect_crossings

        d = detect_crossings(trefoil_curve(256))
        path, out = tmp_path / "trefoil_diagram.json", tmp_path / "trefoil.svg"
        dump_json(diagram_to_json(d), path)
        assert main(["render", str(path), str(out)]) == 0
        polys = [el for el in ET.fromstring(out.read_text()).iter() if el.tag.endswith("polyline")]
        assert len(polys) == 1 + 2 * d.n_crossings

    @pytest.mark.parametrize("wire", ["curve", "diagram"])
    def test_triple_point_draws_the_curve_alone(self, triple_point_json, tmp_path, wire):
        """No diagram exists on a triple-point curve, whether it comes as
        curve JSON or inside diagram JSON: render draws the curve alone."""
        path, out = triple_point_json, tmp_path / "triple.svg"
        if wire == "diagram":
            path = tmp_path / "triple_diagram.json"
            dump_json({"curve": json.loads(triple_point_json.read_text()), "crossings": []}, path)
        assert main(["render", str(path), str(out)]) == 0
        polys = [el for el in ET.fromstring(out.read_text()).iter() if el.tag.endswith("polyline")]
        assert len(polys) == 1


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

    @pytest.mark.parametrize("scale", [1.0, 0.8])
    def test_trefoil_check_prints_its_margin(self, monkeypatch, scale):
        """c12d prints how far below (or above) delta the smallest
        alternated cycle ends; the check itself reads `area < delta`."""
        from flatknot.diagram import detect_crossings, enumerate_cycles

        c = trefoil_curve(256).scaled(scale)
        monkeypatch.setattr(verify, "_flow_cache", {"trefoil": (SimpleNamespace(final_curve=c), 0.0)})
        ok, detail = verify.check_flow_trefoil()
        areas = [cy.area for cy in enumerate_cycles(detect_crossings(c)) if cy.alternated]
        margin = min(areas) - 0.2
        assert f"min area - delta {margin:.1e}," in detail
        assert ok == (margin < 0)

    def test_unknown_group(self, capsys):
        assert main(["verify", "--only", "nonsense"]) == 2
