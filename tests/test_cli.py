import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import pathway_toolkit
from pathway_toolkit import melconv
from pathway_toolkit.cli import (
    _build_parser,
    format_table,
    load_table,
    main,
    parse_args,
    run,
    write_table,
)
from pathway_toolkit.errors import DomainError


class TestParseArgs:
    def test_ml_minimal(self):
        cfg = parse_args(["ml", "--alpha", "1", "--x", "1"])
        assert cfg.subcommand == "ml"
        assert cfg.alpha == 1.0
        assert cfg.x == 1.0

    def test_pathway_with_file(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(dict(alpha=1, gamma=0, delta=1, a=1, eta=1)))
        cfg = parse_args(
            ["pathway", "--params", str(f), "--op", "pdf", "--x", "0.5"]
        )
        assert cfg.params == str(f)
        assert cfg.op == "pdf"

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            parse_args(["nosuch"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["ml", "--alpha", "1", "--x", "1", "--bogus", "3"])
        assert err.value.code == 2

    def test_missing_required_exits_2(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["ml", "--alpha", "1"])
        assert err.value.code == 2

    def test_malformed_number_exits_2(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["ratecalc", "--gamma", "abc", "--a", "1", "--b", "1"])
        assert err.value.code == 2

    def test_pathway_needs_params_or_alpha(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["pathway", "--op", "pdf", "--x", "1"])
        assert err.value.code == 2


SUBCOMMANDS = ["ml", "pathway", "ratecalc", "kratzel", "melconv", "anova", "corr", "qform",
               "volume", "phyllo"]
SEEDED = {"pathway", "qform", "volume"}


class TestParserTable:
    """The argparse table is the CLI's one description, built once per process."""

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_exits_0(self, sub, capsys):
        assert main([sub, "--help"]) == 0
        assert ("--seed" in capsys.readouterr().out) == (sub in SEEDED)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ml", "--alpha", "1", "--x", "1", "--seed", "3"],
            ["phyllo", "--n", "5", "--seed", "1"],
            ["pathway", "--params", "{p}", "--alpha", "2", "--x", "0.5"],
            ["anova", "--a-matrix", "{csv}", "--counts", "{csv}", "--g", "{csv}"],
            ["pathway", "--alpha", "1", "--op", "sample", "--n", "3", "--seed=-1"],
            ["pathway", "--alpha", "1", "--op", "sample", "--n=-1"],
            ["pathway", "--alpha", "1", "--op", "cdf"],
            ["corr", "--x", "1,2,3"],
            ["anova", "--a-matrix", "{csv}", "--g", "{csv}", "--max-terms", "0"],
            ["anova", "--a-matrix", "{csv}", "--g", "{csv}", "--max-terms=-1"],
        ],
        ids=["seed_on_ml", "seed_on_phyllo", "params_and_alpha", "a_matrix_and_counts",
             "negative_seed", "negative_n", "cdf_without_x", "corr_without_y",
             "zero_max_terms", "negative_max_terms"],
    )
    def test_usage_error_exits_2(self, argv, tmp_path, capsys):
        names = dict(p=tmp_path / "p.json", csv=tmp_path / "m.csv")
        names["p"].write_text(json.dumps(dict(alpha=1, gamma=0, delta=1, a=1, eta=1)))
        names["csv"].write_text("a,b\n1,0\n0,1\n")
        assert main([a.format(**names) for a in argv]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
    @pytest.mark.parametrize("sub", ["pathway", "volume"])
    def test_bad_env_seed_exits_2(self, sub, value, monkeypatch, capsys):
        monkeypatch.setenv("PATHWAY_TOOLKIT_SEED", value)
        argv = {"pathway": ["pathway", "--alpha", "1", "--op", "sample", "--n", "3"],
                "volume": ["volume", "--k-list", "2", "--n", "10"]}[sub]
        assert main(argv) == 2
        assert "PATHWAY_TOOLKIT_SEED" in capsys.readouterr().err

    def test_env_seed_is_read_on_every_call(self, monkeypatch, capsys):
        argv = ["pathway", "--alpha", "1", "--op", "sample", "--n", "5"]
        draws = []
        for seed in ("1", "2"):
            monkeypatch.setenv("PATHWAY_TOOLKIT_SEED", seed)
            assert main(argv) == 0
            draws.append(capsys.readouterr().out)
        assert draws[0] != draws[1]

    def test_parser_is_built_once(self, capsys):
        _build_parser.cache_clear()
        for _ in range(3):
            assert main(["ratecalc", "--gamma", "2", "--a", "3", "--b", "0"]) == 0
        assert main(["corr", "--x", "1,2,3", "--y", "1,3,2"]) == 0
        assert _build_parser.cache_info().misses == 1


class TestRun:
    def test_ratecalc_closed_form_output(self, capsys):
        code = main(["ratecalc", "--gamma", "2", "--a", "3", "--b", "0"])
        assert code == 0
        assert capsys.readouterr().out == "0.0740740740740741\n"

    def test_ml_value(self, capsys):
        assert main(["ml", "--alpha", "1", "--x", "1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.e, rel=1e-13)

    def test_ml_overflow_exits_1(self, capsys):
        # E_{1/2}(-40): a series term passes the double range
        self.assert_one_line_error(["ml", "--alpha", "0.5", "--x=-40"], capsys)

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_ml_non_finite_x_exits_1(self, x, capsys):
        assert "finite" in self.assert_one_line_error(["ml", "--alpha", "1", f"--x={x}"], capsys)

    def test_ml_domain_error_exits_1(self, capsys):
        assert main(["ml", "--alpha", "-1", "--x", "1"]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_pathway_pdf_from_json(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(dict(alpha=1, gamma=0, delta=1, a=1, eta=1)))
        assert main(["pathway", "--params", str(f), "--op", "pdf", "--x", "0.5"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )

    def test_pathway_huge_x_prints_zero_without_warning(self, capsys):
        # y = x^1.5 overflows at x = 1e250; the tier-1 suite turns warnings into errors
        assert main(["pathway", "--alpha", "1", "--gamma", "0.5", "--delta", "1.5",
                     "--x", "1e250"]) == 0
        assert capsys.readouterr() == ("0\n", "")

    def test_pathway_sample_deterministic_bytes(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(dict(alpha=1, gamma=0, delta=1, a=1, eta=1)))
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            code = main(
                ["pathway", "--params", str(f), "--op", "sample", "--n", "20",
                 "--seed", "11", "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_env_fallback(self, tmp_path, monkeypatch, capsys):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(dict(alpha=1, gamma=0, delta=1, a=1, eta=1)))
        monkeypatch.setenv("PATHWAY_TOOLKIT_SEED", "11")
        main(["pathway", "--params", str(f), "--op", "sample", "--n", "5"])
        against_env = capsys.readouterr().out
        main(["pathway", "--params", str(f), "--op", "sample", "--n", "5",
              "--seed", "11"])
        against_flag = capsys.readouterr().out
        assert against_env == against_flag

    def test_ratecalc_grid_csv(self, capsys):
        code = main(["ratecalc", "--gamma", "0,1", "--a", "1", "--b", "1,2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "gamma,a,b,value,abs_err_estimate"
        assert len(lines) == 5

    def test_ratecalc_mellin_underflow_prints_zero(self, capsys):
        # the rate, about e^(-1e100), underflows to 0; the inversion's rounding
        # noise must not come through the scale as -0
        argv = ["ratecalc", "--gamma", "0", "--a", "1e300", "--b", "1", "--route", "mellin"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "0\n"

    def test_ratecalc_both_integrates_each_point_once(self, monkeypatch, capsys):
        # one batched Kratzel quadrature, with one row per point
        rows = []
        quadrature = melconv._kratzel_quadrature
        monkeypatch.setattr(
            melconv, "_kratzel_quadrature",
            lambda *cols: rows.append(np.broadcast(*cols).size) or quadrature(*cols),
        )
        argv = ["ratecalc", "--route", "both", "--gamma", "0,1", "--a", "1", "--b", "1"]
        assert main(argv) == 0
        assert rows == [2]

    @pytest.mark.parametrize(
        "sub, axes, extra",
        [
            ("ratecalc", {"gamma": "-1.5,-1.2", "a": "0,0.5", "b": "0.7,2"}, []),
            ("ratecalc", {"gamma": "0.5,1", "a": "0.5,2", "b": "0,1"}, []),
            ("ratecalc", {"gamma": "0,1", "a": "0.5,0", "b": "1"}, []),
            ("ratecalc", {"gamma": "0,-2.5", "a": "1", "b": "1,0.5"}, ["--route", "both"]),
            ("ratecalc", {"gamma": "-0.9729199363738594,0", "a": "3.1435782642638544e-77,1",
                          "b": "4.592276099642287e-132,1"}, ["--route", "both"]),
            ("kratzel", {"gamma": "-0.5,1", "a": "0.5,2", "y": "0,1e-9,2"}, ["--beta=-0.5"]),
            ("kratzel", {"gamma": "0,-1.5", "a": "1", "y": "1,0"}, []),
            ("kratzel", {"gamma": "-2.5,-1.2", "a": "0,0.5", "y": "0.7,2"}, ["--beta", "2"]),
            ("kratzel", {"gamma": "0.5,-1.5", "a": "0,1", "y": "1,0"}, ["--beta=-0.5"]),
        ],
        ids=["a_zero", "b_zero", "domain_fault", "mellin_fault", "both_mellin_fault", "kratzel",
             "kratzel_fault", "kratzel_a_zero", "kratzel_a_zero_beta_negative"],
    )
    def test_grid_is_its_points(self, sub, axes, extra, capsys):
        # one batched call per grid: each row has the value its point prints alone, and
        # a grid with a failing point fails with the error of the first such point
        code = main([sub, *(f"--{k}={v}" for k, v in axes.items()), *extra])
        out, err = capsys.readouterr()
        values, first_error = [], None
        for point in itertools.product(*(v.split(",") for v in axes.values())):
            if main([sub, *(f"--{k}={v}" for k, v in zip(axes, point)), *extra]) == 0:
                values.append(capsys.readouterr().out.strip())
            else:
                first_error = first_error or capsys.readouterr().err
        if first_error is None:
            assert code == 0
            assert [row.split(",")[-2] for row in out.splitlines()[1:]] == values
        else:
            assert (code, out, err) == (1, "", first_error)

    def test_kratzel_scalar(self, capsys):
        assert main(["kratzel", "--gamma", "1", "--a", "2", "--y", "0"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.25, rel=1e-10)

    def test_melconv_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "numerator": [
                {"kind": "uniform01", "exponent": 1.0},
                {"kind": "uniform01", "exponent": 1.0},
            ],
        }))
        assert main(["melconv", "--spec", str(spec), "--u", "0.5"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            -math.log(0.5), abs=1e-6
        )

    def test_melconv_grid_is_one_inversion(self, monkeypatch, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"numerator": [{"kind": "uniform01"}] * 2}))
        calls = []
        invert = melconv.mellin_invert
        monkeypatch.setattr(
            melconv, "mellin_invert", lambda *a: calls.append(np.shape(a[1])) or invert(*a)
        )
        assert main(["melconv", "--spec", str(spec), "--u", "0.1,0.5,0.9,0.5"]) == 0
        assert calls == [(4,)]
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "u,density" and len(lines) == 5
        for line in lines[1:]:
            u, g = map(float, line.split(","))
            assert g == pytest.approx(-math.log(u), abs=1e-8 * (1 - math.log(u)))

    def test_ratecalc_mellin_grid_is_one_inversion_per_gamma(self, monkeypatch, capsys):
        # I(gamma, a, b) = a^-(gamma+1) I(gamma, 1, b sqrt(a)): each gamma is one
        # inversion at the nine u = a b^2 of its (a, b) points
        calls = []
        invert = melconv.mellin_invert
        monkeypatch.setattr(melconv, "mellin_invert",
                            lambda *a, **kw: calls.append(np.shape(a[1])) or invert(*a, **kw))
        axes = ["--gamma=-0.5,0,1,2", "--a", "0.5,1,2", "--b", "0.5,1,2"]
        assert main(["ratecalc", *axes, "--route", "mellin"]) == 0
        assert calls == [(9,)] * 4
        mellin = np.loadtxt(io.StringIO(capsys.readouterr().out), delimiter=",", skiprows=1)
        assert main(["ratecalc", *axes]) == 0
        quadrature = np.loadtxt(io.StringIO(capsys.readouterr().out), delimiter=",", skiprows=1)
        assert np.array_equal(mellin[:, :3], quadrature[:, :3])
        assert np.all(np.abs(mellin[:, 3] - quadrature[:, 3]) <= mellin[:, 4])

    def test_anova_round_trip(self, tmp_path, capsys):
        a_csv = tmp_path / "a.csv"
        rng = np.random.default_rng(4)
        A = rng.dirichlet(np.ones(4) * 2, size=4)
        write_table("c1,c2,c3,c4".split(","), A, a_csv)
        g_csv = tmp_path / "g.csv"
        G = np.array([0.3, -0.1, 0.5, -0.7])
        write_table(["g"], [[v] for v in G], g_csv)
        assert main(["anova", "--a-matrix", str(a_csv), "--g", str(g_csv)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,alpha_value"
        got = np.array([float(row.split(",")[1]) for row in lines[1:]])
        _, A_loaded = load_table(a_csv)
        B = A_loaded - np.median(A_loaded, axis=1)[:, None]
        dense = np.linalg.solve(np.eye(4) - B, G)
        assert np.max(np.abs(got - dense)) < 1e-9

    def test_anova_from_counts(self, tmp_path, capsys):
        counts = tmp_path / "n.csv"
        counts.write_text("c1,c2\n2,1\n1,2\n")
        g_csv = tmp_path / "g.csv"
        g_csv.write_text("g\n1\n-1\n")
        assert main(["anova", "--counts", str(counts), "--g", str(g_csv)]) == 0

    def test_corr_inline(self, capsys):
        assert main(["corr", "--x", "1,2,3", "--y", "1,3,2"]) == 0
        assert capsys.readouterr().out == "0.5\n"

    def test_corr_from_data(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x,y\n1,1\n2,3\n3,2\n")
        assert main(["corr", "--data", str(data)]) == 0
        assert capsys.readouterr().out == "0.5\n"

    def test_pathway_support(self, capsys):
        # alpha = 0.5: the support ends at (a (1 - alpha))^(-1 / delta) = 2
        assert main(["pathway", "--alpha", "0.5", "--op", "support"]) == 0
        assert capsys.readouterr().out == "0,2\n"

    def test_qform(self, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_text("a,b,c\n1,0,0\n0,1,0\n0,0,0\n")
        assert main(["qform", "--matrix", str(m), "--n", "20000", "--seed", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "idempotent,rank,ks_stat,consistent"
        fields = lines[1].split(",")
        assert fields[0] == "1" and fields[1] == "2" and fields[3] == "1"

    def test_volume_trend(self, capsys):
        assert main(["volume", "--k-list", "2,4", "--n", "5000", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,skewness"
        assert len(lines) == 3

    def test_phyllo_svg(self, tmp_path):
        out = tmp_path / "pattern.svg"
        assert main(["phyllo", "--n", "60", "--out", str(out)]) == 0
        root = ET.parse(out).getroot()
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 60

    def test_phyllo_divergence_deg(self, capsys):
        # a 90 degree divergence puts every fourth point on one ray from the origin
        assert main(["phyllo", "--n", "9", "--divergence-deg", "90"]) == 0
        root = ET.fromstring(capsys.readouterr().out)
        xy = [(float(c.get("cx")), float(c.get("cy")))
              for c in root.findall(".//{http://www.w3.org/2000/svg}circle")]
        ray = [math.atan2(y, x) for x, y in xy[::4]]
        assert len(xy) == 9 and max(ray) - min(ray) < 1e-5

    def test_no_partial_output_on_error(self, tmp_path):
        out = tmp_path / "never.txt"
        code = main(["ml", "--alpha", "-1", "--x", "1", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_corr_data_needs_two_columns(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x\n1\n2\n3\n")
        assert "two columns" in self.assert_one_line_error(["corr", "--data", str(data)], capsys)

    def test_missing_input_file_exits_1(self, tmp_path, capsys):
        code = main(["qform", "--matrix", str(tmp_path / "absent.csv")])
        assert code == 1

    @staticmethod
    def assert_one_line_error(argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("pathway-toolkit: error: ")
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pathway", "--params", "{file}", "--op", "pdf", "--x", "1"],
            ["melconv", "--spec", "{file}", "--u", "0.5"],
        ],
    )
    @pytest.mark.parametrize("text", ['{"alpha": 1.0,', "[1]"], ids=["syntax", "list"])
    def test_malformed_json_exits_1(self, argv, text, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(text)
        self.assert_one_line_error([a.format(file=f) for a in argv], capsys)

    @pytest.mark.parametrize(
        "doc",
        [
            {"numerator": [{"exponent": 1.0}]},
            {"numerator": [{"kind": "gamma"}]},
            {"numerator": [1]},
            {"numerator": [{"kind": "uniform01", "exponent": "x"}]},
            {"numerator": 5},
            {"numerator": [{"kind": "uniform01", "exponent": True}]},
            {"numerator": [{"kind": "gamma", "gamma": True}]},
            # misspelt "denominator": it must not be dropped silently
            {"numerator": [{"kind": "uniform01"}] * 2,
             "denominatr": [{"kind": "uniform01"}]},
        ],
        ids=["no_kind", "no_shape_key", "not_an_object", "bad_exponent", "not_a_list",
             "bool_exponent", "bool_shape", "unknown_key"],
    )
    def test_bad_spec_factor_exits_1(self, doc, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        argv = ["melconv", "--spec", str(spec), "--u", "0.5"]
        self.assert_one_line_error(argv, capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["melconv", "--spec", "{spec}", "--u", "0.5", "--out", "{out}"],
            ["anova", "--a-matrix", "{dir}", "--g", "{csv}", "--out", "{out}"],
            ["pathway", "--params", "{dir}", "--x", "1", "--out", "{out}"],
            ["corr", "--data", "{latin1}", "--out", "{out}"],
            ["qform", "--matrix", "{csv}", "--n", "10", "--out", "{dir}/absent/x.txt"],
        ],
        ids=["kind_not_a_string", "a_matrix_is_a_directory", "params_is_a_directory",
             "csv_not_utf8", "out_in_a_missing_directory"],
    )
    def test_unreadable_input_or_output_is_one_line(self, argv, tmp_path, capsys):
        (tmp_path / "spec.json").write_text(json.dumps({"numerator": [{"kind": [1]}]}))
        (tmp_path / "m.csv").write_text("a,b\n1,0\n0,1\n")
        (tmp_path / "latin1.csv").write_bytes("x,y\n1,2\n2,3\n3,5 \u00b5\n".encode("latin-1"))
        names = dict(spec="spec.json", csv="m.csv", latin1="latin1.csv", out="out.txt", dir="")
        self.assert_one_line_error([a.format(**{k: str(tmp_path / v) for k, v in names.items()})
                                    for a in argv], capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["latin1.csv", "m.csv", "spec.json"]

    @pytest.mark.parametrize(
        "argv, name, data",
        [
            (["anova", "--a-matrix", "{m}", "--g", "{f}"], "g.csv",
             "g\n1\n2 \u00b5\n".encode("latin-1")),
            (["melconv", "--spec", "{f}", "--u", "0.5"], "spec.json",
             '{"numerator": [{"kind": "uniform01 \u00b5"}]}'.encode("latin-1")),
            (["pathway", "--params", "{f}", "--x", "1"], "p.json",
             b'{"alpha": 1.0,\n"gamma": 0.0 "delta": 1.0}'),
            (["pathway", "--params", "{f}", "--x", "1"], "p.json", b'{"alpha": 1.0}'),
        ],
        ids=["csv_not_utf8", "spec_not_utf8", "params_malformed_json", "params_missing_keys"],
    )
    def test_input_file_error_names_its_file(self, argv, name, data, tmp_path, capsys):
        (tmp_path / "m.csv").write_text("a,b\n0.6,0.4\n0.3,0.7\n")
        (tmp_path / name).write_bytes(data)
        argv = [a.format(m=tmp_path / "m.csv", f=tmp_path / name) for a in argv]
        assert str(tmp_path / name) in self.assert_one_line_error(argv, capsys)

    @pytest.mark.parametrize("route", ["quadrature", "mellin", "both"])
    @pytest.mark.parametrize("argv", [["--gamma", "0", "--a", "0", "--b", "0"],
                                      ["--gamma=-1.5", "--a", "1", "--b", "0"]],
                             ids=["a_and_b_zero", "b_zero_gamma_low"])
    def test_ratecalc_outside_the_domain_exits_1(self, argv, route, capsys):
        self.assert_one_line_error(["ratecalc", *argv, "--route", route], capsys)

    def test_mellin_route_gamma_at_most_minus_2_exits_1(self, capsys):
        argv = ["ratecalc", "--route", "mellin", "--gamma=-2.5", "--a", "1", "--b", "1"]
        assert "gamma > -2" in self.assert_one_line_error(argv, capsys)

    def test_mellin_route_gamma_past_double_range_exits_1(self, capsys):
        # Gamma(gamma + 2) overflows: one error line, no RuntimeWarning before it
        argv = ["ratecalc", "--route", "mellin", "--gamma", "1e306", "--a", "1", "--b", "1"]
        assert "double range" in self.assert_one_line_error(argv, capsys)

    @pytest.mark.parametrize("gamma", ["1e300", "2.5e305"])
    def test_mellin_route_estimate_past_double_range_exits_1(self, gamma, capsys):
        # g underflows to 0 while its scale passes a double: not a silent 0 on stdout
        argv = ["ratecalc", "--route", "mellin", "--gamma", gamma, "--a", "1", "--b", "1"]
        err = self.assert_one_line_error(argv, capsys)
        assert "error estimate past the double range" in err
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "alpha", ["x", None, True], ids=["string", "null", "bool"]
    )
    def test_non_numeric_pathway_params_exit_1(self, alpha, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(dict(alpha=alpha, gamma=0, delta=1, a=1, eta=1)))
        argv = ["pathway", "--params", str(f), "--x", "0.5"]
        assert "must be numbers" in self.assert_one_line_error(argv, capsys)

    def test_pathway_params_out_of_double_range_exit_1(self, tmp_path, capsys):
        # the support end 2^(1e300) overflows; it used to escape as OverflowError
        f = tmp_path / "p.json"
        f.write_text(json.dumps(dict(alpha=0.5, gamma=0, delta=1e-300, a=1, eta=1)))
        argv = ["pathway", "--params", str(f), "--op", "pdf", "--x", "0.5"]
        assert "overflows a double" in self.assert_one_line_error(argv, capsys)

    def test_pathway_pdf_past_double_range_is_inf(self, capsys):
        argv = ["pathway", "--alpha", "1", "--delta", "0.1", "--a", "1e100", "--x", "0"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "inf\n"

    @pytest.mark.parametrize("route", ["mellin", "both"])
    @pytest.mark.parametrize("point", [["200", "1e-5", "0"], ["-300", "0", "1e-5"]])
    def test_ratecalc_closed_form_past_double_range_is_inf(self, point, route, capsys):
        # the closed forms Gamma(201) / a^201 and 2 Gamma(598) / b^598 are past the double range
        argv = ["ratecalc", f"--gamma={point[0]}", "--a", point[1], "--b", point[2],
                "--route", route]
        assert main(argv) == 0
        assert capsys.readouterr() == ("inf\n", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["ratecalc", "--gamma", ",", "--a", "1", "--b", "1"],
            ["kratzel", "--gamma", "0", "--a", "1", "--y", ","],
            ["melconv", "--spec", "{spec}", "--u", ","],
        ],
        ids=["ratecalc", "kratzel", "melconv"],
    )
    def test_empty_grid_axis_exits_1(self, argv, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"numerator": [{"kind": "uniform01"}]}))
        err = self.assert_one_line_error([a.format(spec=spec) for a in argv], capsys)
        assert "empty grid axis" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pathway", "--alpha", "1", "--op", "sample", "--n", "100000000000000"],
            ["qform", "--matrix", "{m}", "--n", "100000000000000"],
            ["volume", "--k-list", "2", "--n", "100000000000000"],
        ],
        ids=["pathway", "qform", "volume"],
    )
    def test_draw_count_past_memory_exits_1(self, argv, tmp_path, capsys):
        # numpy refuses an allocation of 728 TiB or more at once: nothing is allocated
        m = tmp_path / "m.csv"
        m.write_text("a,b\n1,0\n0,1\n")
        err = self.assert_one_line_error([a.format(m=m) for a in argv], capsys)
        assert "Unable to allocate" in err

    def test_kratzel_without_a_probe_peak_prints_0(self, capsys):
        # the log-integrand peaks near -3e96: the probe cannot resolve its width, and the
        # concave bound e^phi(t*) (2 + ...) underflows
        argv = ["kratzel", "--gamma=-0.17", "--a", "1.13e78", "--y", "1.13e145",
                "--alpha", "7.74", "--beta", "20.87"]
        assert main(argv) == 0
        assert capsys.readouterr() == ("0\n", "")

    def test_qform_without_draws_exits_1(self, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_text("a,b\n1,0\n0,1\n")
        argv = ["qform", "--matrix", str(m), "--n", "0"]
        assert "n >= 1" in self.assert_one_line_error(argv, capsys)

    def test_qform_overflowing_matrix_exits_1(self, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_text("a,b\n1e308,-1e308\n-1e308,1e308\n")
        err = self.assert_one_line_error(["qform", "--matrix", str(m)], capsys)
        assert "past the double range" in err

    def test_volume_with_one_draw_exits_1(self, capsys):
        assert "n >= 2" in self.assert_one_line_error(["volume", "--n", "1"], capsys)

    @pytest.mark.parametrize(
        "doc, u, why",
        [
            ({"numerator": [{"kind": "uniform01"}] * 2}, "inf", "finite u > 0"),
            ({"numerator": [{"kind": "uniform01"}] * 2}, "nan", "finite u > 0"),
            ({"numerator": [{"kind": "uniform01"}] * 2}, "1e-320", "double range"),
            ({"numerator": [{"kind": "gamma", "gamma": 0.7}],
              "denominator": [{"kind": "gamma", "gamma": 2.5}]}, "1e-300", "double range"),
        ],
        ids=["inf", "nan", "uniform_product_tiny", "gamma_ratio_tiny"],
    )
    def test_melconv_u_out_of_range_exits_1(self, doc, u, why, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        argv = ["melconv", "--spec", str(spec), f"--u={u}"]
        assert why in self.assert_one_line_error(argv, capsys)

    def test_melconv_reciprocal_uniform(self, tmp_path, capsys):
        # 1/U has a strip infinite on the left and density 1/u^2 on (1, inf)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"denominator": [{"kind": "uniform01"}]}))
        assert main(["melconv", "--spec", str(spec), "--u", "2,4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "u,density"
        for line in out[1:]:
            u, g = map(float, line.split(","))
            assert g == pytest.approx(u**-2, rel=1e-8)

    @pytest.mark.parametrize(
        "argv",
        [
            ["pathway", "--alpha", "nan", "--x", "1"],
            ["pathway", "--alpha", "0.5", "--op", "pdf", "--x", "nan"],
            ["pathway", "--alpha", "0.5", "--op", "cdf", "--x", "nan"],
            ["corr", "--x", "1,2,inf", "--y", "1,2,3"],
            ["ratecalc", "--gamma", "1", "--a", "nan", "--b", "0", "--route", "mellin"],
            ["ratecalc", "--gamma", "nan", "--a", "1", "--b", "0", "--route", "mellin"],
            ["volume", "--alpha", "inf", "--n", "100"],
            ["phyllo", "--k", "inf"],
            ["phyllo", "--marker-radius", "inf"],
        ],
        ids=["pathway_alpha", "pathway_pdf_x", "pathway_cdf_x", "corr", "ratecalc_a",
             "ratecalc_gamma", "volume", "phyllo_k", "phyllo_marker_radius"],
    )
    def test_non_finite_input_exits_1(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_one_line_error(argv, capsys)


class TestTables:
    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "t.csv"
        eye = np.eye(3)
        write_table(["a", "b", "c"], eye, path)
        header, loaded = load_table(path)
        assert header == ["a", "b", "c"]
        assert np.array_equal(loaded, eye)

    def test_round_trip_15_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        values = np.array([[math.pi, 1.0 / 3.0, 2.0 / 27.0]])
        write_table(["x", "y", "z"], values, path)
        _, loaded = load_table(path)
        assert np.max(np.abs(loaded - values) / np.abs(values)) < 1e-14

    def test_ragged_row_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DomainError, match="row 3"):
            load_table(path)

    def test_bad_number_names_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,x\n")
        with pytest.raises(DomainError, match="row 2, column 2"):
            load_table(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DomainError, match="empty"):
            load_table(path)

    def test_format_table_deterministic(self):
        rows = [(0, 0.1), (1, 2.0 / 3.0)]
        assert format_table(["i", "v"], rows) == format_table(["i", "v"], rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["ratecalc", "--gamma", "0", "--a", "inf", "--b", "1", "--route", "mellin"],
        ["pathway", "--alpha", "0.5", "--gamma", "inf", "--x", "1"],
        ["kratzel", "--gamma", "0", "--a", "1", "--y", "inf"],
    ],
    ids=["ratecalc", "pathway", "kratzel"],
)
def test_infinite_parameter_is_one_stderr_line(argv):
    # run as a user does: a RuntimeWarning ahead of the error would show here
    src = os.path.dirname(os.path.dirname(pathway_toolkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "pathway_toolkit.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("pathway-toolkit: error: ") and "finite" in proc.stderr


_INPUTS = {"counts": "r1,r2\n3,1\n2,4\n", "g": "g\n1\n2\n", "matrix": "m1,m2\n1,0\n0,0\n"}


@pytest.mark.parametrize(
    "argv, scipy_loaded",
    [
        ([], False),
        (["phyllo", "--n", "30"], False),
        (["corr", "--x", "1,2,3", "--y", "1,3,2"], False),
        (["anova", "--counts", "{counts}", "--g", "{g}"], False),
        (["volume", "--n", "1000"], False),
        (["ml", "--alpha", "0.5", "--x", "1"], True),
        (["pathway", "--alpha", "0.5", "--x", "1"], True),
        (["ratecalc", "--gamma", "0", "--a", "1", "--b", "1"], True),
        (["qform", "--matrix", "{matrix}", "--n", "1000"], True),
    ],
    ids=["import", "phyllo", "corr", "anova", "volume", "ml", "pathway", "ratecalc", "qform"],
)
def test_scipy_loads_only_where_a_subcommand_needs_it(argv, scipy_loaded, tmp_path):
    # start-up is most of a CLI call: scipy.special is most of it, and scipy.spatial
    # alone cost about 0.1 s, pulling in linalg, sparse and constants
    for name, text in _INPUTS.items():
        (tmp_path / f"{name}.csv").write_text(text)
    argv = [a.format(**{name: tmp_path / f"{name}.csv" for name in _INPUTS}) for a in argv]
    code = ("import contextlib, io, sys\n"
            "from pathway_toolkit import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "scipy = sys.modules.get('scipy')\n"
            "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'] != [],\n"
            "      sorted(m for m in scipy.submodules if 'scipy.' + m in sys.modules) if scipy else [])")
    src = os.path.dirname(os.path.dirname(pathway_toolkit.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == ("0 True ['special']\n" if scipy_loaded else "0 False []\n")
