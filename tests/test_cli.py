"""Front-end behavior: output schemas, exit codes, and reproducibility."""

import ast
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fairnoma import _quad, cli, mcsim, multiuser
from fairnoma.cli import main
from fairnoma.outage import outage_point
from fairnoma.twouser import SystemParams

# every figure's CSV header; the golden hashes pin these too, but only under
# the numpy they were recorded with
FIGURE_HEADERS = {
    1: "xi_db,e_c1_oma,e_c2_oma,e_c1_noma_ainf_cf,e_c2_noma_asup_cf,"
       "e_c1_noma_ainf_mc,e_c2_noma_asup_mc,approx_c1,approx_c2",
    2: "xi_db,p_oma_weak_cf,p_oma_strong_cf,p_noma_weak_ainf_cf,"
       "p_noma_strong_asup_cf,p_oma_weak_mc,p_oma_strong_mc,"
       "p_noma_weak_ainf_mc,p_noma_strong_asup_mc,p_noma_weak_mid_mc,"
       "p_noma_strong_mid_mc",
    3: "k,c_min_oma_mc,c_max_oma_mc,c_min_ainf_mc,c_max_ainf_mc,"
       "c_min_asup_mc,c_max_asup_mc",
    4: "xi_db,s_oma_mc,s_ainf_mc,s_asup_mc,s_fixed_mc",
    5: "k,ds_ainf_mc,ds_asup_mc,ds_fixed_mc,gain_asup_cf",
    6: "xi_db,e_sum_b_mc",
}


# argv whose closed forms once raised QuadratureError (QUADPACK roundoff
# exits in scipy's quad)
QUAD_ARGV = [
    ["figure", "2", "--trials", "10", "--xi-db", "66", "--r0", "4"],
    ["figure", "1", "--trials", "10", "--xi-db", "76", "--beta", "2"],
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(out: str, name: str) -> float:
    for line in out.splitlines():
        if line.startswith(f"{name} = "):
            return float(line.split(" = ")[1].split()[0])
    raise AssertionError(f"{name} not found in output:\n{out}")


def read_csv(path):
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    header = lines[0].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[1:] if line]
    return text, header, rows


class TestRegion:
    def test_unit_snr_example(self, capsys):
        code, out, _ = run_cli(capsys, ["region", "--xi", "1",
                                        "--g1", "3", "--g2", "8"])
        assert code == 0
        assert grab(out, "a_inf") == pytest.approx(0.25, abs=1e-12)
        assert grab(out, "a_sup") == pytest.approx(1.0 / 3.0, rel=1e-11)

    def test_swaps_unordered_gains_with_warning(self, capsys):
        code, out, err = run_cli(capsys, ["region", "--xi", "1",
                                          "--g1", "8", "--g2", "3"])
        assert code == 0
        assert "swapping" in err
        assert grab(out, "g1") == 3.0
        assert grab(out, "a_inf") == pytest.approx(0.25, abs=1e-12)

    def test_equal_gains_note_degenerate(self, capsys):
        code, out, _ = run_cli(capsys, ["region", "--xi", "5",
                                        "--g1", "2", "--g2", "2"])
        assert code == 0
        assert "degenerate" in out
        assert grab(out, "a_inf") == grab(out, "a_sup")

    def test_db_flag_matches_linear_flag(self, capsys):
        _, out_db, _ = run_cli(capsys, ["region", "--xi-db", "20",
                                        "--g1", "1", "--g2", "4"])
        _, out_lin, _ = run_cli(capsys, ["region", "--xi", "100",
                                         "--g1", "1", "--g2", "4"])
        assert out_db == out_lin

    def test_boundary_identities_visible(self, capsys):
        _, out, _ = run_cli(capsys, ["region", "--xi", "30",
                                     "--g1", "0.5", "--g2", "2"])
        table = {line.split()[0]: [float(v) for v in line.split()[1:]]
                 for line in out.splitlines()
                 if "=" not in line
                 and line.startswith(("oma", "a_inf", "a_sup"))}
        assert table["a_sup"][0] == pytest.approx(
            table["oma"][0], rel=1e-12, abs=0.0)
        assert table["a_inf"][1] == pytest.approx(
            table["oma"][1], rel=1e-12, abs=0.0)

    def test_exit_codes(self, capsys):
        assert run_cli(capsys, ["region", "--xi", "1", "--g1", "-2",
                                "--g2", "3"])[0] == 1
        assert run_cli(capsys, ["region", "--g1", "1", "--g2", "2"])[0] == 2
        assert run_cli(capsys, ["region", "--xi", "1", "--xi-db", "0",
                                "--g1", "1", "--g2", "2"])[0] == 2
        # the instantaneous region has no fading mean to take
        assert run_cli(capsys, ["region", "--xi", "1", "--g1", "1",
                                "--g2", "2", "--beta", "7"])[0] == 2
        # an SNR beyond a double names the gain the user gave, in either
        # order of the flags
        for gains in (["--g1", "1", "--g2", "1e10"],
                      ["--g2", "1e10", "--g1", "1"]):
            code, out, err = run_cli(capsys, ["region", "--xi", "1e300"]
                                     + gains)
            assert code == 1 and out == ""
            assert err == ("error: xi * g2 must be positive and finite,"
                           " got inf\n"), err

    def test_overflowing_xi_db_exits_1(self, capsys):
        # 10**400 is no double: one error line, not an OverflowError traceback
        code, out, err = run_cli(capsys, ["region", "--xi-db", "4000",
                                          "--g1", "1", "--g2", "2"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("db,message", [
        ("-4000", "SNR of -4000.0 dB underflows to 0"),
        ("-inf", "SNR in dB must be finite, got -inf"),
        ("nan", "SNR in dB must be finite, got nan")])
    def test_xi_db_of_no_positive_snr_exits_1_naming_it(self, capsys, db,
                                                         message):
        code, out, err = run_cli(capsys, ["region", f"--xi-db={db}",
                                          "--g1", "1", "--g2", "2"])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["region", "--xi", "1e300", "--g1", "1", "--g2", "1e10"],
        ["multiuser", "--k", "2", "--xi", "1e300", "--gains", "1,1e10"],
        ["multiuser", "--k", "2", "--xi", "1e-200", "--gains", "1e-200,1"]],
        ids=["region", "multiuser", "multiuser-underflow"])
    def test_snr_beyond_a_double_exits_1(self, capsys, argv):
        # xi and each gain are doubles, but xi times a gain is not: one
        # error line naming the product, before any rate is computed
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: xi * ") and err.count("\n") == 1, err


class TestFigureOutputs:
    def test_figure1_schema_and_values(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, [
            "figure", "1", "--trials", "20000", "--xi-db", "0,20,40",
            "--out-dir", str(tmp_path)])
        assert code == 0
        text, header, rows = read_csv(tmp_path / "figure1.csv")
        assert "\r" not in text
        assert [r[0] for r in rows] == [0.0, 20.0, 40.0]
        cols = dict(zip(header, zip(*rows)))
        for cf, mc in (("e_c1_noma_ainf_cf", "e_c1_noma_ainf_mc"),
                       ("e_c2_noma_asup_cf", "e_c2_noma_asup_mc")):
            for v_cf, v_mc in zip(cols[cf], cols[mc]):
                assert v_mc == pytest.approx(v_cf, abs=0.06)
        # fair region guarantees the NOMA endpoint curves dominate OMA
        assert all(a >= b for a, b in zip(cols["e_c1_noma_ainf_cf"],
                                          cols["e_c1_oma"]))

    def test_figure2_closed_form_column(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, [
            "figure", "2", "--trials", "10000", "--xi-db", "10,30",
            "--out-dir", str(tmp_path)])
        assert code == 0
        _, header, rows = read_csv(tmp_path / "figure2.csv")
        i = header.index("p_oma_weak_cf")
        for row in rows:
            expected = outage_point(
                SystemParams(xi=10.0 ** (row[0] / 10.0), r0=2.0)).p_oma_weak
            assert row[i] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_k_sweep_figures(self, capsys, tmp_path):
        for fig, lead in ((3, "k"), (5, "k")):
            code, _, _ = run_cli(capsys, [
                "figure", str(fig), "--trials", "5000",
                "--k-grid", "2,4", "--out-dir", str(tmp_path)])
            assert code == 0
            _, header, rows = read_csv(tmp_path / f"figure{fig}.csv")
            assert header[0] == lead
            assert [r[0] for r in rows] == [2.0, 4.0]
        _, header, rows = read_csv(tmp_path / "figure5.csv")
        i = header.index("gain_asup_cf")
        assert rows[0][i] == pytest.approx(1.0, abs=1e-12)

    def test_figures_4_and_6(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, [
            "figure", "4", "--trials", "5000", "--xi-db", "0,30",
            "--k", "4", "--out-dir", str(tmp_path)])
        assert code == 0
        code, _, _ = run_cli(capsys, [
            "figure", "6", "--trials", "5000", "--xi-db", "0,30",
            "--k", "5", "--out-dir", str(tmp_path)])
        assert code == 0
        _, header, rows = read_csv(tmp_path / "figure6.csv")
        assert header == ["xi_db", "e_sum_b_mc"]
        assert all(row[1] < 1.0 for row in rows)

    def test_cells_round_trip_doubles(self, capsys, tmp_path):
        run_cli(capsys, ["figure", "6", "--trials", "3000",
                         "--xi-db", "0,30", "--out-dir", str(tmp_path)])
        text, _, rows = read_csv(tmp_path / "figure6.csv")
        cells = [c for line in text.split("\n")[1:] if line
                 for c in line.split(",")]
        assert all(format(float(c), ".17g") == c for c in cells)

    @pytest.mark.parametrize("figure", sorted(FIGURE_HEADERS))
    def test_header_and_plot_columns(self, capsys, tmp_path, figure):
        grid = ["--k-grid", "2"] if figure in (3, 5) else ["--xi-db", "20"]
        code, _, _ = run_cli(capsys, ["figure", str(figure), "--trials", "10",
                                      "--plot", "--out-dir", str(tmp_path)]
                             + grid)
        assert code == 0
        header = (tmp_path / f"figure{figure}.csv").read_text(
            encoding="utf-8").split("\n")[0]
        assert header == FIGURE_HEADERS[figure]
        script = (tmp_path / f"figure{figure}_plot.py").read_text(
            encoding="utf-8")
        loop = next(line for line in script.splitlines()
                    if line.startswith("for col in "))
        assert (ast.literal_eval(loop[len("for col in "):-1])
                == header.split(",")[1:])

    @pytest.mark.parametrize("figure", sorted(FIGURE_HEADERS))
    def test_sweep_asks_for_the_measures_the_figure_writes(
            self, capsys, tmp_path, monkeypatch, figure):
        # a recording wrapper put in place of the module's simulate, as a
        # tracer wraps it: the figure's sweep must call it by that name
        fig = cli._FIGURES[figure]
        simulate = cli.simulate
        calls = []

        def recording(*args, **kwargs):
            points = simulate(*args, **kwargs)
            calls.append((kwargs.get("measures"),
                          [set(pt.measures) for pt in points]))
            return points

        monkeypatch.setattr(cli, "simulate", recording)
        grid = ["--k-grid", "2,3"] if figure in (3, 5) else ["--xi-db", "20,30"]
        code, _, _ = run_cli(capsys, ["figure", str(figure), "--trials", "10",
                                      "--out-dir", str(tmp_path)] + grid)
        assert code == 0
        sources = {src for name, src in fig.columns if name.endswith("_mc")}
        assert calls == [(sources, [sources, sources])]

    def test_plot_script_written_and_compiles(self, capsys, tmp_path):
        run_cli(capsys, ["figure", "6", "--trials", "2000", "--xi-db", "0,20",
                         "--out-dir", str(tmp_path), "--plot"])
        script = (tmp_path / "figure6_plot.py").read_text(encoding="utf-8")
        assert "figure6.csv" in script
        compile(script, "figure6_plot.py", "exec")


# config files that must exit 2 with one usage line, before any work
_BAD_CONFIGS = {
    "malformed-json": '{"figure": 6, "trials": ',
    "array": '[6, 1000]',
    "string": '"figure 6"',
    "manifest-array": '{"command": "figure", "stream_version": %d,'
                      ' "config": [6]}' % mcsim.STREAM_VERSION,
    "xi_db-string": '{"figure": 6, "trials": 200, "xi_db": "abc"}',
    "xi_db-list-string": '{"figure": 6, "trials": 200, "xi_db": [0, "20"]}',
    "beta-string": '{"figure": 6, "trials": 200, "beta": "x"}',
    "fixed_share-string": '{"figure": 5, "trials": 200, "fixed_share": "0.2"}',
    "r0-list": '{"figure": 2, "trials": 200, "r0": [2]}',
    "k_grid-fractional": '{"figure": 3, "trials": 200, "k_grid": [2.5, 3.7]}',
    "k_grid-scalar": '{"figure": 3, "trials": 200, "k_grid": 5}',
    "k-fractional": '{"figure": 6, "trials": 200, "k": 3.5}',
    "trials-fractional": '{"figure": 6, "trials": 200.5}',
    "seed-fractional": '{"figure": 6, "trials": 200, "seed": 1.5}',
    "trials-bool": '{"figure": 6, "trials": true}',
    "k-bool": '{"figure": 6, "trials": 200, "k": true}',
    "xi_db-bool": '{"figure": 6, "trials": 200, "xi_db": [0, true]}',
    "figure-bool": '{"figure": true, "trials": 200}',
    "figure-float": '{"figure": 1.0, "trials": 200}',
    "trials-null": '{"figure": 6, "trials": null}',
    "xi_db-null": '{"figure": 1, "xi_db": null}',
}


class TestFigureReproducibility:
    def test_byte_identical_reruns_and_worker_counts(self, capsys, tmp_path):
        # 70000 trials split into multiple chunks, so worker scheduling
        # would reorder partials if reduction were order-sensitive
        argv = ["figure", "6", "--trials", "70000", "--xi-db", "0,30",
                "--k", "3"]
        outs = []
        for sub, extra in (("a", []), ("b", []), ("c", ["--workers", "3"])):
            d = tmp_path / sub
            code, _, _ = run_cli(capsys, argv + ["--out-dir", str(d)] + extra)
            assert code == 0
            outs.append((d / "figure6.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_manifest_fields_and_round_trip(self, capsys, tmp_path):
        first = tmp_path / "first"
        rerun = tmp_path / "rerun"
        code, _, _ = run_cli(capsys, [
            "figure", "5", "--trials", "4000", "--k-grid", "2,3",
            "--out-dir", str(first)])
        assert code == 0
        manifest = json.loads(
            (first / "figure5_manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "figure"
        assert manifest["config"]["figure"] == 5
        assert manifest["config"]["trials"] == 4000
        assert manifest["output_paths"] == ["figure5.csv"]
        assert manifest["tool_version"]
        assert manifest["timestamp"]
        assert manifest["stream_version"] == mcsim.STREAM_VERSION == 4
        assert manifest["numpy"] == np.__version__
        assert manifest["simd_class"] == cli._simd_class()
        code, _, err = run_cli(capsys, [
            "figure", "--config", str(first / "figure5_manifest.json"),
            "--out-dir", str(rerun)])
        assert code == 0 and err == ""
        assert ((first / "figure5.csv").read_bytes()
                == (rerun / "figure5.csv").read_bytes())

    @pytest.mark.parametrize("key", ["numpy", "simd_class"])
    def test_manifest_of_another_numpy_or_class_warns_and_runs(
            self, capsys, tmp_path, key):
        # its numbers are valid; only their last bits may differ
        code, _, _ = run_cli(capsys, ["figure", "6", "--trials", "10",
                                      "--xi-db", "20",
                                      "--out-dir", str(tmp_path / "first")])
        assert code == 0
        path = tmp_path / "first" / "figure6_manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest[key] = "other"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        code, out, err = run_cli(capsys, ["figure", "--config", str(path),
                                          "--out-dir", str(tmp_path / "rerun")])
        assert code == 0 and out.startswith("wrote ")
        assert err.startswith("warning: ") and err.count("\n") == 1, err
        assert "other" in err and "last bits may differ" in err
        assert (tmp_path / "rerun" / "figure6.csv").exists()

    @pytest.mark.parametrize("stream", [1, 2, 3, None],
                             ids=["v1", "v2", "v3", "unrecorded"])
    def test_manifest_of_another_stream_exits_2(self, capsys, tmp_path,
                                                stream):
        # re-run on another stream, it would write other bytes without a word
        code, _, _ = run_cli(capsys, ["figure", "6", "--trials", "10",
                                      "--xi-db", "20",
                                      "--out-dir", str(tmp_path / "first")])
        assert code == 0
        path = tmp_path / "first" / "figure6_manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if stream is None:   # as manifests were written before stream 2
            del manifest["stream_version"]
        else:
            manifest["stream_version"] = stream
        path.write_text(json.dumps(manifest), encoding="utf-8")
        code, out, err = run_cli(capsys, ["figure", "--config", str(path),
                                          "--out-dir", str(tmp_path / "rerun")])
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
        assert f"version {stream or 1}" in err
        assert f"version {mcsim.STREAM_VERSION}" in err
        assert not (tmp_path / "rerun").exists()

    @pytest.mark.parametrize("figure,flag,subset,rows", [
        pytest.param(figure, flag, subset, rows, id=f"{figure}-{subset}")
        for figure, flag, subset, rows in ((1, "--xi-db", "30", 31),
                                           (6, "--xi-db", "0,30", 31),
                                           (3, "--k-grid", "7,30", 29))])
    def test_grid_subset_reproduces_its_rows(self, capsys, tmp_path, figure,
                                             flag, subset, rows):
        # substreams are keyed by the chunk alone, so a point's draws do not
        # depend on the grid around it; two chunks, so the chunk index in
        # the key is exercised too
        lines = {}
        for name, extra in (("full", []), ("subset", [flag, subset])):
            code, _, _ = run_cli(capsys, [
                "figure", str(figure), "--trials", "70000",
                "--out-dir", str(tmp_path / name)] + extra)
            assert code == 0
            lines[name] = (tmp_path / name / f"figure{figure}.csv").read_text(
                encoding="utf-8").splitlines()
        full_rows = {line.split(",")[0]: line for line in lines["full"][1:]}
        assert len(full_rows) == rows
        assert lines["subset"][0] == lines["full"][0]
        assert lines["subset"][1:] == [full_rows[x] for x in subset.split(",")]

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"figure": 6, "trials": 4000,
                                   "xi_db": [0.0, 20.0], "k": 3}),
                       encoding="utf-8")
        code, _, _ = run_cli(capsys, [
            "figure", "--config", str(cfg), "--trials", "5000",
            "--out-dir", str(tmp_path)])
        assert code == 0
        manifest = json.loads(
            (tmp_path / "figure6_manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["trials"] == 5000
        assert manifest["config"]["k"] == 3

    def test_unknown_config_keys_and_bad_workers_exit_2(self, capsys,
                                                         tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"figure": 6, "trails": 5}),
                       encoding="utf-8")
        code, _, err = run_cli(capsys, ["figure", "--config", str(cfg),
                                        "--out-dir", str(tmp_path)])
        assert code == 2 and "trails" in err
        # a key of another figure is unknown to this one
        cfg.write_text(json.dumps({"figure": 6, "r0": 2.0}), encoding="utf-8")
        assert run_cli(capsys, ["figure", "--config", str(cfg)])[0] == 2
        assert not (tmp_path / "figure6.csv").exists()
        for workers in ("0", "-3"):
            code, _, err = run_cli(capsys, [
                "figure", "6", "--trials", "2000", "--xi-db", "0,20",
                "--workers", workers, "--out-dir", str(tmp_path)])
            assert code == 2 and "--workers" in err
        assert not (tmp_path / "figure6.csv").exists()

    @pytest.mark.parametrize("text", _BAD_CONFIGS.values(),
                             ids=_BAD_CONFIGS.keys())
    def test_bad_config_values_exit_2(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, ["figure", "--config", str(cfg),
                                          "--out-dir", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
        assert not list(tmp_path.glob("figure*"))

    @pytest.mark.parametrize("argv", [
        ["figure", "1", "--r0", "3"],
        ["figure", "6", "--k-grid", "2,3"],
        ["figure", "3", "--k", "9"],
    ])
    def test_flag_the_figure_does_not_take_exits_2(self, capsys, tmp_path,
                                                   argv):
        # the same check as an unknown config key, not a silent no-op
        code, out, err = run_cli(capsys, argv + ["--trials", "200",
                                                 "--out-dir", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
        assert not list(tmp_path.glob("figure*"))

    def test_out_dir_env_honored(self, capsys, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("FAIRNOMA_OUT_DIR", str(env_dir))
        code, _, _ = run_cli(capsys, ["figure", "6", "--trials", "2000",
                                      "--xi-db", "0,20"])
        assert code == 0
        assert (env_dir / "figure6.csv").exists()
        flag_dir = tmp_path / "from_flag"
        code, _, _ = run_cli(capsys, ["figure", "6", "--trials", "2000",
                                      "--xi-db", "0,20",
                                      "--out-dir", str(flag_dir)])
        assert code == 0
        assert (flag_dir / "figure6.csv").exists()

    def test_usage_and_io_exit_codes(self, capsys, tmp_path):
        assert run_cli(capsys, ["figure", "7"])[0] == 2
        assert run_cli(capsys, ["figure", "3", "--xi-db", "0,10",
                                "--trials", "100"])[0] == 2
        assert run_cli(capsys, ["figure", "6", "--trials", "0"])[0] == 2
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("x", encoding="utf-8")
        assert run_cli(capsys, ["figure", "6", "--trials", "2000",
                                "--xi-db", "0,20",
                                "--out-dir", str(blocker)])[0] == 3

    def test_overflowing_xi_db_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"figure": 6, "trials": 10, "xi_db": 4000}',
                       encoding="utf-8")
        for argv in (["figure", "1", "--trials", "10", "--xi-db", "4000"],
                     ["figure", "--config", str(cfg)]):
            code, out, err = run_cli(capsys, argv + ["--out-dir",
                                                     str(tmp_path)])
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not list(tmp_path.glob("figure*"))

    @pytest.mark.parametrize("figure,key,value", [
        (1, "xi_db", [0, 10 ** 400]), (6, "beta", 10 ** 400),
        (2, "r0", 10 ** 400), (5, "fixed_share", -10 ** 400)],
        ids=["xi_db", "beta", "r0", "fixed_share"])
    def test_config_integer_beyond_a_double_exits_1_naming_it(
            self, capsys, tmp_path, figure, key, value):
        # JSON integers are Python ints of any size: one error line, not an
        # OverflowError traceback, and no file written
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"figure": figure, "trials": 10,
                                   key: value}), encoding="utf-8")
        code, out, err = run_cli(capsys, ["figure", "--config", str(cfg),
                                          "--out-dir", str(tmp_path)])
        assert code == 1 and out == ""
        assert err == f"error: {key} must be within a double's range\n", err
        assert not list(tmp_path.glob("figure*"))

    @pytest.mark.parametrize("grid,message", [
        ("0,-inf", "SNR in dB must be finite, got -inf"),
        ("0,nan", "SNR in dB must be finite, got nan"),
        ("0,-4000", "SNR of -4000.0 dB underflows to 0"),
        ("10,5", "xi_db must be strictly increasing, got [10.0, 5.0]"),
        ([], "xi_db must be non-empty")])
    def test_bad_xi_db_grid_exits_1_naming_it(self, capsys, tmp_path, grid,
                                              message):
        # the errors name the dB values the user gave, not the linear
        # xi_grid the sweep is given
        if isinstance(grid, str):
            argv = ["figure", "1", "--trials", "10", f"--xi-db={grid}"]
        else:   # no flag can give an empty grid, a config file can
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"figure": 1, "trials": 10,
                                       "xi_db": grid}), encoding="utf-8")
            argv = ["figure", "--config", str(cfg)]
        code, out, err = run_cli(capsys, argv + ["--out-dir", str(tmp_path)])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"
        assert not list(tmp_path.glob("figure*"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("figure,measures", [
        (3, ("c1_oma", "c2_oma", "c1_noma_ainf", "c2_noma_ainf",
             "c1_noma_asup", "c2_noma_asup")),
        (4, ("s_oma", "s_noma_ainf", "s_noma_asup", "s_noma_fixed")),
        (6, ("sum_b",))])
    def test_overflowing_snr_product_exits_1(self, capsys, tmp_path, figure,
                                             measures):
        # xi = 1.6e308 is a double, but xi * g is not for a gain above about
        # 1.1: the sweep refuses its inf or nan moment instead of writing it.
        # numpy's RuntimeWarning lines may come first
        code, out, err = run_cli(capsys, [
            "figure", str(figure), "--xi-db", "3082", "--trials", "1000",
            "--out-dir", str(tmp_path)])
        assert code == 1 and out == ""
        last = err.splitlines()[-1]
        assert last.startswith("error: "), err
        assert any(name in last for name in measures), last
        assert not list(tmp_path.glob("figure*"))

    @pytest.mark.parametrize("figure,share", [(4, "1.5"), (5, "0")])
    def test_bad_fixed_share_exits_1_naming_it(self, capsys, tmp_path, figure,
                                               share):
        # the error names the parameter the user set
        code, out, err = run_cli(capsys, [
            "figure", str(figure), "--fixed-share", share, "--trials", "100",
            "--out-dir", str(tmp_path)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "fixed_share" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("figure,k,low", [(6, "0", 1), (4, "1", 2)])
    def test_bad_k_exits_1_naming_it(self, capsys, tmp_path, figure, k, low):
        # the error names --k, not the k_grid the sweep is given
        code, out, err = run_cli(capsys, [
            "figure", str(figure), "--k", k, "--trials", "100",
            "--out-dir", str(tmp_path)])
        assert code == 1 and out == ""
        assert err == f"error: k must be an integer >= {low}, got {k}\n", err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("r0", ["600", "2000"])
    def test_overflowing_r0_exits_1(self, capsys, tmp_path, r0):
        # 4**r0 - 1 is no double: one error line, not an OverflowError
        # traceback, and no file written
        code, out, err = run_cli(capsys, [
            "figure", "2", "--r0", r0, "--trials", "100", "--xi-db", "10",
            "--out-dir", str(tmp_path)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not list(tmp_path.iterdir())

    def test_certain_outage_at_a_huge_rate_exits_0(self, capsys, tmp_path):
        # every probability is 1, and alpha2 + 29 rounds back to alpha2 in
        # the weak-user closed form
        code, _, err = run_cli(capsys, [
            "figure", "2", "--r0", "60", "--trials", "10", "--xi-db", "0",
            "--out-dir", str(tmp_path)])
        assert code == 0, err
        _, _, rows = read_csv(tmp_path / "figure2.csv")
        assert rows == [[0.0] + [1.0] * 10]

    @pytest.mark.parametrize("argv", QUAD_ARGV)
    def test_quadrature_failure_exits_one(self, capsys, tmp_path, monkeypatch,
                                          argv):
        # one starting panel and no bisection round cannot meet the target
        monkeypatch.setattr(_quad, "_FIRST_ROUND",
                            _quad._first_round(np.array([0.0, 1.0])))
        monkeypatch.setattr(_quad, "_MAX_ROUNDS", 0)
        code, _, err = run_cli(capsys, argv + ["--out-dir", str(tmp_path)])
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "quadrature did not converge" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", QUAD_ARGV)
    def test_former_quadrature_failures_converge(self, capsys, tmp_path, argv):
        code, _, err = run_cli(capsys, argv + ["--out-dir", str(tmp_path)])
        assert code == 0, err
        _, header, rows = read_csv(tmp_path / f"figure{argv[1]}.csv")
        cf = [row[i] for row in rows for i, name in enumerate(header)
              if name.endswith("_cf")]
        assert cf and all(math.isfinite(v) for v in cf)


class TestMultiuserCommand:
    def test_single_user_vectors(self, capsys):
        code, out, _ = run_cli(capsys, ["multiuser", "--k", "1",
                                        "--xi-db", "10", "--gains", "0.8"])
        assert code == 0
        assert "b = 1\n" in out
        assert "a = 1\n" in out
        assert "residual_a = 0" in out

    def test_pair_identity_reported(self, capsys):
        code, out, _ = run_cli(capsys, ["multiuser", "--k", "2",
                                        "--xi", "100", "--gains", "0.5,2.0"])
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("pair check"))
        reported, a_sup = (float(tok) for tok in
                           (line.split("=")[1].split()[0],
                            line.split("=")[2].strip(") ")))
        assert reported == pytest.approx(a_sup, rel=1e-11)

    def test_random_draw_deterministic_and_checked(self, capsys):
        argv = ["multiuser", "--k", "5", "--xi-db", "25", "--random",
                "--seed", "7"]
        code, out1, _ = run_cli(capsys, argv)
        assert code == 0
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2
        assert "sum_a <= 1: OK" in out1
        assert grab(out1, "sum_a") <= 1.0

    @pytest.mark.parametrize("k,beta", [(1, 1.0), (5, 2.0), (30, 0.5)])
    def test_random_draw_is_its_keyed_substream(self, capsys, k, beta):
        # the gains are the engine's sampler on chunk 0 of the 'multiuser'
        # substream (scenario 3) under the stream version; the SNR does not
        # enter the key, so every --xi prints the same gains
        printed = []
        for xi in (10.0 ** 2.5, 3.0):
            argv = ["multiuser", "--k", str(k), "--xi", repr(xi), "--random",
                    "--seed", "7", "--beta", repr(beta)]
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            assert run_cli(capsys, argv)[1] == out
            line = next(l for l in out.splitlines() if l.startswith("gains"))
            printed.append(line.split(" = ")[1].split(","))
        vals = [float(v) for v in printed[0]]
        assert len(vals) == k and vals == sorted(vals)
        want = mcsim._ordered_gains(mcsim._substream(7, "multiuser", 0),
                                    beta, np.empty((k, 1)))
        assert printed[0] == printed[1] == [cli._txt(g) for g in want.ravel()]

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_out_of_range_seed_exits_1_as_figure_does(self, capsys, tmp_path,
                                                      seed):
        code, out, err = run_cli(capsys, ["multiuser", "--k", "3", "--xi-db",
                                          "10", "--random", "--seed", seed])
        assert code == 1 and out == ""
        assert err.startswith("error: seed must be ") and err.count("\n") == 1
        assert run_cli(capsys, ["figure", "6", "--trials", "10", "--xi-db",
                                "10", "--seed", seed, "--out-dir",
                                str(tmp_path)]) == (1, "", err)

    def test_unsorted_gains_sorted_on_entry(self, capsys):
        code, out, _ = run_cli(capsys, ["multiuser", "--k", "3", "--xi", "50",
                                        "--gains", "2.0,0.5,1.0"])
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("gains"))
        vals = [float(v) for v in line.split(" = ")[1].split(",")]
        assert vals == sorted(vals)

    def test_exit_codes(self, capsys):
        assert run_cli(capsys, ["multiuser", "--k", "3", "--xi", "50",
                                "--gains", "0.5,-1.0,2.0"])[0] == 1
        assert run_cli(capsys, ["multiuser", "--k", "3", "--xi", "50",
                                "--gains", "0.5,2.0"])[0] == 2
        assert run_cli(capsys, ["multiuser", "--k", "2",
                                "--gains", "0.5,2.0"])[0] == 2
        # rejected before the draw, with one line and no traceback
        for argv in (["--k", "3", "--xi", "10", "--random", "--beta", "-1"],
                     ["--k", "-1", "--xi", "10", "--random"],
                     ["--k", "2", "--xi", "-5", "--gains", "1,2"],
                     ["--k", "2", "--xi", "0", "--random"]):
            code, _, err = run_cli(capsys, ["multiuser"] + argv)
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_overflowing_xi_db_exits_1(self, capsys):
        code, out, err = run_cli(capsys, ["multiuser", "--k", "3", "--xi-db",
                                          "4000", "--gains", "1,2,3"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("extra", [["--seed", "5"], ["--beta", "2"],
                                       ["--beta", "-1"],
                                       ["--seed", "12345", "--beta", "1"]])
    def test_draw_flags_with_given_gains_exit_2(self, capsys, extra):
        # --gains fixes the channels, so a seed or a mean gain would be
        # silently ignored
        code, out, err = run_cli(capsys, ["multiuser", "--k", "2", "--xi",
                                          "10", "--gains", "1,2"] + extra)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1, err

    def test_each_rate_vector_taken_once(self, capsys, monkeypatch):
        # the table is three whole vectors: OMA, and NOMA under b and under
        # a; one rate per user and column made the command cubic in K
        calls = {"_oma_rate": 0, "_noma_rates": 0}
        for name in calls:
            def counted(*args, _name=name, _rates=getattr(multiuser, name)):
                calls[_name] += 1
                return _rates(*args)
            monkeypatch.setattr(multiuser, name, counted)
        code, out, _ = run_cli(capsys, ["multiuser", "--k", "50", "--random",
                                        "--xi", "100"])
        assert code == 0 and out.count("\n") == 58
        assert calls == {"_oma_rate": 1, "_noma_rates": 2}

    def test_random_draw_defaults(self, capsys, monkeypatch):
        argv = ["multiuser", "--k", "4", "--xi-db", "20", "--random"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert run_cli(capsys, argv + ["--seed", "12345", "--beta", "1"]
                       )[1] == out
        assert run_cli(capsys, argv + ["--seed", "5"])[1] != out
        assert run_cli(capsys, argv + ["--beta", "2"])[1] != out
        # one table of defaults: the draw follows the figures' seed and beta
        changed = run_cli(capsys, argv + ["--seed", "5", "--beta", "2"])[1]
        monkeypatch.setitem(cli._COMMON_DEFAULTS, "seed", 5)
        monkeypatch.setitem(cli._COMMON_DEFAULTS, "beta", 2.0)
        assert run_cli(capsys, argv)[1] == changed


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: neither importing the CLI nor
    # evaluating every quadrature-backed closed form may load it
    src = os.path.dirname(os.path.dirname(mcsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = (
        "import sys, fairnoma.cli\n"
        "print('scipy' in sys.modules)\n"
        "from fairnoma import SystemParams, ergodic_curve_point, outage_point,"
        " expected_gain_asup\n"
        "ergodic_curve_point(SystemParams(xi=1e3))\n"
        "outage_point(SystemParams(xi=1e3, r0=2.0))\n"
        "expected_gain_asup(30)\n"
        "print('scipy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fairnoma.cli", "region",
         "--xi", "1", "--g1", "3", "--g2", "8"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "a_inf = 0.25" in proc.stdout
