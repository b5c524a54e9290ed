import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mrexplore
from mrexplore import config
from mrexplore.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from mrexplore.pgm import load_grid
from mrexplore.worlds import make_world

CFG = """
[scenario]
map = builtin:open20
robots = 1
method = proposed
seed = 11
dt = 1.0
max_sim_time = 25

[lidar]
beam_count = 72
max_range = 5.0

[planner]
inflation_cells = 0
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(CFG)
    return str(path)


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class TestRun:
    def test_success_writes_outputs(self, cfg_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg_file, "--out", out]) == EXIT_OK
        metrics = open(os.path.join(out, "metrics.csv")).read().strip().split("\n")
        assert len(metrics) > 1
        assert metrics[0].startswith("time,coverage_r0")
        assert os.path.exists(os.path.join(out, "summary.csv"))
        g = load_grid(os.path.join(out, "map_merged.pgm"))
        assert g.width == 20
        assert os.path.exists(os.path.join(out, "map_r0.pgm"))
        assert "final coverage" in capsys.readouterr().out

    def test_missing_map_names_path(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nmap = /missing/world.pgm\n"
                        "start_poses = 1,1,0\nrobots = 1\n")
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(path), "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "/missing/world.pgm" in err

    def test_missing_config(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_start_pose_in_wall_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "wall.cfg"
        path.write_text("[scenario]\nmap = builtin:open20\nrobots = 1\n"
                        "start_poses = 1.5, 0.5, 0\nmax_sim_time = 2\n")
        code = main(["run", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "free cell" in capsys.readouterr().err

    def test_rerun_byte_identical(self, cfg_file, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert main(["run", "--config", cfg_file, "--out", out1]) == EXIT_OK
        assert main(["run", "--config", cfg_file, "--out", out2]) == EXIT_OK
        assert sha(os.path.join(out1, "metrics.csv")) == \
            sha(os.path.join(out2, "metrics.csv"))
        assert sha(os.path.join(out1, "summary.csv")) == \
            sha(os.path.join(out2, "summary.csv"))
        assert sha(os.path.join(out1, "map_merged.pgm")) == \
            sha(os.path.join(out2, "map_merged.pgm"))

    def test_no_wall_seen_warns_of_nan(self, tmp_path):
        # a 0.5 m lidar in 2 s proves no wall, so alignment_error is nan;
        # run as a process so that its log goes to stderr at the default level
        path = tmp_path / "short.cfg"
        path.write_text("[scenario]\nmap = builtin:desk\nrobots = 1\n"
                        "max_sim_time = 2\n\n[lidar]\nmax_range = 0.5\n")
        env = {k: v for k, v in os.environ.items() if k != "EXPLORER_LOG"}
        env["PYTHONPATH"] = str(Path(mrexplore.__file__).parents[1])
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "mrexplore.cli", "run", "--config", str(path),
             "--out", str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        header, row = (out / "summary.csv").read_text().strip().split("\n")
        assert dict(zip(header.split(","), row.split(",")))["alignment_error"] == "nan"
        lines = proc.stderr.strip().split("\n")
        assert len(lines) == 1
        assert "alignment_error is nan" in lines[0]


# Configs whose values parse but whose run could not go ahead: an infinite
# or zero tick count, and an infinite loop-closure gap in nodes.
REJECTED_AFTER_LOADING = [
    "[scenario]\nmap = builtin:open20\nrobots = 1\nmax_sim_time = 1e300\ndt = 1e-300\n",
    "[scenario]\nmap = builtin:open20\nrobots = 1\nmax_sim_time = 0.4\n",
    "[scenario]\nmap = builtin:open20\nrobots = 1\nmax_sim_time = 5\n"
    "[graph]\nnode_spacing = 1e-300\nloop_closure_radius = 1e10\n",
]
REJECTED_IDS = ["infinite_ticks", "zero_ticks", "infinite_loop_gap"]


class TestConfigErrors:
    @pytest.mark.parametrize("text", [
        "[scenario]\nspeed = nan\n",
        "[utility]\ndecay_rate = inf\n",
        "[filter]\nrad = nan\n",
        "[graph]\nnode_spacing = nan\n",
        "[scenario]\nmap = builtin:nosuch\n",
        "[scenario]\nmap = builtin:desk\nrobots = 5\n",
        "[filter]\nperc_step = 1e-300\n",
        "[filter]\nper_unk = 0\nrad_step = 1e-300\n",
        "[scenario]\nseed = 5%\n",
        "[lidar]\nbeams = 720\n",
        "[lidr]\nbeam_count = 720\n",
        "[DEFAULT]\nseed = 3\n[scenario]\nrobots = 1\n",
        "[filter]\nmap = builtin:desk\n",
        *REJECTED_AFTER_LOADING,
    ], ids=["speed_nan", "decay_rate_inf", "rad_nan", "node_spacing_nan",
            "unknown_world", "too_many_robots", "perc_step_absorbed",
            "rad_step_absorbed", "percent_sign", "unknown_key", "unknown_section",
            "default_key", "key_of_other_section", *REJECTED_IDS])
    def test_one_line_and_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err
        lines = err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("config error: ")

    @pytest.mark.parametrize("text", [
        *REJECTED_AFTER_LOADING,
        "[scenario]\nmap = builtin:nosuch\n",
        "[scenario]\nmap = builtin:open20\nrobots = 1\nstart_poses = 1.5, 0.5, 0\n",
    ], ids=[*REJECTED_IDS, "unknown_world", "start_in_wall"])
    def test_rejected_run_leaves_no_out_dir(self, tmp_path, capsys, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_run_builds_its_world_once(self, cfg_file, tmp_path, monkeypatch):
        calls = []

        def counted(name):
            calls.append(name)
            return make_world(name)

        monkeypatch.setattr(config, "make_world", counted)
        assert main(["run", "--config", cfg_file, "--out", str(tmp_path / "o")]) == EXIT_OK
        assert calls == ["open20"]

    def test_int_too_large_for_float_names_its_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[filter]\nmin_pts = 1" + "0" * 400 + "\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err
        lines = err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("config error: [filter] min_pts: ")

    def test_too_large_max_range_names_it(self, tmp_path, capsys):
        # finite on its own, but the walk's distances overflow on desk's cells
        path = tmp_path / "bad.cfg"
        path.write_text("[lidar]\nmax_range = 1e308\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        lines = err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("config error: ")
        assert "max_range" in lines[0] and "resolution" in lines[0]

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"[scenario]\nseed = 1\xff\n"),
    ], ids=["directory", "not_utf8"])
    def test_unreadable_config_file(self, tmp_path, capsys, make):
        path = tmp_path / "bad.cfg"
        make(path)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err
        lines = err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("config error: ")

    @pytest.mark.parametrize("raster", [
        b"P2\n2 1\n255\n0 300\n",
        b"P2\n2 1\n255\n-5 255\n",
        b"P5\n2 1\n15\n\x00\xff",
    ], ids=["p2_sample_300", "p2_sample_negative", "p5_sample_above_maxval"])
    def test_map_sample_out_of_range(self, tmp_path, capsys, raster):
        (tmp_path / "m.pgm").write_bytes(raster)
        (tmp_path / "m.meta").write_text(
            "resolution = 1.0\norigin_x = 0\norigin_y = 0\n")
        path = tmp_path / "bad.cfg"
        path.write_text(f"[scenario]\nmap = {tmp_path / 'm.pgm'}\nrobots = 1\n"
                        "start_poses = 1.5, 0.5, 0\nmax_sim_time = 2\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err
        lines = err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("config error: ")

    def test_map_with_small_maxval_runs(self, tmp_path, capsys):
        # white is 15 at maxval 15, so the start cell is Free
        (tmp_path / "m.pgm").write_bytes(
            b"P2\n4 4\n15\n0 0 0 0\n0 15 15 0\n0 15 15 0\n0 0 0 0\n")
        (tmp_path / "m.meta").write_text(
            "resolution = 1.0\norigin_x = 0\norigin_y = 0\n")
        path = tmp_path / "ok.cfg"
        path.write_text(f"[scenario]\nmap = {tmp_path / 'm.pgm'}\nrobots = 1\n"
                        "start_poses = 1.5, 1.5, 0\nmax_sim_time = 2\n"
                        "[lidar]\nbeam_count = 8\n[planner]\ninflation_cells = 0\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_OK, capsys.readouterr().err


_number = st.one_of(st.sampled_from(["1.0", "0.5", "0", "-1", "nan", "inf", "1e-300",
                                      "1e308", "abc", ""]),
                    st.floats().map(repr))


@st.composite
def pgm_bytes(draw):
    """A valid, all-white PGM (so the start cell is Free and the run goes
    ahead) with up to two of its parts changed: the magic, a size (zero
    and negative among them), the maxval, the raster's length or its
    samples. One draw in four is arbitrary bytes."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=40))
    magic = draw(st.sampled_from([b"P5", b"P2"]))
    width, height, maxval = draw(st.integers(1, 5)), draw(st.integers(1, 5)), 255
    count_change, random_samples = 0, False
    for part in draw(st.lists(st.sampled_from(
            ["magic", "width", "height", "maxval", "count", "samples"]), max_size=2)):
        if part == "magic":
            magic = draw(st.sampled_from([b"P6", b"P", b"5P"]))
        elif part == "width":
            width = draw(st.integers(-2, 0))
        elif part == "height":
            height = draw(st.integers(-2, 0))
        elif part == "maxval":
            maxval = draw(st.sampled_from([15, 0, -1, 300]))
        elif part == "count":
            count_change = draw(st.sampled_from([-1, 1, -100]))
        else:
            random_samples = True
    count = max(max(width * height, 0) + count_change, 0)
    samples = (draw(st.lists(st.integers(-5, 300), min_size=count, max_size=count))
               if random_samples else [maxval] * count)
    if magic == b"P2":
        raster = " ".join(map(str, samples)).encode()
    else:
        raster = bytes(v % 256 for v in samples)
    return b"%s\n%d %d\n%d\n" % (magic, width, height, maxval) + raster


@st.composite
def meta_text(draw):
    """A valid sidecar with some keys dropped, added or given an arbitrary
    value. One draw in four is arbitrary bytes."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=40))
    meta = {"resolution": "1.0", "origin_x": "0", "origin_y": "0"}
    keys = ["resolution", "origin_x", "origin_y", "occupied_threshold", "free_threshold"]
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        if draw(st.booleans()):
            meta.pop(key, None)
        else:
            meta[key] = draw(_number)
    sep = draw(st.sampled_from([" = ", ": ", " "]))
    return "".join(f"{k}{sep}{v}\n" for k, v in meta.items()).encode()


class TestFuzzMapFiles:
    """Whatever a map file and its sidecar hold, a run exits 0, or exits 1
    with one config error line; it never fails at run time and never
    prints a traceback."""

    @settings(max_examples=200)
    @given(pgm_bytes(), meta_text(),
           st.sampled_from(["0.5, 0.5, 0", "1.5, 0.5, 1", "-3, 2, 0"]))
    # a negative width that reshape would infer from the raster length
    @example(b"P5\n-1 4\n255\n" + b"\xff" * 8,
             b"resolution = 1.0\norigin_x = 0\norigin_y = 0\n", "0.5, 0.5, 0")
    # a 3 m cell whose start pose lies 0.5 m from the map edge: the jitter
    # of up to 0.9 m moved it off the map, and the run failed
    @example(b"P5\n1 1\n255\n\xff",
             b"resolution = 3.0\norigin_x = 0\norigin_y = 0\n", "0.5, 0.5, 0")
    # cells so large that the lidar walk's distances would overflow
    @example(b"P5\n1 1\n255\n\xff",
             b"resolution = 1e308\norigin_x = 0\norigin_y = 0\n", "0.5, 0.5, 0")
    def test_exit_0_or_one_config_error(self, raster, meta, start):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "m.pgm").write_bytes(raster)
            (tmp / "m.meta").write_bytes(meta)
            (tmp / "s.cfg").write_text(
                f"[scenario]\nmap = {tmp / 'm.pgm'}\nrobots = 1\n"
                f"start_poses = {start}\nmax_sim_time = 3\n"
                "[lidar]\nbeam_count = 16\n[planner]\ninflation_cells = 0\n")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(tmp / "s.cfg"),
                             "--out", str(tmp / "o")])
        lines = err.getvalue().splitlines()
        assert "Traceback" not in err.getvalue()
        assert len(lines) <= 1
        if code == EXIT_OK:
            return
        assert code == EXIT_CONFIG, err.getvalue()
        assert lines[0].startswith("config error: ")


class TestCompare:
    def test_two_methods_two_seeds(self, cfg_file, tmp_path, capsys):
        out = str(tmp_path / "cmp")
        code = main(["compare", "--config", cfg_file,
                     "--methods", "proposed,greedy_frontier",
                     "--seeds", "1,2", "--out", out])
        assert code == EXIT_OK
        lines = open(os.path.join(out, "comparison.csv")).read().strip().split("\n")
        # header + 4 per-seed rows + 2 methods * (mean + stddev)
        assert len(lines) == 1 + 4 + 4
        assert lines[0] == ("method,seed,final_coverage,reduction_pct,"
                            "ssim,rmse,alignment_error")
        seeds = [line.split(",")[1] for line in lines[1:]]
        assert seeds.count("mean") == 2
        assert seeds.count("stddev") == 2
        table = capsys.readouterr().out
        assert "proposed" in table and "greedy_frontier" in table

    def test_single_pair_summary_equals_row(self, cfg_file, tmp_path):
        out = str(tmp_path / "cmp1")
        assert main(["compare", "--config", cfg_file, "--methods", "proposed",
                     "--seeds", "5", "--out", out]) == EXIT_OK
        lines = open(os.path.join(out, "comparison.csv")).read().strip().split("\n")
        row = lines[1].split(",")
        mean = lines[2].split(",")
        assert row[2:] == mean[2:]  # single seed: mean equals the row

    def test_bad_method_rejected(self, cfg_file, tmp_path, capsys):
        code = main(["compare", "--config", cfg_file, "--methods", "warp",
                     "--seeds", "1", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_bad_method_fails_before_any_run(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["compare", "--config", cfg_file, "--methods", "proposed,bogus",
                     "--seeds", "1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: unknown method 'bogus'")
        assert not out.exists()

    @pytest.mark.parametrize("methods,seeds,named", [
        ("proposed", "1,x", ""), ("proposed", "2.5", ""), ("proposed", ",", ""),
        (",", "1", ""),
        # a repeat would rerun one pair into one directory, as if two
        ("proposed,greedy_frontier,proposed", "1", "'proposed'"),
        ("proposed", "1,2,01", "1"),
    ], ids=["non_integer", "float", "no_seed", "no_method", "repeated_method",
            "repeated_seed"])
    def test_bad_list_is_one_line_config_error(self, cfg_file, tmp_path, capsys,
                                               methods, seeds, named):
        out = tmp_path / "x"
        code = main(["compare", "--config", cfg_file, "--methods", methods,
                     "--seeds", seeds, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err
        lines = err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("config error: ")
        assert named in lines[0]
        assert not out.exists()

    def test_out_is_a_file_is_one_line_runtime_error(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        code = main(["compare", "--config", cfg_file, "--methods", "proposed",
                     "--seeds", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert "Traceback" not in err
        lines = err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("run failed: ")
        assert out.read_text() == "not a directory"

    def test_unwritable_comparison_is_one_line_runtime_error(self, cfg_file, tmp_path,
                                                            capsys):
        out = tmp_path / "cmp"
        (out / "comparison.csv").mkdir(parents=True)
        code = main(["compare", "--config", cfg_file, "--methods", "proposed",
                     "--seeds", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert "Traceback" not in err
        assert err.strip().startswith("run failed: ")
        assert len(err.strip().split("\n")) == 1


class TestMisc:
    def test_log_level_env(self, cfg_file, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPLORER_LOG", "debug")
        out = str(tmp_path / "dbg")
        assert main(["run", "--config", cfg_file, "--out", out]) == EXIT_OK

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "mrexplore" in capsys.readouterr().out

    def test_help_documents_columns(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = capsys.readouterr().out
        assert "metrics.csv" in out
        assert "frontier_raw" in out
