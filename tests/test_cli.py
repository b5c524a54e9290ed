import hashlib
import os

import pytest

from mrexplore.cli import EXIT_CONFIG, EXIT_OK, main
from mrexplore.pgm import load_grid

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
                        "start_poses = 0.5, 0.5, 0\n")
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


class TestConfigErrors:
    @pytest.mark.parametrize("text", [
        "[scenario]\nspeed = nan\n",
        "[utility]\ndecay_rate = inf\n",
        "[filter]\nrad = nan\n",
        "[graph]\nnode_spacing = nan\n",
        "[scenario]\nmap = builtin:nosuch\n",
        "[scenario]\nmap = builtin:desk\nrobots = 5\n",
    ], ids=["speed_nan", "decay_rate_inf", "rad_nan", "node_spacing_nan",
            "unknown_world", "too_many_robots"])
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

    @pytest.mark.parametrize("methods,seeds", [
        ("proposed", "1,x"), ("proposed", "2.5"), ("proposed", ","), (",", "1"),
    ], ids=["non_integer", "float", "no_seed", "no_method"])
    def test_bad_list_is_one_line_config_error(self, cfg_file, tmp_path, capsys,
                                               methods, seeds):
        code = main(["compare", "--config", cfg_file, "--methods", methods,
                     "--seeds", seeds, "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err
        lines = err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("config error: ")


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
