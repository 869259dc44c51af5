import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from conftest import DIVERGING_CONFIGS

import ltelab
from ltelab.artifacts import write_run_artifacts
from ltelab.cli import main
from ltelab.lte import config_from_dict, run


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def full_8x8_config(seed=0, total_steps=1500, **extra):
    cfg = {
        "mode": "full",
        "dataset": {"m": 8, "n": 8, "rank": 8},
        "arch": {"dims": [8, 8]},
        "optimizer": "sgd",
        "optim": {"eta": 0.1},
        "batch_size": 32,
        "total_steps": total_steps,
        "snapshot_interval": 100,
        "seed": seed,
    }
    cfg.update(extra)
    return cfg


def lte_config(T=1, exact=True, seed=0, steps=60):
    policy = (
        {"period": T, "reset_B": False, "exact_correction": True}
        if exact
        else {"period": T}
    )
    return {
        "mode": "lte",
        "dataset": {"m": 8, "n": 8, "rank": 8},
        "arch": {"dims": [8, 8]},
        "N": 2, "r": 2,
        "optim": {"eta": 0.05},
        "policy": policy,
        "batch_size": 16,
        "total_steps": steps,
        "snapshot_interval": 1,
        "seed": seed,
    }


class TestTrain:
    def test_minimal_full_mode_run(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", full_8x8_config())
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "analysis.csv").exists()
        assert (out / "snapshots").is_dir()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 0
        # convex full-rank problem driven to the floor
        last = capsys.readouterr().out
        assert "final_mse=" in last
        final = float(last.split("final_mse=")[1].split()[0])
        assert final <= 1e-8

    def test_metrics_header_and_rows(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", full_8x8_config(total_steps=10))
        out = tmp_path / "out"
        main(["train", "--config", cfg, "--out", str(out)])
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "step,merge_id,worker_id,loss,eff_weight_dev,update_eff_rank,mean_cosine,mean_grassman"
        assert len(lines) == 11  # header + one worker row per step

    def test_analysis_csv_content(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", lte_config(T=2, exact=False, steps=10))
        out = tmp_path / "out"
        main(["train", "--config", cfg, "--out", str(out)])
        lines = (out / "analysis.csv").read_text().splitlines()
        assert lines[0] == "step,layer,metric,value"
        metrics = {line.split(",")[2] for line in lines[1:]}
        assert {"eff_weight_change_fro", "update_eff_rank", "merge_delta_fro",
                "mean_cosine", "mean_grassman_pairs"} <= metrics
        snaps = sorted((out / "snapshots").iterdir())
        assert snaps and snaps[0].name == "step00000000_layer0.csv"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", lte_config(T=2, exact=False, steps=30))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", cfg, "--out", str(out_a)])
        main(["train", "--config", cfg, "--out", str(out_b)])
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", lte_config(T=2, exact=False, steps=10))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", cfg, "--out", str(out_a)])
        main(["train", "--config", cfg, "--seed", "7", "--out", str(out_b)])
        assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()
        manifest = json.loads((out_b / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7

    def test_invalid_rank_names_field(self, tmp_path, capsys):
        bad = full_8x8_config()
        bad.update({"mode": "lte", "N": 2, "r": 12})
        cfg = write_json(tmp_path / "cfg.json", bad)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "r:" in err

    def test_diverging_run_exits_2_naming_the_step(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", DIVERGING_CONFIGS["relu_mhlora"])
        with np.errstate(all="ignore"):
            assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "step 60: the snapshot's effective weight of layer 0 is not finite" in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        bad = full_8x8_config()
        bad["workers"] = 3
        cfg = write_json(tmp_path / "cfg.json", bad)
        assert main(["train", "--config", cfg]) == 2
        assert "workers" in capsys.readouterr().err


class TestManifest:
    def test_numpy_scalars_write_as_python_values(self, tmp_path):
        # validate() accepts numpy scalars; the artifacts they write are
        # those of the same config with built-in values
        cfg = config_from_dict(lte_config(steps=3))
        numpy_cfg = replace(cfg, seed=np.int64(3), n_heads=np.int64(2), alpha=np.float32(2),
                            record_params=np.bool_(False))
        builtin_cfg = replace(cfg, seed=3, n_heads=2, alpha=2.0, record_params=False)
        trees = []
        for name, c in (("numpy", numpy_cfg), ("builtin", builtin_cfg)):
            out = tmp_path / name
            write_run_artifacts(run(c), out)
            trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        assert trees[0] == trees[1]


class TestCompare:
    def test_self_comparison_zero(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", lte_config(T=1, steps=20))
        out = tmp_path / "cmp"
        assert main(["compare", "--a", cfg, "--b", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_deviation"] == 0.0
        rows = (out / "deviation.csv").read_text().splitlines()
        assert rows[0] == "step,layer,deviation"
        assert all(line.endswith(",0.0") for line in rows[1:])

    def test_equivalence_pair(self, tmp_path):
        a = write_json(tmp_path / "a.json", lte_config(T=1, exact=True, steps=100))
        mh = dict(lte_config(T=1, steps=100))
        mh["mode"] = "mhlora"
        del mh["policy"]
        b = write_json(tmp_path / "b.json", mh)
        out = tmp_path / "cmp"
        assert main(["compare", "--a", a, "--b", b, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_deviation"] <= 1e-10

    def test_schedule_mismatch_fails(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", lte_config(T=1, steps=20))
        b = write_json(tmp_path / "b.json", lte_config(T=1, steps=40))
        assert main(["compare", "--a", a, "--b", b, "--out", str(tmp_path / "o")]) == 2
        assert "schedule" in capsys.readouterr().err

    def test_staleness_orders_max_deviations(self, tmp_path):
        mh = dict(lte_config(T=1, steps=100))
        mh["mode"] = "mhlora"
        del mh["policy"]
        mh["snapshot_interval"] = 100
        b = write_json(tmp_path / "mh.json", mh)
        maxima = {}
        for period in (5, 25):
            cfg = lte_config(T=period, exact=True, steps=100)
            cfg["snapshot_interval"] = 100
            a = write_json(tmp_path / f"lte{period}.json", cfg)
            out = tmp_path / f"cmp{period}"
            assert main(["compare", "--a", a, "--b", b, "--out", str(out)]) == 0
            maxima[period] = json.loads((out / "summary.json").read_text())["max_deviation"]
        assert maxima[5] <= maxima[25]


class TestSweep:
    def test_small_grid(self, tmp_path, capsys):
        base = lte_config(T=1, exact=False, steps=40)
        del base["snapshot_interval"]
        grid = {
            "base": base,
            "grid": {"N": [1, 2], "r": [1, 2], "T": [1, 5]},
            "seeds": [0, 1],
            "threshold": 1e-2,
        }
        spec = write_json(tmp_path / "grid.json", grid)
        out = tmp_path / "sweep"
        assert main(["sweep", "--grid", spec, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "N,r,T,final_mse,steps_to_threshold,update_eff_rank"
        assert len(rows) == 9  # header + 2*2*2 cells
        table = capsys.readouterr().out
        assert "final_mse" in table

    @pytest.mark.parametrize("seeds", [[0, 1], [0]])
    def test_grid_without_population_mse(self, tmp_path, seeds):
        # ReLU gaps define no population MSE: its cells stay empty, as
        # steps_to_threshold's do when no run reaches the threshold
        base = {"mode": "mhlora", "dataset": {"m": 4, "n": 4, "rank": 4},
                "arch": {"dims": [4, 6, 4], "activation": "relu", "w_init": "kaiming"},
                "N": 2, "r": 2, "batch_size": 8, "total_steps": 5}
        spec = write_json(tmp_path / "grid.json",
                          {"base": base, "grid": {"N": [1, 2]}, "seeds": seeds})
        out = tmp_path / "sweep"
        assert main(["sweep", "--grid", spec, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[3:5] for row in rows] == [["", ""]] * 2
        table = (out / "sweep.txt").read_text().splitlines()
        assert [line.split()[3:5] for line in table[1:]] == [["-", "-"]] * 2

    def test_empty_grid_rejected(self, tmp_path, capsys):
        spec = write_json(tmp_path / "grid.json", {
            "base": lte_config(), "grid": {"N": []},
        })
        assert main(["sweep", "--grid", spec, "--out", str(tmp_path / "o")]) == 2
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("axis,value,path", [
        ("N", 2.5, "N"), ("r", True, "r"), ("T", 2.5, "policy.period"), ("T", "5", "policy.period"),
    ])
    def test_wrongly_typed_grid_value_rejected(self, tmp_path, capsys, axis, value, path):
        spec = write_json(tmp_path / "grid.json", {"base": lte_config(), "grid": {axis: [value]}})
        assert main(["sweep", "--grid", spec, "--out", str(tmp_path / "o")]) == 2
        assert f"error: {path}: must be" in capsys.readouterr().err

    def test_capacity_and_merge_frequency_orderings(self, tmp_path):
        # 3-seed medians on a full-rank 16x16 task: a larger head rank never
        # worsens the final loss at fixed (N, T), and a larger merge period
        # never reaches the threshold sooner
        base = {
            "mode": "lte",
            "dataset": {"m": 16, "n": 16, "rank": 16},
            "arch": {"dims": [16, 16]},
            "N": 1, "r": 2,
            "optim": {"eta": 0.1},
            "policy": {"reset_B": True, "reset_A": True},
            "init": {"kind": "xavier"},
            "batch_size": 32,
            "total_steps": 600,
            "snapshot_interval": 600,
        }
        grid = {
            "base": base,
            "grid": {"r": [2, 4], "T": [1, 5]},
            "seeds": [0, 1, 2],
            "threshold": 1e-2,
        }
        spec = write_json(tmp_path / "grid.json", grid)
        out = tmp_path / "sweep"
        assert main(["sweep", "--grid", spec, "--out", str(out)]) == 0
        rows = {}
        lines = (out / "sweep.csv").read_text().splitlines()
        for line in lines[1:]:
            n, r, t, final, steps, _ = line.split(",")
            rows[(int(r), int(t))] = (float(final), float(steps))
        for t in (1, 5):
            assert rows[(4, t)][0] <= rows[(2, t)][0]
        for r in (2, 4):
            assert rows[(r, 1)][1] <= rows[(r, 5)][1]


class TestCost:
    def test_cost_output(self, capsys):
        code = main([
            "cost", "--n-ddp", "8", "--n-lte", "8", "--m", "22.9e6",
            "--m-lte", "1e6", "--t", "10", "--q", "0.25",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "all-reduce comm, DDP" in out
        payload = json.loads(out[out.index("{"):])
        assert payload["comm_allreduce_ddp"] == 8 * 7 * 22.9e6
        assert payload["mem_lte_per_device"] == 8.725e6

    def test_invalid_inputs(self, capsys):
        assert main(["cost", "--n-ddp", "8", "--n-lte", "8", "--m", "1",
                     "--m-lte", "2", "--t", "10"]) == 2
        assert "m_lte" in capsys.readouterr().err


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["explode"])


class TestThreadCountIndependence:
    """A run is a pure function of its configuration: a small lte-wide-like
    exact run writes the same artifact bytes at one and at two BLAS threads,
    though BLAS reductions of its matrices sum in another order at two."""

    def test_artifact_bytes_equal_at_one_and_two_threads(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "mode": "lte",
            "dataset": {"m": 128, "n": 128, "rank": 32, "pool": 1024},
            "arch": {"dims": [128, 128]},
            "N": 4, "r": 8, "T": 5,
            "optimizer": "adamw", "optim": {"eta": 1e-3},
            "policy": {"reset_B": False, "exact_correction": True},
            "batch_size": 64,
            "total_steps": 20,
            "snapshot_interval": 5,
        })
        src = os.path.dirname(os.path.dirname(os.path.abspath(ltelab.__file__)))
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-m", "ltelab.cli", "train", "--config", cfg,
                            "--out", str(out)], env=env, check=True, timeout=300,
                           capture_output=True)
            trees.append({str(p.relative_to(out)): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert {"manifest.json", "metrics.csv", "analysis.csv"} <= trees[0].keys()
        assert trees[0].keys() == trees[1].keys()
        assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []
