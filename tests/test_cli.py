"""End-to-end command-line tests: file parsing, exit codes, artifacts."""

import json
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtsne import metrics
from graphtsne.cli import _write_layout, main, read_layout_csv
from graphtsne.graph import (Graph, LabeledDataset, load_edge_list, load_features_csv,
                             load_labels_csv)
from graphtsne.metrics import evaluate_layout
from graphtsne.synthetic import sbm_dataset
from graphtsne.trainer import read_config_file

from conftest import assert_loads_like_oracle, child_env, draw_input_file
from oracles import layout_csv_oracle


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """A 45-node SBM written in the CLI's input formats, plus a fast config."""
    root = tmp_path_factory.mktemp("data")
    ds = sbm_dataset([15, 15, 15], p_intra=0.5, p_inter=0.04,
                     feature_dim=6, seed=7)
    lines = [f"{i} {j}" for i, j in ds.graph.edge_pairs if i < j]
    (root / "edges.txt").write_text("# comment line\n" + "\n".join(lines) + "\n")
    (root / "features.csv").write_text(
        "\n".join(",".join(repr(float(v)) for v in row)
                  for row in ds.features) + "\n")
    (root / "labels.csv").write_text(
        "\n".join(str(v) for v in ds.labels) + "\n")
    (root / "fast.cfg").write_text("hidden_dim = 8\nepochs = 2\n")
    (root / "layout.csv").write_text(
        "node_id,x,y\n" + "".join(f"{i},{0.1 * i!r},{-0.3 * i!r}\n" for i in range(45)))
    return root


def base_args(d, *extra):
    return ["--edges", str(d / "edges.txt"), "--features", str(d / "features.csv"),
            "--labels", str(d / "labels.csv"), "--num-nodes", "45",
            "--config", str(d / "fast.cfg"), *extra]


def command_args(d, command):
    """Arguments that run ``command`` quickly on the test SBM, all but --out-dir."""
    metric = ["--t-ks", "3", "--t-rs", "1", "--knn-k", "4"]
    return {"fit": ["fit", *base_args(d), "--alpha", "0.5"],
            "sweep": ["sweep", *base_args(d), "--grid", "0.5", *metric],
            "evaluate": ["evaluate", *base_args(d)[:6], "--layout", str(d / "layout.csv"),
                         *metric]}[command]


class TestFit:
    def test_writes_layout_svg_and_manifest(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["fit", *base_args(dataset_dir), "--alpha", "0.5",
                     "--seed", "3", "--out-dir", str(out)])
        assert code == 0
        assert "layout.csv" in capsys.readouterr().out
        y = read_layout_csv(out / "layout.csv", 45)
        assert y.shape == (45, 2) and np.all(np.isfinite(y))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["config"]["alpha"] == 0.5
        assert manifest["config"]["seed"] == 3
        assert manifest["config"]["epochs"] == 2
        assert "--alpha" in manifest["argv"]
        assert manifest["final_loss"] is not None
        tree = ET.parse(out / "layout.svg")
        assert tree.getroot().tag.endswith("svg")

    def test_layout_csv_roundtrips_exactly(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        main(["fit", *base_args(dataset_dir), "--alpha", "0.3",
              "--seed", "1", "--out-dir", str(out)])
        y = read_layout_csv(out / "layout.csv", 45)
        text = (out / "layout.csv").read_text().splitlines()
        assert text[0] == "node_id,x,y"
        first = text[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == y[0, 0]  # repr round-trip, no precision loss

    def test_same_seed_reruns_are_byte_identical(self, dataset_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["fit", *base_args(dataset_dir), "--alpha", "0.5",
                         "--seed", "9", "--out-dir", str(out)])
            assert code == 0
            outs.append((out / "layout.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_flag_overrides_config_file(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        main(["fit", *base_args(dataset_dir), "--alpha", "0.5",
              "--epochs", "3", "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 3        # flag beats fast.cfg
        assert manifest["config"]["hidden_dim"] == 8     # config beats preset

    def test_alpha_flag_overrides_config_file(self, dataset_dir, tmp_path):
        cfg = tmp_path / "alpha.cfg"
        cfg.write_text("hidden_dim = 8\nepochs = 2\nalpha = 0.9\n")
        args = base_args(dataset_dir)
        args[args.index("--config") + 1] = str(cfg)
        out = tmp_path / "run"
        assert main(["fit", *args, "--alpha", "0.2", "--out-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["alpha"] == 0.2
        # without the flag, the file's alpha applies
        out = tmp_path / "no-flag"
        assert main(["fit", *args, "--out-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["alpha"] == 0.9

    def test_alpha_in_neither_flag_nor_file_is_the_preset_half(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        assert main(["fit", *base_args(dataset_dir), "--out-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["alpha"] == 0.5

    def test_mode_minibatch_on_a_small_graph_sets_the_preset_batch_count(
            self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        code = main(["fit", *base_args(dataset_dir), "--alpha", "0.5",
                     "--mode", "minibatch", "--out-dir", str(out)])
        assert code == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        # min(1000, max(1, 45 // 50)): one batch of all 45 nodes
        assert (config["mode"], config["batch_count"]) == ("minibatch", 1)

    def test_labels_are_optional(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        args = ["fit", "--edges", str(dataset_dir / "edges.txt"),
                "--features", str(dataset_dir / "features.csv"),
                "--num-nodes", "45", "--config", str(dataset_dir / "fast.cfg"),
                "--alpha", "0.5", "--out-dir", str(out)]
        assert main(args) == 0
        assert (out / "layout.svg").exists()

    def test_alpha_out_of_range_exits_2(self, dataset_dir, tmp_path, capsys):
        code = main(["fit", *base_args(dataset_dir), "--alpha", "1.5",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_malformed_edge_file_exits_1_naming_line(self, dataset_dir, tmp_path,
                                                     capsys):
        bad = tmp_path / "bad_edges.txt"
        bad.write_text("0 1\n2 oops\n")
        code = main(["fit", "--edges", str(bad),
                     "--features", str(dataset_dir / "features.csv"),
                     "--num-nodes", "45", "--alpha", "0.5",
                     "--config", str(dataset_dir / "fast.cfg"),
                     "--out-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad_edges.txt" in err and "2" in err

    def test_edge_endpoint_out_of_range_exits_1(self, dataset_dir, tmp_path,
                                                capsys):
        # 10 feature rows and perplexity 3, reachable among 10 nodes, so the
        # 45-node edge file is read
        features = tmp_path / "features.csv"
        rows = (dataset_dir / "features.csv").read_text().splitlines()[:10]
        features.write_text("\n".join(rows) + "\n")
        code = main(["fit", "--edges", str(dataset_dir / "edges.txt"),
                     "--features", str(features), "--num-nodes", "10",
                     "--perplexity", "3", "--alpha", "0.5",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert "out of range [0, 10)" in capsys.readouterr().err

    def test_wrong_num_nodes_exits_1_before_reading_edges(self, dataset_dir, tmp_path,
                                                          capsys):
        # the edge file's bad line would be named if it were read
        bad = tmp_path / "bad_edges.txt"
        bad.write_text("0 1\n2 oops\n")
        code = main(["fit", "--edges", str(bad),
                     "--features", str(dataset_dir / "features.csv"),
                     "--num-nodes", "20000000", "--alpha", "0.5",
                     "--config", str(dataset_dir / "fast.cfg"),
                     "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: inconsistent inputs: feature rows (45) != graph nodes (20000000)\n")

    def test_missing_input_file_exits_1_with_one_line(self, dataset_dir,
                                                      tmp_path, capsys):
        code = main(["fit", *base_args(dataset_dir)[:2],
                     "--features", str(tmp_path / "absent.csv"),
                     "--num-nodes", "45", "--alpha", "0.5",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.csv" in err
        assert err.count("\n") == 1

    def test_label_beyond_int64_exits_1_naming_row(self, dataset_dir, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("0\n" * 44 + "1e300\n")
        args = base_args(dataset_dir)
        args[args.index("--labels") + 1] = str(labels)
        code = main(["fit", *args, "--alpha", "0.5", "--out-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {labels}: row 45: label 1e300 out of the int64 range\n"

    def test_unknown_config_key_exits_1(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rate = 0.1\n")
        code = main(["fit", *base_args(dataset_dir)[:8], "--config", str(cfg),
                     "--alpha", "0.5", "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_missing_required_flag_exits_2(self, dataset_dir):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--edges", str(dataset_dir / "edges.txt")])
        assert exc.value.code == 2

    def test_zero_hop_cap_in_config_exits_2(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cap.cfg"
        cfg.write_text("hidden_dim = 8\nepochs = 2\nhop_cap = 0\n")
        code = main(["fit", *base_args(dataset_dir)[:8], "--config", str(cfg),
                     "--alpha", "0.5", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "hop_cap" in capsys.readouterr().err

    def test_negative_seed_exits_2_before_reading_input(self, dataset_dir,
                                                         tmp_path, capsys):
        code = main(["fit", *base_args(dataset_dir)[:2],
                     "--features", str(tmp_path / "absent.csv"),
                     "--num-nodes", "45", "--alpha", "0.5", "--seed", "-1",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2  # an absent features file, once read, exits 1
        err = capsys.readouterr().err
        assert "seed" in err and "absent.csv" not in err

    def test_wrong_fanout_count_exits_2_before_reading_input(self, dataset_dir,
                                                            tmp_path, capsys):
        cfg = tmp_path / "fanouts.cfg"
        cfg.write_text("mode = minibatch\nfanouts = 10,15,20\n")
        code = main(["fit", "--edges", str(tmp_path / "absent.txt"),
                     *base_args(dataset_dir)[2:8], "--config", str(cfg),
                     "--alpha", "0.5", "--out-dir", str(tmp_path / "x")])
        assert code == 2  # an absent edges file, once read, exits 1
        err = capsys.readouterr().err
        assert "fanouts" in err and "absent.txt" not in err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_node_count_below_1_exits_2_before_reading_input(self, dataset_dir, tmp_path,
                                                            capsys, count):
        code = main(["fit", "--edges", str(tmp_path / "absent.txt"),
                     *base_args(dataset_dir)[2:6], "--num-nodes", count,
                     "--alpha", "0.5", "--out-dir", str(tmp_path / "x")])
        assert code == 2  # an absent edges file, once read, exits 1
        err = capsys.readouterr().err
        assert err == f"error: --num-nodes must be >= 1, got {count}\n"

    def test_nan_lr_in_config_exits_2(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "lr.cfg"
        cfg.write_text("hidden_dim = 8\nepochs = 2\nlr = nan\n")
        code = main(["fit", *base_args(dataset_dir)[:8], "--config", str(cfg),
                     "--alpha", "0.5", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "lr" in capsys.readouterr().err
        assert not (tmp_path / "x" / "layout.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflowing_lr_exits_3_without_layout(self, dataset_dir, tmp_path,
                                                   capsys):
        # finite, so valid, but the first update drives the weights to about
        # 1e308 and the next forward pass overflows
        cfg = tmp_path / "lr.cfg"
        cfg.write_text("hidden_dim = 8\nepochs = 2\nlr = 1e308\n")
        code = main(["fit", *base_args(dataset_dir)[:8], "--config", str(cfg),
                     "--alpha", "0.5", "--out-dir", str(tmp_path / "x")])
        assert code == 3
        assert "not finite" in capsys.readouterr().err
        assert not (tmp_path / "x" / "layout.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflowing_lr_in_last_epoch_exits_3_without_layout(
            self, dataset_dir, tmp_path, capsys):
        # the only step sees a finite loss; the layout of its weights does not
        cfg = tmp_path / "lr.cfg"
        cfg.write_text("hidden_dim = 8\nepochs = 1\nlr = 1e308\n")
        code = main(["fit", *base_args(dataset_dir)[:8], "--config", str(cfg),
                     "--alpha", "0.5", "--out-dir", str(tmp_path / "x")])
        assert code == 3
        assert "not finite" in capsys.readouterr().err
        assert not (tmp_path / "x" / "layout.csv").exists()

    @pytest.mark.parametrize("alpha", ["0", "1"])
    def test_degenerate_zero_weight_term_is_not_built(self, dataset_dir, tmp_path,
                                                      alpha):
        # alpha 0: no edges, so no graph affinity row is reachable; alpha 1:
        # identical feature rows, so no feature affinity row can converge
        edges, features = dataset_dir / "edges.txt", dataset_dir / "features.csv"
        if alpha == "0":
            edges = tmp_path / "none.txt"
            edges.write_text("# no edges\n")
        else:
            features = tmp_path / "same.csv"
            features.write_text("1.0,2.0,3.0\n" * 45)
        out = tmp_path / "x"
        code = main(["fit", "--edges", str(edges), "--features", str(features),
                     "--num-nodes", "45", "--config", str(dataset_dir / "fast.cfg"),
                     "--alpha", alpha, "--out-dir", str(out)])
        assert code == 0
        assert read_layout_csv(out / "layout.csv", 45).shape == (45, 2)


class TestLabelCount:
    @pytest.mark.parametrize("command", ["fit", "sweep", "evaluate"])
    def test_wrong_label_count_exits_1_before_reading_edges(self, dataset_dir, tmp_path,
                                                            capsys, command):
        labels = tmp_path / "labels.csv"
        labels.write_text("".join((dataset_dir / "labels.csv").read_text()
                                  .splitlines(keepends=True)[:44]))
        bad = tmp_path / "bad_edges.txt"  # its line 2 would be named if it were read
        bad.write_text("0 1\n2 oops\n")
        args = command_args(dataset_dir, command)
        args[args.index("--labels") + 1] = str(labels)
        args[args.index("--edges") + 1] = str(bad)
        out = tmp_path / "out"
        assert main([*args, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {labels}: 44 labels for 45 nodes\n"
        assert list(out.iterdir()) == []


class TestUnreachablePerplexity:
    """A row calibrated among S nodes reaches a perplexity of at most S - 1. S is
    N (45 here) in full-batch mode and the smallest mini-batch, floor(N /
    batch_count), in mini-batch mode; a perplexity above S - 1 exits 2 before
    any input is read, and S - 1 itself trains."""

    def args(self, dataset_dir, tmp_path, command, mode, perplexity):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hidden_dim = 8\nepochs = 2\nbatch_count = 2\n")
        args = [command, *base_args(dataset_dir), "--mode", mode,
                "--perplexity", perplexity, "--out-dir", str(tmp_path / "out")]
        args[args.index("--config") + 1] = str(cfg)
        return args + (["--alpha", "0.5"] if command == "fit" else ["--grid", "0.5"])

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    @pytest.mark.parametrize("mode, perplexity, size", [("full", "44.5", 45),
                                                        ("minibatch", "21.5", 22),
                                                        ("minibatch", "22.0", 22)])
    def test_exits_2_before_reading_input(self, dataset_dir, tmp_path, capsys,
                                          command, mode, perplexity, size):
        args = self.args(dataset_dir, tmp_path, command, mode, perplexity)
        args[args.index("--edges") + 1] = str(tmp_path / "absent.txt")
        assert main(args) == 2  # an absent edges file, once read, exits 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: perplexity {perplexity} ")
        assert f"{size} nodes" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_batch_count_above_num_nodes_exits_2(self, dataset_dir, tmp_path, capsys,
                                                 command):
        args = self.args(dataset_dir, tmp_path, command, "minibatch", "2")
        (tmp_path / "run.cfg").write_text("hidden_dim = 8\nbatch_count = 46\n")
        args[args.index("--edges") + 1] = str(tmp_path / "absent.txt")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == ("error: batch_count 46 is above the 45 nodes, so some "
                       "mini-batch would be empty\n")

    @pytest.mark.parametrize("mode, perplexity", [("full", "44"), ("minibatch", "21")])
    def test_largest_reachable_perplexity_trains(self, dataset_dir, tmp_path, mode,
                                                 perplexity):
        assert main(self.args(dataset_dir, tmp_path, "fit", mode, perplexity)) == 0
        assert (tmp_path / "out" / "layout.csv").exists()


class TestOutDir:
    @pytest.mark.parametrize("command", ["fit", "sweep", "evaluate"])
    def test_existing_file_exits_2_before_loading(self, command, dataset_dir,
                                                   tmp_path, capsys, monkeypatch):
        def no_load(*args):
            raise AssertionError("inputs were read before --out-dir was checked")
        monkeypatch.setattr("graphtsne.cli._load_dataset", no_load)
        taken = tmp_path / "taken"
        taken.write_text("")
        args = {"fit": ["fit", *base_args(dataset_dir), "--alpha", "0.5"],
                "sweep": ["sweep", *base_args(dataset_dir), "--grid", "0.5"],
                "evaluate": ["evaluate", *base_args(dataset_dir)[:6],
                             "--layout", str(tmp_path / "layout.csv")]}[command]
        assert main([*args, "--out-dir", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out-dir ") and "taken" in err
        assert err.count("\n") == 1


class TestManifest:
    @pytest.mark.parametrize("command", ["fit", "sweep", "evaluate"])
    def test_names_the_command_and_its_input_paths(self, dataset_dir, tmp_path, command):
        d = dataset_dir
        inputs = {"edges": str(d / "edges.txt"), "features": str(d / "features.csv"),
                  "labels": str(d / "labels.csv")}
        if command == "evaluate":
            inputs["layout"] = str(d / "layout.csv")
        out = tmp_path / "out"
        assert main([*command_args(d, command), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["inputs"] == inputs


@pytest.fixture(scope="module")
def sweep_out(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    code = main(["sweep", *base_args(dataset_dir), "--grid", "0.0,0.5,1.0",
                 "--seed", "2", "--t-ks", "3,5", "--t-rs", "1",
                 "--knn-k", "4", "--out-dir", str(out)])
    assert code == 0
    return out


class TestSweep:
    def test_sweep_json_has_one_entry_per_alpha(self, sweep_out):
        entries = json.loads((sweep_out / "sweep.json").read_text())
        assert [e["alpha"] for e in entries] == [0.0, 0.5, 1.0]
        for e in entries:
            assert set(e["t_feature"]) == {"3", "5"}
            assert set(e["t_graph"]) == {"1"}
            assert e["combined"] == pytest.approx(e["p_graph"] + e["p_feature"])

    def test_alpha_star_is_argmin_of_combined(self, sweep_out):
        entries = json.loads((sweep_out / "sweep.json").read_text())
        manifest = json.loads((sweep_out / "manifest.json").read_text())
        best = min(entries, key=lambda e: (e["combined"], e["alpha"]))
        assert manifest["alpha_star"] == best["alpha"]

    def test_manifest_records_the_grid_and_no_single_alpha(self, sweep_out):
        manifest = json.loads((sweep_out / "manifest.json").read_text())
        assert manifest["grid"] == [0.0, 0.5, 1.0]
        assert manifest["config"]["alpha"] is None

    def test_alpha_star_row_is_what_evaluate_writes_for_its_layout(
            self, dataset_dir, tmp_path):
        metric = ["--t-ks", "3,5", "--t-rs", "1,2", "--knn-k", "4"]
        sweep = tmp_path / "sweep"
        assert main(["sweep", *base_args(dataset_dir), "--grid", "0.5,1", "--seed", "7",
                     *metric, "--out-dir", str(sweep)]) == 0
        evaluated = tmp_path / "evaluate"
        assert main(["evaluate", *base_args(dataset_dir)[:6], "--layout",
                     str(sweep / "layout.csv"), *metric, "--out-dir", str(evaluated)]) == 0
        alpha_star = json.loads((sweep / "manifest.json").read_text())["alpha_star"]
        row = next(r for r in json.loads((sweep / "sweep.json").read_text())
                   if r["alpha"] == alpha_star)
        report = json.loads((evaluated / "metrics.json").read_text())
        for key in ("alpha", "runtime_s"):
            del row[key], report[key]
        assert row == report

    def test_grid_overrides_a_file_alpha_out_of_range(self, dataset_dir, tmp_path):
        cfg = tmp_path / "alpha.cfg"
        cfg.write_text("hidden_dim = 8\nepochs = 2\nalpha = 1.5\n")
        args = base_args(dataset_dir)
        args[args.index("--config") + 1] = str(cfg)
        out = tmp_path / "s"
        assert main(["sweep", *args, "--grid", "0.5", "--t-ks", "3", "--t-rs", "1",
                     "--knn-k", "4", "--out-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["alpha"] is None

    def test_summary_table_lists_all_alphas_and_star(self, sweep_out):
        text = (sweep_out / "summary.txt").read_text()
        manifest = json.loads((sweep_out / "manifest.json").read_text())
        for a in ("0.000", "0.500", "1.000"):
            assert a in text
        assert f"alpha* = {manifest['alpha_star']}" in text

    def test_best_layout_written(self, sweep_out):
        y = read_layout_csv(sweep_out / "layout.csv", 45)
        assert np.all(np.isfinite(y))
        assert (sweep_out / "layout.svg").exists()

    def test_default_grid_has_eleven_points(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "s"
        code = main(["sweep", *base_args(dataset_dir), "--seed", "1",
                     "--t-ks", "3", "--t-rs", "1", "--knn-k", "4",
                     "--out-dir", str(out)])
        assert code == 0
        entries = json.loads((out / "sweep.json").read_text())
        assert [e["alpha"] for e in entries] == [round(0.1 * i, 1)
                                                 for i in range(11)]
        printed = capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert f"alpha* = {manifest['alpha_star']}" in printed

    def test_singleton_grid_star_is_that_alpha(self, dataset_dir, tmp_path,
                                               capsys):
        out = tmp_path / "s"
        code = main(["sweep", *base_args(dataset_dir), "--grid", "0.3",
                     "--t-ks", "3", "--t-rs", "1", "--knn-k", "4",
                     "--out-dir", str(out)])
        assert code == 0
        assert "alpha* = 0.3" in capsys.readouterr().out

    def test_grid_value_out_of_range_exits_2(self, dataset_dir, tmp_path,
                                             capsys):
        code = main(["sweep", *base_args(dataset_dir), "--grid", "0.5,1.5",
                     "--out-dir", str(tmp_path / "s")])
        assert code == 2
        assert "[0, 1]" in capsys.readouterr().err

    def test_grid_value_out_of_range_exits_2_before_reading_input(self, dataset_dir,
                                                                  tmp_path, capsys):
        code = main(["sweep", "--edges", str(tmp_path / "absent.txt"),
                     *base_args(dataset_dir)[2:], "--grid", "1.5",
                     "--out-dir", str(tmp_path / "s")])
        assert code == 2  # an absent edges file, once read, exits 1
        err = capsys.readouterr().err
        assert err.startswith("error: --grid") and "[0, 1]" in err
        assert err.count("\n") == 1

    def test_repeated_grid_value_exits_2_before_reading_input(self, dataset_dir,
                                                              tmp_path, capsys):
        # each alpha keys its layout: a repeat would write the later run's
        code = main(["sweep", "--edges", str(tmp_path / "absent.txt"),
                     *base_args(dataset_dir)[2:], "--grid", "0.5,0.5",
                     "--out-dir", str(tmp_path / "s")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --grid lists 0.5 more than once: [0.5, 0.5]\n")

    def test_empty_grid_exits_2(self, dataset_dir, tmp_path):
        code = main(["sweep", *base_args(dataset_dir), "--grid", ",",
                     "--out-dir", str(tmp_path / "s")])
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--knn-k", "0"), ("--t-rs", "0"),
                                             ("--t-ks", "40")])
    def test_bad_metric_flag_exits_2_before_training(self, dataset_dir, tmp_path,
                                                     monkeypatch, flag, value):
        calls = []
        real_train = metrics.train

        def counting_train(*args, **kwargs):
            calls.append(args)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(metrics, "train", counting_train)
        args = ["sweep", *base_args(dataset_dir), "--grid", "0.5", flag, value,
                "--out-dir", str(tmp_path / "s")]
        assert main(args) == 2
        args[args.index("--edges") + 1] = str(tmp_path / "absent.txt")
        assert main(args) == 2  # before any input is read: an absent file exits 1
        assert calls == []

    def test_edgeless_graph_exits_1_naming_edges_file_before_training(
            self, dataset_dir, tmp_path, capsys, monkeypatch):
        def no_train(*args, **kwargs):
            raise AssertionError("sweep trained on a graph it cannot score")
        monkeypatch.setattr(metrics, "train", no_train)
        edges = tmp_path / "none.txt"
        edges.write_text("# no edges\n")
        args = ["sweep", *base_args(dataset_dir), "--grid", "0",
                "--out-dir", str(tmp_path / "s")]
        args[args.index("--edges") + 1] = str(edges)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "none.txt" in err and "no edges" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "s" / "sweep.json").exists()


class TestEvaluate:
    def eval_args(self, d, layout, out):
        return ["evaluate", "--edges", str(d / "edges.txt"),
                "--features", str(d / "features.csv"),
                "--labels", str(d / "labels.csv"), "--layout", str(layout),
                "--t-ks", "3,5", "--t-rs", "1", "--knn-k", "4",
                "--out-dir", str(out)]

    def write_layout(self, path, y):
        lines = ["node_id,x,y"] + [f"{i},{float(y[i, 0])!r},{float(y[i, 1])!r}"
                                   for i in range(y.shape[0])]
        path.write_text("\n".join(lines) + "\n")

    def test_matches_library_evaluation(self, dataset_dir, tmp_path, rng):
        y = rng.normal(size=(45, 2))
        layout = tmp_path / "layout.csv"
        self.write_layout(layout, y)
        out = tmp_path / "m"
        assert main(self.eval_args(dataset_dir, layout, out)) == 0
        got = json.loads((out / "metrics.json").read_text())

        features = load_features_csv(dataset_dir / "features.csv")
        graph = load_edge_list(dataset_dir / "edges.txt", 45)
        labels = np.loadtxt(dataset_dir / "labels.csv", dtype=np.int64)
        data = LabeledDataset(graph=graph, features=features, labels=labels)
        want = evaluate_layout(data, y, t_ks=(3, 5), t_rs=(1,), knn_k=4)
        assert got["p_graph"] == pytest.approx(want.p_graph, abs=1e-12)
        assert got["p_feature"] == pytest.approx(want.p_feature, abs=1e-12)
        assert got["t_feature"]["3"] == pytest.approx(want.t_feature[3], abs=1e-12)
        assert got["t_graph"]["1"] == pytest.approx(want.t_graph[1], abs=1e-12)
        assert got["knn_accuracy"] == pytest.approx(want.knn_accuracy, abs=1e-12)

    def test_coincident_layout_gives_zero_distances(self, dataset_dir, tmp_path):
        layout = tmp_path / "flat.csv"
        self.write_layout(layout, np.ones((45, 2)))
        out = tmp_path / "m"
        assert main(self.eval_args(dataset_dir, layout, out)) == 0
        got = json.loads((out / "metrics.json").read_text())
        assert got["p_graph"] == 0.0 and got["p_feature"] == 0.0

    def test_wrong_arity_row_exits_1(self, dataset_dir, tmp_path, capsys):
        layout = tmp_path / "bad.csv"
        layout.write_text("node_id,x,y\n0,1.0\n")
        code = main(self.eval_args(dataset_dir, layout, tmp_path / "m"))
        assert code == 1
        err = capsys.readouterr().err
        assert "row 2" in err and "3 columns" in err

    def test_row_count_mismatch_exits_1(self, dataset_dir, tmp_path, capsys):
        layout = tmp_path / "short.csv"
        self.write_layout(layout, np.zeros((44, 2)))
        code = main(self.eval_args(dataset_dir, layout, tmp_path / "m"))
        assert code == 1
        assert "44" in capsys.readouterr().err

    def test_edgeless_graph_exits_1_naming_edges_file(self, dataset_dir,
                                                     tmp_path, capsys):
        edges = tmp_path / "none.txt"
        edges.write_text("# no edges\n")
        layout = tmp_path / "layout.csv"
        self.write_layout(layout, np.zeros((45, 2)))
        args = self.eval_args(dataset_dir, layout, tmp_path / "m")
        args[args.index("--edges") + 1] = str(edges)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "none.txt" in err and "no edges" in err
        assert err.count("\n") == 1

    def test_duplicate_node_id_exits_1(self, dataset_dir, tmp_path, capsys):
        layout = tmp_path / "dup.csv"
        rows = ["node_id,x,y"] + [f"{i},0.0,0.0" for i in range(44)] + ["0,1.0,1.0"]
        layout.write_text("\n".join(rows) + "\n")
        code = main(self.eval_args(dataset_dir, layout, tmp_path / "m"))
        assert code == 1
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_exits_1_without_metrics(self, dataset_dir,
                                                          tmp_path, capsys, value):
        y = np.zeros((45, 2))
        y[1, 1] = float(value)
        layout = tmp_path / "layout.csv"
        self.write_layout(layout, y)
        out = tmp_path / "m"
        assert main(self.eval_args(dataset_dir, layout, out)) == 1
        assert "row 3: non-finite value" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()


@pytest.fixture(scope="module")
def nine_node_dir(tmp_path_factory):
    """A labelled 9-node ring, one node fewer than the 10 folds of 1-NN accuracy."""
    root = tmp_path_factory.mktemp("nine")
    (root / "edges.txt").write_text("".join(f"{i} {(i + 1) % 9}\n" for i in range(9)))
    x = np.random.default_rng(0).normal(size=(9, 3))
    (root / "features.csv").write_text(
        "".join(",".join(repr(float(v)) for v in row) + "\n" for row in x))
    (root / "labels.csv").write_text("".join(f"{i % 3}\n" for i in range(9)))
    (root / "layout.csv").write_text(
        "node_id,x,y\n" + "".join(f"{i},{float(i)!r},{float(i % 2)!r}\n" for i in range(9)))
    (root / "fast.cfg").write_text("hidden_dim = 8\nepochs = 2\nperplexity = 3\n")
    return root


class TestTooFewLabelledNodes:
    def inputs(self, d):
        return ["--edges", str(d / "edges.txt"), "--features", str(d / "features.csv"),
                "--labels", str(d / "labels.csv")]

    def assert_names_labels(self, err):
        assert err.startswith("error: ") and "labels.csv" in err
        assert "9 labelled nodes" in err and "at least 10" in err
        assert err.count("\n") == 1

    def test_evaluate_exits_1_naming_labels_file(self, nine_node_dir, tmp_path, capsys):
        out = tmp_path / "m"
        code = main(["evaluate", *self.inputs(nine_node_dir),
                     "--layout", str(nine_node_dir / "layout.csv"),
                     "--knn-k", "3", "--t-ks", "2", "--out-dir", str(out)])
        assert code == 1
        self.assert_names_labels(capsys.readouterr().err)
        assert not (out / "metrics.json").exists()

    def test_sweep_exits_1_before_training(self, nine_node_dir, tmp_path, capsys,
                                           monkeypatch):
        def no_train(*args, **kwargs):
            raise AssertionError("sweep trained on labels it cannot score")
        monkeypatch.setattr(metrics, "train", no_train)
        code = main(["sweep", *self.inputs(nine_node_dir), "--num-nodes", "9",
                     "--config", str(nine_node_dir / "fast.cfg"), "--grid", "0.5",
                     "--knn-k", "3", "--t-ks", "2", "--out-dir", str(tmp_path / "s")])
        assert code == 1
        self.assert_names_labels(capsys.readouterr().err)

    def test_fit_still_trains(self, nine_node_dir, tmp_path):
        out = tmp_path / "f"
        code = main(["fit", *self.inputs(nine_node_dir), "--num-nodes", "9",
                     "--config", str(nine_node_dir / "fast.cfg"), "--alpha", "0.5",
                     "--out-dir", str(out)])
        assert code == 0
        assert read_layout_csv(out / "layout.csv", 9).shape == (9, 2)


class TestInputText:
    @pytest.mark.parametrize("flag", ["--edges", "--features", "--labels",
                                      "--layout", "--config"])
    def test_non_utf8_input_exits_1_naming_file(self, dataset_dir, tmp_path,
                                                capsys, flag):
        files = {"--edges": "edges.txt", "--features": "features.csv",
                 "--labels": "labels.csv", "--layout": "layout.csv",
                 "--config": "fast.cfg"}
        args = {key: str(dataset_dir / name) for key, name in files.items()}
        blob = (dataset_dir / files[flag]).read_bytes()
        cut = blob.index(b"\n") + 1
        bad = tmp_path / f"latin1-{files[flag]}"
        bad.write_bytes(blob[:cut] + b"\xff" + blob[cut:])  # line 2 starts with 0xff
        args[flag] = str(bad)
        if flag == "--config":
            argv = ["fit", "--num-nodes", "45", "--alpha", "0.5"]
            del args["--layout"]
        else:
            argv = ["evaluate", "--t-ks", "3", "--t-rs", "1", "--knn-k", "4"]
            del args["--config"]
        for key, path in args.items():
            argv += [key, path]
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err and "UTF-8" in err
        assert err.count("\n") == 1
        assert not (out / "metrics.json").exists()
        assert not (out / "layout.csv").exists()

    @pytest.mark.parametrize("name, load", [
        ("edges.txt", lambda p: load_edge_list(p, 45).edge_pairs),
        ("features.csv", load_features_csv),
        ("labels.csv", load_labels_csv),
        ("layout.csv", lambda p: read_layout_csv(p, 45)),
        ("fast.cfg", read_config_file)])
    def test_crlf_input_loads_as_lf(self, dataset_dir, tmp_path, name, load):
        crlf = tmp_path / name
        crlf.write_bytes((dataset_dir / name).read_bytes().replace(b"\n", b"\r\n"))
        np.testing.assert_equal(load(crlf), load(dataset_dir / name))


class TestLayoutRoundTrip:
    # up to 1e150, so that the SVG's standardized map does not overflow
    coordinate = (st.floats(-1e150, 1e150)
                  | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=30))
    def test_written_layout_reads_back_bit_identical(self, points):
        y = np.array(points, dtype=np.float64)
        data = LabeledDataset(graph=Graph.from_edges(len(y), []),
                              features=np.zeros((len(y), 1)))
        with tempfile.TemporaryDirectory() as tmp:
            paths = _write_layout(tmp, y, data)
            back = read_layout_csv(paths["layout"], len(y))
        assert back.tobytes() == y.tobytes()  # tells -0.0 from 0.0


class TestLayoutMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_chunked_reader_matches_line_by_line(self, data):
        """The chunked reader against the former line-by-line one, with chunks
        of a line or a few so that row numbers run across chunk boundaries."""
        n = data.draw(st.integers(1, 8), label="num_nodes")
        coordinate = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
                      | st.sampled_from([" 1_000", "-0", "5e-324 ", "+.5"]))
        rows = [f"{i},{data.draw(coordinate)},{data.draw(coordinate)}"
                for i in data.draw(st.permutations(range(n)), label="order")]
        if data.draw(st.booleans(), label="drop a row"):
            rows.pop()          # a node with no row
        bad = (st.sampled_from([f"{n},0,0", "-1,0,0", "0,1", "0,1,2,3", "x,0,0",
                                "0,inf,0", "1,0,nan", "1.0,0,0", "99999999999999999999,0,0",
                                "0,1e999,0", "99999999999999999999,x,0",
                                "-99999999999999999999,0,inf"])
               | st.integers(0, n - 1).map(lambda i: f" {i} , 1.5,2"))  # a duplicate
        header = data.draw(st.sampled_from([[], ["node_id,x,y"], ["NODE_ID , x"]]),
                           label="header")
        lines = draw_input_file(data, header + rows, bad)  # a blank line may precede it
        assert_loads_like_oracle(data, lines, lambda p: read_layout_csv(p, n),
                                 lambda p: layout_csv_oracle(p, n))


class TestSvgOutput:
    def test_svg_is_self_contained(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        main(["fit", *base_args(dataset_dir), "--alpha", "0.5",
              "--out-dir", str(out)])
        text = (out / "layout.svg").read_text()
        root = ET.fromstring(text)
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        circles = root.iter("{http://www.w3.org/2000/svg}circle")
        assert sum(1 for _ in circles) == 45
        assert "href" not in text and "<image" not in text


def run_module(*argv):
    """``python -m graphtsne argv`` in a child that imports the package from
    where this process does, installed or not."""
    return subprocess.run([sys.executable, "-m", "graphtsne", *argv],
                          capture_output=True, text=True, env=child_env())


class TestConsoleScript:
    def test_installed_entrypoint_runs(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        proc = run_module("fit", *base_args(dataset_dir), "--alpha", "0.5",
                          "--out-dir", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "layout.csv").exists()

    def test_version_flag(self):
        proc = run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip()
