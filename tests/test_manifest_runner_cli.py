import hashlib
import json

import numpy as np
import pytest

from nfinv.cli import main
from nfinv.errors import ManifestError
from nfinv.manifest import (
    default_manifest,
    load_manifest,
    save_manifest,
    sub_seed,
    validate_manifest,
)
from nfinv.neural_field import get_weights, load_checkpoint
from nfinv.runner import assemble, run_case, simulate_case


def tiny_case1(method="nfs", seed=0, epochs=8):
    man = default_manifest(1, method=method, seed=seed)
    man["mesh"] = {"kind": "tomo", "nx": 12, "nz": 16, "dx": 1.0, "dz": 1.0}
    man["survey"] = {"spacing": 2.0}
    man["epochs"] = epochs
    man["network"]["hidden"] = [16, 16]
    man["conventional"]["max_iterations"] = 40
    return man


def tiny_case2_gaussian(seed=0, epochs=8):
    man = tiny_case1(seed=seed, epochs=epochs)
    case2 = default_manifest(2)
    for key in ("case", "encoding", "true_model"):
        man[key] = case2[key]
    man["encoding"]["b_rows"] = 8
    return man


def tiny_case3(seed=0, epochs=8):
    man = default_manifest(3, seed=seed)
    man["mesh"] = {"kind": "dcr", "nx_core": 20, "nz_core": 8, "dx": 5.0,
                   "dz": 5.0, "n_pad": 4, "pad_factor": 1.5}
    man["survey"].update(line_length=80.0, station_sep=10.0)
    man["epochs"] = epochs
    man["network"]["hidden"] = [16, 16]
    return man


class TestSubSeed:
    def test_deterministic_and_distinct(self):
        assert sub_seed(7, "noise") == sub_seed(7, "noise")
        assert sub_seed(7, "noise") != sub_seed(7, "init")
        assert sub_seed(7, "noise") != sub_seed(8, "noise")
        assert 0 <= sub_seed(123, "grf") < 2 ** 31


class TestManifestValidation:
    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    @pytest.mark.parametrize("method", ["nfs", "conventional"])
    @pytest.mark.parametrize("desk", [True, False])
    def test_defaults_validate(self, case, method, desk):
        validate_manifest(default_manifest(case, method=method,
                                           desk_scale=desk))

    def test_negative_tau_rejected(self):
        man = default_manifest(3)
        man["nfs"]["tau"] = -5.0
        with pytest.raises(ManifestError) as err:
            validate_manifest(man)
        assert err.value.field == "nfs.tau"

    def test_bad_schema_version(self):
        man = default_manifest(1)
        man["schema_version"] = 99
        with pytest.raises(ManifestError) as err:
            validate_manifest(man)
        assert err.value.field == "schema_version"

    def test_bad_norm_exponent(self):
        man = default_manifest(1)
        man["conventional"]["p_x"] = 3.0
        with pytest.raises(ManifestError) as err:
            validate_manifest(man)
        assert "conventional.p_x" == err.value.field

    def test_missing_field_path(self):
        man = default_manifest(1)
        del man["mesh"]["dx"]
        with pytest.raises(ManifestError) as err:
            validate_manifest(man)
        assert err.value.field == "mesh.dx"

    def test_round_trip(self, tmp_path):
        man = default_manifest(2, seed=5)
        path = tmp_path / "man.json"
        save_manifest(man, path)
        assert load_manifest(path) == man

    def test_full_scale_hyperparameters_pinned(self):
        # learning rate 0.001 everywhere; tau = 800 for the dike case;
        # sparse-norm conventional configuration for the dike case
        for case in (1, 2, 3, 4):
            assert default_manifest(case)["nfs"]["learning_rate"] == 1e-3
        c3 = default_manifest(3)
        assert c3["nfs"]["tau"] == 800.0
        conv = c3["conventional"]
        assert conv["beta0"] == 1e2
        assert conv["p_s"] == 0.0 and conv["p_x"] == conv["p_z"] == 1.0
        assert conv["alpha_s"] == 0.005
        assert conv["alpha_x"] == conv["alpha_z"] == 0.5
        assert conv["sensitivity_weighting"] is True
        full = default_manifest(3, desk_scale=False)
        assert full["network"]["hidden"] == [128, 256, 256, 256, 256, 128]
        assert full["mesh"]["nx_core"] == 200 and full["mesh"]["nz_core"] == 45
        assert full["survey"]["line_length"] == 700.0


class TestRunner:
    def test_simulate_writes_files(self, tmp_path):
        man = tiny_case1()
        info = simulate_case(man, tmp_path / "sim")
        d = tmp_path / "sim"
        for name in ("manifest_echo.json", "truth.csv", "truth.png",
                     "data_clean.csv", "data_obs.csv"):
            assert (d / name).exists()
        assert info["n_data"] == 64  # 8 sources x 8 receivers

    def test_run_case_nfs_outputs(self, tmp_path):
        man = tiny_case1()
        metrics = run_case(man, tmp_path / "run")
        d = tmp_path / "run"
        for name in ("recovered.csv", "recovered.png", "histories.csv",
                     "metrics.json", "weights_final.ckpt"):
            assert (d / name).exists()
        assert metrics["epochs_run"] == 8
        assert metrics["artifact_energy"] is not None
        saved = json.loads((d / "metrics.json").read_text())
        assert saved["rmse"] == metrics["rmse"]
        # histories carry no wall clock (determinism contract)
        header = (d / "histories.csv").read_text().splitlines()[0]
        assert header == "epoch,misfit,beta,reg"

    def test_run_case_conventional(self, tmp_path):
        man = tiny_case1(method="conventional")
        metrics = run_case(man, tmp_path / "run")
        assert metrics["method"] == "conventional"
        assert (tmp_path / "run" / "recovered.csv").exists()
        assert not (tmp_path / "run" / "weights_final.ckpt").exists()

    @pytest.mark.parametrize("tiny", [tiny_case1, tiny_case2_gaussian,
                                      tiny_case3],
                             ids=["case1", "case2-gaussian", "case3"])
    def test_csv_determinism(self, tmp_path, tiny):
        man = tiny(seed=3)
        run_case(man, tmp_path / "a")
        run_case(man, tmp_path / "b")
        files = sorted((tmp_path / "a").glob("*"))
        if man["case"] == 2:
            assert tmp_path / "a" / "b_matrix.csv" in files
        for p in files:
            if p.suffix in (".csv", ".png", ".ckpt"):
                other = tmp_path / "b" / p.name
                ha = hashlib.sha256(p.read_bytes()).hexdigest()
                hb = hashlib.sha256(other.read_bytes()).hexdigest()
                assert ha == hb, p.name

    def test_manifest_echo_reruns(self, tmp_path):
        man = tiny_case1(seed=9)
        run_case(man, tmp_path / "a")
        echoed = load_manifest(tmp_path / "a" / "manifest_echo.json")
        run_case(echoed, tmp_path / "b")
        a = (tmp_path / "a" / "recovered.csv").read_bytes()
        b = (tmp_path / "b" / "recovered.csv").read_bytes()
        assert a == b

    def test_different_seeds_differ(self, tmp_path):
        run_case(tiny_case1(seed=0), tmp_path / "a")
        run_case(tiny_case1(seed=1), tmp_path / "b")
        a = (tmp_path / "a" / "recovered.csv").read_bytes()
        b = (tmp_path / "b" / "recovered.csv").read_bytes()
        assert a != b

    def test_svd_block(self, tmp_path):
        man = tiny_case1(epochs=5)
        man["encoding"] = {"kind": "identity", "coord_range": [0.0, 1.0]}
        man["svd"] = {"k": 4, "mode": "auto"}
        run_case(man, tmp_path / "run")
        svd_dir = tmp_path / "run" / "svd"
        assert (svd_dir / "spectrum.csv").exists()
        assert (svd_dir / "u_000.png").exists()
        # every field of the histories and the spectrum reads as a number
        for path in (tmp_path / "run" / "histories.csv",
                     svd_dir / "spectrum.csv"):
            rows = path.read_text().splitlines()[1:]
            assert rows
            for row in rows:
                for field in row.split(","):
                    float(field)

    def test_dcr_assembly_centers_line(self):
        man = default_manifest(3)
        asm = assemble(man)
        xs = asm.survey.electrode_x
        lo, hi = asm.mesh.core_x_extent
        assert xs[0] - lo == pytest.approx(hi - xs[-1])


class TestCli:
    def test_make_scenario_and_invert(self, tmp_path, capsys):
        man_path = tmp_path / "man.json"
        assert main(["make-scenario", "--case", "1", "--seed", "2",
                     "--out", str(man_path)]) == 0
        man = load_manifest(man_path)
        man["mesh"] = {"kind": "tomo", "nx": 10, "nz": 12, "dx": 1.0,
                       "dz": 1.0}
        man["survey"] = {"spacing": 3.0}
        man["epochs"] = 4
        man["network"]["hidden"] = [8, 8]
        save_manifest(man, man_path)
        out = tmp_path / "run"
        assert main(["invert", "--manifest", str(man_path),
                     "--out", str(out)]) == 0
        assert (out / "metrics.json").exists()
        assert main(["report", str(out)]) == 0
        captured = capsys.readouterr()
        assert "rmse" in captured.out
        header, row = captured.out.splitlines()[-2:]
        assert header.split()[-2:] == ["status", "gn_cg_unconverged"]
        assert row.split()[-2:] == ["ok", "0"]

    def test_invalid_manifest_exit_2(self, tmp_path, capsys):
        man = default_manifest(3)
        man["nfs"]["tau"] = -800.0
        path = tmp_path / "bad.json"
        save_manifest(man, path)
        code = main(["invert", "--manifest", str(path),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "nfs.tau" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [0, 2.5, 1e9, 12 * 16])
    def test_bad_svd_k_exit_2(self, tmp_path, capsys, k):
        # tiny_case1 has 12 x 16 = 192 core cells: k must be an int < 192
        man = tiny_case1()
        man["svd"] = {"k": k}
        path = tmp_path / "bad.json"
        save_manifest(man, path)
        assert main(["invert", "--manifest", str(path),
                     "--out", str(tmp_path / "run")]) == 2
        assert "svd.k" in capsys.readouterr().err
        if k == int(k):
            # the svd verb's --k goes through the same check
            man["svd"] = None
            save_manifest(man, path)
            assert main(["svd", "--manifest", str(path),
                         "--checkpoint", str(tmp_path / "unread.ckpt"),
                         "--k", str(int(k)),
                         "--out", str(tmp_path / "svd")]) == 2
            assert "svd.k" in capsys.readouterr().err

    def test_svd_k_above_weight_count_exit_2_before_training(self, tmp_path,
                                                             capsys):
        # hidden = [1] leaves the network fewer weights than svd.k
        man = tiny_case1(epochs=3)
        man["network"]["hidden"] = [1]
        man["svd"] = {"k": 8}
        path = tmp_path / "bad.json"
        save_manifest(man, path)
        assert main(["invert", "--manifest", str(path),
                     "--out", str(tmp_path / "run")]) == 2
        assert "svd.k" in capsys.readouterr().err
        assert not (tmp_path / "run" / "histories.csv").exists()
        # the svd verb applies the same bound to a trained checkpoint
        man["svd"] = None
        save_manifest(man, path)
        assert main(["invert", "--manifest", str(path),
                     "--out", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        assert main(["svd", "--manifest", str(path),
                     "--checkpoint", str(tmp_path / "ok" / "weights_final.ckpt"),
                     "--k", "8", "--out", str(tmp_path / "svd")]) == 2
        assert "svd.k" in capsys.readouterr().err

    def test_svd_gram_over_budget_exit_2_before_training(self, tmp_path,
                                                         capsys):
        # 128 x 128 cells: the 16,384^2 Gram matrix would exceed 1 GiB
        man = tiny_case1(epochs=1)
        man["mesh"].update(nx=128, nz=128)
        man["network"]["hidden"] = [8]
        man["svd"] = {"k": 3}
        path = tmp_path / "big.json"
        save_manifest(man, path)
        assert main(["invert", "--manifest", str(path),
                     "--out", str(tmp_path / "run")]) == 2
        assert "svd.k" in capsys.readouterr().err
        man["svd"] = None
        save_manifest(man, path)
        assert main(["svd", "--manifest", str(path),
                     "--checkpoint", str(tmp_path / "unread.ckpt"),
                     "--k", "3", "--out", str(tmp_path / "svd")]) == 2
        assert "svd.k" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.ckpt"))
        assert not (tmp_path / "run" / "metrics.json").exists()

    def test_numerical_abort_exit_3(self, tmp_path, capsys):
        man = tiny_case1(epochs=5)
        man["network"]["output_activation"] = "none"
        man["network"]["output_scale"] = 1e300
        man["nfs"]["learning_rate"] = 1e300
        path = tmp_path / "diverge.json"
        save_manifest(man, path)
        with np.errstate(all="ignore"):
            code = main(["invert", "--manifest", str(path),
                         "--out", str(tmp_path / "run")])
        assert code == 3
        assert "numerical abort" in capsys.readouterr().err
        # diagnostic checkpoint written for post-mortem
        assert (tmp_path / "run" / "diagnostic.ckpt").exists()

    def test_dcr_divergence_exit_3(self, tmp_path, capsys):
        # a linear head at lr = 50 sends 10**m to 0 within a few epochs
        man = default_manifest(3, "nfs", 0)
        man["network"]["output_activation"] = "none"
        man["nfs"]["learning_rate"] = 50.0
        man["epochs"] = 20
        path = tmp_path / "diverge.json"
        save_manifest(man, path)
        with np.errstate(all="ignore"):
            code = main(["invert", "--manifest", str(path),
                         "--out", str(tmp_path / "run")])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical abort" in err
        assert "conductivity" in err
        mlp, header = load_checkpoint(tmp_path / "run" / "diagnostic.ckpt")
        assert 1 <= header["epoch"] <= 20
        assert np.all(np.isfinite(get_weights(mlp)))

    def test_render_verb(self, tmp_path):
        from nfinv.mesh import write_grid_csv
        csv = tmp_path / "g.csv"
        write_grid_csv(csv, np.arange(6.0), nx=3, nz=2, dx=1.0, dz=1.0)
        out = tmp_path / "g.png"
        assert main(["render", "--grid", str(csv), "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("argv, option", [
        (["render", "--grid", "missing.csv", "--out", "g.png"], "--grid"),
        (["render", "--grid", "words.csv", "--out", "g.png"], "--grid"),
        (["render", "--grid", "nan.csv", "--out", "g.png"], "--grid"),
        (["render", "--grid", "g.csv", "--scale", "-1", "--out", "g.png"],
         "--scale"),
        (["render", "--grid", "g.csv", "--scale", "0", "--out", "g.png"],
         "--scale"),
        (["render", "--grid", "g.csv", "--out", "no_dir/g.png"], "--out"),
        (["make-scenario", "--case", "1", "--out", "no_dir/m.json"], "--out"),
        (["simulate", "--manifest", "m.json", "--out", "a_file"], "--out"),
        (["invert", "--manifest", "m.json", "--out", "a_file"], "--out"),
    ])
    def test_bad_paths_and_options_exit_2(self, tmp_path, monkeypatch,
                                          capsys, argv, option):
        from nfinv.mesh import write_grid_csv
        monkeypatch.chdir(tmp_path)
        write_grid_csv("g.csv", np.arange(6.0), nx=3, nz=2, dx=1.0, dz=1.0)
        (tmp_path / "words.csv").write_text("nx,nz,dx,dz\n1,2,3\n")
        (tmp_path / "nan.csv").write_text("2,1,1.0,1.0\n0.5,nan\n")
        (tmp_path / "a_file").write_text("")
        save_manifest(tiny_case1(epochs=1), "m.json")
        assert main(argv) == 2
        assert f"invalid input at {option}:" in capsys.readouterr().err
        assert not (tmp_path / "g.png").exists()

    def test_svd_verb(self, tmp_path, monkeypatch, capsys):
        man = tiny_case1(epochs=3)
        man["encoding"] = {"kind": "identity", "coord_range": [0.0, 1.0]}
        man_path = tmp_path / "man.json"
        save_manifest(man, man_path)
        run_dir = tmp_path / "run"
        assert main(["invert", "--manifest", str(man_path),
                     "--out", str(run_dir)]) == 0
        svd_dir = tmp_path / "svd"
        assert main(["svd", "--manifest", str(man_path),
                     "--checkpoint", str(run_dir / "weights_final.ckpt"),
                     "--k", "3", "--out", str(svd_dir)]) == 0
        assert (svd_dir / "spectrum.csv").exists()
        # an --out that is a file exits 2 before the analysis starts
        monkeypatch.setattr("nfinv.svd_analysis.analyze_trained_network",
                            None)
        assert main(["svd", "--manifest", str(man_path),
                     "--checkpoint", str(run_dir / "weights_final.ckpt"),
                     "--k", "3", "--out", str(man_path)]) == 2
        assert "invalid input at --out:" in capsys.readouterr().err

    def test_simulate_verb(self, tmp_path):
        man_path = tmp_path / "man.json"
        save_manifest(tiny_case1(), man_path)
        out = tmp_path / "sim"
        assert main(["simulate", "--manifest", str(man_path),
                     "--out", str(out)]) == 0
        assert (out / "data_obs.csv").exists()
