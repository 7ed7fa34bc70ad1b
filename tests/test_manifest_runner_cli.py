import json
from pathlib import Path

import numpy as np
import pytest

from nfinv import blas
from nfinv.cli import main
from nfinv.errors import ManifestError
from nfinv.manifest import (
    default_manifest,
    load_manifest,
    save_manifest,
    sub_seed,
    validate_manifest,
)
from nfinv.inversion import data_misfit
from nfinv.mesh import read_grid_csv
from nfinv.neural_field import forward, get_weights, load_checkpoint
from nfinv.render import render_heatmap
from nfinv.runner import assemble, encode_cells, run_case, simulate_case


def tiny_case1(method="nfs", seed=0, epochs=8):
    man = default_manifest(1, method=method, seed=seed)
    man["mesh"] = {"nx": 12, "nz": 16, "dx": 1.0, "dz": 1.0}
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


def tiny_case1_svd(seed=0):
    # 300 cells, not a multiple of 32 rows, with the desk network
    man = default_manifest(1, seed=seed)
    man["mesh"] = {"nx": 15, "nz": 20, "dx": 1.0, "dz": 1.0}
    man["survey"] = {"spacing": 2.0}
    man["epochs"] = 5
    man["svd"] = {"k": 5}
    return man


def tiny_case3(method="nfs", seed=0, epochs=8):
    man = default_manifest(3, method=method, seed=seed)
    man["mesh"] = {"nx_core": 20, "nz_core": 8, "dx": 5.0, "dz": 5.0,
                   "n_pad": 4, "pad_factor": 1.5}
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

    @pytest.mark.parametrize("tiny", [
        tiny_case1, tiny_case2_gaussian, tiny_case3,
        lambda seed: tiny_case3("conventional", seed), tiny_case1_svd],
        ids=["case1", "case2-gaussian", "case3", "case3-gauss-newton",
             "case1-svd"])
    def test_csv_determinism(self, tmp_path, tiny, blas_pools, monkeypatch):
        # "a" on one core with both BLAS pools at one thread, "b" on three
        # cores with both pools at two
        man = tiny(seed=3)
        monkeypatch.setattr(blas, "_cores", lambda: 1)
        with blas.one_thread():
            run_case(man, tmp_path / "a")
        monkeypatch.setattr(blas, "_cores", lambda: 3)
        run_case(man, tmp_path / "b")
        names = [sorted(p.relative_to(tmp_path / run)
                        for p in (tmp_path / run).rglob("*") if p.is_file())
                 for run in ("a", "b")]
        assert names[0] == names[1]
        if man["case"] == 2:
            assert Path("b_matrix.csv") in names[0]
        if man["svd"] is not None:
            assert Path("svd", "spectrum.csv") in names[0]
        for name in names[0]:
            a, b = (tmp_path / run / name for run in ("a", "b"))
            if name == Path("metrics.json"):
                ma, mb = (json.loads(p.read_text()) for p in (a, b))
                del ma["runtime_seconds"], mb["runtime_seconds"]
                assert ma == mb
            else:
                assert a.read_bytes() == b.read_bytes(), name

    def test_manifest_echo_reruns(self, tmp_path):
        man = tiny_case1(seed=9)
        run_case(man, tmp_path / "a")
        echoed = load_manifest(tmp_path / "a" / "manifest_echo.json")
        assert echoed == man  # the manifest as run
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
        # each heatmap is the rendering of its grid CSV's values
        pngs = [tmp_path / "run" / "truth.png",
                tmp_path / "run" / "recovered.png",
                *(svd_dir / f"u_{i:03d}.png" for i in range(4))]
        for png in pngs:
            values, nx, nz, _, _ = read_grid_csv(png.with_suffix(".csv"))
            render_heatmap(values.reshape(nz, nx), tmp_path / "again.png")
            assert png.read_bytes() == (tmp_path / "again.png").read_bytes()
        # every field of the histories and the spectrum reads as a number,
        # and their lines end with \n alone
        for path in (tmp_path / "run" / "histories.csv",
                     svd_dir / "spectrum.csv"):
            assert b"\r" not in path.read_bytes()
            rows = path.read_text().splitlines()[1:]
            assert rows
            for row in rows:
                for field in row.split(","):
                    float(field)
        # the grid and data tables end every line with \r\n
        for path in (tmp_path / "run" / "recovered.csv",
                     tmp_path / "run" / "data_obs.csv",
                     svd_dir / "u_000.csv"):
            body = path.read_bytes()
            assert body.endswith(b"\r\n")
            assert body.count(b"\n") == body.count(b"\r\n")

    def test_checkpoints_replay_histories(self, tmp_path):
        man = tiny_case1(epochs=5)
        run_case(man, tmp_path / "plain")
        man["checkpoint_every"] = 2
        run_case(man, tmp_path / "ckpt")
        d = tmp_path / "ckpt"
        assert sorted(p.name for p in d.glob("epoch_*.ckpt")) == [
            "epoch_000002.ckpt", "epoch_000004.ckpt"]
        csvs = sorted((tmp_path / "plain").glob("*.csv"))
        assert len(csvs) == 5
        for p in csvs:
            assert p.read_bytes() == (d / p.name).read_bytes(), p.name
        # saved before that epoch's Adam step: the weights that gave row 2
        mlp, header = load_checkpoint(d / "epoch_000002.ckpt")
        assert header["epoch"] == 2
        asm = assemble(man)
        _, Z = encode_cells(man, asm.mesh)
        phi, _ = data_misfit(asm.w_d, asm.d_obs,
                             asm.simulator.predict(forward(mlp, Z)))
        row = (d / "histories.csv").read_text().splitlines()[2]
        assert row.split(",")[:2] == ["2", repr(phi)]

    def test_nfs_target_chi2_stops_early(self, tmp_path):
        man = tiny_case1(epochs=8)
        run_case(man, tmp_path / "full")
        rows = (tmp_path / "full" / "histories.csv").read_text().splitlines()
        misfits = [float(row.split(",")[1]) for row in rows[1:]]
        man["nfs"]["target_chi2"] = 2.0 * misfits[2] / 64 * (1 + 1e-9)
        metrics = run_case(man, tmp_path / "target")
        target = man["nfs"]["target_chi2"] * 64 / 2.0
        stop = 1 + next(i for i, phi in enumerate(misfits) if phi <= target)
        assert metrics["converged"]
        assert metrics["epochs_run"] == stop <= 3
        # the stopped run is the full run's first epochs
        assert (tmp_path / "target" / "histories.csv").read_text() \
            .splitlines() == rows[:stop + 1]

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
        man["mesh"] = {"nx": 10, "nz": 12, "dx": 1.0, "dz": 1.0}
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

    @pytest.mark.parametrize("method", ["nfs", "conventional"])
    def test_invert_overrides_reach_metrics(self, tmp_path, method):
        # the manifest holds the other method, seed 0, 8 epochs and 40
        # conventional iterations; --epochs sets the budget of the method
        # that runs
        other = "conventional" if method == "nfs" else "nfs"
        path = tmp_path / "man.json"
        save_manifest(tiny_case1(method=other), path)
        out = tmp_path / "run"
        assert main(["invert", "--manifest", str(path), "--method", method,
                     "--seed", "5", "--epochs", "1", "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert (metrics["method"], metrics["seed"],
                metrics["epochs_run"]) == (method, 5, 1)
        echo = load_manifest(out / "manifest_echo.json")
        assert (echo["epochs"], echo["conventional"]["max_iterations"]) \
            == ((1, 40) if method == "nfs" else (8, 1))

    @pytest.mark.parametrize("content, reason", [
        ("[1, 2]", "must hold a JSON object"),
        (json.dumps({"case": 1, "method": "nfs", "rmse": 0.1,
                     "chi2_per_datum": 1.0, "epochs_run": 3,
                     "gn_cg_unconverged": 0}), "lacks the key 'status'"),
    ], ids=["list", "no-status"])
    def test_report_bad_metrics_exit_2(self, tmp_path, capsys, content,
                                       reason):
        (tmp_path / "metrics.json").write_text(content)
        assert main(["report", str(tmp_path)]) == 2
        assert (f"invalid input at {tmp_path / 'metrics.json'}: {reason}"
                in capsys.readouterr().err)

    def test_invalid_manifest_exit_2(self, tmp_path, capsys):
        man = default_manifest(3)
        man["nfs"]["tau"] = -800.0
        path = tmp_path / "bad.json"
        save_manifest(man, path)
        code = main(["invert", "--manifest", str(path),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "nfs.tau" in capsys.readouterr().err

    # tiny_case1 has 12 x 16 = 192 core cells: k must be an int < 192;
    # desk case 3 has 100 x 24 core cells, padding excluded
    @pytest.mark.parametrize("make, k, message", [
        *[(tiny_case1, k, "svd.k") for k in (0, 2.5, 1e9, 12 * 16)],
        (lambda: default_manifest(3), 100 * 24,
         "svd.k: must lie in [1, 2399]"),
    ], ids=["0", "2.5", "1000000000.0", "192", "dcr-2400"])
    def test_bad_svd_k_exit_2(self, tmp_path, capsys, make, k, message):
        man = make()
        man["svd"] = {"k": k}
        path = tmp_path / "bad.json"
        save_manifest(man, path)
        assert main(["invert", "--manifest", str(path),
                     "--out", str(tmp_path / "run")]) == 2
        assert message in capsys.readouterr().err
        if k == int(k):
            # the svd verb's --k goes through the same check
            man["svd"] = None
            save_manifest(man, path)
            assert main(["svd", "--manifest", str(path),
                         "--checkpoint", str(tmp_path / "unread.ckpt"),
                         "--k", str(int(k)),
                         "--out", str(tmp_path / "svd")]) == 2
            assert message in capsys.readouterr().err

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

    def test_divergence_in_the_last_epoch_exit_3(self, tmp_path, capsys):
        # one Adam step at lr = 1e300 leaves finite weights whose model
        # overflows: only the final evaluation sees it
        man = tiny_case1(epochs=1)
        man["nfs"]["learning_rate"] = 1e300
        path = tmp_path / "diverge.json"
        save_manifest(man, path)
        with np.errstate(all="ignore"):
            code = main(["invert", "--manifest", str(path),
                         "--out", str(tmp_path / "run")])
        assert code == 3
        assert "final model" in capsys.readouterr().err
        mlp, header = load_checkpoint(tmp_path / "run" / "diagnostic.ckpt")
        assert header["epoch"] == 1
        assert np.all(np.isfinite(get_weights(mlp)))
        assert not (tmp_path / "run" / "weights_final.ckpt").exists()

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
        (["render", "--grid", "g.csv", "--vmin=-inf", "--out", "g.png"],
         "--vmin"),
        (["render", "--grid", "g.csv", "--vmin=nan", "--out", "g.png"],
         "--vmin"),
        (["render", "--grid", "g.csv", "--vmax=inf", "--out", "g.png"],
         "--vmax"),
        (["render", "--grid", "g.csv", "--vmin", "5", "--vmax", "1",
          "--out", "g.png"], "--vmax"),
        (["render", "--grid", "g.csv", "--vmin", "2", "--vmax", "2",
          "--out", "g.png"], "--vmax"),
        (["render", "--grid", "short.csv", "--out", "g.png"], "--grid"),
        (["render", "--grid", "g.csv", "--scale", "1000000", "--out",
          "g.png"], "--scale"),
    ])
    def test_bad_paths_and_options_exit_2(self, tmp_path, monkeypatch,
                                          capsys, argv, option):
        from nfinv.mesh import write_grid_csv
        monkeypatch.chdir(tmp_path)
        write_grid_csv("g.csv", np.arange(6.0), nx=3, nz=2, dx=1.0, dz=1.0)
        (tmp_path / "words.csv").write_text("nx,nz,dx,dz\n1,2,3\n")
        (tmp_path / "nan.csv").write_text("2,1,1.0,1.0\n0.5,nan\n")
        (tmp_path / "short.csv").write_text("2,2,1.0,1.0\n0.5,1.5\n2.5\n")
        (tmp_path / "a_file").write_text("")
        save_manifest(tiny_case1(epochs=1), "m.json")
        assert main(argv) == 2
        assert f"invalid input at {option}:" in capsys.readouterr().err
        assert not (tmp_path / "g.png").exists()

    def test_make_scenario_refuses_a_bad_seed_before_writing(self, tmp_path,
                                                              capsys):
        out = tmp_path / "m.json"
        assert main(["make-scenario", "--case", "1", "--seed", "-1",
                     "--out", str(out)]) == 2
        assert "invalid input at seed:" in capsys.readouterr().err
        assert not out.exists()

    def test_svd_verb(self, tmp_path, monkeypatch, capsys):
        man = tiny_case1(epochs=3)
        man["encoding"] = {"kind": "identity", "coord_range": [0.0, 1.0]}
        man["svd"] = {"k": 3}
        man_path = tmp_path / "man.json"
        save_manifest(man, man_path)
        run_dir = tmp_path / "run"
        assert main(["invert", "--manifest", str(man_path),
                     "--out", str(run_dir)]) == 0
        svd_dir = tmp_path / "svd"
        assert main(["svd", "--manifest", str(man_path),
                     "--checkpoint", str(run_dir / "weights_final.ckpt"),
                     "--k", "3", "--out", str(svd_dir)]) == 0
        # the verb reproduces the run's own SVD from its final weights
        names = ["spectrum.csv", "svd_manifest.json"] + [
            f"u_{i:03d}.csv" for i in range(3)]
        for name in names:
            assert ((svd_dir / name).read_bytes()
                    == (run_dir / "svd" / name).read_bytes()), name
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
