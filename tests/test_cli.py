import json
import shutil

import numpy as np
import pytest

from fisheyestereo import formats
from fisheyestereo.camera import (RelativePose, StereoRig, UnifiedCamera,
                                  save_rig)
from fisheyestereo.cli import main

TINY_SCENE = {
    "primitives": [
        {"kind": "box", "lo": [-1.2, -1.2, -0.5], "hi": [1.2, 1.2, 1.4],
         "texture": {"kind": "noise", "scale": 0.5, "octaves": 3, "seed": 4,
                     "lo": 0.1, "hi": 0.95}},
        {"kind": "sphere", "center": [0.2, -0.1, 0.7], "radius": 0.2,
         "texture": {"kind": "noise", "scale": 0.1, "octaves": 3, "seed": 9,
                     "lo": 0.1, "hi": 0.9}},
    ]
}


@pytest.fixture(scope="module")
def tiny_rig_path(tmp_path_factory):
    cam = UnifiedCamera(width=100, height=100, fx=50.0, fy=50.0, cx=49.5,
                        cy=49.5, fov=np.pi, xi=0.9)
    rig = StereoRig(cam, cam, RelativePose.from_displacement((0.1, 0.0, 0.0),
                                                             rotvec=(0.0, 0.01, 0.0)))
    path = tmp_path_factory.mktemp("rig") / "tiny_rig.json"
    save_rig(path, rig)
    return path


@pytest.fixture(scope="module")
def tiny_scene_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene") / "tiny_scene.json"
    path.write_text(json.dumps(TINY_SCENE))
    return path


@pytest.fixture(scope="module")
def dataset(tmp_path_factory, tiny_rig_path, tiny_scene_path):
    out = tmp_path_factory.mktemp("data") / "ds"
    code = main(["render", "--rig", str(tiny_rig_path),
                 "--scene", str(tiny_scene_path), "--out", str(out),
                 "--seed", "1"])
    assert code == 0
    return out


def test_render_writes_expected_files(dataset):
    names = {p.name for p in dataset.iterdir()}
    expected = {"image0.pgm", "image1.pgm", "depth0.pfm", "correspondence.pfm",
                "covisibility.pfm", "manifest.json", "rig.json"}
    assert expected <= names


def test_render_deterministic_given_seed(tmp_path, tiny_rig_path, tiny_scene_path, dataset):
    out2 = tmp_path / "ds2"
    assert main(["render", "--rig", str(tiny_rig_path), "--scene",
                 str(tiny_scene_path), "--out", str(out2), "--seed", "1"]) == 0
    for name in ("image0.pgm", "image1.pgm", "depth0.pfm", "correspondence.pfm"):
        assert (dataset / name).read_bytes() == (out2 / name).read_bytes()


def test_render_different_seed_differs(tmp_path, tiny_rig_path, tiny_scene_path, dataset):
    out2 = tmp_path / "ds3"
    assert main(["render", "--rig", str(tiny_rig_path), "--scene",
                 str(tiny_scene_path), "--out", str(out2), "--seed", "2"]) == 0
    assert (dataset / "image0.pgm").read_bytes() != (out2 / "image0.pgm").read_bytes()


def test_render_missing_rig_fails_with_message(tmp_path, capsys):
    code = main(["render", "--rig", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code != 0
    assert "nope.json" in capsys.readouterr().err


def _scene_with(sphere_edit=None, texture_edit=None):
    scene = json.loads(json.dumps(TINY_SCENE))
    scene["primitives"][1].update(sphere_edit or {})
    scene["primitives"][1]["texture"].update(texture_edit or {})
    return json.dumps(scene)


@pytest.mark.parametrize("text, message", [
    (_scene_with().replace('"radius": 0.2, ', ""), "missing key 'radius'"),
    (_scene_with(sphere_edit={"kind": "cone"}), "unknown primitive kind 'cone'"),
    ("{not json", "bad scene file"),
    (_scene_with(texture_edit={"bogus": 1}), "bogus"),
    (_scene_with(sphere_edit={"radius": -1}), "primitive 1: radius must be finite and > 0"),
    (_scene_with(sphere_edit={"center": [0.2, -0.1]}),
     "primitive 1: center must be 3 finite numbers"),
    (_scene_with(texture_edit={"octaves": 2.5}),
     "primitive 1: texture octaves must be an integer >= 1"),
], ids=["no-radius", "cone", "not-json", "bogus-texture-field", "negative-radius",
        "2d-center", "fractional-octaves"])
def test_render_malformed_scene_fails_with_message(tmp_path, tiny_rig_path, capsys,
                                                   text, message):
    path = tmp_path / "bad_scene.json"
    path.write_text(text)
    code = main(["render", "--rig", str(tiny_rig_path), "--scene", str(path),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad_scene.json" in err and message in err


@pytest.mark.parametrize("flags, message", [
    (["--supersample", "0"], "supersample must be >= 1"),
    (["--noise", "-1"], "noise_sigma must be finite and >= 0"),
    (["--noise", "nan"], "noise_sigma must be finite and >= 0"),
    (["--noise", "inf"], "noise_sigma must be finite and >= 0"),
], ids=["supersample-0", "noise-negative", "noise-nan", "noise-inf"])
def test_render_bad_numbers_fail_with_message(tmp_path, tiny_rig_path, tiny_scene_path,
                                              capsys, flags, message):
    code = main(["render", "--rig", str(tiny_rig_path), "--scene", str(tiny_scene_path),
                 "--out", str(tmp_path / "o")] + flags)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_fields_outputs_load_back_losslessly(tmp_path, tiny_rig_path):
    out = tmp_path / "fields"
    assert main(["fields", "--rig", str(tiny_rig_path), "--out", str(out)]) == 0
    for name in ("calibration.pfm", "trajectory.pfm"):
        first = formats.read_pfm(out / name)
        formats.write_pfm(out / "echo.pfm", first)
        assert (out / "echo.pfm").read_bytes()[-first.size * 4:] == \
            (out / name).read_bytes()[-first.size * 4:]
    traj, valid = formats.read_vector_pfm(out / "trajectory.pfm")
    norms = np.linalg.norm(traj[valid > 0.5], axis=-1)
    assert np.max(np.abs(norms - 1.0)) < 1e-5


def test_fields_malformed_rig_fails_with_message(tmp_path, tiny_rig_path, capsys):
    rig = json.loads(tiny_rig_path.read_text())
    rig["pose"] = {}
    path = tmp_path / "bad_rig.json"
    path.write_text(json.dumps(rig))
    assert main(["fields", "--rig", str(path), "--out", str(tmp_path / "f")]) == 2
    err = capsys.readouterr().err
    assert "bad_rig.json" in err and "rotation" in err


def test_fields_identity_rig_zero_calibration(tmp_path):
    cam = UnifiedCamera(width=64, height=64, fx=32.0, fy=32.0, cx=31.5,
                        cy=31.5, fov=np.pi, xi=0.9)
    rig = StereoRig(cam, cam, RelativePose(np.eye(3), np.array([-0.1, 0.0, 0.0])))
    rig_path = tmp_path / "r.json"
    save_rig(rig_path, rig)
    out = tmp_path / "f"
    assert main(["fields", "--rig", str(rig_path), "--out", str(out)]) == 0
    cal, ok = formats.read_vector_pfm(out / "calibration.pfm")
    assert np.max(np.abs(cal[ok > 0.5])) < 1e-6


def test_stereo_identical_inputs_near_zero(tmp_path, dataset):
    cam = UnifiedCamera(width=100, height=100, fx=50.0, fy=50.0, cx=49.5,
                        cy=49.5, fov=np.pi, xi=0.9)
    rig = StereoRig(cam, cam, RelativePose(np.eye(3), np.array([-0.1, 0.0, 0.0])))
    rig_path = tmp_path / "rt.json"
    save_rig(rig_path, rig)
    out = tmp_path / "stereo_zero"
    assert main(["stereo", "--left", str(dataset / "image0.pgm"),
                 "--right", str(dataset / "image0.pgm"),
                 "--rig", str(rig_path), "--out", str(out),
                 "--warp-iters", "4", "--pyramid-levels", "2",
                 "--min-width", "40"]) == 0
    u = formats.read_pfm(out / "disparity.pfm")
    assert np.mean(np.abs(u) < 0.3) > 0.98


@pytest.fixture(scope="module")
def stereo_run(tmp_path_factory, dataset, tiny_rig_path):
    out = tmp_path_factory.mktemp("stereo") / "run"
    code = main(["stereo", "--left", str(dataset / "image0.pgm"),
                 "--right", str(dataset / "image1.pgm"),
                 "--rig", str(tiny_rig_path), "--out", str(out),
                 "--warp-iters", "8", "--pyramid-levels", "2",
                 "--min-width", "40", "--du-max", "0.3"])
    assert code == 0
    return out


def test_stereo_outputs_exist(stereo_run):
    for name in ("disparity.pfm", "warp.pfm", "depth.pfm", "disparity.png",
                 "depth.png", "config_resolved.json"):
        assert (stereo_run / name).exists()


def test_stereo_config_echo_resolves_overrides(stereo_run):
    echo = json.loads((stereo_run / "config_resolved.json").read_text())
    assert echo["params"]["warp_iters"] == 8
    assert echo["params"]["du_max"] == 0.3
    assert echo["params"]["alpha0"] == 17.0  # untouched default
    assert echo["params"]["pd_iters"] == 10


def test_stereo_config_file_merge(tmp_path, dataset, tiny_rig_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"warp_iters": 3, "pyramid_levels": 2,
                               "min_width": 40, "lam": 2.5, "theta": 0.8}))
    out = tmp_path / "s"
    assert main(["stereo", "--left", str(dataset / "image0.pgm"),
                 "--right", str(dataset / "image1.pgm"),
                 "--rig", str(tiny_rig_path), "--out", str(out),
                 "--config", str(cfg), "--lam", "3.5", "--theta", "0.9"]) == 0
    echo = json.loads((out / "config_resolved.json").read_text())
    assert echo["params"]["warp_iters"] == 3     # from config file
    assert echo["params"]["lam"] == 3.5          # flag beats config
    assert echo["params"]["theta"] == 0.9


@pytest.mark.parametrize("config, flags, message", [
    ({"lambda_weight": 1}, [], "lambda_weight"),
    ({}, ["--lam", "-1"], "positive"),
    ({"warp_iters": 2.5}, [], "warp_iters must be an integer"),
    ({"pd_iters": True}, [], "pd_iters"),
    ({"du_max": "0.2"}, [], "du_max must be a number"),
    ({}, ["--lam", "nan"], "lam must be finite"),
])
def test_stereo_bad_params_fail_with_message(tmp_path, dataset, tiny_rig_path, capsys,
                                             config, flags, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["stereo", "--left", str(dataset / "image0.pgm"),
                 "--right", str(dataset / "image1.pgm"),
                 "--rig", str(tiny_rig_path), "--out", str(tmp_path / "s"),
                 "--config", str(cfg)] + flags)
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def turned_rig_path(tmp_path_factory):
    """Camera 1 turned by pi about y: no calibration field, an empty solve mask."""
    cam = UnifiedCamera(width=100, height=100, fx=50.0, fy=50.0, cx=49.5,
                        cy=49.5, fov=np.deg2rad(90.0), xi=0.9)
    rig = StereoRig(cam, cam, RelativePose.from_displacement((0.1, 0.0, 0.0),
                                                             rotvec=(0.0, np.pi, 0.0)))
    path = tmp_path_factory.mktemp("rig") / "turned_rig.json"
    save_rig(path, rig)
    return path


def test_stereo_empty_solve_mask_fails_with_message(tmp_path, dataset, turned_rig_path,
                                                    capsys):
    code = main(["stereo", "--left", str(dataset / "image0.pgm"),
                 "--right", str(dataset / "image1.pgm"),
                 "--rig", str(turned_rig_path), "--out", str(tmp_path / "s")])
    assert code == 2
    assert "empty solve mask" in capsys.readouterr().err


def test_sweep_empty_solve_mask_fails_with_message(tmp_path, dataset, turned_rig_path,
                                                   capsys):
    data = tmp_path / "turned"
    shutil.copytree(dataset, data)
    shutil.copy(turned_rig_path, data / "rig.json")
    code = main(["sweep", "--dataset", str(data), "--out", str(tmp_path / "o"),
                 "--warp-iters-grid", "2", "--pyramid-levels", "2", "--min-width", "40"])
    assert code == 2
    assert "empty solve mask" in capsys.readouterr().err


def test_stereo_missing_image_fails(tmp_path, tiny_rig_path, capsys):
    code = main(["stereo", "--left", str(tmp_path / "gone.pgm"),
                 "--right", str(tmp_path / "gone.pgm"),
                 "--rig", str(tiny_rig_path), "--out", str(tmp_path / "o")])
    assert code != 0
    assert "gone.pgm" in capsys.readouterr().err


def test_eval_perfect_estimate_zero_report(tmp_path, dataset):
    corr, covis = formats.read_vector_pfm(dataset / "correspondence.pfm")
    est_path = tmp_path / "perfect.pfm"
    formats.write_vector_pfm(est_path, corr, third=np.ones(covis.shape))
    out = tmp_path / "eval"
    assert main(["eval", "--estimate", str(est_path), "--gt", str(dataset),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["pct_bad"]) == {"tau>1", "tau>3", "tau>5"}
    assert report["pct_bad"]["tau>1"] == 0.0
    assert report["mean_error_px"] == 0.0
    assert report["valid_count"] > 0


def test_eval_error_pngs(tmp_path, dataset):
    corr, covis = formats.read_vector_pfm(dataset / "correspondence.pfm")
    est_path = tmp_path / "est.pfm"
    formats.write_vector_pfm(est_path, corr + 0.5, third=np.ones(covis.shape))
    out = tmp_path / "eval2"
    assert main(["eval", "--estimate", str(est_path), "--gt", str(dataset),
                 "--out", str(out), "--error-png"]) == 0
    assert (out / "correspondence_error.png").exists()
    assert (out / "depth_error.png").exists()


def test_eval_missing_gt_fails(tmp_path, dataset, capsys):
    est = dataset / "correspondence.pfm"
    code = main(["eval", "--estimate", str(est), "--gt", str(tmp_path / "no_gt"),
                 "--out", str(tmp_path / "o")])
    assert code != 0
    assert "no_gt" in capsys.readouterr().err


def test_stereo_output_feeds_eval(tmp_path, stereo_run, dataset):
    out = tmp_path / "chained_eval"
    assert main(["eval", "--estimate", str(stereo_run / "warp.pfm"),
                 "--gt", str(dataset), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["valid_count"] > 0
    assert np.isfinite(report["mean_error_px"])


def test_sweep_runtime_grows_with_warp_iters(tmp_path, dataset):
    out = tmp_path / "sweep_t"
    assert main(["sweep", "--dataset", str(dataset), "--out", str(out),
                 "--warp-iters-grid", "2,12", "--du-max-grid", "0.2",
                 "--pyramid-levels", "2", "--min-width", "40"]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    times = {int(r.split(",")[0]): float(r.split(",")[6]) for r in rows}
    assert times[12] > times[2]


def test_sweep_du_max_flag_is_the_grid(tmp_path, dataset):
    # sweep has no --du-max solver flag for the grid to overwrite, so the
    # option abbreviates --du-max-grid and the value given is the one solved.
    out = tmp_path / "sweep_du"
    assert main(["sweep", "--dataset", str(dataset), "--out", str(out),
                 "--warp-iters-grid", "2", "--du-max", "0.3",
                 "--pyramid-levels", "2", "--min-width", "40"]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert float(rows[1].split(",")[1]) == 0.3


def test_sweep_single_cell(tmp_path, dataset):
    out = tmp_path / "sweep"
    assert main(["sweep", "--dataset", str(dataset), "--out", str(out),
                 "--warp-iters-grid", "3", "--du-max-grid", "0.2",
                 "--pyramid-levels", "2", "--min-width", "40"]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + one cell
    header = rows[0].split(",")
    assert header == ["warp_iters", "du_max", "pct_bad_1", "pct_bad_3",
                      "pct_bad_5", "mean_error_px", "wall_time_s"]
    values = rows[1].split(",")
    assert int(values[0]) == 3
    assert float(values[6]) > 0.0
