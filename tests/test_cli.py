import argparse
import json
import runpy
import shutil
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fisheyestereo import formats
from fisheyestereo.camera import (RelativePose, StereoRig, UnifiedCamera,
                                  save_rig)
from fisheyestereo.cli import build_parser, main
from fisheyestereo.solver import SolverParams

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
                "manifest.json", "rig.json"}
    assert names == expected


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
    (_scene_with(texture_edit={"scale": 0}), "primitive 1: texture scale must be finite and > 0"),
    (_scene_with(texture_edit={"scale": "big"}),
     "primitive 1: texture scale must be finite and > 0"),
    (_scene_with(texture_edit={"seed": 1.5}), "primitive 1: texture seed must be an integer"),
    (_scene_with(texture_edit={"lo": "dark"}), "primitive 1: texture lo must be finite"),
    (_scene_with(sphere_edit={"texture": {"kind": "checker", "period": 0}}),
     "primitive 1: texture period must be finite and > 0"),
    (_scene_with(sphere_edit={"texture": {"kind": "sine", "wavelength": 0}}),
     "primitive 1: texture wavelength must be finite and > 0"),
    (_scene_with(sphere_edit={"texture": {"kind": "sine", "direction": [0, 0, 0]}}),
     "primitive 1: texture direction must be 3 finite numbers, not all zero"),
    (_scene_with(sphere_edit={"kind": "plane", "point": [0, 0, 1], "normal": [0, 0, 0]}),
     "primitive 1: normal must be 3 finite numbers, not all zero"),
    (_scene_with(sphere_edit={"colour": "red"}),
     "primitive 1: 'colour' is not a key of a sphere primitive"),
    (_scene_with(texture_edit={"period": 0.4}),
     "primitive 1: texture 'period' is not a key of a noise texture"),
    (_scene_with(sphere_edit={"kind": "plane", "point": [0, 0, 1], "normal": [0, 0, -1]}),
     "primitive 1: 'center' is not a key of a plane primitive"),
], ids=["no-radius", "cone", "not-json", "bogus-texture-field", "negative-radius",
        "2d-center", "fractional-octaves", "zero-scale", "text-scale", "fractional-seed",
        "text-lo", "zero-period", "zero-wavelength", "zero-direction", "zero-normal",
        "unknown-primitive-key", "unknown-texture-key", "sphere-keys-on-plane"])
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
    (["--supersample", "0"], "supersample must be an integer >= 1, got 0"),
    (["--noise", "-1"], "noise_sigma must be finite and >= 0"),
    (["--noise", "nan"], "noise_sigma must be finite and >= 0"),
    (["--noise", "inf"], "noise_sigma must be finite and >= 0"),
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
    (["--seed", "-1", "--noise", "0.01"], "--seed must be >= 0, got -1"),
], ids=["supersample-0", "noise-negative", "noise-nan", "noise-inf", "seed-negative",
        "seed-negative-noise"])
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
    path = tmp_path / "bad_rig.json"
    for bad, message in [({**rig, "pose": {}}, "rotation"),
                         ({**rig, "cam1": {**rig["cam1"], "colour": "red"}},
                          "cam1: 'colour' is not a key of a unified camera")]:
        path.write_text(json.dumps(bad))
        assert main(["fields", "--rig", str(path), "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert "bad_rig.json" in err and message in err


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
                               "min_width": 40, "lam": 2.5, "alpha1": 0.8}))
    out = tmp_path / "s"
    assert main(["stereo", "--left", str(dataset / "image0.pgm"),
                 "--right", str(dataset / "image1.pgm"),
                 "--rig", str(tiny_rig_path), "--out", str(out),
                 "--config", str(cfg), "--lam", "3.5", "--alpha1", "0.9"]) == 0
    echo = json.loads((out / "config_resolved.json").read_text())
    assert echo["params"]["warp_iters"] == 3     # from config file
    assert echo["params"]["lam"] == 3.5          # flag beats config
    assert echo["params"]["alpha1"] == 0.9


@pytest.mark.parametrize("config, flags, message", [
    ({"lambda_weight": 1}, [], "lambda_weight"),
    ({}, ["--lam", "-1"], "positive"),
    ({"warp_iters": 2.5}, [], "warp_iters must be an integer"),
    ({"pd_iters": True}, [], "pd_iters"),
    # The id the message would give is too long for a one-line test summary.
    pytest.param({"du_max": "0.2"}, [], "du_max must be finite and > 0",
                 id="config4-flags4-du_max as text"),
    ({}, ["--lam", "nan"], "lam must be finite"),
    # theta, epsilon_scale, the pyramid ratio and the edge tensor's beta, eta
    # and smoothing sigma are constants of the method, not settings.
    pytest.param({"theta": 1.0}, [], "'theta' is not a key of a solver config",
                 id="config6-flags6-theta not a key"),
    pytest.param({"epsilon_scale": 0.1}, [], "'epsilon_scale' is not a key of a solver config",
                 id="config7-flags7-epsilon_scale not a key"),
    pytest.param({"pyramid_scale": 2.0}, [], "'pyramid_scale' is not a key of a solver config",
                 id="config8-flags8-pyramid_scale not a key"),
    pytest.param({"beta": 9.0}, [], "'beta' is not a key of a solver config",
                 id="config9-flags9-beta not a key"),
    pytest.param({"eta": 0.85}, [], "'eta' is not a key of a solver config",
                 id="config10-flags10-eta not a key"),
    pytest.param({"tensor_sigma": 1.0}, [], "'tensor_sigma' is not a key of a solver config",
                 id="config11-flags11-tensor_sigma not a key"),
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
    assert not (tmp_path / "s").exists()


# Each SolverParams field's flag, by its argparse dest.
PARAM_FLAGS = {f.name: ["--" + f.name.replace("_", "-")] for f in fields(SolverParams)}


@pytest.mark.parametrize("command, params, others", [
    ("stereo", set(PARAM_FLAGS), {"left", "right", "rig", "out", "config"}),
    ("sweep", set(PARAM_FLAGS) - {"warp_iters", "du_max"},
     {"dataset", "out", "warp_iters_grid", "du_max_grid", "config"}),
    ("fields", set(), {"rig", "out"}),
], ids=["stereo", "sweep", "fields"])
def test_solver_flags_are_one_per_params_field(command, params, others):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a.option_strings for a in sub.choices[command]._actions
             if a.dest != "help"}
    assert set(flags) == params | others
    assert {name: flags[name] for name in params} == {name: PARAM_FLAGS[name] for name in params}


@pytest.mark.parametrize("argv", [
    ["stereo", "--left", "l.pgm", "--right", "r.pgm", "--theta", "1"],
    ["fields", "--epsilon-scale", "0.1"],
    ["stereo", "--left", "l.pgm", "--right", "r.pgm", "--pyramid-scale", "2"],
    ["stereo", "--left", "l.pgm", "--right", "r.pgm", "--beta", "9"],
    ["stereo", "--left", "l.pgm", "--right", "r.pgm", "--eta", "0.85"],
    ["sweep", "--dataset", "d", "--tensor-sigma", "1"],
], ids=["stereo-theta", "fields-epsilon-scale", "stereo-pyramid-scale", "stereo-beta",
        "stereo-eta", "sweep-tensor-sigma"])
def test_removed_setting_flags_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    assert not (tmp_path / "s").exists()


def test_stereo_without_compiler_fails_with_message(tmp_path, dataset, tiny_rig_path,
                                                    capsys, no_compiler):
    code = main(["stereo", "--left", str(dataset / "image0.pgm"),
                 "--right", str(dataset / "image1.pgm"),
                 "--rig", str(tiny_rig_path), "--out", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot solve: ") and "'gcc'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "s").exists()


def test_sweep_empty_solve_mask_fails_with_message(tmp_path, dataset, turned_rig_path,
                                                   capsys):
    data = tmp_path / "turned"
    shutil.copytree(dataset, data)
    shutil.copy(turned_rig_path, data / "rig.json")
    code = main(["sweep", "--dataset", str(data), "--out", str(tmp_path / "o"),
                 "--warp-iters-grid", "2", "--pyramid-levels", "2", "--min-width", "40"])
    assert code == 2
    assert "empty solve mask" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("manifest, flags, message", [
    ("{not json", [], "bad dataset manifest"),
    ('{"image1": "image1.pgm"}', [], "is missing key 'image0'"),
    ('{"image0": "gone.pgm", "image1": "image1.pgm"}', [], "gone.pgm"),
    (None, ["--warp-iters-grid", "a"], "bad --warp-iters-grid 'a'"),
    (None, ["--warp-iters-grid", ""], "bad --warp-iters-grid ''"),
    (None, ["--warp-iters-grid", "2,,3"], "bad --warp-iters-grid '2,,3'"),
    (None, ["--warp-iters-grid", "0"], "bad --warp-iters-grid '0'"),
    (None, ["--du-max-grid", "nan"], "bad --du-max-grid 'nan': du_max must be finite"),
], ids=["manifest-not-json", "manifest-no-image0", "manifest-missing-image",
        "grid-text", "grid-empty", "grid-empty-entry", "grid-zero", "du-max-nan"])
def test_sweep_bad_inputs_fail_with_message(tmp_path, dataset, capsys, manifest, flags,
                                            message):
    data = tmp_path / "ds"
    shutil.copytree(dataset, data)
    if manifest is not None:
        (data / "manifest.json").write_text(manifest)
    code = main(["sweep", "--dataset", str(data), "--out", str(tmp_path / "o"),
                 "--warp-iters-grid", "2"] + flags)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _stereo(d, left="image0.pgm", right="image1.pgm", rig="rig.json", config=None):
    command = ["stereo", "--left", d / left, "--right", d / right, "--rig", d / rig]
    return [str(a) for a in command + (["--config", config] if config else [])]


def _eval(d, f):
    return ["eval", "--estimate", d / "estimate.pfm", "--gt", d]


def _sweep(d, f):
    return ["sweep", "--dataset", d, "--warp-iters-grid", "2"]


# Every file the CLI reads: its name in a copy `d` of the dataset, and a
# command that reads it after reading only valid files.
READ_SITES = {
    "rig": ("rig.json", lambda d, f: ["fields", "--rig", f]),
    "scene": ("scene.json", lambda d, f: ["render", "--rig", d / "rig.json", "--scene", f]),
    "config": ("config.json", lambda d, f: _stereo(d, config=f)),
    "left": ("left.png", lambda d, f: _stereo(d, left=f)),
    "right": ("right.png", lambda d, f: _stereo(d, right=f)),
    "estimate": ("estimate.pfm", lambda d, f: ["eval", "--estimate", f, "--gt", d]),
    "gt-correspondence": ("correspondence.pfm", _eval),
    "gt-depth": ("depth0.pfm", _eval),
    "gt-rig": ("rig.json", _eval),
    "manifest": ("manifest.json", _sweep),
    "manifest-image": ("image0.png", _sweep),
}
KINDS = {
    ".json": ["missing", "directory", "garbage", "not-an-object", "missing-key"],
    ".png": ["missing", "directory", "garbage", "channels", "missing-key"],
    ".pfm": ["missing", "directory", "garbage", "channels", "oversized"],
}
READ_FAILURES = [(site, kind) for site, (name, _) in READ_SITES.items()
                 for kind in KINDS[Path(name).suffix]
                 if (site, kind) != ("config", "missing-key")]


def _damage(f, kind: str) -> str:
    """Damage the valid file `f` as `kind` says; returns part of the expected error."""
    if kind == "missing":
        f.unlink()
        return "not found"
    if kind == "directory":
        f.unlink()
        f.mkdir()
        return "Is a directory"
    if kind == "garbage":
        f.write_bytes(b"P5 garbage\xff")
        return "bad "
    if kind == "not-an-object":
        f.write_text("[1, 2]")
        return "bad "
    raw = bytearray(f.read_bytes())
    if kind == "oversized":  # a PFM header, tag kept, claiming far more than the file holds
        f.write_bytes(raw.split(b"\n", 1)[0] + b"\n99999999 99999999\n-1.0\n" + raw[-64:])
        return "64 data bytes for a 99999999x99999999x"
    if f.suffix == ".json":  # missing-key: drop the object's first key
        obj = json.loads(raw)
        key = next(iter(obj))
        f.write_text(json.dumps({k: v for k, v in obj.items() if k != key}))
        return f"is missing key '{key}'"
    if f.suffix == ".pfm":  # channels: the other PFM channel count
        formats.write_pfm(f, np.zeros((100, 100, 3) if f.name == "depth0.pfm" else (100, 100)))
        return "channel PFM"
    if kind == "channels":  # IHDR colour type 4, gray + alpha
        raw[25] = 4
        f.write_bytes(bytes(raw))
        return "unsupported color type 4"
    f.write_bytes(bytes(raw[:8] + raw[33:]))  # missing-key: no IHDR chunk
    return "no IHDR chunk"


@pytest.mark.parametrize("site, kind", READ_FAILURES,
                         ids=[f"{site}-{kind}" for site, kind in READ_FAILURES])
def test_every_read_failure_exits_2_naming_the_file(tmp_path, dataset, capsys, site, kind):
    d = tmp_path / "d"
    shutil.copytree(dataset, d)
    (d / "scene.json").write_text(json.dumps(TINY_SCENE))
    (d / "config.json").write_text(json.dumps({"warp_iters": 2}))
    shutil.copy(d / "correspondence.pfm", d / "estimate.pfm")
    for name, image in (("left.png", "image0"), ("right.png", "image1"), ("image0.png", "image0")):
        pixels = formats.read_pgm(d / f"{image}.pgm")
        formats.write_png(d / name, np.rint(pixels * 255).astype(np.uint8))
    manifest = json.loads((d / "manifest.json").read_text())
    (d / "manifest.json").write_text(json.dumps({**manifest, "image0": "image0.png"}))

    name, command = READ_SITES[site]
    message = _damage(d / name, kind)
    code = main([str(a) for a in command(d, d / name)] + ["--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert name in err and message in err
    assert err.count(str(d / name)) == 1
    assert not (tmp_path / "o").exists()


def test_stereo_nan_translation_fails_without_output(tmp_path, dataset, tiny_rig_path, capsys):
    rig = json.loads(tiny_rig_path.read_text())
    rig["pose"]["translation"] = [0.0, 0.0, float("nan")]
    path = tmp_path / "nan_rig.json"
    path.write_text(json.dumps(rig))
    code = main(_stereo(dataset, rig=path) + ["--out", str(tmp_path / "o")])
    assert code == 2
    assert "nan_rig.json" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_fields_zero_baseline_fails_without_output(tmp_path, capsys):
    cam = UnifiedCamera(width=40, height=40, fx=20.0, fy=20.0, cx=19.5, cy=19.5,
                        fov=np.pi, xi=0.9)
    rig_path = tmp_path / "zero.json"
    save_rig(rig_path, StereoRig(cam, cam, RelativePose()))
    assert main(["fields", "--rig", str(rig_path), "--out", str(tmp_path / "o")]) == 2
    assert "zero baseline" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_eval_nothing_scored_writes_nulls(tmp_path, dataset):
    # No pixel marked valid: every statistic is undefined, and the report
    # must still be strict JSON (RFC 8259 has no NaN or Infinity).
    corr, covis = formats.read_vector_pfm(dataset / "correspondence.pfm")
    est_path = tmp_path / "none.pfm"
    formats.write_vector_pfm(est_path, corr, third=np.zeros(covis.shape))
    out = tmp_path / "eval_none"
    assert main(["eval", "--estimate", str(est_path), "--gt", str(dataset),
                 "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["valid_count"] == 0
    assert report["pct_bad"] == {"tau>1": None, "tau>3": None, "tau>5": None}
    assert report["mean_error_px"] is None
    assert report["median_error_px"] is None
    assert report["mean_abs_depth_error_m"] is None


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


@pytest.mark.parametrize("taus", ["1,x", "0", "nan"])
def test_eval_bad_taus_fail_with_message(tmp_path, dataset, capsys, taus):
    code = main(["eval", "--estimate", str(dataset / "correspondence.pfm"),
                 "--gt", str(dataset), "--out", str(tmp_path / "o"), "--taus", taus])
    assert code == 2
    assert f"bad --taus {taus!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_eval_nan_estimate_fails_with_message(tmp_path, dataset, capsys):
    corr, covis = formats.read_vector_pfm(dataset / "correspondence.pfm")
    est_path = tmp_path / "nan.pfm"
    formats.write_vector_pfm(est_path, np.full_like(corr, np.nan), third=covis)
    code = main(["eval", "--estimate", str(est_path), "--gt", str(dataset),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad estimate file" in err and "nan.pfm" in err and "non-finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["eval", "sweep"])
@pytest.mark.parametrize("name, value", [("depth0.pfm", np.nan),
                                         ("correspondence.pfm", np.inf)],
                         ids=["nan-depth", "inf-correspondence"])
def test_non_finite_ground_truth_fails_without_output(tmp_path, dataset, capsys, command,
                                                      name, value):
    # A non-finite ground truth value on one covisible pixel would reach the
    # report; both commands reject the dataset before they write anything.
    data = tmp_path / "ds"
    shutil.copytree(dataset, data)
    corr, covis = formats.read_vector_pfm(data / "correspondence.pfm")
    row, col = np.argwhere(covis > 0.5)[0]
    if name == "depth0.pfm":
        depth = formats.read_pfm(data / name)
        depth[row, col] = value
        formats.write_pfm(data / name, depth)
    else:
        bad = corr.copy()
        bad[row, col, 0] = value
        formats.write_vector_pfm(data / name, bad, third=covis)
    out = tmp_path / "o"
    if command == "eval":
        est = tmp_path / "est.pfm"
        formats.write_vector_pfm(est, corr, third=np.ones(covis.shape))
        argv = ["eval", "--estimate", str(est), "--gt", str(data)]
    else:
        argv = ["sweep", "--dataset", str(data), "--warp-iters-grid", "2",
                "--pyramid-levels", "2", "--min-width", "40"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"bad ground truth file {data / name}: non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("name, header, message", [
    ("a.pgm", b"P5\n# c", "PGM header has no width"),
    ("b.pgm", b"P5\n4", "PGM header has no height"),
    ("c.pgm", b"P5\n4 4\n255", "PGM header has no whitespace after maxval"),
    ("d.pfm", b"PF\n4 4\n", "PFM header has no scale"),
    ("e.pfm", b"PF\nx y\n-1\n", "PFM width b'x' is not an integer"),
], ids=["pgm-open-comment", "pgm-no-height", "pgm-no-whitespace", "pfm-no-scale",
        "pfm-text-width"])
def test_truncated_or_text_header_names_the_part(tmp_path, dataset, capsys, name, header,
                                                 message):
    path = tmp_path / name
    path.write_bytes(header)
    if name.endswith(".pgm"):
        what, command = "left image", _stereo(dataset, left=path)
    else:
        what, command = "estimate file", ["eval", "--estimate", str(path), "--gt", str(dataset)]
    assert main(command + ["--out", str(tmp_path / "o")]) == 2
    assert f"bad {what} {path}: {message}" in capsys.readouterr().err


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


def test_sweep_builds_the_rig_fields_before_timing(tmp_path, dataset, monkeypatch):
    # No grid cell's solve builds a field (a projection through
    # `fields._flow`): every cell's wall_time_s times the same work.
    from fisheyestereo import fields as fieldsmod, solver
    calls = []
    flow, solve = fieldsmod._flow, solver.solve_pyramid
    monkeypatch.setattr(fieldsmod, "_flow", lambda *a: calls.append("flow") or flow(*a))
    monkeypatch.setattr(solver, "solve_pyramid",
                        lambda *a: calls.append("solve") or solve(*a))
    fieldsmod.generate_calibration_field.cache_clear()
    fieldsmod._trajectory_field.cache_clear()
    assert main(["sweep", "--dataset", str(dataset), "--out", str(tmp_path / "o"),
                 "--warp-iters-grid", "1,2", "--du-max-grid", "0.2",
                 "--pyramid-levels", "2", "--min-width", "40"]) == 0
    first = calls.index("solve")
    assert first == 1 + 2 * 2 and calls[first:] == ["solve", "solve"]


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


@pytest.mark.parametrize("script, commands", [
    ("run_stereo_experiment.py", ["render", "stereo", "eval"]),
    ("sweep_warp_iters.py", ["render", "sweep"]),
])
def test_example_scripts_pass_only_flags_the_cli_parses(tmp_path, monkeypatch, script,
                                                        commands):
    # The scripts call `cli.main` with argument lists nothing else checks. A
    # recorder stands in for it, so nothing renders or solves; every list it
    # records must parse, as an unknown flag exits 2.
    calls = []
    monkeypatch.setattr("fisheyestereo.cli.main", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", [script, str(tmp_path / "work")])
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(path), run_name="__main__")
    assert done.value.code == 0
    assert [argv[0] for argv in calls] == commands
    for argv in calls:
        build_parser().parse_args(argv)
