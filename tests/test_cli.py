"""The dockinv command line: exit codes and the .mdpc corpus path."""

import dataclasses
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import write_pdb

from dockinv import fileio, toydata
from dockinv.cli import main
from dockinv.config import RunConfig
from dockinv.model import PipelineModel
from dockinv.structures import parse_pdb, write_molecule
from dockinv.surface import build_patches, build_surface


@pytest.fixture
def pdb(tmp_path, receptor_structure):
    return write_pdb(receptor_structure, tmp_path / "receptor.pdb")


@pytest.fixture
def config_file(tmp_path, toy_cfg):
    """The toy configuration as a ``key = value`` file."""
    default = RunConfig()
    lines = [f"{f.name} = {getattr(toy_cfg, f.name)}" for f in dataclasses.fields(RunConfig)
             if getattr(toy_cfg, f.name) != getattr(default, f.name)]
    path = tmp_path / "toy.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_verify_passes_with_exit_0(config_file, tmp_path):
    report = tmp_path / "verify.txt"
    assert main(["verify", "--config", str(config_file), "--out", str(report)]) == 0
    records = [json.loads(line) for line in
               (tmp_path / "verify.txt.jsonl").read_text().splitlines()]
    gradient = next(r for r in records if r["name"].startswith("gradient"))["details"]
    for kind in ("x", "f"):
        # the judged error is net of the rounding allowance; the raw error and
        # the allowance show the margin, and finite differences are never exact
        raw, allowance = gradient[f"max_abs_err_{kind}"], gradient[f"rounding_{kind}"]
        assert raw > 0.0 and allowance > 0.0, kind
        assert gradient[f"max_rel_err_{kind}"] <= 1e-5, kind


def test_negative_control_fails_verification_with_exit_3(config_file, tmp_path):
    report = tmp_path / "verify.txt"
    assert main(["verify", "--config", str(config_file), "--negative-control",
                 "--out", str(report)]) == 3
    records = [json.loads(line) for line in
               (tmp_path / "verify.txt.jsonl").read_text().splitlines()]
    # one record per check, and only the control fails
    assert [r["name"].split(":")[0] for r in records] == [
        "invariance", "gradient", "repair", "negative-control"]
    assert [r["passed"] for r in records] == [True, True, True, False]
    assert report.read_text().count("[FAIL]") == 1


def test_missing_input_exits_1(tmp_path):
    assert main(["surface", str(tmp_path / "absent.pdb"), "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("command, option", [
    ("pretrain", "--steps"),
    ("pretrain", "--batch-size"),
    ("finetune", "--corpus-size"),
    ("invert", "--runs"),
    ("surface", "--jobs"),
])
def test_count_below_one_exits_1_before_any_write(command, option, tmp_path, pdb, capsys):
    out = tmp_path / "out"
    argv = [command, "--out", str(out), option, "0"]
    if command == "invert":
        argv += ["--receptor", str(pdb)]
    elif command == "surface":
        argv.append(str(pdb))
    assert main(argv) == 1
    assert f"{option} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["metrics", "--kind", "nov", "--alpha", "0.3", "gen.txt", "ref.txt"],
     "dockinv: error: unrecognized arguments: --alpha\n"),
    (["invert", "--out", "out"],
     "dockinv invert: error: the following arguments are required: --receptor"),
    (["metrics", "--kind", "rmsd", "gen.txt"],
     "dockinv metrics: error: argument --kind: invalid choice: 'rmsd'"),
], ids=["unknown-option", "missing-required-option", "kind-outside-choices"])
def test_usage_errors_exit_1(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: dockinv") and message in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dockinv invert")


def test_insufficient_surface_exits_2(tmp_path, pdb, capsys):
    argv = ["surface", str(pdb), "--out", str(tmp_path / "out"),
            "--set", "t_sdf=1", "--set", "m_protein=500"]
    assert main(argv) == 2
    assert "converged to the iso-surface" in capsys.readouterr().err


def test_pretrain_on_surface_output(tmp_path, pdb, config_file, toy_cfg):
    corpus = tmp_path / "corpus"
    assert main(["surface", str(pdb), "--config", str(config_file), "--out", str(corpus)]) == 0
    ckpt = tmp_path / "pretrain.ckpt"
    argv = ["pretrain", "--config", str(config_file), "--corpus", str(corpus),
            "--steps", "1", "--batch-size", "1", "--out", str(ckpt)]
    assert main(argv) == 0
    assert ckpt.exists()

    # the corpus loader's patches equal the ones built with the surface
    cloud = fileio.read_pointcloud(corpus / "receptor.mdpc")
    _, expected = build_surface(parse_pdb(pdb.read_text()), toy_cfg, seed=0)
    patches = build_patches(cloud, toy_cfg)
    assert np.array_equal(patches.center_indices, expected.center_indices)
    assert np.array_equal(patches.member_indices, expected.member_indices)


def test_surface_threads_write_the_same_files(tmp_path, pdb, config_file):
    mol = tmp_path / "ligand.mol"
    mol.write_text(write_molecule(toydata.random_molecule(seed=3)))
    written = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        argv = ["surface", str(pdb), str(mol), "--config", str(config_file),
                "--out", str(out), "--jobs", jobs]
        assert main(argv) == 0
        written[jobs] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(written["1"]) == ["ligand.mdpc", "receptor.mdpc"]
    assert written["1"] == written["2"]


def test_discrete_invert_writes_every_run(tmp_path, pdb, config_file, capsys):
    # at seed 0 a run's last step changes the ligand's point count before its final decode
    out = tmp_path / "out"
    argv = ["invert", "--receptor", str(pdb), "--config", str(config_file), "--out", str(out),
            "--runs", "2", "--mode", "discrete-accept", "--set", "t_invert=4", "--seed", "0"]
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "run_000.mol", "run_000.trace.jsonl", "run_001.mol", "run_001.trace.jsonl"]
    assert capsys.readouterr().out.count("stop=") == 2


def test_malformed_corpus_cloud_exits_1_naming_the_file(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    points = np.zeros((4, 3))
    points[2, 1] = np.nan
    fileio.write_pointcloud(SimpleNamespace(points=points, features=np.zeros((4, 14)),
                                            molecule_type="protein"),
                            corpus / "bad.mdpc")
    argv = ["pretrain", "--corpus", str(corpus), "--out", str(tmp_path / "model.ckpt")]
    assert main(argv) == 1
    assert f"error: {corpus / 'bad.mdpc'}: points must be finite" in capsys.readouterr().err


def test_version_1_corpus_cloud_exits_1_naming_the_file(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    # the version-1 layout: header, then points, unit normals and 17 feature
    # columns whose last three repeat the points
    n = 40
    points = np.random.default_rng(0).standard_normal((n, 3))
    arrays = (points, np.tile([0.0, 0.0, 1.0], (n, 1)),
              np.concatenate([np.zeros((n, 14)), points], axis=1))
    (corpus / "old.mdpc").write_bytes(b"MDPC" + struct.pack("<IIIB", 1, n, 17, 0)
                                      + b"".join(a.astype("<f8").tobytes() for a in arrays))
    argv = ["pretrain", "--corpus", str(corpus), "--out", str(tmp_path / "model.ckpt")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {corpus / 'old.mdpc'}: unsupported point-cloud version 1" in err
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("n_points", [0, 5])
def test_corpus_cloud_smaller_than_a_patch_exits_1_naming_the_file(n_points, tmp_path,
                                                                   capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = np.random.default_rng(n_points)
    fileio.write_pointcloud(
        SimpleNamespace(points=rng.standard_normal((n_points, 3)),
                        features=np.zeros((n_points, 14)), molecule_type="protein"),
        corpus / "small.mdpc")
    argv = ["pretrain", "--corpus", str(corpus), "--out", str(tmp_path / "model.ckpt")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {corpus / 'small.mdpc'}: cloud has {n_points} points" in err
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("cut", [4, 8, 11])
def test_truncated_checkpoint_exits_1(cut, tmp_path, pdb, capsys):
    ckpt = tmp_path / "model.ckpt"
    fileio.save_checkpoint(ckpt, {"w": np.ones(3)}, "d")
    ckpt.write_bytes(ckpt.read_bytes()[:cut])
    argv = ["invert", "--receptor", str(pdb), "--checkpoint", str(ckpt),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "error: truncated checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["invert", "finetune"])
@pytest.mark.parametrize("change, message", [
    ("missing", "lacks the model's array 'attn.wq'"),
    ("extra", "array 'attn.wv1' is not a model parameter"),
    ("shape", "array 'attn.wq' has shape (6, 5), the model's has (6, 6)"),
])
def test_checkpoint_not_matching_the_model_exits_1(command, change, message, tmp_path, pdb,
                                                   config_file, toy_cfg, capsys):
    # checked when loaded, before a surface or a corpus is built
    params = PipelineModel(toy_cfg).init_params(0)
    if change == "missing":
        del params["attn.wq"]
    elif change == "extra":
        params["attn.wv1"] = np.zeros((6, 6))
    else:
        params["attn.wq"] = params["attn.wq"][:, :5]
    ckpt = tmp_path / "model.ckpt"
    fileio.save_checkpoint(ckpt, params, toy_cfg.digest())
    out = tmp_path / "out"
    argv = (["invert", "--receptor", str(pdb), "--checkpoint", str(ckpt)]
            if command == "invert" else ["finetune", "--init", str(ckpt)])
    assert main(argv + ["--config", str(config_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {ckpt}: checkpoint {message}" in err and "warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind, text", [
    ("sta-protein", "res phi psi\nALA -60 -45\nGLY -60\n"),
    ("scaling", "100,0.5\n200 0.9\n"),
])
def test_malformed_metrics_row_exits_1(kind, text, tmp_path, capsys):
    path = tmp_path / "rows.txt"
    path.write_text(text)
    assert main(["metrics", "--kind", kind, str(path)]) == 1
    assert f"error: {path}: malformed row" in capsys.readouterr().err


@pytest.mark.parametrize("text, reason", [
    ("100,0.5\n200,0.9\n", "need >= 4 distinct sizes, got 2"),
    ("".join(f"{n},{t}\n" for n in (100, 200, 400, 800) for t in (0.5, 0.0, 0.7)),
     "sizes and runtimes must be positive"),
])
def test_scaling_rows_the_fit_rejects_exit_1(text, reason, tmp_path, capsys):
    path = tmp_path / "timings.csv"
    path.write_text(text)
    assert main(["metrics", "--kind", "scaling", str(path)]) == 1
    assert f"error: {path}: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("texts, kind, message", [
    (["AC\n"], "aar", "metrics --kind aar reads 2 input file(s), got 1"),
    (["AC\n"] * 3, "nov", "metrics --kind nov reads 2 input file(s), got 3"),
    (["AC\nGG\n"] * 2, "div", "metrics --kind div reads 1 input file(s), got 2"),
    (["100,0.5\n"] * 2, "scaling", "metrics --kind scaling reads 1 input file(s), got 2"),
    (["AC\n"], "div", "{0}: diversity needs at least 2 items"),
    (["AC\nGG\n", "AC\n"], "aar", "{0}, {1}: generated and reference sets differ in size"),
    (["AC\n", ""], "nov", "{0}, {1}: novelty needs a non-empty reference set"),
])
def test_metrics_input_errors_exit_1(texts, kind, message, tmp_path, capsys):
    paths = [tmp_path / f"in{i}.txt" for i in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_text(text)
    assert main(["metrics", "--kind", kind, *map(str, paths)]) == 1
    assert f"error: {message.format(*paths)}" in capsys.readouterr().err


@pytest.mark.parametrize("labels, message", [
    ("y_int = abc\n", "y_int = 'abc' is not a number"),
    ("delta_g = oops\n", "delta_g = 'oops' is not a number"),
    ("y_int = 2\n", "y_int = '2' is neither 0 nor 1"),
    ("pocket = 01x1\n", "pocket bitmask holds characters other than 0 and 1"),
    ("pocket = 0101\n", "pocket bitmask length 4 != "),
])
def test_malformed_corpus_labels_exit_1_naming_the_file(labels, message, tmp_path, config_file,
                                                        receptor_structure, capsys):
    complex_dir = tmp_path / "corpus" / "a"
    complex_dir.mkdir(parents=True)
    write_pdb(receptor_structure, complex_dir / "receptor.pdb")
    (complex_dir / "ligand.mol").write_text(write_molecule(toydata.random_molecule(seed=3)))
    (complex_dir / "labels.txt").write_text(labels)
    out = tmp_path / "model.ckpt"
    argv = ["finetune", "--corpus", str(tmp_path / "corpus"), "--config", str(config_file),
            "--steps", "1", "--out", str(out)]
    assert main(argv) == 1
    assert f"error: {complex_dir / 'labels.txt'}: {message}" in capsys.readouterr().err
    assert not out.exists()
