"""Structure parsing, binary containers, and configuration."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dockinv import fileio
from dockinv.config import ConfigError, RunConfig, load_config, parse_overrides
from dockinv.structures import (
    MolecularStructure,
    StructureError,
    UnsupportedElementError,
    parse_molecule,
    parse_pdb,
    write_molecule,
)
from dockinv.surface import FEATURE_WIDTHS, SurfacePointCloud

PDB_CA_LINE = (
    "ATOM      1  CA  ALA A   1       0.000   0.000   0.000  1.00  0.00           C"
)

METHANE = """5
C 0 0 0
H 0.63 0.63 0.63
H -0.63 -0.63 0.63
H -0.63 0.63 -0.63
H 0.63 -0.63 -0.63
0 1 1
0 2 1
0 3 1
0 4 1
"""


class TestPdb:
    def test_single_ca_record(self):
        s = parse_pdb(PDB_CA_LINE)
        assert len(s.atoms) == 1
        assert s.atoms[0].element == "C"
        assert s.atoms[0].radius == 1.70
        assert s.residues[0].name == "ALA"

    def test_selenium_accepted(self):
        line = PDB_CA_LINE[:76] + "SE"
        s = parse_pdb(line)
        assert s.atoms[0].element == "SE"
        assert s.atoms[0].radius == 1.90

    def test_iron_rejected(self):
        line = PDB_CA_LINE[:76] + "FE"
        with pytest.raises(UnsupportedElementError) as err:
            parse_pdb(line)
        assert "FE" in str(err.value)

    def test_no_atoms_is_error(self):
        with pytest.raises(StructureError):
            parse_pdb("HEADER    NOTHING HERE\nEND\n")

    def test_residue_grouping(self):
        text = "\n".join(
            [
                PDB_CA_LINE,
                "ATOM      2  N   GLY A   2       1.000   0.000   0.000  1.00  0.00           N",
                "ATOM      3  CA  GLY A   2       2.000   0.000   0.000  1.00  0.00           C",
            ]
        )
        s = parse_pdb(text)
        assert len(s.residues) == 2
        assert s.residues[1].name == "GLY"
        assert s.residues[1].atom_indices == (1, 2)


class TestMolecule:
    def test_methane(self):
        s = parse_molecule(METHANE)
        assert len(s.atoms) == 5
        assert len(s.bonds) == 4
        assert s.molecule_type == "small-molecule"
        assert s.atoms[0].type_label == "C.sp3"  # default hybridization

    def test_sp2_oxygen(self):
        s = parse_molecule("1\nO 0 0 0 sp2\n")
        assert s.atoms[0].type_label == "O.sp2"

    def test_invalid_bond_order(self):
        with pytest.raises(StructureError) as err:
            parse_molecule("2\nC 0 0 0\nC 1.4 0 0\n0 1 5\n")
        assert "bond order" in str(err.value)

    def test_atom_count_mismatch(self):
        with pytest.raises(StructureError):
            parse_molecule("3\nC 0 0 0\nH 1 0 0\n")

    def test_vocabulary_enforced(self):
        with pytest.raises(UnsupportedElementError):
            parse_molecule("1\nFE 0 0 0\n")
        with pytest.raises(UnsupportedElementError):
            parse_molecule("1\nS 0 0 0 sp3\n")  # only S(sp2) exists

    def test_duplicate_bond_rejected(self):
        with pytest.raises(StructureError):
            parse_molecule("2\nC 0 0 0\nC 1.4 0 0\n0 1 1\n1 0 2\n")

    def test_roundtrip_idempotent(self):
        s1 = parse_molecule(METHANE)
        text = write_molecule(s1)
        s2 = parse_molecule(text)
        assert write_molecule(s2) == text
        assert [a.type_label for a in s1.atoms] == [a.type_label for a in s2.atoms]
        np.testing.assert_allclose(s1.coords, s2.coords)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    def test_parser_never_panics(self, blob):
        text = blob.decode("utf-8", errors="replace")
        for parser in (parse_molecule, parse_pdb):
            try:
                parser(text)
            except (StructureError, ValueError):
                pass


class TestPointcloudContainer:
    def _cloud(self, n=7):
        rng = np.random.default_rng(3)
        return SurfacePointCloud(rng.standard_normal((n, 3)),
                                 rng.standard_normal((n, FEATURE_WIDTHS["protein"])), "protein")

    def test_roundtrip_lossless(self, tmp_path):
        cloud = self._cloud()
        path = tmp_path / "c.mdpc"
        fileio.write_pointcloud(cloud, path)
        back = fileio.read_pointcloud(path)
        np.testing.assert_array_equal(back.points, cloud.points)
        np.testing.assert_array_equal(back.features, cloud.features)
        assert back.molecule_type == cloud.molecule_type

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.mdpc"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(fileio.FormatError, match="bad.mdpc: bad magic"):
            fileio.read_pointcloud(path)

    def test_truncated_payload(self, tmp_path):
        cloud = self._cloud()
        path = tmp_path / "c.mdpc"
        fileio.write_pointcloud(cloud, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(fileio.FormatError, match="c.mdpc: truncated payload"):
            fileio.read_pointcloud(path)

    def test_payload_longer_than_header_is_rejected(self, tmp_path):
        path = tmp_path / "c.mdpc"
        fileio.write_pointcloud(self._cloud(), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(fileio.FormatError, match="c.mdpc: payload longer than its header"):
            fileio.read_pointcloud(path)

    @pytest.mark.parametrize("name, index, value, reason", [
        ("points", (0, 0), np.nan, "points must be finite"),
        ("features", (2, 5), np.nan, "features must be finite"),
    ], ids=["nan-point", "nan-feature"])
    def test_malformed_cloud_is_rejected_naming_the_file(self, name, index, value, reason,
                                                         tmp_path):
        cloud = self._cloud()
        arrays = {k: getattr(cloud, k).copy() for k in ("points", "features")}
        arrays[name][index] = value
        path = tmp_path / "bad.mdpc"
        fileio.write_pointcloud(SimpleNamespace(molecule_type="protein", **arrays), path)
        with pytest.raises(fileio.FormatError) as err:
            fileio.read_pointcloud(path)
        assert str(err.value).startswith(f"{path}: {reason}")

    def test_feature_width_off_the_table_is_rejected(self, tmp_path):
        cloud = self._cloud()
        features = np.concatenate([cloud.features, cloud.points], axis=1)
        path = tmp_path / "wide.mdpc"
        fileio.write_pointcloud(SimpleNamespace(points=cloud.points, features=features,
                                                molecule_type="protein"), path)
        with pytest.raises(fileio.FormatError, match=r"wide.mdpc: features are \(7, 17\), "
                                                     r"expected \(7, 14\)"):
            fileio.read_pointcloud(path)

    def test_empty_cloud_roundtrips(self, tmp_path):
        cloud = SurfacePointCloud(np.zeros((0, 3)), np.zeros((0, 16)), "small-molecule")
        path = tmp_path / "empty.mdpc"
        fileio.write_pointcloud(cloud, path)
        back = fileio.read_pointcloud(path)
        assert len(back.points) == 0
        assert back.molecule_type == "small-molecule"


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {"enc.w": rng.standard_normal((4, 5)), "codebook": rng.standard_normal((3, 2))}
        path = tmp_path / "m.mdck"
        fileio.save_checkpoint(path, params, "digest123", meta={"kind": "test"})
        back, digest, meta = fileio.load_checkpoint(path)
        assert digest == "digest123"
        assert meta["kind"] == "test"
        for k in params:
            assert back[k].tobytes() == params[k].tobytes()

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "m.mdck"
        fileio.save_checkpoint(path, {"w": np.ones(3)}, "d")
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(fileio.ChecksumError):
            fileio.load_checkpoint(path)

    @pytest.mark.parametrize("cut", [4, 8, 11])
    def test_truncated_header_is_format_error(self, tmp_path, cut):
        path = tmp_path / "m.mdck"
        fileio.save_checkpoint(path, {"w": np.ones(3)}, "d")
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(fileio.FormatError, match="truncated checkpoint"):
            fileio.load_checkpoint(path)

    def test_digest_mismatch_warns_but_loads(self, tmp_path):
        path = tmp_path / "m.mdck"
        fileio.save_checkpoint(path, {"w": np.ones(3)}, "old-digest")
        warnings = []
        params, _, _ = fileio.load_checkpoint(path, expected_digest="new-digest",
                                              warn=warnings.append)
        assert len(warnings) == 1
        np.testing.assert_array_equal(params["w"], np.ones(3))


class TestConfig:
    def test_defaults_validate(self):
        cfg = RunConfig().validate()
        assert cfg.r_probe == 1.4
        assert cfg.patch_k == 32
        assert cfg.alpha == 5.0 and cfg.beta == 50.0

    def test_file_parsing_with_comments(self):
        cfg = load_config("# comment\npatch_k = 16  # inline\nrho=0.25\n")
        assert cfg.patch_k == 16
        assert cfg.rho == 0.25

    def test_unknown_key_rejected(self):
        for key in ("no_such_knob", "seed", "grad_check_tol", "fused_pool", "normals_mode",
                    "interaction_mode"):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                load_config(f"{key} = 3\n")

    def test_ratio_bounds(self):
        with pytest.raises(ConfigError):
            RunConfig(rho=0.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(mask_ratio=1.5).validate()
        with pytest.raises(ConfigError):
            RunConfig(patch_k=0).validate()
        for clip in (0.0, -1.0):
            with pytest.raises(ConfigError, match="grad_clip"):
                RunConfig(grad_clip=clip).validate()

    @pytest.mark.parametrize("name", ["n_init_points", "n_init_residues"])
    def test_inversion_starts_need_two_points(self, name):
        with pytest.raises(ConfigError, match=f"{name} must be >= 2"):
            RunConfig(**{name: 1}).validate()
        assert getattr(RunConfig(**{name: 2}).validate(), name) == 2

    def test_override_precedence(self):
        cfg = load_config("patch_k = 16\n")
        cfg = parse_overrides(["patch_k=8"], cfg)
        assert cfg.patch_k == 8

    def test_molecule_point_budget(self):
        cfg = RunConfig()
        assert cfg.m_for("small-molecule", 5) == 512
        assert cfg.m_for("small-molecule", 20) == 1280
        assert cfg.m_for("protein", 100) == 5000

    def test_digest_changes_with_values(self):
        a = RunConfig().digest()
        b = RunConfig(patch_k=16).digest()
        assert a != b and len(a) == 16
