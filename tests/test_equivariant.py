"""Harmonics, rotation operators, tensor-field convolution, and attention."""

import math
import tracemalloc

import numpy as np
import pytest

import per_op
from dockinv import autodiff as ad
from dockinv import equivariant as eq
from dockinv.config import RunConfig
from dockinv.toydata import toy_config


@pytest.fixture(scope="module")
def small_cfg():
    return RunConfig(multiplicity=4, conv_k=6).validate()


def random_units(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def rotate_field(l, rotation, channel):
    """Rotate one order-``l`` channel (identity for l=0)."""
    return np.asarray(channel, dtype=float) @ eq.rotation_operator(l, rotation).T


class TestHarmonics:
    def test_order_zero_constant(self):
        out = eq.real_spherical_harmonics(0, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(out, [1.0 / (2 * np.sqrt(np.pi))], atol=1e-15)
        assert abs(out[0] - 0.28209479) < 1e-7

    def test_order_one_z_direction(self):
        out = eq.real_spherical_harmonics(1, np.array([0.0, 0.0, 1.0]))
        c = np.sqrt(3.0 / (4 * np.pi))
        np.testing.assert_allclose(out, [0.0, c, 0.0], atol=1e-15)
        assert abs(c - 0.48860251) < 1e-7

    def test_order_two_addition_theorem(self):
        rng = np.random.default_rng(0)
        d = random_units(rng, 10_000)
        y2 = eq.real_spherical_harmonics(2, d)
        np.testing.assert_allclose((y2**2).sum(axis=1), 5.0 / (4 * np.pi), atol=1e-12)

    def test_near_unit_normalized(self):
        out = eq.real_spherical_harmonics(1, np.array([0.0, 0.0, 1.0 + 5e-7]))
        np.testing.assert_allclose(out, [0.0, np.sqrt(3 / (4 * np.pi)), 0.0], atol=1e-9)

    def test_far_from_unit_rejected(self):
        with pytest.raises(eq.EquivariantError):
            eq.real_spherical_harmonics(1, np.array([0.0, 0.0, 2.0]))

    def test_unsupported_order(self):
        with pytest.raises(eq.EquivariantError):
            eq.real_spherical_harmonics(3, np.array([0.0, 0.0, 1.0]))


class TestRotationOperators:
    def test_identity_rotation(self):
        for l in (0, 1, 2):
            np.testing.assert_allclose(eq.rotation_operator(l, np.eye(3)),
                                       np.eye(2 * l + 1), atol=1e-12)

    def test_transformation_rule(self):
        rng = np.random.default_rng(1)
        d = random_units(rng, 64)
        for _ in range(5):
            rot = eq.random_rotation(rng)
            for l in (0, 1, 2):
                op = eq.rotation_operator(l, rot)
                lhs = eq.real_spherical_harmonics(l, d @ rot.T)
                rhs = eq.real_spherical_harmonics(l, d) @ op.T
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_norm_preservation_thousand_draws(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            rot = eq.random_rotation(rng)
            l = int(rng.integers(0, 3))
            v = rng.standard_normal(2 * l + 1)
            rotated = rotate_field(l, rot, v)
            assert abs(np.linalg.norm(rotated) - np.linalg.norm(v)) < 1e-12

    def test_l2_operator_orthogonal(self):
        rng = np.random.default_rng(3)
        rot = eq.random_rotation(rng)
        op = eq.rotation_operator(2, rot)
        np.testing.assert_allclose(op @ op.T, np.eye(5), atol=1e-12)

    def test_order_above_two_rejected(self):
        with pytest.raises(eq.EquivariantError):
            rotate_field(3, np.eye(3), np.zeros(7))

    def test_order_zero_bitwise_invariant(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(1)
        out = rotate_field(0, eq.random_rotation(rng), v)
        assert out.tobytes() == v.tobytes()


class TestCoupling:
    def test_all_triangle_paths_exist(self):
        for lo in range(3):
            for lf in range(3):
                for li in range(3):
                    if abs(lf - li) <= lo <= lf + li:
                        t = eq.coupling_tensor(lo, lf, li)
                        assert t.shape == (2 * lo + 1, 2 * lf + 1, 2 * li + 1)
                        assert abs(np.linalg.norm(t) - 1.0) < 1e-12

    def test_violating_path_rejected(self):
        with pytest.raises(eq.EquivariantError):
            eq.coupling_tensor(2, 0, 1)

    def test_intertwiner_property(self):
        rng = np.random.default_rng(5)
        for (lo, lf, li) in [(0, 1, 1), (1, 1, 1), (2, 1, 1), (2, 2, 2), (1, 2, 1)]:
            t = eq.coupling_tensor(lo, lf, li)
            for _ in range(3):
                rot = eq.random_rotation(rng)
                d_o = eq.rotation_operator(lo, rot)
                d_f = eq.rotation_operator(lf, rot)
                d_i = eq.rotation_operator(li, rot)
                lhs = np.einsum("ab,bfi->afi", d_o, t)
                rhs = np.einsum("afi,fg,ij->agj", t, d_f, d_i)
                np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def per_triple_coupling_reference(l_out, l_f, l_in):
    """The coupling solve as it ran before its rotations were cached: four
    rotations drawn, and their operators built, for every triple."""
    no, nf, ni = 2 * l_out + 1, 2 * l_f + 1, 2 * l_in + 1
    rng = np.random.default_rng(20240002)
    blocks = []
    for _ in range(4):
        rot = eq.random_rotation(rng)
        d_out = eq.rotation_operator(l_out, rot)
        d_fi = np.kron(eq.rotation_operator(l_f, rot), eq.rotation_operator(l_in, rot))
        blocks.append(np.kron(np.eye(nf * ni), d_out) - np.kron(d_fi.T, np.eye(no)))
    _, _, vh = np.linalg.svd(np.vstack(blocks))
    t = vh[-1].reshape(nf * ni, no).T
    t = t / np.linalg.norm(t)
    flat = t.reshape(-1)
    if flat[np.argmax(np.abs(flat))] < 0:
        t = -t
    return t.reshape(no, nf, ni)


def test_coupling_solve_matches_per_triple_reference(monkeypatch):
    # a fresh solve, as in a new process: no cached tensors or operators
    monkeypatch.setattr(eq, "_COUPLING_CACHE", {})
    monkeypatch.setattr(eq, "_COUPLING_OPERATORS", None)
    triples = [(lo, lf, li) for li in range(3) for lf in range(3) for lo in range(3)
               if abs(lf - li) <= lo <= lf + li]
    assert len(triples) == 15
    for triple in triples:
        assert np.array_equal(eq.coupling_tensor(*triple),
                              per_triple_coupling_reference(*triple)), triple


class TestRadialBasis:
    def test_zero_beyond_cutoff(self):
        basis = eq.RadialBasis(5.0, 8)
        r = np.array([4.999, 5.0, 6.0, 100.0])
        vals = basis.evaluate(r)
        assert np.all(vals[1:] == 0.0)
        assert np.any(vals[0] > 0.0)


def build_encoder(cfg, seed=0, n_scalars=14):
    enc = eq.Encoder(n_scalar_in=n_scalars, cfg=cfg)
    params = enc.init_params(np.random.default_rng(seed))
    return enc, params


def random_cloud(rng, n, n_scalars=14, scale=3.0, offset=0.0):
    pts = rng.standard_normal((n, 3)) * scale + offset
    feats = np.concatenate([rng.standard_normal((n, n_scalars)), pts], axis=1)
    return pts, feats


def init_attention_params(d, layout, rng):
    shapes = eq.attention_param_shapes(d, layout)
    return {key: rng.standard_normal(shape) / math.sqrt(shape[0])
            for key, shape in shapes.items()}


class TestConvolution:
    def test_out_of_range_neighborhood_gives_zero(self, small_cfg):
        # two points farther apart than the radial cutoff, self excluded:
        # every message dies in the cutoff envelope
        enc, params = build_encoder(small_cfg)
        pts = np.array([[0.0, 0, 0], [100.0, 0, 0]])
        feats = np.concatenate([np.ones((2, 14)), pts], axis=1)
        nbr = np.array([[1], [0]])
        layer = enc.layers[0]
        geom = eq.conv_geometry(pts, nbr, enc.basis, enc.max_order)
        field = eq.encoder_input(feats, pts)
        scoped = {k: params[k] for k in params if k.startswith("enc0")}
        out = layer.apply(scoped, field, geom)
        for l, ch in out.channels.items():
            if l == 0:
                bias = params["enc0.bias0"].reshape(1, -1, 1)
                np.testing.assert_allclose(ch.values, np.broadcast_to(bias, ch.shape),
                                           atol=1e-15)
            else:
                np.testing.assert_allclose(ch.values, 0.0, atol=1e-15)

    def test_rotation_equivariance(self, small_cfg):
        rng = np.random.default_rng(6)
        enc, params = build_encoder(small_cfg)
        pts, feats = random_cloud(rng, 16)
        rot = eq.random_rotation(rng)
        f1 = enc.apply(params, feats, pts)
        feats_rot = np.concatenate([feats[:, :14], pts @ rot.T], axis=1)
        f2 = enc.apply(params, feats_rot, pts @ rot.T)
        for l in f1.channels:
            expected = f1.values()[l] @ eq.rotation_operator(l, rot).T
            np.testing.assert_allclose(f2.values()[l], expected, atol=1e-9)

    @staticmethod
    def _assert_grid_shift_bitwise(cfg, lift):
        # half-integer coordinates and an integer shift keep every
        # subtraction exact, so outputs must match bitwise
        rng = np.random.default_rng(7)
        enc, params = build_encoder(cfg)
        pts = np.round(rng.standard_normal((12, 3)) * 4) / 2
        feats = np.concatenate([rng.standard_normal((12, 14)), pts], axis=1)
        shift = np.array([4.0, -8.0, 16.0])
        f1 = enc.apply(params, feats, lift(pts))
        feats2 = np.concatenate([feats[:, :14], pts + shift], axis=1)
        f2 = enc.apply(params, feats2, lift(pts + shift))
        for l in f1.channels:
            assert f1.values()[l].tobytes() == f2.values()[l].tobytes()

    def test_translation_invariance_exact_on_grid(self, small_cfg):
        self._assert_grid_shift_bitwise(small_cfg, lambda p: p)

    @pytest.mark.parametrize("lift", [ad.param, ad.constant], ids=["param", "constant"])
    def test_translation_invariance_exact_on_grid_tensor_points(self, small_cfg, lift):
        # Tensor points are centred the same way
        self._assert_grid_shift_bitwise(small_cfg, lift)

    def test_numpy_constant_and_param_points_encode_bitwise_equal(self, small_cfg):
        # one code path: lifting the points changes what the graph keeps,
        # never the values
        rng = np.random.default_rng(10)
        enc, params = build_encoder(small_cfg)
        pts, feats = random_cloud(rng, 16)
        fields = [enc.apply(params, feats, lift(pts)).values()
                  for lift in (np.asarray, ad.constant, ad.param)]
        for l in fields[0]:
            assert fields[1][l].tobytes() == fields[0][l].tobytes()
            assert fields[2][l].tobytes() == fields[0][l].tobytes()

    def test_coupled_harmonics_cached_per_path(self, small_cfg):
        rng = np.random.default_rng(11)
        enc, params = build_encoder(small_cfg)
        pts, feats = random_cloud(rng, 16)
        geom = eq.conv_geometry(pts, eq.knn_indices(pts, enc.conv_k), enc.basis, enc.max_order)
        assert geom["kc"] == {}
        first = enc.apply(params, feats, pts, geom=geom)
        paths = {(l_out, l_f, l_in) for layer in enc.layers
                 for (l_in, l_f, l_out) in layer.paths if l_f > 0}
        assert set(geom["kc"]) == paths
        # numpy constants of the geometry: the conv node differentiates through them
        assert all(type(kc) is np.ndarray for kc in geom["kc"].values())
        cached = dict(geom["kc"])
        second = enc.apply(params, feats, pts, geom=geom)
        assert all(geom["kc"][key] is kc for key, kc in cached.items())
        assert len(geom["kc"]) == len(cached)
        for l in first.channels:
            assert first.values()[l].tobytes() == second.values()[l].tobytes()

    def test_translation_invariance_generic(self, small_cfg):
        rng = np.random.default_rng(8)
        enc, params = build_encoder(small_cfg)
        pts, feats = random_cloud(rng, 14)
        shift = rng.standard_normal(3) * 10
        f1 = enc.apply(params, feats, pts)
        feats2 = np.concatenate([feats[:, :14], pts + shift], axis=1)
        f2 = enc.apply(params, feats2, pts + shift)
        for l in f1.channels:
            np.testing.assert_allclose(f1.values()[l], f2.values()[l], atol=1e-12)


def per_edge_reference(layer, params, field, pts, nbr):
    """The conv written per edge: each edge's radial weights ``basis @ w``
    mix the neighbour's channels, the coupled harmonics map them to the
    output order, and each point takes the mean of its k messages."""
    n, k = nbr.shape
    flat = nbr.reshape(-1)
    src = np.repeat(np.arange(n), k)
    dvec = pts[flat] - pts[src]
    r = np.sqrt((dvec * dvec).sum(axis=1) + 1e-24)
    unit = dvec / r[:, None]
    basis = layer.basis.evaluate(r)                                 # (E, n_basis)
    out = {}
    for (l_in, l_f, l_out) in layer.paths:
        c_in, c_out = layer.layout_in[l_in], layer.layout_out[l_out]
        rw = (basis @ params[f"{layer.name}.w{l_in}{l_f}{l_out}"]).reshape(-1, c_in, c_out)
        mixed = rw.transpose(0, 2, 1) @ field[l_in][flat]           # (E, c_out, ni)
        cg = eq.coupling_tensor(l_out, l_f, l_in)
        if l_f == 0:
            msg = mixed @ (cg[:, 0, :] * eq.real_spherical_harmonics(0, [0.0, 0.0, 1.0])[0]).T
        else:
            sph = eq._sph_matrix(l_f, unit) * (flat != src)[:, None]
            msg = mixed @ np.einsum("ef,ofi->eio", sph, cg)         # (E, c_out, no)
        pooled = msg.reshape(n, k, c_out, -1).sum(axis=1) / k
        out[l_out] = out.get(l_out, 0.0) + pooled
    out[0] = out[0] + params[f"{layer.name}.bias0"].reshape(1, -1, 1)
    return out


def _bmm(a, b):
    """Batched matmul (B, n, k) @ (B, k, m) as one node."""
    return ad.primitive(a.values @ b.values, "bmm", (a, b),
                        lambda g: (g @ b.values.transpose(0, 2, 1), a.values.transpose(0, 2, 1) @ g))


def per_op_reference(layer, params, field, geom, orders=None):
    """The conv as about ten autodiff ops per path, as it ran before the
    one-node-per-order primitive: the same numpy calls in the same order,
    over the paths into ``orders`` (default: every output order). Each
    path's coupled harmonics are an op over ``geom["sph"]``, cached in
    ``geom["kc"]`` as a Tensor."""
    n, k, flat, pool = geom["n"], geom["k"], geom["flat"], geom["pool"]
    n_basis = layer.basis.n_basis
    orders = layer.layout_out if orders is None else orders
    gathered, sums = {}, {}
    for (l_in, l_f, l_out) in layer.paths:
        if l_out not in orders:
            continue
        c_in, c_out = layer.layout_in[l_in], layer.layout_out[l_out]
        ni, no = 2 * l_in + 1, 2 * l_out + 1
        if l_in not in gathered:
            gathered[l_in] = ad.gather(field.channels[l_in], flat)
        cg = eq.coupling_tensor(l_out, l_f, l_in)
        if l_f == 0:
            kc = cg[:, 0, :].T * (eq._C0 / k)
            y = ad.matmul(ad.reshape(gathered[l_in], (-1, ni)), kc)
        else:
            kc = geom["kc"].get((l_out, l_f, l_in))
            if kc is None:
                kc = ad.mul(per_op.einsum("ef,fio->eio", geom["sph"][l_f], cg.transpose(1, 2, 0)),
                            geom["edge_scale"])
                geom["kc"][(l_out, l_f, l_in)] = kc
            y = _bmm(gathered[l_in], kc)
        pooled = _bmm(pool, ad.reshape(y, (n, k, c_in * no)))
        rows = ad.transpose(ad.reshape(pooled, (n, n_basis, c_in, no)), (0, 3, 1, 2))
        w = ad.reshape(params[f"{layer.name}.w{l_in}{l_f}{l_out}"], (n_basis * c_in, c_out))
        msg = ad.matmul(ad.reshape(rows, (n * no, n_basis * c_in)), w)
        sums[l_out] = msg if l_out not in sums else ad.add(sums[l_out], msg)
    out = {l: ad.transpose(ad.reshape(s, (n, 2 * l + 1, -1)), (0, 2, 1)) for l, s in sums.items()}
    bias_key = f"{layer.name}.bias0"
    if 0 in out and bias_key in params:
        out[0] = ad.add(out[0], ad.reshape(params[bias_key], (1, -1, 1)))
    return eq.IrrepsField(out)


CONFIGS = [toy_config(), RunConfig().validate()]


class TestConvAgainstPerOpReference:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=["toy", "default"])
    @pytest.mark.parametrize("lift", [np.asarray, ad.param], ids=["numpy", "param"])
    def test_encoder_fields_bitwise_equal(self, cfg, lift, monkeypatch):
        rng = np.random.default_rng(15)
        enc, params = build_encoder(cfg)
        pts, feats = random_cloud(rng, 30, scale=2.0)
        got = enc.apply({key: lift(v) for key, v in params.items()}, feats, lift(pts)).values()
        monkeypatch.setattr(eq.ConvLayer, "apply", per_op_reference)
        ref = enc.apply({key: lift(v) for key, v in params.items()}, feats, lift(pts)).values()
        assert set(got) == set(ref)
        for l in ref:
            assert got[l].tobytes() == ref[l].tobytes(), l

    @staticmethod
    def _layer_grads(conv, layer, params, field, pts, nbr, weights):
        x = ad.param(pts)
        chans = {l: ad.param(v) for l, v in field.items()}
        ps = {key: ad.param(v) for key, v in params.items()}
        geom = eq.conv_geometry(x, nbr, layer.basis, 2)
        out = conv(layer, ps, eq.IrrepsField(chans), geom)
        loss = ad.reduce_sum(ad.concat([ad.reshape(ad.mul(out.channels[l], weights[l]), (-1,))
                                        for l in sorted(weights)]))
        ad.backward(loss)
        return {"x": x.grad, **{f"ch{l}": t.grad for l, t in chans.items()},
                **{key: t.grad for key, t in ps.items()}}

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["toy", "default"])
    def test_gradients_match_per_op_reference(self, cfg):
        rng = np.random.default_rng(16)
        enc, params = build_encoder(cfg)
        pts, _ = random_cloud(rng, 30, scale=2.0)
        nbr = eq.knn_indices(pts, enc.conv_k)
        for layer in enc.layers:
            scoped = {key: v for key, v in params.items() if key.startswith(layer.name + ".")}
            scoped = {key: v + 0.1 * rng.standard_normal(v.shape) for key, v in scoped.items()}
            field = {l: rng.standard_normal((30, c, 2 * l + 1)) for l, c in layer.layout_in.items()}
            weights = {l: rng.standard_normal((30, c, 2 * l + 1))
                       for l, c in layer.layout_out.items()}
            got = self._layer_grads(eq.ConvLayer.apply, layer, scoped, field, pts, nbr, weights)
            ref = self._layer_grads(per_op_reference, layer, scoped, field, pts, nbr, weights)
            assert set(got) == set(ref) == {"x", *(f"ch{l}" for l in field), *scoped}
            for name in ref:
                scale = np.abs(ref[name]).max()
                assert scale > 0, name
                assert np.abs(got[name] - ref[name]).max() <= 1e-12 * scale, (layer.name, name)

    def test_coordinate_grad_check_on_twelve_points(self):
        cfg = toy_config()
        rng = np.random.default_rng(17)
        enc, params = build_encoder(cfg)
        pts, feats = random_cloud(rng, 12, scale=1.5)
        nbr = eq.knn_indices(pts, enc.conv_k)
        weights = {l: rng.standard_normal((12, c, 2 * l + 1)) for l, c in enc.out_layout.items()}

        def fn(x):
            geom = eq.conv_geometry(x, nbr, enc.basis, enc.max_order)
            out = enc.apply(params, feats, x, geom=geom).channels
            return ad.reduce_sum(ad.concat([ad.reshape(ad.mul(out[l], weights[l]), (-1,))
                                            for l in sorted(weights)]))

        report = ad.grad_check(fn, pts, step=1e-6, tolerance=1e-6)
        assert report.passed, report
        assert np.abs(report.analytic).max() > 1e-4   # not a vacuous match

    def test_no_grad_conv_saves_nothing(self, small_cfg):
        rng = np.random.default_rng(18)
        enc, params = build_encoder(small_cfg)
        pts, feats = random_cloud(rng, 16)
        field = enc.apply(params, feats, pts)
        for ch in field.channels.values():
            assert ch.op == "conv" and ch._node is None and not ch.requires_grad

    def test_parameter_grad_encode_of_300_points_stays_under_45_mb(self):
        # the conv's vjp keeps a path's rows only for its weight; keeping every
        # path's forward arrays (gathered inputs, per-edge products, pooled
        # sums) peaked at 80.7 MB here
        rng = np.random.default_rng(19)
        enc, params = build_encoder(RunConfig().validate())
        pts, feats = random_cloud(rng, 300, scale=4.0)
        ps = {key: ad.param(v) for key, v in params.items()}
        tracemalloc.start()
        try:
            field = enc.apply(ps, feats, pts)
            loss = ad.reduce_sum(ad.concat([ad.reshape(ch, (-1,)) for ch in field.channels.values()]))
            del field
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.isfinite(t.grad).all() for t in ps.values())
        assert peak < 45e6, f"traced peak {peak / 1e6:.1f} MB"


def _edge_cloud(cfg, n, seed):
    """A cloud whose neighbour tables hold self-edges and edges beyond the cutoff."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 3)) * 3.0
    nbr = eq.knn_indices(pts, cfg.conv_k)
    r = np.linalg.norm(pts[nbr] - pts[:, None, :], axis=2)
    assert (r == 0.0).any() and (r > cfg.conv_cutoff).any() and (r < cfg.conv_cutoff).any()
    return pts, nbr, rng


def _geometry_weights(rng, cfg, nbr):
    """Loss weights on pool and harmonics; a self-edge's harmonics get none,
    as in the conv, since the direction of a zero edge has no derivative."""
    n, k = nbr.shape
    neighbour = (nbr.reshape(-1) != np.repeat(np.arange(n), k))[:, None]
    return {0: rng.standard_normal((n, cfg.n_radial_basis, k)),
            1: rng.standard_normal((n * k, 3)) * neighbour,
            2: rng.standard_normal((n * k, 5)) * neighbour}


def _geometry_loss(geom, weights):
    terms = [ad.reduce_sum(ad.mul(geom["pool"], weights[0]))]
    terms += [ad.reduce_sum(ad.mul(sph, weights[l_f])) for l_f, sph in sorted(geom["sph"].items())]
    return ad.add(ad.add(terms[0], terms[1]), terms[2])


class TestGeometryAgainstPerOpReference:
    """``conv_geometry``'s pool and harmonics nodes against the op chain they replace."""

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["toy", "default"])
    @pytest.mark.parametrize("lift", [np.asarray, ad.constant, ad.param],
                             ids=["numpy", "constant", "param"])
    def test_pool_and_harmonics_bitwise_equal(self, cfg, lift):
        pts, nbr, _ = _edge_cloud(cfg, 40, 30)
        basis = eq.RadialBasis(cfg.conv_cutoff, cfg.n_radial_basis)
        got = eq.conv_geometry(lift(pts), nbr, basis, cfg.max_order)
        ref = per_op.conv_geometry(lift(pts), nbr, basis, cfg.max_order)
        assert got["pool"].values.tobytes() == ref["pool"].values.tobytes()
        assert got["pool"].shape == (40, cfg.n_radial_basis, cfg.conv_k)
        assert sorted(got["sph"]) == sorted(ref["sph"]) == [1, 2]
        for l_f, sph in ref["sph"].items():
            assert got["sph"][l_f].values.tobytes() == sph.values.tobytes(), l_f
        assert got["edge_scale"].tobytes() == ref["edge_scale"].tobytes()

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["toy", "default"])
    def test_coordinate_gradients_match(self, cfg):
        pts, nbr, rng = _edge_cloud(cfg, 40, 31)
        basis = eq.RadialBasis(cfg.conv_cutoff, cfg.n_radial_basis)
        weights = _geometry_weights(rng, cfg, nbr)
        grads = []
        for build in (eq.conv_geometry, per_op.conv_geometry):
            x = ad.param(pts)
            ad.backward(_geometry_loss(build(x, nbr, basis, cfg.max_order), weights))
            grads.append(x.grad)
        got, ref = grads
        scale = np.abs(ref).max()
        assert scale > 0
        assert np.abs(got - ref).max() <= 1e-12 * scale

    def test_grad_check_on_twelve_points(self):
        cfg = toy_config()
        rng = np.random.default_rng(32)
        pts = rng.standard_normal((12, 3)) * 2.0
        nbr = eq.knn_indices(pts, cfg.conv_k)
        basis = eq.RadialBasis(cfg.conv_cutoff, cfg.n_radial_basis)
        weights = _geometry_weights(rng, cfg, nbr)
        report = ad.grad_check(
            lambda x: _geometry_loss(eq.conv_geometry(x, nbr, basis, cfg.max_order), weights),
            pts, step=1e-6, tolerance=1e-6)
        assert report.passed, report
        assert np.abs(report.analytic).max() > 1e-3   # not a vacuous match

    @pytest.mark.parametrize("lift", [np.asarray, ad.constant], ids=["numpy", "constant"])
    def test_no_grad_geometry_keeps_no_vjp(self, small_cfg, lift):
        pts, nbr, _ = _edge_cloud(small_cfg, 16, 33)
        basis = eq.RadialBasis(small_cfg.conv_cutoff, small_cfg.n_radial_basis)
        geom = eq.conv_geometry(lift(pts), nbr, basis, small_cfg.max_order)
        nodes = [geom["pool"], *geom["sph"].values()]
        assert [t.op for t in nodes] == ["radial-pool", "edge-harmonics", "edge-harmonics"]
        assert all(t._node is None and not t.requires_grad for t in nodes)
        x = ad.param(pts)
        geom = eq.conv_geometry(x, nbr, basis, small_cfg.max_order)
        nodes = [geom["pool"], *geom["sph"].values()]
        assert all(t._node.parents == (x,) for t in nodes)


def _order_loss(field, weights):
    return ad.reduce_sum(ad.concat([ad.reshape(ad.mul(field.channels[l], weights[l]), (-1,))
                                    for l in sorted(weights)]))


class TestOutputOrders:
    """An encode over fewer orders returns those orders bitwise as a full
    encode does, and their gradients too, and skips the rest."""

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["toy", "default"])
    @pytest.mark.parametrize("inputs", ["numpy", "param-grad", "coord-grad"])
    @pytest.mark.parametrize("orders", [(0,), (0, 1)], ids=["0", "01"])
    def test_restricted_encode_matches_full(self, cfg, inputs, orders):
        rng = np.random.default_rng(20)
        enc, params = build_encoder(cfg)
        pts, feats = random_cloud(rng, 30, scale=2.0)
        weights = {l: rng.standard_normal((30, enc.out_layout[l], 2 * l + 1)) for l in orders}
        nbr = eq.knn_indices(pts, enc.conv_k)

        def encode(restrict):
            ps = {key: ad.param(v) if inputs == "param-grad" else v for key, v in params.items()}
            x = ad.param(pts) if inputs == "coord-grad" else pts
            geom = eq.conv_geometry(x, nbr, enc.basis, enc.max_order)
            field = enc.apply(ps, feats, x, geom=geom, orders=orders if restrict else None)
            if inputs != "numpy":
                ad.backward(_order_loss(field, weights))
            leaves = ps if inputs == "param-grad" else {"x": x}
            grads = {key: t.grad for key, t in leaves.items() if isinstance(t, ad.Tensor)}
            return field.values(), grads, set(geom["kc"])

        got, got_grads, got_kc = encode(True)
        ref, ref_grads, ref_kc = encode(False)
        assert sorted(got) == list(orders) and sorted(ref) == [0, 1, 2]
        for l in orders:
            assert got[l].tobytes() == ref[l].tobytes(), l
        assert got_grads.keys() == ref_grads.keys()
        for key, g in ref_grads.items():
            if g is None:
                assert got_grads[key] is None, key
            else:
                assert got_grads[key].tobytes() == g.tobytes(), key
        # the skipped paths of the last layer fill no coupled-harmonics entry
        *hidden, last = enc.layers
        run = [path for layer in hidden for path in layer.paths]
        run += [path for path in last.paths if path[2] in orders]
        assert got_kc == {(l_out, l_f, l_in) for (l_in, l_f, l_out) in run if l_f > 0}
        assert got_kc < ref_kc

    def test_unknown_order_rejected(self, small_cfg):
        enc, params = build_encoder(small_cfg)
        pts, feats = random_cloud(np.random.default_rng(21), 8)
        with pytest.raises(eq.EquivariantError):
            enc.apply(params, feats, pts, orders=(0, 3))


class TestConvAgainstPerEdgeReference:
    @pytest.mark.parametrize("cfg", [toy_config(), RunConfig().validate()], ids=["toy", "default"])
    def test_every_path_of_both_layers(self, cfg):
        # pooling over neighbours before the radial weights only reorders the sums
        rng = np.random.default_rng(12)
        enc, params = build_encoder(cfg)
        pts, feats = random_cloud(rng, 40, scale=2.0)
        nbr = eq.knn_indices(pts, enc.conv_k)
        geom = eq.conv_geometry(pts, nbr, enc.basis, enc.max_order)
        for i, layer in enumerate(enc.layers):
            if i == 0:
                field = eq.encoder_input(feats, pts).values()
            else:
                field = {l: rng.standard_normal((40, c, 2 * l + 1))
                         for l, c in layer.layout_in.items()}
            scoped = {key: v for key, v in params.items() if key.startswith(layer.name + ".")}
            bias = {key: v for key, v in scoped.items() if key.endswith("bias0")}
            for (l_in, l_f, l_out) in layer.paths:
                key = f"{layer.name}.w{l_in}{l_f}{l_out}"
                one_path = {**bias, **{w: np.zeros_like(v) for w, v in scoped.items()
                                       if w not in bias}, key: scoped[key]}
                got = layer.apply(one_path, eq.IrrepsField(field), geom).values()
                ref = per_edge_reference(layer, one_path, field, pts, nbr)
                scale = max(np.abs(v).max() for v in ref.values())
                assert set(got) == set(ref)
                for l in ref:
                    assert np.abs(got[l] - ref[l]).max() <= 1e-12 * scale, (key, l)

    def test_no_grad_encode_of_a_thousand_points_stays_under_100_mb(self):
        # no (E, c_in*c_out) radial weights per path: forming them per edge,
        # as per_edge_reference does, peaked at 182 MB here
        rng = np.random.default_rng(13)
        enc, params = build_encoder(RunConfig().validate())
        pts, feats = random_cloud(rng, 1000, scale=6.0)
        tracemalloc.start()
        try:
            field = enc.apply(params, feats, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.isfinite(v).all() for v in field.values().values())
        assert peak < 100e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_pool_built_once_per_geometry(self, small_cfg):
        rng = np.random.default_rng(14)
        enc, params = build_encoder(small_cfg)
        pts, feats = random_cloud(rng, 16)
        nbr = eq.knn_indices(pts, enc.conv_k)
        geom = eq.conv_geometry(pts, nbr, enc.basis, enc.max_order)
        pool = geom["pool"]
        n, k = nbr.shape
        dvec = pts[nbr] - pts[:, None, :]
        r = np.sqrt((dvec * dvec).sum(axis=2) + 1e-24)      # self-edges as conv_geometry has them
        expected = enc.basis.evaluate(r.reshape(-1)).reshape(n, k, -1).transpose(0, 2, 1)
        np.testing.assert_allclose(pool.values, expected, rtol=1e-12, atol=1e-15)
        first = enc.apply(params, feats, pts, geom=geom)
        second = enc.apply(params, feats, pts, geom=geom)
        assert geom["pool"] is pool
        for l in first.channels:
            assert first.values()[l].tobytes() == second.values()[l].tobytes()


class TestEncoderEquivariance:
    def test_multi_seed_multi_motion(self, small_cfg):
        # broader sweep lives in the acceptance suite
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            enc, params = build_encoder(small_cfg, seed=seed)
            pts, feats = random_cloud(rng, 15)
            base = enc.apply(params, feats, pts).values()
            for _ in range(2):
                rot = eq.random_rotation(rng)
                shift = rng.standard_normal(3) * 5
                moved = pts @ rot.T + shift
                feats2 = np.concatenate([feats[:, :14], moved], axis=1)
                out = enc.apply(params, feats2, moved).values()
                scale = max(np.abs(base[0]).max(), 1e-12)
                assert np.abs(out[0] - base[0]).max() / scale < 1e-8
                for l in (1, 2):
                    expected = base[l] @ eq.rotation_operator(l, rot).T
                    scale = max(np.abs(expected).max(), 1e-12)
                    assert np.abs(out[l] - expected).max() / scale < 1e-8


class TestAttention:
    def _setup(self, small_cfg, n_r=10, n_l=6, seed=9):
        rng = np.random.default_rng(seed)
        enc_r, params_r = build_encoder(small_cfg, seed=seed)
        enc_l, params_l = build_encoder(small_cfg, seed=seed + 1, n_scalars=16)
        pts_r, feats_r = random_cloud(rng, n_r)
        pts_l, feats_l = random_cloud(rng, n_l, n_scalars=16, offset=4.0)
        zr = enc_r.apply(params_r, feats_r, pts_r)
        zl = enc_l.apply(params_l, feats_l, pts_l)
        attn = init_attention_params(small_cfg.multiplicity, enc_r.out_layout,
                                     np.random.default_rng(2))
        return zr, zl, attn, (enc_r, params_r, feats_r, pts_r), (enc_l, params_l, feats_l, pts_l), rng

    def test_rows_sum_to_one(self, small_cfg):
        zr, zl, attn, *_ = self._setup(small_cfg)
        _, _, scores = eq.equivariant_attention(zr, zl, attn)
        np.testing.assert_allclose(scores.values.sum(axis=1), 1.0, atol=1e-12)

    def test_identical_keys_uniform_rows(self, small_cfg):
        zr, zl, attn, *_ = self._setup(small_cfg)
        ch = {l: np.repeat(v[:1], 6, axis=0) for l, v in zl.values().items()}
        zl_const = eq.IrrepsField(ch)
        _, _, scores = eq.equivariant_attention(zr, zl_const, attn)
        np.testing.assert_allclose(scores.values, 1.0 / 6.0, atol=1e-12)

    def test_single_ligand_point_passthrough(self, small_cfg):
        # only order 0 is attended: no stage reads a higher attended order
        zr, zl, attn, *_ = self._setup(small_cfg, n_l=1)
        attended, _, _ = eq.equivariant_attention(zr, zl, attn)
        assert set(attended.channels) == {0}
        proj = np.einsum("ncm,cd->ndm", zl.values()[0], attn["attn.wv0"])
        expected = np.repeat(proj, attended.channels[0].shape[0], axis=0)
        np.testing.assert_allclose(attended.values()[0], expected, atol=1e-12)

    def test_empty_ligand_rejected(self, small_cfg):
        zr, zl, attn, *_ = self._setup(small_cfg)
        empty = eq.IrrepsField({l: v[:0] for l, v in zl.values().items()})
        with pytest.raises(ad.DomainError):
            eq.equivariant_attention(zr, empty, attn)

    def test_scores_invariant_under_rigid_motion(self, small_cfg):
        zr, zl, attn, rinfo, linfo, rng = self._setup(small_cfg)
        enc_r, params_r, feats_r, pts_r = rinfo
        enc_l, params_l, feats_l, pts_l = linfo
        rot = eq.random_rotation(rng)
        shift = rng.standard_normal(3) * 3
        zr2 = enc_r.apply(params_r, np.concatenate([feats_r[:, :14], pts_r @ rot.T + shift], 1),
                          pts_r @ rot.T + shift)
        zl2 = enc_l.apply(params_l, np.concatenate([feats_l[:, :16], pts_l @ rot.T + shift], 1),
                          pts_l @ rot.T + shift)
        _, fused1, s1 = eq.equivariant_attention(zr, zl, attn)
        _, fused2, s2 = eq.equivariant_attention(zr2, zl2, attn)
        np.testing.assert_allclose(s1.values, s2.values, atol=1e-9)
        np.testing.assert_allclose(fused1.values, fused2.values, atol=1e-9)

    def test_ligand_permutation(self, small_cfg):
        zr, zl, attn, *_ = self._setup(small_cfg)
        perm = np.array([3, 0, 5, 1, 4, 2])
        zl_perm = eq.IrrepsField({l: v[perm] for l, v in zl.values().items()})
        att1, fused1, s1 = eq.equivariant_attention(zr, zl, attn)
        att2, fused2, s2 = eq.equivariant_attention(zr, zl_perm, attn)
        np.testing.assert_allclose(s2.values, s1.values[:, perm], atol=1e-14)
        np.testing.assert_allclose(fused2.values, fused1.values, atol=1e-13)
        for l in att1.channels:
            np.testing.assert_allclose(att2.values()[l], att1.values()[l], atol=1e-13)
