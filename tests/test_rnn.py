"""Time-varying bidirectional recurrent detector: input assembly, forward
pass against a scalar reference, structural invariants, counting, and the
checkpoint format."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from nlsic import channel as ch
from nlsic import rnn, sic
from nlsic.apps import MultCounter

DATA = Path(__file__).with_name("data")


def make_shape(dims, l_y, l_ic, n_stages=1, s=1, m_symbols=4, n_os=2):
    return rnn.RnnShape(dims=tuple(dims), l_y=l_y, l_ic=l_ic, n_stages=n_stages,
                        s=s, m_symbols=m_symbols, n_os=n_os)


def unrolled_geometry(shape, n_per_stage):
    """The unrolled schedule, built independently of rnn.forward: the phase
    of every step and the steps that read out an APP."""
    phase_idx = np.tile(np.arange(shape.phases), n_per_stage)
    out_steps = np.flatnonzero(phase_idx == 0)
    return phase_idx, out_steps


def scalar_forward_reference(model, inputs, phase_idx, out_steps):
    """Independent scalar-by-scalar re-computation of the forward pass."""
    shape = model.shape
    p_count = shape.phases
    r = [[float(v) for v in row] for row in inputs]
    for i, (in_w, in_b, st_w, st_b) in enumerate(model.layers):
        half = shape.dims[i + 1] // 2
        t_steps = len(r)
        h_fw, prev = [], [0.0] * half
        for t in range(t_steps):
            p, q = phase_idx[t], (phase_idx[t] - 1) % p_count
            cur = []
            for u in range(half):
                acc = in_b[p, 0, u] + st_b[q, 0, u]
                for v in range(shape.dims[i]):
                    acc += in_w[p, 0, u, v] * r[t][v]
                for v in range(half):
                    acc += st_w[q, 0, u, v] * prev[v]
                cur.append(max(acc, 0.0))
            h_fw.append(cur)
            prev = cur
        h_bw, nxt = [None] * t_steps, [0.0] * half
        for t in range(t_steps - 1, -1, -1):
            p, q = phase_idx[t], (phase_idx[t] + 1) % p_count
            cur = []
            for u in range(half):
                acc = in_b[p, 1, u] + st_b[q, 1, u]
                for v in range(shape.dims[i]):
                    acc += in_w[p, 1, u, v] * r[t][v]
                for v in range(half):
                    acc += st_w[q, 1, u, v] * nxt[v]
                cur.append(max(acc, 0.0))
            h_bw[t] = cur
            nxt = cur
        r = [h_fw[t] + h_bw[t] for t in range(t_steps)]
    rows = []
    for t in out_steps:
        logits = [model.out_b[a] + sum(model.out_w[a, v] * r[t][v]
                                       for v in range(shape.dims[-1]))
                  for a in range(shape.m_symbols)]
        mx = max(logits)
        e = [math.exp(v - mx) for v in logits]
        tot = sum(e)
        rows.append([v / tot for v in e])
    return np.array(rows)


class TestShape:
    def test_input_width_consistency(self):
        with pytest.raises(ValueError):
            make_shape((10, 8), l_y=4, l_ic=2)

    def test_even_widths(self):
        with pytest.raises(ValueError):
            make_shape((6, 7), l_y=4, l_ic=2)

    def test_stage_range(self):
        with pytest.raises(ValueError):
            make_shape((6, 8), 4, 2, n_stages=2, s=3)


class TestAssembleInputs:
    def test_window_offsets(self):
        # l_y = 64: 31 samples before and 32 after the center sample
        plan = sic.SicPlan(1, 200)
        shape = make_shape((64, 8), l_y=64, l_ic=0, m_symbols=4)
        idx = rnn.build_indexer(plan, 1, shape)
        kappa = 50
        row = idx.y_idx[kappa - 1]
        center = 2 * kappa - 1  # 0-based position of the center sample
        assert row[0] == center - 31
        assert row[-1] == center + 32

    def test_last_stage_single_phase(self):
        plan = sic.SicPlan(3, 12)
        shape = make_shape((4, 8), l_y=2, l_ic=2, n_stages=3, s=3)
        idx = rnn.build_indexer(plan, 3, shape)
        assert shape.phases == 1
        assert len(idx.y_idx) == len(idx.v_idx) == plan.per_stage

    def test_unrolled_order_and_count(self):
        # S=2, s=1, N=3: (1,1) (2,1) (1,2) (2,2) (1,3) (2,3)
        plan = sic.SicPlan(2, 6)
        shape = make_shape((2, 8), l_y=2, l_ic=0, n_stages=2, s=1, n_os=1)
        idx = rnn.build_indexer(plan, 1, shape)
        assert len(idx.y_idx) == 6
        # the center sample sits at window offset floor((l_y-1)/2) = 0 here
        centers = idx.y_idx[:, 0]
        assert np.array_equal(centers, [0, 1, 2, 3, 4, 5])
        # the readout steps 0, P, 2P center on the stage's own symbols
        assert np.array_equal(centers[::shape.phases], plan.stage_positions(1))
        assert np.array_equal(plan.stage_positions(1), [0, 2, 4])

    def test_zero_padding_and_normalization(self):
        plan = sic.SicPlan(1, 4)
        shape = make_shape((6, 8), l_y=6, l_ic=0, m_symbols=2, n_os=1)
        y = np.array([[1.0, 2.0, 3.0, 4.0]])
        norm = rnn.Normalization(y_mean=1.0, y_std=2.0)
        data = rnn.gather_inputs(rnn.build_indexer(plan, 1, shape), y,
                                 np.zeros((1, 0)), norm)
        # first window reaches 2 samples left of the block: zero padded,
        # then (y - 1)/2 for y = 1, 2, 3, 4
        assert np.allclose(data[0, 0], [0.0, 0.0, 0.0, 0.5, 1.0, 1.5])

    def test_known_symbol_slots(self):
        plan = sic.SicPlan(2, 8)
        shape = make_shape((4, 8), l_y=2, l_ic=2, n_stages=2, s=2, n_os=1)
        x = np.arange(1.0, 9.0)[None]
        view = sic.stage_view(plan, 2, x)
        norm = rnn.Normalization(sym_scale=0.5)
        data = rnn.gather_inputs(rnn.build_indexer(plan, 2, shape),
                                 np.ones((1, 8)), view.known_val, norm)
        # target kappa(2,1)=2: closest knowns at serial 1,3 -> values 1,3
        assert np.allclose(data[0, 0, 2:], [0.5, 1.5])

    def test_first_stage_decided_slots_are_zero(self):
        # stage 1 has no decided symbols: every l_ic slot is zero filled
        plan = sic.SicPlan(2, 8)
        shape = make_shape((4, 8), l_y=2, l_ic=2, n_stages=2, s=1, n_os=1)
        data = rnn.gather_inputs(rnn.build_indexer(plan, 1, shape),
                                 np.ones((3, 8)), np.zeros((3, 0)),
                                 rnn.Normalization())
        assert data.shape == (3, 8, 4)
        assert np.all(data[:, :, 2:] == 0.0)


class TestForward:
    def test_zero_model_uniform(self):
        shape = make_shape((6, 8), 4, 2, m_symbols=4)
        model = rnn.RnnModel(shape)
        logp, _ = rnn.forward(model, np.random.default_rng(0).normal(size=(5, 6)))
        assert np.allclose(np.exp(logp), 0.25, atol=1e-15)

    @pytest.mark.parametrize("dims,l_y,l_ic,n_stages,s,n_per", [
        ((4, 8), 2, 2, 1, 1, 2),          # single phase two-step toy
        ((6, 8, 4), 4, 2, 2, 1, 3),       # two phases, two recurrent layers
        ((5, 6), 3, 2, 3, 2, 4),          # mid-stage entry
    ])
    def test_matches_scalar_reference(self, dims, l_y, l_ic, n_stages, s, n_per):
        shape = make_shape(dims, l_y, l_ic, n_stages=n_stages, s=s, m_symbols=4)
        rng = np.random.default_rng(42)
        model = rnn.init_model(shape, rng)
        phase_idx, out_steps = unrolled_geometry(shape, n_per)
        inputs = rng.normal(size=(len(phase_idx), dims[0]))
        logp, _ = rnn.forward(model, inputs)
        ref = scalar_forward_reference(model, inputs, phase_idx, out_steps)
        assert np.abs(np.exp(logp[0]) - ref).max() < 1e-12

    def test_rows_sum_to_one(self):
        shape = make_shape((6, 8), 4, 2)
        rng = np.random.default_rng(1)
        model = rnn.init_model(shape, rng)
        logp, _ = rnn.forward(model, rng.normal(size=(20, 6)))
        assert np.abs(np.exp(logp).sum(axis=2) - 1.0).max() < 1e-12

    def test_no_recurrence_no_coupling(self):
        """With zeroed state maps, permuting two inputs only swaps their rows."""
        shape = make_shape((6, 8), 4, 2, m_symbols=4)
        rng = np.random.default_rng(2)
        model = rnn.init_model(shape, rng)
        for layer in model.layers:
            layer.st_w[...] = 0.0
        inputs = rng.normal(size=(6, 6))
        base = np.exp(rnn.forward(model, inputs)[0][0])
        swapped = inputs.copy()
        swapped[[1, 4]] = swapped[[4, 1]]
        perm = np.exp(rnn.forward(model, swapped)[0][0])
        assert np.allclose(perm[[1, 4]], base[[4, 1]], atol=1e-12)
        assert np.allclose(perm[[0, 2, 3, 5]], base[[0, 2, 3, 5]], atol=1e-12)

    def test_phase_parameter_sharing(self):
        """Steps one period apart see identical parameter tensors."""
        shape = make_shape((6, 8), 4, 2, n_stages=2, s=1, m_symbols=4)
        rng = np.random.default_rng(3)
        model = rnn.init_model(shape, rng)
        for layer in model.layers:
            layer.st_w[...] = 0.0
        one_period = rng.normal(size=(2, 6))
        inputs = np.tile(one_period, (3, 1))
        probs = np.exp(rnn.forward(model, inputs)[0][0])
        assert np.allclose(probs[0], probs[1], atol=1e-14)
        assert np.allclose(probs[1], probs[2], atol=1e-14)

    @pytest.mark.parametrize("n_stages", [1, 2])
    def test_zero_state_washout(self, n_stages):
        """Prepending one period of zero inputs shifts outputs by one row
        once the contraction has washed the boundary out."""
        shape = make_shape((6, 8), 4, 2, n_stages=n_stages, s=1, m_symbols=4)
        rng = np.random.default_rng(4)
        model = rnn.init_model(shape, rng)
        for layer in model.layers:
            for p in range(shape.phases):
                for w in (layer.st_w[p, 0], layer.st_w[p, 1]):
                    sigma = np.linalg.svd(w, compute_uv=False)[0]
                    w *= 0.35 / sigma
        n_per = 80
        inputs = rng.normal(size=(n_per * shape.phases, 6))
        base = np.exp(rnn.forward(model, inputs)[0][0])

        padded = np.concatenate([np.zeros((shape.phases, 6)), inputs])
        shifted = np.exp(rnn.forward(model, padded)[0][0])
        inner = np.arange(30, n_per - 30)
        assert np.abs(shifted[inner + 1] - base[inner]).max() < 1e-9

    def test_nan_raises_with_step(self):
        """The error names the step that failed first in its direction's
        processing order: step 0 going forward, step T-1 going backward."""
        shape = make_shape((6, 8), 4, 2)
        for direction, what, step in [(0, "forward", 0), (1, "backward", 2)]:
            model = rnn.init_model(shape, np.random.default_rng(5))
            model.layers[0].in_w[0, direction, 0, 0] = np.inf
            with np.errstate(invalid="ignore"):
                with pytest.raises(FloatingPointError) as err:
                    rnn.forward(model, np.ones((3, 6)))
            assert str(err.value) == \
                f"non-finite {what} activation in layer 0 at step {step}"


class TestCounting:
    def test_hand_count_small_shape(self):
        # 4*8 (input maps, both dirs) + 8^2/2 (state maps) + 8*2 (readout) = 80
        shape = make_shape((4, 8), 2, 2, m_symbols=2)
        assert rnn.count_rnn_multiplications(shape) == 80

    def test_width_scaling(self):
        base = make_shape((4, 8), 2, 2, m_symbols=2)
        wide = make_shape((4, 16), 2, 2, m_symbols=2)
        delta = (rnn.count_rnn_multiplications(wide)
                 - rnn.count_rnn_multiplications(base))
        assert delta == (4 * 8 + (256 - 64) // 2 + 8 * 2)

    def test_instrumented_matches_formula_random_shapes(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            depth = int(rng.integers(1, 4))
            dims = [int(rng.integers(2, 12))]
            dims += [2 * int(rng.integers(2, 10)) for _ in range(depth)]
            m_sym = int(2 ** rng.integers(1, 4))
            l_y = dims[0] - 1
            shape = make_shape(tuple(dims), l_y, dims[0] - l_y, m_symbols=m_sym)
            model = rnn.init_model(shape, rng)
            t_steps = int(rng.integers(2, 7))
            counter = MultCounter()
            rnn.forward(model, rng.normal(size=(t_steps, dims[0])),
                        counter=counter)
            assert counter.total == t_steps * rnn.count_rnn_multiplications(shape)

    def test_instrumented_multi_phase(self):
        shape = make_shape((6, 8), 4, 2, n_stages=3, s=1, m_symbols=4)
        model = rnn.init_model(shape, np.random.default_rng(7))
        n_per = 4
        t_steps = n_per * shape.phases
        counter = MultCounter()
        rnn.forward(model, np.zeros((t_steps, 6)), counter=counter)
        rec = 6 * 8 + 64 // 2
        out = 8 * 4
        assert counter.total == t_steps * rec + n_per * out

    def test_published_profile_counts(self):
        configs = [((96, 128, 64), 4, 30976),
                   ((96, 128, 128), 8, 46080),
                   ((148, 200, 128, 128), 16, 110016),
                   ((164, 200, 200, 200, 168), 32, 225888),
                   ((200, 300, 300, 300, 240), 64, 491160)]
        for dims, m_sym, expect in configs:
            shape = make_shape(dims, dims[0] - 32, 32, m_symbols=m_sym)
            assert rnn.count_rnn_multiplications(shape) == expect
        # the 4-ary config rounds to 3.1e4
        shape = make_shape((96, 128, 64), 64, 32, m_symbols=4)
        assert f"{rnn.count_rnn_multiplications(shape):.1e}" == "3.1e+04"


def damage_checkpoint(stem, how):
    """Corrupt the checkpoint saved at stem in the way `how` names."""
    bin_path, json_path = stem.with_suffix(".bin"), stem.with_suffix(".json")
    if how == "truncated":
        bin_path.write_bytes(bin_path.read_bytes()[:-16])
    elif how == "appended":
        bin_path.write_bytes(bin_path.read_bytes() + bytes(8))
    elif how == "malformed-sidecar":
        json_path.write_text("{")
    else:
        meta = json.loads(json_path.read_text())
        meta["format_version"] = 2
        json_path.write_text(json.dumps(meta))


class TestModelIO:
    def test_roundtrip(self, tmp_path):
        shape = make_shape((6, 8, 4), 4, 2, n_stages=2, s=1, m_symbols=4)
        rng = np.random.default_rng(8)
        model = rnn.init_model(shape, rng,
                               norm=rnn.Normalization(0.5, 2.0, 0.25))
        model.provenance = {"stage": 1, "note": "test"}
        rnn.save_model(model, tmp_path / "ckpt")
        loaded = rnn.load_model(tmp_path / "ckpt")
        assert loaded.shape == shape
        assert vars(loaded.norm) == vars(model.norm)
        assert loaded.provenance == model.provenance
        for (na, a), (nb, b) in zip(model.parameters(), loaded.parameters()):
            assert na == nb
            assert np.array_equal(a, b)

    def test_parameter_count_scales_with_phases(self):
        base = make_shape((6, 8), 4, 2, n_stages=1, s=1)
        tri = make_shape((6, 8), 4, 2, n_stages=3, s=1)
        n_out = 4 * 8 + 4
        assert (rnn.RnnModel(tri).flat.size - n_out) == \
            3 * (rnn.RnnModel(base).flat.size - n_out)

    def test_format_v1_fixture(self, tmp_path):
        """A format-1 checkpoint (dims (6, 8, 4), two stages, s=1) written by
        the per-tensor layout that preceded the flat buffer loads, gives that
        code's logp bit for bit, and saves back to the same bytes.  The
        schedule stored with that logp is the one forward derives."""
        model = rnn.load_model(DATA / "rnn_v1")
        ref = np.load(DATA / "rnn_v1_forward.npz")
        t_steps = ref["inputs"].shape[-2]
        phase_idx, out_steps = unrolled_geometry(model.shape,
                                                 t_steps // model.shape.phases)
        assert np.array_equal(ref["phase_idx"], phase_idx)
        assert np.array_equal(ref["out_steps"], out_steps)
        logp, _ = rnn.forward(model, ref["inputs"])
        assert logp.tobytes() == ref["logp"].tobytes()
        rnn.save_model(model, tmp_path / "again")
        for suffix in (".bin", ".json"):
            assert (tmp_path / "again").with_suffix(suffix).read_bytes() == \
                (DATA / "rnn_v1").with_suffix(suffix).read_bytes()

    def test_views_tile_the_flat_buffer(self):
        shape = make_shape((6, 8, 4), 4, 2, n_stages=2, s=1, m_symbols=4)
        model = rnn.init_model(shape, np.random.default_rng(14))
        base = model.flat.__array_interface__["data"][0]
        offset = 0
        for name, arr in model.parameters():
            assert np.shares_memory(arr, model.flat), name
            assert arr.flags.c_contiguous, name
            assert arr.__array_interface__["data"][0] == base + 8 * offset, name
            offset += arr.size
        assert offset == model.flat.size

        other = model.copy()
        assert np.array_equal(other.flat, model.flat)
        assert not np.shares_memory(other.flat, model.flat)
        before = model.flat.copy()
        other.layers[1].st_w[1, 1] += 1.0
        other.out_b[...] = 0.0
        assert np.array_equal(model.flat, before)

    @pytest.mark.parametrize("how,match", [
        ("truncated", "bytes, expected"), ("appended", "bytes, expected"),
        ("malformed-sidecar", "Expecting"), ("version-2", "format 2")])
    def test_damaged_checkpoint_rejected(self, tmp_path, how, match):
        model = rnn.init_model(make_shape((6, 8), 4, 2), np.random.default_rng(15))
        rnn.save_model(model, tmp_path / "ckpt")
        damage_checkpoint(tmp_path / "ckpt", how)
        with pytest.raises(ValueError, match=match):
            rnn.load_model(tmp_path / "ckpt")

    def test_bad_magic_rejected(self, tmp_path):
        shape = make_shape((6, 8), 4, 2)
        model = rnn.RnnModel(shape)
        rnn.save_model(model, tmp_path / "ckpt")
        raw = (tmp_path / "ckpt.bin").read_bytes()
        (tmp_path / "ckpt.bin").write_bytes(b"XXXXXXXX" + raw[8:])
        with pytest.raises(ValueError):
            rnn.load_model(tmp_path / "ckpt")


class TestDetectorApi:
    def test_rnn_apps_positions_and_rows(self):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2, n_sim=2,
                               nonlinearity=ch.SquareLaw(), noise_variance=1.0)
        chan = ch.make_channel(cfg, k_g=7).with_transmit_power_db(3.0)
        plan = sic.SicPlan(2, 12)
        shape = make_shape((8 + 4, 16), l_y=8, l_ic=4, n_stages=2, s=2,
                           m_symbols=4, n_os=2)
        model = rnn.init_model(shape, np.random.default_rng(9))
        blk = ch.random_block(chan, 12, np.random.default_rng(10))
        view = sic.stage_view(plan, 2, blk.x[None])
        app = rnn.rnn_apps(model, blk.y[None], view)
        assert np.array_equal(app.positions, view.targets)
        assert app.probs.shape == (1, 6, 4)
        assert np.abs(app.probs.sum(axis=2) - 1.0).max() < 1e-12
