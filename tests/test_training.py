import weakref

import numpy as np
import pytest

from dpawno import autodiff as ad
from dpawno import config as cf
from dpawno import datagen as dg
from dpawno import physics as ph
from dpawno import reliability as rel
from dpawno import training as tr
from dpawno import wno
from dpawno.errors import NonFiniteLoss, ScheduleExhausted, ShapeMismatch


def burgers_setup(nx=32, n=6, nt=20, seed=42):
    full = ph.PdeSpec("burgers1d", {"nu": 0.3 / np.pi},
                      ("advection", "diffusion"), "dirichlet",
                      (-1.0, 1.0), nx=nx, dt=3e-4, advection="upwind")
    fams = [dg.IcFamily("sine", n, amplitudes=tuple(range(1, n + 1)),
                        frequencies=(2,))]
    ds = dg.generate(full, fams, nt, seed=seed)
    return full, full.with_terms(("advection",)), ds


def tiny_model(levels=2, nx=32, seed=0):
    cfg = wno.WnoConfig(width=6, layers=2,
                        levels=levels,
                        fc1_dim=12, in_channels=2, out_channels=1,
                        spatial_dims=1)
    return wno.WnoModel.initialize(cfg, seed)


class TestSchedule:
    def test_default_shape(self):
        sched = tr.default_schedule(10, 100, 50, 400)
        assert sched[0] == (0, 10)
        assert tr.schedule_lookup(sched, 0) == 10
        assert tr.schedule_lookup(sched, 99) == 10
        assert tr.schedule_lookup(sched, 400) == 50
        assert tr.schedule_lookup(sched, 10_000) == 50
        ts = [tr.schedule_lookup(sched, e) for e in range(500)]
        assert all(b >= a for a, b in zip(ts, ts[1:]))

    def test_lookup_before_first_threshold(self):
        with pytest.raises(ScheduleExhausted):
            tr.schedule_lookup(((5, 10),), 2)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(epochs=60, unroll_schedule=((0, 10), (50, 5)),
                           learning_rate=0.01, seed=0)

    def test_schedule_beyond_dataset_raises(self):
        full, partial, ds = burgers_setup(nt=5)
        cfg = tr.TrainConfig(epochs=1, unroll_schedule=((0, 10),),
                             learning_rate=0.01, seed=0)
        with pytest.raises(ScheduleExhausted):
            tr.train(tiny_model(), ds, partial, cfg)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        opt = tr.Adam(params, learning_rate=0.1)
        opt.step({"w": np.zeros(3)})
        assert np.array_equal(params["w"], [1.0, -2.0, 3.0])

    def test_first_step_magnitude_is_learning_rate(self):
        params = {"w": np.zeros(3)}
        opt = tr.Adam(params, learning_rate=0.05)
        opt.step({"w": np.array([1.0, -2.0, 0.5])})
        # bias-corrected Adam moves by ~lr per coordinate on the first step
        assert np.allclose(np.abs(params["w"]), 0.05, rtol=1e-6)

    def test_clip_gradients(self):
        grads = {"a": np.array([3.0, 4.0])}  # norm 5
        clipped, norm = tr.clip_gradients(grads, 1.0)
        assert np.allclose(np.linalg.norm(clipped["a"]), 1.0)
        assert norm == 5.0
        untouched, norm = tr.clip_gradients(grads, 10.0)
        assert np.array_equal(untouched["a"], grads["a"])
        assert norm == 5.0


class TestRollout:
    def test_zero_init_model_equals_partial_physics(self):
        full, partial, ds = burgers_setup()
        model = tiny_model()
        with_model = tr.rollout(tr.AugmentedSurrogate(partial, model).step,
                                ds.ics, 10)
        physics_only = tr.rollout(tr.PhysicsSurrogate(partial).step, ds.ics, 10)
        for a, b in zip(with_model, physics_only):
            assert np.array_equal(ad.value_of(a), ad.value_of(b))

    def test_t1_is_single_step(self):
        full, partial, ds = burgers_setup()
        states = tr.rollout(tr.PhysicsSurrogate(partial).step, ds.ics, 1)
        assert len(states) == 2
        assert np.array_equal(states[1], ph.euler_step_values(ds.ics, partial))

    def test_oracle_correction_matches_dataset(self):
        full, partial, ds = burgers_setup()
        missing = full.with_terms(t for t in full.terms if t not in partial.terms)
        states = tr.rollout(
            lambda u: ph.euler_step_values(u, partial, ph.rhs_values(u, missing)),
            ds.ics, ds.n_steps)
        for t, s in enumerate(states):
            assert np.array_equal(ad.value_of(s), ds.trajectories[:, t])

    def test_t_must_be_positive(self):
        full, partial, ds = burgers_setup()
        with pytest.raises(ValueError):
            tr.rollout(tr.PhysicsSurrogate(partial).step, ds.ics, 0)


class TestRolloutLoss:
    def test_oracle_gives_zero(self):
        # the zero-initialized model adds no correction to the full physics
        full, partial, ds = burgers_setup()
        model = tiny_model()
        loss = tr.rollout_loss(model, full, ds.ics, ds.trajectories, 5,
                               model.params)
        assert float(ad.value_of(loss)) == 0.0

    def test_constant_offset_gives_c_squared(self):
        full, partial, ds = burgers_setup()
        states = tr.rollout(tr.PhysicsSurrogate(full).step, ds.ics, 5)
        targets = np.stack([ad.value_of(s) for s in states], axis=1) + 0.7
        model = tiny_model()
        loss = tr.rollout_loss(model, full, ds.ics, targets, 5, model.params)
        assert abs(float(ad.value_of(loss)) - 0.49) < 1e-12

    def test_matches_independent_recomputation(self):
        full, partial, ds = burgers_setup()
        model = tiny_model()
        rng = np.random.default_rng(1)
        for k in model.params:
            model.params[k] = 0.1 * rng.standard_normal(model.params[k].shape)
        loss = float(ad.value_of(tr.rollout_loss(
            model, partial, ds.ics, ds.trajectories, 2, model.params)))
        # recompute by hand from stored trajectories
        coords = partial.coordinates()
        u = ds.ics
        total = 0.0
        for t in (1, 2):
            u = ph.euler_step_values(
                u, partial, wno.wno_forward(u, coords, model, model.params))
            total += np.sum((u - ds.trajectories[:, t]) ** 2)
        count = ds.n_samples * 2 * np.prod(ds.trajectories.shape[2:])
        assert abs(loss - total / count) < 1e-12

    def test_needs_enough_stored_steps(self):
        full, partial, ds = burgers_setup(nt=3)
        model = tiny_model()
        with pytest.raises(ValueError):
            tr.rollout_loss(model, full, ds.ics, ds.trajectories, 10, model.params)


class TestTrain:
    def test_partial_physics_dataset_zero_init_is_exact(self):
        # dataset generated from the partial physics itself: the zero-init
        # model is already the exact map, so epoch-0 loss is tiny
        full, partial, _ = burgers_setup()
        fams = [dg.IcFamily("sine", 4, amplitudes=(1.0, 2.0, 3.0, 4.0),
                            frequencies=(2,))]
        partial_full_terms = ph.PdeSpec(
            "burgers1d", {"nu": 0.3 / np.pi}, ("advection", "diffusion"),
            "dirichlet", (-1.0, 1.0), nx=32, dt=3e-4, advection="upwind")
        ds_partial = dg.generate(partial_full_terms, fams, 12, seed=3)
        # relabel: train against trajectories produced by the full spec while
        # the training spec has the same terms -> zero correction is exact
        cfg = tr.TrainConfig(epochs=1, unroll_schedule=((0, 5),),
                             learning_rate=0.01, seed=0)
        report = tr.train(tiny_model(), ds_partial, partial_full_terms, cfg)
        assert report.losses[0] < 1e-6

    def test_determinism_same_seed_same_history(self):
        full, partial, ds = burgers_setup()
        cfg = tr.TrainConfig(epochs=4, unroll_schedule=((0, 4),),
                             batch_size=3, learning_rate=0.01, seed=9)
        r1 = tr.train(tiny_model(seed=1), ds, partial, cfg)
        r2 = tr.train(tiny_model(seed=1), ds, partial, cfg)
        assert r1.losses == r2.losses

    def test_loss_decreases_and_gradients_flow(self):
        full, partial, ds = burgers_setup(n=6, nt=20)
        model = tiny_model(seed=2)
        cfg = tr.TrainConfig(epochs=15, unroll_schedule=((0, 8),),
                             batch_size=6, learning_rate=0.02, seed=4)
        report = tr.train(model, ds, partial, cfg)
        assert report.losses[-1] < 0.5 * report.losses[0]

    def test_gradient_nonzero_on_one_batch(self):
        full, partial, ds = burgers_setup()
        model = tiny_model(seed=3)
        tape = ad.Tape()
        staged = {k: tape.leaf(v) for k, v in model.params.items()}
        loss = tr.rollout_loss(model, partial, ds.ics, ds.trajectories, 4,
                               params=staged)
        ad.backward(tape, loss)
        norms = [float(np.max(np.abs(ad.grad_of(tape, leaf))))
                 for leaf in staged.values()]
        assert max(norms) > 0.0

    def test_mismatched_benchmark_rejected(self):
        full, partial, ds = burgers_setup()
        other = ph.PdeSpec("nagumo", {"epsilon": 0.2, "alpha": -0.5},
                           ("diffusion",), "periodic", domain=(0.0, 1.0),
                           nx=32, dt=1e-4)
        cfg = tr.TrainConfig(epochs=1, unroll_schedule=((0, 2),),
                             learning_rate=0.01, seed=0)
        with pytest.raises(ValueError):
            tr.train(tiny_model(), ds, other, cfg)

    def test_nonfinite_loss_diagnostic(self):
        full, partial, ds = burgers_setup()
        model = tiny_model(seed=4)
        for k in model.params:  # absurd initialization forces divergence
            model.params[k] = model.params[k] + 1e6
        cfg = tr.TrainConfig(epochs=1, unroll_schedule=((0, 10),),
                             learning_rate=0.01, seed=0)
        with pytest.raises(NonFiniteLoss, match="epoch 0"):
            tr.train(model, ds, partial, cfg)


class TestSurrogates:
    def test_masked_rollout_freezes_diverged_samples(self):
        full, partial, _ = burgers_setup()
        bad = np.full((1, 1, 32), 9e7)
        good = 0.5 * np.sin(2 * np.pi * np.linspace(-1, 1, 32))[None, None, :]
        ics = np.concatenate([good, bad], axis=0)
        spec = ph.PdeSpec("burgers1d", {"nu": 0.3 / np.pi},
                          ("advection", "diffusion"), "dirichlet",
                          (-1.0, 1.0), nx=32, dt=3e-4)
        stats = tr.rollout_statistics(tr.PhysicsSurrogate(spec), ics, 10,
                                      snapshots=range(1, 11))
        diverged = stats["diverged"]
        assert not diverged[0] and diverged[1]
        assert all(np.all(np.isfinite(stats["snapshots"][t][0]))
                   for t in range(1, 11))
        assert np.all(np.isfinite(stats["snapshots"][10]))  # frozen, not garbage

    def test_diverged_at_records_first_flagged_step(self):
        class BlowsUpOnSchedule:
            # sample k turns non-finite at step k; sample 0 never does
            t = 0
            block = 4  # each step sees the whole batch

            def step(self, u):
                self.t += 1
                nxt = u + 1.0
                if self.t < len(u):
                    nxt[self.t] = np.nan
                return nxt

        ics = np.zeros((4, 1, 8))
        ics[3] = np.inf  # non-finite from the start
        stats = tr.rollout_statistics(BlowsUpOnSchedule(), ics, 5)
        assert stats["diverged_at"].tolist() == [-1, 1, 2, 0]
        assert stats["diverged"].tolist() == [False, True, True, True]

    def test_augmented_surrogate_matches_rollout(self):
        # the step evaluation rolls untaped is the step training tapes
        full, partial, ds = burgers_setup()
        model = tiny_model(seed=5)
        rng = np.random.default_rng(6)
        for k in model.params:
            model.params[k] = 0.05 * rng.standard_normal(model.params[k].shape)
        sur = tr.AugmentedSurrogate(partial, model)
        stats = tr.rollout_statistics(sur, ds.ics, 6, snapshots=range(1, 7))
        tape = ad.Tape()
        staged = {k: tape.leaf(v) for k, v in model.params.items()}
        states = tr.rollout(tr.AugmentedSurrogate(partial, model, staged).step,
                            ds.ics, 6)
        for t, s in enumerate(states[1:], start=1):
            assert np.array_equal(stats["snapshots"][t], ad.value_of(s))
        assert not stats["diverged"].any()

    @pytest.mark.parametrize("fields,found", [
        (dict(in_channels=4, out_channels=2, spatial_dims=2),
         "spatial_dims=2, in_channels=4, out_channels=2"),
        (dict(in_channels=3, out_channels=2, spatial_dims=1),
         "spatial_dims=1, in_channels=3, out_channels=2"),
    ], ids=["2d-model", "two-channel-model"])
    def test_model_for_another_state_shape_rejected(self, fields, found):
        full, partial, ds = burgers_setup()
        cfg = wno.WnoConfig(width=6, layers=2, fc1_dim=12,
                            levels=2, **fields)
        with pytest.raises(ShapeMismatch) as err:
            tr.AugmentedSurrogate(partial, wno.WnoModel.initialize(cfg, 0))
        assert found in str(err.value)
        assert "shape (1, 32) need spatial_dims=1, in_channels=2, " \
            "out_channels=1" in str(err.value)


class TestBlockedRollout:
    """rollout_statistics steps blocks of surrogate.block samples; every
    field must equal a whole-batch rollout bit for bit, and datagen.generate
    must write the same bytes under any block."""

    STEPS = 10

    @staticmethod
    def case(preset, overrides, n, blowup):
        cfg = cf.load_config(preset=preset, overrides=overrides)
        u = rel.grf_initial_conditions(cfg.grf_spec(), cfg.full_spec(), n, 3)
        u[blowup] *= 100.0  # diverges mid-rollout
        return cfg, u

    def check(self, sur, u, probe_index):
        n = len(u)
        assert sur.block < n and n % sur.block != 0
        truth = np.random.default_rng(5).standard_normal(
            (n, self.STEPS + 1) + u.shape[1:])

        def stats(block):
            sur.block = block
            return tr.rollout_statistics(
                sur, u, self.STEPS, probe_index=probe_index,
                snapshots=(1, 4, self.STEPS), truth=truth,
                mse_steps=self.STEPS - 2)

        blocked, whole = stats(sur.block), stats(n)
        at = blocked["diverged_at"]
        assert np.count_nonzero(at >= 0) == 1 and 0 < at.max() < self.STEPS
        assert blocked.keys() == whole.keys()
        for key in ("max_response", "probe", "mse", "diverged", "diverged_at"):
            assert np.array_equal(blocked[key], whole[key]), key
        assert blocked["snapshots"].keys() == whole["snapshots"].keys()
        for t, snap in blocked["snapshots"].items():
            assert np.array_equal(snap, whole["snapshots"][t]), t

    @staticmethod
    def augmented(cfg, u):
        model = wno.WnoModel.initialize(cfg.wno_config(), 3)
        # the zero output layer would make every correction zero
        rng = np.random.default_rng(3)
        for name in ("downlift2.weight", "downlift2.bias"):
            model.params[name] = 0.1 * rng.standard_normal(model.params[name].shape)
        sur = tr.AugmentedSurrogate(cfg.partial_spec(), model)
        assert np.all(wno.wno_forward(u, sur.coords, model, model.params) != 0.0)
        return sur

    def test_desk_dpa_blocks_of_42_42_5(self):
        cfg, u = self.case("burgers1d-missing-diffusion-desk", (), 89, 44)
        sur = self.augmented(cfg, u)
        assert sur.block == 42  # width 24, fc1_dim 48, 64 points
        self.check(sur, u, (17,))

    def test_small_2d_dpa_coarsest_bands(self):
        overrides = ("pde.nx=32", "pde.ny=32", "wno.width=8", "wno.fc1_dim=48",
                     "wno.levels=2", "wno.layers=2")
        cfg, u = self.case("burgers2d-missing-xdiff", overrides, 3, 2)
        sur = self.augmented(cfg, u)
        assert cfg.wno_config().bands == "coarsest"
        assert sur.block == 2  # fc1_dim 48 over 32x32 points
        self.check(sur, u, (5, 9))

    def test_small_2d_physics_blocks_of_3(self):
        cfg, u = self.case("burgers2d-missing-xdiff",
                           ("pde.nx=16", "pde.ny=16"), 7, 4)
        sur = tr.PhysicsSurrogate(cfg.partial_spec())
        sur.block = 3
        self.check(sur, u, (5, 9))

    def test_generate_bytes_under_a_ragged_block(self, monkeypatch):
        cfg = cf.load_config(preset="burgers1d-missing-diffusion-desk")
        full, fams = cfg.full_spec(), cfg.families("train")

        def generate():
            return dg.generate(full, fams, 5, cfg.seed)

        whole = generate()
        # three 64-point states per block: 16 samples in blocks of 3, 3, 3, 3, 3, 1
        monkeypatch.setattr(tr, "_BLOCK_BYTES", 3 * 64 * 8)
        assert tr.PhysicsSurrogate(full).block == 3 and cfg.n_train == 16
        blocked = generate()
        assert blocked.trajectories.tobytes() == whole.trajectories.tobytes()


def assert_only_read_values_kept(tape):
    """A node holds its output exactly when a recorded consumer's VJP reads it
    and its op is not rebuilt; every input of a rebuilt node is kept (a
    constant in its ctx) or itself rebuilt."""
    read = set()
    for node in tape.nodes:
        if node.op != "leaf":
            read.update(node.parents[i] for i in ad.PRIMITIVES[node.op][2]
                        if node.parents[i] is not None)
    rebuilt = {nid for nid, node in enumerate(tape.nodes)
               if node.op != "leaf" and ad.PRIMITIVES[node.op][3]}
    kept = read - rebuilt
    for nid, node in enumerate(tape.nodes):
        assert (node.value is not ad._UNSAVED) == (nid in kept), (nid, node.op)
        assert node.value.nbytes > 0 or nid not in kept
        if nid in rebuilt:
            assert all(i in node.ctx["consts"] if pid is None
                       else pid in kept or pid in rebuilt
                       for i, pid in enumerate(node.parents)), (nid, node.op)


TAPE_2D = ("pde.nx=32", "pde.ny=32", "wno.width=8", "wno.fc1_dim=16",
           "wno.levels=3", "wno.layers=2", "ic.train.1.count=1")
DESK_BATCH = ("burgers1d-missing-diffusion-desk",
              ("ic.train.1.count=2", "ic.train.2.count=2"), 4)
SMALL_2D_BATCH = ("burgers2d-missing-xdiff",
                  ("pde.nx=16", "pde.ny=16", "wno.width=4", "wno.fc1_dim=8",
                   "wno.levels=2", "wno.layers=2", "ic.train.1.count=1"), 1)


class TestTapeMemory:
    """The tape keeps only the values its VJPs read, and training holds one
    tape at a time."""

    @staticmethod
    def batch(preset, overrides, n, t_steps):
        """(tape, staged parameter leaves, loss) of one batch, before backward."""
        cfg = cf.load_config(preset=preset, overrides=overrides)
        ds = dg.generate(cfg.full_spec(), cfg.families("train"), t_steps,
                         cfg.seed, purpose="data")
        model = wno.WnoModel.initialize(cfg.wno_config(), cfg.seed)
        tape = ad.Tape()
        staged = {k: tape.leaf(v) for k, v in model.params.items()}
        loss = tr.rollout_loss(model, cfg.partial_spec(), ds.ics,
                               ds.trajectories, t_steps, params=staged)
        return tape, staged, loss

    def batch_tape(self, preset, overrides, n, t_steps):
        return self.batch(preset, overrides, n, t_steps)[0]

    def test_desk_batch_keeps_read_values_only(self):
        # B=4, T=10: 3.2 MB of values the VJPs read and the tape keeps (4.6 MB
        # with the channel matmul and bias outputs it rebuilds, 6.6 MB with
        # the GELU outputs too); every output is 22.3 MB
        tape = self.batch_tape(*DESK_BATCH, 10)
        assert sum(node.value.nbytes for node in tape.nodes) <= 3.5e6
        assert_only_read_values_kept(tape)
        ops = {node.op for node in tape.nodes}
        assert {"level_matmul", "add", "bias_add", "gelu"} <= ops

    def test_small_2d_keeps_read_values_only(self):
        assert_only_read_values_kept(self.batch_tape(*SMALL_2D_BATCH, 2))

    @pytest.mark.parametrize("batch,t_steps", [(DESK_BATCH, 10),
                                               (SMALL_2D_BATCH, 2)],
                             ids=["desk-T10", "small-2d-T2"])
    def test_rebuilt_outputs_rerun_bitwise(self, monkeypatch, batch, t_steps):
        # the reverse sweep re-runs a rebuilt node's forward on its inputs,
        # kept or rebuilt in turn, with the params it was recorded with
        outputs = {}

        def record(tape, op, *inputs, original=ad.record, **params):
            out = original(tape, op, *inputs, **params)
            outputs[out.node_id] = out.data
            return out

        monkeypatch.setattr(ad, "record", record)
        tape = self.batch_tape(*batch, t_steps)
        rebuilt = {node.op for node in tape.nodes
                   if node.op != "leaf" and ad.PRIMITIVES[node.op][3]}
        assert rebuilt == {"matmul", "bias_add", "gelu"}
        for nid, node in enumerate(tape.nodes):
            if node.op in rebuilt:
                inputs = [ad._input_value(tape, node, i)
                          for i in range(len(node.parents))]
                out = ad.PRIMITIVES[node.op][0](inputs, node.ctx)[0]
                assert out.tobytes() == outputs[nid].tobytes(), (nid, node.op)

    # (reads, rebuilt) entries of a reference tape: the earlier entries, where
    # only GELU is rebuilt and bias_add reads nothing, and entries that
    # rebuild nothing
    KEPT_ENTRIES = {
        "gelu-only": {"matmul": ((0, 1), False), "bias_add": ((), False)},
        "none": {"matmul": ((0, 1), False), "bias_add": ((), False),
                 "gelu": ((0,), False)},
    }

    @pytest.mark.parametrize("reference", sorted(KEPT_ENTRIES))
    @pytest.mark.parametrize("batch,t_steps", [(DESK_BATCH, 10),
                                               (SMALL_2D_BATCH, 2)],
                             ids=["desk-T10", "small-2d-T2"])
    def test_rebuilt_gradients_equal_kept_ones(self, monkeypatch, batch,
                                               t_steps, reference):
        def sweep():
            tape, staged, loss = self.batch(*batch, t_steps)
            kept = sum(node.value.nbytes for node in tape.nodes)
            ad.backward(tape, loss)
            return kept, {k: ad.grad_of(tape, leaf) for k, leaf in staged.items()}

        rebuilt_bytes, rebuilt = sweep()
        # the reference keeps the outputs of these ops that consumers read
        for op, (reads, is_rebuilt) in self.KEPT_ENTRIES[reference].items():
            monkeypatch.setitem(ad.PRIMITIVES, op,
                                ad.PRIMITIVES[op][:2] + (reads, is_rebuilt))
        kept_bytes, kept = sweep()
        assert rebuilt_bytes < kept_bytes
        assert rebuilt.keys() == kept.keys()
        for name in kept:
            assert rebuilt[name].tobytes() == kept[name].tobytes(), name

    @pytest.mark.parametrize("preset,overrides,n,bands,nodes,dwt,idwt", [
        ("burgers1d-missing-diffusion-desk",
         ("ic.train.1.count=2", "ic.train.2.count=2"), 4, "coarsest", 256, 72, 45),
        ("burgers1d-missing-diffusion-desk",
         ("ic.train.1.count=2", "ic.train.2.count=2"), 4, "all", 346, 72, 72),
        ("burgers2d-missing-xdiff", TAPE_2D, 1, "coarsest", 370, 108, 60),
        ("burgers2d-missing-xdiff", TAPE_2D, 1, "all", 502, 108, 108),
    ], ids=["1d-coarsest-periodic", "1d-all-periodic", "2d-coarsest-periodic",
           "2d-all-periodic"])
    def test_rollout_tape_node_counts(self, preset, overrides, n, bands, nodes,
                                      dwt, idwt):
        # a 3-step rollout_loss records the same graph size as the separate
        # 1D and 2D transforms did; analysis matrices are wide (n/2, n) and
        # synthesis matrices tall (n, n/2)
        tape = self.batch_tape(preset, overrides + (f"wno.bands={bands}",), n, 3)
        shapes = [node.ctx["matrix"].shape for node in tape.nodes
                  if node.op == "level_matmul"]
        wide = sum(rows < cols for rows, cols in shapes)
        assert (len(tape.nodes), wide, len(shapes) - wide) == (nodes, dwt, idwt)

    def test_previous_batch_tape_released(self, monkeypatch):
        full, partial, ds = burgers_setup()
        tapes, alive = [], []

        def rollout_loss(model, spec, ics, targets, t_steps, params,
                         original=tr.rollout_loss):
            alive.append([ref() is not None for ref in tapes])
            tapes.append(weakref.ref(next(iter(params.values())).tape))
            return original(model, spec, ics, targets, t_steps, params=params)

        monkeypatch.setattr(tr, "rollout_loss", rollout_loss)
        cfg = tr.TrainConfig(epochs=2, unroll_schedule=((0, 3),), batch_size=2,
                             learning_rate=0.01, seed=0)
        tr.train(tiny_model(), ds, partial, cfg)
        assert alive == [[False] * i for i in range(6)]
