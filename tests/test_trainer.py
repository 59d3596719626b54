"""Trainer tests: estimator correctness against enumeration oracles, the
annealing/freezing/decay schedules, and bit-exact determinism of the loop."""

import tracemalloc

import numpy as np
import pytest

import urnng.autodiff as ad
from urnng import oracle
from urnng.autodiff import Tape, grad_check
from urnng.checkpoint import load_checkpoint, save_checkpoint
from urnng.crf import inside, tree_log_prob_batch, viterbi
from urnng.trainer import (TrainConfig, Trainer, build_models, leave_one_out,
                           make_batches)
from urnng.treebank import DataError, Sentence, random_tree


def tiny_config(**kw):
    base = dict(mode="urnng", samples=4, batch_size=4, epochs=2,
                gen_dim=10, inf_hidden=8, mlp_hidden=16, max_len=12,
                dropout=0.0, seed=3)
    base.update(kw)
    return TrainConfig(**base)


def make_sentences(count, lengths, vocab, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        t = int(rng.choice(lengths))
        ids = tuple(int(v) for v in rng.integers(2, vocab, size=t))
        out.append(Sentence(words=tuple(f"w{v}" for v in ids), ids=ids,
                            punct=(False,) * t))
    return out


def flatten_grads(grad_dict, param_list):
    parts = []
    for p in param_list:
        g = grad_dict.get(p)
        parts.append(np.zeros(p.data.size) if g is None else g.ravel())
    return np.concatenate(parts)


class TestConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="unknown mode"):
            TrainConfig(mode="magic").validate()
        with pytest.raises(ValueError, match="leave-one-out"):
            TrainConfig(mode="urnng", samples=1).validate()
        with pytest.raises(ValueError, match="positive"):
            TrainConfig(theta_lr=0.0).validate()
        with pytest.raises(ValueError, match="dropout"):
            TrainConfig(dropout=1.0).validate()
        with pytest.raises(ValueError, match="decay_factor"):
            TrainConfig(decay_factor=0.5).validate()
        TrainConfig(mode="lm", samples=1).validate()  # K unused outside urnng

    def test_from_file(self, tmp_path):
        path = tmp_path / "train.conf"
        path.write_text(
            "# comment\n"
            "mode supervised\n"
            "samples = 4\n"
            "theta_lr 0.5   # inline comment\n"
            "\n"
            "batch-size 8\n")
        cfg = TrainConfig.from_file(path)
        assert cfg.mode == "supervised"
        assert cfg.samples == 4
        assert cfg.theta_lr == 0.5
        assert cfg.batch_size == 8

    def test_from_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("turbo yes\n")
        with pytest.raises(DataError, match="bad config line"):
            TrainConfig.from_file(path)

    def test_from_file_rejects_bad_value(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("samples lots\n")
        with pytest.raises(DataError, match="bad.conf:1"):
            TrainConfig.from_file(path)


class TestLeaveOneOut:
    def test_two_sample_identity(self):
        rewards = np.array([[1.0, -2.0], [3.0, 6.0]])
        base = leave_one_out(rewards)
        np.testing.assert_allclose(base[0], rewards[1])
        np.testing.assert_allclose(base[1], rewards[0])

    def test_never_includes_own_sample(self):
        rng = np.random.default_rng(0)
        rewards = rng.normal(size=(8, 3))
        base = leave_one_out(rewards)
        for k in range(8):
            manual = np.delete(rewards, k, axis=0).mean(axis=0)
            np.testing.assert_allclose(base[k], manual, atol=1e-12)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            leave_one_out(np.ones((1, 3)))


class TestBatching:
    def test_batches_are_length_uniform(self):
        lengths = [3, 5, 3, 4, 5, 5, 3, 3, 4]
        batches = make_batches(lengths, 2, np.random.default_rng(0))
        covered = sorted(i for b in batches for i in b)
        assert covered == list(range(9))
        for batch in batches:
            assert len({lengths[i] for i in batch}) == 1

    def test_shuffle_is_seed_deterministic(self):
        lengths = [3] * 10 + [4] * 7
        a = make_batches(lengths, 4, np.random.default_rng(5))
        b = make_batches(lengths, 4, np.random.default_rng(5))
        assert [list(x) for x in a] == [list(x) for x in b]

    def test_validation_batches_by_length_in_corpus_order(self):
        cfg = tiny_config(batch_size=2)
        trainer = Trainer(*build_models(cfg, 12), cfg)
        sentences = make_sentences(9, (3, 4, 5), 12, 7)
        batches = list(trainer._eval_batches(sentences))
        chunks = [chunk for chunk, _ in batches]
        # shortest first; one length per batch; corpus order within a length
        assert sum(chunks, []) == sorted(
            range(9), key=lambda i: len(sentences[i].ids))
        for chunk, ids in batches:
            assert 1 <= len(chunk) <= 2
            assert ids.tolist() == [list(sentences[i].ids) for i in chunk]


class TestScoreFunctionEstimator:
    """Monte Carlo gradient checks on a |V|=10, T=4, hidden-8 instance."""

    def setup_instance(self):
        cfg = tiny_config(gen_dim=8, inf_hidden=8, mlp_hidden=16, samples=8)
        model, net = build_models(cfg, vocab_size=10,
                                  rng=np.random.default_rng(11))
        ids = np.array([2, 5, 3, 7])
        trees = oracle.enumerate_trees(4)
        rewards = np.array([sum(model.joint_log_likelihood(ids, tr))
                            for tr in trees])
        scores = net.span_scores(ids[None])
        _, q = oracle.exact_distribution(scores)
        params = list(net.parameters().values()) + [net.embedding]
        grad_vecs = []
        for tree in trees:
            with Tape() as tape:
                chart = inside(net.span_scores(ids[None]))
                root = ad.sum_all(
                    tree_log_prob_batch(chart, [tree], np.array([0])))
            grad_vecs.append(flatten_grads(tape.backward(root), params))
        exact = flatten_grads(
            oracle.exact_phi_gradient(net, ids, rewards), params)
        return q, rewards, np.stack(grad_vecs), exact

    def test_estimator_expectation_equals_oracle_gradient(self):
        q, rewards, grads, exact = self.setup_instance()
        expectation = q @ (rewards[:, None] * grads)
        np.testing.assert_allclose(expectation, exact, atol=1e-12)

    def test_single_sample_estimator_is_unbiased(self):
        # the 1e-10 floor absorbs float dust on exactly-zero coordinates
        # (e.g. layer-norm bias, which shifts every span score equally)
        q, rewards, grads, exact = self.setup_instance()
        values = rewards[:, None] * grads  # per-tree estimator vectors
        n = 100_000
        counts = np.random.default_rng(20).multinomial(n, q)
        mean = counts @ values / n
        second = counts @ (values ** 2) / n
        se = np.sqrt(np.maximum(second - mean ** 2, 0.0) / n)
        gap = np.abs(mean - exact)
        assert np.all(gap <= 3.0 * se + 1e-10), float((gap - 3 * se).max())

    def test_leave_one_out_reduces_variance_in_every_repetition(self):
        q, rewards, grads, _ = self.setup_instance()
        k = 8
        rng = np.random.default_rng(22)
        for _ in range(20):
            reps = 64
            plain = np.empty((reps, grads.shape[1]))
            baselined = np.empty_like(plain)
            for m in range(reps):
                idx = rng.choice(len(q), size=k, p=q)
                r = rewards[idx]
                g = grads[idx]
                adv = r - (r.sum() - r) / (k - 1)
                plain[m] = (r[:, None] * g).mean(axis=0)
                baselined[m] = (adv[:, None] * g).mean(axis=0)
            assert baselined.var(axis=0).sum() < plain.var(axis=0).sum()


class TestElboStep:
    def batch(self, vocab=12, t=4, n=4, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(2, vocab, size=(n, t))

    def test_returns_finite_diagnostics(self):
        cfg = tiny_config()
        model, net = build_models(cfg, 12)
        trainer = Trainer(model, net, cfg)
        diag = trainer.elbo_step(self.batch(), anneal=0.5)
        for key in ("elbo_sum", "reconstruction_sum", "entropy_sum"):
            assert np.isfinite(diag[key])
        assert diag["tokens"] == 16
        assert diag["theta_grad_norm"] > 0
        assert diag["phi_grad_norm"] > 0

    def test_update_moves_both_parameter_groups(self):
        cfg = tiny_config()
        model, net = build_models(cfg, 12)
        trainer = Trainer(model, net, cfg)
        before_theta = model.params["gen.tree_w"].data.copy()
        before_phi = net.params["inf.mlp_w2"].data.copy()
        trainer.elbo_step(self.batch(), anneal=1.0)
        assert not np.array_equal(model.params["gen.tree_w"].data,
                                  before_theta)
        assert not np.array_equal(net.params["inf.mlp_w2"].data, before_phi)

    def test_frozen_phi_stays_fixed(self):
        cfg = tiny_config()
        model, net = build_models(cfg, 12)
        trainer = Trainer(model, net, cfg)
        trainer.phi_frozen = True
        before_phi = {k: v.data.copy() for k, v in net.params.items()}
        before_theta = model.params["gen.tree_w"].data.copy()
        diag = trainer.elbo_step(self.batch(), anneal=1.0)
        for k, v in net.params.items():
            np.testing.assert_array_equal(v.data, before_phi[k])
        assert not np.array_equal(model.params["gen.tree_w"].data,
                                  before_theta)
        assert diag["phi_grad_norm"] == 0.0

    def test_each_backward_forms_only_its_optimizers_gradients(self,
                                                                 monkeypatch):
        # Adam never reads the shared embedding, so the phi backward forms
        # no gradient for it; the theta backward forms one for every
        # generative parameter
        cfg = tiny_config()
        model, net = build_models(cfg, 12)
        trainer = Trainer(model, net, cfg)
        backward, formed = Tape.backward, []

        def recorded(tape, root, leaves=None):
            grads = backward(tape, root, leaves)
            formed.append(set(grads))
            return grads

        monkeypatch.setattr(Tape, "backward", recorded)
        trainer.elbo_step(self.batch(), anneal=1.0)
        assert formed == [set(model.params.values()), set(net.params.values())]

    def test_update_false_changes_nothing(self):
        cfg = tiny_config()
        model, net = build_models(cfg, 12)
        trainer = Trainer(model, net, cfg)
        before = {k: v.copy() for k, v in trainer.named_arrays().items()}
        trainer.elbo_step(self.batch(), anneal=1.0, update=False)
        after = trainer.named_arrays()
        for k in before:
            np.testing.assert_array_equal(after[k], before[k])

    def test_seeded_steps_are_bit_deterministic(self):
        runs = []
        for _ in range(2):
            cfg = tiny_config(dropout=0.5)
            model, net = build_models(cfg, 12)
            trainer = Trainer(model, net, cfg)
            for _ in range(3):
                diag = trainer.elbo_step(self.batch(), anneal=0.7)
            runs.append((diag, trainer.named_arrays()))
        assert runs[0][0] == runs[1][0]
        for k in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][k], runs[1][1][k])

    def test_objective_improves_on_memorization_batch(self):
        cfg = tiny_config(samples=4, theta_lr=0.2)
        model, net = build_models(cfg, 10)
        trainer = Trainer(model, net, cfg)
        ids = self.batch(vocab=10, t=4, n=4, seed=7)
        elbos = [trainer.elbo_step(ids, anneal=1.0)["elbo_sum"]
                 for _ in range(40)]
        assert np.mean(elbos[-5:]) > np.mean(elbos[:5])

    def test_longest_sentence_step_within_memory_budget(self):
        # Desk config at the longest length the config accepts: B=2, K=8,
        # T=150.  The traced peak is about 380 MB when the tape keeps only
        # what its vjps read, and about 730 MB when it keeps every input.
        cfg = TrainConfig(samples=8, batch_size=2, gen_dim=64, inf_hidden=64,
                          seed=0)
        model, net = build_models(cfg, 1000, np.random.default_rng(0))
        trainer = Trainer(model, net, cfg)
        ids = self.batch(vocab=1000, t=cfg.max_len, n=2, seed=1)
        tracemalloc.start()
        try:
            diag = trainer.elbo_step(ids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(diag["elbo_sum"])
        assert peak < 500 * 2**20, peak / 2**20


class TestSupervisedAndTrivial:
    def test_memorizes_gold_trees(self):
        cfg = tiny_config(mode="supervised", gen_dim=12, phi_lr=0.02,
                          theta_lr=0.5)
        model, net = build_models(cfg, 12)
        trainer = Trainer(model, net, cfg)
        rng = np.random.default_rng(9)
        ids = rng.integers(2, 12, size=(10, 5))
        gold = [random_tree(5, rng) for _ in range(10)]
        first = trainer.supervised_step(ids, gold)
        for _ in range(150):
            last = trainer.supervised_step(ids, gold)
        assert last["joint_sum"] > first["joint_sum"]
        hits = 0
        for row in range(10):
            guess, _ = viterbi(net.span_scores(ids[row:row + 1]))
            hits += guess == gold[row]
        assert hits >= 9

    def test_supervised_grad_check(self):
        cfg = tiny_config(mode="supervised", gen_dim=6, inf_hidden=6,
                          mlp_hidden=8)
        model, net = build_models(cfg, 8, rng=np.random.default_rng(12))
        ids = np.array([[2, 3, 4]])
        tree = random_tree(3, np.random.default_rng(0))
        acts = np.array([tree.actions])

        def f():
            terminal, action = model.joint_log_likelihood_batch(ids, acts)
            chart = inside(net.span_scores(ids))
            log_q = tree_log_prob_batch(chart, [tree], np.array([0]))
            return ad.add(ad.scale(ad.sum_all(ad.add(terminal, action)), -1.0),
                          ad.scale(ad.sum_all(log_q), -1.0))

        params = [model.params["emb"], model.params["gen.tree_b"],
                  model.params["gen.action_w"], net.params["inf.mlp_w2"],
                  net.params["inf.fwd_b"], net.params["inf.boundary"]]
        report = grad_check(f, params)
        assert report.passed, report

    def test_requires_a_tree_per_sentence(self):
        cfg = tiny_config(mode="supervised")
        model, net = build_models(cfg, 12)
        trainer = Trainer(model, net, cfg)
        with pytest.raises(DataError, match="tree"):
            trainer.supervised_step(np.array([[2, 3]]), [None])

    def test_trivial_shapes(self):
        cfg = tiny_config(mode="trivial-left")
        model, net = build_models(cfg, 12)
        trainer = Trainer(model, net, cfg)
        ids = np.array([[2, 3, 4, 5]])
        diag = trainer.trivial_tree_step(ids, "left")
        assert np.isfinite(diag["joint_sum"])
        with pytest.raises(ValueError, match="unknown tree shape"):
            trainer.trivial_tree_step(ids, "spiral")

    def test_random_shape_hits_every_tree(self):
        cfg = tiny_config(mode="trivial-random")
        model, net = build_models(cfg, 12)
        trainer = Trainer(model, net, cfg)
        seen = {trainer._trivial_tree(5, "random", trainer.rng).spans
                for _ in range(1000)}
        assert len(seen) == 14


class TestTrainLoop:
    def corpus(self, n, seed, vocab=12):
        return make_sentences(n, (3, 4, 5), vocab, seed)

    def test_identical_seeds_give_identical_traces(self):
        results = []
        for _ in range(2):
            cfg = tiny_config(epochs=2, dropout=0.5)
            model, net = build_models(cfg, 12)
            trainer = Trainer(model, net, cfg)
            records = trainer.train(self.corpus(20, 1), self.corpus(6, 2))
            results.append((records, trainer.named_arrays()))
        assert results[0][0] == results[1][0]
        for k in results[0][1]:
            np.testing.assert_array_equal(results[0][1][k], results[1][1][k])

    def test_freeze_stops_phi_updates(self):
        cfg = tiny_config(epochs=2, freeze_epoch=1)
        model, net = build_models(cfg, 12)
        trainer = Trainer(model, net, cfg)
        records = trainer.train(self.corpus(16, 3), self.corpus(6, 4))
        assert records[0]["phi_frozen"] == 0
        assert records[1]["phi_frozen"] == 1
        assert records[1]["phi_grad_norm"] == 0.0

    def test_anneal_reaches_one_after_configured_epochs(self):
        cfg = tiny_config(epochs=2, anneal_epochs=1.0)
        model, net = build_models(cfg, 12)
        trainer = Trainer(model, net, cfg)
        records = trainer.train(self.corpus(16, 5), self.corpus(6, 6))
        assert records[0]["anneal"] < 1.0
        assert records[1]["anneal"] == 1.0
        assert trainer.anneal_weight() == 1.0

    def test_decay_triggers_on_stalled_validation(self):
        class FlatVal(Trainer):
            def validate(self, sentences, trees=None):
                return {"metric": -1.0, "entropy": 1.0, "collapse_warning": 0}

        cfg = tiny_config(epochs=3, decay_grace=0)
        model, net = build_models(cfg, 12)
        trainer = FlatVal(model, net, cfg)
        records = trainer.train(self.corpus(12, 7), self.corpus(4, 8))
        assert [r["decayed"] for r in records] == [0, 1, 1]
        assert records[0]["theta_lr"] == 1.0
        assert trainer.theta_opt.lr["gen.tree_w"] == 0.25
        assert records[0]["best_epoch"] == 1

    def test_metrics_log_is_appended(self, tmp_path):
        cfg = tiny_config(epochs=1)
        model, net = build_models(cfg, 12)
        trainer = Trainer(model, net, cfg)
        log = tmp_path / "metrics.log"
        trainer.train(self.corpus(8, 9), self.corpus(4, 10), log_path=log)
        text = log.read_text()
        assert "epoch 1\n" in text
        assert "val_elbo_per_token" in text
        assert text.endswith("\n\n")

    def test_rejects_empty_corpus(self):
        cfg = tiny_config()
        model, net = build_models(cfg, 12)
        trainer = Trainer(model, net, cfg)
        with pytest.raises(DataError, match="empty corpus"):
            trainer.train([], self.corpus(4, 11))

    def test_supervised_mode_needs_trees(self):
        cfg = tiny_config(mode="supervised")
        model, net = build_models(cfg, 12)
        trainer = Trainer(model, net, cfg)
        with pytest.raises(DataError, match="tree"):
            trainer.train(self.corpus(8, 12), self.corpus(4, 13))

    def test_state_round_trip_resumes_bit_identically(self):
        def fresh(epochs):
            cfg = tiny_config(epochs=epochs, dropout=0.5, seed=14)
            model, net = build_models(cfg, 12)
            return Trainer(model, net, cfg)

        train, val = self.corpus(16, 15), self.corpus(6, 16)

        straight = fresh(2)
        straight_records = straight.train(train, val)

        first = fresh(1)
        first.train(train, val)
        arrays = {k: v.copy() for k, v in first.named_arrays().items()}
        meta = first.metadata()

        resumed = fresh(2)
        resumed.load_state(arrays, meta)
        resumed_records = resumed.train(train, val)

        assert resumed_records == straight_records[1:]
        left, right = straight.named_arrays(), resumed.named_arrays()
        for k in left:
            np.testing.assert_array_equal(left[k], right[k])

    def test_checkpoint_with_retired_output_bias_resumes(self, tmp_path):
        # checkpoints written before the span scorer lost its output bias
        # still hold inf.mlp_b2 and its Adam moments; they load and resume
        def fresh(epochs):
            cfg = tiny_config(epochs=epochs, dropout=0.5, seed=19)
            model, net = build_models(cfg, 12)
            return Trainer(model, net, cfg)

        train, val = self.corpus(16, 20), self.corpus(6, 21)
        straight = fresh(2)
        straight_records = straight.train(train, val)

        first = fresh(1)
        first.train(train, val)
        arrays = dict(first.named_arrays())
        assert "inf.mlp_b2" not in arrays
        arrays["inf.mlp_b2"] = np.array([0.07])
        arrays["opt.phi.m.inf.mlp_b2"] = np.array([1e-12])
        arrays["opt.phi.v.inf.mlp_b2"] = np.array([1e-24])
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, arrays, {"trainer": first.metadata()})
        loaded, meta = load_checkpoint(path)

        resumed = fresh(2)
        resumed.load_state(loaded, meta["trainer"])
        assert resumed.train(train, val) == straight_records[1:]
        for k, v in straight.named_arrays().items():
            np.testing.assert_array_equal(v, resumed.named_arrays()[k])

    def test_load_state_rejects_shape_mismatch(self):
        cfg = tiny_config()
        model, net = build_models(cfg, 12)
        trainer = Trainer(model, net, cfg)
        arrays = {k: v.copy() for k, v in trainer.named_arrays().items()}
        arrays["gen.tree_w"] = arrays["gen.tree_w"][:2]
        with pytest.raises(ValueError, match="shape mismatch"):
            trainer.load_state(arrays, trainer.metadata())

    def test_lm_mode_trains(self):
        cfg = tiny_config(mode="lm", epochs=2, theta_lr=0.5)
        lm, none = build_models(cfg, 12)
        assert none is None
        trainer = Trainer(lm, None, cfg)
        records = trainer.train(self.corpus(16, 17), self.corpus(6, 18))
        assert records[1]["val_metric"] > records[0]["val_metric"] - 0.5
        assert all(np.isfinite(r["train_ll_per_token"]) for r in records)


def test_sampled_trees_stay_arrays_on_hot_paths(monkeypatch):
    """elbo_step, ELBO validation and IW scoring build no TreeRepr."""
    from urnng import evaluate
    from urnng.treebank import TreeRepr

    cfg = tiny_config()
    model, inference = build_models(cfg, 12, rng=np.random.default_rng(0))
    trainer = Trainer(model, inference, cfg)
    sentences = make_sentences(4, [6], 12, seed=4)
    built = []
    check = TreeRepr.__post_init__
    monkeypatch.setattr(TreeRepr, "__post_init__",
                        lambda tree: built.append(tree) or check(tree))
    trainer.elbo_step(np.array([s.ids for s in sentences]))
    trainer.validate(sentences)
    ids = np.asarray(sentences[0].ids)
    chart = inside(inference.span_scores(ids[None]))
    evaluate._sampled_joints(model, ids, chart, np.random.default_rng(1), 50)
    assert built == []
