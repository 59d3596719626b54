"""Variational training of the generative model and inference network.

The estimator follows the surrogate-objective pattern: per sentence we draw
K trees from the chart posterior, score them under the generative model, and
form two losses on one tape.  The generative loss is the plain Monte Carlo
average of joint log-likelihoods.  The inference-network loss multiplies each
sample's log q by a detached, baselined reward (leave-one-out mean of the
other samples' joints) and adds the exact tree entropy, so its gradient is
the score-function estimator plus the entropy gradient.  A per-batch linear
annealing weight scales the action component of every reward and the entropy
term during the opening epochs.

Baseline modes reuse the same machinery: supervised training maximizes the
joint on gold trees while fitting q discriminatively, trivial-tree modes
construct the trees instead, and lm mode trains the sequential baseline.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, Tape, Tensor
from .crf import (InferenceNetwork, inside, sample_trees, tree_entropy,
                  tree_log_prob_batch)
from .optim import SGD, Adam
from .rnng import RNNLM, GenerativeModel
from .treebank import (DataError, Sentence, TreeRepr, left_branching,
                       random_tree, right_branching, tree_actions)

MODES = ("urnng", "supervised", "lm", "trivial-left", "trivial-right",
         "trivial-random", "finetune")

ELBO_MODES = ("urnng", "finetune")

TRIVIAL_SHAPES = {"trivial-left": "left", "trivial-right": "right",
                  "trivial-random": "random"}


@dataclass
class TrainConfig:
    """Hyperparameters; defaults reproduce the reference training recipe."""

    mode: str = "urnng"
    samples: int = 8            # K, posterior samples per sentence
    batch_size: int = 16
    epochs: int = 18
    anneal_epochs: float = 2.0
    theta_lr: float = 1.0
    action_lr: float = 0.1      # reduced rate for the action head
    theta_clip: float = 5.0
    phi_lr: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    phi_clip: float = 1.0
    freeze_epoch: int = 2       # stop updating q after this many epochs
    decay_factor: float = 2.0
    decay_grace: int = 8        # epochs before lr decay may trigger
    gen_dim: int = 650
    layers: int = 2
    inf_hidden: int = 256
    mlp_hidden: int = 0         # 0 selects 2 * inf_hidden
    max_len: int = 150
    dropout: float = 0.5
    init_scale: float = 0.1
    collapse_threshold: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.mode in ELBO_MODES and self.samples < 2:
            raise ValueError(
                "the leave-one-out baseline needs at least 2 samples")
        positive = ("theta_lr", "action_lr", "theta_clip", "phi_lr",
                    "phi_clip", "init_scale")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name, value in (("adam_beta1", self.adam_beta1),
                            ("adam_beta2", self.adam_beta2)):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.samples < 1 or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("samples, batch_size and epochs must be >= 1")
        if self.anneal_epochs < 0 or self.freeze_epoch < 0 \
                or self.decay_grace < 0:
            raise ValueError("schedule lengths must be >= 0")
        if self.decay_factor < 1.0:
            raise ValueError("decay_factor must be >= 1")
        if min(self.gen_dim, self.layers, self.inf_hidden, self.max_len) < 1:
            raise ValueError("model dimensions must be >= 1")
        if self.mlp_hidden < 0 or self.collapse_threshold < 0:
            raise ValueError("mlp_hidden and collapse_threshold must be >= 0")

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """Parse a flat key/value config; '#' starts a comment."""
        kinds = {"int": int, "float": float, "str": str}
        names = {f.name: kinds[f.type] for f in dataclasses.fields(cls)}
        kwargs = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, value = line.partition("=")
            else:
                key, _, value = line.partition(" ")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in names or not value:
                raise DataError(f"{path}:{lineno}: bad config line {raw!r}")
            try:
                kwargs[key] = names[key](value)
            except ValueError as err:
                raise DataError(f"{path}:{lineno}: {err}") from None
        config = cls(**kwargs)
        config.validate()
        return config


def build_models(config: TrainConfig, vocab_size: int,
                 rng: np.random.Generator | None = None):
    """Construct (generative model, inference network) for a config.

    lm mode yields (RNNLM, None).  The inference network borrows the
    generative model's embedding table.
    """
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    if config.mode == "lm":
        lm = RNNLM(vocab_size, dim=config.gen_dim, layers=config.layers,
                   dropout=config.dropout, rng=rng,
                   init_scale=config.init_scale)
        return lm, None
    model = GenerativeModel(vocab_size, dim=config.gen_dim,
                            layers=config.layers, dropout=config.dropout,
                            rng=rng, init_scale=config.init_scale)
    inference = InferenceNetwork(
        vocab_size, word_dim=config.gen_dim, hidden_dim=config.inf_hidden,
        mlp_hidden=config.mlp_hidden or None, max_len=config.max_len,
        dropout=config.dropout, rng=rng, embedding=model.params["emb"],
        init_scale=config.init_scale)
    return model, inference


def leave_one_out(rewards: np.ndarray) -> np.ndarray:
    """Baseline matrix: entry [k, b] is the mean of the other rows at b."""
    k = rewards.shape[0]
    if k < 2:
        raise ValueError("leave-one-out baseline needs at least 2 samples")
    return (rewards.sum(axis=0, keepdims=True) - rewards) / (k - 1)


def make_batches(lengths, batch_size: int,
                 rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled index batches of same-length sentences."""
    by_len: dict[int, list[int]] = {}
    for idx, t in enumerate(lengths):
        by_len.setdefault(t, []).append(idx)
    batches = []
    for t in sorted(by_len):
        idxs = np.array(by_len[t], dtype=np.int64)
        rng.shuffle(idxs)
        for lo in range(0, len(idxs), batch_size):
            batches.append(idxs[lo:lo + batch_size])
    order = rng.permutation(len(batches))
    return [batches[j] for j in order]


def append_metrics(path, record: dict) -> None:
    """Append one record as plain-text key/value lines plus a blank line."""
    lines = [f"{key} {value}" for key, value in record.items()]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n\n")


def _require_finite(ll: np.ndarray, n: int, what: str) -> None:
    """Raise NumericError unless ``ll`` is finite; entry i scores sentence
    i % n of the batch, as the K samples of n sentences are stacked."""
    bad = np.flatnonzero(~np.isfinite(ll))
    if bad.size:
        raise NumericError(f"non-finite {what} for sentence {bad[0] % n}")


def _split_corpus(data):
    """Accept [Sentence] or [(Sentence, TreeRepr)]; return (sentences, trees)."""
    pairs = [(item, None) if isinstance(item, Sentence) else item
             for item in data]
    return [s for s, _ in pairs], [tree for _, tree in pairs]


class Trainer:
    """Owns the models, optimizers, counters, and the epoch loop."""

    def __init__(self, model, inference: InferenceNetwork | None,
                 config: TrainConfig,
                 rng: np.random.Generator | None = None):
        config.validate()
        if config.mode == "lm":
            if not isinstance(model, RNNLM):
                raise ValueError("lm mode expects an RNNLM")
        elif not isinstance(model, GenerativeModel):
            raise ValueError(f"{config.mode} mode expects a GenerativeModel")
        if config.mode != "lm" and inference is None:
            raise ValueError(f"{config.mode} mode needs an inference network")
        self.model = model
        self.inference = inference
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(
            config.seed)
        overrides = {"gen.action_w": config.action_lr,
                     "gen.action_b": config.action_lr}
        self.theta_opt = SGD(model.parameters(), config.theta_lr,
                             config.theta_clip, lr_overrides=overrides)
        self.phi_opt = None
        if inference is not None:
            self.phi_opt = Adam(inference.parameters(), config.phi_lr,
                                config.phi_clip,
                                betas=(config.adam_beta1, config.adam_beta2))
        self.epoch = 0
        self.global_batch = 0
        self.best_val = -np.inf
        self.best_epoch = 0
        self.phi_frozen = False
        self._anneal_total = 0.0

    # -- schedules -----------------------------------------------------------

    def anneal_weight(self) -> float:
        """Linear per-batch ramp 0 -> 1 over the configured opening epochs."""
        if self.config.mode != "urnng":
            return 1.0
        if self._anneal_total <= 0:
            return 1.0
        return min(1.0, self.global_batch / self._anneal_total)

    # -- single-batch updates -------------------------------------------------

    def elbo_step(self, ids: np.ndarray, anneal: float = 1.0, *,
                  update: bool = True) -> dict:
        """One variational update on a same-length sentence batch [B, T]."""
        if self.inference is None:
            raise ValueError("elbo_step needs an inference network")
        cfg = self.config
        ids = np.asarray(ids, dtype=np.int64)
        n, t_len = ids.shape
        k = cfg.samples
        train_phi = not self.phi_frozen
        with Tape() as tape:
            scores = self.inference.span_scores(
                ids, rng=self.rng if train_phi else None)
            chart = inside(scores)
            entropy = tree_entropy(chart)
            rows = np.tile(np.arange(n), k)
            spans, which = sample_trees(chart, self.rng, rows)
            ids_rep = np.tile(ids, (k, 1))
            acts = tree_actions(spans, t_len)[which]
            terminal, action = self.model.joint_log_likelihood_batch(
                ids_rep, acts, rng=self.rng)
            theta_loss = ad.scale(
                ad.sum_all(ad.add(terminal, ad.scale(action, anneal))),
                -1.0 / (k * n))
            full_ll = terminal.data + action.data
            _require_finite(full_ll, n, "joint log-likelihood")
            phi_loss = None
            if train_phi:
                reward = (terminal.data + anneal * action.data).reshape(k, n)
                advantage = (reward - leave_one_out(reward)).reshape(k * n)
                log_q = tree_log_prob_batch(chart, spans[which], rows)
                phi_loss = ad.add(
                    ad.scale(ad.sum_all(ad.mul(log_q, Tensor(advantage))),
                             -1.0 / (k * n)),
                    ad.scale(ad.sum_all(entropy), -anneal / n))
        norms = self._update(tape, theta_loss, phi_loss, update)
        per_sentence = full_ll.reshape(k, n).mean(axis=0)
        return {
            "elbo_sum": float((per_sentence + entropy.data).sum()),
            "reconstruction_sum": float(
                terminal.data.reshape(k, n).mean(axis=0).sum()),
            "entropy_sum": float(entropy.data.sum()),
            "tokens": n * t_len,
            "sentences": n,
            "anneal": anneal,
            **norms,
        }

    def supervised_step(self, ids: np.ndarray, trees: list[TreeRepr], *,
                        update: bool = True) -> dict:
        """Joint-likelihood update on given trees; q fits them discriminatively."""
        ids = np.asarray(ids, dtype=np.int64)
        n, t_len = ids.shape
        if len(trees) != n or any(t is None for t in trees):
            raise DataError("every sentence needs a tree")
        acts = tree_actions(trees, t_len)
        with Tape() as tape:
            terminal, action = self.model.joint_log_likelihood_batch(
                ids, acts, rng=self.rng)
            theta_loss = ad.scale(ad.sum_all(ad.add(terminal, action)),
                                  -1.0 / n)
            phi_loss = None
            if self.inference is not None and not self.phi_frozen:
                scores = self.inference.span_scores(ids, rng=self.rng)
                chart = inside(scores)
                log_q = tree_log_prob_batch(chart, trees, np.arange(n))
                phi_loss = ad.scale(ad.sum_all(log_q), -1.0 / n)
        joint = terminal.data + action.data
        _require_finite(joint, n, "joint log-likelihood")
        norms = self._update(tape, theta_loss, phi_loss, update)
        return {
            "joint_sum": float(joint.sum()),
            "tokens": n * t_len,
            "sentences": n,
            **norms,
        }

    def trivial_tree_step(self, ids: np.ndarray, shape: str, *,
                          update: bool = True) -> dict:
        """Supervised update on constructed trees of a fixed shape."""
        ids = np.asarray(ids, dtype=np.int64)
        trees = [self._trivial_tree(ids.shape[1], shape, self.rng)
                 for _ in ids]
        return self.supervised_step(ids, trees, update=update)

    def lm_step(self, ids: np.ndarray, *, update: bool = True) -> dict:
        """Cross-entropy update for the sequential language model."""
        ids = np.asarray(ids, dtype=np.int64)
        n, t_len = ids.shape
        with Tape() as tape:
            ll = self.model.log_likelihood_batch(ids, rng=self.rng)
            loss = ad.scale(ad.sum_all(ll), -1.0 / n)
        _require_finite(ll.data, n, "log-likelihood")
        norms = self._update(tape, loss, None, update)
        return {
            "joint_sum": float(ll.data.sum()),
            "tokens": n * t_len,
            "sentences": n,
            **norms,
        }

    def _update(self, tape: Tape, theta_loss: Tensor,
                phi_loss: Tensor | None, update: bool) -> dict:
        """Backpropagate each loss to its optimizer's own parameters and
        step it, if ``update``; 0.0 is the norm of one that did not step."""
        norms = {"theta_grad_norm": 0.0, "phi_grad_norm": 0.0}
        for key, loss, opt in zip(norms, (theta_loss, phi_loss),
                                  (self.theta_opt, self.phi_opt)):
            if update and loss is not None:
                norms[key] = opt.step(tape.backward(loss, opt.params.values()))
        return norms

    # -- validation ------------------------------------------------------------

    def validate(self, sentences: list[Sentence],
                 trees: list[TreeRepr | None] | None = None) -> dict:
        """Evaluation-mode metrics; deterministic given (seed, epoch)."""
        mode = self.config.mode
        if mode in ELBO_MODES:
            return self._validate_elbo(sentences)
        if mode in TRIVIAL_SHAPES:
            shape = TRIVIAL_SHAPES[mode]
            rng = np.random.default_rng((self.config.seed, 555, self.epoch))
            trees = [self._trivial_tree(len(s.ids), shape, rng)
                     for s in sentences]
        if mode != "lm" and (trees is None or any(t is None for t in trees)):
            raise DataError("validation in supervised mode needs gold trees")
        total = 0.0
        tokens = 0
        for chunk, ids in self._eval_batches(sentences):
            if mode == "lm":
                scores = self.model.log_likelihood_batch(ids).data
            else:
                acts = tree_actions([trees[i] for i in chunk], ids.shape[1])
                terminal, action = self.model.joint_log_likelihood_batch(
                    ids, acts)
                scores = terminal.data + action.data
            total += float(scores.sum())
            tokens += ids.size
        key = "ll_per_token" if mode == "lm" else "joint_per_token"
        return {
            "metric": total / tokens,
            key: total / tokens,
            "entropy": 0.0,
            "collapse_warning": 0,
        }

    def _trivial_tree(self, t_len, shape, rng):
        if shape == "left":
            return left_branching(t_len)
        if shape == "right":
            return right_branching(t_len)
        if shape == "random":
            return random_tree(t_len, rng)
        raise ValueError(f"unknown tree shape {shape!r}")

    def _validate_elbo(self, sentences: list[Sentence]) -> dict:
        rng = np.random.default_rng((self.config.seed, 555, self.epoch))
        elbo = recon = ent = 0.0
        tokens = 0
        for _, ids in self._eval_batches(sentences):
            n, t_len = ids.shape
            scores = self.inference.span_scores(ids)
            chart = inside(scores)
            entropy = tree_entropy(chart).data
            spans, which = sample_trees(chart, rng, np.arange(n))
            acts = tree_actions(spans, t_len)[which]
            terminal, action = self.model.joint_log_likelihood_batch(ids, acts)
            elbo += float((terminal.data + action.data + entropy).sum())
            recon += float(terminal.data.sum())
            ent += float(entropy.sum())
            tokens += n * t_len
        mean_entropy = ent / len(sentences)
        return {
            "metric": elbo / tokens,
            "elbo_per_token": elbo / tokens,
            "reconstruction_per_token": recon / tokens,
            "entropy": mean_entropy,
            "collapse_warning": int(
                mean_entropy < self.config.collapse_threshold),
        }

    def _eval_batches(self, sentences):
        """(indices, ids [n, T]) per same-length batch, shortest first."""
        order = {}
        for idx, s in enumerate(sentences):
            order.setdefault(len(s.ids), []).append(idx)
        for t_len in sorted(order):
            idxs = order[t_len]
            for lo in range(0, len(idxs), self.config.batch_size):
                chunk = idxs[lo:lo + self.config.batch_size]
                yield chunk, np.array([sentences[i].ids for i in chunk])

    # -- the epoch loop ---------------------------------------------------------

    def train(self, train_data, val_data, *, log_path=None,
              epoch_callback=None) -> list[dict]:
        """Run the remaining epochs; returns one metrics record per epoch.

        ``train_data``/``val_data`` are lists of Sentence, or of
        (Sentence, TreeRepr) pairs when gold trees are required.  Calling
        again on a restored Trainer continues from ``self.epoch``.
        """
        cfg = self.config
        sentences, trees = _split_corpus(train_data)
        val_sentences, val_trees = _split_corpus(val_data)
        if not sentences or not val_sentences:
            raise DataError("empty corpus")
        if cfg.mode == "supervised" and any(t is None for t in trees):
            raise DataError("supervised mode needs a tree per sentence")
        lengths = [len(s.ids) for s in sentences]
        if min(lengths) < 1:
            raise DataError("sentences must be non-empty")
        probe = make_batches(lengths, cfg.batch_size,
                             np.random.default_rng(0))
        self._anneal_total = cfg.anneal_epochs * len(probe)
        records = []
        while self.epoch < cfg.epochs:
            self.phi_frozen = (cfg.mode == "urnng"
                               and self.epoch >= cfg.freeze_epoch)
            epoch_rng = np.random.default_rng((cfg.seed, 101, self.epoch))
            sums = {"elbo_sum": 0.0, "reconstruction_sum": 0.0,
                    "entropy_sum": 0.0, "joint_sum": 0.0, "tokens": 0,
                    "sentences": 0, "theta_grad_norm": 0.0,
                    "phi_grad_norm": 0.0}
            n_batches = 0
            last_anneal = 1.0
            for batch in make_batches(lengths, cfg.batch_size, epoch_rng):
                ids = np.array([sentences[i].ids for i in batch])
                if cfg.mode in ELBO_MODES:
                    last_anneal = self.anneal_weight()
                    diag = self.elbo_step(ids, last_anneal)
                elif cfg.mode == "supervised":
                    diag = self.supervised_step(
                        ids, [trees[i] for i in batch])
                elif cfg.mode in TRIVIAL_SHAPES:
                    diag = self.trivial_tree_step(
                        ids, TRIVIAL_SHAPES[cfg.mode])
                else:
                    diag = self.lm_step(ids)
                for key in sums:
                    sums[key] += diag.get(key, 0.0)
                self.global_batch += 1
                n_batches += 1
            val = self.validate(val_sentences, val_trees)
            improved = val["metric"] > self.best_val
            decayed = 0
            if improved:
                self.best_val = val["metric"]
                self.best_epoch = self.epoch + 1
            elif self.epoch + 1 > cfg.decay_grace:
                self.theta_opt.decay(cfg.decay_factor)
                decayed = 1
            record = {
                "epoch": self.epoch + 1,
                "mode": cfg.mode,
                "anneal": round(last_anneal, 6),
                "phi_frozen": int(self.phi_frozen),
                "theta_lr": max(self.theta_opt.lr.values()),
                "decayed": decayed,
                "improved": int(improved),
                "best_epoch": self.best_epoch,
                "theta_grad_norm": sums["theta_grad_norm"] / n_batches,
                "phi_grad_norm": sums["phi_grad_norm"] / n_batches,
            }
            if cfg.mode in ELBO_MODES:
                record["train_elbo_per_token"] = (
                    sums["elbo_sum"] / sums["tokens"])
                record["train_entropy"] = (
                    sums["entropy_sum"] / sums["sentences"])
                record["train_reconstruction_per_token"] = (
                    sums["reconstruction_sum"] / sums["tokens"])
            else:
                record["train_ll_per_token"] = (
                    sums["joint_sum"] / sums["tokens"])
            for key, value in val.items():
                record[f"val_{key}" if key != "metric" else "val_metric"] = (
                    round(value, 10) if isinstance(value, float) else value)
            records.append(record)
            if log_path is not None:
                append_metrics(log_path, record)
            self.epoch += 1
            if epoch_callback is not None:
                epoch_callback(self, record)
        return records

    # -- state for checkpointing -------------------------------------------------

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Every float array that defines the training state, by name."""
        out = {name: p.data for name, p in self.model.parameters().items()}
        if self.inference is not None:
            out.update({name: p.data
                        for name, p in self.inference.parameters().items()})
        out.update(self.theta_opt.state_arrays("opt.theta"))
        if self.phi_opt is not None:
            out.update(self.phi_opt.state_arrays("opt.phi"))
        return out

    def metadata(self) -> dict:
        """JSON-compatible counters and RNG state."""
        return {
            "epoch": self.epoch,
            "global_batch": self.global_batch,
            "best_val": self.best_val,
            "best_epoch": self.best_epoch,
            "phi_frozen": self.phi_frozen,
            "rng_state": self.rng.bit_generator.state,
        }

    def load_parameters(self, arrays: dict[str, np.ndarray]) -> None:
        """Set every model and inference parameter from the array of its
        name; the optimizers, counters and RNG are left as they are."""
        targets = {name: p for name, p in self.model.parameters().items()}
        if self.inference is not None:
            targets.update(self.inference.parameters())
        for name, p in targets.items():
            if name not in arrays:
                raise ValueError(f"state is missing array {name!r}")
            if arrays[name].shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: saved "
                    f"{arrays[name].shape}, model {p.data.shape}")
            p.data = np.array(arrays[name], dtype=np.float64)

    def load_state(self, arrays: dict[str, np.ndarray],
                   metadata: dict) -> None:
        """Restore parameters, optimizer moments, counters, and RNG."""
        self.load_parameters(arrays)
        try:
            self.theta_opt.load_state("opt.theta", arrays)
            if self.phi_opt is not None:
                self.phi_opt.load_state("opt.phi", arrays)
            self.epoch = int(metadata["epoch"])
            self.global_batch = int(metadata["global_batch"])
            self.best_val = float(metadata["best_val"])
            self.best_epoch = int(metadata["best_epoch"])
            self.phi_frozen = bool(metadata["phi_frozen"])
            self.rng.bit_generator.state = metadata["rng_state"]
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed trainer state: {err!r}") from err
