"""Unsupervised grammar induction end to end, at desk scale.

No tree is ever shown to the learner.  A small PCFG generates a corpus;
the trainer maximizes a sampled evidence lower bound that couples the
generative model with a chart-structured inference network; afterwards we
compare the induced Viterbi parses against the (held-out) generating
trees.  Runs in about 70 seconds on a 2-core x86 machine.
"""

from importlib import resources

import numpy as np

from urnng.evaluate import unlabeled_f1, viterbi_parses
from urnng.synth import Grammar, format_tree, synth_corpus
from urnng.trainer import TrainConfig, Trainer, build_models
from urnng.treebank import Vocabulary, make_sentence, random_tree

grammar = Grammar.from_text(
    (resources.files("urnng") / "data" / "default_grammar.txt")
    .read_text(encoding="utf-8"))
train_trees = synth_corpus(grammar, 2500, 3, 12, seed=1)
valid_trees = synth_corpus(grammar, 200, 3, 12, seed=2)

vocab = Vocabulary.build([t.leaves() for t in train_trees], min_count=2)
train = [make_sentence(t.leaves(), vocab) for t in train_trees]
valid = [make_sentence(t.leaves(), vocab) for t in valid_trees]
print(f"{len(train)} training sentences, vocabulary of {len(vocab)}\n")

config = TrainConfig(mode="urnng", epochs=4, batch_size=16, samples=8,
                     gen_dim=64, inf_hidden=64, seed=0)
model, inference = build_models(config, len(vocab),
                                rng=np.random.default_rng(config.seed))
trainer = Trainer(model, inference, config)
print("epoch  anneal  train ELBO/tok  val ELBO/tok  posterior entropy")
for record in trainer.train(train, valid):
    print(f"{record['epoch']:>5}  {record['anneal']:.3f}  "
          f"{record['train_elbo_per_token']:>13.4f}  "
          f"{record['val_elbo_per_token']:>12.4f}  "
          f"{record['val_entropy']:>17.4f}")

predicted = viterbi_parses(inference, valid)
punct = [s.punct for s in valid]
f1, _ = unlabeled_f1(predicted, valid_trees, punct)
rng = np.random.default_rng(99)
random_f1, _ = unlabeled_f1(
    [random_tree(len(s.ids), rng) for s in valid], valid_trees, punct)
print(f"\nValidation unlabeled F1: {f1:.1f}  (random trees: {random_f1:.1f})")

print("\nInduced parses next to the generating trees:")
for sentence, tree, gold in list(zip(valid, predicted, valid_trees))[:4]:
    print(f"  induced: {tree.to_bracketed(sentence.words)}")
    print(f"  gold:    {format_tree(gold)}\n")
