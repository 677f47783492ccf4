"""The benchmark's contract with the package.

perfbench/tracer.py wraps every function its MCRF_LAYERS name, looking each
one up with getattr, and perfbench/selftest.py checks that `viterbi` is
re-exported where the package imports it. A rename or deletion under src/
would otherwise surface only when the benchmark runs.

The self-test's tracer and check tests run here too, loaded read-only from
perfbench/selftest.py: they catch a change under src/ that breaks the
tracer's span nesting or the tag-bioes10 legality check. The nesting test
needs constrained_viterbi to call guard_threshold and crf.viterbi, and it
does: it is the paper's masked decode, kept as the reference that decode
(rules only, no mask) is checked against, and tag-bioes10 compares the two.
Its BenchmarkTests, which spawn whole benchmark runs, stay in the self-test
alone; the training-step counts they assert on train-bio3 are checked here
on a tiny training, and the crf.nll_loss count of one verify battery here
alone.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import mcrf.cli
import mcrf.training
import mcrf.verification
from mcrf import crf
from mcrf.data import SyntheticConfig, generate_synthetic, save_model, write_conll
from mcrf.training import TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves annotations through it
    spec.loader.exec_module(module)
    return module


_selftest = _load("perfbench_selftest", PERFBENCH / "selftest.py")
TracerTests = _selftest.TracerTests
CheckTests = _selftest.CheckTests
_tracer = _load("perfbench_tracer", TRACER)


def _traced_functions() -> list[str]:
    return [name for layer in _tracer.MCRF_LAYERS for name in layer.functions]


def test_every_traced_function_and_viterbi_reexport_is_a_module_attribute():
    missing = []
    for qualified in _traced_functions():
        module_name, attr = qualified.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(f"mcrf.{module_name}"), attr, None)):
            missing.append(qualified)
    for module_name in ("cli", "masking", "training", "verification"):
        module = importlib.import_module(f"mcrf.{module_name}")
        if getattr(module, "viterbi", None) is not crf.viterbi:
            missing.append(f"{module_name}.viterbi")
    assert missing == []


def test_training_calls_the_engine_once_per_iteration_with_the_batch_it_drew():
    """The benchmark's train-bio3 counts crf.loss_and_gradients calls,
    sentences and tokens, and adam_step calls: one engine call and one Adam
    step per iteration, and over whole epochs every training sentence and
    token once per epoch."""
    tagset, sentences = generate_synthetic(
        SyntheticConfig(entity_types=("PER",), sentences=30, min_length=2, max_length=7), 0
    )
    train_sentences, dev_sentences = sentences[:22], sentences[22:]
    epochs, batch_size = 3, 5
    config = TrainConfig(batch_size=batch_size, max_epochs=epochs, max_iterations=0,
                         eval_every=4, embedding_dim=4)
    with _tracer.Tracer() as tracer:
        mcrf.training.train(train_sentences, dev_sentences, config, tagset)
    metrics = tracer.metrics()
    assert metrics["training.train.calls"] == 1
    iterations = epochs * math.ceil(22 / batch_size)
    assert metrics["crf.loss_and_gradients.calls"] == iterations
    assert metrics["training.adam_step.calls"] == iterations
    assert metrics["crf.loss_and_gradients.sentences"] == epochs * 22
    tokens = sum(len(s.tokens) for s in train_sentences)
    assert metrics["crf.loss_and_gradients.tokens"] == epochs * tokens


def test_verify_takes_every_difference_from_untraced_engine_calls():
    """The benchmark's verify workload traces crf.nll_loss. Every finite
    difference takes one untraced engine call per perturbed array: the
    emission and encoder differences as a batch of perturbed sentences, the
    transition and start differences as a model axis of perturbed copies of
    trans. So a battery makes no nll_loss call, and its analytic gradients
    keep their count. The encoder check's perturbed weights go through the
    private _encode, one stacked call per weight class, so the traced
    encode runs once per instance, for its analytic gradients. The
    log-partition and Viterbi checks referee their instances through the
    private, untraced stacked oracles, one call per (T, d) group, and take
    the engine's log Z and paths the same way, so a battery makes no
    crf.log_partition or crf.viterbi call either. The gradient checks
    take their analytic gradients from one untraced stacked engine call per
    T group, and check_mask_convergence both of its oracles from the
    private stacked gradient enumeration, so the traced
    crf.loss_and_gradients calls are the encoder check's 10, and the traced
    crf.brute_force calls check_mask_convergence's 2 zero-gap calls."""
    with _tracer.Tracer() as tracer:
        mcrf.verification.run_verification(seed=0)
    metrics = tracer.metrics()
    assert metrics["crf.nll_loss.calls"] == 0
    assert metrics["crf.loss_and_gradients.calls"] == 10
    assert metrics["encoder.encode.calls"] == 10
    assert metrics["crf.log_partition.calls"] == 0
    assert metrics["crf.viterbi.calls"] == 0
    assert metrics["crf.brute_force.calls"] == 2


def test_predict_decodes_without_the_mask(tmp_path):
    """mcrf predict decodes over the rules alone: for an mcrf-train model it
    computes no guard threshold and masks no copy of the matrix, neither to
    decode nor to check the model file's masked entries."""
    tagset, sentences = generate_synthetic(
        SyntheticConfig(entity_types=("PER",), sentences=12, min_length=2, max_length=7), 0
    )
    config = TrainConfig(mode="mcrf-train", max_epochs=0, max_iterations=2, eval_every=2,
                         embedding_dim=4)
    model, _ = mcrf.training.train(sentences[:8], sentences[8:], config, tagset)
    model_path, data_path = tmp_path / "model.json", tmp_path / "test.conll"
    save_model(model_path, model)
    write_conll(data_path, sentences[8:], tagset)
    argv = ["predict", "--model", str(model_path), "--data", str(data_path),
            "--out", str(tmp_path / "pred.conll")]
    with _tracer.Tracer() as tracer:
        assert mcrf.cli.main(argv) == 0
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == 1
    assert metrics["masking.guard_threshold.calls"] == 0
    assert metrics["masking.apply_mask.calls"] == 0
